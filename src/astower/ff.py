"""Exact arithmetic in F_p and F_q = F_{p^(2s+1)}.

Elements are integer codes in range(q): the code of an element with
power-basis coordinates (c0, ..., c_{n-1}) is sum(c_i * p^i), i.e. the
coordinate vector read as a little-endian base-p integer.  All arithmetic
runs on three tables of O(q) entries, the same for every q: log and
antilog to a primitive element g, and Zech's logarithm
Z(k) = log(1 + g^k) for addition (Huber, "Some comments on Zech's
logarithms", IEEE Trans. IT 36, 1990; Lidl-Niederreiter, Finite Fields,
ch. 9).  Negation, Frobenius powers, p-th roots and the trace act on the
log, so the hot loops in `laurent` and `tower` touch nothing but list
indexing.  Fields above the table budget MAX_FIELD_Q are refused, and
`Params` refuses (p, s) by the same rule, applied to F_{p^(2s+1)}.
`tower_rhs` holds the tower's equations, the one copy every layer reads.

The modulus for each (p, n) is the first monic irreducible polynomial of
degree n in ascending code order of its non-leading coefficient vector,
which makes contexts deterministic across runs and machines.  The F_p
basis exposed by `basis_and_reps` is the power basis 1, t, ..., t^(n-1)
of the modulus root t, and the representatives of F_q*/F_p* are the
elements whose highest-index nonzero coordinate equals 1 (there is
exactly one such element on each F_p* orbit).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError, UnsupportedError

# Table budget: the largest field `make_field` builds.  It admits
# q = 7^7 = 823,543 (p = 7, s = 3) and refuses 13^7 ~ 62.7 M (p = 13,
# s = 3), whose tables would need gigabytes.
MAX_FIELD_Q = 1 << 20


class Params:
    """Tower parameters (p, s) with the derived constants q0 = p^s,
    q = p^(2s+1) and n = 2s + 1.

    Every s >= 1 within the field table budget is accepted: the pipeline
    is well defined at s = 1, where the big-action verdict fails, and
    that failing verdict is itself a check.  It is the one gate for
    (p, s): after s, it refuses what make_field(p, 2s + 1) refuses, with
    the same message, and never hangs on a huge p or s.  Like p, s must be
    of type int: a bool is refused, not printed as `true`.
    """

    __slots__ = ("p", "s", "q0", "q", "n")

    def __init__(self, p: int, s: int):
        if type(s) is not int or s < 1:
            raise ParameterError(f"s must be a positive integer, got {s}")
        _check_field(p, 2 * s + 1)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q0", p ** s)
        object.__setattr__(self, "q", p ** (2 * s + 1))
        object.__setattr__(self, "n", 2 * s + 1)

    def __setattr__(self, name, value):
        raise AttributeError("Params is immutable")

    def field(self) -> "FieldCtx":
        return make_field(self.p, self.n)

    def __eq__(self, other):
        return isinstance(other, Params) and (self.p, self.s) == (other.p, other.s)

    def __hash__(self):
        return hash((self.p, self.s))

    def __repr__(self):
        return f"Params(p={self.p}, s={self.s})"


def tower_rhs(params: Params) -> dict[str, dict[tuple[int, int, int], int]]:
    """The right-hand sides of the tower's equations g^q - g = rhs, the
    one place they are written, as {(x, y1, y2) exponents: code}.

    y_i = x^(i q0) (x^q - x) and v_i = x^(i q0) (x^(2q) - x^2) lie in
    F_q[x].  "w" is the w that `tower` presents, over x, y1 and y2, and
    "w'" the paper's primed w, 2 x^(2q0) y1 (x^q - x) + x^(3q0) (x^q - x)^2,
    over x and y1: the w cover that `local` expands.  Every coefficient
    is a small integer c, and its code is the prime-field element c % p.
    """
    p, q0, q = params.p, params.q0, params.q
    table = {
        "y1": {(q0 + q, 0, 0): 1, (q0 + 1, 0, 0): -1},
        "y2": {(2 * q0 + q, 0, 0): 1, (2 * q0 + 1, 0, 0): -1},
        "v1": {(q0 + 2 * q, 0, 0): 1, (q0 + 2, 0, 0): -1},
        "v2": {(2 * q0 + 2 * q, 0, 0): 1, (2 * q0 + 2, 0, 0): -1},
        "w": {(2 * q0 + q, 1, 0): 1, (2 * q0 + 1, 1, 0): -1,
              (q0 + q, 0, 1): -1, (q0 + 1, 0, 1): 1},
        "w'": {(2 * q0 + q, 1, 0): 2, (2 * q0 + 1, 1, 0): -2,
               (3 * q0 + 2 * q, 0, 0): 1, (3 * q0 + q + 1, 0, 0): -2,
               (3 * q0 + 2, 0, 0): 1},
    }
    return {name: {m: c % p for m, c in terms.items()}
            for name, terms in table.items()}


# ------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, ascending, trimmed)
# used only while building a context


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = list(a)
    while len(a) >= len(m):
        c = a[-1]
        if c:
            off = len(a) - len(m)
            for i, cm in enumerate(m):
                a[off + i] = (a[off + i] - c * cm) % p
        a.pop()
    return _ptrim(a)


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _ppow_mod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _is_irreducible(f, p):
    """Rabin's test: deterministic and exact."""
    n = len(f) - 1
    x = [0, 1]
    if _ppow_mod(x, p ** n, f, p) != _pmod(x, f, p):
        return False
    for r in _prime_factors(n):
        h = _psub(_ppow_mod(x, p ** (n // r), f, p), x, p)
        g = _pgcd(f, h, p)
        if len(g) - 1 > 0:
            return False
    return True


def _digits(code: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    for code in range(p ** n):
        f = _digits(code, p, n) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ParameterError(f"no irreducible polynomial of degree {n} over F_{p}")


def _antilog(p: int, n: int, modulus: tuple[int, ...], gen: int,
             ints: list[int]) -> list[int]:
    """Codes of gen^0, ..., gen^(q-2), by the recurrence x -> x * gen.

    Multiplication by gen is F_p-linear on coordinate vectors, so for a
    code x = lo + hi * p^h (h = n // 2) the coordinates of x * gen are
    the digitwise sums of those of lo * gen and (hi * p^h) * gen.  Both
    come from tables of p^h and p^(n-h) entries, stored spread out: one
    coordinate per field of `bits` bits, wide enough (2p - 2 fits) that
    the integer sum of two spreads adds digitwise without carries.  Two
    reader tables, indexed by the halves of such a sum, reduce it mod p
    and return the two halves of the product's code, so each step costs
    a few list lookups whatever n is.  The codes are taken from ints
    (list(range(q))), so the tables share one int object per value.
    """
    q = p ** n
    h = n // 2
    split = p ** h
    bits = (2 * p - 2).bit_length()

    # column i: coordinates of t^i * gen, t the root of the modulus
    cols = [_digits(gen, p, n)]
    for _ in range(n - 1):
        top = cols[-1][-1]
        shifted = [0] + cols[-1][:-1]
        cols.append([(d - top * m) % p for d, m in zip(shifted, modulus)])

    def spread_times_gen(code: int) -> int:
        digs = _digits(code, p, n)
        out = 0
        for j in range(n):
            c = sum(d * col[j] for d, col in zip(digs, cols)) % p
            out |= c << (bits * j)
        return out

    def reader(width: int) -> list[int]:
        # spread with `width` fields in [0, 2p-2] -> code of the fields mod p
        keys, vals = [0], [0]
        sums = range(2 * p - 1)
        for j in range(width):
            keys = [k + (d << (bits * j)) for d in sums for k in keys]
            vals = [v + (d % p) * p ** j for d in sums for v in vals]
        table = [0] * (keys[-1] + 1)
        for k, v in zip(keys, vals):
            table[k] = v
        return table

    lo_tab = [spread_times_gen(c) for c in range(split)]
    hi_tab = [spread_times_gen(c * split) for c in range(q // split)]
    read_lo, read_hi = reader(h), reader(n - h)
    shift = bits * h
    mask = (1 << shift) - 1

    exp = [1] * (q - 1)
    lo, hi = 1 % split, 1 // split
    for k in range(1, q - 1):
        s = lo_tab[lo] + hi_tab[hi]
        lo = read_lo[s & mask]
        hi = read_hi[s >> shift]
        exp[k] = ints[lo + hi * split]
    return exp


class FieldCtx:
    """Immutable arithmetic context for F_{p^n}; build via `make_field`.

    Three tables of O(q) entries carry all arithmetic, with g = `gen`:
    LOG[a] = log_g(a) (None at 0), ALOG[k] = g^k for 0 <= k < 2(q-1)
    (doubled, so a sum of two logs indexes it directly), and the Zech
    table ZECH[k] = log_g(1 + g^k) for 0 <= k < q-1, None at
    k = (q-1)/2 where g^k = -1.  Then for nonzero a, b

        a * b = ALOG[LOG[a] + LOG[b]]
        a + b = ALOG[LOG[a] + ZECH[LOG[b] - LOG[a]]]

    (a negative index into ZECH wraps mod q-1, as it should), negation
    adds (q-1)/2 to the log, and the k-th Frobenius power multiplies the
    log by p^k.
    """

    __slots__ = ("p", "n", "q", "modulus", "gen", "LOG", "ALOG", "ZECH",
                 "kernel_args", "_half")

    def __init__(self, p: int, n: int):
        q = p ** n
        modulus = _find_modulus(p, n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "modulus", modulus)

        factors = _prime_factors(q - 1)
        gen = None
        for g in range(2, q):
            if all(_ppow_mod(_digits(g, p, n), (q - 1) // r, modulus, p)
                   != [1] for r in factors):
                gen = g
                break
        if gen is None:
            raise ParameterError(f"no multiplicative generator found for q={q}")
        object.__setattr__(self, "gen", gen)

        ints = list(range(q))
        exp = _antilog(p, n, modulus, gen, ints)
        log: list = [None] * q
        for i, v in zip(ints, exp):
            log[v] = i
        # 1 + v changes only coordinate 0 of v, so only its base-p digit 0
        zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
        object.__setattr__(self, "LOG", log)
        object.__setattr__(self, "ALOG", exp + exp)
        object.__setattr__(self, "ZECH", zech)
        object.__setattr__(self, "kernel_args", (log, self.ALOG, zech))
        object.__setattr__(self, "_half", (q - 1) // 2)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    # ---------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self.LOG[a]
        z = self.ZECH[self.LOG[b] - la]
        return 0 if z is None else self.ALOG[la + z]

    def neg(self, a: int) -> int:
        return self.ALOG[self.LOG[a] + self._half] if a else 0

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.ALOG[self.LOG[a] + self.LOG[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.ALOG[(self.q - 1) - self.LOG[a]]

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        return self.ALOG[(self.LOG[a] * e) % (self.q - 1)]

    def frobenius_iter(self, a: int, k: int) -> int:
        """a^(p^k); k is taken mod n, so k = -1 inverts one Frobenius."""
        return self.pow_int(a, self.p ** (k % self.n))

    def p_root(self, a: int) -> int:
        """Unique p-th root, computed as a^(p^(n-1))."""
        return self.frobenius_iter(a, -1)

    def trace_to_prime(self, a: int) -> int:
        t = 0
        for k in range(self.n):
            t = self.add(t, self.frobenius_iter(a, k))
        return t

    # ---------------------------------------------------------- conversions

    def to_coeffs(self, a: int) -> list[int]:
        return _digits(a, self.p, self.n)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n})"


@lru_cache(maxsize=None, typed=True)
def make_field(p: int, n: int) -> FieldCtx:
    """The cached context for F_{p^n}, once `_check_field` admits it.
    The cache is typed: True == 1, and an untyped cache would hand
    make_field(3, True) the F_3 entry without that check.

    Near the table budget, at q = 101^3 = 1,030,301 on 64-bit CPython
    3.11, the tables hold about 66 MiB and building them peaks about
    81 MiB above the interpreter's baseline.
    """
    _check_field(p, n)
    return FieldCtx(p, n)


def _check_field(p: int, n: int) -> None:
    """Refuse F_{p^n} unless p is an odd prime, n >= 1 and p^n is at most
    MAX_FIELD_Q.  The budget is decided before the primality test and
    without computing a huge power, so a huge p or n is refused at once.
    p and n must be of type int, so a bool is refused.
    """
    if type(p) is not int or p < 3:
        raise ParameterError(f"p must be an odd prime, got {p}")
    if type(n) is not int or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    q = 1
    for _ in range(n):
        q *= p
        if q > MAX_FIELD_Q:
            raise UnsupportedError(
                f"F_{p}^{n} has more than {MAX_FIELD_Q} elements, above the "
                "field table budget")
    if _prime_factors(p) != [p]:
        raise ParameterError(f"p must be an odd prime, got {p}")


def prime_basis(ctx: FieldCtx) -> list[int]:
    """F_p-basis of F_q: the power basis 1, t, ..., t^(n-1), as codes."""
    return [ctx.p ** i for i in range(ctx.n)]


def basis_and_reps(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """F_p-basis (`prime_basis`) and F_q*/F_p* reps.

    Representatives follow the leading-coordinate-1 rule: a nonzero code
    is kept iff its highest-index nonzero base-p digit equals 1.  Scaling
    by the inverse of the leading digit shows each F_p* orbit contains
    exactly one such element, so the list has (q-1)/(p-1) entries in
    ascending code order.
    """
    reps = []
    for code in range(1, ctx.q):
        digs = ctx.to_coeffs(code)
        lead = max(i for i, d in enumerate(digs) if d)
        if digs[lead] == 1:
            reps.append(code)
    return prime_basis(ctx), reps
