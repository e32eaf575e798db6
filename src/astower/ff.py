"""Exact arithmetic in F_p and F_q = F_{p^(2s+1)}.

Elements are integer codes in range(q): the code of an element with
power-basis coordinates (c0, ..., c_{n-1}) is sum(c_i * p^i), i.e. the
coordinate vector read as a little-endian base-p integer.  The code is
the field's only state, and every q takes the same path: a product
multiplies the coordinate vectors as polynomials in t and reduces by the
modulus, with the dense helpers that also find the modulus; a sum adds
digitwise mod p; the k-th Frobenius power applies the coordinates of
t^(i p^k); and an inverse is the product b of the other Frobenius images
times the inverse mod p of the norm a*b (Lidl-Niederreiter, Finite
Fields, ch. 2).  Each result is memoized inside the `FieldCtx`, so a
report computes each distinct product once.  The memos stay in this
module: `laurent`, `tower` and `genus` pass the context to its sparse
kernel, `lp_mul` and `lp_map_pow`, and no other module reads them.
Every sum, difference, scaling and echelon row update is one `lp_mul` by
a one-term scalar {0: c}, passed first, and a zero code in that scalar
adds nothing, so scaling by 0 needs no guard of its own.  `lp_map_pow`
is the one p^k-th power of every element type, and `power` the one e-th
power: it climbs the base-p digits of e with the type's own p^k-th power
and product.  Fields above the budget MAX_FIELD_Q are refused, and
`Params` refuses (p, s) by the same rule, applied to F_{p^(2s+1)}.  A
code outside range(q) is refused (`FieldCtx.check`) wherever a caller
hands one in.  `tower_rhs` holds the tower's equations, the one copy
every layer reads.

The modulus for each (p, n) is the first monic irreducible polynomial of
degree n in ascending code order of its non-leading coefficient vector,
which makes contexts deterministic across runs and machines.  The F_p
basis exposed by `basis_and_reps` is the power basis 1, t, ..., t^(n-1)
of the modulus root t, and the representatives of F_q*/F_p* are the
elements whose highest-index nonzero coordinate equals 1 (there is
exactly one such element on each F_p* orbit).
"""

import operator
from collections import defaultdict
from functools import lru_cache

from .errors import ParameterError, UnsupportedError

# Field budget: the largest field `make_field` builds.  It admits
# q = 7^7 = 823,543 (p = 7, s = 3) and refuses 13^7 ~ 62.7 M (p = 13,
# s = 3).  It bounds only the time and memory a field's work may take;
# nothing is allocated per element, so the memos do not set it.
MAX_FIELD_Q = 1 << 20


class Params:
    """Tower parameters (p, s) with the derived constants q0 = p^s,
    q = p^(2s+1) and n = 2s + 1.

    Every s >= 1 within the field budget is accepted: the pipeline
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
# dense polynomial helpers over F_p (coefficient lists, ascending, trimmed):
# the modulus search and every memo miss run on them


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b):
    """a * b with its coefficients left unreduced; every caller reduces
    the product with `_pmod`."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _pmod(a, m, p):
    """a modulo the monic m; a's coefficients may be any integers."""
    a = list(a)
    while len(a) >= len(m):
        c = a[-1] % p
        if c:
            off = len(a) - len(m)
            for i, cm in enumerate(m, off):
                a[i] -= c * cm
        a.pop()
    return _ptrim([c % p for c in a])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _ppow_mod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base), m, p)
        base = _pmod(_pmul(base, base), m, p)
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
    """Rabin's test, deterministic and exact, after rejecting at once an f
    with a root in F_p (most reducible ones have one)."""
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if not value:
            return False
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


def _code(coeffs: list[int], p: int) -> int:
    """The code of a coordinate vector of integers, each taken mod p: its
    digits read in base p."""
    out = 0
    for c in reversed(coeffs):
        out = out * p + c % p
    return out


class _Memo(dict):
    """The cache of a pure one-argument function `fn`: memo[x] is fn(x),
    computed on the first read and then stored."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        y = self[x] = self.fn(x)
        return y


class FieldCtx:
    """Immutable arithmetic context for F_{p^n}; build via `make_field`.

    The code is the field's only state.  A product is the product of the
    two coordinate vectors as polynomials in t, reduced by `modulus`; a
    sum is their digitwise sum mod p; and the k-th Frobenius power sends
    coordinate i to the coordinates of t^(i p^k), columns computed once
    per k.  A factor in F_p (a code below p) just scales the coordinates;
    -a is (p - 1) * a, and a^-1 is read off the Frobenius images.  Each
    result is memoized inside the context: `_products[a][b]` and
    `_sums[a][b]`, stored under both orders since both operations
    commute, `_frob[k][a]`, and `_coords[a]`, the coordinate list every
    computation starts from.  The memos are caches of pure functions, so they change no
    result; they grow with the operations performed, not with q.
    """

    __slots__ = ("p", "n", "q", "modulus", "_coords", "_products", "_sums",
                 "_frob")

    def __init__(self, p: int, n: int):
        coords = _Memo(lambda a: _digits(a, p, n))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", p ** n)
        object.__setattr__(self, "modulus", _find_modulus(p, n))
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_products", defaultdict(dict))
        object.__setattr__(self, "_sums", defaultdict(dict))
        object.__setattr__(self, "_frob", _Memo(self._frobenius))

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    def check(self, *codes: int) -> None:
        """Refuse a code outside range(q) with ParameterError.  `add` and
        `mul` check on a memo miss: a pair the memo holds was checked, or
        came from the kernel, whose codes all came through a check."""
        if codes and (min(codes) < 0 or max(codes) >= self.q):
            bad = next(c for c in codes if not 0 <= c < self.q)
            raise ParameterError(f"code {bad} is not an element of F_{self.q}")

    # --------------------------------------------------------- memo misses

    def _product(self, a: int, b: int) -> int:
        p, coords, products = self.p, self._coords, self._products
        if b < p:
            a, b = b, a
        if a < p:
            c = _code([a * x for x in coords[b]], p)
        else:
            c = _code(_pmod(_pmul(coords[a], coords[b]), self.modulus, p), p)
        products[a][b] = products[b][a] = c
        return c

    def _sum(self, a: int, b: int) -> int:
        coords, sums = self._coords, self._sums
        c = sums[a][b] = sums[b][a] = _code(
            list(map(operator.add, coords[a], coords[b])), self.p)
        return c

    def _frobenius(self, k: int) -> _Memo:
        """The memo of a -> a^(p^k), for 0 <= k < n: a(t)^(p^k) is
        a(t^(p^k)), so coordinate i of a goes to the coordinates of
        t^(i p^k), with t^(p^k) taken by square-and-multiply mod the
        modulus."""
        p, n, m, coords = self.p, self.n, self.modulus, self._coords
        tk = _ppow_mod([0, 1], p ** k, m, p)
        cols, col = [], [1]
        for _ in range(n):
            cols.append(col + [0] * (n - len(col)))
            col = _pmod(_pmul(col, tk), m, p)
        rows = list(zip(*cols))
        return _Memo(lambda a: _code(
            [sum(map(operator.mul, coords[a], row)) for row in rows], p))

    # ---------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        c = self._sums[a].get(b)
        if c is None:
            self.check(a, b)
            c = self._sum(a, b)
        return c

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def mul(self, a: int, b: int) -> int:
        c = self._products[a].get(b)
        if c is None:
            self.check(a, b)
            c = self._product(a, b)
        return c

    def inv(self, a: int) -> int:
        """a^-1 from the norm: b = a^p * a^(p^2) * ... * a^(p^(n-1)), read
        from the Frobenius memos, makes a*b the norm of a, in F_p, so
        a^-1 = b * (a*b)^-1 with the last inverse taken mod p."""
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        b = 1
        for k in range(1, self.n):
            b = self.mul(b, self._frob[k][a])
        return self.mul(pow(self.mul(a, b), -1, self.p), b)

    def frobenius_iter(self, a: int, k: int) -> int:
        """a^(p^k); k is taken mod n, so k = -1 inverts one Frobenius."""
        self.check(a)
        return self._frob[k % self.n][a]

    def p_root(self, a: int) -> int:
        """Unique p-th root, computed as a^(p^(n-1))."""
        return self.frobenius_iter(a, -1)

    # ---------------------------------------------------------- conversions

    def to_coeffs(self, a: int) -> list[int]:
        return _digits(a, self.p, self.n)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n})"


# ------------------------------------------------------------------
# the sparse kernel: polynomials are dicts {exponent: nonzero code}


def lp_mul(a, b, ctx, out=None):
    """Product of two sparse polynomials (dict cross product).

    Exponents only need `+`, so packed monomials work as well as ints.
    With `out` given, the product is added into that dict in place and
    the dict is returned, so a + c*b is lp_mul({0: c}, b, ctx, dict(a)).
    The outer loop runs over the shorter operand (over `a` on a tie) and
    skips a zero code.  A scalar {0: c} therefore goes first: it is then
    always the outer operand, so c may be 0 and then adds nothing.  Each
    coefficient product and sum is read from the context's memos, and
    only a miss computes one.
    """
    products, sums = ctx._products, ctx._sums
    if out is None:
        out = {}
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        if not ca:
            continue
        row = products[ca]
        for eb, cb in b.items():
            e = ea + eb
            try:
                c = row[cb]
            except KeyError:
                c = ctx._product(ca, cb)
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                try:
                    c = sums[prev][c]
                except KeyError:
                    c = ctx._sum(prev, c)
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def lp_map_pow(a, k, ctx):
    """Monomial-wise p^k-th power x -> x^(p^k), for k >= 0: exponents are
    multiplied by p^k and each coefficient c becomes c^(p^k).  Valid
    because x -> x^(p^k) is additive in characteristic p and never sends
    a nonzero code to 0.  The one refusal of a negative k for every
    element type's `pow_pk`."""
    if k < 0:
        raise ParameterError(f"p^{k}-th power: k must be nonnegative")
    frob, scale = ctx._frob[k % ctx.n], ctx.p ** k
    return {e * scale: frob[c] for e, c in a.items()}


def power(x, e: int, one, p: int):
    """x ** e for an element x of characteristic p, from `one`, the
    element 1: one x.pow_pk(k) per nonzero base-p digit of e and one
    product per unit of that digit."""
    if e < 0:
        raise ParameterError(f"x ** {e}: the exponent must be nonnegative")
    out, k = one, 0
    while e:
        e, digit = divmod(e, p)
        if digit:
            block = x.pow_pk(k)
            for _ in range(digit):
                out = out * block
        k += 1
    return out


@lru_cache(maxsize=None, typed=True)
def make_field(p: int, n: int) -> FieldCtx:
    """The cached context for F_{p^n}, once `_check_field` admits it.
    The cache is typed: True == 1, and an untyped cache would hand
    make_field(3, True) the F_3 entry without that check.

    Building one costs the modulus search and nothing per element; its
    memos grow with the operations performed, not with q.
    """
    _check_field(p, n)
    return FieldCtx(p, n)


def _check_field(p: int, n: int) -> None:
    """Refuse F_{p^n} unless p is an odd prime, n >= 1 and p^n is at most
    MAX_FIELD_Q, a bound on time and memory alone.  The budget is decided
    before the primality test and without computing a huge power, so a
    huge p or n is refused at once.
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
                "field budget")
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
