"""Field-layer tests against an independent naive polynomial oracle.

The oracle below implements F_{p^n} arithmetic straight from coefficient
lists with no shared code, table, or search logic from `astower.ff`, so
agreement is meaningful.
"""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from astower.errors import ParameterError, UnsupportedError
from astower.ff import (FieldCtx, Params, basis_and_reps, lp_map_pow,
                        lp_mul, make_field)
from astower.laurent import LaurentPoly, TruncatedSeries
from astower.tower import presentation


# ---------------------------------------------------------------- oracle

def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return trim(out)


def pmod(a, m, p):
    # m monic
    a = list(a)
    while len(a) >= len(m):
        c = a[-1] % p
        if c:
            off = len(a) - len(m)
            for i, cm in enumerate(m):
                a[off + i] = (a[off + i] - c * cm) % p
        a.pop()
    return trim(a)


def digits(code, p, n):
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def code_of(digs, p):
    out = 0
    for d in reversed(digs):
        out = out * p + d
    return out


def has_root(f, p):
    return any(sum(c * pow(a, i, p) for i, c in enumerate(f)) % p == 0
               for a in range(p))


def first_irreducible_cubic(p):
    """Ascending-code search, irreducibility by root test (valid for cubics)."""
    for code in range(p ** 3):
        f = digits(code, p, 3) + [1]
        if not has_root(f, p):
            return f
    raise AssertionError("no irreducible cubic found")


class NaiveField:
    def __init__(self, p, modulus):
        self.p = p
        self.m = list(modulus)
        self.n = len(modulus) - 1

    def mul(self, a, b):
        digs = pmul(digits(a, self.p, self.n), digits(b, self.p, self.n), self.p)
        return code_of(pmod(digs, self.m, self.p) + [0] * self.n, self.p)

    def add(self, a, b):
        return code_of(padd(digits(a, self.p, self.n), digits(b, self.p, self.n),
                            self.p) + [0] * self.n, self.p)

    def neg(self, a):
        return code_of([(-d) % self.p for d in digits(a, self.p, self.n)],
                       self.p)

    def frob(self, a):
        """a^p by p - 1 multiplications."""
        out = a
        for _ in range(self.p - 1):
            out = self.mul(out, a)
        return out


# ---------------------------------------------------------------- frozen values

def test_prime_field_modulus_is_t():
    ctx = make_field(3, 1)
    assert ctx.q == 3
    assert ctx.modulus == (0, 1)


def test_f27_modulus_matches_exhaustive_search():
    ctx = make_field(3, 3)
    assert list(ctx.modulus) == first_irreducible_cubic(3)
    assert ctx.modulus == (1, 2, 0, 1)  # t^3 + 2t + 1


def test_f125_modulus_matches_exhaustive_search():
    ctx = make_field(5, 3)
    assert list(ctx.modulus) == first_irreducible_cubic(5)
    assert ctx.modulus == (1, 1, 0, 1)  # t^3 + t + 1


def test_frobenius_of_t_in_f27():
    ctx = make_field(3, 3)
    t = 3  # coordinates (0, 1, 0)
    t_plus_2 = 5  # coordinates (2, 1, 0)
    assert ctx.frobenius_iter(t, 1) == t_plus_2
    assert ctx.frobenius_iter(t_plus_2, -1) == t


def test_basis_is_power_basis():
    ctx = make_field(3, 3)
    basis, _ = basis_and_reps(ctx)
    t = 3  # coordinates (0, 1, 0)
    assert basis == [1, t, ctx.mul(t, t)]


@pytest.mark.parametrize("p,n,count", [(3, 1, 1), (3, 3, 13), (5, 3, 31)])
def test_rep_counts(p, n, count):
    ctx = make_field(p, n)
    _, reps = basis_and_reps(ctx)
    assert len(reps) == count == (ctx.q - 1) // (p - 1)
    if count == 1:
        assert reps == [1]


def test_reps_leading_coordinate_rule_and_uniqueness():
    ctx = make_field(3, 3)
    _, reps = basis_and_reps(ctx)
    for r in reps:
        coeffs = ctx.to_coeffs(r)
        lead = max(i for i, c in enumerate(coeffs) if c)
        assert coeffs[lead] == 1
    # every nonzero element is (unique rep) * (unique scalar in F_p^*)
    seen = {}
    for lam in range(1, 3):
        for r in reps:
            e = ctx.mul(lam, r)
            assert e not in seen
            seen[e] = (r, lam)
    assert len(seen) == ctx.q - 1


# ---------------------------------------------------------------- parameter guards

def test_make_field_rejects_bad_primes():
    with pytest.raises(ParameterError):
        make_field(2, 1)
    with pytest.raises(ParameterError):
        make_field(9, 2)
    with pytest.raises(ParameterError):
        make_field(3, 0)


def test_params_validation_and_derived_quantities():
    pr = Params(3, 1)
    assert (pr.q0, pr.q, pr.n) == (3, 27, 3)
    with pytest.raises(ParameterError):
        Params(2, 1)
    with pytest.raises(ParameterError):
        Params(3, 0)


def test_a_bool_is_refused_where_an_int_is_asked():
    # True == 1 and hashes alike, so make_field(3, True) would become the
    # cached F_3 that make_field(3, 1) returns, and Params(3, True)
    # would print "s": true
    for build in (lambda: Params(3, True), lambda: Params(True, 1),
                  lambda: make_field(3, True), lambda: make_field(True, 1)):
        with pytest.raises(ParameterError):
            build()
    assert make_field(3, 1).n == 1 and type(make_field(3, 1).n) is int


# ---------------------------------------------------------------- oracle cross-check

def _oracle_codes(ctx):
    """Every code for q <= 125, else a fixed sample of about 50 codes."""
    if ctx.q <= 125:
        return list(range(ctx.q))
    p, q = ctx.p, ctx.q
    return sorted({0, 1, p - 1, p, q - 2, q - 1}
                  | set(range(0, q, q // 45)))


_ORACLE_GRID = [(3, 3), (5, 3), (3, 5), (7, 3), (3, 7), (5, 5)]


@pytest.mark.parametrize("p,n", _ORACLE_GRID)
def test_arithmetic_matches_naive_oracle(p, n):
    ctx = make_field(p, n)
    naive = NaiveField(p, ctx.modulus)
    codes = _oracle_codes(ctx)
    for a in codes:
        for b in codes:
            assert ctx.mul(a, b) == naive.mul(a, b)
            assert ctx.add(a, b) == naive.add(a, b)
            assert ctx.add(a, ctx.neg(b)) == naive.add(a, naive.neg(b))
    for a in codes:
        assert ctx.neg(a) == naive.neg(a)
        iterates = [a]
        for _ in range(n):
            iterates.append(naive.frob(iterates[-1]))
        assert iterates[n] == a
        for k in range(n + 1):
            assert ctx.frobenius_iter(a, k) == iterates[k]
        assert ctx.frobenius_iter(a, -1) == iterates[n - 1]
        assert naive.frob(ctx.p_root(a)) == a


def _naive_lp_mul(a, b, naive, out=None):
    out = dict(out or {})
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = naive.add(out.get(e, 0), naive.mul(ca, cb))
    return {e: c for e, c in out.items() if c}


def _memo_size(memo):
    return sum(len(row) for row in memo.values())


@pytest.mark.parametrize("p,n", _ORACLE_GRID)
def test_memoized_kernel_matches_naive_oracle(p, n):
    """lp_mul, with and without `out` and with a scalar first, and
    lp_map_pow agree with the oracle on seeded random sparse
    polynomials, starting from empty memos.  Then every pair runs again
    in the reverse order: products and sums commute, so those calls read
    the entries the first pass stored under the mirrored key, must
    still agree, and must store nothing new."""
    ctx = FieldCtx(p, n)  # not make_field's cached one: empty memos
    naive = NaiveField(p, ctx.modulus)
    rng = random.Random(p ** n)
    # a few codes and their negatives, so that sums cancel
    pool = [rng.randrange(1, ctx.q) for _ in range(6)]
    pool += [naive.neg(c) for c in pool] + [1, p - 1]

    def poly(size):
        return {e: rng.choice(pool) for e in rng.sample(range(-6, 7), size)}

    # equal sizes, so lp_mul's outer loop runs over its first operand
    pairs = [(poly(size), poly(size)) for size in range(1, 7)
             for _ in range(3)]
    scalars = [rng.choice([0] + pool) for _ in pairs]
    for (a, b), c in zip(pairs, scalars):
        assert lp_mul(a, b, ctx) == _naive_lp_mul(a, b, naive)
        assert lp_mul(a, b, ctx, dict(b)) == _naive_lp_mul(a, b, naive, b)
        assert lp_mul({0: c}, b, ctx) == _naive_lp_mul({0: c}, b, naive)
        assert lp_mul({0: c}, b, ctx, dict(a)) == \
            _naive_lp_mul({0: c}, b, naive, a)
        assert lp_mul({0: 1}, b, ctx, dict(a)) == \
            _naive_lp_mul({0: 1}, b, naive, a)
        for k in range(n + 2):
            images = {}
            for e, code in a.items():
                for _ in range(k):
                    code = naive.frob(code)
                images[e * p ** k] = code
            assert lp_map_pow(a, k, ctx) == images
    products = _memo_size(ctx._products)
    for a, b in pairs:
        assert lp_mul(b, a, ctx) == _naive_lp_mul(a, b, naive)
    assert _memo_size(ctx._products) == products
    sums = _memo_size(ctx._sums)
    for a, b in pairs:
        assert lp_mul({0: 1}, a, ctx, dict(b)) == \
            _naive_lp_mul({0: 1}, b, naive, a)
    assert _memo_size(ctx._sums) == sums


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3), (3, 5)])
def test_additive_edge_cases(p, n):
    """Additive edge cases: a + (-a) = 0, a + 0 = a, -0 = 0 and
    -1 = p - 1."""
    ctx = make_field(p, n)
    assert ctx.neg(1) == p - 1
    assert ctx.add(1, p - 1) == 0
    assert ctx.add(0, 0) == ctx.neg(0) == 0
    for a in range(ctx.q):
        assert ctx.add(a, ctx.neg(a)) == ctx.add(ctx.neg(a), a) == 0
        assert ctx.add(a, 0) == ctx.add(0, a) == a


def test_field_budget_refuses_before_allocating():
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(UnsupportedError):
            make_field(13, 7)  # q ~ 62.7 M, the field of (p, s) = (13, 3)
        with pytest.raises(UnsupportedError):
            make_field(3, 13)  # 1,594,323, just over 2^20
        with pytest.raises(UnsupportedError):
            make_field(10 ** 30 + 57, 1)  # refused before trial division
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0
    assert peak < 1 << 20


def _field_strategy(p, n):
    q = p ** n
    return st.integers(min_value=0, max_value=q - 1)


@pytest.mark.parametrize("p,n", [(3, 3), (3, 5), (5, 3)])
def test_field_axioms(p, n):
    ctx = make_field(p, n)

    @given(_field_strategy(p, n), _field_strategy(p, n), _field_strategy(p, n))
    def inner(a, b, c):
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.mul(a, 1) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1

    inner()


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3)])
def test_frobenius_is_ring_homomorphism(p, n):
    ctx = make_field(p, n)

    @given(_field_strategy(p, n), _field_strategy(p, n))
    def inner(a, b):
        fa, fb = ctx.frobenius_iter(a, 1), ctx.frobenius_iter(b, 1)
        assert ctx.frobenius_iter(ctx.mul(a, b), 1) == ctx.mul(fa, fb)
        assert ctx.frobenius_iter(ctx.add(a, b), 1) == ctx.add(fa, fb)
        assert ctx.frobenius_iter(a, n) == a

    inner()


def test_pth_root_inverts_frobenius():
    ctx = make_field(3, 3)
    for a in range(ctx.q):
        r = ctx.p_root(a)
        assert ctx.frobenius_iter(r, 1) == a


def test_inverse_of_every_nonzero_code():
    for p, n in ((3, 1), (3, 3), (5, 3), (3, 5)):
        ctx = make_field(p, n)
        for a in range(1, ctx.q):
            assert ctx.mul(ctx.inv(a), a) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


def test_coeff_serialization_round_trip():
    ctx = make_field(5, 3)
    for code in range(0, ctx.q, 11):
        coords = ctx.to_coeffs(code)
        assert all(0 <= c < 5 for c in coords)
        assert sum(c * 5 ** i for i, c in enumerate(coords)) == code
    assert ctx.to_coeffs(0) == [0, 0, 0]


def test_make_field_is_cached_and_context_immutable():
    a = make_field(3, 3)
    b = make_field(3, 3)
    assert a is b
    with pytest.raises(AttributeError):
        a.q = 1  # type: ignore[misc]


def _power_bases():
    """One element of each type that takes `ff.power`: a Laurent
    polynomial over F_27 and tower elements at (3,1) and (5,1) whose
    powers reach the generators' relations."""
    F27 = make_field(3, 3)
    yield LaurentPoly(F27, {-2: 5, 0: 1, 3: 26}), LaurentPoly(F27, {0: 1}), 3
    for p in (3, 5):
        pres = presentation(Params(p, 1))
        base = (pres.element({(0, pres.params.q // p, 0, 0, 0, 0): 1})
                + pres.x().scale(2) + pres.gen("w"))
        yield base, pres.const(1), p


@pytest.mark.parametrize("base, one, p", list(_power_bases()),
                         ids=["laurent-F27", "tower-3-1", "tower-5-1"])
def test_power_is_the_repeated_product(base, one, p):
    product = one
    for e in range(p * p + 2):
        assert base ** e == product, e
        product = product * base


def test_negative_power_is_refused_alike_by_both_element_types():
    for refused in (lambda base: base ** -1, lambda base: base.pow_pk(-1)):
        messages = set()
        for base, _, _ in _power_bases():
            with pytest.raises(ParameterError) as exc:
                refused(base)
            messages.add(str(exc.value))
        assert len(messages) == 1


def test_codes_outside_the_field_are_refused_at_every_entry():
    """A code is an element of F_q only in range(q): 27 and 30 would be
    read by their low base-3 digits as 0 and 3, and -1 kept as it is."""
    F27 = make_field(3, 3)
    pres = presentation(Params(3, 1))
    poly = LaurentPoly(F27, {-1: 1})
    series = TruncatedSeries(F27, {-1: 1}, 5)
    entries = [
        lambda c: pres.element({(0,) * 6: c}),
        pres.const,
        pres.gen("y1").scale,
        poly.scale,
        series.scale,
        lambda c: LaurentPoly(F27, {0: c}),
        lambda c: TruncatedSeries(F27, {0: c}, 5),
        lambda c: F27.add(c, 1),
        lambda c: F27.mul(1, c),
        F27.neg,
    ]
    for entry in entries:
        for code in (27, 30, -1):
            with pytest.raises(ParameterError, match=f"code {code} is not"):
                entry(code)
        entry(26)  # the largest code is accepted


def test_powers_roots_and_frobenius_refuse_codes_outside_the_field():
    """inv, frobenius_iter and p_root read no code by its low base-p
    digits either (30 used to give an inverse 19, a Frobenius image 5
    and a root 4), and no refused code is left in the Frobenius memo."""
    F27 = make_field(3, 3)
    entries = [
        F27.inv,
        lambda c: F27.frobenius_iter(c, 1),
        F27.p_root,
    ]
    for entry in entries:
        for code in (27, 30, -1, -4):
            with pytest.raises(ParameterError, match=f"code {code} is not"):
                entry(code)
        entry(26)  # the largest code is accepted
    for memo in F27._frob.values():
        assert all(0 <= a < 27 for a in memo)
