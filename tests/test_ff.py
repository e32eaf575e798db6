"""Field-layer tests against an independent naive polynomial oracle.

The oracle below implements F_{p^n} arithmetic straight from coefficient
lists with no shared code, table, or search logic from `astower.ff`, so
agreement is meaningful.
"""

import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from astower.errors import ParameterError, UnsupportedError
from astower.ff import FieldCtx, Params, basis_and_reps, make_field


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

    def trace(self, a):
        t, x = 0, a
        for _ in range(self.n):
            t = self.add(t, x)
            x = self.frob(x)
        return t


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


def test_trace_values_in_f27():
    ctx = make_field(3, 3)
    t = 3  # coordinates (0, 1, 0)
    assert ctx.trace_to_prime(0) == 0
    assert ctx.trace_to_prime(t) == 0
    assert ctx.trace_to_prime(ctx.mul(t, t)) == 2


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
        assert ctx.trace_to_prime(a) == naive.trace(a) < p


def _naive_order(naive, a):
    """Multiplicative order of a nonzero code, by successive products."""
    k, x = 1, a
    while x != 1:
        x = naive.mul(x, a)
        k += 1
    return k


@pytest.mark.parametrize("p,n", _ORACLE_GRID)
def test_gen_is_the_smallest_primitive_code(p, n):
    ctx = make_field(p, n)
    naive = NaiveField(p, ctx.modulus)
    assert _naive_order(naive, ctx.gen) == ctx.q - 1
    assert all(_naive_order(naive, g) < ctx.q - 1 for g in range(1, ctx.gen))


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3), (3, 5)])
def test_zech_edge_cases(p, n):
    ctx = make_field(p, n)
    q, half = ctx.q, (ctx.q - 1) // 2
    # 1 + g^k = 0 only at k = (q-1)/2, where g^k = -1
    assert [k for k, z in enumerate(ctx.ZECH) if z is None] == [half]
    assert len(ctx.ZECH) == q - 1
    assert ctx.ALOG[half] == ctx.neg(1) == p - 1
    assert ctx.add(1, ctx.ALOG[half]) == 0
    assert ctx.add(0, 0) == ctx.neg(0) == 0
    for a in range(q):
        assert ctx.add(a, ctx.neg(a)) == ctx.add(ctx.neg(a), a) == 0
        assert ctx.add(a, 0) == ctx.add(0, a) == a


@pytest.mark.parametrize("p,n", [(3, 3), (3, 5), (3, 7)])
def test_antilog_is_successive_products_by_gen(p, n):
    ctx = make_field(p, n)
    naive = NaiveField(p, ctx.modulus)
    q = ctx.q
    assert len(ctx.ALOG) == 2 * (q - 1) and ctx.LOG[0] is None
    x = 1
    for k in range(q - 1):
        assert ctx.ALOG[k] == ctx.ALOG[k + q - 1] == x
        assert ctx.LOG[x] == k
        x = naive.mul(x, ctx.gen)
    assert x == 1


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
        assert ctx.pow_int(r, 3) == a


def test_trace_is_surjective():
    for p, n in [(3, 3), (5, 3)]:
        ctx = make_field(p, n)
        assert {ctx.trace_to_prime(e) for e in range(ctx.q)} == set(range(p))


def test_pow_int_and_inverse_edge_cases():
    ctx = make_field(3, 3)
    for a in range(1, ctx.q):
        assert ctx.pow_int(a, ctx.q - 1) == 1
        assert ctx.mul(ctx.pow_int(a, -1), a) == 1
    assert ctx.pow_int(0, 5) == 0
    assert ctx.pow_int(0, 0) == 1
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
