"""Sparse Laurent polynomial and truncated series layer.

The multiplication oracle here is a dense dict-of-dicts product written
directly against the field context, so it exercises none of the kernel
code paths (memoized products and sums, in-place accumulation).
"""

import math
import operator

import pytest
from hypothesis import given, strategies as st

from astower.errors import ParameterError
from astower.ff import make_field
from astower.laurent import (
    LaurentPoly,
    TruncatedSeries,
    reset_support_watermark,
    support_watermark,
)
from astower.local import basis_rows, reduce_mod_wp


def naive_mul(ctx, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = ctx.add(out.get(e, 0), ctx.mul(ca, cb))
    return {e: c for e, c in out.items() if c}


def sparse_dicts(ctx, min_exp=-40, max_exp=40, max_terms=8):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp),
        st.integers(min_value=1, max_value=ctx.q - 1),
        max_size=max_terms,
    )


# ---------------------------------------------------------------- frozen


def test_mul_cancellation_prime_field(F3):
    a = LaurentPoly(F3, {-1: 1, 0: 1})
    b = LaurentPoly(F3, {-1: 1, 0: 2})
    assert (a * b).d == {-2: 1, 0: 2}


def test_mul_monomial_shift(F27):
    # the parametrization of x at the infinite place, cleared of its pole
    x = LaurentPoly(F27, {-27: 1, 207: 1, 233: F27.neg(1)})
    z27 = LaurentPoly(F27, {27: 1})
    assert (x * z27).d == {0: 1, 234: 1, 260: 2}


def test_mul_conjugate_pair(F27):
    t = 3
    a = LaurentPoly(F27, {1: 1, 0: t})
    b = LaurentPoly(F27, {1: 1, 0: F27.neg(t)})
    assert (a * b).d == {2: 1, 0: F27.neg(F27.mul(t, t))}
    assert F27.neg(F27.mul(t, t)) == 18


def test_pow_pk_frozen(F27):
    a = LaurentPoly(F27, {-2: 3})
    assert a.pow_pk(1).d == {-6: F27.frobenius_iter(3, 1)}
    assert F27.frobenius_iter(3, 1) == 5  # t^3 = t + 2 under t^3 + 2t + 1


def test_valuation_and_principal_part(F27):
    # the additive reduction is what reads a principal part: it keeps
    # the poles and drops the constant and the terms without a pole
    a = LaurentPoly(F27, {-5: 2, 0: 1, 3: 4})
    assert a.valuation() == -5
    assert reduce_mod_wp(F27, a) == {-5: 2}
    assert LaurentPoly(F27).valuation() is None
    assert reduce_mod_wp(F27, LaurentPoly(F27, {2: 1, 7: 3})) == {}


def test_zero_handling(F27):
    a = LaurentPoly(F27, {-3: 5, 2: 7})
    z = a - a
    assert z.d == {}
    assert z.valuation() is None
    assert (z * a).d == {}
    assert LaurentPoly(F27, {4: 0}).d == {}


def test_scale_by_zero_is_zero(F27):
    # the kernel multiplies on logs and 0 has none, so scale guards it
    a = LaurentPoly(F27, {-3: 5, 2: 7})
    assert a.scale(0) == LaurentPoly(F27)
    s = TruncatedSeries(F27, {-3: 5, 2: 7}, prec=4)
    zero = s.scale(0)
    assert (zero.d, zero.prec) == ({}, 4)


# ---------------------------------------------------------------- oracle


@given(data=st.data())
def test_mul_matches_naive(data):
    ctx = make_field(3, 3)
    da = data.draw(sparse_dicts(ctx))
    db = data.draw(sparse_dicts(ctx))
    got = (LaurentPoly(ctx, da) * LaurentPoly(ctx, db)).d
    assert got == naive_mul(ctx, da, db)


@given(data=st.data())
def test_mul_matches_naive_big_field(data):
    ctx = make_field(5, 3)
    da = data.draw(sparse_dicts(ctx, max_terms=6))
    db = data.draw(sparse_dicts(ctx, max_terms=6))
    got = (LaurentPoly(ctx, da) * LaurentPoly(ctx, db)).d
    assert got == naive_mul(ctx, da, db)


@given(data=st.data())
def test_ring_axioms(data):
    ctx = make_field(3, 3)
    a = LaurentPoly(ctx, data.draw(sparse_dicts(ctx, max_terms=5)))
    b = LaurentPoly(ctx, data.draw(sparse_dicts(ctx, max_terms=5)))
    c = LaurentPoly(ctx, data.draw(sparse_dicts(ctx, max_terms=5)))
    assert (a * b).d == (b * a).d
    assert ((a * b) * c).d == (a * (b * c)).d
    assert (a * (b + c)).d == (a * b + a * c).d
    assert (a + (b + c)).d == ((a + b) + c).d
    assert (a - b).d == (a + b.scale(ctx.neg(1))).d


@given(data=st.data())
def test_pow_pk_is_pth_power(data):
    ctx = make_field(3, 3)
    a = LaurentPoly(ctx, data.draw(sparse_dicts(ctx, max_terms=5)))
    assert a.pow_pk(1).d == (a * a * a).d
    assert a.pow_pk(0).d == a.d


@given(data=st.data())
def test_int_pow(data):
    ctx = make_field(3, 3)
    a = LaurentPoly(ctx, data.draw(sparse_dicts(ctx, max_terms=4)))
    assert (a ** 0).d == {0: 1}
    assert (a ** 1).d == a.d
    assert (a ** 4).d == (a * a * a * a).d
    assert (a ** 27).d == a.pow_pk(3).d


def test_pow_rejects_negative(F27):
    with pytest.raises(ParameterError):
        LaurentPoly(F27, {0: 1}) ** -1


def test_pow_pk_rejects_negative_k(F27):
    with pytest.raises(ParameterError):
        LaurentPoly(F27, {1: 1}).pow_pk(-1)


# ---------------------------------------------------------------- series


def test_series_prec_semantics(F27):
    s = TruncatedSeries(F27, {-2: 1, 0: 3, 5: 1, 6: 1, 9: 2}, prec=6)
    # the terms at and above prec are unknown and truncated away
    assert s.d == {-2: 1, 0: 3, 5: 1}
    assert s.prec == 6


def test_series_from_poly_exact(F27):
    p = LaurentPoly(F27, {-27: 1, 207: 1})
    s = TruncatedSeries(F27, p.d, math.inf)
    assert s.prec == math.inf
    assert s.d == p.d


def test_series_add_prec(F27):
    a = TruncatedSeries(F27, {0: 1}, prec=10)
    b = TruncatedSeries(F27, {1: 2}, prec=7)
    assert (a + b).prec == 7


def test_series_mul_poly_prec(F27):
    a = TruncatedSeries(F27, {-3: 1, 0: 2}, prec=10)
    p = LaurentPoly(F27, {-2: 1, 5: 3})
    out = a * TruncatedSeries(F27, p.d, math.inf)
    assert out.prec == 8  # 10 + v(p) = 10 - 2
    assert out.d[-5] == 1


def test_series_mul_series_prec(F27):
    a = TruncatedSeries(F27, {-3: 1}, prec=10)
    b = TruncatedSeries(F27, {2: 1}, prec=20)
    out = a * b
    # min(10 + 2, 20 + (-3)) = 12
    assert out.prec == 12
    assert out.d[-1] == 1


def test_series_mul_by_zero(F27):
    a = TruncatedSeries(F27, {-3: 1}, prec=10)
    z = TruncatedSeries(F27, LaurentPoly(F27).d, math.inf)
    out = a * z
    assert out.d == {} and out.prec == math.inf


def test_series_principal_part_needs_nonneg_prec(F27):
    # the reduction reads a series only when z^0 is certified, so that
    # the constant its replay identity sums is known
    good = TruncatedSeries(F27, {-4: 2, 1: 1}, prec=1)
    assert reduce_mod_wp(F27, good) == {-4: 2}
    bad = TruncatedSeries(F27, {-4: 2}, prec=0)
    with pytest.raises(ParameterError):
        reduce_mod_wp(F27, bad)


def test_poly_times_series_keeps_the_series_prec_in_either_order(F27):
    # z^5 * z^-2 = z^3 lies below 6 - 2 = 4, but z^4 and up are unknown
    p = LaurentPoly(F27, {-2: 1})
    s = TruncatedSeries(F27, {-3: 1, 5: 1}, 6)
    for out in (p * s, s * p):
        assert isinstance(out, TruncatedSeries)
        assert (out.d, out.prec) == ({-5: 1, 3: 1}, 4)
    assert p * s == s * p


def test_pow_pk_scales_the_series_prec(F27):
    # Frobenius is additive: O(z^P) goes to O(z^(P p^k)), either sign of P
    s = TruncatedSeries(F27, {-2: 3, 1: 1}, 2)
    cube = s.pow_pk(1)
    assert cube.prec == 6
    assert cube.d == {-6: F27.frobenius_iter(3, 1), 3: 1}
    assert s ** 3 == cube
    # the product rule certifies less, and agrees below what it certifies
    prod = s * s * s
    assert prod.prec == -2
    assert prod.d == {e: c for e, c in cube.d.items() if e < -2}
    assert s.pow_pk(2).prec == 18
    assert TruncatedSeries(F27, {-9: 1}, -1).pow_pk(1).prec == -3


def test_equality_compares_prec(F27):
    d = {-3: 5, 2: 7}
    assert LaurentPoly(F27, d) != TruncatedSeries(F27, d, 10)
    assert TruncatedSeries(F27, d, 10) != TruncatedSeries(F27, d, 11)
    assert TruncatedSeries(F27, d, 10) == TruncatedSeries(F27, d, 10)
    # an infinite prec is the exact polynomial
    assert LaurentPoly(F27, d) == TruncatedSeries(F27, d, math.inf)


def test_operands_over_two_fields_are_refused(F27):
    """F_27 codes are not F_5 codes: a sum, a product or a reduction
    across the two refuses, and no element of one equals one of the
    other."""
    F5 = make_field(5, 1)
    a, b = LaurentPoly(F27, {0: 5, -2: 1}), LaurentPoly(F5, {0: 4, -2: 3})
    series = TruncatedSeries(F5, {0: 4, -2: 3}, 3)
    for left, right in ((a, b), (b, a), (a, series), (series, a)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ParameterError, match="different fields"):
                op(left, right)
    assert LaurentPoly(F27, {0: 1}) != LaurentPoly(F5, {0: 1})
    poles = LaurentPoly(F27, {-3: 2, -1: 1})
    for reduce in (reduce_mod_wp, basis_rows):
        with pytest.raises(ParameterError, match="different fields"):
            reduce(F5, poles)


def test_sums_keep_the_smaller_prec(F27):
    exact = LaurentPoly(F27, {-1: 1, 8: 2})
    s = TruncatedSeries(F27, {0: 1}, 7)
    for out in (exact + s, s + exact, exact - s, s - exact):
        assert isinstance(out, TruncatedSeries) and out.prec == 7
        assert 8 not in out.d  # z^8 lies above what the sum certifies
    assert type(exact + exact) is LaurentPoly


@given(data=st.data())
def test_series_mul_agrees_with_poly_mul_below_prec(data):
    ctx = make_field(3, 3)
    da = data.draw(sparse_dicts(ctx, max_terms=5))
    db = data.draw(sparse_dicts(ctx, max_terms=5))
    pa, pb = LaurentPoly(ctx, da), LaurentPoly(ctx, db)
    sa = TruncatedSeries(ctx, pa.d, 50)
    sb = TruncatedSeries(ctx, pb.d, 50)
    prod_s = sa * sb
    prod_p = pa * pb
    hi = 50 if math.isinf(prod_s.prec) else min(50, int(prod_s.prec))
    for e in range(-80, hi):
        assert prod_s.d.get(e, 0) == prod_p.d.get(e, 0)


# ------------------------------------------------------------- watermark


def test_support_watermark(F27):
    reset_support_watermark()
    assert support_watermark() == 0
    a = LaurentPoly(F27, {i: 1 for i in range(6)})
    b = LaurentPoly(F27, {i * 7: 1 for i in range(3)})
    c = a * b
    assert support_watermark() >= len(c.d)
    assert support_watermark() < 100
    reset_support_watermark()
    assert support_watermark() == 0
