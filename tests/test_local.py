"""Local expansions at the place over x = infinity and additive reduction.

Frozen dictionaries below were produced by a dense mod-p oracle that
multiplies series by plain repeated multiplication (no sparse base-p
power tricks, no table-driven field ops), so agreement here is evidence
the sparse pipeline computes the same functions.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from astower.errors import IntegrityError, ParameterError, UnsupportedError
from astower.ff import Params, make_field, tower_rhs
from astower.laurent import (
    LaurentPoly,
    TruncatedSeries,
    reset_support_watermark,
    support_watermark,
)
from astower.local import (
    build_uniformizer,
    conductor_of_cover,
    cover_rhs_polys,
    expand_at_infinity,
    expand_rational,
    reduce_mod_wp,
)

P31 = Params(3, 1)
P51 = Params(5, 1)
P32 = Params(3, 2)


def _reduce_over_first_floor(params, rhs):
    """The expansion of rhs at the place over infinity of the first floor,
    and its reduced principal part modulo the image of u -> u^p - u."""
    series = expand_at_infinity(build_uniformizer(params), rhs)
    return series, reduce_mod_wp(params.field(), series)


def _principal(series):
    return {e: c for e, c in series.d.items() if e < 0}


def _conductor(reduced):
    """m = 1 + the top reduced pole order (Stichtenoth, Prop. 3.7.8)."""
    return 1 + max(-e for e in reduced)


def _residual(params, uniformizer):
    """The head's defect y^q - y - f1 against the first relation, from
    x, the exact head of the first generator's series and the tower's
    equation for y1."""
    x_poly, y_series = uniformizer
    yh = LaurentPoly(x_poly.ctx, y_series.d)
    residual = yh.pow_pk(params.n) - yh
    for (ex, _, _), c in tower_rhs(params)["y1"].items():
        residual = residual - (x_poly ** ex).scale(c)
    return residual


# ------------------------------------------------------------ uniformizer


@pytest.mark.parametrize(
    "params,a1,a2,b1,b2",
    [
        (P31, 207, 233, 126, 152),
        (P51, 2975, 3099, 2350, 2474),
        (P32, 6291, 6533, 4104, 4346),
    ],
)
def test_uniformizer_constants(params, a1, a2, b1, b2):
    x_poly, y_series = build_uniformizer(params)
    q, q0 = params.q, params.q0
    assert y_series.prec == q * b1
    n1 = x_poly.ctx.neg(1)
    assert x_poly.d == {-q: 1, a1: 1, a2: n1}
    assert y_series.valuation() == -(q + q0)
    assert (y_series.d[b1], y_series.d[b2]) == (1, n1)
    assert len(y_series.d) == 9


@pytest.mark.parametrize("params,vres", [(P31, 3402), (P51, 293750), (P32, 997272)])
def test_residual_valuation_and_lead(params, vres):
    uniformizer = build_uniformizer(params)
    residual = _residual(params, uniformizer)
    assert residual.valuation() == vres == uniformizer[1].prec
    assert residual.d[vres] == 1
    assert len(residual.d) == 12


def test_head_solves_relation_up_to_residual():
    uniformizer = build_uniformizer(P31)
    yh = LaurentPoly(uniformizer[0].ctx, uniformizer[1].d)
    lhs = yh.pow_pk(P31.n) - yh
    f1 = expand_at_infinity(uniformizer, cover_rhs_polys(P31)["y1"])
    assert math.isinf(f1.prec)
    assert (lhs - f1).d == _residual(P31, uniformizer).d


# ------------------------------------------------------------- expansions


def test_rhs_poly_shapes():
    rhs = cover_rhs_polys(P31)
    assert set(rhs) == {"y1", "y2", "v1", "v2", "w"}
    q, q0 = 27, 3
    assert rhs["y1"] == {(q0 + q, 0): 1, (q0 + 1, 0): 2}
    assert rhs["y2"] == {(2 * q0 + q, 0): 1, (2 * q0 + 1, 0): 2}
    assert rhs["v1"] == {(q0 + 2 * q, 0): 1, (q0 + 2, 0): 2}
    assert rhs["v2"] == {(2 * q0 + 2 * q, 0): 1, (2 * q0 + 2, 0): 2}
    assert rhs["w"] == {
        (2 * q0 + q, 1): 2,
        (2 * q0 + 1, 1): 1,
        (3 * q0 + 2 * q, 0): 1,
        (3 * q0 + q + 1, 0): 1,
        (3 * q0 + 2, 0): 1,
    }


def test_expansion_precision_certificates():
    uniformizer = build_uniformizer(P31)
    rhs = cover_rhs_polys(P31)
    assert math.isinf(expand_at_infinity(uniformizer, rhs["y2"]).prec)
    w = expand_at_infinity(uniformizer, rhs["w"])
    assert w.prec == 3402 - 891  # head error through the worst y1-monomial


def test_expansion_certificate_failure():
    uniformizer = build_uniformizer(P31)
    assert expand_at_infinity(uniformizer, {(125, 1): 1}).prec == \
        3402 - 27 * 125
    with pytest.raises(UnsupportedError):
        expand_at_infinity(uniformizer, {(126, 1): 1})


# frozen oracle data at (3, 1): valuation, principal part, reduced part, m
ORACLE_31 = {
    "y2": (-891, {-891: 1, -189: 1, -111: 1}, {-37: 1, -11: 1, -7: 1}, 38),
    "v1": (
        -1539,
        {-1539: 1, -837: 1, -759: 2, -135: 2},
        {-253: 2, -31: 1, -19: 1, -5: 2},
        254,
    ),
    "v2": (
        -1620,
        {-1620: 1, -918: 2, -840: 1, -138: 1, -60: 1},
        {-280: 1, -46: 1, -34: 2, -20: 2},
        281,
    ),
    "w": (
        -1701,
        {-1701: 1, -999: 1, -921: 2, -141: 2},
        {-307: 2, -47: 2, -37: 1, -7: 1},
        308,
    ),
}


@pytest.mark.parametrize("label", ["y2", "v1", "v2", "w"])
def test_class_conductors_31(label):
    v, principal, reduced, m = ORACLE_31[label]
    series, r = _reduce_over_first_floor(P31, cover_rhs_polys(P31)[label])
    assert series.valuation() == v
    assert _principal(series) == principal
    assert r == reduced
    assert _conductor(r) == m


def test_w_class_51():
    series, r = _reduce_over_first_floor(P51, cover_rhs_polys(P51)["w"])
    assert series.valuation() == -33125
    assert _principal(series) == {-33125: 1, -17625: 1, -17005: 4, -885: 4}
    assert r == {-3401: 4, -177: 4, -141: 1, -53: 1}
    assert _conductor(r) == 3402


def test_y2_class_51():
    series, r = _reduce_over_first_floor(P51, cover_rhs_polys(P51)["y2"])
    assert _principal(series) == {-16875: 1, -1375: 1, -755: 3}
    assert r == {-151: 3, -27: 1, -11: 1}
    assert _conductor(r) == 152


def test_w_class_32_stays_sparse():
    reset_support_watermark()
    series, r = _reduce_over_first_floor(P32, cover_rhs_polys(P32)["w"])
    assert _principal(series) == {-124659: 1, -65853: 1, -63675: 2, -2691: 2}
    assert r == {-7075: 2, -299: 2, -271: 1, -19: 1}
    assert _conductor(r) == 7076
    assert support_watermark() < 10_000


def test_conductor_with_nontrivial_coefficient():
    ctx = make_field(3, 3)
    g = 3  # the basis element t
    scaled = {m: ctx.mul(c, g) for m, c in cover_rhs_polys(P31)["w"].items()}
    _, r = _reduce_over_first_floor(P31, scaled)
    g3 = ctx.frobenius_iter(g, 1)
    g9 = ctx.frobenius_iter(g, 2)
    assert r == {
        -7: g3,
        -37: g,
        -47: ctx.mul(2, g9),
        -307: ctx.mul(2, g9),
    }
    assert _conductor(r) == 308


def test_conductor_over_rational_base():
    ctx = P31.field()
    rhs = cover_rhs_polys(P31)
    f = expand_rational(ctx, rhs["y1"])
    r = reduce_mod_wp(ctx, f)
    assert _principal(f) == {-30: 1, -4: 2}
    assert r == {-10: 1, -4: 2}
    assert conductor_of_cover(P31, "y1") == _conductor(r) == 11
    r2 = reduce_mod_wp(ctx, expand_rational(ctx, rhs["y2"]))
    assert r2 == {-11: 1, -7: 2}
    assert conductor_of_cover(P31, "y2") == _conductor(r2) == 12


def test_rational_base_rejects_y_terms():
    ctx = make_field(3, 3)
    with pytest.raises(ParameterError):
        expand_rational(ctx, {(2, 1): 1})
    with pytest.raises(ParameterError):  # the w cover lies over y1
        conductor_of_cover(P31, "w")
    with pytest.raises(ParameterError):
        conductor_of_cover(P31, "z")


# -------------------------------------------------------------- reduction


def test_reduce_single_step():
    ctx = make_field(3, 3)
    g = 3
    f = LaurentPoly(ctx, {-3: g})
    out = reduce_mod_wp(ctx, f)
    assert out == {-1: ctx.p_root(g)}
    u = LaurentPoly(ctx, {-1: ctx.p_root(g)})  # the fold's witness
    assert f == LaurentPoly(ctx, out) + u.pow_pk(1) - u


def test_reduce_fold_collision():
    ctx = make_field(3, 3)
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, {-6: 1, -2: 1}))
    assert out == {-2: 2}


def test_reduce_drops_the_terms_without_a_pole():
    ctx = make_field(3, 3)
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, {-4: 1, 0: 1, 5: 2}))
    assert out == {-4: 1}
    # a constant outside the image of u -> u^p - u drops all the same
    assert reduce_mod_wp(ctx, LaurentPoly(ctx, {-4: 1, 0: 9})) == {-4: 1}


def test_reduce_witness_trail_dominant_chain():
    # w at (3, 1) reduces as the min-first oracle does, whose witness
    # trail folds the dominant chain from the top pole down
    series, r = _reduce_over_first_floor(P31, cover_rhs_polys(P31)["w"])
    reduced, witnesses = _reduce_oracle(P31.field(), series)
    assert r == reduced
    assert [m for m, _ in witnesses if m in (567, 189, 63, 21, 7)] == \
        [567, 189, 63, 21, 7]


def small_principal(ctx):
    return st.dictionaries(
        st.integers(min_value=-60, max_value=-1),
        st.integers(min_value=1, max_value=ctx.q - 1),
        max_size=6,
    )


@given(data=st.data())
def test_reduce_exactness_identity(data):
    ctx = make_field(3, 3)
    f = data.draw(small_principal(ctx))
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, f))
    # rebuild f from the reduced part and the oracle's witnesses with
    # naive dict arithmetic
    _, witnesses = _reduce_oracle(ctx, LaurentPoly(ctx, f))
    acc = dict(out)
    for m, r in witnesses:
        for e, c in [(-3 * m, ctx.frobenius_iter(r, 1)), (-m, ctx.neg(r))]:
            v = ctx.add(acc.get(e, 0), c)
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
    assert acc == f


@given(data=st.data())
def test_reduce_canonical_no_divisible_poles(data):
    ctx = make_field(5, 3)
    f = data.draw(small_principal(ctx))
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, f))
    assert all(e % 5 != 0 for e in out)


@given(data=st.data())
def test_reduce_invariant_under_wp_shifts(data):
    ctx = make_field(3, 3)
    f = data.draw(small_principal(ctx))
    v = data.draw(
        st.dictionaries(
            st.integers(min_value=-20, max_value=-1),
            st.integers(min_value=1, max_value=ctx.q - 1),
            max_size=3,
        )
    )
    vp = LaurentPoly(ctx, v)
    shift = vp.pow_pk(1) - vp  # an explicit additive-kernel shift
    fd = dict(f)
    for e, c in shift.d.items():
        val = ctx.add(fd.get(e, 0), c)
        if val:
            fd[e] = val
        else:
            fd.pop(e, None)
    assert reduce_mod_wp(ctx, LaurentPoly(ctx, fd)) == \
        reduce_mod_wp(ctx, LaurentPoly(ctx, f))


def _reduce_oracle(ctx, f):
    """The min-first reduction: fold the most negative pole order
    divisible by p until none is left, then replay each witness on its
    own against the input.  Returns the reduced part and the witnesses
    (m, r), u = r * z^-m, in fold order."""
    original = f.d
    p = ctx.p
    work = {e: c for e, c in original.items() if e < 0}
    dropped = {e: c for e, c in original.items() if e > 0}
    const = original.get(0, 0)
    witnesses = []
    while True:
        cands = [e for e in work if e % p == 0]
        if not cands:
            break
        e = min(cands)
        r = ctx.p_root(work.pop(e))
        ne = e // p
        v = ctx.add(work.get(ne, 0), r)
        if v:
            work[ne] = v
        else:
            work.pop(ne, None)
        witnesses.append((-ne, r))
    acc = LaurentPoly(ctx, work)
    for m, r in witnesses:
        acc = acc + LaurentPoly(ctx, {-p * m: ctx.frobenius_iter(r, 1),
                                      -m: ctx.neg(r)})
    acc = acc + LaurentPoly(ctx, dropped) + LaurentPoly(ctx, {0: const})
    assert acc.d == original
    return work, witnesses


def _orders_with_chains(p):
    # m * p^k reaches fold chains and collisions, which plain small
    # integers seldom do
    return st.one_of(
        st.integers(-60, 8),
        st.builds(lambda m, k: -m * p ** k, st.integers(1, 12),
                  st.integers(1, 5)))


@settings(max_examples=100)
@given(data=st.data())
def test_reduce_matches_the_min_first_oracle(data):
    ctx = make_field(*data.draw(st.sampled_from([(3, 3), (5, 3), (3, 5)])))
    f = data.draw(st.dictionaries(_orders_with_chains(ctx.p),
                                  st.integers(1, ctx.q - 1), max_size=8))
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, f))
    assert out == _reduce_oracle(ctx, LaurentPoly(ctx, f))[0]


class _CountedOrder(int):
    """A pole order that counts its tests for divisibility by p."""

    tests = Counter()

    def __mod__(self, p):
        _CountedOrder.tests[int(self)] += 1
        return int(self) % p


def test_reduce_examines_each_pole_order_once():
    """One ascending sweep: each input order is tested for divisibility
    once, not once per fold."""
    ctx = make_field(3, 3)
    f = {-243: 1, -162: 2, -54: 5, -20: 1, -9: 3, -7: 4, 2: 1, 0: 9}
    _CountedOrder.tests.clear()
    out = reduce_mod_wp(ctx, LaurentPoly(
        ctx, {_CountedOrder(e): c for e, c in f.items()}))
    assert out == _reduce_oracle(ctx, LaurentPoly(ctx, f))[0]
    assert {e: _CountedOrder.tests[e] for e in f if e < 0} == {
        e: 1 for e in f if e < 0}


def test_reduce_rejects_uncertified_series():
    ctx = make_field(3, 3)
    s = TruncatedSeries(ctx, {-5: 1}, prec=-2)
    with pytest.raises(ParameterError):
        reduce_mod_wp(ctx, s)


def test_conductor_jump_values_prime_to_p():
    for params, labels in [(P31, ["y2", "v1", "v2", "w"]), (P51, ["y2"])]:
        for label in labels:
            _, r = _reduce_over_first_floor(params,
                                            cover_rhs_polys(params)[label])
            m = _conductor(r)
            assert m >= 2 and (m - 1) % params.p != 0
