"""Local expansions at the place over x = infinity and additive reduction.

Frozen dictionaries below were produced by a dense mod-p oracle that
multiplies series by plain repeated multiplication (no sparse base-p
power tricks, no table-driven field ops), so agreement here is evidence
the sparse pipeline computes the same functions.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from astower.errors import IntegrityError, ParameterError, UnsupportedError
from astower.ff import Params, make_field
from astower.laurent import (
    LaurentPoly,
    TruncatedSeries,
    reset_support_watermark,
    support_watermark,
)
from astower.local import (
    XYPoly,
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
    data = build_uniformizer(params)
    assert (data.a1, data.a2, data.b1, data.b2) == (a1, a2, b1, b2)
    q, q0 = params.q, params.q0
    assert data.x_poly.d == {-q: 1, a1: 1, a2: data.ctx.neg(1)}
    assert data.y_head.valuation() == -(q + q0)
    assert len(data.y_head.d) == 9


@pytest.mark.parametrize("params,vres", [(P31, 3402), (P51, 293750), (P32, 997272)])
def test_residual_valuation_and_lead(params, vres):
    data = build_uniformizer(params)
    assert data.residual.valuation() == vres == params.q * data.b1
    assert data.residual.d[vres] == 1
    assert len(data.residual.d) == 12


def test_head_solves_relation_up_to_residual():
    data = build_uniformizer(P31)
    yh = data.y_head
    lhs = yh.pow_pk(P31.n) - yh
    f1 = expand_at_infinity(data, cover_rhs_polys(P31)["y1"])
    assert math.isinf(f1.prec)
    assert (lhs - LaurentPoly(data.ctx, f1.d)).d == data.residual.d


# ------------------------------------------------------------- expansions


def test_rhs_poly_shapes():
    rhs = cover_rhs_polys(P31)
    assert set(rhs) == {"y1", "y2", "v1", "v2", "w"}
    q, q0 = 27, 3
    assert rhs["y1"].d == {(q0 + q, 0): 1, (q0 + 1, 0): 2}
    assert rhs["y2"].d == {(2 * q0 + q, 0): 1, (2 * q0 + 1, 0): 2}
    assert rhs["v1"].d == {(q0 + 2 * q, 0): 1, (q0 + 2, 0): 2}
    assert rhs["v2"].d == {(2 * q0 + 2 * q, 0): 1, (2 * q0 + 2, 0): 2}
    assert rhs["w"].d == {
        (2 * q0 + q, 1): 2,
        (2 * q0 + 1, 1): 1,
        (3 * q0 + 2 * q, 0): 1,
        (3 * q0 + q + 1, 0): 1,
        (3 * q0 + 2, 0): 1,
    }


def test_expansion_precision_certificates():
    data = build_uniformizer(P31)
    rhs = cover_rhs_polys(P31)
    assert math.isinf(expand_at_infinity(data, rhs["y2"]).prec)
    w = expand_at_infinity(data, rhs["w"])
    assert w.prec == 3402 - 891  # head error through the worst y1-monomial


def test_expansion_certificate_failure():
    data = build_uniformizer(P31)
    ok = XYPoly(data.ctx, {(125, 1): 1})
    assert expand_at_infinity(data, ok).prec == 3402 - 27 * 125
    too_deep = XYPoly(data.ctx, {(126, 1): 1})
    with pytest.raises(UnsupportedError):
        expand_at_infinity(data, too_deep)


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
    r = conductor_of_cover(P31, label)
    assert r.valuation == v
    assert r.principal == principal
    assert r.reduced == reduced
    assert r.m == m
    assert r.geometric


def test_w_class_51():
    r = conductor_of_cover(P51, "w")
    assert r.valuation == -33125
    assert r.principal == {-33125: 1, -17625: 1, -17005: 4, -885: 4}
    assert r.reduced == {-3401: 4, -177: 4, -141: 1, -53: 1}
    assert r.m == 3402


def test_y2_class_51():
    r = conductor_of_cover(P51, "y2")
    assert r.principal == {-16875: 1, -1375: 1, -755: 3}
    assert r.reduced == {-151: 3, -27: 1, -11: 1}
    assert r.m == 152


def test_w_class_32_stays_sparse():
    reset_support_watermark()
    r = conductor_of_cover(P32, "w")
    assert r.principal == {-124659: 1, -65853: 1, -63675: 2, -2691: 2}
    assert r.reduced == {-7075: 2, -299: 2, -271: 1, -19: 1}
    assert r.m == 7076
    assert support_watermark() < 10_000


def test_conductor_with_nontrivial_coefficient():
    ctx = make_field(3, 3)
    g = 3  # the basis element t
    r = conductor_of_cover(P31, cover_rhs_polys(P31)["w"].scale(g))
    g3 = ctx.pow_int(g, 3)
    g9 = ctx.pow_int(g, 9)
    assert r.reduced == {
        -7: g3,
        -37: g,
        -47: ctx.mul(2, g9),
        -307: ctx.mul(2, g9),
    }
    assert r.m == 308


def test_conductor_over_rational_base():
    r = conductor_of_cover(P31, "y1", base="rational")
    assert r.principal == {-30: 1, -4: 2}
    assert r.reduced == {-10: 1, -4: 2}
    assert r.m == 11
    r2 = conductor_of_cover(P31, "y2", base="rational")
    assert r2.reduced == {-11: 1, -7: 2}
    assert r2.m == 12


def test_rational_base_rejects_y_terms():
    ctx = make_field(3, 3)
    with pytest.raises(ParameterError):
        expand_rational(ctx, XYPoly(ctx, {(2, 1): 1}))


# -------------------------------------------------------------- reduction


def test_reduce_single_step():
    ctx = make_field(3, 3)
    g = 3
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, {-3: g}))
    assert out.reduced == {-1: ctx.p_root(g)}
    assert out.witnesses == [(1, ctx.p_root(g))]


def test_reduce_fold_collision():
    ctx = make_field(3, 3)
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, {-6: 1, -2: 1}))
    assert out.reduced == {-2: 2}


def test_reduce_drops_nonnegative_and_flags_trace():
    ctx = make_field(3, 3)
    out = reduce_mod_wp(ctx, LaurentPoly(ctx, {-4: 1, 0: 1, 5: 2}))
    assert out.reduced == {-4: 1}
    assert out.dropped == {5: 2}
    assert out.const == 1
    # 1 lies in F_3, so its trace is 3 * 1 = 0
    assert out.geometric
    assert ctx.trace_to_prime(9) == 2  # t^2 has nonzero trace
    bad = reduce_mod_wp(ctx, LaurentPoly(ctx, {-4: 1, 0: 9}))
    assert not bad.geometric


def test_reduce_witness_trail_dominant_chain():
    r = conductor_of_cover(P31, "w")
    ms = [m for m, _ in r.witnesses]
    chain = [567, 189, 63, 21, 7]
    positions = [ms.index(m) for m in chain]
    assert positions == sorted(positions)


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
    # rebuild f from the certificate with naive dict arithmetic
    acc = dict(out.reduced)
    for m, r in out.witnesses:
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
    assert all(e % 5 != 0 for e in out.reduced)


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
    assert reduce_mod_wp(ctx, LaurentPoly(ctx, fd)).reduced == \
        reduce_mod_wp(ctx, LaurentPoly(ctx, f)).reduced


def test_reduce_rejects_uncertified_series():
    ctx = make_field(3, 3)
    s = TruncatedSeries(ctx, {-5: 1}, prec=-2)
    with pytest.raises(ParameterError):
        reduce_mod_wp(ctx, s)


def test_conductor_jump_values_prime_to_p():
    for params, labels in [(P31, ["y2", "v1", "v2", "w"]), (P51, ["y2"])]:
        for label in labels:
            m = conductor_of_cover(params, label).m
            assert m >= 2 and (m - 1) % params.p != 0
