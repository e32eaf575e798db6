"""Genus pipeline: Riemann-Hurwitz steps, class bookkeeping, aggregates.

Frozen integers below were produced by an independent dense-polynomial
oracle (pole reduction done by hand-rolled repeated multiplication) and
by direct evaluation of the two-step Riemann-Hurwitz recursion; the
package must reproduce them exactly.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from astower import local
from astower.errors import IntegrityError, ParameterError, UnsupportedError
from astower.ff import MAX_FIELD_Q, Params, make_field
from astower.genus import (
    audit_closed_forms,
    base_floor,
    class_conductors,
    class_line_counts,
    conductor_ladder,
    cover_classes,
    genus_of_F,
    gs_aggregate,
    ree_aggregate,
    ree_line_groups,
    rh_genus,
    verify_big_action,
)
from astower.local import (build_uniformizer, cover_rhs_polys,
                           expand_at_infinity, expand_rational, line_histogram,
                           reduce_mod_wp)

P31 = Params(3, 1)
P51 = Params(5, 1)
P32 = Params(3, 2)
P71 = Params(7, 1)
CLASS_ORDER = ("y2", "v1", "v2", "w")


# ------------------------------------------------------------ rh_genus

RH_CASES = [
    # degree-p cover of the projective line
    (3, 0, 11, 9),
    (3, 0, 12, 10),
    (3, 0, 29, 27),
    (5, 0, 27, 50),
    # covers of the first floor, base genus 117 = 13 * 9
    (3, 117, 38, 387),
    (3, 117, 254, 603),
    (3, 117, 281, 630),
    (3, 117, 308, 657),
    # p = 5 analogue, base genus 1550 = 31 * 50
    (5, 1550, 152, 8050),
    (5, 1550, 3152, 14050),
    (5, 1550, 3277, 14300),
    (5, 1550, 3402, 14550),
    # s = 2 floors over base genus 3267 = 121 * 27
    (3, 3267, 272, 10071),
    (3, 3267, 6590, 16389),
    (3, 3267, 6833, 16632),
    (3, 3267, 7076, 16875),
]


@pytest.mark.parametrize("p,gb,m,expected", RH_CASES)
def test_rh_genus_frozen(p, gb, m, expected):
    assert rh_genus(p, gb, m) == expected


def test_rh_genus_unramified_over_elliptic():
    assert rh_genus(3, 1, 0) == 1


def test_rh_genus_rejects_bad_jumps():
    with pytest.raises(IntegrityError, match="not reduced"):
        rh_genus(3, 0, 1)  # m = 1 is never a conductor here
    with pytest.raises(IntegrityError, match="not reduced"):
        rh_genus(3, 0, 4)  # jump 3 is divisible by p
    with pytest.raises(IntegrityError, match="not reduced"):
        rh_genus(2, 0, 3)
    with pytest.raises(IntegrityError, match="half-integral"):
        rh_genus(4, 0, 3)  # p = 4 is no prime, and 2g comes out odd
    with pytest.raises(IntegrityError, match="negative"):
        rh_genus(3, 0, 0)  # unramified cover of the line: negative genus


@settings(max_examples=300)
@given(p=st.sampled_from([3, 5, 7]), gb=st.integers(0, 30),
       m=st.integers(2, 400), step=st.integers(1, 50))
def test_rh_genus_strictly_monotone_in_conductor(p, gb, m, step):
    m2 = m + step
    if (m - 1) % p == 0 or (m2 - 1) % p == 0:
        return
    assert rh_genus(p, gb, m2) > rh_genus(p, gb, m)


# ------------------------------------------------------- line counting

def test_class_line_counts_p3s1():
    counts = class_line_counts(P31)
    assert counts == {"y2": 13, "v1": 351, "v2": 9477, "w": 255879}
    assert sum(counts.values()) == 265720 == (27 ** 4 - 1) // 2


def test_class_line_counts_p5s1():
    counts = class_line_counts(P51)
    assert counts == {"y2": 31, "v1": 3875, "v2": 484375, "w": 60546875}
    assert sum(counts.values()) == (125 ** 4 - 1) // 4


@given(p=st.sampled_from([3, 5, 7, 11]), s=st.integers(1, 3))
def test_class_line_counts_cover_the_dual_space(p, s):
    if p ** (2 * s + 1) > MAX_FIELD_Q:  # (11, 3): Params refuses F_q
        with pytest.raises(UnsupportedError):
            Params(p, s)
        return
    params = Params(p, s)
    counts = class_line_counts(params)
    q = params.q
    assert sum(counts.values()) == (q ** 4 - 1) // (p - 1)
    assert counts["w"] == q ** 3 * (q - 1) // (p - 1)


# ---------------------------------------------------------- conductors

def test_conductor_ladder_values():
    assert conductor_ladder(P31) == {"y2": 38, "v1": 254, "v2": 281, "w": 308}
    assert conductor_ladder(P51) == {"y2": 152, "v1": 3152, "v2": 3277,
                                     "w": 3402}
    assert conductor_ladder(P32) == {"y2": 272, "v1": 6590, "v2": 6833,
                                     "w": 7076}


def test_cover_classes_p3s1():
    rows = {c.label: c for c in cover_classes(P31)[1]}
    assert rows["y2"].count == 13 and rows["y2"].conductor == 38
    assert rows["y2"].genus == 387
    assert rows["v1"].conductor == 254 and rows["v1"].genus == 603
    assert rows["v2"].conductor == 281 and rows["v2"].genus == 630
    assert rows["w"].count == 255879
    assert rows["w"].conductor == 308 and rows["w"].genus == 657


def test_cover_classes_p5s1():
    rows = {c.label: c for c in cover_classes(P51)[1]}
    assert [rows[k].conductor for k in ("y2", "v1", "v2", "w")] == \
        [152, 3152, 3277, 3402]
    assert [rows[k].genus for k in ("y2", "v1", "v2", "w")] == \
        [8050, 14050, 14300, 14550]


def test_cover_classes_p3s2():
    rows = {c.label: c for c in cover_classes(P32)[1]}
    assert [rows[k].conductor for k in ("y2", "v1", "v2", "w")] == \
        [272, 6590, 6833, 7076]
    assert [rows[k].genus for k in ("y2", "v1", "v2", "w")] == \
        [10071, 16389, 16632, 16875]


def _combine(ctx, parts, coeffs, labels):
    """sum c * parts[label] over zip(coeffs, labels), in plain dicts."""
    out = {}
    for c, label in zip(coeffs, labels):
        for m, v in parts[label].items():
            out[m] = ctx.add(out.get(m, 0), ctx.mul(c, v))
    return {m: v for m, v in out.items() if v}


def _conductor(ctx, series):
    """m = 1 + the top pole order of series reduced modulo the image of
    u -> u^p - u (Stichtenoth, Prop. 3.7.8)."""
    return 1 + max(-e for e in reduce_mod_wp(ctx, series))


@lru_cache(maxsize=None)
def _uniformizer_and_conductors(params):
    return build_uniformizer(params), class_conductors(params)


@settings(max_examples=60)
@given(params=st.sampled_from([P31, P51, P32]), data=st.data())
def test_class_conductors_match_per_line_oracle(params, data):
    # the sampled check the certifier replaced, kept as its reference: a
    # random line of a random class, expanded and reduced on its own,
    # has the conductor proved for every line of that class
    q = params.q
    index = data.draw(st.integers(0, 3))
    coeffs = [data.draw(st.integers(0, q - 1)) for _ in range(index)]
    coeffs.append(data.draw(st.integers(1, q - 1)))
    ctx = params.field()
    combined = _combine(ctx, cover_rhs_polys(params), coeffs, CLASS_ORDER)
    uniformizer, certified = _uniformizer_and_conductors(params)
    m = _conductor(ctx, expand_at_infinity(uniformizer, combined))
    assert m == certified[CLASS_ORDER[index]]


def test_class_conductors_reject_a_wrong_ladder(monkeypatch):
    # the certifier compares its histograms with the ladder rather than
    # returning the ladder
    wrong = dict(conductor_ladder(P31), w=307)
    monkeypatch.setattr("astower.genus.conductor_ladder", lambda params: wrong)
    with pytest.raises(IntegrityError):
        class_conductors(P31)


class _CountedRow(dict):
    """A reduced part that counts how often it is read as an echelon row."""

    reads = 0

    def items(self):
        _CountedRow.reads += 1
        return super().items()


@pytest.mark.parametrize("params", [P31, P51, P32])
def test_class_conductors_eliminate_each_row_once(params, monkeypatch):
    """The four classes grow one echelon: each of their 4n reduced parts
    enters the elimination once, where recomputing the 1n, 2n, 3n and 4n
    row prefixes would enter 10n."""
    real = local.reduce_mod_wp

    def counted(ctx, f):
        return _CountedRow(real(ctx, f))

    monkeypatch.setattr(local, "reduce_mod_wp", counted)
    _CountedRow.reads = 0
    assert class_conductors(params) == conductor_ladder(params)
    assert _CountedRow.reads == 4 * params.n


# ------------------------------------------------------ line certifier

def test_line_histogram_counts_lines_by_top_pole():
    F3, F27 = make_field(3, 1), make_field(3, 3)
    # a*z^-2 + b*z^-1: 3 lines with a != 0, 1 line with a = 0
    assert line_histogram(F3, [{-2: 1}, {-1: 1}]) == {3: 3, 2: 1}
    # an echelon carried over from the first rows gives the same bars
    pivots = {}
    assert line_histogram(F3, [{-2: 1}], pivots) == {3: 1}
    assert line_histogram(F3, [{-1: 1}], pivots) == {3: 3, 2: 1}
    # 1 and t are F_3-independent at the same pole order
    assert line_histogram(F27, [{-2: 1, -1: 5}, {-2: 3}]) == {3: 4}
    assert line_histogram(F27, []) == {}


def test_line_histogram_rejects_unreduced_top_pole():
    F3 = make_field(3, 1)
    with pytest.raises(IntegrityError):
        line_histogram(F3, [{-3: 1}, {-1: 1}])


def test_line_histogram_rejects_short_line_total():
    F27 = make_field(3, 3)
    # the second vector is twice the first, so one line reduces to no pole
    with pytest.raises(IntegrityError):
        line_histogram(F27, [{-2: 1, -1: 4}, {-2: 2, -1: 8}])


# ---------------------------------------------------------- base floor

def test_base_floor_genus():
    assert base_floor(P31) == (11, 9, 13, 117)
    assert base_floor(P51) == (27, 50, 31, 1550)
    assert base_floor(P32) == (29, 27, 121, 3267)
    assert cover_classes(P31)[0] == base_floor(P31)


# --------------------------------------------------------- aggregation

def test_gs_aggregate_two_floor_groups():
    assert gs_aggregate(3, [(13, 9), (351, 10)], 0) == 3627


def test_gs_aggregate_single_line_is_identity():
    # N = 1: one line, nothing to correct for
    assert gs_aggregate(3, [(1, 5)], 7) == 5


def test_gs_aggregate_rejects_partial_dual_space():
    with pytest.raises(IntegrityError):
        gs_aggregate(3, [(2, 1)], 0)


def test_gs_aggregate_rejects_negative_total():
    with pytest.raises(IntegrityError):
        gs_aggregate(3, [(4, 0)], 100)


@given(p=st.sampled_from([3, 5]), N=st.integers(1, 4), g=st.integers(0, 40))
def test_gs_aggregate_constant_pieces(p, N, g):
    count = (p ** N - 1) // (p - 1)
    # all lines the same genus g over a genus-0 base
    assert gs_aggregate(p, [(count, g)], 0) == count * g


# ------------------------------------------------------------ totals

def test_genus_of_F_p3s1():
    rep = genus_of_F(P31)
    assert rep.base_genus == 117
    assert rep.weighted_sum == 174299697
    assert rep.gs_subtraction == 31089123
    assert rep.genus == 143210574
    assert rep.printed_subtraction == 1521
    assert rep.genus_printed == 174298176


def test_genus_of_F_p5s1():
    rep = genus_of_F(P51)
    assert rep.weighted_sum == 887938287050
    assert rep.gs_subtraction == 94604490250
    assert rep.genus == 793333796800


def test_genus_of_F_p3s2():
    rep = genus_of_F(P32)
    assert rep.genus == 23722329729978


# --------------------------------------------------------------- audit

def test_audit_closed_forms_p3s1():
    rows = {r.label: r for r in audit_closed_forms(P31)}
    for label, g in (("y2", 387), ("v1", 603), ("v2", 630)):
        assert rows[label].match
        assert Fraction(rows[label].closed) == Fraction(g)
        assert rows[label].pipeline == g
    w = rows["w"]
    assert not w.match
    assert w.pipeline == 657
    assert Fraction(w.closed) == Fraction(1341, 2)
    assert Fraction(w.difference) == Fraction(27, 2)


def test_audit_closed_forms_p5s1():
    rows = {r.label: r for r in audit_closed_forms(P51)}
    assert all(rows[k].match for k in ("y2", "v1", "v2"))
    assert Fraction(rows["w"].difference) == Fraction(125, 2)


def test_audit_difference_is_half_q():
    for params in (P31, P51, P32):
        w = {r.label: r for r in audit_closed_forms(params)}["w"]
        assert Fraction(w.difference) == Fraction(params.q, 2)


@pytest.mark.parametrize("params", [P31, P51, P32, P71])
def test_audit_w_closed_form_is_half_integral(params):
    rows = {r.label: r for r in audit_closed_forms(params)}
    assert Fraction(rows["w"].closed).denominator == 2


# ------------------------------------------------------------ two-floor

def test_ree_line_groups_p3s1():
    groups = ree_line_groups(P31)
    assert groups == {11: 13, 12: 351}
    assert sum(groups.values()) == (27 ** 2 - 1) // 2


def _pair_lines(params):
    """Canonical (c1, c2) pairs, one per line of F_q^2 \\ 0.

    The pair is packed as c1 + q*c2 and canonicalized by requiring the
    top nonzero base-p digit to be 1.
    """
    p, q = params.p, params.q
    out = []
    for code in range(1, q * q):
        top = 0
        v = code
        while v:
            top, v = v % p, v // p
        if top == 1:
            out.append((code % q, code // q))
    return out


def _ree_line_groups_by_enumeration(params):
    # one expansion and reduction per line: the O(q^2) reference
    ctx = params.field()
    parts = cover_rhs_polys(params)
    groups = {}
    for pair in _pair_lines(params):
        combined = _combine(ctx, parts, pair, ("y1", "y2"))
        m = _conductor(ctx, expand_rational(ctx, combined))
        groups[m] = groups.get(m, 0) + 1
    return groups


@pytest.mark.parametrize("params", [P31, P32])
def test_ree_line_groups_match_per_line_enumeration(params):
    assert ree_line_groups(params) == _ree_line_groups_by_enumeration(params)


def test_ree_aggregate_p3s1():
    assert ree_aggregate(P31, ree_line_groups(P31)) == 3627


def test_ree_aggregate_takes_precomputed_groups():
    assert ree_aggregate(P31, groups={11: 13, 12: 351}) == 3627
    with pytest.raises(IntegrityError):
        ree_aggregate(P31, groups={11: 364})  # misses the closed form


def test_ree_rejects_other_characteristics():
    with pytest.raises(ParameterError):
        ree_line_groups(P51)


# ------------------------------------------------------------- verdict

def test_big_action_verdict_p3s1():
    rep = verify_big_action(P31)
    assert rep.group_order == 3 ** 18
    assert rep.genus == 143210574
    assert not rep.is_big
    assert not rep.is_big_printed
    assert rep.readings_agree


def test_big_action_verdict_p3s2():
    rep = verify_big_action(P32)
    assert rep.group_order == 3 ** 30
    assert rep.is_big
    assert rep.is_big_printed
    assert rep.readings_agree


def test_big_action_verdict_p5s1():
    rep = verify_big_action(P51)
    assert rep.group_order == 5 ** 18
    assert rep.is_big and rep.is_big_printed and rep.readings_agree


def test_big_action_bound_uses_correct_ratio():
    rep = verify_big_action(P31)
    assert Fraction(rep.bound) == Fraction(2 * 3, 3 - 1) * 143210574


def _as_printed(value: Fraction):
    """A Fraction as reports print it: an int, else "num/den"."""
    return int(value) if value.denominator == 1 else str(value)


@pytest.mark.parametrize("p, s", [(3, 1), (5, 1), (3, 2), (7, 1), (7, 2)])
def test_exact_ratios_match_a_fraction_oracle(p, s):
    """The integer-arithmetic ratios equal `fractions` arithmetic and are
    printed in lowest terms; p - 1 = 6 does not divide 2p at p = 7."""
    params = Params(p, s)
    rep = verify_big_action(params)
    ratio = Fraction(2 * p, p - 1)
    for bound, g, big in ((rep.bound, rep.genus, rep.is_big),
                          (rep.bound_printed, rep.genus_printed,
                           rep.is_big_printed)):
        assert bound == _as_printed(ratio * g)
        assert big == (rep.group_order > ratio * g)
    for row in audit_closed_forms(params):
        closed = Fraction(row.closed)
        assert row.closed == _as_printed(closed)
        assert row.difference == _as_printed(closed - row.pipeline)
        assert row.match == (closed == row.pipeline)
