"""Tower presentation, normal forms, automorphisms, additive solver.

Monomial keys are 6-tuples (x, y1, y2, v1, v2, w).  Frozen dictionaries
were checked by hand against the defining relations; the commutator
values were derived twice independently with the composition convention
(a o b)(e) = a(b(e)).
"""

import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from astower import tower
from astower.errors import IntegrityError, ParameterError, UnsupportedError
from astower.ff import (Params, basis_and_reps, lp_map_pow, make_field,
                        prime_basis, tower_rhs)
from astower.local import cover_rhs_polys
from astower.tower import (
    GENS,
    Endo,
    certify_group,
    check_endo,
    commutator,
    compose_endo,
    extension_multiplicity,
    invert_endo,
    presentation,
    prolong_translation,
    sigma_shift,
    tau_shift,
    vertical_shift_families,
    wp_solve,
)

P31 = Params(3, 1)
P51 = Params(5, 1)

X = (1, 0, 0, 0, 0, 0)
Y1 = (0, 1, 0, 0, 0, 0)
Y2 = (0, 0, 1, 0, 0, 0)
V1 = (0, 0, 0, 1, 0, 0)
V2 = (0, 0, 0, 0, 1, 0)
W = (0, 0, 0, 0, 0, 1)
ONE = (0, 0, 0, 0, 0, 0)


def mono(*pairs):
    return {m: c for m, c in pairs}


@pytest.fixture(scope="module")
def mixed():
    return presentation(P31)


@pytest.fixture(scope="module")
def mixed51():
    return presentation(P51)


# ---------------------------------------------------------- presentations


def test_relation_shapes(mixed):
    q0, q = 3, 27
    f1 = {(q0 + q,) + (0,) * 5: 1, (q0 + 1,) + (0,) * 5: 2}
    assert mixed.relations["y1"].d == f1
    assert mixed.relations["v1"].d == {
        (q0 + 2 * q,) + (0,) * 5: 1,
        (q0 + 2,) + (0,) * 5: 2,
    }
    # w relation keeps both first-level generators on the right
    assert mixed.relations["w"].d == {
        (2 * q0 + q, 1, 0, 0, 0, 0): 1,
        (2 * q0 + 1, 1, 0, 0, 0, 0): 2,
        (q0 + q, 0, 1, 0, 0, 0): 2,
        (q0 + 1, 0, 1, 0, 0, 0): 1,
    }


# The six right-hand sides written out, {(x, y1, y2) exponents: code}, as
# a second transcription of the paper's equations: y_i = x^(i q0)(x^q - x),
# v_i = x^(i q0)(x^(2q) - x^2), the presented w = x^(2q0) y1 (x^q - x)
# - x^q0 y2 (x^q - x), and the primed w' = 2 x^(2q0) y1 (x^q - x)
# + x^(3q0) (x^q - x)^2.
RHS_ORACLE = {
    Params(3, 1): {  # q0 = 3, q = 27; -1 -> 2, -2 -> 1
        "y1": {(30, 0, 0): 1, (4, 0, 0): 2},
        "y2": {(33, 0, 0): 1, (7, 0, 0): 2},
        "v1": {(57, 0, 0): 1, (5, 0, 0): 2},
        "v2": {(60, 0, 0): 1, (8, 0, 0): 2},
        "w": {(33, 1, 0): 1, (7, 1, 0): 2, (30, 0, 1): 2, (4, 0, 1): 1},
        "w'": {(33, 1, 0): 2, (7, 1, 0): 1, (63, 0, 0): 1, (37, 0, 0): 1,
               (11, 0, 0): 1},
    },
    Params(5, 1): {  # q0 = 5, q = 125; -1 -> 4, -2 -> 3
        "y1": {(130, 0, 0): 1, (6, 0, 0): 4},
        "y2": {(135, 0, 0): 1, (11, 0, 0): 4},
        "v1": {(255, 0, 0): 1, (7, 0, 0): 4},
        "v2": {(260, 0, 0): 1, (12, 0, 0): 4},
        "w": {(135, 1, 0): 1, (11, 1, 0): 4, (130, 0, 1): 4, (6, 0, 1): 1},
        "w'": {(135, 1, 0): 2, (11, 1, 0): 3, (265, 0, 0): 1,
               (141, 0, 0): 3, (17, 0, 0): 1},
    },
    Params(3, 2): {  # q0 = 9, q = 243
        "y1": {(252, 0, 0): 1, (10, 0, 0): 2},
        "y2": {(261, 0, 0): 1, (19, 0, 0): 2},
        "v1": {(495, 0, 0): 1, (11, 0, 0): 2},
        "v2": {(504, 0, 0): 1, (20, 0, 0): 2},
        "w": {(261, 1, 0): 1, (19, 1, 0): 2, (252, 0, 1): 2, (10, 0, 1): 1},
        "w'": {(261, 1, 0): 2, (19, 1, 0): 1, (513, 0, 0): 1,
               (271, 0, 0): 1, (29, 0, 0): 1},
    },
}


@pytest.mark.parametrize("params", list(RHS_ORACLE))
def test_every_layer_reads_the_one_equation_table(params):
    oracle = RHS_ORACLE[params]
    assert tower_rhs(params) == oracle
    # the covers take the primed w, which lies over x and y1 alone
    covers = dict(oracle, w=oracle["w'"])
    del covers["w'"]
    assert cover_rhs_polys(params) == {
        label: {(ex, ey1): c for (ex, ey1, _), c in terms.items()}
        for label, terms in covers.items()}
    assert {name: rel.d for name, rel in
            presentation(params).relations.items()} == {
        name: {(*m, 0, 0, 0): c for m, c in oracle[name].items()}
        for name in GENS}


def unprimed_v1(pres):
    """The unprimed v1 right-hand side x*y1^q - x^q*y1, as criterion 08
    writes it; `element` normalizes y1^q."""
    q = pres.params.q
    return pres.element({(1, q, 0, 0, 0, 0): 1,
                         (q, 1, 0, 0, 0, 0): pres.ctx.neg(1)})


def test_unprimed_relation_normalized(mixed):
    q0, q = 3, 27
    assert unprimed_v1(mixed).d == {
        (1, 1, 0, 0, 0, 0): 1,
        (q0 + q + 1, 0, 0, 0, 0, 0): 1,
        (q0 + 2, 0, 0, 0, 0, 0): 2,
        (q, 1, 0, 0, 0, 0): 2,
    }


# ---------------------------------------------------------- normalization


def test_normalize_first_generator_power(mixed):
    e = mixed.element({(0, 27, 0, 0, 0, 0): 1})
    assert e.d == {Y1: 1, (30, 0, 0, 0, 0, 0): 1, (4, 0, 0, 0, 0, 0): 2}
    e2 = mixed.element({(0, 28, 0, 0, 0, 0): 1})
    assert e2.d == {
        (0, 2, 0, 0, 0, 0): 1,
        (30, 1, 0, 0, 0, 0): 1,
        (4, 1, 0, 0, 0, 0): 2,
    }


def test_normalize_top_generator_power(mixed):
    e = mixed.element({(0, 0, 0, 0, 0, 27): 1})
    assert e.d == {
        W: 1,
        (33, 1, 0, 0, 0, 0): 1,
        (7, 1, 0, 0, 0, 0): 2,
        (30, 0, 1, 0, 0, 0): 2,
        (4, 0, 1, 0, 0, 0): 1,
    }


def small_elements(pres):
    monos = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
    )
    return st.dictionaries(
        monos, st.integers(min_value=1, max_value=26), min_size=1, max_size=3
    ).map(pres.element)


@given(data=st.data())
@settings(max_examples=40)
def test_normal_form_confluence(data):
    pres = presentation(P31)
    a = data.draw(small_elements(pres))
    b = data.draw(small_elements(pres))
    c = data.draw(small_elements(pres))
    assert (a * b).d == (b * a).d
    assert ((a * b) * c).d == (a * (b * c)).d
    assert (a * (b + c)).d == (a * b + a * c).d


@given(data=st.data())
@settings(max_examples=25)
def test_element_pow_pk_is_cube(data):
    pres = presentation(P31)
    a = data.draw(small_elements(pres))
    assert a.pow_pk(1).d == (a * a * a).d


def test_element_pow_pk_rejects_negative_k(mixed):
    with pytest.raises(ParameterError):
        mixed.gen("y1").pow_pk(-1)


def test_pow_pk_takes_any_number_of_steps(mixed):
    # 4000 steps of n = 3 at a time: 1334 nested calls, were each step
    # a call of its own
    x = mixed.x()
    assert x.pow_pk(4000) == mixed.x(3 ** 4000)
    assert x.pow_pk(0) is x


def test_scale_by_zero_is_zero(mixed):
    a = mixed.gen("y1") + mixed.x()
    assert a.scale(0) == mixed.const(0)


def test_pow_builds_each_pk_power_once(mixed, monkeypatch):
    """e = 2 at p = 3 is one digit 2: one p^0-th power, used twice."""
    real = tower.TowerElement.pow_pk
    calls = []

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(tower.TowerElement, "pow_pk", counted)
    y1 = mixed.gen("y1")
    assert y1 ** 2 == y1 * y1
    assert calls == [0]


# ----------------------------------------------------------- shift tables


def test_shift_tables_certified(mixed):
    ctx = mixed.ctx
    basis, reps = basis_and_reps(ctx)
    for g in basis + [reps[7]]:
        assert not check_endo(sigma_shift(mixed, g))
        assert not check_endo(tau_shift(mixed, g))


def test_check_endo_violation(mixed):
    bad = Endo(mixed, {"y1": mixed.gen("y1") + mixed.x()})
    defects = check_endo(bad)
    assert defects["y1"].d == {(27, 0, 0, 0, 0, 0): 1, X: 2}
    assert defects["w"].d == {(34, 0, 0, 0, 0, 0): 2, (8, 0, 0, 0, 0, 0): 1}


def test_check_endo_checks_fixed_generators_whose_relation_moves(mixed):
    # every generator is fixed, but y1's relation is in x, which moves:
    # the fixed-variable shortcut must not skip it
    shift = Endo(mixed, {"x": mixed.x() + mixed.const(1)})
    defects = check_endo(shift)
    assert defects["y1"] == (mixed.relations["y1"]
                             - shift.apply(mixed.relations["y1"]))


def test_apply_returns_an_element_whose_variables_are_fixed(mixed):
    rel = mixed.relations["w"]  # in x, y1 and y2 only
    assert Endo(mixed, {}).apply(rel) is rel
    assert vertical_shift_families(mixed)["v2"](3).apply(rel) is rel
    assert sigma_shift(mixed, 3).apply(rel) is not rel


def test_apply_distributes_over_products(mixed):
    s = sigma_shift(mixed, 3)
    y1w = mixed.element({(0, 1, 0, 0, 0, 1): 1})
    out = s.apply(y1w)
    assert out.d == {
        (0, 1, 0, 0, 0, 1): 1,
        (0, 1, 1, 0, 0, 0): 3,
        W: 3,
        Y2: 9,
    }


def test_compose_and_invert_shifts(mixed):
    ctx = mixed.ctx
    s1, s2 = sigma_shift(mixed, 3), sigma_shift(mixed, 9)
    assert compose_endo(s1, s2) == sigma_shift(mixed, ctx.add(3, 9))
    assert invert_endo(s1) == sigma_shift(mixed, ctx.neg(3))
    assert compose_endo(s1, invert_endo(s1)) == Endo(mixed, {})


@pytest.mark.parametrize("params", [P31, P51], ids=["p3s1", "p5s1"])
def test_endos_record_what_they_move_and_cannot_be_rewritten(params):
    pres = presentation(params)
    basis = prime_basis(pres.ctx)
    fams = vertical_shift_families(pres)
    endos = [Endo(pres, {})]
    for g in basis:
        endos += [sigma_shift(pres, g), tau_shift(pres, g),
                  prolong_translation(pres, g)]
        endos += [fam(g) for fam in fams.values()]
    lift, sigma = prolong_translation(pres, basis[-1]), sigma_shift(pres, 1)
    endos += [compose_endo(lift, sigma), compose_endo(sigma, lift),
              invert_endo(lift), invert_endo(sigma),
              compose_endo(lift, invert_endo(lift))]
    variables = {"x": pres.x(), **{name: pres.gen(name) for name in GENS}}
    for e in endos:
        assert e.images.keys() == variables.keys()
        assert e.moved == {name for name, img in e.images.items()
                           if img != variables[name]}
        with pytest.raises(TypeError):
            e.images["y1"] = pres.gen("y1")
    assert endos[0].moved == endos[-1].moved == frozenset()
    with pytest.raises(ParameterError, match="no generator named 'z'"):
        Endo(pres, {"z": pres.x()})
    assert invert_endo(lift).moved == lift.moved == frozenset(variables)


def test_endo_refuses_elements_from_another_presentation(mixed, mixed51):
    # packed monomials are laid out per presentation, and a foreign
    # image would carry F_125 codes into an F_27 element
    foreign = mixed51.gen("w") + mixed51.const(4)
    with pytest.raises(ParameterError, match="different presentations"):
        Endo(mixed, {"w": foreign})
    with pytest.raises(ParameterError, match="different presentations"):
        Endo(mixed, {}).apply(foreign)


def test_invert_rejects_non_unipotent(mixed):
    doubled = Endo(mixed, {"y1": mixed.gen("y1").scale(2)})
    with pytest.raises(UnsupportedError):
        invert_endo(doubled)


def test_invert_rejects_an_x_image_that_is_no_translation(mixed):
    with pytest.raises(UnsupportedError, match="not a translation"):
        invert_endo(Endo(mixed, {"x": mixed.x(2)}))


@pytest.mark.parametrize("params", [P31, P51], ids=["p3s1", "p5s1"])
def test_commutator_table(params):
    pres = presentation(params)
    ctx = pres.ctx
    basis, _ = basis_and_reps(ctx)
    ident = Endo(pres, {})
    for gi in basis:
        for gj in basis:
            c = commutator(sigma_shift(pres, gi), tau_shift(pres, gj))
            for name in ("x", "y1", "y2", "v1", "v2"):
                assert c.images[name] == ident.images[name]
            shift = ctx.neg(ctx.mul(2, ctx.mul(gi, gj)))
            assert c.images["w"].d == {W: 1, ONE: shift}
            back = commutator(tau_shift(pres, gj), sigma_shift(pres, gi))
            assert back.images["w"].d == {W: 1, ONE: ctx.neg(shift)}
            assert commutator(sigma_shift(pres, gi), sigma_shift(pres, gj)) == ident


# ----------------------------------------------------------------- solver


def test_wp_solve_first_generator(mixed):
    target = mixed.relations["y1"]
    assert wp_solve(mixed, target).d == {Y1: 1}


def test_wp_solve_pure_x(mixed):
    xq_minus_x = mixed.element({(27, 0, 0, 0, 0, 0): 1, X: 2})
    assert wp_solve(mixed, xq_minus_x).d == {X: 1}


def test_wp_solve_scaled_x(mixed):
    ctx = mixed.ctx
    a = 3
    u = mixed.x().scale(ctx.frobenius_iter(a, 1))
    target = u.pow_pk(P31.n) - u
    assert wp_solve(mixed, target).d == u.d


def test_wp_solve_mixed_witness(mixed):
    # difference between the two shapes of the second-level relation
    target = mixed.relations["v1"] - unprimed_v1(mixed)
    assert wp_solve(mixed, target).d == {(1, 1, 0, 0, 0, 0): 1}


def test_wp_solve_no_solution(mixed):
    assert wp_solve(mixed, mixed.element({ONE: 3})) is None
    assert wp_solve(mixed, mixed.x()) is None


def test_wp_solve_zero(mixed):
    assert wp_solve(mixed, mixed.element({})).d == {}


@given(data=st.data())
@settings(max_examples=20)
def test_wp_solve_roundtrip(data):
    # completeness within a box that covers the witness: the default box
    # alone cannot see u when u^q - u cancels u's own top terms (any pure
    # generator with an F_q coefficient does that), so the box is widened
    # to u's degrees and the solver must then recover u exactly
    pres = presentation(P31)
    monos = st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
    ).filter(lambda m: m != ONE)
    d = data.draw(
        st.dictionaries(monos, st.integers(min_value=1, max_value=26),
                        min_size=1, max_size=2)
    )
    u = pres.element(d)
    target = u.pow_pk(3) - u
    box = [max(m[i + 1] for m in u.d) for i in range(5)]
    got = wp_solve(pres, target, bound=box)
    assert got is not None and got.d == u.d


def test_wp_solve_top_generator_needs_wider_box(mixed):
    # u^q - u kills the w term outright (coefficients are F_q-fixed under
    # the q-power map), so the target shows no w-degree and the default
    # box excludes the witness; asking for w-degree 1 recovers it
    w = mixed.gen("w")
    target = w.pow_pk(3) - w
    assert all(m[5] == 0 for m in target.d)
    assert wp_solve(mixed, target) is None
    got = wp_solve(mixed, target, bound=(0, 0, 0, 0, 1))
    assert got is not None and got.d == w.d


def test_wp_solve_refuses_a_box_over_the_solver_cap(mixed):
    # 21 * 21 * 21 * 2 * 1 candidate monomials against the cap of 4096
    with pytest.raises(UnsupportedError,
                       match="18522 candidate monomials exceed"):
        wp_solve(mixed, mixed.x(), bound=(20, 20, 20, 0, 0))


def test_wp_solve_refuses_a_wrong_affine_solution(mixed, monkeypatch):
    # every unknown off by one: the witness no longer replays to target
    ctx = mixed.ctx
    real = tower._solve_affine
    monkeypatch.setattr(tower, "_solve_affine", lambda ctx_, forms, nvars: [
        ctx.add(v, 1) for v in real(ctx_, forms, nvars)])
    with pytest.raises(IntegrityError,
                       match="witness failed its replay check"):
        wp_solve(mixed, mixed.relations["y1"])


# ---------------------------------------------------- presentation links


def test_presentation_equiv(mixed):
    # the solver, not a table, finds each link's witness: v_i against the
    # unprimed rhs, w against the primed "w'" read from tower_rhs
    q, n1 = P31.q, mixed.ctx.neg(1)
    rel = mixed.relations
    unprimed_v2 = mixed.element({(1, 0, q, 0, 0, 0): 1,
                                 (q, 0, 1, 0, 0, 0): n1})
    primed_w = mixed.element({(*m, 0, 0, 0): c
                              for m, c in tower_rhs(P31)["w'"].items()})
    links = {"v1": rel["v1"] - unprimed_v1(mixed),
             "v2": rel["v2"] - unprimed_v2,
             "w": primed_w - rel["w"]}
    assert {name: wp_solve(mixed, target).d
            for name, target in links.items()} == {
        "v1": {(1, 1, 0, 0, 0, 0): 1},
        "v2": {(1, 0, 1, 0, 0, 0): 1},
        "w": {(0, 1, 1, 0, 0, 0): 1},
    }


# ----------------------------------------------------------- prolongation


def test_prolong_images_frozen(mixed):
    a = 3  # the basis element t
    P = prolong_translation(mixed, a)
    assert not check_endo(P)
    assert P.images["x"].d == {X: 1, ONE: 3}
    assert P.images["y1"].d == {Y1: 1, X: 5}
    assert P.images["y2"].d == {Y2: 1, Y1: 7, X: 13}
    assert P.images["v1"].d == {V1: 1, (2, 0, 0, 0, 0, 0): 5, Y1: 6, X: 21}
    assert P.images["v2"].d == {
        V2: 1, V1: 7, (2, 0, 0, 0, 0, 0): 13, Y2: 6, Y1: 15, X: 22,
    }
    assert P.images["w"].d == {
        W: 1, V2: 5, (1, 0, 1, 0, 0, 0): 7, V1: 13, (1, 1, 0, 0, 0, 0): 26,
    }


def test_prolong_certified_on_basis_and_inverse(mixed):
    ctx = mixed.ctx
    for a in [1, 3, 9, 22]:
        P = prolong_translation(mixed, a)
        assert not check_endo(P)
        Q = invert_endo(P)
        assert not check_endo(Q)
        assert Q.images["x"].d == {X: 1, ONE: ctx.neg(a)}
        assert compose_endo(P, Q) == Endo(mixed, {})


def test_prolong_cocycle_is_vertical(mixed):
    ctx = mixed.ctx
    a, b = 3, 22
    Pab = prolong_translation(mixed, ctx.add(a, b))
    delta = compose_endo(
        compose_endo(prolong_translation(mixed, a), prolong_translation(mixed, b)),
        invert_endo(Pab),
    )
    assert not check_endo(delta)
    assert delta.images["x"] == mixed.x()
    # A certified x-fixing endo shifts each generator by a constant,
    # except w, which also picks up gamma1*y2 - gamma2*y1 from the
    # shifts of the first two generators.
    A, B = ctx.frobenius_iter(a, 1), ctx.frobenius_iter(b, 1)
    gamma1 = ctx.mul(a, B)
    gamma2 = ctx.neg(ctx.mul(gamma1, ctx.add(B, ctx.mul(2, A))))
    assert (delta.images["y1"] - mixed.gen("y1")).d == {ONE: gamma1}
    assert (delta.images["y2"] - mixed.gen("y2")).d == {ONE: gamma2}
    for name in ("v1", "v2"):
        assert set((delta.images[name] - mixed.gen(name)).d) <= {ONE}
    wdiff = (delta.images["w"] - mixed.gen("w")).d
    assert set(wdiff) <= {ONE, Y1, Y2}
    assert wdiff[Y2] == gamma1
    assert wdiff[Y1] == ctx.neg(gamma2)


def test_pair_lift_cocycles_are_vertical_at_3_2():
    """The certificate `prolong` no longer computes: at (3, 2) every
    ordered composite s_i o s_j o invert(s_{i+j}) of basis lifts fixes x
    and passes the relation check."""
    pres = presentation(Params(3, 2))
    ctx = pres.ctx
    basis = [ctx.p ** i for i in range(ctx.n)]
    lifts = [prolong_translation(pres, b) for b in basis]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            delta = compose_endo(
                compose_endo(lifts[i], lifts[j]),
                invert_endo(prolong_translation(pres, ctx.add(bi, bj))))
            assert delta.images["x"] == pres.x()
            assert not check_endo(delta)


def test_vertical_families_and_multiplicity(mixed):
    fams = vertical_shift_families(mixed)
    assert set(fams) == {"y1", "y2", "v1", "v2", "w"}
    for fam in fams.values():
        e = fam(9)
        assert not check_endo(e)
        assert compose_endo(fam(3), fam(9)) == fam(mixed.ctx.add(3, 9))
    assert extension_multiplicity(mixed) == 27 ** 5
    assert certify_group(mixed) == 27 ** 6


def test_prolong_identity_at_zero(mixed):
    assert prolong_translation(mixed, 0) == Endo(mixed, {})


@pytest.mark.parametrize("params", [P31, P51], ids=["3-1", "5-1"])
def test_basis_lift_composites_lift_every_translation(params):
    """The certificate `prolong` relies on, checked for every a: the
    composite of basis lifts along a's base-p digits restricts to x + a,
    passes the relation check, and differs from the direct lift of a by
    a certified x-fixing (vertical) automorphism."""
    pres = presentation(params)
    ctx = pres.ctx
    p = ctx.p
    basis = [p ** i for i in range(ctx.n)]
    sigma = [prolong_translation(pres, b) for b in basis]
    composite = {0: Endo(pres, {})}
    for a in range(1, ctx.q):
        # a - b_i drops a's lowest nonzero digit by one, and
        # composite(a) = composite(a - b_i) o sigma_i
        i = next(i for i, d in enumerate(ctx.to_coeffs(a)) if d)
        composite[a] = compose_endo(composite[a - basis[i]], sigma[i])
    for a, endo in composite.items():
        assert endo.images["x"] == pres.x() + pres.const(a)
        assert not check_endo(endo)
        delta = compose_endo(endo, invert_endo(prolong_translation(pres, a)))
        assert delta.images["x"] == pres.x()
        assert not check_endo(delta)


# ------------------------------------------- packed kernel vs tuple oracle


class TupleOracle:
    """Tuple-keyed tower arithmetic: a dict cross product and a stack
    rewriter over 6-tuple monomials, one field operation per coefficient.
    Relations are the ones `presentation` builds, written out from q0
    and q."""

    def __init__(self, params):
        self.ctx = ctx = params.field()
        self.q = q = params.q
        self.p, self.n = params.p, params.n
        q0, n1 = params.q0, ctx.neg(1)
        self._gp = {}
        self.rhs = {
            1: {(q0 + q,) + (0,) * 5: 1, (q0 + 1,) + (0,) * 5: n1},
            2: {(2 * q0 + q,) + (0,) * 5: 1, (2 * q0 + 1,) + (0,) * 5: n1},
            3: {(q0 + 2 * q,) + (0,) * 5: 1, (q0 + 2,) + (0,) * 5: n1},
            4: {(2 * q0 + 2 * q,) + (0,) * 5: 1, (2 * q0 + 2,) + (0,) * 5: n1},
            5: {(2 * q0 + q, 1, 0, 0, 0, 0): 1, (2 * q0 + 1, 1, 0, 0, 0, 0): n1,
                (q0 + q, 0, 1, 0, 0, 0): n1, (q0 + 1, 0, 1, 0, 0, 0): 1},
        }

    def add(self, a, b, c=1):
        out = dict(a)
        for m, v in b.items():
            s = self.ctx.add(out.get(m, 0), self.ctx.mul(c, v))
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return out

    def raw_mul(self, a, b):
        ctx = self.ctx
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = ctx.add(out.get(m, 0), ctx.mul(ca, cb))
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def gen_pow(self, slot, e):
        if e < self.q:
            m = [0] * 6
            m[slot] = e
            return {tuple(m): 1}
        if (slot, e) not in self._gp:
            rest = self.gen_pow(slot, e - self.q)
            unit = [0] * 6
            unit[slot] = 1
            part = self.add(self.raw_mul(rest, {tuple(unit): 1}),
                            self.raw_mul(rest, self.rhs[slot]))
            self._gp[(slot, e)] = self.normalize(part)
        return self._gp[(slot, e)]

    def normalize(self, raw):
        out = {}
        stack = list(raw.items())
        while stack:
            m, c = stack.pop()
            if not c:
                continue
            bad = [i for i in range(1, 6) if m[i] >= self.q]
            if not bad:
                out = self.add(out, {m: c})
                continue
            base = list(m)
            for i in bad:
                base[i] = 0
            cur = {tuple(base): c}
            for i in bad:
                cur = self.raw_mul(cur, self.gen_pow(i, m[i]))
            stack.extend(cur.items())
        return out

    def mul(self, a, b):
        return self.normalize(self.raw_mul(a, b))

    def pow_pk(self, a, k):
        scale = self.p ** k
        return self.normalize({tuple(e * scale for e in m):
                               self.ctx.frobenius_iter(c, k)
                               for m, c in a.items()})

    def apply(self, images, elem):
        """Substitute each variable's image, powers by repeated products."""
        names = ("x", "y1", "y2", "v1", "v2", "w")
        acc = {}
        for m, c in elem.items():
            term = {ONE: c}
            for name, e in zip(names, m):
                for _ in range(e):
                    term = self.mul(term, images[name])
            acc = self.add(acc, term)
        return acc


ORACLES = {}


def oracle(params):
    if params not in ORACLES:
        ORACLES[params] = TupleOracle(params)
    return ORACLES[params]


def raw_elements(q):
    # generator exponents up to q + 2 so that element() has to rewrite
    monos = st.tuples(*[st.integers(0, 3)]
                      + [st.integers(0, q + 2)] + [st.integers(0, 2)] * 4)
    return st.dictionaries(monos, st.integers(1, q - 1), max_size=3)


@pytest.mark.parametrize("params", [P31, P51], ids=["p3s1", "p5s1"])
@given(data=st.data())
@settings(max_examples=15)
def test_packed_arithmetic_matches_tuple_oracle(params, data):
    pres, orc = presentation(params), oracle(params)
    ra = data.draw(raw_elements(params.q))
    rb = data.draw(raw_elements(params.q))
    c = data.draw(st.integers(0, params.q - 1))
    k = data.draw(st.integers(0, params.n))
    a, b = pres.element(ra), pres.element(rb)
    assert a.d == orc.normalize(ra) and b.d == orc.normalize(rb)
    assert (a * b).d == orc.mul(a.d, b.d)
    assert (a + b).d == orc.add(a.d, b.d)
    assert (a - b).d == orc.add(a.d, b.d, orc.ctx.neg(1))
    assert (-a).d == orc.add({}, a.d, orc.ctx.neg(1))
    assert a.scale(c).d == orc.add({}, a.d, c)
    # p^k-th powers of a y1^(q-1) term expand into thousands of terms;
    # the low-degree part of a keeps the oracle quick
    low = pres.element({m: v for m, v in a.d.items() if max(m[1:]) < 3})
    assert low.pow_pk(k).d == orc.pow_pk(low.d, k)


def test_pow_pk_beyond_n_matches_tuple_oracle(mixed):
    # k > n is taken n steps at a time; the oracle scales in one go
    el = mixed.element({(1, 1, 0, 0, 0, 1): 2, (0, 0, 1, 1, 0, 0): 1, X: 5})
    assert el.pow_pk(P31.n + 1).d == oracle(P31).pow_pk(el.d, P31.n + 1)


@pytest.mark.parametrize("params", [P31, P51], ids=["p3s1", "p5s1"])
@given(data=st.data())
@settings(max_examples=10)
def test_endo_apply_matches_tuple_oracle(params, data):
    pres, orc = presentation(params), oracle(params)
    a = data.draw(st.integers(0, params.q - 1))
    g = data.draw(st.integers(1, params.q - 1))
    fams = vertical_shift_families(pres)
    endo = data.draw(st.sampled_from([
        prolong_translation(pres, a), sigma_shift(pres, g),
        tau_shift(pres, g), Endo(pres, {}), fams["v1"](g),
        fams["v2"](g), fams["w"](g)]))
    monos = st.tuples(st.integers(0, 3), *[st.integers(0, 2)] * 5)
    elem = pres.element(data.draw(
        st.dictionaries(monos, st.integers(1, params.q - 1), max_size=3)))
    images = {name: img.d for name, img in endo.images.items()}
    assert endo.apply(elem).d == orc.apply(images, elem.d)


def test_pow_pk_far_beyond_n_stays_inside_the_packed_fields(mixed):
    # y1^(q^m) = y1 + sum_{i<m} rhs^(q^i); scaling y1's field by 3^42
    # in one go would overflow its W = 12 bits, so pow_pk has to go n at
    # a time
    y1, rhs = mixed.gen("y1"), mixed.relations["y1"]
    want = y1
    for i in range(14):
        want = want + rhs.pow_pk(P31.n * i)
    assert y1.pow_pk(P31.n * 14) == want


def test_packed_fields_cannot_overflow_at_the_table_budget():
    # normal monomials times normal monomials stay below 2q, their
    # p^k-th powers (k <= n) below q^2: both must fit below the top bit
    # of each presentation's W-bit fields, at every n within the budget
    for p, s in ((3, 1), (5, 1), (3, 2), (13, 2), (7, 3), (101, 1), (3, 5)):
        params = Params(p, s)
        assert 2 * params.q ** 2 < 1 << (presentation(params).width - 1)
    # every field at once at both bounds: the full normal form of the
    # q-th power has about q^5 terms, so the packed power is read back
    # before normalizing, against the oracle's exponent scaling
    for params in (P31, P51):
        pres, orc, q = presentation(params), oracle(params), params.q
        top = pres.element({(1,) + (q - 1,) * 5: 2})
        assert (top * top).d == orc.mul(top.d, top.d)
        raw = lp_map_pow(top.terms, params.n, pres.ctx)
        # c^q = c for every c in F_q
        assert tower.TowerElement(pres, raw).d == {
            tuple(e * q for e in m): c for m, c in top.d.items()}
    # a presentation needs no check of its own: its Params passes the
    # field budget before any field is built, and q = 13^7 is refused
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(UnsupportedError):
            presentation(Params(13, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0
    assert peak < 1 << 20


def test_element_rejects_exponents_outside_the_packed_fields(mixed):
    with pytest.raises(ParameterError):
        mixed.element({(0, -1, 0, 0, 0, 0): 1})
    with pytest.raises(ParameterError):
        mixed.element({(0, 0, 0, 0, 0, 1 << 60): 1})
    with pytest.raises(ParameterError):
        mixed.element({(0, 1): 1})
    # a negative x exponent would never finish a power in Endo.apply
    with pytest.raises(ParameterError):
        mixed.element({(-1, 0, 0, 0, 0, 0): 1})
    with pytest.raises(ParameterError):
        mixed.x(-1)


@given(data=st.data())
@settings(max_examples=30)
def test_decoded_view_round_trips_through_element(data):
    pres = presentation(P51)
    el = pres.element(data.draw(raw_elements(P51.q)))
    again = pres.element(el.d)
    assert again == el and again.d == el.d
    assert pres.normalize(el.terms) is el.terms  # normal input comes back
    assert el.terms.get(0, 0) == el.d.get(ONE, 0)


def test_normalize_refuses_codes_outside_the_field():
    """`normalize` is public and takes packed terms as they come, so it
    checks their codes: {0: 30} and {0: -1} used to come back as they
    were, elements that are not in F_27."""
    pres = presentation(P31)
    for code in (27, 30, -1):
        with pytest.raises(ParameterError, match=f"code {code} is not"):
            pres.normalize({0: code})
    assert pres.normalize({0: 26}) == {0: 26}


_RUNAWAY = """
from astower.errors import UnsupportedError
from astower.ff import Params
from astower.tower import presentation

pres = presentation(Params(3, 1))
try:
    pres.element({(1, 26, 26, 26, 26, 26): 2}).pow_pk(3)
except UnsupportedError as exc:
    print(exc)
else:
    raise SystemExit("the power was formed")
"""


def _limit_address_space():
    limit = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_runaway_power_is_refused_by_the_term_budget():
    """The q-th power of x (y1 y2 v1 v2 w)^(q-1) at (3,1) expands toward
    q^5 generator monomials.  The term budget refuses it before any
    product that large is formed.  It runs in a child process with 1.5 GiB
    of address space and a timeout, so without the budget this test fails
    instead of exhausting memory or hanging the suite."""
    src = pathlib.Path(tower.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run([sys.executable, "-c", _RUNAWAY],
                              capture_output=True, text=True, env=env,
                              timeout=60, preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        pytest.fail("the runaway power was not refused within 60 s")
    assert done.returncode == 0, done.stderr
    assert f"term budget of {tower.MAX_TERMS}" in done.stdout
