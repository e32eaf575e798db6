"""Expansions at the place over x = infinity and additive reduction.

The degree-q cover defined by the first tower relation has a unique place
above x = infinity, and `build_uniformizer` realizes a uniformizer z for
it: x becomes an explicit 3-term Laurent polynomial in z, and the first
generator becomes an explicit 9-term head whose Artin-Schreier defect
(the residual) has valuation exactly q*b1.  That one sharp valuation is
the hinge of everything downstream, so it is rechecked on every build
and a failure raises IntegrityError rather than warning.

Every function of interest here is a polynomial in x and the first
generator, held as a plain {(x, y) exponents: code} dict.  The covers'
right-hand sides come from `ff.tower_rhs`, the one table of the tower's
equations, through `cover_rhs_polys`.  `expand_at_infinity` pushes such
a polynomial through the parametrization, tracking certified precision,
and `reduce_mod_wp` normalizes the resulting principal part modulo the
image of u -> u^p - u to read off the conductor of the corresponding
degree-p cover.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import FieldCtx, Params, tower_rhs
from .laurent import LaurentPoly, TruncatedSeries


def cover_rhs_polys(params: Params) -> dict[str, dict[tuple[int, int], int]]:
    """Right-hand sides of the five Artin-Schreier covers, read from
    `ff.tower_rhs` as {(x, y) exponents: code}, y the first generator.

    y1, y2, v1 and v2 lie in F_q[x].  The w cover takes the paper's
    primed w, 2*y*f2 + f1*f2, which lies in the degree-q subfield cut
    out by y.  All five therefore live in F_q[x, y].
    """
    rhs = tower_rhs(params)
    rhs["w"] = rhs.pop("w'")
    return {label: {m[:2]: c for m, c in terms.items()}
            for label, terms in rhs.items()}


class UniformizerData:
    """x and the head of the first generator as Laurent polynomials in
    the uniformizer z, their exponents, and the head's residual."""

    __slots__ = ("params", "ctx", "x_poly", "y_head", "a1", "a2", "b1", "b2",
                 "residual")

    def __init__(self, params: Params, ctx: FieldCtx, x_poly: LaurentPoly,
                 y_head: LaurentPoly, a1: int, a2: int, b1: int, b2: int,
                 residual: LaurentPoly):
        self.params, self.ctx = params, ctx
        self.x_poly, self.y_head = x_poly, y_head
        self.a1, self.a2, self.b1, self.b2 = a1, a2, b1, b2
        self.residual = residual

    def xpow(self, e: int) -> LaurentPoly:
        return self.x_poly ** e


def build_uniformizer(params: Params) -> UniformizerData:
    ctx = params.field()
    q0, q = params.q0, params.q
    a1 = (q * q - q * q0 - q) // q0
    a2 = (q * q - q0 - q) // q0
    b1 = a1 - q * q0
    b2 = a2 - q * q0
    n1 = ctx.neg(1)

    x_poly = LaurentPoly(ctx, {-q: 1, a1: 1, a2: n1})
    y_head = LaurentPoly(ctx, {
        -(q + q0): 1,
        b1: 1,
        b2: n1,
        a1 * q0 - q: 1,
        a2 * q0 - q: n1,
        a1 * (1 + q0): 1,
        a2 * (1 + q0): 1,
        a1 + a2 * q0: n1,
        a1 * q0 + a2: n1,
    })

    data = UniformizerData(params, ctx, x_poly, y_head, a1, a2, b1, b2,
                           LaurentPoly.zero(ctx))
    # the head's defect y^q - y - f1 against the first relation
    residual = y_head.pow_pk(params.n) - y_head
    for (ex, _, _), c in tower_rhs(params)["y1"].items():
        residual = residual - data.xpow(ex).scale(c)

    v = residual.valuation()
    if v != q * b1 or residual.d[v] != 1:
        raise IntegrityError(
            f"uniformizer residual must start 1*z^{q * b1}, got valuation {v}")
    data.residual = residual
    return data


def expand_at_infinity(data: UniformizerData, rhs: dict[tuple[int, int], int]
                       ) -> TruncatedSeries:
    """Evaluate rhs, {(x, y) exponents: code}, at the parametrization,
    with certified precision.

    The first generator enters as its head at the fixed precision q*b1,
    the valuation of the head's residual, and each product carries that
    bound forward.  If the result cannot certify every coefficient
    through z^0 the conductor downstream would be a guess, so that case
    raises UnsupportedError.
    """
    y_series = TruncatedSeries.from_poly(data.y_head,
                                         prec=data.params.q * data.b1)
    total = TruncatedSeries(data.ctx, {}, math.inf)
    for (ex, ey), c in sorted(rhs.items()):
        term = TruncatedSeries.from_poly(data.xpow(ex))
        for _ in range(ey):
            term = term * y_series
        total = total + term.scale(c)
    if total.prec <= 0:
        raise UnsupportedError(
            f"expansion certified only above z^{total.prec}; principal part "
            "would be unverified (raise the working precision)")
    return total


def expand_rational(ctx: FieldCtx, rhs: dict[tuple[int, int], int]
                    ) -> LaurentPoly:
    """Evaluate rhs at x = 1/z, the uniformizer at infinity of F_q(x).

    Its keys (e, 0) are distinct, so x^e -> z^-e needs no sum.
    """
    if any(ey for _, ey in rhs):
        raise ParameterError("rational-base expansion is x-only")
    return LaurentPoly(ctx, {-ex: c for (ex, _), c in rhs.items()},
                       _trusted=True)


ReducedPart = namedtuple(
    "ReducedPart", "reduced witnesses dropped const geometric")
ReducedPart.__doc__ = """Principal part reduced mod the image of u -> u^p - u.

witnesses is the list of (m, r) with u = r * z^-m applied as
f -> f - (u^p - u), in application order; `reduced` has no pole
order divisible by p; `const` is the original z^0 coefficient and
`geometric` says its absolute trace vanishes, i.e. the constant is
itself of the form u^p - u and the cover stays geometric.
"""


def reduce_mod_wp(ctx: FieldCtx, f: TruncatedSeries | LaurentPoly
                  ) -> ReducedPart:
    """Normalize the principal part of f modulo the image of u -> u^p - u.

    A fold moves c*z^e (p | e) to p_root(c)*z^(e/p), a higher order, so
    only p*e folds into e.  One ascending sweep over the orders a fold
    can reach therefore visits each once, after all that lands on it,
    in the min-first order of repeatedly folding the top divisible pole.
    The certificate is then replayed once, exactly: with u = sum r*z^-m,
    f == reduced + (u^p - u) + dropped + const.  Each order folds once,
    so the m are distinct; were two equal, u would merge them and the
    identity would fail closed.
    """
    if isinstance(f, TruncatedSeries) and f.prec <= 0:
        raise ParameterError(
            f"series certified only above z^{f.prec}; cannot reduce")
    original = f.d

    p = ctx.p
    work = {e: c for e, c in original.items() if e < 0}
    dropped = {e: c for e, c in original.items() if e > 0}
    const = original.get(0, 0)

    folds = set()
    for e in work:
        while e % p == 0:
            folds.add(e)
            e //= p
    witnesses: list[tuple[int, int]] = []
    for e in sorted(folds):
        c = work.pop(e, 0)
        if c:
            r = ctx.p_root(c)
            work[e // p] = ctx.add(work.get(e // p, 0), r)
            witnesses.append((-(e // p), r))
    work = {e: c for e, c in work.items() if c}

    u = LaurentPoly(ctx, {-m: r for m, r in witnesses})
    acc = LaurentPoly(ctx, {**work, **dropped, 0: const}) + u.pow_pk(1) - u
    if acc.d != original:
        raise IntegrityError("additive reduction failed its replay check")

    return ReducedPart(reduced=work, witnesses=witnesses, dropped=dropped,
                       const=const, geometric=ctx.trace_to_prime(const) == 0)


def conductor_of_cover(params: Params, label: str) -> int:
    """Conductor exponent m at infinity of the degree-p cover
    u^p - u = rhs over F_q(x), rhs the x-only `cover_rhs_polys` entry
    label.

    One path: expand at x = 1/z, reduce modulo the image of u -> u^p - u
    and return m = 1 + (largest reduced pole order) (Stichtenoth,
    Prop. 3.7.8).  A reduced pole order divisible by p would contradict
    the normalization, so m - 1 is checked to be prime to p.
    """
    try:
        rhs = cover_rhs_polys(params)[label]
    except KeyError:
        raise ParameterError(f"unknown cover label {label!r}") from None
    ctx = params.field()
    reduced = reduce_mod_wp(ctx, expand_rational(ctx, rhs)).reduced
    m = 1 + max(-e for e in reduced)  # every x-only entry has a pole
    if (m - 1) % params.p == 0:
        raise IntegrityError(f"reduced conductor jump {m - 1} divisible by {params.p}")
    return m
