"""Expansions at the place over x = infinity and additive reduction.

The degree-q cover defined by the first tower relation has a unique place
above x = infinity, and `build_uniformizer` realizes a uniformizer z for
it: x becomes an explicit 3-term Laurent polynomial in z, and the first
generator becomes an explicit 9-term head whose Artin-Schreier defect
(the residual) has valuation exactly q*b1.  That one sharp valuation is
the hinge of everything downstream, so it is rechecked on every build
and a failure raises IntegrityError rather than warning.

Every function of interest here is a polynomial in x and the first
generator.  `expand_at_infinity` pushes such a polynomial through the
parametrization, tracking certified precision, and `reduce_mod_wp`
normalizes the resulting principal part modulo the image of u -> u^p - u
to read off the conductor of the corresponding degree-p cover.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, List, Optional, Tuple, Union

from .errors import IntegrityError, ParameterError, UnsupportedError
from ._kernel_py import lp_add_scaled
from .ff import FieldCtx, Params
from .laurent import LaurentPoly, TruncatedSeries


class XYPoly:
    """Sparse polynomial in (x, y) with F_q coefficients.

    Keys are (x_exponent, y_exponent) pairs; y stands for the first
    tower generator.  Sums and scalings run through `_kernel_py`, whose
    loops only index keys, so pair keys serve as well as ints.
    """

    __slots__ = ("ctx", "d")

    def __init__(self, ctx: FieldCtx, data: Optional[Dict[Tuple[int, int], int]] = None):
        self.ctx = ctx
        self.d = {m: c for m, c in (data or {}).items() if c}
        if any(ex < 0 or ey < 0 for ex, ey in self.d):
            raise ParameterError("XYPoly exponents must be nonnegative")

    def scale(self, c: int) -> "XYPoly":
        return XYPoly(self.ctx, lp_add_scaled({}, self.d, c,
                                              *self.ctx.kernel_args))

    def __add__(self, other: "XYPoly") -> "XYPoly":
        return XYPoly(self.ctx, lp_add_scaled(self.d, other.d, 1,
                                              *self.ctx.kernel_args))

    def __eq__(self, other) -> bool:
        return isinstance(other, XYPoly) and self.d == other.d

    def __repr__(self):
        return f"XYPoly({self.d!r})"


def cover_rhs_polys(params: Params) -> Dict[str, XYPoly]:
    """Defining right-hand sides of the five Artin-Schreier covers.

    y1 and y2 carry x^(i*q0) * (x^q - x); v1 and v2 carry the analogous
    combination with x^q - x replaced by x^(2q) - x^2; the w cover is
    presented relative to the first generator, with right-hand side
    2*y*f2 + f1*f2, which lies in the degree-q subfield cut out by y.
    All five therefore live in F_q[x, y].
    """
    ctx = params.field()
    q0, q = params.q0, params.q
    n1 = ctx.neg(1)
    n2 = ctx.neg(2)
    return {
        "y1": XYPoly(ctx, {(q0 + q, 0): 1, (q0 + 1, 0): n1}),
        "y2": XYPoly(ctx, {(2 * q0 + q, 0): 1, (2 * q0 + 1, 0): n1}),
        "v1": XYPoly(ctx, {(q0 + 2 * q, 0): 1, (q0 + 2, 0): n1}),
        "v2": XYPoly(ctx, {(2 * q0 + 2 * q, 0): 1, (2 * q0 + 2, 0): n1}),
        "w": XYPoly(ctx, {
            (2 * q0 + q, 1): 2,
            (2 * q0 + 1, 1): n2,
            (3 * q0 + 2 * q, 0): 1,
            (3 * q0 + q + 1, 0): n2,
            (3 * q0 + 2, 0): 1,
        }),
    }


class UniformizerData:
    """x and the head of the first generator as Laurent polynomials in
    the uniformizer z, their exponents, and the head's residual."""

    __slots__ = ("params", "ctx", "x_poly", "y_head", "a1", "a2", "b1", "b2",
                 "residual", "_xpow_cache")

    def __init__(self, params: Params, ctx: FieldCtx, x_poly: LaurentPoly,
                 y_head: LaurentPoly, a1: int, a2: int, b1: int, b2: int,
                 residual: LaurentPoly):
        self.params, self.ctx = params, ctx
        self.x_poly, self.y_head = x_poly, y_head
        self.a1, self.a2, self.b1, self.b2 = a1, a2, b1, b2
        self.residual = residual
        self._xpow_cache: Dict[int, LaurentPoly] = {}

    def xpow(self, e: int) -> LaurentPoly:
        out = self._xpow_cache.get(e)
        if out is None:
            out = self.x_poly ** e
            self._xpow_cache[e] = out
        return out


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
    f1 = data.xpow(q0 + q) - data.xpow(q0 + 1)
    residual = y_head.pow_pk(params.n) - y_head - f1

    v = residual.valuation()
    if v != q * b1 or residual.d[v] != 1:
        raise IntegrityError(
            f"uniformizer residual must start 1*z^{q * b1}, got valuation {v}")
    data.residual = residual
    return data


def expand_at_infinity(data: UniformizerData, rhs: XYPoly) -> TruncatedSeries:
    """Evaluate rhs at the parametrization, with certified precision.

    The first generator enters as its head at the fixed precision q*b1,
    the valuation of the head's residual, and each product carries that
    bound forward.  If the result cannot certify every coefficient
    through z^0 the conductor downstream would be a guess, so that case
    raises UnsupportedError.
    """
    y_series = TruncatedSeries.from_poly(data.y_head,
                                         prec=data.params.q * data.b1)
    total = TruncatedSeries(data.ctx, {}, math.inf)
    for (ex, ey), c in sorted(rhs.d.items()):
        term = TruncatedSeries.from_poly(data.xpow(ex))
        for _ in range(ey):
            term = term * y_series
        total = total + term.scale(c)
    if total.prec <= 0:
        raise UnsupportedError(
            f"expansion certified only above z^{total.prec}; principal part "
            "would be unverified (raise the working precision)")
    return total


def expand_rational(ctx: FieldCtx, rhs: XYPoly) -> LaurentPoly:
    """Evaluate rhs at x = 1/z, the uniformizer at infinity of F_q(x).

    Its keys (e, 0) are distinct, so x^e -> z^-e needs no sum.
    """
    if any(ey for _, ey in rhs.d):
        raise ParameterError("rational-base expansion is x-only")
    return LaurentPoly(ctx, {-ex: c for (ex, _), c in rhs.d.items()},
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


def reduce_mod_wp(ctx: FieldCtx, f: Union[TruncatedSeries, LaurentPoly]
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
    witnesses: List[Tuple[int, int]] = []
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


# principal and reduced are {pole order: code}, witnesses [(m, r)] as in
# ReducedPart, and m the conductor exponent
ConductorResult = namedtuple("ConductorResult", "label base valuation "
                             "principal reduced witnesses m geometric")


def conductor_of_cover(params: Params, rhs: Union[str, XYPoly], *,
                       base: str = "tower",
                       data: Optional[UniformizerData] = None
                       ) -> ConductorResult:
    """Conductor at the infinite place of the degree-p cover u^p - u = rhs.

    base selects the function field the cover sits over: "tower" works
    over the degree-q step (expansion through the uniformizer data),
    "rational" directly over F_q(x).  The conductor exponent is
    m = 1 + (largest reduced pole order); a reduced pole order divisible
    by p would contradict the normalization, so m - 1 is checked to be
    prime to p.
    """
    ctx = params.field()
    label = rhs if isinstance(rhs, str) else "custom"
    if isinstance(rhs, str):
        try:
            rhs = cover_rhs_polys(params)[rhs]
        except KeyError:
            raise ParameterError(f"unknown cover label {rhs!r}") from None

    if base == "tower":
        if data is None:
            data = build_uniformizer(params)
        vsrc: Union[TruncatedSeries, LaurentPoly] = expand_at_infinity(
            data, rhs)
    elif base == "rational":
        vsrc = expand_rational(ctx, rhs)
    else:
        raise ParameterError(f"unknown base {base!r}")

    red = reduce_mod_wp(ctx, vsrc)
    val = vsrc.valuation()
    if val is None or val >= 0:
        raise ParameterError("cover right-hand side has no pole at infinity")
    m = 1 + max(-e for e in red.reduced) if red.reduced else 0
    if m and (m < 2 or (m - 1) % params.p == 0):
        raise IntegrityError(f"reduced conductor jump {m - 1} divisible by {params.p}")
    principal = {e: c for e, c in vsrc.d.items() if e < 0}
    return ConductorResult(label=label, base=base, valuation=val,
                           principal=principal, reduced=red.reduced,
                           witnesses=red.witnesses, m=m,
                           geometric=red.geometric)
