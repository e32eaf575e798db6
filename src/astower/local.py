"""Expansions at the place over x = infinity and additive reduction.

The degree-q cover defined by the first tower relation has a unique place
above x = infinity, and `build_uniformizer` realizes a uniformizer z for
it: x becomes an explicit 3-term Laurent polynomial in z, and the first
generator an explicit 9-term head whose Artin-Schreier defect (the
residual) has valuation exactly q*b1.  That one sharp valuation is the
hinge of everything downstream, so it is rechecked on every build, a
failure raises IntegrityError rather than warning, and the head is
returned as the series it certifies: the first generator below z^(q*b1).

Every function of interest here is a polynomial in x and the first
generator, held as a plain {(x, y) exponents: code} dict.  The covers'
right-hand sides come from `ff.tower_rhs`, the one table of the tower's
equations, through `cover_rhs_polys`.  `expand_at_infinity` pushes such
a polynomial through the parametrization, tracking certified precision,
and `reduce_mod_wp` normalizes the resulting principal part modulo the
image of u -> u^p - u.  `line_histogram` is the one place a conductor is
read: from the reductions of a basis (`basis_rows`), it proves the
conductor of every line of a coefficient space.  `conductor_of_cover`
reads the first floor's, the one conductor of the lines over y1.
"""

import math

from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import FieldCtx, Params, lp_mul, prime_basis, tower_rhs
from .laurent import LaurentPoly, TruncatedSeries, same_field


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


def build_uniformizer(params: Params) -> tuple[LaurentPoly, TruncatedSeries]:
    """(x, the first generator) in z: x exact, the generator a series
    certified below z^(q*b1) by its residual's checked valuation."""
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

    # the head's defect y^q - y - f1 against the first relation
    residual = y_head.pow_pk(params.n) - y_head
    for (ex, _, _), c in tower_rhs(params)["y1"].items():
        residual = residual - (x_poly ** ex).scale(c)

    v = residual.valuation()
    if v != q * b1 or residual.d[v] != 1:
        raise IntegrityError(
            f"uniformizer residual must start 1*z^{q * b1}, got valuation {v}")
    return x_poly, TruncatedSeries(ctx, y_head.d, q * b1)


def expand_at_infinity(uniformizer: tuple[LaurentPoly, TruncatedSeries],
                       rhs: dict[tuple[int, int], int]) -> LaurentPoly:
    """Evaluate rhs, {(x, y) exponents: code}, at the parametrization
    `build_uniformizer` returned, with certified precision.

    x is exact; the first generator enters as its certified series, and
    each product carries its precision forward.  If the result cannot
    certify every coefficient through z^0 the conductor downstream would
    be a guess, so that case raises UnsupportedError.
    """
    x_poly, y_series = uniformizer
    total = LaurentPoly(x_poly.ctx)
    for (ex, ey), c in sorted(rhs.items()):
        term = x_poly ** ex
        for _ in range(ey):
            term = y_series * term
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
    return LaurentPoly(ctx, {-ex: c for (ex, _), c in rhs.items()})


def reduce_mod_wp(ctx: FieldCtx, f: LaurentPoly) -> dict[int, int]:
    """The principal part of f normalized modulo the image of
    u -> u^p - u, as {pole order: code}: no order in it is divisible
    by p.

    A fold moves c*z^e (p | e) to p_root(c)*z^(e/p), a higher order, so
    only p*e folds into e.  One ascending sweep over the orders a fold
    can reach therefore visits each once, after all that lands on it,
    in the min-first order of repeatedly folding the top divisible pole.
    The certificate is then replayed once, exactly: with u = sum r*z^-m
    over the folds' witnesses, f == reduced + (u^p - u) + (the terms of
    f without a pole).  Each order folds once, so the m are distinct;
    were two equal, u would keep only one of them and the identity
    would fail closed.  It sums f's constant, so f needs prec > 0,
    which an exact f (prec = inf) has.  An f over another field context
    is refused.
    """
    same_field(ctx, f.ctx)
    if f.prec <= 0:
        raise ParameterError(
            f"series certified only above z^{f.prec}; cannot reduce")
    original = f.d

    p = ctx.p
    work = {e: c for e, c in original.items() if e < 0}

    folds = set()
    for e in work:
        while e % p == 0:
            folds.add(e)
            e //= p
    witnesses: dict[int, int] = {}
    for e in sorted(folds):
        c = work.pop(e, 0)
        if c:
            r = ctx.p_root(c)
            work[e // p] = ctx.add(work.get(e // p, 0), r)
            witnesses[e // p] = r
    work = {e: c for e, c in work.items() if c}

    u = LaurentPoly(ctx, witnesses)
    tail = {e: c for e, c in original.items() if e >= 0}
    acc = LaurentPoly(ctx, {**work, **tail}) + u.pow_pk(1) - u
    if acc.d != original:
        raise IntegrityError("additive reduction failed its replay check")
    return work


def basis_rows(ctx: FieldCtx, f: LaurentPoly) -> list[dict[int, int]]:
    """The reductions of b*f, b in the F_p-basis of F_q: `line_histogram`'s
    rows for the lines of F_q*f.  Expansion is F_q-linear, so f is
    expanded once; reduction is only F_p-linear, so each b*f is reduced.
    A reduction reads only the poles and z^0, so f is first cut at z^1;
    a prec at or below 0 is kept, and the reduction refuses it."""
    f = TruncatedSeries(same_field(ctx, f.ctx), f.d, min(f.prec, 1))
    return [reduce_mod_wp(ctx, f.scale(b)) for b in prime_basis(ctx)]


def line_histogram(ctx: FieldCtx, reduced_basis: list[dict[int, int]],
                   pivots: dict | None = None) -> dict[int, int]:
    """Conductor histogram {m: lines} over every line of a coefficient space.

    reduced_basis holds the `reduce_mod_wp` reduced principal parts
    of an F_p-basis f_1, ..., f_dim of the space of right-hand sides.  A
    line is a nonzero vector a in F_p^dim up to F_p* scaling.

    Soundness: each reduction replayed its certificate
    f_i = red_i + (u_i^p - u_i) + (terms without a pole).  Since
    u -> u^p - u is additive, u = sum a_i u_i certifies
    sum a_i f_i = sum a_i red_i + (u^p - u) + (terms without a pole).  So
    a line whose top pole order e in sum a_i red_i is prime to p has
    conductor m = e + 1 (Stichtenoth, Prop. 3.7.8), proved from the dim
    replayed basis certificates rather than from sampled lines.

    Counting: write the F_p coordinates (pole order, base-p digit) of
    sum a_i red_i as a linear map of a, with columns in decreasing pole
    order.  One Gaussian elimination in that column order gives the rank
    of each leading block; with k_{>e} and k_{>=e} the kernel dimensions
    of the columns above e and at or above e, the lines whose top pole
    order is e number (p^k_{>e} - p^k_{>=e}) / (p - 1).

    Rows are eliminated one at a time and never change an earlier pivot,
    so `pivots` may carry the echelon an earlier call left (full rank, so
    len(pivots) rows): the new rows extend it in place, each entered
    once, and the histogram covers the old and new rows together.

    Every bar must be a reduced conductor (m >= 2, m - 1 prime to p) and
    the bars must cover all (p^dim - 1)/(p - 1) lines (no line without a
    pole); either failure raises IntegrityError.
    """
    p, n = ctx.p, ctx.n
    # echelon rows keyed by column e*n + j (exponent e, digit j < n), an
    # int the kernel can add; the highest pole order sorts first.  Entries
    # are F_p digits, codes below p, which F_q's arithmetic keeps there.
    pivots = {} if pivots is None else pivots
    dim = len(pivots) + len(reduced_basis)
    for red in reduced_basis:
        row = {e * n + j: d for e, c in red.items()
               for j, d in enumerate(ctx.to_coeffs(c)) if d}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = lp_mul({0: ctx.inv(row[lead])}, row, ctx)
                break
            lp_mul({0: ctx.neg(row[lead])}, piv, ctx, row)
    rank_at: dict[int, int] = {}
    for e in (key // n for key in pivots):
        rank_at[-e] = rank_at.get(-e, 0) + 1
    hist: dict[int, int] = {}
    kernel = dim
    for pole in sorted(rank_at, reverse=True):
        m = pole + 1
        if m < 2 or math.gcd(pole, p) != 1:
            raise IntegrityError(
                f"line conductor {m} is not reduced for p={p}")
        rank = rank_at[pole]
        hist[m] = (p ** kernel - p ** (kernel - rank)) // (p - 1)
        kernel -= rank
    if sum(hist.values()) != (p ** dim - 1) // (p - 1):
        raise IntegrityError(
            f"{p ** kernel - 1} nonzero vectors of the coefficient space "
            "reduce to no pole")
    return hist


def conductor_of_cover(params: Params) -> int:
    """Conductor exponent m at infinity of the first floor's degree-p
    covers u^p - u = c * f1, c in F_q*, over F_q(x), f1 the y1 entry of
    `cover_rhs_polys`: the one bar of `line_histogram` over all
    (q - 1)/(p - 1) lines, expanded at x = 1/z."""
    ctx = params.field()
    hist = line_histogram(ctx, basis_rows(ctx, expand_rational(
        ctx, cover_rhs_polys(params)["y1"])))
    if len(hist) != 1:
        raise IntegrityError(
            f"the lines of cover y1 have conductors {sorted(hist)}, not one")
    return next(iter(hist))
