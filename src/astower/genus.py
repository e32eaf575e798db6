"""Genus bookkeeping for the tower and its elementary abelian covers.

Two classical tools drive everything here.  For a degree-p cyclic cover
ramified above one place with conductor exponent m,

    2g - 2 = p * (2g_base - 2) + (p - 1) * m,

and for the compositum of an elementary abelian cover whose degree-p
pieces E_1, ..., E_r exhaust the dual space of an N-dimensional group,

    g(E) = sum g(E_i) - p * (p^(N-1) - 1) / (p - 1) * g(base).

Every conductor feeding the first formula, the first floor's included,
is read off `local.line_histogram`, which certifies every line of a
coefficient space at once by F_p-linear algebra over the exact pole
reductions; nothing in this module is approximate or sampled, and every
derived count or genus is cross-checked against an independent closed
form where one exists, raising IntegrityError on disagreement.
"""

from math import gcd

from .errors import IntegrityError, ParameterError
from .ff import Params
from .local import (basis_rows, build_uniformizer, conductor_of_cover,
                    cover_rhs_polys, expand_at_infinity, expand_rational,
                    line_histogram)

_CLASS_ORDER = ("y2", "v1", "v2", "w")

# An exact rational as a report prints it: an int, or "num/den" in
# lowest terms with den > 1.
Exact = int | str


def _exact_ratio(num: int, den: int) -> Exact:
    """num/den for den > 0, as `Exact`: integer arithmetic only."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else f"{num}/{den}"


def rh_genus(p: int, base_genus: int, m: int) -> int:
    """Genus of a p-cyclic cover totally ramified at one place.

    m is the conductor exponent there (0 for an unramified cover).  A
    positive m below 2, or a jump m - 1 divisible by p, cannot arise
    from a reduced equation, and a negative or fractional result means
    the inputs were inconsistent; all four cases raise IntegrityError.
    """
    if p < 2 or base_genus < 0 or m < 0:
        raise ParameterError("rh_genus needs p >= 2, base_genus >= 0, m >= 0")
    if m != 0 and (m < 2 or (m - 1) % p == 0):
        raise IntegrityError(f"conductor exponent {m} is not reduced for p={p}")
    twice = p * (2 * base_genus - 2) + (p - 1) * m + 2
    if twice % 2:
        raise IntegrityError("genus came out half-integral")
    g = twice // 2
    if g < 0:
        raise IntegrityError("genus came out negative")
    return g


# ------------------------------------------------------------ counting


def class_line_counts(params: Params) -> dict[str, int]:
    """Lines of the rank-4 dual space, grouped by their top floor.

    A line is a nonzero coefficient vector (c_y2, c_v1, c_v2, c_w) up to
    prime-field scaling; its class is the highest floor with a nonzero
    coefficient.  The counts form a geometric ladder summing to
    (q^4 - 1)/(p - 1).
    """
    p, q = params.p, params.q
    unit = (q - 1) // (p - 1)
    counts = {label: unit * q ** i for i, label in enumerate(_CLASS_ORDER)}
    if sum(counts.values()) != (q ** 4 - 1) // (p - 1):
        raise IntegrityError("class counts fail to cover the dual space")
    return counts


def conductor_ladder(params: Params) -> dict[str, int]:
    """Closed-form conductor of each cover class at the infinite place."""
    p, q0, q = params.p, params.q0, params.q
    return {
        "y2": q + p * q0 + 2,
        "v1": p * q0 * q + p * q0 + 2,
        "v2": p * q0 * q + p * q0 + q + 2,
        "w": p * q0 * q + 2 * q + p * q0 + 2,
    }


def class_conductors(params: Params) -> dict[str, int]:
    """Conductor of every cover class, certified over all of its lines.

    The coefficient space V_{<=i} is spanned by b * part_j for j <= i and
    b in the F_p-basis of F_q, the `basis_rows` of each part's expansion.
    The classes grow one running echelon (see `line_histogram`), so each
    of the 4n rows is eliminated once and hist(V_{<=i}) is read off the
    pivots after class i.  Class i's histogram is
    hist(V_{<=i}) - hist(V_{<i}) and must be the single bar
    {ladder[label]: class_line_counts[label]}.
    """
    ctx = params.field()
    uniformizer = build_uniformizer(params)
    parts = cover_rhs_polys(params)
    ladder = conductor_ladder(params)
    counts = class_line_counts(params)
    pivots: dict = {}
    below: dict[int, int] = {}
    for label in _CLASS_ORDER:
        expansion = expand_at_infinity(uniformizer, parts[label])
        upto = line_histogram(ctx, basis_rows(ctx, expansion), pivots)
        want = dict(below)
        m = ladder[label]
        want[m] = want.get(m, 0) + counts[label]
        if upto != want:
            raise IntegrityError(
                f"class {label}: lines by conductor {upto} up to this class, "
                f"the ladder predicts {want}")
        below = upto
    return {label: ladder[label] for label in _CLASS_ORDER}


def class_conductor(params: Params, label: str) -> int:
    """Conductor of one cover class; see `class_conductors`."""
    if label not in _CLASS_ORDER:
        raise ParameterError(f"unknown cover class {label!r}")
    return class_conductors(params)[label]


def base_floor(params: Params) -> dict:
    """Conductor, line genus, line count and genus of the first floor,
    the degree-q cover cut out by y1, as `conductor`'s `base_floor` prints
    them.

    Its (q - 1)/(p - 1) lines u^p - u = c * f1 all have the conductor
    `conductor_of_cover` certifies, hence one line genus.
    """
    p, q = params.p, params.q
    lines = (q - 1) // (p - 1)
    m = conductor_of_cover(params)
    line_genus = rh_genus(p, 0, m)
    return {"conductor": m, "line_genus": line_genus, "lines": lines,
            "genus": lines * line_genus}


# --------------------------------------------------------- aggregation


def gs_aggregate(p: int, pieces: list[tuple[int, int]], base_genus: int) -> int:
    """Genus of a compositum from the genera of its degree-p pieces.

    pieces is a list of (line_count, line_genus).  The counts must fill
    a full dual space, i.e. sum to (p^N - 1)/(p - 1) for some N >= 1.
    """
    total = sum(count for count, _ in pieces)
    if total <= 0:
        raise ParameterError("gs_aggregate needs at least one piece")
    x = total * (p - 1) + 1
    N = 0
    while p ** N < x:
        N += 1
    if p ** N != x:
        raise IntegrityError(
            f"{total} lines do not exhaust a dual space over F_{p}")
    correction = p * (p ** (N - 1) - 1) // (p - 1) * base_genus
    g = sum(count * genus for count, genus in pieces) - correction
    if g < 0:
        raise IntegrityError("aggregate genus came out negative")
    return g


def cover_classes(params: Params) -> tuple[dict, list[dict]]:
    """The first floor's `base_floor`, and the label, count, conductor and
    line genus of each of the four classes, taken over that floor,
    returned with it so that neither `genus_of_F` nor the conductor report
    certifies it again.
    """
    counts = class_line_counts(params)
    conductors = class_conductors(params)
    base = base_floor(params)
    return base, [{"label": label, "count": counts[label],
                   "conductor": conductors[label],
                   "genus": rh_genus(params.p, base["genus"],
                                     conductors[label])}
                  for label in _CLASS_ORDER]


def genus_of_F(params: Params) -> dict:
    """Genus of the full field under both published readings.

    `genus` subtracts the compositum correction for the rank-4n dual
    space over the first floor; `genus_printed` instead subtracts the
    smaller closed-form term (q-1)/(p-1) * q(q-1)/(2 q0) that the
    summary formula carries.  Both are reported so the two can be
    compared downstream; they never change which side of the big-action
    bound the result lands on for the parameters treated here.
    """
    p, q, q0 = params.p, params.q, params.q0
    base, classes = cover_classes(params)
    pieces = [(c["count"], c["genus"]) for c in classes]
    weighted = sum(count * genus for count, genus in pieces)
    g = gs_aggregate(p, pieces, base["genus"])
    unit = (q - 1) // (p - 1)
    printed_sub = unit * (q // q0) * ((q - 1) // 2)
    return {"base_genus": base["genus"], "classes": classes,
            "weighted_sum": weighted, "gs_subtraction": weighted - g,
            "genus": g, "printed_subtraction": printed_sub,
            "genus_printed": weighted - printed_sub}


# --------------------------------------------------------------- audit


def audit_closed_forms(params: Params) -> list[dict]:
    """Compare pipeline class genera against their closed forms, one row
    per class; a row's closed and difference (closed minus pipeline) are
    `Exact`.

    The y2, v1, v2 forms reproduce the pipeline exactly; the w form
    overshoots by exactly q/2, and the audit records that difference
    rather than hiding it.  The w form is q/(2 q0) times an odd integer
    (2pq + 2p q0 - q0 - q - 1 is odd, and q/q0 = p^(s+1) is odd), so it
    is half-integral for every (p, s) and can never equal an integer
    genus.  Each form is kept as the numerator q*k over den = 2 q0, so
    the comparison is num == genus * den in integers.
    """
    p, q0, q = params.p, params.q0, params.q
    den = 2 * q0
    closed = {
        "y2": q * (q * p + q0 * p - q0 - 1),
        "v1": q * (2 * q * p - q - 1),
        "v2": q * (2 * q * p + q0 * p - q0 - q - 1),
        "w": q * (2 * p * q + 2 * p * q0 - q0 - q - 1),
    }
    rows = []
    for c in cover_classes(params)[1]:
        num, scaled = closed[c["label"]], c["genus"] * den
        rows.append({"label": c["label"], "closed": _exact_ratio(num, den),
                     "pipeline": c["genus"], "match": num == scaled,
                     "difference": _exact_ratio(num - scaled, den)})
    return rows


# ----------------------------------------------- two-floor compositum


def ree_line_groups(params: Params) -> dict[int, int]:
    """Conductor histogram over the lines of the two-floor compositum.

    Specific to p = 3, where the second-floor pole folds down far
    enough that the histogram has exactly two bars, one conductor
    apart: the pure first-floor lines and everything else.  Every one of
    the (q^2 - 1)/(p - 1) lines c1*f1 + c2*f2 over the rational base is
    certified by `line_histogram` from the `basis_rows` of f1 and f2.
    """
    if params.p != 3:
        raise ParameterError("the two-floor filtration break needs p = 3")
    ctx = params.field()
    parts = cover_rhs_polys(params)
    return line_histogram(ctx, [
        row for label in ("y1", "y2")
        for row in basis_rows(ctx, expand_rational(ctx, parts[label]))])


def ree_aggregate(params: Params, groups: dict[int, int]) -> int:
    """Genus of the two-floor compositum whose conductor histogram is
    groups (`ree_line_groups`), checked against its closed form."""
    pieces = [(count, rh_genus(params.p, 0, m))
              for m, count in sorted(groups.items())]
    g = gs_aggregate(params.p, pieces, 0)
    q0, q = params.q0, params.q
    closed = 3 * q0 * (q - 1) * (q + q0 + 1) // 2
    if g != closed:
        raise IntegrityError(
            f"two-floor aggregate {g} disagrees with closed form {closed}")
    return g


# ------------------------------------------------------------- verdict


def verify_big_action(params: Params) -> dict:
    """Check |G| > 2p/(p-1) * g for the full action, under both readings;
    bound and bound_printed are 2p/(p-1) times each genus as `Exact`.

    |G| = q^6 is certified in this run by `tower.certify_group`, imported
    here so that the other class reports never load `tower`.  The
    inequality is decided in integers as |G| * (p-1) > 2p * g.
    """
    from .tower import certify_group, presentation

    rep = genus_of_F(params)
    p = params.p
    order = certify_group(presentation(params))
    g, g_printed = rep["genus"], rep["genus_printed"]
    is_big = order * (p - 1) > 2 * p * g
    is_big_printed = order * (p - 1) > 2 * p * g_printed
    return {"group_order": order, "genus": g, "genus_printed": g_printed,
            "bound": _exact_ratio(2 * p * g, p - 1),
            "bound_printed": _exact_ratio(2 * p * g_printed, p - 1),
            "is_big": is_big, "is_big_printed": is_big_printed,
            "readings_agree": is_big == is_big_printed}
