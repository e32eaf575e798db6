"""The five-step tower as a relation algebra, and its endomorphisms.

Elements live in F_q[x, y1, y2, v1, v2, w] modulo the defining relations
g^q - g = rhs_g, one per generator, with each right-hand side involving
only x and earlier generators.  That triangularity gives a normal form:
monomials whose generator exponents all sit below q, reached by the
memoized rewriting in `TowerPresentation._gen_pow`.  Everything else in
the module (certifying endomorphisms, inverting them, commutators, the
additive-equation solver, prolongations of x-translations) reduces to
exact computations on these normal forms.

Three presentations of the same field are supported.  "unprimed" keeps
the v-relations with generator entries on the right, "primed" replaces
both v right-hand sides and the w right-hand side by expressions in x
and the first generator, and "mixed" uses the primed v's with the
unprimed w.  The shift tables and prolongations below are stated for
the mixed presentation, where their images are smallest.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import Params, prime_basis

Monomial = Tuple[int, int, int, int, int, int]
ONE_MONO: Monomial = (0, 0, 0, 0, 0, 0)

_CANDIDATE_CAP = 4096


class TowerElement:
    """A normal-form element; construct through TowerPresentation."""

    __slots__ = ("pres", "d")

    def __init__(self, pres: "TowerPresentation", normal: Dict[Monomial, int]):
        self.pres = pres
        self.d = normal

    def _check(self, other: "TowerElement") -> None:
        if self.pres is not other.pres:
            raise ParameterError("elements from different presentations")

    def __add__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        ctx = self.pres.ctx
        out = dict(self.d)
        for m, c in other.d.items():
            v = ctx.add(out.get(m, 0), c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return TowerElement(self.pres, out)

    def __neg__(self) -> "TowerElement":
        neg = self.pres.ctx.neg
        return TowerElement(self.pres, {m: neg(c) for m, c in self.d.items()})

    def __sub__(self, other: "TowerElement") -> "TowerElement":
        return self + (-other)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        pres = self.pres
        return TowerElement(pres, pres.normalize(pres._raw_mul(self.d, other.d)))

    def scale(self, c: int) -> "TowerElement":
        if c == 0:
            return TowerElement(self.pres, {})
        mul = self.pres.ctx.mul
        return TowerElement(self.pres, {m: mul(v, c) for m, v in self.d.items()})

    def pow_pk(self, k: int) -> "TowerElement":
        if k == 0:
            return self
        pres = self.pres
        scale = pres.ctx.p ** k
        power = pres.ctx.pow_int
        raw = {tuple(e * scale for e in m): power(c, scale)
               for m, c in self.d.items()}
        return TowerElement(pres, pres.normalize(raw))

    def __pow__(self, e: int) -> "TowerElement":
        if e < 0:
            raise ParameterError("negative powers are not defined here")
        pres = self.pres
        result = pres.const(1)
        k = 0
        p = pres.ctx.p
        while e:
            digit = e % p
            if digit:
                block = self.pow_pk(k)
                for _ in range(digit):
                    result = result * block
            e //= p
            k += 1
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, TowerElement) and self.pres is other.pres
                and self.d == other.d)

    def __bool__(self) -> bool:
        return bool(self.d)

    def __repr__(self):
        return f"TowerElement({self.d!r})"


class TowerPresentation:
    gens = ("y1", "y2", "v1", "v2", "w")

    def __init__(self, params: Params, kind: str):
        if kind not in ("mixed", "unprimed", "primed"):
            raise ParameterError(f"unknown presentation kind {kind!r}")
        self.params = params
        self.kind = kind
        self.ctx = params.field()
        self._gp: Dict[Tuple[int, int], Dict[Monomial, int]] = {}
        self._rhs: Dict[int, Dict[Monomial, int]] = {}
        self.relations: Dict[str, TowerElement] = {}

        ctx = self.ctx
        q0, q = params.q0, params.q
        n1 = ctx.neg(1)
        n2 = ctx.neg(2)

        def xm(e: int) -> Monomial:
            return (e, 0, 0, 0, 0, 0)

        def reg(slot: int, raw: Dict[Monomial, int]) -> None:
            norm = self.normalize(raw)
            self._rhs[slot] = norm
            self.relations[self.gens[slot - 1]] = TowerElement(self, norm)

        reg(1, {xm(q0 + q): 1, xm(q0 + 1): n1})
        reg(2, {xm(2 * q0 + q): 1, xm(2 * q0 + 1): n1})

        if kind == "unprimed":
            # y_i^q * x - x^q * y_i, normalized through the y-relations
            reg(3, {(1, q, 0, 0, 0, 0): 1, (q, 1, 0, 0, 0, 0): n1})
            reg(4, {(1, 0, q, 0, 0, 0): 1, (q, 0, 1, 0, 0, 0): n1})
        else:
            reg(3, {xm(q0 + 2 * q): 1, xm(q0 + 2): n1})
            reg(4, {xm(2 * q0 + 2 * q): 1, xm(2 * q0 + 2): n1})

        if kind == "primed":
            reg(5, {
                (2 * q0 + q, 1, 0, 0, 0, 0): 2,
                (2 * q0 + 1, 1, 0, 0, 0, 0): n2,
                xm(3 * q0 + 2 * q): 1,
                xm(3 * q0 + q + 1): n2,
                xm(3 * q0 + 2): 1,
            })
        else:
            reg(5, {
                (2 * q0 + q, 1, 0, 0, 0, 0): 1,
                (2 * q0 + 1, 1, 0, 0, 0, 0): n1,
                (q0 + q, 0, 1, 0, 0, 0): n1,
                (q0 + 1, 0, 1, 0, 0, 0): 1,
            })

    # ------------------------------------------------------------- algebra

    def _raw_mul(self, a: Dict[Monomial, int], b: Dict[Monomial, int]
                 ) -> Dict[Monomial, int]:
        ctx = self.ctx
        out: Dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2],
                     ma[3] + mb[3], ma[4] + mb[4], ma[5] + mb[5])
                v = ctx.add(out.get(m, 0), ctx.mul(ca, cb))
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def _gen_pow(self, slot: int, e: int) -> Dict[Monomial, int]:
        q = self.params.q
        if e < q:
            m = [0] * 6
            m[slot] = e
            return {tuple(m): 1}
        key = (slot, e)
        cached = self._gp.get(key)
        if cached is not None:
            return cached
        rest = self._gen_pow(slot, e - q)
        unit = [0] * 6
        unit[slot] = 1
        part = self._raw_mul(rest, {tuple(unit): 1})
        ctx = self.ctx
        for m, c in self._raw_mul(rest, self._rhs[slot]).items():
            v = ctx.add(part.get(m, 0), c)
            if v:
                part[m] = v
            else:
                part.pop(m, None)
        out = self.normalize(part)
        self._gp[key] = out
        return out

    def normalize(self, raw: Dict[Monomial, int]) -> Dict[Monomial, int]:
        """Rewrite until every generator exponent is below q.

        Each rewriting step strictly lowers the highest offending
        generator slot or its exponent, so the stack empties.
        """
        q = self.params.q
        ctx = self.ctx
        out: Dict[Monomial, int] = {}
        stack = list(raw.items())
        while stack:
            m, c = stack.pop()
            if not c:
                continue
            bad = [i for i in range(1, 6) if m[i] >= q]
            if not bad:
                v = ctx.add(out.get(m, 0), c)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
                continue
            base = list(m)
            for i in bad:
                base[i] = 0
            cur: Dict[Monomial, int] = {tuple(base): c}
            for i in bad:
                cur = self._raw_mul(cur, self._gen_pow(i, m[i]))
            stack.extend(cur.items())
        return out

    # -------------------------------------------------------- constructors

    def element(self, raw: Dict[Monomial, int]) -> TowerElement:
        return TowerElement(self, self.normalize(raw))

    def zero(self) -> TowerElement:
        return TowerElement(self, {})

    def const(self, c: int) -> TowerElement:
        return TowerElement(self, {ONE_MONO: c} if c else {})

    def x(self, e: int = 1) -> TowerElement:
        return TowerElement(self, {(e, 0, 0, 0, 0, 0): 1})

    def gen(self, name: str) -> TowerElement:
        slot = self.gens.index(name) + 1
        m = [0] * 6
        m[slot] = 1
        return TowerElement(self, {tuple(m): 1})

    def from_xy(self, xy) -> TowerElement:
        """Lift a polynomial in (x, first generator) into the tower."""
        return TowerElement(
            self, {(ex, ey, 0, 0, 0, 0): c for (ex, ey), c in xy.d.items()})

    def __repr__(self):
        return f"TowerPresentation(p={self.params.p}, s={self.params.s}, {self.kind})"


@lru_cache(maxsize=None)
def presentation(params: Params, kind: str = "mixed") -> TowerPresentation:
    return TowerPresentation(params, kind)


# ---------------------------------------------------------------- endos


class Endo:
    """Ring endomorphism fixing F_q, given by images of x and the generators."""

    __slots__ = ("pres", "images", "_pc")

    def __init__(self, pres: TowerPresentation, images: Dict[str, TowerElement]):
        missing = ({"x", *pres.gens}) - set(images)
        if missing:
            raise ParameterError(f"endomorphism lacks images for {sorted(missing)}")
        self.pres = pres
        self.images = images
        self._pc: Dict[Tuple[str, int], TowerElement] = {}

    def _img_pow(self, name: str, e: int) -> TowerElement:
        key = (name, e)
        out = self._pc.get(key)
        if out is None:
            out = self.images[name] ** e
            self._pc[key] = out
        return out

    def apply(self, elem: TowerElement) -> TowerElement:
        pres = self.pres
        acc = pres.zero()
        for m, c in elem.d.items():
            term = pres.const(c)
            if m[0]:
                term = term * self._img_pow("x", m[0])
            for i, name in enumerate(pres.gens):
                if m[i + 1]:
                    term = term * self._img_pow(name, m[i + 1])
            acc = acc + term
        return acc

    def replace(self, **kwargs: TowerElement) -> "Endo":
        images = dict(self.images)
        for name, elem in kwargs.items():
            if name not in images:
                raise ParameterError(f"no generator named {name!r}")
            images[name] = elem
        return Endo(self.pres, images)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Endo) and self.pres is other.pres
                and all(self.images[k] == other.images[k]
                        for k in ("x", *self.pres.gens)))

    def __repr__(self):
        moved = [k for k in ("x", *self.pres.gens)
                 if self.images[k].d != identity_endo(self.pres).images[k].d]
        return f"Endo(moves {moved or 'nothing'})"


def identity_endo(pres: TowerPresentation) -> Endo:
    images = {"x": pres.x()}
    for name in pres.gens:
        images[name] = pres.gen(name)
    return Endo(pres, images)


def compose_endo(a: Endo, b: Endo) -> Endo:
    """(a o b): apply b first, then a."""
    if a.pres is not b.pres:
        raise ParameterError("endomorphisms from different presentations")
    return Endo(a.pres, {k: a.apply(v) for k, v in b.images.items()})


def invert_endo(a: Endo) -> Endo:
    """Invert a unipotent-triangular endomorphism by back-substitution.

    Requires x -> x + const and each generator image of the form
    generator + (terms in x and earlier generators); anything else is
    outside what back-substitution can see, hence UnsupportedError.
    """
    pres = a.pres
    xdiff = a.images["x"] - pres.x()
    if any(m != ONE_MONO for m in xdiff.d):
        raise UnsupportedError("x-image is not a translation")
    shift = xdiff.d.get(ONE_MONO, 0)
    inv_images = {"x": pres.x() - pres.const(shift)}

    def subst(elem: TowerElement) -> TowerElement:
        acc = pres.zero()
        for m, c in elem.d.items():
            term = pres.const(c)
            if m[0]:
                term = term * (inv_images["x"] ** m[0])
            for i, name in enumerate(pres.gens):
                if m[i + 1]:
                    term = term * (inv_images[name] ** m[i + 1])
            acc = acc + term
        return acc

    for idx, name in enumerate(pres.gens):
        t = a.images[name] - pres.gen(name)
        for m in t.d:
            if any(m[j] for j in range(idx + 1, 6)):
                raise UnsupportedError(
                    f"image of {name} is not triangular-unipotent")
        inv_images[name] = pres.gen(name) - subst(t)
    return Endo(pres, inv_images)


def commutator(a: Endo, b: Endo) -> Endo:
    return compose_endo(compose_endo(a, b),
                        compose_endo(invert_endo(a), invert_endo(b)))


@dataclass
class CheckResult:
    ok: bool
    defects: Dict[str, TowerElement]


def check_endo(pres: TowerPresentation, endo: Endo) -> CheckResult:
    """Certify that the images satisfy every defining relation exactly."""
    defects = {}
    n = pres.params.n
    for name in pres.gens:
        img = endo.images[name]
        lhs = img.pow_pk(n) - img
        rhs = endo.apply(pres.relations[name])
        defect = lhs - rhs
        if defect.d:
            defects[name] = defect
    return CheckResult(ok=not defects, defects=defects)


# ---------------------------------------------------------- shift tables


def _require_mixed(pres: TowerPresentation) -> None:
    if pres.kind != "mixed":
        raise ParameterError(
            "shift tables are stated for the mixed presentation only")


def sigma_shift(pres: TowerPresentation, g: int) -> Endo:
    """Shift the first generator by g; v1 and w move along."""
    _require_mixed(pres)
    c = pres.const(g)
    return identity_endo(pres).replace(
        y1=pres.gen("y1") + c,
        v1=pres.gen("v1") + c,
        w=pres.gen("w") + pres.gen("y2").scale(g),
    )


def tau_shift(pres: TowerPresentation, g: int) -> Endo:
    """Shift the second generator by g; v1 and w move along."""
    _require_mixed(pres)
    c = pres.const(g)
    return identity_endo(pres).replace(
        y2=pres.gen("y2") + c,
        v1=pres.gen("v1") + c,
        w=pres.gen("w") - pres.gen("y1").scale(g),
    )


def vertical_shift_families(pres: TowerPresentation
                            ) -> Dict[str, Callable[[int], Endo]]:
    """Five one-parameter families of endomorphisms fixing x."""
    _require_mixed(pres)

    def simple(name: str) -> Callable[[int], Endo]:
        def fam(g: int) -> Endo:
            return identity_endo(pres).replace(
                **{name: pres.gen(name) + pres.const(g)})
        return fam

    return {
        "y1": lambda g: sigma_shift(pres, g),
        "y2": lambda g: tau_shift(pres, g),
        "v1": simple("v1"),
        "v2": simple("v2"),
        "w": simple("w"),
    }


def extension_multiplicity(pres: TowerPresentation) -> int:
    """Number of endomorphisms above a fixed x-translation.

    The five certified shift families fix x, move independent
    generators, and are additive in their parameter, so they generate a
    group of order q^5 acting simply transitively on the extensions.
    """
    basis = prime_basis(pres.ctx)
    for name, fam in vertical_shift_families(pres).items():
        for g in basis:
            if not check_endo(pres, fam(g)).ok:
                raise IntegrityError(f"vertical family {name} failed at {g}")
    return pres.params.q ** len(pres.gens)


# --------------------------------------------------------------- solver


def _solve_affine(ctx, forms: List[Dict[Optional[int], int]], nvars: int
                  ) -> Optional[List[int]]:
    """Solve const + sum c_k * alpha_k = 0 rows over F_q; free vars -> 0."""
    pivots: Dict[int, Dict[Optional[int], int]] = {}
    for f in forms:
        row = dict(f)
        while True:
            hit = next((k for k in row if k is not None and k in pivots), None)
            if hit is None:
                break
            coef = row.pop(hit)
            for kk, cc in pivots[hit].items():
                if kk == hit:
                    continue
                v = ctx.sub(row.get(kk, 0), ctx.mul(coef, cc))
                if v:
                    row[kk] = v
                else:
                    row.pop(kk, None)
        free = [k for k in row if k is not None]
        if not free:
            if row.get(None, 0):
                return None
            continue
        k0 = free[0]
        inv = ctx.inv(row.pop(k0))
        prow: Dict[Optional[int], int] = {kk: ctx.mul(cc, inv)
                                          for kk, cc in row.items()}
        prow[k0] = 1
        for pr in pivots.values():
            if k0 in pr:
                coef = pr.pop(k0)
                for kk, cc in prow.items():
                    if kk == k0:
                        continue
                    v = ctx.sub(pr.get(kk, 0), ctx.mul(coef, cc))
                    if v:
                        pr[kk] = v
                    else:
                        pr.pop(kk, None)
        pivots[k0] = prow
    sol = [0] * nvars
    for k, pr in pivots.items():
        sol[k] = ctx.neg(pr.get(None, 0))
    return sol


def wp_solve(pres: TowerPresentation, target: TowerElement,
             bound: Optional[Sequence[int]] = None
             ) -> Optional[TowerElement]:
    """Solve u^q - u = target in the tower.

    The map is F_q-linear, so the solver peels monomial blocks greedily
    from the top of the generator order, forcing a witness term whenever
    the leading x-exponent is a multiple of q, and collects everything
    else into a small affine system over the pure-generator unknowns.
    The returned witness has no constant term, which pins it down
    uniquely; it is replayed against the target before being returned.

    The search box on generator degrees defaults to the target's
    multidegree plus one on every generator but the last (wide enough
    for every witness the construction needs); `bound` raises the box
    componentwise.  None means no witness has generator support inside
    the box, nothing more: u^q - u drops any pure-generator term whose
    coefficient lies in F_q, so a witness can sit strictly above the
    degrees visible in the target.
    """
    ctx = pres.ctx
    q, n = pres.params.q, pres.params.n
    td = dict(target.d)
    if not td:
        return pres.zero()

    bounds = [0] * 5
    for m in td:
        for i in range(5):
            if m[i + 1] > bounds[i]:
                bounds[i] = m[i + 1]
    for i in range(4):
        bounds[i] += 1
    if bound is not None:
        if len(bound) != 5 or any(b < 0 for b in bound):
            raise ParameterError(
                "bound must give a nonnegative degree for all 5 generators")
        bounds = [max(a, b) for a, b in zip(bounds, bound)]
    total = 1
    for b in bounds:
        total *= b + 1
    if total > _CANDIDATE_CAP:
        raise UnsupportedError(
            f"{total} candidate monomials exceed the solver cap")
    combos = [c for c in product(*(range(b + 1) for b in bounds)) if any(c)]

    # residual coefficients as affine forms {None: const, k: alpha_k coeff}
    r: Dict[Monomial, Dict[Optional[int], int]] = {}
    heap: List[Tuple[int, ...]] = []

    def addinto(m: Monomial, key: Optional[int], c: int) -> None:
        if not c:
            return
        form = r.get(m)
        if form is None:
            form = r[m] = {}
            # descending block order: witness leakage lands strictly
            # lower, so a popped position never reappears
            heapq.heappush(
                heap, (-m[5], -m[4], -m[3], -m[2], -m[1], -m[0]) + m)
        v = ctx.add(form.get(key, 0), c)
        if v:
            form[key] = v
        else:
            form.pop(key, None)
            if not form:
                r.pop(m)

    for m, c in td.items():
        addinto(m, None, c)
    for k, gens in enumerate(combos):
        mono = (0,) + gens
        el = TowerElement(pres, {mono: 1})
        delta = el.pow_pk(n) - el
        for m, c in delta.d.items():
            addinto(m, k, ctx.neg(c))

    greedy: List[Tuple[Monomial, Dict[Optional[int], int]]] = []
    constraints: List[Dict[Optional[int], int]] = []
    while heap:
        m = heapq.heappop(heap)[6:]
        if m not in r:
            continue
        form = dict(r[m])
        e0, gens = m[0], m[1:]
        if e0 >= q and e0 % q == 0:
            wit = (e0 // q,) + gens
            greedy.append((wit, form))
            el = TowerElement(pres, {wit: 1})
            peeled = el.pow_pk(n) - el
            for m2, c2 in peeled.d.items():
                for key, fc in form.items():
                    addinto(m2, key, ctx.neg(ctx.mul(fc, c2)))
        else:
            constraints.append(form)
            r.pop(m)

    sol = _solve_affine(ctx, constraints, len(combos))
    if sol is None:
        return None

    def evaluate(form: Dict[Optional[int], int]) -> int:
        acc = form.get(None, 0)
        for key, c in form.items():
            if key is not None:
                acc = ctx.add(acc, ctx.mul(c, sol[key]))
        return acc

    out: Dict[Monomial, int] = {}

    def accumulate(m: Monomial, c: int) -> None:
        if not c:
            return
        v = ctx.add(out.get(m, 0), c)
        if v:
            out[m] = v
        else:
            out.pop(m, None)

    for wit, form in greedy:
        accumulate(wit, evaluate(form))
    for k, gens in enumerate(combos):
        accumulate((0,) + gens, sol[k])

    u = pres.element(out)
    if (u.pow_pk(n) - u).d != td:
        raise IntegrityError("additive solver witness failed its replay check")
    return u


def presentation_equiv(params: Params) -> Dict[str, TowerElement]:
    """Witnesses translating between the three presentations.

    For each v-generator the returned element u satisfies
    primed = unprimed + u, and for w it satisfies
    primed = mixed + u; existence is established constructively via
    `wp_solve` on the difference of the defining right-hand sides.
    """
    mixed = presentation(params, "mixed")
    unp = presentation(params, "unprimed")
    prm = presentation(params, "primed")
    out = {}
    for name in ("v1", "v2"):
        target = mixed.relations[name] - mixed.element(unp.relations[name].d)
        out[name] = wp_solve(mixed, target)
    target_w = mixed.element(prm.relations["w"].d) - mixed.relations["w"]
    out["w"] = wp_solve(mixed, target_w)
    if any(v is None for v in out.values()):
        raise IntegrityError("presentations failed to link additively")
    return out


# ---------------------------------------------------------- prolongation


def prolong_translation(pres: TowerPresentation, a: int) -> Endo:
    """Extend x -> x + a to the whole tower.

    The generator corrections are the canonical additive witnesses for
    the change each right-hand side undergoes under the translation;
    with A = a^q0 the w-correction is A*(v2 - x*y2) + A^2*(v1 - x*y1).
    """
    _require_mixed(pres)
    ctx = pres.ctx
    q0 = pres.params.q0
    A = ctx.pow_int(a, q0) if a else 0
    A2 = ctx.mul(A, A)
    aA = ctx.mul(a, A)
    aA2 = ctx.mul(a, A2)
    two = 2 % ctx.p
    four = 4 % ctx.p

    x, x2 = pres.x(), pres.x(2)
    y1, y2 = pres.gen("y1"), pres.gen("y2")
    v1, v2, w = pres.gen("v1"), pres.gen("v2"), pres.gen("w")
    mul = ctx.mul
    return identity_endo(pres).replace(
        x=x + pres.const(a),
        y1=y1 + x.scale(A),
        y2=y2 + y1.scale(mul(two, A)) + x.scale(A2),
        v1=v1 + x2.scale(A) + y1.scale(mul(two, a)) + x.scale(mul(two, aA)),
        v2=(v2 + v1.scale(mul(two, A)) + x2.scale(A2) + y2.scale(mul(two, a))
            + y1.scale(mul(four, aA)) + x.scale(mul(two, aA2))),
        w=w + (v2 - x * y2).scale(A) + (v1 - x * y1).scale(A2),
    )
