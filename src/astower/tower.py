"""The five-step tower as a relation algebra, and its endomorphisms.

Elements live in F_q[x, y1, y2, v1, v2, w] modulo the defining relations
g^q - g = rhs_g, one per generator, with each right-hand side involving
only x and earlier generators.  That triangularity gives a normal form:
monomials whose generator exponents all sit below q, reached by the
memoized rewriting in `TowerPresentation._gen_pow`.  The right-hand
sides are read from `ff.tower_rhs`, the one table of the tower's
equations, which `local` reads too.  Everything else in the module
(certifying endomorphisms, inverting them, commutators, the
additive-equation solver, prolongations of x-translations) reduces to
exact computations on these normal forms.

Every automorphism a report relies on passes `certify_automorphism`; the
finite-extension lemma stated there proves it one without inverting it.
A product or normal form above MAX_TERMS terms is refused (`_budget`).

A monomial x^e0 y1^e1 y2^e2 v1^e3 v2^e4 w^e5 is one Python int,
e0 << 5W | e1 << 4W | ... | e5 with W bits per generator and x in the
unbounded top bits: a product of monomials is one int addition, a p^k-th
power one int product, so every sum and product runs on `ff`'s kernel,
which the Laurent series use too.  Each presentation sets its own
W = 2 * q.bit_length() + 2 and keeps the layout that follows from it.
A monomial is normal iff (m + bias) & high == 0, with 2^(W-1) - q in
each field of bias and the top bit of each field in high.  No field
carries while it stays below 2^(W-1): products of normal monomials stay
below 2q, p^k-th powers (k <= n) below q^2, and q < 2^(W/2 - 1) gives
2q^2 < 2^(W-1) for every q.
`TowerElement.d` and `TowerPresentation.element` keep a 6-tuple view.

An `Endo` is given by the variables it moves: `Endo(pres, images)` fixes
every variable that `images` leaves out.  It is fixed when it is built:
`images` is a read-only mapping of all six variables and `moved` the
frozenset of variables whose image is not the variable itself.  `apply`
substitutes only the moved variables and hands an element back
unchanged when it holds none, and `check_endo` skips a fixed generator
whose relation is fixed too.

The paper writes the tower in three equivalent ways.  This module builds
the one in which the shift tables and prolongations have their smallest
images: v_i^q - v_i = x^(i q0) (x^(2q) - x^2) over x alone, and w over
x, y1 and y2.  The other two differ from it only in the right-hand sides
of v1, v2 or w; `presentation_equiv` writes those right-hand sides as
elements of this presentation and replays the additive witness that
links each to this one's.
"""

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import Params, lp_map_pow, lp_mul, power, prime_basis, tower_rhs

Monomial = tuple[int, int, int, int, int, int]
Terms = dict[int, int]

GENS = ("y1", "y2", "v1", "v2", "w")
_NAMES = frozenset(("x", *GENS))
_ONE: Terms = {0: 1}  # the constant 1; packed monomial 0 is x^0 ... w^0

_CANDIDATE_CAP = 4096
# Term budget: the most terms a product or normal form may hold.  No
# report's normal form holds more than 14, so this stops only a runaway
# power, such as a p^n-th power of a monomial with every exponent near q.
MAX_TERMS = 1 << 16
_CONST = -1  # key of the constant in wp_solve's affine forms


class TowerElement:
    """A normal-form element; construct through TowerPresentation.

    `terms` maps packed monomials to nonzero codes and is never mutated.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres: "TowerPresentation", terms: Terms):
        self.pres = pres
        self.terms = terms

    @property
    def d(self) -> dict[Monomial, int]:
        """The terms as {(x, y1, y2, v1, v2, w) exponents: code}."""
        layout = self.pres._layout
        return {tuple(m >> shift & mask for _, shift, mask in layout): c
                for m, c in self.terms.items()}

    def _check(self, other: "TowerElement") -> None:
        if self.pres is not other.pres:
            raise ParameterError("elements from different presentations")

    def _plus(self, other: "TowerElement", c: int) -> "TowerElement":
        self._check(other)
        return TowerElement(self.pres, lp_mul(
            {0: c}, other.terms, self.pres.ctx, dict(self.terms)))

    def __add__(self, other: "TowerElement") -> "TowerElement":
        return self._plus(other, 1)

    def __sub__(self, other: "TowerElement") -> "TowerElement":
        return self._plus(other, self.pres.ctx.neg(1))

    def __neg__(self) -> "TowerElement":
        return self.scale(self.pres.ctx.neg(1))

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        pres = self.pres
        return TowerElement(pres, pres.normalize(
            pres._mul(self.terms, other.terms)))

    def scale(self, c: int) -> "TowerElement":
        self.pres.ctx.check(c)
        return TowerElement(self.pres,
                            lp_mul({0: c}, self.terms, self.pres.ctx))

    def pow_pk(self, k: int) -> "TowerElement":
        """The p^k-th power, taken n steps at a time so fields stay < q^2."""
        pres = self.pres
        step = min(k, pres.params.n)
        if not step:
            return self
        out = TowerElement(pres, pres.normalize(lp_map_pow(
            self.terms, step, pres.ctx)))
        return out if k == step else out.pow_pk(k - step)

    def __pow__(self, e: int) -> "TowerElement":
        return power(self, e, self.pres.const(1), self.pres.ctx.p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TowerElement) and self.pres is other.pres
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        return f"TowerElement({self.d!r})"


class TowerPresentation:
    gens = GENS

    def __init__(self, params: Params):
        q = params.q
        self.params = params
        self.ctx = params.field()  # refused above the field budget
        # W bits per generator exponent; q < 2^(W/2 - 1), so 2q^2 < 2^(W-1)
        self.width = width = 2 * q.bit_length() + 2
        self._limit = limit = 1 << (width - 1)
        # (name, bit offset, exponent mask) of x, y1, ..., w: a generator's
        # slot is its index, and x's mask keeps its unbounded top bits
        self._layout = (("x", len(GENS) * width, -1),
                        *((name, (len(GENS) - slot) * width, (1 << width) - 1)
                          for slot, name in enumerate(GENS, 1)))
        ones = sum(1 << shift for _, shift, _ in self._layout[1:])
        self._high, self._bias = limit * ones, (limit - q) * ones
        self._gp: dict[tuple[int, int], Terms] = {}
        self._qpow: dict[int, Terms] = {}
        self.relations: dict[str, TowerElement] = {}
        # one element per variable, handed out by x(), gen() and Endo
        self._vars = {name: TowerElement(self, {1 << shift: 1})
                      for name, shift, _ in self._layout}

        rhs = tower_rhs(params)
        for slot, name in enumerate(GENS, 1):
            rel = self.element({(*m, 0, 0, 0): c
                                for m, c in rhs[name].items()})
            self.relations[name] = rel
            # g^q = g + rhs, the step `_gen_pow` climbs by
            self._qpow[slot] = (self.gen(name) + rel).terms

    # ------------------------------------------------------------- algebra

    def _gen_pow(self, slot: int, e: int) -> Terms:
        """Normal form of generator `slot` to the power e, memoized; climbs
        from the nearest memoized exponent by g^(k+q) = g^k * (g + rhs)."""
        q = self.params.q
        if e < q:
            return {e << self._layout[slot][1]: 1}
        gp = self._gp
        out = gp.get((slot, e))
        if out is None:
            k = e - q
            while k >= q and (slot, k) not in gp:
                k -= q
            out = self._gen_pow(slot, k)
            step = self._qpow[slot]
            while k < e:
                k += q
                out = self.normalize(self._mul(out, step))
                gp[(slot, k)] = out
        return out

    def _mul(self, a: Terms, b: Terms) -> Terms:
        """a * b, not yet normal; see `_budget`."""
        _budget(len(a) * len(b))
        return lp_mul(a, b, self.ctx)

    def normalize(self, raw: Terms) -> Terms:
        """Rewrite packed terms until every generator exponent is below q.

        Input that is already normal comes back unchanged.  Each round
        replaces every g^e with e >= q by the memoized normal form of
        g^e; each such step strictly lowers the highest offending
        generator slot or its exponent, so the rounds end.  A result
        that would pass the term budget is refused (`_budget`), and so
        is a code outside range(q).
        """
        self.ctx.check(*raw.values())
        high, bias = self._high, self._bias
        bad = [m for m in raw if (m + bias) & high]
        if not bad:
            return raw
        out = dict(raw)
        gens, limit = self._layout[1:], self._limit
        while bad:
            rewritten: Terms = {}
            for m in bad:
                c = out.pop(m)
                over = (m + bias) & high
                factor = None
                for slot, (_, shift, mask) in enumerate(gens, 1):
                    if over >> shift & limit:
                        e = m >> shift & mask
                        m -= e << shift
                        g = self._gen_pow(slot, e)
                        factor = g if factor is None else self._mul(
                            factor, g)
                lp_mul({m: c}, factor, self.ctx, out=rewritten)
                _budget(len(out) + len(rewritten))
            # out holds only normal monomials now, so no bad one merges
            bad = [m for m in rewritten if (m + bias) & high]
            lp_mul(rewritten, _ONE, self.ctx, out=out)
        return out

    # -------------------------------------------------------- constructors

    def element(self, raw: dict[Monomial, int]) -> TowerElement:
        """Normal form of {(x, y1, y2, v1, v2, w) exponents: code}."""
        packed: Terms = {}
        layout, limit = self._layout, self._limit
        for m, c in raw.items():
            if (len(m) != 6 or m[0] < 0
                    or not all(0 <= e < limit for e in m[1:])):
                raise ParameterError(
                    f"monomial {m!r} needs six exponents, x's nonnegative "
                    f"and the generator ones in [0, 2^{self.width - 1}): "
                    f"W = {self.width} bits per field at q = {self.params.q}")
            if c:
                packed[sum(e << s for e, (_, s, _) in zip(m, layout))] = c
        return TowerElement(self, self.normalize(packed))

    def const(self, c: int) -> TowerElement:
        self.ctx.check(c)
        return TowerElement(self, {0: c} if c else {})

    def x(self, e: int = 1) -> TowerElement:
        if e == 1:
            return self._vars["x"]
        if e < 0:  # the powers Endo.apply takes are of nonnegative exponents
            raise ParameterError(f"x^{e}: negative exponents are not defined")
        return TowerElement(self, {e << self._layout[0][1]: 1})

    def gen(self, name: str) -> TowerElement:
        if name not in self.gens:
            raise ParameterError(f"no generator named {name!r}")
        return self._vars[name]

    def __repr__(self):
        return f"TowerPresentation(p={self.params.p}, s={self.params.s})"


def _budget(terms: int) -> None:
    """Refuse a product that may hold more than MAX_TERMS terms before it
    is formed, and a normal form as it passes MAX_TERMS."""
    if terms > MAX_TERMS:
        raise UnsupportedError(
            f"{terms} terms exceed the tower's term budget of {MAX_TERMS}")


@lru_cache(maxsize=None)
def presentation(params: Params) -> TowerPresentation:
    return TowerPresentation(params)


# ---------------------------------------------------------------- endos


class Endo:
    """Ring endomorphism fixing F_q, given by the images of the variables
    it moves; every variable missing from `images` is fixed."""

    __slots__ = ("pres", "images", "moved")

    def __init__(self, pres: TowerPresentation, images: dict[str, TowerElement]):
        unknown = images.keys() - _NAMES
        if unknown:
            raise ParameterError(f"no generator named {min(unknown)!r}")
        if any(img.pres is not pres for img in images.values()):
            raise ParameterError("elements from different presentations")
        self.pres = pres
        self.images = MappingProxyType({**pres._vars, **images})
        self.moved = frozenset(name for name, img in images.items()
                               if img.terms != pres._vars[name].terms)

    def apply(self, elem: TowerElement) -> TowerElement:
        """The image of elem; elem itself when every variable in it is fixed.

        Only the moved variables are substituted: the fixed ones stay in
        each monomial, which multiplies the product of the moved powers.
        """
        pres = self.pres
        if elem.pres is not pres:
            raise ParameterError("elements from different presentations")
        support = 0
        for m in elem.terms:
            support |= m
        moved = [(self.images[name], shift, mask)
                 for name, shift, mask in pres._layout
                 if support >> shift & mask and name in self.moved]
        if not moved:
            return elem
        acc: Terms = {}
        for m, c in elem.terms.items():
            term = None
            for img, shift, mask in moved:
                e = m >> shift & mask
                if e:
                    m -= e << shift
                    f = img.terms if e == 1 else (img ** e).terms
                    term = f if term is None else pres.normalize(
                        pres._mul(term, f))
            if term is not None and m:
                term = pres.normalize(lp_mul(term, {m: 1}, pres.ctx))
                m = 0
            lp_mul(_ONE if term is None else term, {m: c}, pres.ctx,
                   out=acc)
        return TowerElement(pres, acc)

    def replace(self, **kwargs: TowerElement) -> "Endo":
        return Endo(self.pres, {**self.images, **kwargs})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Endo) and self.pres is other.pres
                and all(self.images[k] == other.images[k]
                        for k in ("x", *self.pres.gens)))

    def __repr__(self):
        moved = [k for k in ("x", *self.pres.gens) if k in self.moved]
        return f"Endo(moves {moved or 'nothing'})"


def compose_endo(a: Endo, b: Endo) -> Endo:
    """(a o b): apply b first, then a."""
    if a.pres is not b.pres:
        raise ParameterError("endomorphisms from different presentations")
    return Endo(a.pres, {k: a.apply(v) if k in b.moved else a.images[k]
                         for k, v in b.images.items()})


def invert_endo(a: Endo) -> Endo:
    """Invert a unipotent-triangular endomorphism by back-substitution.

    Requires x -> x + const and each generator image of the form
    generator + (terms in x and earlier generators); anything else is
    outside what back-substitution can see, hence UnsupportedError.
    `inv` gains one inverted image per step, and each correction term
    only reads images already final in `inv`.
    """
    pres = a.pres
    xdiff = a.images["x"] - pres.x()
    if xdiff.terms.keys() - {0}:
        raise UnsupportedError("x-image is not a translation")
    inv = Endo(pres, {"x": pres.x() - pres.const(xdiff.terms.get(0, 0))})
    for name, shift, _ in pres._layout[1:]:
        t = a.images[name] - pres.gen(name)
        # this generator and everything after it sit below this bit
        later = (1 << (shift + pres.width)) - 1
        if any(m & later for m in t.terms):
            raise UnsupportedError(
                f"image of {name} is not triangular-unipotent")
        inv = inv.replace(**{name: pres.gen(name) - inv.apply(t)})
    return inv


def commutator(a: Endo, b: Endo) -> Endo:
    return compose_endo(compose_endo(a, b),
                        compose_endo(invert_endo(a), invert_endo(b)))


def check_endo(endo: Endo) -> dict[str, TowerElement]:
    """The defect img^q - img - E(rhs_g) of each generator g whose image
    fails its relation, by name; empty when every relation holds exactly.

    A generator g that E fixes, whose relation's variables E all fixes
    (apply then hands back the relation itself), has defect
    g^q - g - rhs_g = 0 by the relation, so it is skipped.
    """
    pres = endo.pres
    defects = {}
    n = pres.params.n
    for name in pres.gens:
        rel = pres.relations[name]
        rhs = endo.apply(rel)
        if rhs is rel and name not in endo.moved:
            continue
        img = endo.images[name]
        lhs = img.pow_pk(n) - img
        defect = lhs - rhs
        if defect:
            defects[name] = defect
    return defects


def certify_automorphism(endo: Endo, a: int, label: str) -> Endo:
    """Return endo once its x image is x + a and it passes `check_endo`,
    else raise IntegrityError naming label.  That proves an automorphism
    by the finite-extension lemma: an F_q-endomorphism of the function
    field F that maps F_q(x) onto itself is an automorphism, since F is
    finite over F_q(x) and its image is a subfield of the same degree."""
    pres = endo.pres
    if endo.images["x"] != pres.x() + pres.const(a):
        raise IntegrityError(f"{label} does not restrict to x -> x + {a}")
    if check_endo(endo):
        raise IntegrityError(f"{label} fails the relation check")
    return endo


# ---------------------------------------------------------- shift tables


def sigma_shift(pres: TowerPresentation, g: int) -> Endo:
    """Shift the first generator by g; v1 and w move along."""
    c = pres.const(g)
    return Endo(pres, {"y1": pres.gen("y1") + c, "v1": pres.gen("v1") + c,
                       "w": pres.gen("w") + pres.gen("y2").scale(g)})


def tau_shift(pres: TowerPresentation, g: int) -> Endo:
    """Shift the second generator by g; v1 and w move along."""
    c = pres.const(g)
    return Endo(pres, {"y2": pres.gen("y2") + c, "v1": pres.gen("v1") + c,
                       "w": pres.gen("w") - pres.gen("y1").scale(g)})


def vertical_shift_families(pres: TowerPresentation
                            ) -> dict[str, Callable[[int], Endo]]:
    """Five one-parameter families of endomorphisms fixing x."""

    def simple(name: str) -> Callable[[int], Endo]:
        return lambda g: Endo(pres, {name: pres.gen(name) + pres.const(g)})

    return {"y1": lambda g: sigma_shift(pres, g),
            "y2": lambda g: tau_shift(pres, g),
            **{name: simple(name) for name in ("v1", "v2", "w")}}


def extension_multiplicity(pres: TowerPresentation) -> int:
    """Certify the five vertical families at each basis element and return
    q^5, the lifts of each x-translation (see `certify_group`)."""
    basis = prime_basis(pres.ctx)
    for name, fam in vertical_shift_families(pres).items():
        for g in basis:
            certify_automorphism(fam(g), 0, f"vertical family {name} at {g}")
    return pres.params.q ** len(pres.gens)


def certify_group(pres: TowerPresentation) -> int:
    """Certify and return |G| = q^6, G the x-translations extended by the
    vertical shifts.  Composites of the n certified basis lifts reach every
    a = sum d_i b_i.  The five additive families of `extension_multiplicity`
    give q^5 distinct automorphisms fixing x, and the degree q^5 of F over
    F_q(x) caps those at q^5, so each translation has q^5 lifts."""
    for i, b in enumerate(prime_basis(pres.ctx)):
        certify_automorphism(prolong_translation(pres, b), b, f"lift of b{i}")
    return pres.params.q * extension_multiplicity(pres)


# --------------------------------------------------------------- solver


def _solve_affine(ctx, forms: list[dict[int, int]], nvars: int
                  ) -> list[int] | None:
    """Solve const + sum c_k * alpha_k = 0 rows over F_q; free vars -> 0.

    A row is {_CONST: const, k: c_k}; the kernel's in-place lp_mul by a
    scalar {0: c} adds c times one row into another.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in forms:
        row = dict(row)
        while True:
            hit = next((k for k in row if k in pivots), None)
            if hit is None:
                break
            lp_mul({0: ctx.neg(row[hit])}, pivots[hit], ctx, out=row)
        free = [k for k in row if k != _CONST]
        if not free:
            if row.get(_CONST, 0):
                return None
            continue
        k0 = free[0]
        prow = lp_mul({0: ctx.inv(row[k0])}, row, ctx)
        for pr in pivots.values():
            if k0 in pr:
                lp_mul({0: ctx.neg(pr[k0])}, prow, ctx, out=pr)
        pivots[k0] = prow
    sol = [0] * nvars
    for k, pr in pivots.items():
        sol[k] = ctx.neg(pr.get(_CONST, 0))
    return sol


def wp_solve(pres: TowerPresentation, target: TowerElement,
             bound: Sequence[int] | None = None
             ) -> TowerElement | None:
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
    import heapq  # no report solves, so only the solver loads heapq

    ctx = pres.ctx
    q, n = pres.params.q, pres.params.n
    td = dict(target.d)
    if not td:
        return pres.const(0)

    bounds = [max(m[i] for m in td) + (i < 5) for i in range(1, 6)]
    if bound is not None:
        if len(bound) != 5 or any(b < 0 for b in bound):
            raise ParameterError(
                "bound must give a nonnegative degree for all 5 generators")
        bounds = [max(a, b) for a, b in zip(bounds, bound)]
    total = prod(b + 1 for b in bounds)
    if total > _CANDIDATE_CAP:
        raise UnsupportedError(
            f"{total} candidate monomials exceed the solver cap")
    combos = [c for c in product(*(range(b + 1) for b in bounds)) if any(c)]

    # residual coefficients as affine forms {_CONST: const, k: alpha_k coeff}
    r: dict[Monomial, dict[int, int]] = {}
    heap: list[tuple[int, ...]] = []

    def form_at(m: Monomial) -> dict[int, int]:
        form = r.get(m)
        if form is None:
            # descending block order: witness leakage lands strictly
            # lower, so a popped position never reappears
            heapq.heappush(
                heap, (-m[5], -m[4], -m[3], -m[2], -m[1], -m[0]) + m)
            form = r[m] = {}
        return form

    for m, c in td.items():
        form_at(m)[_CONST] = c
    for k, gens in enumerate(combos):
        el = pres.element({(0,) + gens: 1})
        # each (monomial, key) pair is set once here, so nothing adds up
        for m, c in (el - el.pow_pk(n)).d.items():
            form_at(m)[k] = c

    greedy: list[tuple[Monomial, dict[int, int]]] = []
    constraints: list[dict[int, int]] = []
    while heap:
        m = heapq.heappop(heap)[6:]
        if m not in r:
            continue
        form = dict(r[m])
        e0, gens = m[0], m[1:]
        if e0 >= q and e0 % q == 0:
            wit = (e0 // q,) + gens
            greedy.append((wit, form))
            el = pres.element({wit: 1})
            for m2, c2 in (el - el.pow_pk(n)).d.items():
                if not lp_mul({0: c2}, form, ctx, out=form_at(m2)):
                    del r[m2]
        else:
            constraints.append(form)
            r.pop(m)

    sol = _solve_affine(ctx, constraints, len(combos))
    if sol is None:
        return None

    def evaluate(form: dict[int, int]) -> int:
        acc = form.get(_CONST, 0)
        for key, c in form.items():
            if key != _CONST:
                acc = ctx.add(acc, ctx.mul(c, sol[key]))
        return acc

    u = pres.element({(0,) + gens: sol[k] for k, gens in enumerate(combos)})
    for wit, form in greedy:
        u = u + pres.element({wit: evaluate(form)})
    if (u.pow_pk(n) - u).d != td:
        raise IntegrityError("additive solver witness failed its replay check")
    return u


# the additive witness of each presentation link, as criterion 08 states it
_LINK_WITNESSES = {"v1": (1, 1, 0, 0, 0, 0), "v2": (1, 0, 1, 0, 0, 0),
                   "w": (0, 1, 1, 0, 0, 0)}


def presentation_equiv(params: Params) -> dict[str, TowerElement]:
    """Witnesses linking this presentation to the paper's two others.

    The unprimed presentation defines each v_i by x*y_i^q - x^q*y_i and
    keeps this w; the primed one keeps these v_i and defines w by
    2 x^(2q0) y1 (x^q - x) + x^(3q0) (x^q - x)^2, read from `tower_rhs`
    as its "w'".  Both are written as elements of this presentation,
    `element` normalizing y_i^q.  The returned u is x*y_i for v_i, with
    u^q - u = (this rhs) - (unprimed rhs), and y1*y2 for w, with
    u^q - u = (primed rhs) - (this rhs); each is replayed exactly.
    """
    pres = presentation(params)
    q, n1 = params.q, pres.ctx.neg(1)
    unprimed = {
        "v1": pres.element({(1, q, 0, 0, 0, 0): 1, (q, 1, 0, 0, 0, 0): n1}),
        "v2": pres.element({(1, 0, q, 0, 0, 0): 1, (q, 0, 1, 0, 0, 0): n1}),
    }
    primed_w = pres.element({(*m, 0, 0, 0): c
                             for m, c in tower_rhs(params)["w'"].items()})
    targets = {name: pres.relations[name] - rhs
               for name, rhs in unprimed.items()}
    targets["w"] = primed_w - pres.relations["w"]
    out = {}
    for name, m in _LINK_WITNESSES.items():
        u = pres.element({m: 1})
        if u.pow_pk(params.n) - u != targets[name]:
            raise IntegrityError(
                f"witness {m} fails to link the presentations at {name}")
        out[name] = u
    return out


# ---------------------------------------------------------- prolongation


def prolong_translation(pres: TowerPresentation, a: int) -> Endo:
    """Extend x -> x + a to the whole tower.

    The generator corrections are the canonical additive witnesses for
    the change each right-hand side undergoes under the translation;
    with A = a^q0 the w-correction is A*(v2 - x*y2) + A^2*(v1 - x*y1).
    """
    ctx = pres.ctx
    A = ctx.frobenius_iter(a, pres.params.s)
    A2 = ctx.mul(A, A)
    aA = ctx.mul(a, A)
    aA2 = ctx.mul(a, A2)
    two = 2 % ctx.p
    four = 4 % ctx.p

    x, x2 = pres.x(), pres.x(2)
    y1, y2 = pres.gen("y1"), pres.gen("y2")
    v1, v2, w = pres.gen("v1"), pres.gen("v2"), pres.gen("w")
    mul = ctx.mul
    return Endo(pres, dict(
        x=x + pres.const(a),
        y1=y1 + x.scale(A),
        y2=y2 + y1.scale(mul(two, A)) + x.scale(A2),
        v1=v1 + x2.scale(A) + y1.scale(mul(two, a)) + x.scale(mul(two, aA)),
        v2=(v2 + v1.scale(mul(two, A)) + x2.scale(A2) + y2.scale(mul(two, a))
            + y1.scale(mul(four, aA)) + x.scale(mul(two, aA2))),
        w=w + (v2 - x * y2).scale(A) + (v1 - x * y1).scale(A2),
    ))
