"""Sparse Laurent series over F_q, exact below a precision.

A `LaurentPoly` stores a dict mapping exponent to nonzero field code and
delegates the inner loops to `ff`'s kernel.  It carries an exclusive
precision `prec`: every coefficient at an exponent strictly below `prec`
is exact and anything at or above it is unknown, so `d` holds no term at
or above `prec`.  A polynomial is exact, prec = inf; a `TruncatedSeries`
is the subclass holding a finite prec.  Each ring rule is written once,
in `LaurentPoly`, and carries `prec` forward, except the product's rule,
`TruncatedSeries.__mul__`, which takes every product with a series
factor on either side.  `local.reduce_mod_wp` refuses a series unless
z^0 lies below `prec`, because a conductor read from an uncertified
principal part would be a guess.  The constructors and `scale` refuse a
code outside range(q); a ring operation's result comes from the kernel
and is wrapped unchecked (`_made`).

The module also keeps a support watermark: the largest dict size that
has passed through any ring operation since the last reset.  No check
bounds it; only the benchmark's tracer reads it, as the per-layer
metric `laurent.support_max`.
"""

import math

from .ff import FieldCtx, lp_map_pow, lp_mul, power

_watermark = 0


def support_watermark() -> int:
    return _watermark


def reset_support_watermark() -> None:
    global _watermark
    _watermark = 0


def _note(d: dict[int, int]) -> dict[int, int]:
    global _watermark
    if len(d) > _watermark:
        _watermark = len(d)
    return d


Prec = int | float


class LaurentPoly:
    """f = sum c_e z^e with finitely many terms, exponents any integers,
    exact below `prec`: infinite here, finite in a `TruncatedSeries`."""

    __slots__ = ("ctx", "d")
    prec: Prec = math.inf

    def __init__(self, ctx: FieldCtx, data: dict[int, int] | None = None):
        self.ctx = ctx
        self.d = {e: c for e, c in (data or {}).items() if c}
        ctx.check(*self.d.values())

    def valuation(self) -> int | None:
        return min(self.d, default=None)

    def __bool__(self) -> bool:
        return bool(self.d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.d == other.d
                and self.prec == other.prec)

    def _made(self, d: dict[int, int], prec: Prec = math.inf
              ) -> "LaurentPoly":
        """d below prec, d a kernel result (codes nonzero, in range(q)), so
        `__init__` is skipped; a finite prec makes a `TruncatedSeries`."""
        if prec == math.inf:
            out = object.__new__(LaurentPoly)
        else:
            out = object.__new__(TruncatedSeries)
            out.prec = prec
            d = {e: c for e, c in d.items() if e < prec}
        out.ctx, out.d = self.ctx, d
        return out

    def _plus(self, other: "LaurentPoly", c: int) -> "LaurentPoly":
        out = lp_mul({0: c}, other.d, self.ctx, dict(self.d))
        return self._made(_note(out), min(self.prec, other.prec))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, self.ctx.neg(1))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """The exact product; a series factor takes the product over, so
        its precision is kept whichever side it is on."""
        if other.prec != math.inf:
            return other * self
        return self._made(_note(lp_mul(self.d, other.d, self.ctx)))

    def scale(self, c: int) -> "LaurentPoly":
        self.ctx.check(c)
        return self._made(lp_mul({0: c}, self.d, self.ctx), self.prec)

    def pow_pk(self, k: int) -> "LaurentPoly":
        """self ** (p**k): exponents scale, coefficients Frobenius.  The
        map is additive, so an error term O(z^P) goes to O(z^(P p^k))."""
        if k == 0:
            return self
        return self._made(_note(lp_map_pow(self.d, k, self.ctx)),
                          self.prec * self.ctx.p ** k)

    def __pow__(self, e: int) -> "LaurentPoly":
        return power(self, e, LaurentPoly(self.ctx, {0: 1}), self.ctx.p)

    def __repr__(self):
        if not self.d:
            return "LaurentPoly(0)"
        parts = [f"{self.d[e]}*z^{e}" for e in sorted(self.d)]
        return "LaurentPoly(" + " + ".join(parts) + ")"


class TruncatedSeries(LaurentPoly):
    """Laurent series known exactly below the exclusive bound `prec`."""

    __slots__ = ("prec",)

    def __init__(self, ctx: FieldCtx, data: dict[int, int], prec: Prec):
        super().__init__(ctx, data)
        self.prec = prec
        self.d = {e: c for e, c in self.d.items() if e < prec}

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        # an error term O(z^P) times a factor of valuation v lands in
        # O(z^(P+v)), so each operand's precision shifts by the other's
        # valuation and the weaker certificate wins
        sv = min(self.d, default=math.inf)
        ov = min(other.d, default=math.inf)
        prec = min(self.prec + ov, other.prec + sv)
        return self._made(_note(lp_mul(self.d, other.d, self.ctx)), prec)

    def __repr__(self):
        return f"TruncatedSeries({len(self.d)} terms, prec={self.prec})"
