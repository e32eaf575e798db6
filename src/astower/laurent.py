"""Sparse Laurent polynomials and truncated Laurent series over F_q.

Both classes store a dict mapping exponent to nonzero field code and
delegate the inner loops to `ff`'s kernel.  `LaurentPoly` is exact;
`TruncatedSeries` carries an exclusive precision `prec`, meaning every
coefficient at an exponent strictly below `prec` is exact and anything
at or above it is unknown, so `d` holds no term at or above `prec`.
Sums and products carry `prec` forward, and `local.reduce_mod_wp`
refuses a series unless z^0 lies below `prec`, because a conductor read
from an uncertified principal part would be a guess.  The constructors
and `scale` refuse a code outside range(q); a ring operation's result
comes from the kernel and is wrapped unchecked (`_made`).

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


class LaurentPoly:
    """f = sum c_e z^e with finitely many terms, exponents any integers."""

    __slots__ = ("ctx", "d")

    def __init__(self, ctx: FieldCtx, data: dict[int, int] | None = None):
        self.ctx = ctx
        self.d = {e: c for e, c in (data or {}).items() if c}
        ctx.check(*self.d.values())

    def valuation(self) -> int | None:
        if not self.d:
            return None
        return min(self.d)

    def __bool__(self) -> bool:
        return bool(self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.d == other.d

    def _made(self, d: dict[int, int]) -> "LaurentPoly":
        """A polynomial over this field holding d, a kernel result: its
        codes are nonzero and in range(q), so `__init__` is skipped."""
        out = object.__new__(LaurentPoly)
        out.ctx, out.d = self.ctx, d
        return out

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_mul({0: 1}, other.d, self.ctx, dict(self.d))
        return self._made(_note(out))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_mul({0: self.ctx.neg(1)}, other.d, self.ctx, dict(self.d))
        return self._made(_note(out))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._made(_note(lp_mul(self.d, other.d, self.ctx)))

    def scale(self, c: int) -> "LaurentPoly":
        self.ctx.check(c)
        return self._made(lp_mul({0: c}, self.d, self.ctx))

    def pow_pk(self, k: int) -> "LaurentPoly":
        """self ** (p**k): exponents scale, coefficients Frobenius."""
        if k == 0:
            return self
        return self._made(_note(lp_map_pow(self.d, k, self.ctx)))

    def __pow__(self, e: int) -> "LaurentPoly":
        return power(self, e, LaurentPoly(self.ctx, {0: 1}), self.ctx.p)

    def __repr__(self):
        if not self.d:
            return "LaurentPoly(0)"
        parts = [f"{self.d[e]}*z^{e}" for e in sorted(self.d)]
        return "LaurentPoly(" + " + ".join(parts) + ")"


Prec = int | float


class TruncatedSeries:
    """Laurent series known exactly below the exclusive bound `prec`."""

    __slots__ = ("ctx", "d", "prec")

    def __init__(self, ctx: FieldCtx, data: dict[int, int], prec: Prec):
        self.ctx = ctx
        self.prec = prec
        ctx.check(*data.values())
        self.d = {e: c for e, c in data.items() if c and e < prec}

    @classmethod
    def from_poly(cls, poly: LaurentPoly, prec: Prec = math.inf
                  ) -> "TruncatedSeries":
        return cls(poly.ctx, poly.d, prec)

    def valuation(self) -> int | None:
        if not self.d:
            return None
        return min(self.d)

    def _made(self, d: dict[int, int], prec: Prec) -> "TruncatedSeries":
        """A series over this field holding d below prec, d a kernel
        result; see `LaurentPoly._made`."""
        out = object.__new__(TruncatedSeries)
        out.ctx, out.prec = self.ctx, prec
        out.d = {e: c for e, c in d.items() if e < prec}
        return out

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = lp_mul({0: 1}, other.d, self.ctx, dict(self.d))
        return self._made(_note(out), min(self.prec, other.prec))

    def scale(self, c: int) -> "TruncatedSeries":
        self.ctx.check(c)
        return self._made(lp_mul({0: c}, self.d, self.ctx), self.prec)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # an error term O(z^P) times a factor of valuation v lands in
        # O(z^(P+v)), so each operand's precision shifts by the other's
        # valuation and the weaker certificate wins
        sv, ov = self.valuation(), other.valuation()
        sv = math.inf if sv is None else sv
        ov = math.inf if ov is None else ov
        prec = min(self.prec + ov, other.prec + sv)
        return self._made(_note(lp_mul(self.d, other.d, self.ctx)), prec)

    def __repr__(self):
        return f"TruncatedSeries({len(self.d)} terms, prec={self.prec})"
