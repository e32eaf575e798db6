"""Sparse Laurent polynomials and truncated Laurent series over F_q.

Both classes store a dict mapping exponent to nonzero field code and
delegate the inner loops to `_kernel_py`.  `LaurentPoly` is exact;
`TruncatedSeries` carries an exclusive precision `prec`, meaning every
coefficient at an exponent strictly below `prec` is exact and anything
at or above it is unknown, so `d` holds no term at or above `prec`.
Sums and products carry `prec` forward, and `local.reduce_mod_wp`
refuses a series unless z^0 lies below `prec`, because a conductor read
from an uncertified principal part would be a guess.

The module also keeps a support watermark: the largest dict size that
has passed through any ring operation since the last reset.  The heavy
verification runs assert a ceiling on it, which is what makes "this
stays sparse" an enforced claim instead of a hope.
"""

from __future__ import annotations

import math

from ._kernel_py import lp_add_scaled, lp_map_pow, lp_mul
from .errors import ParameterError
from .ff import FieldCtx

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

    def __init__(self, ctx: FieldCtx, data: dict[int, int] | None = None,
                 _trusted: bool = False):
        self.ctx = ctx
        if data is None:
            self.d = {}
        elif _trusted:
            self.d = data
        else:
            self.d = {e: c for e, c in data.items() if c}

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LaurentPoly":
        return cls(ctx, {}, _trusted=True)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "LaurentPoly":
        return cls(ctx, {0: 1}, _trusted=True)

    def valuation(self) -> int | None:
        if not self.d:
            return None
        return min(self.d)

    def __bool__(self) -> bool:
        return bool(self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.d == other.d

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_add_scaled(self.d, other.d, 1, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, _note(out), _trusted=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_add_scaled(self.d, other.d, self.ctx.neg(1),
                            *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, _note(out), _trusted=True)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_mul(self.d, other.d, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, _note(out), _trusted=True)

    def scale(self, c: int) -> "LaurentPoly":
        out = lp_add_scaled({}, self.d, c, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, out, _trusted=True)

    def pow_pk(self, k: int) -> "LaurentPoly":
        """self ** (p**k): exponents scale, coefficients Frobenius."""
        if k == 0:
            return self
        out = lp_map_pow(self.d, self.ctx.p ** k, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, _note(out), _trusted=True)

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            raise ParameterError("negative powers of a Laurent polynomial")
        result = LaurentPoly.one(self.ctx)
        k = 0
        p = self.ctx.p
        while e:
            digit = e % p
            if digit:
                block = self.pow_pk(k)
                for _ in range(digit):
                    result = result * block
            e //= p
            k += 1
        return result

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
        self.d = {e: c for e, c in data.items() if c and e < prec}

    @classmethod
    def from_poly(cls, poly: LaurentPoly, prec: Prec = math.inf
                  ) -> "TruncatedSeries":
        return cls(poly.ctx, poly.d, prec)

    def valuation(self) -> int | None:
        if not self.d:
            return None
        return min(self.d)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = lp_add_scaled(self.d, other.d, 1, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out),
                               min(self.prec, other.prec))

    def scale(self, c: int) -> "TruncatedSeries":
        out = lp_add_scaled({}, self.d, c, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, out, self.prec)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # an error term O(z^P) times a factor of valuation v lands in
        # O(z^(P+v)), so each operand's precision shifts by the other's
        # valuation and the weaker certificate wins
        sv, ov = self.valuation(), other.valuation()
        sv = math.inf if sv is None else sv
        ov = math.inf if ov is None else ov
        prec = min(self.prec + ov, other.prec + sv)
        out = lp_mul(self.d, other.d, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out), prec)

    def __repr__(self):
        return f"TruncatedSeries({len(self.d)} terms, prec={self.prec})"
