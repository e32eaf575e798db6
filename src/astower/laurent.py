"""Sparse Laurent polynomials and truncated Laurent series over F_q.

Both classes store a dict mapping exponent to nonzero field code and
delegate the inner loops to `_kernel_py`.  `LaurentPoly` is exact;
`TruncatedSeries` carries an exclusive precision `prec`, meaning every
coefficient at an exponent strictly below `prec` is exact and anything
at or above it is unknown.  Asking a series for an unknown coefficient
raises ParameterError rather than returning a silent zero, because the
conductor pipeline downstream depends on knowing exactly which part of
an expansion is certified.

The module also keeps a support watermark: the largest dict size that
has passed through any ring operation since the last reset.  The heavy
verification runs assert a ceiling on it, which is what makes "this
stays sparse" an enforced claim instead of a hope.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from ._kernel_py import lp_add_scaled, lp_map_pow, lp_mul
from .errors import ParameterError
from .ff import FieldCtx

_watermark = 0


def support_watermark() -> int:
    return _watermark


def reset_support_watermark() -> None:
    global _watermark
    _watermark = 0


def _note(d: Dict[int, int]) -> Dict[int, int]:
    global _watermark
    if len(d) > _watermark:
        _watermark = len(d)
    return d


class LaurentPoly:
    """f = sum c_e z^e with finitely many terms, exponents any integers."""

    __slots__ = ("ctx", "d")

    def __init__(self, ctx: FieldCtx, data: Optional[Dict[int, int]] = None,
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

    @classmethod
    def monomial(cls, ctx: FieldCtx, e: int, c: int) -> "LaurentPoly":
        return cls(ctx, {e: c})

    def coeff(self, e: int) -> int:
        return self.d.get(e, 0)

    def valuation(self) -> Optional[int]:
        if not self.d:
            return None
        return min(self.d)

    def principal_part(self) -> Dict[int, int]:
        return {e: c for e, c in self.d.items() if e < 0}

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

    def __neg__(self) -> "LaurentPoly":
        out = lp_add_scaled({}, self.d, self.ctx.neg(1),
                            *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, out, _trusted=True)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = lp_mul(self.d, other.d, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, _note(out), _trusted=True)

    def scale(self, c: int) -> "LaurentPoly":
        out = lp_add_scaled({}, self.d, c, *self.ctx.kernel_args)
        return LaurentPoly(self.ctx, out, _trusted=True)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {e + k: c for e, c in self.d.items()},
                           _trusted=True)

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

    def to_json(self) -> List[list]:
        return [[e, self.ctx.to_coeffs(self.d[e])] for e in sorted(self.d)]

    def __repr__(self):
        if not self.d:
            return "LaurentPoly(0)"
        parts = [f"{self.d[e]}*z^{e}" for e in sorted(self.d)]
        return "LaurentPoly(" + " + ".join(parts) + ")"


Prec = Union[int, float]


class TruncatedSeries:
    """Laurent series known exactly below the exclusive bound `prec`."""

    __slots__ = ("ctx", "d", "prec")

    def __init__(self, ctx: FieldCtx, data: Dict[int, int], prec: Prec):
        self.ctx = ctx
        self.prec = prec
        self.d = {e: c for e, c in data.items() if c and e < prec}

    @classmethod
    def from_poly(cls, poly: LaurentPoly, prec: Prec = math.inf
                  ) -> "TruncatedSeries":
        return cls(poly.ctx, poly.d, prec)

    def coeff(self, e: int) -> int:
        if e >= self.prec:
            raise ParameterError(
                f"coefficient at z^{e} not certified (prec={self.prec})")
        return self.d.get(e, 0)

    def valuation(self) -> Optional[int]:
        if not self.d:
            return None
        return min(self.d)

    def principal_part(self) -> Dict[int, int]:
        if self.prec < 0:
            raise ParameterError(
                f"principal part not certified at prec={self.prec}")
        return {e: c for e, c in self.d.items() if e < 0}

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = lp_add_scaled(self.d, other.d, 1, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out),
                               min(self.prec, other.prec))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = lp_add_scaled(self.d, other.d, self.ctx.neg(1),
                            *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out),
                               min(self.prec, other.prec))

    def __neg__(self) -> "TruncatedSeries":
        out = lp_add_scaled({}, self.d, self.ctx.neg(1),
                            *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, out, self.prec)

    def scale(self, c: int) -> "TruncatedSeries":
        out = lp_add_scaled({}, self.d, c, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, out, self.prec)

    def __mul__(self, other) -> "TruncatedSeries":
        # an error term O(z^P) times a factor of valuation v lands in
        # O(z^(P+v)), so each operand's precision shifts by the other's
        # valuation and the weaker certificate wins
        if isinstance(other, LaurentPoly):
            ov, op = other.valuation(), math.inf
        else:
            ov, op = other.valuation(), other.prec
        sv = self.valuation()
        sv = math.inf if sv is None else sv
        ov = math.inf if ov is None else ov
        prec = min(self.prec + ov, op + sv)
        out = lp_mul(self.d, other.d, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out), prec)

    def pow_pk(self, k: int) -> "TruncatedSeries":
        if k == 0:
            return self
        scale = self.ctx.p ** k
        out = lp_map_pow(self.d, scale, *self.ctx.kernel_args)
        return TruncatedSeries(self.ctx, _note(out), self.prec * scale)

    def __repr__(self):
        return f"TruncatedSeries({len(self.d)} terms, prec={self.prec})"
