"""Hardy and weighted Bergman spaces of the unit disk.

A space is determined by the squared norms of the monomials z^n.  The Hardy
space has ||z^n||^2 = 1; the Bergman space with radial weight parameter
alpha > -1 satisfies the ratio recurrence

    ||z^(n+1)||^2 / ||z^n||^2 = (n + 1) / (n + alpha + 2),  ||z^0||^2 = 1.

Both families share reproducing kernels of binomial type
K_w(z) = (1 - conj(w) z)^(-gamma) with kernel exponent gamma = 1 for Hardy
and gamma = alpha + 2 for Bergman, and ||K_w||^2 = (1 - |w|^2)^(-gamma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .series import AnalyticExpr, Poly, Power

HARDY = "hardy"
BERGMAN = "bergman"


@dataclass(frozen=True)
class SpaceSpec:
    kind: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (HARDY, BERGMAN):
            raise InputError(f"unknown space kind {self.kind!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.kind == HARDY and self.alpha != 0.0:
            raise InputError("the Hardy space takes no weight parameter")
        if self.kind == BERGMAN and not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise InputError(
                f"Bergman weight parameter must be finite with alpha > -1, got {self.alpha}"
            )

    @property
    def gamma(self) -> float:
        """Kernel exponent: K_w(z) = (1 - conj(w) z)^(-gamma)."""
        return 1.0 if self.kind == HARDY else self.alpha + 2.0

    def basis_norms_sq(self, order: int) -> np.ndarray:
        """Read-only array of ||z^n||^2 for n = 0..order."""
        if order < 0:
            raise InputError("order must be nonnegative")
        return _norms_sq_cached(self.kind, self.alpha, int(order))

    def label(self) -> str:
        if self.kind == HARDY:
            return "hardy"
        return f"bergman:{self.alpha:g}"

    def to_json(self) -> dict:
        if self.kind == HARDY:
            return {"kind": HARDY}
        return {"kind": BERGMAN, "alpha": self.alpha}

    @staticmethod
    def from_json(obj: dict) -> "SpaceSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("space JSON must be an object with a 'kind' key")
        kind = obj["kind"]
        if kind == HARDY:
            return hardy()
        if kind == BERGMAN:
            return bergman(float(obj.get("alpha", 0.0)))
        raise InputError(f"unknown space kind {kind!r}")

    @staticmethod
    def parse(text: str) -> "SpaceSpec":
        """Parse 'hardy', 'bergman', or 'bergman:<alpha>'."""
        text = text.strip().lower()
        if text == HARDY:
            return hardy()
        if text == BERGMAN:
            return bergman(0.0)
        if text.startswith(BERGMAN + ":"):
            try:
                alpha = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise InputError(f"bad Bergman weight parameter: {exc}")
            return bergman(alpha)
        raise InputError(f"cannot parse space {text!r}; use hardy or bergman:<alpha>")


def hardy() -> SpaceSpec:
    return SpaceSpec(HARDY)


def bergman(alpha: float = 0.0) -> SpaceSpec:
    return SpaceSpec(BERGMAN, alpha)


@functools.lru_cache(maxsize=256)
def _norms_sq_cached(kind: str, alpha: float, order: int) -> np.ndarray:
    if kind == HARDY:
        out = np.ones(order + 1)
    else:
        n = np.arange(order, dtype=np.float64)
        ratios = (n + 1.0) / (n + alpha + 2.0)
        out = np.concatenate(([1.0], np.cumprod(ratios)))
    out.flags.writeable = False
    return out


def kernel_base(w) -> np.ndarray:
    """Coefficients (1, -conj(w)) of the base of K_w = (1 - conj(w) z)^(-gamma)
    at a point w, or stacked along a new axis 0 for an array w (shape
    (2,) + w.shape); requires |w| < 1."""
    ws = np.asarray(w, dtype=np.complex128)
    if np.any(np.abs(ws) >= 1.0):
        raise InputError("kernel point must lie in the open unit disk")
    return np.stack((np.ones_like(ws), -ws.conj()))


def kernel_expr(space: SpaceSpec, w: complex) -> AnalyticExpr:
    """Reproducing kernel K_w as an analytic expression; requires |w| < 1."""
    return Power(Poly(tuple(kernel_base(w))), -space.gamma)


def kernel_norm_sq(space: SpaceSpec, w):
    """Exact squared norm ||K_w||^2 = (1 - |w|^2)^(-gamma) at a point w, or
    elementwise at an array w (a float, or an array of its shape)."""
    ws = np.asarray(w, dtype=np.complex128)
    r = np.abs(np.atleast_1d(ws))
    if np.any(r >= 1.0):
        raise InputError("kernel point must lie in the open unit disk")
    out = (1.0 - r ** 2) ** (-space.gamma)
    return float(out[0]) if ws.ndim == 0 else out
