"""Dyadic representation of messages in [0, 1] and prior transforms.

A message x in [0, 1] is identified with its base-2 expansion
x = sum_{k>=1} x_k 2^(-k). Dyadic rationals get the terminating expansion
(trailing zeros), so the bit sequence of a double is finite and exact.
Extraction is capped at depth 52 (the double mantissa); deeper bits are 0.

Non-uniform targets are handled by the CDF transform: locate F(X) instead of
X, where F is the strictly increasing CDF of the prior. The built-in
non-uniform family is the power prior F(x) = x^e on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import _build_preset, _read_config
from .errors import ValidationError

BIT_DEPTH_CAP = 52

_GRID_POINTS = 10_000
_LIPSCHITZ_SLACK = 1e-9
_ROUNDTRIP_TOL = 1e-10


def bits_array(values: np.ndarray, k: int) -> np.ndarray:
    """Vectorized k-th bit of each value (values in [0, 1))."""
    if k > BIT_DEPTH_CAP:
        return np.zeros(values.shape, dtype=np.int8)
    scaled = np.floor(values * float(2**k))
    return (scaled.astype(np.int64) & 1).astype(np.int8)


@dataclass(frozen=True)
class PriorSpec:
    """Prior on the target, given through its CDF and squared Lipschitz constant.

    The CDF maps the support [a, b] onto [0, 1] strictly increasingly; its
    squared Lipschitz constant bounds (F(u1)-F(u2))^2 <= lipschitz_sq (u1-u2)^2
    and is supplied rather than estimated (validated on a grid at
    construction). The callables must accept numpy arrays.
    """

    kind: str  # "uniform" | "transformed"
    cdf: Callable
    inverse_cdf: Callable
    support: tuple[float, float]
    lipschitz_sq: float

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "transformed"):
            raise ValidationError(f"unknown prior kind {self.kind!r}")
        if not 0.0 < self.lipschitz_sq < math.inf:  # also refuses nan
            raise ValidationError(f"lipschitz_sq must lie in (0, inf), got {self.lipschitz_sq!r}")
        a, b = self.support
        if not a < b:
            raise ValidationError("empty prior support")
        u = np.linspace(a, b, _GRID_POINTS)
        F = np.asarray(self.cdf(u), dtype=float)
        if abs(F[0]) > 1e-12 or abs(F[-1] - 1.0) > 1e-12:
            raise ValidationError("cdf must map the support endpoints to 0 and 1")
        dF = np.diff(F)
        if np.any(dF <= 0.0):
            raise ValidationError("cdf must be strictly increasing on its support")
        # Adjacent-pair check implies the all-pairs bound by the triangle
        # inequality along the grid.
        du = np.diff(u)
        if np.any(dF * dF > self.lipschitz_sq * du * du * (1.0 + _LIPSCHITZ_SLACK)):
            raise ValidationError(
                "declared lipschitz_sq is violated on the validation grid"
            )
        back = np.asarray(self.inverse_cdf(F), dtype=float)
        if np.max(np.abs(back - u)) > _ROUNDTRIP_TOL * max(abs(a), abs(b), 1.0):
            raise ValidationError("inverse_cdf does not invert cdf to 1e-10")


def uniform_prior() -> PriorSpec:
    ident = lambda x: np.asarray(x, dtype=float)
    return PriorSpec(
        kind="uniform", cdf=ident, inverse_cdf=ident, support=(0.0, 1.0), lipschitz_sq=1.0
    )


def power_prior(exponent: float, lipschitz_sq: float | None = None) -> PriorSpec:
    """Prior on [0, 1] with CDF x^e (e >= 1); squared Lipschitz constant e^2.

    A declared ``lipschitz_sq`` overrides the derived e^2 and still has to
    survive the grid validation (so an understated constant is rejected).
    """
    if not 1.0 <= exponent < math.inf:  # also refuses nan
        raise ValidationError(f"power prior needs a finite exponent >= 1, got {exponent!r}")
    e = float(exponent)
    return PriorSpec(
        kind="transformed",
        cdf=lambda x: np.asarray(x, dtype=float) ** e,
        inverse_cdf=lambda u: np.asarray(u, dtype=float) ** (1.0 / e),
        support=(0.0, 1.0),
        lipschitz_sq=e * e if lipschitz_sq is None else float(lipschitz_sq),
    )


def from_uniform(prior: PriorSpec, u):
    """F^{-1}(u): maps a uniform-domain location back to the original domain."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError("uniform-domain value outside [0, 1]")
    out = prior.inverse_cdf(arr)
    return float(out) if np.ndim(u) == 0 else out


_PRIOR_PRESETS = {
    "uniform": (uniform_prior, (), ()),
    "power": (power_prior, ("exponent",), ("lipschitz_sq",)),
}


def load_prior(source: dict | str | Path) -> PriorSpec:
    """Build a prior from a config mapping, a preset string or a JSON file.

    Accepted mappings: {"prior": "uniform"} and {"prior": "power",
    "exponent": e}, with an optional declared "lipschitz_sq" (absent or null
    means the derived e^2). The forms and their precedence are
    ``channel.load_channel``'s: an existing file wins, and the preset
    strings are "uniform" and "power:e". Malformed values raise
    ``ValidationError``.
    """
    obj = _read_config(source, "prior", "prior", _PRIOR_PRESETS)
    return _build_preset(obj, "prior", "prior", _PRIOR_PRESETS)
