"""Binary-input memoryless channels and their information functionals.

A channel is a pair of probability mass functions (f0, f1) over a finite
output alphabet: f0 is the output law when bit 0 is sent, f1 when bit 1 is
sent. Two functionals of the pair drive every distortion bound in this
package:

* the Chernoff information  C = -min_{s in [0,1]} ln sum_y f0(y)^(1-s) f1(y)^s,
  the best exponential decay rate of the Bayes error in testing f0 vs f1;
* the mean absolute log-likelihood ratio  B = E[|ln(f1(Y)/f0(Y))|], with Y
  drawn from the equal mixture (f0 + f1)/2 (the output law of a fair input
  bit).

For reference, the alternative form E[exp(-|ln(f1/f0)(Y)|)] is exposed as
``b_alt``; it is a diagnostic only and is not used by any bound here.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateChannelError, InfiniteLogRatioError, ValidationError

LN4 = math.log(4.0)

_MASS_TOL = 1e-12
_GOLDEN_TOL = 1e-10


@dataclass(frozen=True)
class ChannelSpec:
    """Binary-input, finite-output memoryless channel.

    Immutable and hashable; safe to share across workers. Output symbols are
    arbitrary hashable labels (presets use 0 and 1).
    """

    outputs: tuple
    f0: tuple[float, ...]
    f1: tuple[float, ...]

    def __post_init__(self) -> None:
        m = len(self.outputs)
        if m < 2:
            raise ValidationError("channel needs at least 2 output symbols")
        try:
            distinct = len(set(self.outputs))
        except TypeError:
            raise ValidationError("output symbols must be hashable labels") from None
        if distinct != m:
            raise ValidationError("duplicate output symbols")
        if len(self.f0) != m or len(self.f1) != m:
            raise ValidationError("f0/f1 length must match the output alphabet")
        for name, f in (("f0", self.f0), ("f1", self.f1)):
            if not all(p >= 0.0 for p in f):
                raise ValidationError(f"{name} has negative or NaN mass")
            if abs(math.fsum(f) - 1.0) > _MASS_TOL:
                raise ValidationError(f"{name} does not sum to 1 (got {math.fsum(f)!r})")
        if any(a == 0.0 and b == 0.0 for a, b in zip(self.f0, self.f1)):
            raise ValidationError("output symbol with zero mass under both f0 and f1")

    @property
    def informative(self) -> bool:
        """False for pure-noise channels (f0 == f1), which carry no information."""
        return self.f0 != self.f1

    def symbol_index(self, y) -> int:
        try:
            return self.outputs.index(y)
        except ValueError:
            raise ValidationError(f"unknown output symbol {y!r}") from None

    def log_ratio(self, y) -> float:
        """ln(f1(y)/f0(y)); +/-inf when exactly one mass is zero."""
        i = self.symbol_index(y)
        a, b = self.f0[i], self.f1[i]
        if b == 0.0:
            return -math.inf
        if a == 0.0:
            return math.inf
        return math.log(b / a)

    def describe(self) -> str:
        """One-line echo of the channel parameters, used for CSV provenance."""
        return (
            f"outputs={list(self.outputs)!r} "
            f"f0={[float(p) for p in self.f0]!r} f1={[float(p) for p in self.f1]!r}"
        )


class ChernoffInfo(NamedTuple):
    nats: float
    s_star: float


@dataclass(frozen=True)
class InfoConstants:
    """Bundle of channel constants used by the policy bounds.

    ``r`` is the integer repetition unit floor(ln4 / C) used by the staircase
    policy constructor; ``r_real`` is the unfloored ln4 / C used by the
    structural spacing checks. Both are carried to avoid conflating them.
    A1 = min(sqrt(2) * (ln4/C + 1) * B, ln4) and A2 = sqrt(2 r) * C are the
    asymptotic log-distortion rate constants (per sqrt(n)).
    """

    C: float
    B: float
    r: int
    r_real: float
    A1: float
    A2: float


def make_bac(p00: float, p11: float) -> ChannelSpec:
    """Binary asymmetric channel with stay probabilities p00 and p11.

    f0 = (p00, 1-p00), f1 = (1-p11, p11) over outputs (0, 1). The symmetric
    case p00 == p11 is the BSC with crossover 1 - p00. Boundary probabilities
    are rejected: they make the log-likelihood ratios infinite and the
    noiseless regime is out of scope.
    """
    for name, p in (("p00", p00), ("p11", p11)):
        if not (0.0 < p < 1.0):
            raise DegenerateChannelError(
                f"degenerate channel: {name}={p!r} must lie strictly inside (0, 1)"
            )
    return ChannelSpec(outputs=(0, 1), f0=(p00, 1.0 - p00), f1=(1.0 - p11, p11))


def make_bsc(eps: float) -> ChannelSpec:
    """Binary symmetric channel with crossover probability eps."""
    return make_bac(1.0 - eps, 1.0 - eps)


def _chernoff_objective(ch: ChannelSpec):
    # g(s) = ln sum_y f0^(1-s) f1^s, with zero-mass terms dropped (0^s = 0).
    la = np.array([math.log(a) if a > 0.0 else 0.0 for a in ch.f0])
    lb = np.array([math.log(b) if b > 0.0 else 0.0 for b in ch.f1])
    keep = np.array([a > 0.0 and b > 0.0 for a, b in zip(ch.f0, ch.f1)])

    def g(s: float) -> float:
        if not keep.any():
            return -math.inf
        return float(np.log(np.exp((1.0 - s) * la[keep] + s * lb[keep]).sum()))

    return g


def chernoff_information(ch: ChannelSpec) -> ChernoffInfo:
    """Chernoff information of (f0, f1) with the minimizing exponent s*.

    The objective s -> ln sum_y f0(y)^(1-s) f1(y)^s is convex with value 0 at
    both endpoints, so the minimum is interior; it is located by golden-section
    search on [0, 1] to 1e-10 in s. A pure-noise channel returns 0 with a
    warning. Outputs carried by only one of the two masses drop out of the
    sum; a channel whose supports are fully disjoint returns +inf.
    """
    if not ch.informative:
        warnings.warn("chernoff_information of a non-informative channel is 0", stacklevel=2)
        return ChernoffInfo(0.0, 0.5)
    g = _chernoff_objective(ch)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > _GOLDEN_TOL:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    s = 0.5 * (a + b)
    val = g(s)
    if val == -math.inf:
        return ChernoffInfo(math.inf, s)
    return ChernoffInfo(max(0.0, -val), s)


def _mixture_weights(ch: ChannelSpec) -> list[float]:
    return [0.5 * (a + b) for a, b in zip(ch.f0, ch.f1)]


def b_functional(ch: ChannelSpec) -> float:
    """Mean absolute log-likelihood ratio E[|ln(f1/f0)(Y)|].

    Y follows the equal mixture (f0 + f1)/2, matching the uniform prior on the
    input bit. Requires full support: any output with mass under exactly one
    of f0, f1 has an infinite log-ratio and is rejected.
    """
    for a, b in zip(ch.f0, ch.f1):
        if (a == 0.0) != (b == 0.0):
            raise InfiniteLogRatioError(
                "infinite log-ratio: an output has mass under exactly one of f0, f1"
            )
    return math.fsum(
        w * abs(math.log(b / a))
        for w, a, b in zip(_mixture_weights(ch), ch.f0, ch.f1)
        if a > 0.0
    )


def b_alt(ch: ChannelSpec) -> float:
    """Diagnostic variant E[exp(-|ln(f1/f0)(Y)|)] under the same mixture.

    One-sided zero masses contribute exp(-inf) = 0, so no full-support
    requirement applies here.
    """
    total = 0.0
    for w, a, b in zip(_mixture_weights(ch), ch.f0, ch.f1):
        if a > 0.0 and b > 0.0:
            total += w * math.exp(-abs(math.log(b / a)))
    return total


def info_constants(ch: ChannelSpec) -> InfoConstants:
    """C, B, r, r_real, A1 and A2 for an informative full-support channel."""
    if not ch.informative:
        raise ValidationError("cannot form r: non-informative channel has C = 0")
    C = chernoff_information(ch).nats
    if C <= 0.0 or not math.isfinite(C):
        raise ValidationError(f"cannot form r: C={C!r}")
    B = b_functional(ch)
    r_real = LN4 / C
    r = math.floor(r_real)
    A1 = min(math.sqrt(2.0) * (r_real + 1.0) * B, LN4)
    A2 = math.sqrt(2.0 * r) * C
    return InfoConstants(C=C, B=B, r=r, r_real=r_real, A1=A1, A2=A2)


_PRESETS = {"bac": (make_bac, ("p00", "p11")), "bsc": (make_bsc, ("eps",))}

_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


def _preset_config(text: str) -> dict:
    """{"preset": name, field: value, ...} from "bac:p00,p11" or "bsc:eps"."""
    name, _, args = text.partition(":")
    values = [v for v in args.split(",") if v]
    if name not in _PRESETS:
        raise ValidationError(f"unknown channel preset {name!r}")
    fields = _PRESETS[name][1]
    if len(values) != len(fields):
        raise ValidationError(
            f"channel preset {text!r}: {name} needs {len(fields)} value(s): "
            f"{name}:{','.join(fields)}"
        )
    return {"preset": name, **dict(zip(fields, values))}


def load_channel(source: dict | str | Path) -> ChannelSpec:
    """Build a channel from a config mapping, a preset string or a JSON file.

    Accepted forms: {"preset": "bac", "p00": .., "p11": ..},
    {"preset": "bsc", "eps": ..}, or the explicit
    {"outputs": [...], "f0": [...], "f1": [...]}. A string that names no
    existing file and contains ":" is a preset string, "bac:p00,p11" or
    "bsc:eps", read as the mapping with the same values in field order.
    Malformed values raise ``ValidationError``.
    """
    if isinstance(source, str) and ":" in source and not Path(source).exists():
        obj = _preset_config(source)
    elif isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read channel file {source!r}: {exc}") from exc
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise ValidationError(f"channel file {source!r}: invalid JSON ({exc})") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValidationError("channel config must be a JSON object")
    if "preset" in obj:
        preset = obj["preset"]
        if not isinstance(preset, str) or preset not in _PRESETS:
            raise ValidationError(f"unknown channel preset {preset!r}")
        factory, fields = _PRESETS[preset]
        try:
            values = [float(obj[f]) for f in fields]
        except KeyError as exc:
            raise ValidationError(f"channel preset {preset!r}: missing field {exc}") from exc
        except _CONVERSION_ERRORS as exc:
            raise ValidationError(f"channel preset {preset!r}: {exc}") from exc
        return factory(*values)
    try:
        outputs = tuple(obj["outputs"])
        f0 = tuple(float(p) for p in obj["f0"])
        f1 = tuple(float(p) for p in obj["f1"])
    except KeyError as exc:
        raise ValidationError(f"channel config: missing field {exc}") from exc
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"channel config: {exc}") from exc
    return ChannelSpec(outputs=outputs, f0=f0, f1=f1)
