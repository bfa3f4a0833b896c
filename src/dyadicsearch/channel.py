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

C and s* come from the channel's one cached Chernoff law, ``chernoff_tilt``,
which also holds the log masses, log-likelihood ratios and tilted law f_s
that ``decoder`` and ``sim`` read; B and ``b_alt`` keep their own ln(f1/f0).
"""

from __future__ import annotations

import functools
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


def chernoff_information(ch: ChannelSpec) -> ChernoffInfo:
    """Chernoff information of (f0, f1) with the minimizing exponent s*,
    read from the channel's one law, ``chernoff_tilt``. A pure-noise
    channel returns 0 with a warning; a channel whose supports are fully
    disjoint returns +inf."""
    if not ch.informative:
        warnings.warn("chernoff_information of a non-informative channel is 0", stacklevel=2)
    law = chernoff_tilt(ch)
    return ChernoffInfo(law.nats, law.s)


class ChernoffTilt(NamedTuple):
    """A channel's Chernoff law: C, s*, the log masses and log-likelihood
    ratios, and the tilted law f_s = f0^(1-s) f1^s / M(s) at s = s*."""

    s: float
    log_m: float  # ln M(s); -inf where no output has mass under both inputs
    f: np.ndarray | None  # f_s over every output; None where no output is charged
    kappa: float  # min(s, 1 - s), the decay rate of a term in |L_h| (``decoder``)
    spread: float  # largest |ln f0(y)| + |ln f1(y)| over the outputs f_s charges
    nats: float  # C = max(0, -g(s)), apart from log_m: the two may differ in the last bit
    charged: tuple[int, ...]  # the outputs with mass under both inputs, ascending
    log_f: tuple[np.ndarray, np.ndarray]  # ln f0, ln f1 of the charged outputs
    llr: tuple[float, ...]  # ln f1(y) - ln f0(y) of every output, +-inf at a zero mass


@functools.lru_cache(maxsize=16)
def chernoff_tilt(ch: ChannelSpec) -> ChernoffTilt:
    """The channel's Chernoff law, derived once per channel per process: the
    bounds (through ``chernoff_information`` and ``info_constants``), the
    exact oracle (``decoder``) and the sampler (``sim``) all read it.

    Each mass's log is taken once, by ``math.log``. The objective
    g(s) = ln sum_y f0(y)^(1-s) f1(y)^s over the charged outputs (a zero
    mass drops its term, 0^s = 0) is convex with value 0 at both endpoints,
    so its minimum is interior; s* is located by golden-section search on
    [0, 1] to 1e-10 in s, and C = max(0, -g(s*)). g is summed in plain
    doubles, so a C below about 1e-16 rounds to 0. On a pure-noise channel
    s = 1/2, C = 0 and f_s = f0 = f1; with no output charged every s reaches
    C = +inf, so no search runs and s = 1/2. f_s is normalised by its own
    sum, so ln M(s*) is not -C to the last bit.
    """
    logs = [[math.log(p) if p > 0.0 else -math.inf for p in f] for f in (ch.f0, ch.f1)]
    llr = tuple(b - a for a, b in zip(*logs))
    charged = tuple(i for i, x in enumerate(llr) if math.isfinite(x))
    la, lb = log_f = tuple(np.array(x)[list(charged)] for x in logs)
    for x in log_f:
        x.flags.writeable = False

    def g(s: float) -> float:
        return float(np.log(np.exp((1.0 - s) * la + s * lb).sum()))

    s, nats = 0.5, (0.0 if charged else math.inf)
    if charged and ch.informative:
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
        nats = max(0.0, -g(s))
    kappa = min(s, 1.0 - s)
    if not charged:
        return ChernoffTilt(s, -math.inf, None, kappa, 0.0, nats, charged, log_f, llr)
    log_w = (1.0 - s) * la + s * lb
    top = float(log_w.max())
    w = np.exp(log_w - top)
    total = math.fsum(w.tolist())
    f = np.zeros(len(ch.outputs))
    f[list(charged)] = w / total
    f.flags.writeable = False
    spread = float(np.max(np.abs(la) + np.abs(lb)))
    return ChernoffTilt(s, top + math.log(total), f, kappa, spread, nats, charged, log_f, llr)


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


# A preset: its factory, the numeric fields it takes in order (a preset
# string's values) and those it takes by keyword when present and not null.
_PRESETS = {"bac": (make_bac, ("p00", "p11"), ()), "bsc": (make_bsc, ("eps",), ())}

_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


def _read_config(source: dict | str | Path, what: str, key: str, presets: dict) -> dict:
    """The config mapping of a ``what`` input ("channel", "prior"): a mapping
    as it is, an existing file as JSON, any other string holding ":" or
    naming a preset as {key: name, field: value, ...} with the values in
    the preset's field order, and any string left as a file."""
    preset_like = isinstance(source, str) and (":" in source or source in presets)
    if preset_like and not Path(source).exists():
        name, _, args = source.partition(":")
        values = [v for v in args.split(",") if v]
        if name not in presets:
            raise ValidationError(f"unknown {what} preset {name!r}")
        fields = presets[name][1]
        if len(values) != len(fields):
            usage = ":".join([name, ",".join(fields)]) if fields else name
            raise ValidationError(
                f"{what} preset {source!r}: {name} needs {len(fields)} value(s): {usage}"
            )
        return {key: name, **dict(zip(fields, values))}
    obj = source
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read {what} file {str(source)!r}: {exc}") from exc
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise ValidationError(f"{what} file {str(source)!r}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} config must be a JSON object")
    return obj


def _build_preset(obj: dict, what: str, key: str, presets: dict):
    """The preset ``obj[key]`` of ``presets``, built from ``obj``'s fields;
    other keys are ignored."""
    name = obj.get(key)
    if not isinstance(name, str) or name not in presets:
        raise ValidationError(f"unknown {what} preset {name!r}")
    factory, fields, optional = presets[name]
    try:
        args = [float(obj[f]) for f in fields]
        kwargs = {f: float(obj[f]) for f in optional if obj.get(f) is not None}
    except KeyError as exc:
        raise ValidationError(f"{what} preset {name!r}: missing field {exc}") from exc
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} preset {name!r}: {exc}") from exc
    return factory(*args, **kwargs)


def load_channel(source: dict | str | Path) -> ChannelSpec:
    """Build a channel from a config mapping, a preset string or a JSON file.

    Accepted mappings: {"preset": "bac", "p00": .., "p11": ..},
    {"preset": "bsc", "eps": ..}, or the explicit
    {"outputs": [...], "f0": [...], "f1": [...]}. An existing file (a
    ``Path`` or a string) is read as JSON, so it wins over a preset string;
    any other string holding ":" is a preset string, "bac:p00,p11" or
    "bsc:eps", read as the mapping with the same values in field order.
    ``source.load_prior`` takes the same forms. Malformed values raise
    ``ValidationError``.
    """
    obj = _read_config(source, "channel", "preset", _PRESETS)
    if "preset" in obj:
        return _build_preset(obj, "channel", "preset", _PRESETS)
    try:
        outputs = tuple(obj["outputs"])
        f0 = tuple(float(p) for p in obj["f0"])
        f1 = tuple(float(p) for p in obj["f1"])
    except KeyError as exc:
        raise ValidationError(f"channel config: missing field {exc}") from exc
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"channel config: {exc}") from exc
    return ChannelSpec(outputs=outputs, f0=f0, f1=f1)
