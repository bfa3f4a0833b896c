"""Non-adaptive dyadic transmission policies for noisy target localization.

The target is a point in [0, 1]; its binary-expansion bits are transmitted a
chosen number of times each through a noisy binary-input channel and decoded
by per-bit Bayesian posteriors. The package computes the distortion bounds
driven by the channel's Chernoff information and mean absolute log-likelihood
ratio, searches for bound-minimizing repetition patterns, constructs the
staircase (Aurelian) policy, and validates everything by exact computation
and Monte-Carlo simulation. The staircase's upper bound decays like
exp(-A2 sqrt(n)) with A2 = sqrt(2r) C, r = floor(ln4 / C); that is below
the optimal rate sqrt(2 C ln4) of the U-minimizing pattern unless ln4 / C
is an integer.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelSpec,
    ChernoffInfo,
    InfoConstants,
    b_alt,
    b_functional,
    chernoff_information,
    info_constants,
    load_channel,
    make_bac,
    make_bsc,
)
from .decoder import (
    assemble_distortion,
    assemble_log_distortion,
    exact_bit_variance,
    exact_distortion,
    log_bit_variances,
)
from .errors import (
    BudgetExceededError,
    DegenerateChannelError,
    InfiniteLogRatioError,
    ValidationError,
)
from .policy import (
    DepthBoundsReport,
    EfficiencyReport,
    TransmissionPattern,
    aurelian,
    check_efficient_properties,
    depth_bounds,
    efficient_search,
    enumerate_patterns,
    log_lower_bound,
    log_upper_bound,
    lower_bound,
    parse_pattern,
    pattern,
    upper_bound,
)
from .sim import (
    DistortionEstimate,
    NonuniformReport,
    SimConfig,
    SweepResult,
    SweepRow,
    aurelian_sweep,
    estimate_distortion,
    nonuniform_experiment,
    trial_values,
)
from .source import (
    PriorSpec,
    from_uniform,
    load_prior,
    power_prior,
    uniform_prior,
)

__all__ = [
    "__version__",
    "ChannelSpec",
    "ChernoffInfo",
    "InfoConstants",
    "b_alt",
    "b_functional",
    "chernoff_information",
    "info_constants",
    "load_channel",
    "make_bac",
    "make_bsc",
    "assemble_distortion",
    "assemble_log_distortion",
    "exact_bit_variance",
    "exact_distortion",
    "log_bit_variances",
    "BudgetExceededError",
    "DegenerateChannelError",
    "InfiniteLogRatioError",
    "ValidationError",
    "DepthBoundsReport",
    "EfficiencyReport",
    "TransmissionPattern",
    "aurelian",
    "check_efficient_properties",
    "depth_bounds",
    "efficient_search",
    "enumerate_patterns",
    "log_lower_bound",
    "log_upper_bound",
    "lower_bound",
    "parse_pattern",
    "pattern",
    "upper_bound",
    "DistortionEstimate",
    "NonuniformReport",
    "SimConfig",
    "SweepResult",
    "SweepRow",
    "aurelian_sweep",
    "estimate_distortion",
    "nonuniform_experiment",
    "trial_values",
    "PriorSpec",
    "from_uniform",
    "load_prior",
    "power_prior",
    "uniform_prior",
]
