"""Exception hierarchy shared across the package.

Two families matter to callers: validation failures (bad channels, priors,
patterns, config files) and budget refusals (enumerations that would exceed
the configured size limits, Monte-Carlo estimates that have lost all
precision). The CLI maps them to exit codes 2 and 3.
"""


class ValidationError(ValueError):
    """Invalid input: bad probabilities, malformed config, out-of-support values."""


class DegenerateChannelError(ValidationError):
    """Channel with boundary transition probabilities (0 or 1); noiseless regime unsupported."""


class InfiniteLogRatioError(ValidationError):
    """An output symbol has mass under exactly one of f0, f1, so |log f1/f0| is infinite."""


class BudgetExceededError(RuntimeError):
    """A budget the code cannot resolve: an exact enumeration over its size
    budget, or a Monte-Carlo estimate with no precision left."""
