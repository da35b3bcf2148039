"""Exception hierarchy for the dpsde package.

Everything raised on purpose derives from :class:`DPSDEError` so callers
(tests, the CLI) can distinguish domain failures from genuine bugs.
"""


class DPSDEError(Exception):
    """Base class for all dpsde domain errors."""


class AlphaOutOfRange(DPSDEError):
    """alpha violates alpha < 1 (or is not finite)."""


class BetaOutOfRange(DPSDEError):
    """beta violates beta < 1 (or is not finite)."""


class RhoTooLarge(DPSDEError):
    """|alpha*beta| >= (1-alpha)(1-beta), i.e. |rho| >= 1."""


class NonPositiveHorizon(DPSDEError):
    """Time horizon is not a finite positive real."""


class InvalidGrid(DPSDEError):
    """Grid construction with a step count that is not a whole number >= 1, or a non-positive horizon."""


class DelayNotAligned(DPSDEError):
    """A delay parameter n that is not a whole number >= 1, or a delay 1/n not a whole number of grid steps."""


class DelayTooFine(DPSDEError):
    """Delay 1/n is shorter than one grid step (lag of zero steps)."""


class NegativeStart(DPSDEError):
    """Skorohod map applied to a path with y_0 < 0."""


class EmptyInput(DPSDEError):
    """skorohod_map of an empty path, its only raiser."""


class DegenerateFit(DPSDEError):
    """Rate fit with fewer than 3 points or non-positive estimates."""


class NonFiniteStart(DPSDEError, ValueError):
    """Initial condition x0 is not finite."""


class NonZeroStart(DPSDEError):
    """The running-extrema scheme was asked to start from x0 != 0."""


class NonFinitePath(DPSDEError):
    """A simulated path produced a non-finite per-path statistic."""


class UnknownFormat(DPSDEError, ValueError):
    """A path output format other than csv or json."""


class InvalidWorkerCount(DPSDEError, ValueError):
    """A worker count outside 1..64, or above 1 without os.fork."""


class UnknownScheme(DPSDEError, ValueError):
    """A scheme name that the caller does not run."""


class InvalidOption(DPSDEError, ValueError):
    """A command-line flag or config-file value or line that does not parse."""


class InvalidStudy(DPSDEError, ValueError):
    """A study with no n, a repeated n or p, an n or path count not a whole number, a p not finite and >= 1, under
    2 paths, a grid horizon other than its parameters' horizon, or arrays too large to address."""


class MomentOutOfRange(DPSDEError):
    """A study row with a non-zero statistic whose largest stat**p, squared, is zero, subnormal or inf."""


class SeedOutOfRange(DPSDEError, ValueError):
    """A master seed or path index that is not a whole number in [0, 2**64), one word of the Philox key."""


class UndefinedTimeZero(DPSDEError, ValueError):
    """alpha + beta = 1 (to rounding) leaves the time-zero level x0/(1-alpha-beta) undefined."""


class InvalidIncrements(DPSDEError, ValueError):
    """Increments that are not 1-D or (paths, L), or whose step count is not the grid's L."""


class UnknownModel(DPSDEError, KeyError):
    """A model id that is not in the built-in catalog."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes
