"""Exception types shared across the package.

Two broad families: configuration/validation problems (bad parameters,
malformed config files) and numeric failures (an algorithm could not
deliver its advertised guarantee).  The CLI maps the first family to
exit code 1 and the second to exit code 2.
"""


class BurstkinError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(BurstkinError):
    """A run could not even start: bad input, bad parameters."""


class ModelError(ConfigError, ValueError):
    """Model parameters violate a structural constraint."""


class ParseError(ConfigError):
    """A config file line could not be parsed."""


class ValidationError(ConfigError):
    """A parsed config carries an unknown key or an out-of-range value."""


class NumericError(BurstkinError):
    """An algorithm failed to meet its numeric contract."""


class TailNotConverged(NumericError):
    """Truncation index too small: noticeable mass sits in the top indices."""


class NotNormalizable(NumericError):
    """The requested stationary law has no finite normalization."""


class NotIntegrable(NumericError):
    """A density integral diverges; no stationary density exists."""


class ToleranceNotMet(NumericError):
    """A result missed its tolerance: log_quad's sums never agreed, or the
    kernel fixed point's residual stayed above its bound."""


class NoConvergence(NumericError):
    """An iteration stopped short of its tolerance.  Nothing in burstkin
    raises it now; it stays exported for callers that catch it."""


class NumericalBlowup(NumericError):
    """Intermediate values left the representable range."""


class DomainError(NumericError):
    """A function was evaluated outside its domain."""


class RangeError(NumericError):
    """An inverse was requested for a value outside the attained range."""


class GridTooNarrow(NumericError):
    """The quadrature grid misses too much mass for the requested operation."""


class GridMismatch(NumericError):
    """Two gridded objects do not live on a common grid or support."""


class WindowTooSmall(NumericError):
    """A scan window ends while the scanned function is still active."""
