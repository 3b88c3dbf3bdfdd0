"""Exception types shared across the package, and its parameter rules."""

import math
import numbers


def positive(name: str, value) -> float:
    """``value`` as a float; a ``ValueError`` unless it is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return float(value)


def whole(name: str, value, least: int) -> int:
    """``value`` as an int; a ``ValueError`` unless an integer >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class AcflowError(Exception):
    """Base class for package-specific failures."""


class NumericRangeError(AcflowError):
    """A value a step forms left its range: a field outside the Flory-Huggins
    domain (-1, 1), a shaping ratio or kappa*g out of range, or a non-finite
    state.  ``step`` re-raises it as a ``NumericFailure``."""


class NumericFailure(AcflowError):
    """A time step failed: it produced non-finite or out-of-domain data or, as
    ``harness.InvariantViolation``, broke a checked guarantee.  Carries the
    failing step index, the time ``t`` the step started from and its size
    ``tau``; the message names all three."""

    def __init__(self, message: str, step: int, t: float, tau: float):
        super().__init__(message, step, t, tau)  # all four, so it unpickles
        self.step, self.t, self.tau = step, t, tau

    def __str__(self):
        return (f"step {self.step} from t={float(self.t)!r} with "
                f"tau={float(self.tau)!r}: {self.args[0]}")
