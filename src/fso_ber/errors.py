"""Exception types and the input checks shared across the package; each check
raises ``ValueError("<name>: must be ... (got <value>)")``, naming the argument."""

import math
import numbers
import sys
from typing import NoReturn


class RegimeError(ValueError):
    """Inputs outside the regime a model or approximation covers."""


class GeometryError(ValueError):
    """Receiver geometry incompatible with the small-aperture beam model."""


class ConfigError(ValueError):
    """Invalid run configuration; collects every problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class IntegrandError(RuntimeError):
    """The integrand returned a non-finite value at a specific abscissa."""

    def __init__(self, abscissa, value):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand returned {value!r} at x = {abscissa!r}")


class NonConvergenceError(RuntimeError):
    """A quadrature-backed quantity could not be computed to the requested tolerance."""


class BracketError(RuntimeError):
    """No power bracket straddling the requested BER threshold could be found."""


class NonMonotoneError(RuntimeError):
    """BER samples are not monotone in transmit power; crossing search aborted."""


def refuse(name: str, what: str, value) -> NoReturn:
    raise ValueError(f"{name}: must be {what} (got {value!r})")


# numpy's scalars pass the number checks below; bool is a number to Python,
# but no input of this package, so they refuse it
def check_integer(name: str, value, least: int) -> None:
    """Refuse ``value`` unless it is an integer >= ``least``: a count or a seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        refuse(name, "an integer", value)
    if value < least:
        refuse(name, f">= {least}", value)


def check_number(name: str, value, least: float = -math.inf) -> None:
    """Refuse ``value`` unless it is a finite real number >= ``least``; an int
    beyond the float range is not finite here, as it has no float."""
    # a float skips the ABC check, which costs ten times the rest
    if not ((type(value) is float or isinstance(value, numbers.Real)
             and not isinstance(value, bool)) and abs(value) <= sys.float_info.max):
        refuse(name, "a finite number", value)
    if value < least:
        refuse(name, f">= {least:g}", value)


def check_positive(name: str, value) -> None:
    """Refuse ``value`` unless it is a finite number > 0."""
    check_number(name, value)
    if not value > 0.0:
        refuse(name, "> 0", value)


def check_threshold(name: str, value) -> None:
    """Refuse ``value`` unless it is a BER threshold, a number in (0, 0.5)."""
    check_number(name, value)
    if not 0.0 < value < 0.5:
        refuse(name, "in (0, 0.5)", value)


def check_members(name: str, values, kind: type) -> None:
    """Refuse ``values`` unless every entry is a ``kind``; the strays are named once each."""
    try:
        strays = sorted({repr(v) for v in values if not isinstance(v, kind)})
    except TypeError:  # not iterable
        refuse(name, f"a collection of {kind.__name__} members", values)
    if strays:
        raise ValueError(f"{name}: must be {kind.__name__} members (got {', '.join(strays)})")
