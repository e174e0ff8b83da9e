"""Exception types shared across the package."""


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
