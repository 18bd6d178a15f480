"""Exception types shared across the package."""


class HeisencohError(Exception):
    """Base class for all library errors."""


class DomainError(HeisencohError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DimensionMismatchError(DomainError):
    """Operands carry incompatible lattice dimensions."""


class ParseError(HeisencohError, ValueError):
    """Malformed text input; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PrecisionError(HeisencohError, ArithmeticError):
    """The working precision cannot resolve the requested quantity; k is the
    mode whose divisor it cannot resolve, when the error names one."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class NonzeroMeanError(DomainError):
    """The mean coefficient obstructs solving the difference equation."""

    def __init__(self, mean):
        super().__init__(
            f"right-hand side has nonzero mean {mean!r}; "
            "the equation f - f∘γ = g requires a zero constant coefficient"
        )
        self.mean = mean


class ResonanceError(DomainError):
    """Vanishing divisors meet nonvanishing coefficients; modes are unsolvable."""

    def __init__(self, modes):
        ks = ", ".join(str(k) for k, _ in modes[:8])
        more = "" if len(modes) <= 8 else f" (+{len(modes) - 8} more)"
        super().__init__(f"resonant modes at k = {ks}{more}")
        # list of (k, coefficient magnitude); each divisor is 0
        self.modes = modes
