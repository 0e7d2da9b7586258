"""Exception types shared across the package."""


class QuantumStateError(ValueError):
    """Base class for invalid quantum-state inputs."""


class NotFinite(QuantumStateError):
    pass


class NotHermitian(QuantumStateError):
    pass


class TraceNotOne(QuantumStateError):
    pass


class NotPositive(QuantumStateError):
    pass


class BadDimension(QuantumStateError):
    pass


class BadRank(QuantumStateError):
    pass


class NegativeStrength(QuantumStateError):
    pass


class DomainError(QuantumStateError):
    pass


class NoConvergence(RuntimeError):
    """Basis optimization failed to reach the requested tolerance.

    Carries the best value found so far in ``best_value``.
    """

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        self.best_value = best_value
