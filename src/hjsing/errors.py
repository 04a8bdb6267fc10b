"""Exception types shared across the package."""


class NumericsError(Exception):
    """Base class for numerical failures."""


class NoConvergence(NumericsError):
    """An iterative procedure exhausted its iteration budget."""


class NotConvex(NumericsError):
    """A velocity Hessian lost positive definiteness along a root-find path."""


class ExponentOverflow(NumericsError):
    """A discount exponent exceeded the representable / configured range."""


class BlowUp(NumericsError):
    """A Hamiltonian trajectory left the configured state bound."""


class BoundaryClipped(NumericsError):
    """A localization ball exits the grid box, so the search would be biased."""


class DegenerateSample(NumericsError):
    """All second-difference probes collapsed below tolerance."""


class ConcavityFailure(NumericsError):
    """The step objective failed its strict-concavity margin on the ball."""


class NonUniqueArgmax(NumericsError):
    """Tied maximizers persisted beyond tolerance after step halving."""


class ScheduleStall(NumericsError):
    """The step-size schedule underflowed and the curve cannot advance."""


class NoMinimizer(NumericsError):
    """A search ball holds no candidate of finite cost for its query."""


class InvalidProblem(NumericsError):
    """The operation is not defined for this kind of problem/field."""


class ConfigError(Exception):
    """Malformed run configuration."""
