"""Exception hierarchy shared across the toolkit."""


def format_point(point) -> str:
    """A point as plain floats, the way every error message shows one."""
    return "(" + ", ".join(repr(float(c)) for c in point) + ")"


class InstabError(Exception):
    """Base class for all toolkit errors."""


# --- expression language ---------------------------------------------------

class ExprError(InstabError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


class UnknownIdentifier(ExprError):
    def __init__(self, name, line, column):
        super().__init__(f"unknown identifier {name!r} at {line}:{column}")
        self.name = name
        self.line = line
        self.column = column


class DimensionExceeded(ExprError):
    def __init__(self, index, dimension, line, column):
        super().__init__(f"variable x{index} exceeds declared dimension "
                         f"{dimension} at {line}:{column}")
        self.index = index
        self.dimension = dimension
        self.line = line
        self.column = column


class DomainError(InstabError):
    """Division by zero, ln of a non-positive value, sqrt of a negative."""


class NonFiniteResult(InstabError):
    """Evaluation produced an inf or nan."""


# --- geometry --------------------------------------------------------------

class SingularMetric(InstabError):
    """Metric matrix not positive definite at the evaluated point."""


class SingularJacobian(InstabError):
    pass


# --- dynamics --------------------------------------------------------------

class IntegrationError(InstabError):
    pass


class StepSizeUnderflow(IntegrationError):
    pass


class EnergyDriftExceeded(IntegrationError):
    def __init__(self, drift, bound):
        super().__init__(
            f"relative energy drift {drift:.3e} exceeds bound {bound:.3e}"
        )
        self.drift = drift
        self.bound = bound


# --- charts ----------------------------------------------------------------

class GradientTooSmall(InstabError):
    def __init__(self, point, norm):
        self.point = tuple(float(c) for c in point)
        super().__init__(f"gradient norm {norm:.3e} below threshold at "
                         f"{format_point(self.point)}")
        self.norm = norm


class IdentityViolation(InstabError):
    def __init__(self, message, point=None, residual=None):
        super().__init__(message)
        self.point = point
        self.residual = residual


class OrderDependence(InstabError):
    """Composing the chart flows in two orders disagrees beyond tolerance."""


# --- certify ---------------------------------------------------------------

class EmptyShell(InstabError):
    def __init__(self, delta, attempts):
        super().__init__(
            f"no sample with potential in [{delta:.3e}, {10 * delta:.3e}] "
            f"after {attempts} attempts"
        )
        self.delta = delta
        self.attempts = attempts


# --- harness ---------------------------------------------------------------

class ValidationError(InstabError):
    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class NoPositiveDrift(InstabError):
    def __init__(self, level, threshold):
        super().__init__(
            f"maximum drift level {level:.3e} does not exceed threshold "
            f"{threshold:.3e}; no escape at this horizon"
        )
        self.level = level
        self.threshold = threshold
