"""Exception hierarchy shared by all modules."""


class QpisdeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QpisdeError, ValueError):
    """An argument violates a documented precondition."""


class SingularStepError(QpisdeError, ArithmeticError):
    """A step has a vanishing divisor: mu*dt = 1 for drift-implicit EM, 3 for the two-step block."""
