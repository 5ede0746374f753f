"""The exceptions the package raises past its own layers.

They live apart from the arithmetic that raises them, so the command line
can catch them without loading that arithmetic.
"""


class InexactDivision(ArithmeticError):
    """An exact division was requested but a remainder survived."""


class PrecisionError(ArithmeticError):
    """A valuation or division cannot be certified at the working precision.

    When a better bound is known, it is carried in .required as a hint for the
    caller (retry with at least that many digits).
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ResourceLimit(RuntimeError):
    """An input would take more enumeration than the package allows."""
