"""Exception types shared across the package."""

import math


class CartesianCodeError(Exception):
    """Base class for all library errors."""


class NotPrimeError(CartesianCodeError, ValueError):
    """A claimed prime (or prime power) is not one."""


class TooLargeError(CartesianCodeError, ValueError):
    """A field exceeds the configured size cap."""


class InvalidFieldCapError(CartesianCodeError, ValueError):
    """CARTESIAN_MAX_FIELD is set to something other than a positive integer."""


class FieldMismatchError(CartesianCodeError, ValueError):
    """Operands belong to different fields, or a code is out of range."""


class NotADivisorError(CartesianCodeError, ValueError):
    """Requested subgroup order does not divide q - 1."""


class ArityMismatchError(CartesianCodeError, ValueError):
    """Variable counts of polynomial, point, or grid disagree."""


class EmptySetError(CartesianCodeError, ValueError):
    """A coordinate set is empty."""


class DuplicateElementError(CartesianCodeError, ValueError):
    """A coordinate set repeats an element; merge intent must be explicit."""


class OutOfRangeError(CartesianCodeError, ValueError):
    """A degree or parameter lies outside the range where an operation is defined."""


class LengthMismatchError(CartesianCodeError, ValueError):
    """Message length does not match the generator matrix."""


class InvalidFieldError(CartesianCodeError, ValueError):
    """The field order does not satisfy a construction's hypothesis."""


class SearchExceededError(CartesianCodeError, RuntimeError):
    """No admissible field was found below the size cap."""


class BudgetExceededError(CartesianCodeError, RuntimeError):
    """An enumeration would exceed the oracle budget.

    Carries the required count so callers can shrink the instance.  The
    message gives the count in decimal, or, past the number of digits that
    Python converts (a q^K word count can have thousands), as a power of ten.
    """

    def __init__(self, required: int, limit: int):
        self.required = required
        self.limit = limit
        try:
            size = str(required)
        except ValueError:  # over sys.get_int_max_str_digits()
            size = f"about 10^{math.log10(required):.1f}"
        super().__init__(f"enumeration needs {size} items, budget allows {limit}")
