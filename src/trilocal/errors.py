"""Exception types shared across the package."""


class TrilocalError(Exception):
    """Base class for all package errors."""


class FamilyMismatchError(TrilocalError, ValueError):
    """Operands belong to different bimodule families."""


class AlphabetMismatchError(TrilocalError, ValueError):
    """Free-algebra operands have different coefficient rings or alphabets."""


class UnsupportedRingError(TrilocalError, ValueError):
    """The requested reduction is not available over this ring."""


class UnsupportedFamilyError(TrilocalError, ValueError):
    """The requested operation is not available for this family."""


class CertificateError(TrilocalError):
    """A computed answer failed its own exact certificate."""


class BudgetExceededError(TrilocalError, RuntimeError):
    """An evaluation (a normal form in T(M,p), or an A or B value) exhausted its step budget."""

    def __init__(self, limit):
        super().__init__(f"evaluation exceeded the step budget of {limit}")
        self.limit = limit


class ParseError(TrilocalError, ValueError):
    """Expression text failed to parse; carries the failing offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class SchemaError(TrilocalError, ValueError):
    """A JSON descriptor or module spec violates its schema."""


def check_fields(obj, allowed, what):
    """SchemaError naming the first field of the JSON object obj that allowed lacks."""
    for field in obj:
        if field not in allowed:
            raise SchemaError(f"unknown field {field!r} in {what}; expected {', '.join(allowed)}")
