"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: validation and parameter
problems exit 2, budget/resource refusals exit 3, anything unexpected 1.
Points that are not in general position (d+1 on a hyperplane, or d+2 on a
sphere for the circumradius colouring) are a ``ValidationError``, raised by
the geometric colouring that needs them.
"""


class ParameterError(ValueError):
    """An argument value is out of range or malformed."""


class BudgetError(RuntimeError):
    """An exhaustive operation would exceed its enumeration or attempt budget."""


def require_budget(needed: int, budget: int, layer: str, what: str, unit: str) -> None:
    """Raise ``BudgetError`` when ``needed`` exceeds ``budget``.

    The message names the engine layer (colour, index, search, verify or
    generator), the operation, the amount it needed and the budget.
    """
    if needed > budget:
        raise BudgetError(f"{layer} layer: {what} needs {needed} {unit}; budget is {budget}")


def require_exact(value):
    """``value`` itself, unless it is a float or a bool.

    The instance types and ``SymPoly`` pass their numbers through here, and
    file readers pass every JSON number before ``int`` or ``Fraction`` sees
    it, so no value is truncated, rounded or read as a binary fraction.
    """
    if isinstance(value, (float, bool)):
        raise ParameterError(
            f"{type(value).__name__} {value!r} is not an exact number; write an int or a string")
    return value


def require_array(value, length: int | None = None) -> list:
    """``value`` itself, if it is a JSON array, of ``length`` items when that is given.

    Python iterates a string or an object as if it were a list, so file
    readers pass every array of their format through here.
    """
    if not isinstance(value, list) or length not in (None, len(value)):
        items = "" if length is None else f" of {length} items"
        raise ParameterError(f"expected a JSON array{items}, got {value!r:.60}")
    return value


class ValidationError(ValueError):
    """An instance fails the validity requirements of a colouring."""
