"""Arithmetic packages: plain binary operators and a higher-order variant.

`add`, `subtract`, `multiply` and `divide` apply their operator at once to
two exact finite floats (for `divide`, with a nonzero divisor).  `_number`
would return such arguments unchanged, so the result is the same float.
Every other input, ints included, goes through `_number`: for an int too
large for a float, its `isfinite` raises OverflowError, which the engine
reports as a domain error.
"""

from __future__ import annotations

from math import isfinite

from ..errors import DomainError
from ..lambda_machine import FunctionValue


def _number(name, x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"{name} must be a number, got {type(x).__name__}")
    if not isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def add(a, b):
    if type(a) is float and type(b) is float and isfinite(a) and isfinite(b):
        return a + b
    return _number("a", a) + _number("b", b)


def subtract(a, b):
    if type(a) is float and type(b) is float and isfinite(a) and isfinite(b):
        return a - b
    return _number("a", a) - _number("b", b)


def multiply(a, b):
    if type(a) is float and type(b) is float and isfinite(a) and isfinite(b):
        return a * b
    return _number("a", a) * _number("b", b)


def divide(a, b):
    if (
        type(a) is float and type(b) is float
        and isfinite(a) and isfinite(b) and b != 0.0
    ):
        return a / b
    _number("a", a)
    if _number("b", b) == 0:
        raise DomainError("division by zero")
    return a / b


def curried_add(x):
    """Partial application: returns a function that adds x to its argument."""
    _number("x", x)

    def _inner(y):
        return x + _number("y", y)

    return FunctionValue(_inner, label=f"add({x!r})")


BASIC_FUNCTIONS = {
    "add": add,
    "subtract": subtract,
    "multiply": multiply,
    "divide": divide,
}

HIGHER_ORDER_FUNCTIONS = {
    "add": curried_add,
}
