"""JSON-compatible values: the universal currency of both engines.

A value is null, a boolean, a finite number, a string, or an array/object
of values, nested at most MAX_DEPTH deep.  NaN and infinity are rejected
at every boundary so they can neither enter nor leave the system.

The strict decoder and the canonical encoder are built once, at import,
and shared by every call and thread: neither keeps state between calls.
"""

from __future__ import annotations

import copy
import json
from math import isfinite
from typing import Any, Union

from .errors import InvalidValue

Value = Union[None, bool, int, float, str, list, dict]

MAX_DEPTH = 64


def validate_value(value: Any, *, what: str = "value", depth: int = MAX_DEPTH) -> None:
    """Check that `value` is a well-formed tree; raise InvalidValue otherwise."""
    _validate(value, depth, what)


def _validate(value: Any, budget: int, what: str) -> None:
    if budget < 0:
        raise InvalidValue(f"{what} exceeds nesting depth {MAX_DEPTH}")
    # A child whose exact type is a JSON scalar is checked in the loop, with
    # no call per leaf.  Any other child (a container, a subclass, a foreign
    # type, or any child at all below the last level) takes a call, so the
    # first failure and its message are those of a call per node.
    child = budget - 1
    if isinstance(value, list):
        for item in value:
            kind = type(item)
            if child < 0 or not (
                kind is float or kind is str or kind is int or kind is bool or item is None
            ):
                _validate(item, child, what)
            elif kind is float and not isfinite(item):
                raise InvalidValue(f"{what} contains a non-finite number")
    elif isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise InvalidValue(f"{what} has a non-string object key: {key!r}")
            kind = type(item)
            if child < 0 or not (
                kind is float or kind is str or kind is int or kind is bool or item is None
            ):
                _validate(item, child, what)
            elif kind is float and not isfinite(item):
                raise InvalidValue(f"{what} contains a non-finite number")
    elif isinstance(value, float):
        if not isfinite(value):
            raise InvalidValue(f"{what} contains a non-finite number")
    elif not (value is None or isinstance(value, (bool, int, str))):
        raise InvalidValue(f"{what} contains a non-JSON type: {type(value).__name__}")


# perfbench/traced_serve.py wraps this name; it goes when ROADMAP item 1 stops that.
def copy_value(value: Value) -> Value:
    return copy.deepcopy(value)


def reject_constant(name: str) -> None:
    """json's parse_constant hook: NaN, Infinity and -Infinity are not values."""
    raise ValueError(f"non-finite JSON constant {name} not allowed")


DECODER = json.JSONDecoder(parse_constant=reject_constant)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(value: Value) -> str:
    """Deterministic serialization: sorted keys, compact separators, no NaN."""
    return _ENCODER.encode(value)


def loads_strict(text: str, *, what: str = "payload", depth: int = MAX_DEPTH) -> Value:
    """Parse JSON text, rejecting NaN/Infinity and enforcing value invariants.

    `text` is read as json.loads reads a str, with the same errors.
    """
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        value = DECODER.decode(text)
    except ValueError as exc:
        raise InvalidValue(f"malformed JSON in {what}: {exc}") from None
    except RecursionError:
        raise InvalidValue(f"{what} exceeds nesting depth {MAX_DEPTH}") from None
    validate_value(value, what=what, depth=depth)
    return value


def parse_scalar(text: str) -> Value:
    """JSON-parse a query-string value, falling back to the raw string.

    "35.05" becomes a number, "true" a boolean, "\"x\"" the string x;
    anything unparseable stays a plain string.
    """
    try:
        return loads_strict(text)
    except InvalidValue:
        return text
