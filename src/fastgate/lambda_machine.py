"""The pure-function engine: a closed registry of packages and a dispatcher.

Calls have no side effects and are deterministic: the same request yields
the same serialized result every time, so any two requests commute.  The
four dispatch modes are apply, map, reduce and filter.  A map, reduce or
filter runs on the calling thread, one element after another; `serve`
gets parallelism from running whole data-parallel requests in worker
processes (see `workers`), not from splitting one call.

Every single call goes through `bind_and_call`, which binds the payload,
checks the binding against the handle's arity bounds (computed once, at
registration, or when a function value is built: a function value is a
handle), calls, and returns a result whose exact type is a finite
float, an int, a str, a bool or None without a walk.  Any other result
takes the full check.

A map, reduce or filter does its per-target work once per call, not once
per element: it looks up the function, its arity bounds and the purity
flag before the element loop, and spreads each in-bounds array element
straight into the function, with the same body-error mapping and result
check that `bind_and_call` makes.  Any other element, and every element
under check_purity, go through `bind_and_call`.  Map and filter share one
element loop, `_each`, which also refuses a filter verdict that is not a
bool; reduce has its own loop over pairs.

With check_purity set, `bind_and_call` tests purity on every call, from any
route or combinator: it calls on the input, then on a parse of the input's
saved text, and raises PurityViolation if the first call changed its input
or the results differ.  Unset, it costs one attribute test per call.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from itertools import compress
from math import isfinite
from typing import Callable, Optional

from .errors import (
    ArityMismatch,
    DomainError,
    DuplicatePackage,
    EmptyReduce,
    FastError,
    FunctionNotFound,
    AmbiguousFunction,
    InvalidValue,
    ModuleNotAvailable,
    NotAnArray,
    ParseError,
    PurityViolation,
    UnknownParameter,
    UnserializableResult,
)
from .values import MAX_DEPTH, Value, canonical_json, validate_value

COMBINATORS = ("apply", "map", "reduce", "filter")

MODULE_NOT_AVAILABLE = "Module not available"


@dataclass(frozen=True)
class FunctionRef:
    module: str
    function: str


class FunctionHandle:
    """A registered function plus its declared parameter names and arity bounds."""

    def __init__(self, module: Optional[str], name: str, fn: Callable):
        self.module = module
        self.name = name
        self.label = f"{module}.{name}"
        self.fn = fn
        parameters = inspect.signature(fn).parameters.values()
        kinds = {p.kind for p in parameters}
        # kinds are ordered: positional-only, positional-or-keyword, then the rest
        positional = [p for p in parameters if p.kind <= p.POSITIONAL_OR_KEYWORD]
        self.params = [p.name for p in positional]
        self.required = [p.name for p in positional if p.default is p.empty]
        self.var_positional = inspect.Parameter.VAR_POSITIONAL in kinds
        self.var_keyword = inspect.Parameter.VAR_KEYWORD in kinds
        # the array lengths _check_binding accepts for a positional-only call
        self.min_args = max(1, len(self.required))
        self.max_args = float("inf") if self.var_positional else len(self.params)


class FunctionValue(FunctionHandle):
    """Opaque callable produced by a higher-order function.

    It is a handle with no module, so it is bound, checked and called as a
    registered function is, and its callable must likewise have a signature.
    It lives only inside an evaluation; returning one to the wire is an error.
    """

    def __init__(self, fn: Callable, label: str = "function"):
        super().__init__(None, label, fn)
        self.label = label

    def __repr__(self):
        return f"<FunctionValue {self.label}>"


def _bind(target: FunctionHandle, payload: Value):
    """Bind an argument payload, check it against the handle's signature and
    call: arrays positionally, objects by name.

    Any other value is passed as a single positional argument.  `target`
    is any handle, a FunctionValue included.
    """
    if isinstance(payload, list):
        args, kwargs = payload, {}
    elif isinstance(payload, dict):
        args, kwargs = [], payload
    else:
        args, kwargs = [payload], {}
    _check_binding(target, args, kwargs)
    try:
        return target.fn(*args, **kwargs)
    except _BODY_ERRORS as exc:
        raise _body_error(target, exc) from None


# what a function body may raise that becomes a gateway error
_BODY_ERRORS = (TypeError, ValueError, ArithmeticError)


def _body_error(target: FunctionHandle, exc: Exception) -> FastError:
    """The gateway error for an exception in _BODY_ERRORS raised by a call of
    `target`; the binding was already checked, so even a TypeError came from
    the body."""
    if isinstance(exc, ZeroDivisionError):
        return DomainError(f"{target.label}: division by zero")
    return DomainError(f"{target.label}: {exc}")


def _check_binding(handle: FunctionHandle, args: list, kwargs: dict) -> None:
    if args and not kwargs:
        if not handle.min_args <= len(args) <= handle.max_args:
            if handle.var_positional:
                expected = f"at least {len(handle.required)}"
            else:
                expected = len(handle.params)
            raise ArityMismatch(f"{handle.label} expects {expected} arguments, got {len(args)}")
        return
    if not handle.var_keyword:
        unknown = sorted(set(kwargs) - set(handle.params))
        if unknown:
            raise UnknownParameter(
                f"{handle.label} got unexpected parameter(s): {', '.join(unknown)}"
            )
    missing = sorted(set(handle.required) - set(kwargs))
    if missing:
        raise ArityMismatch(
            f"{handle.label} missing required parameter(s): {', '.join(missing)}"
        )


def _checked_result(result):
    """Validate a function result; FunctionValue passes only at the top level.

    This is the one deep walk for function values: every call goes through
    it, so every other exit only has to test the top level.  A nested
    function value always fails validation, so it is looked for only then.
    """
    kind = type(result)
    if kind is float:
        if isfinite(result):
            return result
    elif kind is int or kind is str or kind is bool or result is None:
        return result
    if isinstance(result, FunctionValue):
        return result
    try:
        validate_value(result, what="result")
    except InvalidValue as exc:
        if _contains_function_value(result, MAX_DEPTH):
            raise UnserializableResult(
                "result contains a function value and cannot be serialized"
            ) from None
        raise DomainError(f"function produced an invalid result: {exc.message}") from None
    return result


def _contains_function_value(value, budget: int) -> bool:
    """Search as deep as validation looks, so a deep result cannot overflow the stack."""
    if budget < 0:
        return False
    if isinstance(value, FunctionValue):
        return True
    if isinstance(value, list):
        return any(_contains_function_value(v, budget - 1) for v in value)
    if isinstance(value, dict):
        return any(_contains_function_value(v, budget - 1) for v in value.values())
    return False


def _element_error(exc: Exception, combinator: str, index: int) -> FastError:
    message = f"{combinator} element {index}: {getattr(exc, 'message', exc)}"
    if isinstance(exc, FastError) and not isinstance(exc, ParseError):
        return type(exc)(message)
    return DomainError(message)


class LambdaMachine:
    """Registry and dispatcher; fully thread-safe once registration is done.

    Registration is a startup-only phase; after it, any number of request
    handlers may invoke concurrently.
    """

    # perfbench/traced_serve.py rebinds this, never calls it; it goes when ROADMAP item 1 stops that.
    _executor = None

    def __init__(self, check_purity: bool = False):
        self.check_purity = check_purity
        self._packages: dict[str, dict[str, FunctionHandle]] = {}
        # called as a map, reduce or filter is about to loop over an array;
        # a gateway sets it to hand the request to a worker
        self.before_loop = lambda: None

    # --- registry

    def register_package(self, name: str, functions: dict[str, Callable]) -> None:
        if name in self._packages:
            raise DuplicatePackage(f"package already registered: {name}")
        self._packages[name] = {
            fname: FunctionHandle(name, fname, fn) for fname, fn in functions.items()
        }

    def packages(self) -> list[str]:
        return sorted(self._packages)

    def lookup(self, ref: FunctionRef) -> FunctionHandle:
        if ref.module not in self._packages:
            raise ModuleNotAvailable(MODULE_NOT_AVAILABLE)
        handle = self._packages[ref.module].get(ref.function)
        if handle is None:
            raise FunctionNotFound(f"Function not found: {ref.module}.{ref.function}")
        return handle

    def resolve_path(self, path: str) -> Optional[FunctionHandle]:
        """The function that a decoded `/lambda/<module>/<function>` or
        `/lambda/<function>` path names; None for any other number of
        segments.  Empty segments do not count."""
        segments = [seg for seg in path.split("/")[2:] if seg]
        if len(segments) == 2:
            return self.lookup(FunctionRef(*segments))
        if len(segments) == 1:
            return self.resolve_unique(segments[0])
        return None

    def resolve_unique(self, function: str) -> FunctionHandle:
        """Find a function by bare name; it must be unique across packages."""
        matches = [
            pkg for pkg in sorted(self._packages) if function in self._packages[pkg]
        ]
        if not matches:
            raise FunctionNotFound(f"Function not found: {function}")
        if len(matches) > 1:
            raise AmbiguousFunction(
                f"function {function!r} is ambiguous across packages: "
                f"{', '.join(matches)}"
            )
        return self._packages[matches[0]][function]

    # --- evaluation

    def bind_and_call(self, target, payload: Value):
        """One pure call of a handle or function value with a bound payload."""
        if self.check_purity:
            return self._purity_checked_call(target, payload)
        return _checked_result(_bind(target, payload))

    def _purity_checked_call(self, target, payload: Value):
        """Call twice, the second time on a fresh copy of the input.

        An input JSON cannot encode (one holding a function value) goes to
        both calls as is.  Two function-value results count as equal, and
        the first is returned for the caller's exit guard to reject.
        """
        text = _serialized(payload)
        first = _checked_result(_bind(target, payload))
        if text is not None and _serialized(payload) != text:
            raise PurityViolation(f"purity check failed: {target.label} changed its input")
        second = _checked_result(_bind(target, payload if text is None else json.loads(text)))
        if _serialized(first) != _serialized(second):
            raise PurityViolation(
                f"purity check failed: {target.label} returned differing results"
            )
        return first

    def run(self, target, combinator: str, data: Value):
        """Dispatch one of apply/map/reduce/filter over already-fetched data."""
        if combinator not in COMBINATORS:
            raise InvalidValue(
                f"to_do must be one of {', '.join(COMBINATORS)}, got {canonical_json(combinator)}"
            )
        if combinator == "apply":
            return self.bind_and_call(target, data)
        if not isinstance(data, list):
            raise NotAnArray(f"{combinator} requires an array payload")
        self.before_loop()
        if combinator == "map":
            return self._each(target, data, "map")
        if combinator == "reduce":
            return self._reduce(target, data)
        return self._filter(target, data)

    def invoke(self, ref: FunctionRef, combinator: str, data: Value):
        """Resolve `ref`, then dispatch over `data`."""
        return self.run(self.lookup(ref), combinator, data)

    # perfbench/traced_serve.py wraps this name; it goes when ROADMAP item 1 stops that.
    invoke_checked = invoke

    # --- combinators

    def _spread_lengths(self, target) -> tuple:
        """The (lowest, highest) array length spread straight into target.fn."""
        if self.check_purity:
            return 1, 0  # none: every element goes through bind_and_call
        return target.min_args, target.max_args

    def _each(self, target, data: list, combinator: str) -> list:
        """The checked results of `target` on each element of `data`, in order.

        An in-bounds array element is spread straight into target.fn; any
        other element goes through bind_and_call.  A finite float or a bool
        skips the result check, which would return it unchanged.  A filter's
        verdict must be a bool, tested here so that the first failing
        element wins; a map's function values are refused after the loop,
        so an element's error outranks an earlier element's function value.
        """
        fn, call = target.fn, self.bind_and_call
        low, high = self._spread_lengths(target)
        verdicts = combinator == "filter"
        results, functions = [], False
        try:
            for element in data:
                if type(element) is list and low <= len(element) <= high:
                    try:
                        result = fn(*element)
                    except _BODY_ERRORS as exc:
                        raise _body_error(target, exc) from None
                    if type(result) is not float or not isfinite(result):
                        if type(result) is not bool:
                            result = _checked_result(result)
                            functions = functions or isinstance(result, FunctionValue)
                else:
                    result = call(target, element)
                    functions = functions or isinstance(result, FunctionValue)
                if verdicts and result is not True and result is not False:
                    # a function value has no JSON spelling: its label names it
                    got = (result.label if isinstance(result, FunctionValue)
                           else canonical_json(result))
                    raise DomainError(f"filter predicate must return a boolean, got {got}")
                results.append(result)
        except Exception as exc:
            # the failing element is the one after the last result
            raise _element_error(exc, combinator, len(results)) from None
        # a function value is only meaningful as a whole result, never as
        # an array element nothing can consume; a filter refused it above
        if functions:
            raise UnserializableResult("map produced function values")
        return results

    def _filter(self, target, data: list) -> list:
        return list(compress(data, self._each(target, data, "filter")))

    def _reduce(self, target, data: list):
        if not data:
            raise EmptyReduce("reduce of empty array")
        fn, call = target.fn, self.bind_and_call
        low, high = self._spread_lengths(target)
        spread = low <= 2 <= high
        accumulator = data[0]
        try:
            for index in range(1, len(data)):
                if spread:
                    try:
                        accumulator = fn(accumulator, data[index])
                    except _BODY_ERRORS as exc:
                        raise _body_error(target, exc) from None
                    if type(accumulator) is not float or not isfinite(accumulator):
                        accumulator = _checked_result(accumulator)
                else:
                    accumulator = call(target, [accumulator, data[index]])
        except Exception as exc:
            raise _element_error(exc, "reduce", index) from None
        return _checked_result(accumulator)


def _serialized(value) -> Optional[str]:
    """The canonical text of a value, or None for one JSON cannot encode."""
    try:
        return canonical_json(value)
    except (TypeError, ValueError):
        return None
