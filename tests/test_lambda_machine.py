import copy
import functools
import json
import random
import zlib

import pytest
from hypothesis import given, strategies as st

from fastgate.builtin_packages import register_builtins
from fastgate import lambda_machine
from fastgate.errors import (
    AmbiguousFunction,
    ArityMismatch,
    DomainError,
    DuplicatePackage,
    EmptyReduce,
    FastError,
    FunctionNotFound,
    InvalidValue,
    ModuleNotAvailable,
    NotAnArray,
    PurityViolation,
    UnknownParameter,
    UnserializableResult,
)
from fastgate.lambda_machine import (
    FunctionHandle,
    FunctionRef,
    FunctionValue,
    LambdaMachine,
    _contains_function_value,
)
from fastgate.values import MAX_DEPTH, canonical_json, validate_value

from test_values import _Level, _Name, _Real

TEST_FUNCTIONS = {
    "is_positive": lambda x: x > 0,
    "double": lambda x: x * 2,
    "add_pair": lambda a, b: a + b,
    "constant": lambda: 42,
    "bad_bool": lambda x: x,  # not a predicate: echoes its input
}


def make_machine():
    machine = LambdaMachine()
    register_builtins(machine)
    machine.register_package("checks", TEST_FUNCTIONS)
    return machine


@pytest.fixture
def machine():
    return make_machine()


def test_registry_listing_and_duplicates(machine):
    assert machine.packages() == [
        "basic_arithmetic",
        "checks",
        "higher_order_arithmetic",
        "pricer",
        "weather",
    ]
    with pytest.raises(DuplicatePackage):
        machine.register_package("checks", {})


def test_lookup_errors(machine):
    with pytest.raises(ModuleNotAvailable) as exc:
        machine.lookup(FunctionRef("nope", "f"))
    assert exc.value.message == "Module not available"
    with pytest.raises(FunctionNotFound):
        machine.lookup(FunctionRef("pricer", "nope"))


def test_unique_resolution(machine):
    handle = machine.resolve_unique("get_weather")
    assert handle.module == "weather"
    with pytest.raises(AmbiguousFunction) as exc:
        machine.resolve_unique("add")
    assert "basic_arithmetic" in exc.value.message
    assert "higher_order_arithmetic" in exc.value.message
    with pytest.raises(FunctionNotFound):
        machine.resolve_unique("no_such_fn")


def test_binding_shapes(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    assert machine.bind_and_call(add, [2, 3]) == 5  # array -> positional
    assert machine.bind_and_call(add, {"a": 2, "b": 3}) == 5  # object -> named
    double = machine.lookup(FunctionRef("checks", "double"))
    assert machine.bind_and_call(double, 7) == 14  # scalar -> single argument
    constant = machine.lookup(FunctionRef("checks", "constant"))
    assert machine.bind_and_call(constant, {}) == 42


def test_binding_errors(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    with pytest.raises(ArityMismatch):
        machine.bind_and_call(add, [1])
    with pytest.raises(ArityMismatch):
        machine.bind_and_call(add, [1, 2, 3])
    with pytest.raises(ArityMismatch):
        machine.bind_and_call(add, {"a": 1})
    with pytest.raises(UnknownParameter):
        machine.bind_and_call(add, {"a": 1, "b": 2, "c": 3})


def test_apply_map_reduce_filter_hand_cases(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    assert machine.run(add, "apply", [2, 3]) == 5
    assert machine.run(add, "map", [[1, 2], [3, 4]]) == [3, 7]
    assert machine.run(add, "reduce", [1, 2, 3, 4]) == 10
    assert machine.run(add, "reduce", [7]) == 7
    positive = machine.lookup(FunctionRef("checks", "is_positive"))
    assert machine.run(positive, "filter", [1, -2, 3, 0]) == [1, 3]
    assert machine.run(positive, "filter", []) == []
    assert machine.run(add, "map", []) == []


def test_reduce_is_a_left_fold(machine):
    subtract = machine.lookup(FunctionRef("basic_arithmetic", "subtract"))
    assert machine.run(subtract, "reduce", [10, 1, 2]) == (10 - 1) - 2


def test_combinator_error_cases(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    with pytest.raises(EmptyReduce):
        machine.run(add, "reduce", [])
    with pytest.raises(NotAnArray):
        machine.run(add, "map", 5)
    with pytest.raises(NotAnArray):
        machine.run(add, "filter", {"a": 1})
    echo = machine.lookup(FunctionRef("checks", "bad_bool"))
    with pytest.raises(DomainError) as exc:
        machine.run(echo, "filter", [3])
    assert "boolean" in exc.value.message


class _HandedOff(Exception):
    pass


@pytest.mark.parametrize("check_purity", [False, True], ids=["unchecked", "purity"])
def test_before_loop_sees_each_combinator_over_an_array_before_any_element(
    machine, check_purity
):
    machine.check_purity = check_purity
    calls = []
    counted = FunctionValue(lambda a, b=0: calls.append((a, b)) or a > b, "counted")
    seen = []
    machine.before_loop = lambda: seen.append(len(calls))
    assert machine.run(counted, "map", [[1], [2]]) == [True, True]
    assert machine.run(counted, "filter", [[0]]) == []
    assert machine.run(counted, "reduce", [[1], [2]]) is False
    with pytest.raises(EmptyReduce):
        machine.run(counted, "reduce", [])
    per_element = 2 if check_purity else 1
    assert seen == [0, 2 * per_element, 3 * per_element, 4 * per_element]
    # apply, a to_do that names no combinator and a non-array payload never loop
    machine.run(counted, "apply", [1])
    for combinator, data in (("Map", [[1]]), ("bogus", [[1]]), ("map", 1), ("filter", {})):
        with pytest.raises((InvalidValue, NotAnArray)):
            machine.run(counted, combinator, data)
    assert len(seen) == 4
    # a hook that hands the request off stops it before any element runs
    calls.clear()

    def hand_off():
        raise _HandedOff

    machine.before_loop = hand_off
    for combinator, data in (("map", [[1]]), ("filter", [[1]]), ("reduce", [[1], [2]]),
                             ("reduce", [])):
        with pytest.raises(_HandedOff):
            machine.run(counted, combinator, data)
    assert calls == []


def test_element_errors_carry_index_and_class(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    with pytest.raises(DomainError) as exc:
        machine.run(add, "map", [[1, 2], ["x", 4]])
    assert exc.value.message.startswith("map element 1:")
    divide = machine.lookup(FunctionRef("basic_arithmetic", "divide"))
    with pytest.raises(DomainError) as exc:
        machine.run(divide, "reduce", [8, 2, 0])
    assert exc.value.message.startswith("reduce element 2:")


def test_function_values_pass_only_at_top_level(machine):
    curried = machine.lookup(FunctionRef("higher_order_arithmetic", "add"))
    fn = machine.run(curried, "apply", [2])
    assert isinstance(fn, FunctionValue)
    assert machine.run(fn, "apply", 3) == 5
    assert machine.run(fn, "apply", [3]) == 5
    with pytest.raises(UnserializableResult):
        machine.run(curried, "map", [[1], [2]])  # list of function values


def test_a_function_value_is_bound_and_checked_as_a_handle(machine):
    fn = FunctionValue(lambda y, z=0: y + z, "f")
    assert (fn.min_args, fn.max_args, fn.label) == (1, 2, "f")
    for payload, error, message in (
        ([1, 2, 3], ArityMismatch, "f expects 2 arguments, got 3"),
        ({"y": 1, "w": 2}, UnknownParameter, "f got unexpected parameter(s): w"),
        ({"z": 1}, ArityMismatch, "f missing required parameter(s): y"),
    ):
        with pytest.raises(error) as caught:
            machine.run(fn, "apply", payload)
        assert caught.value.message == message
    # in-bounds array elements are spread straight into the function
    unspread = []
    spreading = LambdaMachine()
    spreading.bind_and_call = lambda target, payload: unspread.append(payload)
    assert spreading.run(fn, "map", [[1], [1, 2]]) == [1, 3]
    assert unspread == []
    # the binding was checked, so a TypeError came from the body
    with pytest.raises(DomainError) as caught:
        machine.run(FunctionValue(lambda text: "-".join(text), "join"), "apply", 5)
    assert caught.value.message == "join: can only join an iterable"


def test_nonfinite_results_are_domain_errors(machine):
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    with pytest.raises(DomainError):
        machine.run(add, "apply", [1e308, 1e308])


def test_bad_combinator_rejected(machine):
    with pytest.raises(InvalidValue):
        machine.invoke(FunctionRef("basic_arithmetic", "add"), "bogus", [1, 2])
    add = machine.lookup(FunctionRef("basic_arithmetic", "add"))
    with pytest.raises(InvalidValue):
        machine.run(add, "bogus", [1, 2])
    # the mode is checked before the data's shape
    with pytest.raises(InvalidValue) as caught:
        machine.run(add, "bogus", 3)
    assert caught.value.http_status == 400


def test_invoke_with_resource_source(machine):
    # the gateway fetches a `uri` source itself and passes the value inline
    add = FunctionRef("basic_arithmetic", "add")
    assert machine.invoke(add, "map", [[1, 2], [3, 4]]) == [3, 7]


def test_purity_verification(machine):
    checked = LambdaMachine(check_purity=True)
    register_builtins(checked)
    add = FunctionRef("basic_arithmetic", "add")
    assert checked.invoke(add, "map", [[1, 2]]) == machine.invoke(add, "map", [[1, 2]]) == [3]
    curried = FunctionRef("higher_order_arithmetic", "add")
    # two function values compare equal; the caller's exit guard rejects them
    assert isinstance(checked.invoke(curried, "apply", [2]), FunctionValue)
    # an input holding a function value has no text, so both calls get it as is
    checked.register_package("takes_fn", {"at_one": lambda f: f.fn(1)})
    at_one = checked.lookup(FunctionRef("takes_fn", "at_one"))
    assert checked.run(at_one, "apply", checked.invoke(curried, "apply", [2])) == 3


def test_purity_check_catches_impure_functions():
    machine = LambdaMachine(check_purity=True)
    ticks = {"n": 0}

    def impure():
        ticks["n"] += 1
        return ticks["n"]

    def sometimes_a_function():
        ticks["n"] += 1
        return FunctionValue(impure) if ticks["n"] % 2 else ticks["n"]

    def mutates(d):
        d["seen"] = True
        return d.get("x", 0)

    machine.register_package(
        "impure_pkg",
        {"tick": impure, "sometimes_a_function": sometimes_a_function, "mutates": mutates},
    )
    for name in ("tick", "sometimes_a_function"):
        with pytest.raises(PurityViolation):
            machine.invoke(FunctionRef("impure_pkg", name), "apply", {})
    # the same result twice, but the first call wrote into its argument
    payload = {"d": {"x": 3}}
    with pytest.raises(PurityViolation, match="impure_pkg.mutates changed its input"):
        machine.invoke(FunctionRef("impure_pkg", "mutates"), "apply", payload)
    # every element of a combinator is checked, not only the whole call
    tick = machine.lookup(FunctionRef("impure_pkg", "tick"))
    with pytest.raises(PurityViolation, match="^map element 0: purity check failed"):
        machine.run(tick, "map", [[], []])


# a machine shared by the property tests below; registration is startup-only
_MACHINE = make_machine()
_ADD = _MACHINE.lookup(FunctionRef("basic_arithmetic", "add"))
_POS = _MACHINE.lookup(FunctionRef("checks", "is_positive"))

numbers = st.integers(min_value=-(10**6), max_value=10**6) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False
)


@given(st.lists(st.tuples(numbers, numbers), max_size=6))
def test_map_matches_sequential_oracle(pairs):
    data = [[a, b] for a, b in pairs]
    expected = [a + b for a, b in pairs]
    assert _MACHINE.run(_ADD, "map", data) == expected


@given(st.lists(numbers, min_size=1, max_size=6))
def test_reduce_matches_functools(values):
    assert _MACHINE.run(_ADD, "reduce", values) == functools.reduce(
        lambda a, b: a + b, values
    )


@given(st.lists(numbers, max_size=6))
def test_filter_matches_comprehension(values):
    assert _MACHINE.run(_POS, "filter", values) == [v for v in values if v > 0]


# --- dispatch: the check-once fast paths against the full checks
#
# _reference_bind, _reference_check_binding and _reference_checked_result
# are the engine's binding and result checks as they were before the fast
# paths, kept verbatim apart from their names: every call must give the
# same result, or the same exception type and message, on both.


def _reference_bind(target, payload):
    fn, label = target.fn, target.label
    if isinstance(payload, list):
        args, kwargs = payload, {}
    elif isinstance(payload, dict):
        args, kwargs = [], payload
    else:
        args, kwargs = [payload], {}
    if isinstance(target, FunctionHandle):
        _reference_check_binding(target, args, kwargs)
    try:
        return fn(*args, **kwargs)
    except FastError:
        raise
    except TypeError as exc:
        if isinstance(target, FunctionHandle):
            # binding was already checked, so this came from the function body
            raise DomainError(f"{label}: {exc}") from None
        raise ArityMismatch(f"{label}: {exc}") from None
    except ZeroDivisionError:
        raise DomainError(f"{label}: division by zero") from None
    except (ValueError, ArithmeticError) as exc:
        raise DomainError(f"{label}: {exc}") from None


def _reference_check_binding(handle, args, kwargs):
    if args and not kwargs:
        if handle.var_positional:
            if len(args) < len(handle.required):
                raise ArityMismatch(
                    f"{handle.label} expects at least {len(handle.required)} "
                    f"arguments, got {len(args)}"
                )
            return
        if not (len(handle.required) <= len(args) <= len(handle.params)):
            raise ArityMismatch(
                f"{handle.label} expects {len(handle.params)} arguments, got {len(args)}"
            )
        return
    if not handle.var_keyword:
        unknown = sorted(set(kwargs) - set(handle.params))
        if unknown:
            raise UnknownParameter(
                f"{handle.label} got unexpected parameter(s): {', '.join(unknown)}"
            )
    missing = sorted(set(handle.required) - set(kwargs))
    if missing and not args:
        raise ArityMismatch(
            f"{handle.label} missing required parameter(s): {', '.join(missing)}"
        )


def _reference_checked_result(result):
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


def _reference_call(target, payload):
    return _reference_checked_result(_reference_bind(target, payload))


_RESULT_FN = FunctionValue(lambda x: x, "identity")
_BODY_OUTCOMES = [
    1.5, -0.0, 1e308, float("nan"), float("inf"), -float("inf"), _Real(2.5), _Real("nan"),
    0, 7, 2**70, True, False, None, "", "s", _Level.LOW, _Name("n"),
    [1, 2.5], {"k": [None, "v"]}, [float("nan")], {"k": float("inf")}, (1, 2),
    _RESULT_FN, [_RESULT_FN], {"k": [1, _RESULT_FN]},
    TypeError("unsupported operand"), ZeroDivisionError("float division by zero"),
    ValueError("math domain error"), OverflowError("math range error"),
    DomainError("raised by the body"),
]
_RECEIVED = []  # the locals each generated function saw on entry


def _random_target(rng, index, pick=None):
    """A function with a random signature whose body records its arguments
    and returns or raises one of _BODY_OUTCOMES; a handle or a function value.

    `pick(received)` chooses the outcome from the arguments; by default
    every call has the same one.
    """
    parts = [f"r{i}" for i in range(rng.randrange(4))]
    parts += [f"d{i}=-{i}" for i in range(rng.randrange(3))]
    if rng.random() < 0.3:
        parts.append("*rest")
    if rng.random() < 0.3:
        parts.append("**named")
    outcome = rng.choice(_BODY_OUTCOMES)
    if pick is None:
        pick = lambda received: outcome  # noqa: E731

    def body(received):
        _RECEIVED.append(received)
        chosen = pick(received)
        if isinstance(chosen, Exception):
            raise chosen
        return chosen

    namespace = {"_body": body}
    exec(f"def f{index}({', '.join(parts)}):\n    return _body(dict(locals()))", namespace)
    fn = namespace[f"f{index}"]
    if rng.random() < 0.2:
        return FunctionValue(fn, f"fn{index}")
    return FunctionHandle("gen", f"f{index}", fn)


def _random_payload(rng, target):
    roll = rng.random()
    if roll < 0.6:
        return [rng.randrange(-9, 10) for _ in range(rng.randrange(7))]
    if roll < 0.85:
        names = getattr(target, "params", []) + ["r0", "d0", "zz", "rest", "named"]
        return {name: rng.randrange(9) for name in rng.sample(names, rng.randrange(4))}
    return rng.choice([3, -2.5, None, "s", True])


def _call_outcome(call, target, payload):
    _RECEIVED.clear()
    try:
        result = call(target, payload)
    except Exception as exc:
        return ("raise", type(exc), getattr(exc, "message", str(exc)), list(_RECEIVED))
    return ("return", type(result), result, list(_RECEIVED))


def _dispatch_differences(call, seed=8, cases=3000):
    """(mismatching cases, outcome kinds seen) of `call` against the reference."""
    rng = random.Random(seed)
    mismatches, kinds = [], set()
    for index in range(cases):
        target = _random_target(rng, index)
        payload = _random_payload(rng, target)
        expected = _call_outcome(_reference_call, target, payload)
        got = _call_outcome(call, target, payload)
        if got != expected:
            mismatches.append((target, payload, expected, got))
        kinds.add(expected[1].__name__)
    return mismatches, kinds


def test_bind_and_call_matches_the_reference_checks():
    mismatches, kinds = _dispatch_differences(LambdaMachine().bind_and_call)
    assert mismatches == []
    # every kind of outcome was reached
    assert {
        "float", "int", "bool", "str", "NoneType", "list", "dict", "FunctionValue",
        "_Level", "_Name", "_Real",
        "ArityMismatch", "UnknownParameter", "DomainError", "UnserializableResult",
    } <= kinds


def test_dispatch_differential_catches_a_broken_fast_path(monkeypatch):
    machine = LambdaMachine()

    def upper_bound_off_by_one(target, payload):
        if isinstance(target, FunctionHandle):
            target = copy.copy(target)
            target.max_args += 1
        return machine.bind_and_call(target, payload)

    assert _dispatch_differences(upper_bound_off_by_one)[0]
    monkeypatch.setattr(lambda_machine, "isfinite", lambda number: True)
    assert _dispatch_differences(machine.bind_and_call)[0]


# --- combinators: the hoisted element loops against the loops they replace
#
# _reference_map, _reference_reduce, _reference_filter and
# _reference_element_error are the serial combinators as they were before
# the per-target work was hoisted out of their loops, kept verbatim apart
# from their names and from calling _reference_call.


def _reference_element_error(exc, combinator, index):
    message = f"{combinator} element {index}: {getattr(exc, 'message', exc)}"
    if isinstance(exc, FastError) and not isinstance(exc, lambda_machine.ParseError):
        return type(exc)(message)
    return DomainError(message)


def _reference_map(target, data):
    call = _reference_call
    results = []
    try:
        for element in data:
            results.append(call(target, element))
    except Exception as exc:
        # the failing element is the one after the last result
        raise _reference_element_error(exc, "map", len(results)) from None
    # a function value is only meaningful as a whole result, never
    # as an array element nothing can consume
    if any(isinstance(r, FunctionValue) for r in results):
        raise UnserializableResult("map produced function values")
    return results


def _reference_reduce(target, data):
    if not data:
        raise EmptyReduce("reduce of empty array")
    accumulator = data[0]
    for index, element in enumerate(data[1:], start=1):
        try:
            accumulator = _reference_call(target, [accumulator, element])
        except Exception as exc:
            raise _reference_element_error(exc, "reduce", index) from None
    return _reference_checked_result(accumulator)


def _reference_filter(target, data):
    kept = []
    for index, element in enumerate(data):
        try:
            verdict = _reference_call(target, element)
            if not isinstance(verdict, bool):
                spelled = (verdict.label if isinstance(verdict, FunctionValue)
                           else canonical_json(verdict))
                raise DomainError(f"filter predicate must return a boolean, got {spelled}")
        except Exception as exc:
            raise _reference_element_error(exc, "filter", index) from None
        if verdict:
            kept.append(element)
    return kept


_REFERENCE_COMBINATORS = {
    "map": _reference_map,
    "reduce": _reference_reduce,
    "filter": _reference_filter,
}

# per element: mostly results that let the loop go on, sometimes a failure
_ELEMENT_OUTCOMES = {
    "map": [1.5, -0.0, 3, "s", None, [1, 2.5], {"k": "v"}, _Real(2.5), _RESULT_FN],
    "reduce": [1.5, -0.0, 3, "s", None, [1, 2.5], _Real(2.5), _RESULT_FN],
    "filter": [True, False, True, False, True, False],
}
_ELEMENT_FAILURES = [
    float("nan"), float("inf"), [float("nan")], [_RESULT_FN], {"k": [1, _RESULT_FN]},
    (1, 2), object(), 7, TypeError("unsupported operand"),
    ZeroDivisionError("float division by zero"), ValueError("math domain error"),
    OverflowError("math range error"), KeyError("k"), DomainError("raised by the body"),
]


def _outcome_picker(rng, combinator):
    table = list(_ELEMENT_OUTCOMES[combinator])
    table += rng.sample(_ELEMENT_FAILURES, rng.randrange(1, 4))
    # the outcome depends on the arguments' sorted text only, so the function
    # stays pure when the purity check passes it a parse of its input
    def pick(received):
        text = json.dumps(received, sort_keys=True, default=repr)
        return table[zlib.crc32(text.encode()) % len(table)]

    return pick


def _random_element(rng, target):
    """Mostly an array the target takes spread, otherwise any payload."""
    low, high = getattr(target, "min_args", 1), getattr(target, "max_args", 3)
    if rng.random() < 0.6 and low <= min(high, low + 2):
        length = rng.randint(low, min(high, low + 2))
        return [rng.randrange(-9, 10) for _ in range(length)]
    return _random_payload(rng, target)


def _run_outcome(run, target, combinator, data):
    try:
        result = run(target, combinator, data)
    except Exception as exc:
        return ("raise", type(exc), getattr(exc, "message", str(exc)))
    return ("return", type(result), repr(result))


def _combinator_differences(machine, seed=9, cases=2000):
    """(mismatching cases, outcome kinds seen) of `machine.run` against the reference."""
    rng = random.Random(seed)
    mismatches, kinds = [], set()
    for index in range(cases):
        combinator = rng.choice(sorted(_REFERENCE_COMBINATORS))
        target = _random_target(rng, index, _outcome_picker(rng, combinator))
        data = [_random_element(rng, target) for _ in range(rng.randrange(7))]
        reference = _REFERENCE_COMBINATORS[combinator]
        expected = _run_outcome(lambda t, c, d: reference(t, d), target, combinator, data)
        got = _run_outcome(machine.run, target, combinator, data)
        if got != expected:
            mismatches.append((combinator, target, data, expected, got))
        kinds.add((combinator, expected[1].__name__, _failing_position(expected, data)))
    return mismatches, kinds


def _failing_position(outcome, data):
    """Where the element named by an element error sits in `data`."""
    head = outcome[2].split(":")[0] if outcome[0] == "raise" else ""
    if " element " not in head:
        return head
    index, first = int(head.rsplit(" ", 1)[1]), 1 if head.startswith("reduce") else 0
    return "first" if index == first else "last" if index == len(data) - 1 else "middle"


@pytest.mark.parametrize("check_purity", [False, True], ids=["unchecked", "purity"])
def test_combinators_match_the_reference_loops(check_purity):
    mismatches, kinds = _combinator_differences(LambdaMachine(check_purity=check_purity))
    assert mismatches == []
    # each kind of element failure was met at the first element, a middle one
    # and the last; every reduce call passes two arguments, so a reduce's
    # arity mismatch comes at its first call, and later only from a
    # function value whose body raises TypeError, too rare here to count on
    assert {
        (combinator, name, position)
        for combinator in ("map", "reduce", "filter")
        for name in ("ArityMismatch", "DomainError", "UnserializableResult")
        for position in ("first", "middle", "last")
    } - {("reduce", "ArityMismatch", position) for position in ("middle", "last")} <= kinds
    assert {("map", "list", ""), ("reduce", "float", ""), ("filter", "list", "")} <= kinds
    assert ("map", "UnserializableResult", "map produced function values") in kinds


def test_combinator_differential_catches_a_broken_loop(monkeypatch):
    machine = LambdaMachine()
    monkeypatch.setattr(lambda_machine, "isfinite", lambda number: True)
    assert _combinator_differences(machine, cases=300)[0]


def _nested_function_value(x):
    return [FunctionValue(abs, "abs")]


_COMBINATOR_TEST_FUNCTIONS = {
    "inverse": lambda x: 1 / x,
    "lookup_k": lambda d: d["k"],
    "nested_fn": _nested_function_value,
    "pair_nested_fn": lambda a, b: {"f": _nested_function_value(a)},
}

_NOT_A_NUMBER_STR = "'>' not supported between instances of 'str' and 'int'"
_NON_FINITE = "function produced an invalid result: result contains a non-finite number"
_FN_IN_RESULT = "result contains a function value and cannot be serialized"

# (function, combinator, data, expected class, expected message or result)
_COMBINATOR_CASES = [
    ("basic_arithmetic.add", "map", [[1, 2], [3.5, 4.0]], None, [3, 7.5]),
    ("basic_arithmetic.add", "map", [["x", 1], [1, 2], [3, 4]], DomainError,
     "map element 0: a must be a number, got str"),
    ("basic_arithmetic.add", "map", [[1, 2], [1, None], [3, 4]], DomainError,
     "map element 1: b must be a number, got NoneType"),
    ("basic_arithmetic.add", "map", [[1, 2], [3, 4], [1e308, 1e308]], DomainError,
     f"map element 2: {_NON_FINITE}"),
    ("basic_arithmetic.add", "map", [[1, 2], 5], ArityMismatch,
     "map element 1: basic_arithmetic.add expects 2 arguments, got 1"),
    ("basic_arithmetic.add", "map", [[1, 2], [1, 2, 3]], ArityMismatch,
     "map element 1: basic_arithmetic.add expects 2 arguments, got 3"),
    ("basic_arithmetic.add", "map", [[1, 2], {"a": 1, "c": 2}], UnknownParameter,
     "map element 1: basic_arithmetic.add got unexpected parameter(s): c"),
    ("basic_arithmetic.divide", "map", [[1.0, 2.0], [1.0, 0.0]], DomainError,
     "map element 1: division by zero"),
    ("pricer.price", "map", [[100, 1, 100, 0.2], [1e308, 1.0, 1e-300, 0.2]], DomainError,
     "map element 1: pricer.price: math domain error"),
    ("checks.is_positive", "map", [[1], ["a"]], DomainError,
     f"map element 1: checks.is_positive: {_NOT_A_NUMBER_STR}"),
    ("extra.inverse", "map", [[2], [0]], DomainError,
     "map element 1: extra.inverse: division by zero"),
    ("extra.lookup_k", "map", [[{}]], DomainError, "map element 0: 'k'"),
    ("extra.nested_fn", "map", [[1], [2]], UnserializableResult,
     f"map element 0: {_FN_IN_RESULT}"),
    ("higher_order_arithmetic.add", "map", [[1], [2]], UnserializableResult,
     "map produced function values"),
    # an element's error outranks an earlier element's function value
    ("higher_order_arithmetic.add", "map", [[1], "x"], DomainError,
     "map element 1: x must be a number, got str"),
    ("basic_arithmetic.add", "reduce", [1, 2.5, 3], None, 6.5),
    ("basic_arithmetic.add", "reduce", [1, "x", 2], DomainError,
     "reduce element 1: b must be a number, got str"),
    ("basic_arithmetic.add", "reduce", [1e308, 1e308, 1.0], DomainError,
     f"reduce element 1: {_NON_FINITE}"),
    ("basic_arithmetic.divide", "reduce", [8, 2, 0], DomainError,
     "reduce element 2: division by zero"),
    ("checks.double", "reduce", [1, 2], ArityMismatch,
     "reduce element 1: checks.double expects 1 arguments, got 2"),
    ("extra.pair_nested_fn", "reduce", [1, 2, 3], UnserializableResult,
     f"reduce element 1: {_FN_IN_RESULT}"),
    ("checks.is_positive", "filter", [[1], [-2], 3], None, [[1], 3]),
    ("checks.is_positive", "filter", [["a"], [1]], DomainError,
     f"filter element 0: checks.is_positive: {_NOT_A_NUMBER_STR}"),
    ("checks.is_positive", "filter", [1, "a", 2], DomainError,
     f"filter element 1: checks.is_positive: {_NOT_A_NUMBER_STR}"),
    ("checks.is_positive", "filter", [[1], [2, 3]], ArityMismatch,
     "filter element 1: checks.is_positive expects 1 arguments, got 2"),
    ("checks.bad_bool", "filter", [[True], [False], [3]], DomainError,
     "filter element 2: filter predicate must return a boolean, got 3"),
    ("checks.bad_bool", "filter", [[float("inf")]], DomainError,
     f"filter element 0: {_NON_FINITE}"),
    ("extra.nested_fn", "filter", [[1]], UnserializableResult,
     f"filter element 0: {_FN_IN_RESULT}"),
    # a verdict is spelled as JSON, and a function value by its label
    ("checks.bad_bool", "filter", [["no"]], DomainError,
     'filter element 0: filter predicate must return a boolean, got "no"'),
    ("checks.bad_bool", "filter", [[None]], DomainError,
     "filter element 0: filter predicate must return a boolean, got null"),
    ("checks.bad_bool", "filter", [[{"b": [True], "a": 1}]], DomainError,
     'filter element 0: filter predicate must return a boolean, got {"a":1,"b":[true]}'),
    ("higher_order_arithmetic.add", "filter", [[2]], DomainError,
     "filter element 0: filter predicate must return a boolean, got add(2)"),
]


@pytest.mark.parametrize("check_purity", [False, True], ids=["unchecked", "purity"])
@pytest.mark.parametrize(
    "name, combinator, data, error, expected",
    _COMBINATOR_CASES,
    ids=[f"{case[1]}-{index}" for index, case in enumerate(_COMBINATOR_CASES)],
)
def test_combinator_element_errors_and_statuses(
    check_purity, name, combinator, data, error, expected
):
    machine = make_machine()
    machine.check_purity = check_purity
    machine.register_package("extra", _COMBINATOR_TEST_FUNCTIONS)
    target = machine.lookup(FunctionRef(*name.split(".")))
    if error is None:
        assert machine.run(target, combinator, data) == expected
        return
    with pytest.raises(FastError) as caught:
        machine.run(target, combinator, data)
    assert type(caught.value) is error
    assert caught.value.message == expected
    status = 422 if error in (ArityMismatch, UnknownParameter) else 500
    assert caught.value.http_status == status


@pytest.mark.parametrize("check_purity", [False, True], ids=["unchecked", "purity"])
def test_a_filter_refuses_a_finite_float_verdict(machine, check_purity):
    # a finite float passes the result check, so only the verdict test refuses it
    machine.check_purity = check_purity
    echo = machine.lookup(FunctionRef("checks", "bad_bool"))
    with pytest.raises(DomainError) as caught:
        machine.run(echo, "filter", [[True], [2.5], [0.0]])
    assert caught.value.message == (
        "filter element 1: filter predicate must return a boolean, got 2.5"
    )


def test_the_element_loop_checks_no_finite_float_or_bool(machine, monkeypatch):
    # the result check would return these unchanged, so the loop skips it
    checked, check = [], lambda_machine._checked_result
    monkeypatch.setattr(
        lambda_machine, "_checked_result", lambda result: checked.append(result) or check(result)
    )
    price = machine.lookup(FunctionRef("pricer", "price"))
    positive = machine.lookup(FunctionRef("checks", "is_positive"))
    assert len(machine.run(price, "map", [[100, 1, 100, 0.2], [90, 0.5, 110, 0.3]])) == 2
    assert machine.run(positive, "map", [[1], [-2]]) == [True, False]
    assert machine.run(positive, "filter", [[1], [-2], [3.5]]) == [[1], [3.5]]
    assert checked == []
    machine.run(machine.lookup(FunctionRef("checks", "double")), "map", [["ab"]])
    assert checked == ["abab"]  # any other result takes the check
