import copy
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from fastgate.values import MAX_DEPTH, validate_value

from test_values import _Level, _Name, _Real

TEST_FUNCTIONS = {
    "is_positive": lambda x: x > 0,
    "double": lambda x: x * 2,
    "add_pair": lambda a, b: a + b,
    "constant": lambda: 42,
    "bad_bool": lambda x: x,  # not a predicate: echoes its input
}


def make_machine(workers=1):
    machine = LambdaMachine(map_workers=workers)
    register_builtins(machine)
    machine.register_package("checks", TEST_FUNCTIONS)
    return machine


@pytest.fixture
def machine():
    m = make_machine()
    yield m
    m.close()


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
    machine.close()


# machines shared by the property tests below; registration is startup-only
_SEQ = make_machine(workers=1)
_PAR = make_machine(workers=4)
_ADD = _SEQ.lookup(FunctionRef("basic_arithmetic", "add"))
_ADD_PAR = _PAR.lookup(FunctionRef("basic_arithmetic", "add"))
_POS = _SEQ.lookup(FunctionRef("checks", "is_positive"))

numbers = st.integers(min_value=-(10**6), max_value=10**6) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False
)


@given(st.lists(st.tuples(numbers, numbers), max_size=6))
def test_map_matches_sequential_oracle(pairs):
    data = [[a, b] for a, b in pairs]
    expected = [a + b for a, b in pairs]
    assert _SEQ.run(_ADD, "map", data) == expected
    assert _PAR.run(_ADD_PAR, "map", data) == expected


@given(st.lists(numbers, min_size=1, max_size=6))
def test_reduce_matches_functools(values):
    assert _SEQ.run(_ADD, "reduce", values) == functools.reduce(
        lambda a, b: a + b, values
    )


@given(st.lists(numbers, max_size=6))
def test_filter_matches_comprehension(values):
    assert _SEQ.run(_POS, "filter", values) == [v for v in values if v > 0]


@settings(max_examples=30)
@given(st.lists(st.tuples(numbers, numbers), min_size=2, max_size=12))
def test_parallel_map_is_order_preserving(pairs):
    data = [[a, b] for a, b in pairs]
    assert _PAR.run(_ADD_PAR, "map", data) == _SEQ.run(_ADD, "map", data)


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


def _random_target(rng, index):
    """A function with a random signature whose body records its arguments
    and returns or raises one of _BODY_OUTCOMES; a handle or a function value."""
    parts = [f"r{i}" for i in range(rng.randrange(4))]
    parts += [f"d{i}=-{i}" for i in range(rng.randrange(3))]
    if rng.random() < 0.3:
        parts.append("*rest")
    if rng.random() < 0.3:
        parts.append("**named")
    outcome = rng.choice(_BODY_OUTCOMES)

    def body(received):
        _RECEIVED.append(received)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

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
