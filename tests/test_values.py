import json
import math
import random
import sys
import threading
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from fastgate.errors import InvalidValue
from fastgate.values import (
    MAX_DEPTH,
    canonical_json,
    copy_value,
    loads_strict,
    parse_scalar,
    reject_constant,
    validate_value,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=25,
)


def test_accepts_plain_json_shapes():
    validate_value(None)
    validate_value(True)
    validate_value(3)
    validate_value(-2.5)
    validate_value("text")
    validate_value([1, [2, {"k": None}]])
    validate_value({"a": {"b": [False]}})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rejects_nonfinite_floats(bad):
    with pytest.raises(InvalidValue):
        validate_value(bad)
    with pytest.raises(InvalidValue):
        validate_value([1, bad])


def test_rejects_non_json_types():
    with pytest.raises(InvalidValue):
        validate_value({1: "int key"})
    with pytest.raises(InvalidValue):
        validate_value((1, 2))
    with pytest.raises(InvalidValue):
        validate_value({"f": lambda: 1})
    with pytest.raises(InvalidValue):
        validate_value(b"bytes")


def test_depth_limit_is_64():
    value = "leaf"
    for _ in range(MAX_DEPTH):
        value = [value]
    validate_value(value)  # 64 nested containers is the maximum
    with pytest.raises(InvalidValue):
        validate_value([value])


def test_copy_is_deep():
    original = {"a": [1, {"b": 2}]}
    duplicate = copy_value(original)
    duplicate["a"][1]["b"] = 99
    assert original["a"][1]["b"] == 2


def test_canonical_json_sorts_and_compacts():
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_loads_strict_rejects_nonfinite_constants():
    for text in ("NaN", "Infinity", "-Infinity", "[1, NaN]"):
        with pytest.raises(InvalidValue):
            loads_strict(text)


def test_loads_strict_rejects_malformed():
    with pytest.raises(InvalidValue):
        loads_strict("{not json")


def test_parse_scalar_types():
    assert parse_scalar("35.05") == 35.05
    assert isinstance(parse_scalar("35.05"), float)
    assert parse_scalar("7") == 7
    assert isinstance(parse_scalar("7"), int)
    assert parse_scalar("true") is True
    assert parse_scalar("false") is False
    assert parse_scalar("null") is None
    assert parse_scalar('"quoted"') == "quoted"
    assert parse_scalar("plain text") == "plain text"
    assert parse_scalar("[1,2]") == [1, 2]
    # non-finite constants are not JSON; they stay strings
    assert parse_scalar("NaN") == "NaN"


@given(json_values)
def test_canonical_round_trip(value):
    encoded = canonical_json(value)
    decoded = loads_strict(encoded)
    assert decoded == value
    assert canonical_json(decoded) == encoded


@given(json_values)
def test_copy_equals_original(value):
    assert copy_value(value) == value


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_round_trip_is_exact(x):
    decoded = loads_strict(canonical_json(x))
    assert decoded == x and math.copysign(1, decoded) == math.copysign(1, x)


# --- the validator against a reference walk that makes one call per node


def _reference_validate(value, budget, what):
    if budget < 0:
        raise InvalidValue(f"{what} exceeds nesting depth {MAX_DEPTH}")
    if value is None or isinstance(value, (bool, str)):
        return
    if isinstance(value, (int, float)):
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            raise InvalidValue(f"{what} contains a non-finite number")
        return
    if isinstance(value, list):
        for item in value:
            _reference_validate(item, budget - 1, what)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise InvalidValue(f"{what} has a non-string object key: {key!r}")
            _reference_validate(item, budget - 1, what)
        return
    raise InvalidValue(f"{what} contains a non-JSON type: {type(value).__name__}")


class _Level(IntEnum):
    LOW = 1


class _Name(str):
    pass


class _Real(float):
    pass


_GOOD_LEAVES = [
    None, True, False, 0, -7, 2**70, 0.5, -0.0, 1e308, -1e308, "", "s",
    _Level.LOW, _Name("n"), _Real(2.5),
]
_LEAVES = _GOOD_LEAVES + [
    float("nan"), float("inf"), -float("inf"), _Real("nan"), (1, 2), b"bytes", object(),
]
_KEYS = ["a", "b", "c", "", _Name("k"), 1, None, (1,), _Level.LOW]


def _random_value(rng, levels, leaves=_LEAVES, odd_keys=0.1):
    roll = rng.random()
    if levels == 0 or roll < 0.45:
        return rng.choice(leaves)
    children = [_random_value(rng, levels - 1, leaves, odd_keys) for _ in range(rng.randrange(5))]
    if roll < 0.75:
        return children
    return {rng.choice(_KEYS) if rng.random() < odd_keys else rng.choice("abcdef"): child
            for child in children}


def _random_spine(rng):
    """A chain 60-68 containers deep through lists and dicts, with siblings
    that are mostly valid, so that the depth limit decides many cases."""
    clean = rng.random() < 0.7
    leaves, odd_keys = (_GOOD_LEAVES, 0.0) if clean else (_LEAVES, 0.1)
    value = _random_value(rng, 2, leaves, odd_keys)
    for _ in range(rng.randint(60, 68)):
        siblings = [_random_value(rng, 2, leaves, odd_keys) for _ in range(rng.randrange(3))]
        if rng.random() < 0.5:
            siblings.insert(rng.randrange(len(siblings) + 1), value)
            value = siblings
        else:
            value = {**{f"s{i}": s for i, s in enumerate(siblings)}, rng.choice("xyz"): value}
    return value


def _outcome(check, value, depth):
    try:
        check(value, depth, "thing")
    except InvalidValue as exc:
        return exc.message
    return None


def test_validate_value_matches_the_reference_walk():
    rng = random.Random(20160)
    cases = [_random_value(rng, 6) for _ in range(3000)]
    cases += [_random_spine(rng) for _ in range(1000)]
    outcomes = set()
    for value in cases:
        for depth in (MAX_DEPTH, MAX_DEPTH + 1):
            expected = _outcome(_reference_validate, value, depth)
            got = _outcome(lambda v, d, what: validate_value(v, what=what, depth=d), value, depth)
            assert got == expected, (value, depth)
            outcomes.add(expected.split(":")[0] if expected else None)
    # every kind of outcome was reached
    assert outcomes == {
        None,
        f"thing exceeds nesting depth {MAX_DEPTH}",
        "thing contains a non-finite number",
        "thing has a non-string object key",
        "thing contains a non-JSON type",
    }


# --- the shared codecs against the calls they replaced, which built a
# decoder or an encoder per call


def _old_loads_strict(text, *, what="payload", depth=MAX_DEPTH):
    try:
        value = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        raise InvalidValue(f"malformed JSON in {what}: {exc}") from None
    except RecursionError:
        raise InvalidValue(f"{what} exceeds nesting depth {MAX_DEPTH}") from None
    validate_value(value, what=what, depth=depth)
    return value


def _old_canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _result(call, *args, **kwargs):
    """What a call returns, as (type, repr), or what it raises, as (type, message)."""
    try:
        value = call(*args, **kwargs)
    except Exception as exc:  # the type and the message are the contract
        return type(exc), str(exc)
    return type(value), repr(value)


_DEEP = 100_000
_TEXTS = [
    '{"b": [1, 2.5, null], "a": {"c": "x"}}',
    "\ufeff[1]",  # a BOM in text is refused
    "NaN",
    "[Infinity]",
    '{"a": -Infinity}',
    "",
    "  ",
    "[",
    "[1,]",
    '{"a" 1}',
    "1 2",
    "tru",
    '"\x00"',
    '"\\ud800"',
    "[" * _DEEP + "]" * _DEEP,
    "[" * 65 + "]" * 65,
    "[" * 64 + "]" * 64,
    "1" + "0" * 4999,
    "-" + "9" * 4000,
    "1e400",
]


@pytest.mark.parametrize("text", _TEXTS, ids=range(len(_TEXTS)))
def test_loads_strict_matches_json_loads(text):
    assert _result(loads_strict, text) == _result(_old_loads_strict, text)
    narrow = {"what": "body", "depth": 2}
    assert _result(loads_strict, text, **narrow) == _result(_old_loads_strict, text, **narrow)


@given(
    json_values.map(json.dumps)
    | json_values.map(canonical_json)
    | st.text(max_size=40)
)
def test_loads_strict_matches_json_loads_on_any_text(text):
    assert _result(loads_strict, text) == _result(_old_loads_strict, text)


class _Str(str):
    pass


def _circular():
    value = []
    value.append(value)
    return value


_VALUES = [
    {"b": [1, 2.5, None], "a": {"c": "x"}, "": True},
    "plain",
    _Str("sub"),
    _Level.LOW,
    _Real(2.5),
    2**70,
    -0.0,
    float("nan"),
    [1, float("inf")],
    {"a": -float("inf")},
    {1: "a"},
    {1: "a", "b": 2},
    {None: 1, True: 2},
    {(1, 2): 1},
    object(),
    [b"bytes"],
    _circular(),
    {"\ud800": "\u00e9\U0001f600"},
]


@pytest.mark.parametrize("value", _VALUES, ids=range(len(_VALUES)))
def test_canonical_json_matches_json_dumps(value):
    assert _result(canonical_json, value) == _result(_old_canonical_json, value)


def test_canonical_json_matches_json_dumps_past_the_recursion_limit():
    value = []
    for _ in range(_DEEP):
        value = [value]
    assert _result(canonical_json, value) == _result(_old_canonical_json, value)
    assert _result(canonical_json, value)[0] is RecursionError


@given(json_values)
def test_canonical_json_matches_json_dumps_on_any_value(value):
    assert _result(canonical_json, value) == _result(_old_canonical_json, value)


def test_threads_sharing_the_codecs_match_a_serial_run():
    rng = random.Random(14)
    good = [_random_value(rng, 5, _GOOD_LEAVES, 0.0) for _ in range(300)]
    values = _VALUES + good + [_random_value(rng, 5) for _ in range(300)]
    texts = _TEXTS + [canonical_json(value) for value in good]

    def run():
        return ([_result(canonical_json, value) for value in values],
                [_result(loads_strict, text) for text in texts])

    serial = run()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(index):
        start.wait()
        results[index] = [run() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(runs == [serial] * 5 for runs in results)
