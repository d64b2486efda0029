import pytest
from hypothesis import given, settings, strategies as st

from fastgate.builtin_packages import register_builtins
from fastgate.errors import (
    AmbiguousFunction,
    DomainError,
    InvalidValue,
    NotFound,
    ParseError,
    UnserializableResult,
)
from fastgate.lambda_machine import FunctionRef, LambdaMachine
from fastgate.query_language import (
    CombExpr,
    Literal,
    PostTo,
    QueryEngine,
    ResourceRef,
    SimpleCall,
    format_query,
    parse,
)
from fastgate.rest_machine import ResourceStore
from fastgate.values import MAX_DEPTH, loads_strict

GOLDEN = {
    "get_weather for latitude=35.05 and longitude =118.25": SimpleCall(
        "get_weather", {"latitude": 35.05, "longitude": 118.25}
    ),
    "Get Map price, delta, gamma, vega from option_pricer on trades": CombExpr(
        "map",
        ("price", "delta", "gamma", "vega"),
        "option_pricer",
        ResourceRef("/rest/trades"),
    ),
    "Reduce add on Map [price] on trades": CombExpr(
        "reduce",
        ("add",),
        None,
        CombExpr("map", ("price",), None, ResourceRef("/rest/trades")),
    ),
    "Get Apply (Apply add on 2) from higher_order_arithmetic on 3": CombExpr(
        "apply",
        (CombExpr("apply", ("add",), None, Literal(2)),),
        "higher_order_arithmetic",
        Literal(3),
    ),
}


@pytest.mark.parametrize("text,expected", GOLDEN.items(), ids=list(GOLDEN))
def test_golden_corpus_parses_to_documented_ast(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text,expected", GOLDEN.items(), ids=list(GOLDEN))
def test_golden_corpus_survives_a_print_cycle(text, expected):
    assert parse(format_query(parse(text))) == expected


def test_keywords_are_case_insensitive():
    a = parse("GET MAP price FROM pricer ON trades")
    b = parse("get map price from pricer on trades")
    assert a == b == CombExpr("map", ("price",), "pricer", ResourceRef("/rest/trades"))


def test_bracketed_and_bare_fn_lists_agree():
    assert parse("Map [a, b] on xs") == parse("Map a, b on xs")


def test_operand_forms():
    assert parse("Apply f on 3") == CombExpr("apply", ("f",), None, Literal(3))
    assert parse("Apply f on -2.5") == CombExpr("apply", ("f",), None, Literal(-2.5))
    assert parse('Apply f on "trades"') == CombExpr(
        "apply", ("f",), None, Literal("trades")
    )
    assert parse("Apply f on true") == CombExpr("apply", ("f",), None, Literal(True))
    assert parse("Apply f on null") == CombExpr("apply", ("f",), None, Literal(None))
    assert parse("Apply f on [1, 2]") == CombExpr(
        "apply", ("f",), None, Literal([1, 2])
    )
    assert parse('Apply f on {"a": 1}') == CombExpr(
        "apply", ("f",), None, Literal({"a": 1})
    )
    assert parse("Apply f on /rest/deep/path") == CombExpr(
        "apply", ("f",), None, ResourceRef("/rest/deep/path")
    )


def test_post_to_round_trip():
    ast = parse("Post Map price from pricer on trades to /rest/out")
    assert ast == PostTo(
        CombExpr("map", ("price",), "pricer", ResourceRef("/rest/trades")),
        "/rest/out",
    )


# the expected message of some of the inputs below
_PARSE_ERROR_MESSAGES = {
    "Map [price] from pricer book": "expected 'on' at position 24",
    "Map price on )": "expected an operand at position 13",
    # a name or URI the parser quotes is spelled as JSON
    "f for on=1": '"on" is a reserved word, not a parameter name at position 8',
    "Map f from Reduce on xs": '"Reduce" is a reserved word, not a module name at position 17',
    "Apply f on /lambda/pricer/price":
        'operand URI must start with /rest/, got "/lambda/pricer/price" at position 11',
    "Post Map f on xs to /lambda/x":
        'target URI must start with /rest/, got "/lambda/x" at position 20',
}


@pytest.mark.parametrize(
    "text",
    [
        "Map price on",  # incomplete production
        "garbage(",
        "",
        "   ",
        "Map on xs",  # keyword where a function name belongs
        "Map [price on xs",  # unclosed bracket
        "Apply (Map f on xs on 3",  # unclosed paren
        "Reduce a, b on xs",  # reduce takes exactly one fn
        "Filter a, b on xs",
        "Map (Apply add on 1), price on xs",  # batched lists take plain names
        "Get Map price from pricer on trades to /rest/out",  # to needs Post
        "Map price from pricer on trades to /rest/out",
        "Post Map price from pricer on trades",  # Post needs to
        "f for",  # binding required
        "f for x=",
        "f for on=1",  # reserved word as parameter
        "f for x=trades",  # binding values are literals, not names
        "Apply f on trades extra",  # trailing input
        "Post Map price on xs to nowhere",  # target must be a URI
        "Apply f on /lambda/pricer/price",  # operand URIs name resources
        "Map from pricer on xs",
        "Apply f on [NaN]",  # non-finite JSON constants are rejected
        "Map [price] from pricer book",  # "on" required after a bracketed list
        "Map price on )",  # no operand where one belongs
        "Map f from Reduce on xs",  # reserved word as module
        "Post Map f on xs to /lambda/x",  # target URIs name resources
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError) as caught:
        parse(text)
    if text in _PARSE_ERROR_MESSAGES:
        assert caught.value.message == _PARSE_ERROR_MESSAGES[text]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_get_the_message_of_a_body(constant):
    # one parse_constant hook, shared with loads_strict
    with pytest.raises(InvalidValue) as body:
        loads_strict(f"[{constant}]")
    with pytest.raises(ParseError) as query:
        parse(f"Apply f on [{constant}]")
    assert body.value.message.endswith(f"non-finite JSON constant {constant} not allowed")
    assert query.value.message == (
        f"invalid JSON value: non-finite JSON constant {constant} not allowed at position 11"
    )


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("Map price on")
    assert exc.value.position == len("Map price on")
    assert "at position 12" in exc.value.message
    with pytest.raises(ParseError) as exc:
        parse("garbage(")
    assert exc.value.position == len("garbage")


def test_combinators_nest_at_most_max_depth():
    parse("Map f on " * MAX_DEPTH + "xs")
    with pytest.raises(ParseError) as exc:
        parse("Map f on " * (MAX_DEPTH + 1) + "xs")
    assert exc.value.message.startswith(f"combinators nest deeper than {MAX_DEPTH}")


def test_quoted_strings_are_never_resource_refs():
    ast = parse('Apply double from checks on "xs"')
    assert ast.operand == Literal("xs")


# evaluation


@pytest.fixture
def engine():
    store = ResourceStore()
    machine = LambdaMachine()
    register_builtins(machine)
    machine.register_package(
        "checks", {"double": lambda x: x * 2, "is_positive": lambda x: x > 0}
    )
    return QueryEngine(machine, store), store, machine


def test_golden_query_evaluates_to_five(engine):
    eng, _, _ = engine
    result = eng.run("Get Apply (Apply add on 2) from higher_order_arithmetic on 3")
    assert result == 5 and isinstance(result, int)


def test_simple_call_evaluates(engine):
    eng, _, _ = engine
    assert eng.run("get_weather for latitude=0 and longitude=0") == {"temp_c": 30.0}


def test_resource_ref_evaluates(engine):
    eng, store, _ = engine
    store.post_resource("/rest/trades", [[100, 1, 20, 0.2]])
    assert eng.run("Get trades") == [[100, 1, 20, 0.2]]
    with pytest.raises(NotFound):
        eng.run("Get missing")


def test_reduce_of_mapped_prices(engine):
    eng, store, machine = engine
    rows = [[100, 1, 20, 0.2], [100, 1, 100, 0.2]]
    store.post_resource("/rest/trades", rows)
    # manual composition oracle: map by hand, then a left fold
    price = machine.resolve_unique("price")
    mapped = [machine.bind_and_call(price, row) for row in rows]
    total = mapped[0]
    for value in mapped[1:]:
        total = total + value
    got = eng.run("Reduce add from basic_arithmetic on Map [price] from pricer on trades")
    assert got == total


def test_golden_reduce_runs_when_names_are_unique():
    # the unqualified corpus query assumes a registry without name collisions
    store = ResourceStore()
    machine = LambdaMachine()
    register_builtins(machine, names=["basic_arithmetic", "pricer"])
    store.post_resource("/rest/trades", [[100, 1, 20, 0.2], [100, 1, 100, 0.2]])
    eng = QueryEngine(machine, store)
    price = machine.resolve_unique("price")
    expect = machine.bind_and_call(price, [100, 1, 20, 0.2]) + machine.bind_and_call(
        price, [100, 1, 100, 0.2]
    )
    assert eng.run("Reduce add on Map [price] on trades") == expect


def test_unqualified_names_must_be_unique(engine):
    eng, store, _ = engine
    store.post_resource("/rest/xs", [1, 2])
    with pytest.raises(AmbiguousFunction):
        eng.run("Reduce add on xs")  # add exists in two packages


def test_from_scopes_parenthesized_items(engine):
    eng, _, _ = engine
    # without the module context the inner bare "add" would be ambiguous
    assert eng.run("Apply (Apply add on 10) from higher_order_arithmetic on 5") == 15


def test_from_does_not_scope_the_operand(engine):
    eng, store, _ = engine
    store.post_resource("/rest/xs", [3])
    with pytest.raises(AmbiguousFunction):
        eng.run("Map add from basic_arithmetic on Map [add] on xs")


def test_multi_fn_apply_keys_by_function_name(engine):
    eng, _, _ = engine
    trade = '{"strike":100,"time":1,"spot":100,"vol":0.2}'
    got = eng.run(f"Apply price, delta from pricer on {trade}")
    assert set(got) == {"price", "delta"}
    assert got["price"] == eng.run(f"Apply price from pricer on {trade}")
    assert got["delta"] == eng.run(f"Apply delta from pricer on {trade}")


def test_multi_fn_map_merges_single_fn_maps(engine):
    eng, store, _ = engine
    rows = [[100, 1, 90, 0.2], [100, 1, 110, 0.3]]
    store.post_resource("/rest/trades", rows)
    merged = eng.run("Map price, delta from pricer on trades")
    prices = eng.run("Map price from pricer on trades")
    deltas = eng.run("Map delta from pricer on trades")
    assert merged == [{"price": p, "delta": d} for p, d in zip(prices, deltas)]


def test_filter_keeps_original_elements(engine):
    eng, _, _ = engine
    assert eng.run("Filter is_positive from checks on [1, -2, 3]") == [1, 3]


def test_empty_map_returns_empty(engine):
    eng, _, _ = engine
    assert eng.run("Get Map add from basic_arithmetic on []") == []


def test_post_to_stores_and_reports(engine):
    eng, store, _ = engine
    out = eng.run("Post Apply add from basic_arithmetic on [2, 3] to /rest/sum")
    assert out == {"status": "success"}
    assert store.get_resource("/rest/sum") == 5


def test_paren_item_must_be_a_function(engine):
    eng, _, _ = engine
    with pytest.raises(DomainError):
        eng.run("Apply (Apply double from checks on 1) on 1")


def test_top_level_function_results_are_rejected(engine):
    eng, _, _ = engine
    with pytest.raises(UnserializableResult):
        eng.run("Apply add from higher_order_arithmetic on 2")


def test_function_results_cannot_be_posted(engine):
    eng, store, _ = engine
    with pytest.raises(UnserializableResult):
        eng.run("Post Apply add from higher_order_arithmetic on 2 to /rest/out")
    with pytest.raises(NotFound):
        store.get_resource("/rest/out")


def test_evaluation_matches_direct_machine_calls(engine):
    eng, store, machine = engine
    rows = [[100, 1, 95, 0.25], [100, 2, 105, 0.15]]
    store.post_resource("/rest/trades", rows)
    handle = machine.lookup(FunctionRef("pricer", "price"))
    assert eng.run("Map price from pricer on trades") == machine.run(handle, "map", rows)


# print/parse round trip over generated ASTs

_names = st.sampled_from(
    ["price", "delta", "gamma", "vega", "add", "double", "get_weather", "f_1", "g2"]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=12)
)
_literals = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
).map(Literal)
_resources = st.one_of(
    _names.map(lambda n: ResourceRef(f"/rest/{n}")),
    st.sampled_from(["/rest/a/b", "/rest/Map", "/rest/x-y", "/rest/9lives"]).map(
        ResourceRef
    ),
)
_simple_calls = st.builds(
    SimpleCall,
    _names,
    st.dictionaries(_names, _scalars, min_size=1, max_size=3),
)


def _comb_nodes(operands):
    # the grammar limits operands to literals, URIs, and nested combinators;
    # parenthesized fn items may additionally be simple calls
    items = st.one_of(_names, operands, _simple_calls)
    single = items.map(lambda item: (item,))
    batched = st.lists(_names, min_size=2, max_size=4).map(tuple)
    module = st.none() | _names
    return st.one_of(
        st.builds(
            CombExpr,
            st.sampled_from(["apply", "map", "reduce", "filter"]),
            single,
            module,
            operands,
        ),
        st.builds(
            CombExpr,
            st.sampled_from(["apply", "map"]),
            batched,
            module,
            operands,
        ),
    )


_operands = st.recursive(_literals | _resources, _comb_nodes, max_leaves=6)
_exprs = st.one_of(_operands, _simple_calls)
_queries = st.one_of(
    _exprs,
    st.builds(PostTo, _exprs, _names.map(lambda n: f"/rest/{n}")),
)


@settings(max_examples=300, deadline=None)
@given(_queries)
def test_print_parse_round_trip(ast):
    assert parse(format_query(ast)) == ast
