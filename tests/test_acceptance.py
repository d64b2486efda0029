"""End-to-end acceptance gate.

Each test exercises one numbered criterion and reports a single
PASS/FAIL line through the `criterion` fixture; the full tally is
reprinted in the terminal summary.
"""

import functools
import json
import random
from itertools import product
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings

from fastgate import Config, build_app
from fastgate.builtin_packages import pricer
from fastgate.http_gateway import WireRequest
from fastgate.lambda_machine import LambdaMachine
from fastgate.query_language import (
    CombExpr,
    Literal,
    ResourceRef,
    SimpleCall,
    format_query,
    parse,
)
from fastgate.values import canonical_json

from conftest import Client
from test_query_language import _queries

GOLDEN_QUERY = "Get Apply (Apply add on 2) from higher_order_arithmetic on 3"

_GREEKS = ("price", "delta", "gamma", "vega")


# --- deterministic wire-request generator over the builtin packages


def _post(path, body):
    return WireRequest(
        "POST", path, "", json.dumps(body).encode("utf-8"), "application/json"
    )


def _get(path, query=None):
    return WireRequest("GET", path, urlencode(query or {}), None, "")


def _pricer_row(rng):
    return [
        round(rng.uniform(20, 200), 6),
        round(rng.uniform(0.1, 5), 6),
        round(rng.uniform(20, 200), 6),
        round(rng.uniform(0.05, 1.5), 6),
    ]


def _random_lambda_request(rng):
    """One wire request against /lambda; a mix of passing and failing calls."""
    roll = rng.randrange(12)
    if roll == 0:
        fn = rng.choice(("add", "subtract", "multiply"))
        pair = [rng.randint(-99, 99), rng.randint(-99, 99)]
        return _post(f"/lambda/basic_arithmetic/{fn}", {"data": pair})
    if roll == 1:  # divide, sometimes by zero
        divisor = 0 if rng.random() < 0.3 else rng.randint(1, 9)
        return _post(
            "/lambda/basic_arithmetic/divide", {"a": rng.randint(-50, 50), "b": divisor}
        )
    if roll == 2:  # greeks, sometimes out of domain
        row = _pricer_row(rng)
        if rng.random() < 0.25:
            row[rng.randrange(4)] *= -1
        return _post(f"/lambda/pricer/{rng.choice(_GREEKS)}", {"data": row})
    if roll == 3:  # weather via GET params or a JSON body
        lat = round(rng.uniform(-100, 100), 4)
        lon = round(rng.uniform(-190, 190), 4)
        if rng.random() < 0.5:
            return _get(
                "/lambda/weather/get_weather",
                {"latitude": str(lat), "longitude": str(lon)},
            )
        return _post("/lambda/weather/get_weather", {"latitude": lat, "longitude": lon})
    if roll == 4:
        pairs = [
            [rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(rng.randint(0, 6))
        ]
        return _post("/lambda/basic_arithmetic/add", {"to_do": "map", "data": pairs})
    if roll == 5:  # reduce, sometimes of an empty array
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        return _post("/lambda/basic_arithmetic/add", {"to_do": "reduce", "data": xs})
    if roll == 6:  # filter with a non-predicate: a deterministic failure
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        return _post("/lambda/basic_arithmetic/add", {"to_do": "filter", "data": xs})
    if roll == 7:
        rows = [_pricer_row(rng) for _ in range(rng.randint(0, 4))]
        return _post("/lambda/pricer/get_value", {"data": [rows]})
    if roll == 8:  # higher-order result cannot cross the wire
        return _post("/lambda/higher_order_arithmetic/add", {"data": [rng.randint(-9, 9)]})
    if roll == 9:  # arity roulette
        args = [1, 2, 3][: rng.randint(1, 3)]
        return _post("/lambda/basic_arithmetic/add", {"data": args})
    if roll == 10:  # unique bare name
        return _get("/lambda/get_weather", {"latitude": "10", "longitude": "20"})
    return _get("/lambda/add", {"a": "1", "b": "2"})  # ambiguous bare name


def _serialized(gateway, request):
    response = gateway.handle(request)
    return canonical_json({"status": response.status, "body": response.body})


@pytest.fixture(scope="module")
def app():
    return build_app()


# --- criterion 1


def test_criterion_01_golden_higher_order_query(app, criterion):
    via_engine = app.engine.run(GOLDEN_QUERY)
    client = Client(app.gateway)
    status, via_wire = client.post("/query", json={"q": GOLDEN_QUERY})
    ok = (
        via_engine == 5
        and isinstance(via_engine, int)
        and not isinstance(via_engine, bool)
        and (status, via_wire) == (200, 5)
    )
    criterion(
        1,
        "golden higher-order query returns exactly 5",
        ok,
        f"engine={via_engine!r}, wire=({status}, {via_wire!r})",
    )


# --- criterion 2


def test_criterion_02_purity_repeated_responses(app, criterion):
    rng = random.Random(20240201)
    mismatches = 0
    for _ in range(1000):
        request = _random_lambda_request(rng)
        if _serialized(app.gateway, request) != _serialized(app.gateway, request):
            mismatches += 1
    criterion(
        2,
        "1000 randomized calls answer byte-identically twice",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# --- criterion 3


def test_criterion_03_commutativity(app, criterion):
    rng = random.Random(20240302)
    mismatches = 0
    for _ in range(200):
        req_a = _random_lambda_request(rng)
        req_b = _random_lambda_request(rng)
        first_a = _serialized(app.gateway, req_a)
        first_b = _serialized(app.gateway, req_b)
        second_b = _serialized(app.gateway, req_b)
        second_a = _serialized(app.gateway, req_a)
        if first_a != second_a or first_b != second_b:
            mismatches += 1
    criterion(
        3,
        "200 request pairs agree under AB and BA ordering",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# --- criterion 4


def test_criterion_04_reads_never_change_the_store(criterion):
    bundle = build_app()
    store = bundle.store
    store.post_resource("/rest/pairs", [[1, 2], [3, 4]])
    store.post_resource("/rest/xs", [1, 2, 3, 4])
    store.post_resource("/rest/books/1", {"title": "T"})
    rng = random.Random(20240403)
    for i in range(3):
        store.post_resource(f"/rest/pf/{i}", [_pricer_row(rng) for _ in range(3)])
    baseline = store.canonical_dump()
    extras = [
        _get("/rest/pairs"),
        _get("/rest/xs"),
        _get("/rest/books/1"),
        _get("/rest/missing"),
        _get("/rest/pf", {"children": "true"}),
        _get("/query", {"q": "Get pairs"}),
        _get("/query", {"q": "Map add from basic_arithmetic on pairs"}),
        _get("/query", {"q": "Map price from pricer on /rest/pf/0"}),
        _get("/query", {"q": "get_weather for latitude=10 and longitude=20"}),
        _get("/query", {"q": "Map price on"}),
        _get("/query", {"q": "Reduce add from basic_arithmetic on xs"}),
        _post(
            "/fast/pricer",
            {"fns": ["price", "delta"], "data": {"strike": 100, "time": 1, "spot": 90, "vol": 0.3}},
        ),
        WireRequest(
            "GET",
            "/fast/pricer/price",
            urlencode(
                {"data": '{"strike":100,"time":1,"spot":90,"vol":0.3}', "to_uri": "/rest/nope"}
            ),
            None,
            "",
        ),
        _post(
            "/lambda/basic_arithmetic/add", {"to_do": "map", "uri": "/rest/pairs"}
        ),
    ]
    diffs = 0
    for _ in range(500):
        if rng.random() < 0.3:
            request = rng.choice(extras)
        else:
            request = _random_lambda_request(rng)
        bundle.gateway.handle(request)
        if store.canonical_dump() != baseline:
            diffs += 1
            baseline = store.canonical_dump()  # re-anchor to count each culprit once
    criterion(
        4,
        "store serialization unchanged across 500 read/compute requests",
        diffs == 0,
        f"{diffs} diffs",
    )


# --- criterion 5


def _inc(x):
    return x + 1


def _square(x):
    return x * x


def _add_pair(a, b):
    return a + b


def _is_even(x):
    return x % 2 == 0


def _nonneg(x):
    return x >= 0


_UNARY = {"inc": _inc, "square": _square}
_BINARY = {"add_pair": _add_pair}
_PREDICATES = {"is_even": _is_even, "nonneg": _nonneg}
_ACCT = {**_UNARY, **_BINARY, **_PREDICATES}


def _scalar(rng):
    if rng.random() < 0.5:
        return rng.randint(-50, 50)
    return round(rng.uniform(-50.0, 50.0), 3)


def _combinator_case(rng):
    comb = rng.choice(("apply", "map", "reduce", "filter"))
    if comb == "apply":
        if rng.random() < 0.5:
            name = rng.choice(sorted(_UNARY | _PREDICATES))
            payload = _scalar(rng)
        else:
            name = "add_pair"
            payload = [_scalar(rng), _scalar(rng)]
    elif comb == "map":
        if rng.random() < 0.5:
            name = rng.choice(sorted(_UNARY | _PREDICATES))
            payload = [_scalar(rng) for _ in range(rng.randint(0, 6))]
        else:
            name = "add_pair"
            payload = [[_scalar(rng), _scalar(rng)] for _ in range(rng.randint(0, 6))]
    elif comb == "reduce":
        name = "add_pair"
        payload = [_scalar(rng) for _ in range(rng.randint(1, 6))]
    else:
        name = rng.choice(sorted(_PREDICATES))
        payload = [_scalar(rng) for _ in range(rng.randint(0, 6))]
    return comb, name, payload


def _oracle(comb, name, payload):
    """Independent combinator semantics: comprehensions and functools."""
    fn = _ACCT[name]
    if comb == "apply":
        return fn(*payload) if isinstance(payload, list) else fn(payload)
    if comb == "map":
        return [fn(*e) if isinstance(e, list) else fn(e) for e in payload]
    if comb == "reduce":
        return functools.reduce(fn, payload)
    return [e for e in payload if fn(e)]


def test_criterion_05_combinators_match_oracle(criterion):
    machine = LambdaMachine()
    machine.register_package("acct", _ACCT)
    rng = random.Random(50823)
    mismatches = 0
    for _ in range(10_000):
        comb, name, payload = _combinator_case(rng)
        want = canonical_json(_oracle(comb, name, payload))
        got = canonical_json(machine.run(machine.resolve_unique(name), comb, payload))
        if want != got:
            mismatches += 1
    criterion(
        5,
        "10000 combinator cases equal the oracle",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# --- criterion 6


def test_criterion_06_fast_equals_manual_composition(criterion):
    bundle = build_app()
    client = Client(bundle.gateway)
    rng = random.Random(60601)
    mismatches = 0
    for i in range(100):
        rows = [_pricer_row(rng) for _ in range(rng.randint(1, 5))]
        client.post(f"/rest/portfolios/{i}", json={"data": rows})

        fast_uri = f"/rest/values/fast/{i}"
        status, posted = client.post(
            "/fast/pricer/get_value",
            json={"data": [f"{{{{/rest/portfolios/{i}}}}}"], "to_uri": fast_uri},
        )

        # the manual three-step alternative
        _, fetched = client.get(f"/rest/portfolios/{i}")
        _, manual = client.post("/lambda/pricer/get_value", json={"data": [fetched]})
        manual_uri = f"/rest/values/manual/{i}"
        client.post(manual_uri, json={"data": manual})

        stored_fast = client.get(fast_uri)[1]
        stored_manual = client.get(manual_uri)[1]
        ok = (
            status == 200
            and posted == {"status": "success", "to_uri": fast_uri}
            and canonical_json(stored_fast) == canonical_json(manual)
            and canonical_json(stored_manual) == canonical_json(manual)
        )
        if not ok:
            mismatches += 1
    criterion(
        6,
        "100 portfolios: one /fast call equals GET + /lambda + POST",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# --- criterion 7


def test_criterion_07_batched_fns_equal_single_calls(app, criterion):
    rng = random.Random(70707)
    mismatches = 0
    batched_trips = single_trips = 0
    for _ in range(25):
        row = _pricer_row(rng)
        payload = {"strike": row[0], "time": row[1], "spot": row[2], "vol": row[3]}
        batch_client = Client(app.gateway)
        single_client = Client(app.gateway)
        status, batched = batch_client.post(
            "/fast/pricer", json={"fns": list(_GREEKS), "data": payload}
        )
        singles = {
            name: single_client.post(f"/lambda/pricer/{name}", json={"data": payload})[1]
            for name in _GREEKS
        }
        batched_trips += batch_client.count
        single_trips += single_client.count
        ok = (
            status == 200
            and set(batched) == set(_GREEKS)
            and all(batched[name] == singles[name] for name in _GREEKS)
            and batch_client.count == 1
            and single_client.count == 4
        )
        if not ok:
            mismatches += 1
    criterion(
        7,
        "fns batch equals four single calls with 1 round trip instead of 4",
        mismatches == 0,
        f"{mismatches} mismatches; trips {batched_trips} vs {single_trips}",
    )


# --- criterion 8


def test_criterion_08_pricer_numerics(app, criterion):
    import numpy as np

    problems = []

    # Monte Carlo vs closed form at (100, 1, 100, 0.2)
    z = np.random.default_rng(20240817).standard_normal(10**7)
    terminal = 100.0 * np.exp(-0.5 * 0.2 * 0.2 + 0.2 * z)
    mc = float(np.maximum(terminal - 100.0, 0.0).mean())
    closed = pricer.price(100, 1, 100, 0.2)
    mc_rel = abs(mc - closed) / closed
    if mc_rel >= 2e-3:
        problems.append(f"MC rel err {mc_rel:.2e}")

    # Greeks vs central finite differences on a 5x5 grid
    worst_fd = 0.0
    for spot, vol in product((80, 90, 100, 110, 120), (0.1, 0.15, 0.2, 0.3, 0.5)):
        hs, hv = 1e-4 * spot, 1e-4 * vol
        up, down = pricer.price(100, 1, spot + hs, vol), pricer.price(100, 1, spot - hs, vol)
        mid = pricer.price(100, 1, spot, vol)
        fd = {
            "delta": (up - down) / (2 * hs),
            "gamma": (up - 2 * mid + down) / (hs * hs),
            "vega": (
                pricer.price(100, 1, spot, vol + hv) - pricer.price(100, 1, spot, vol - hv)
            )
            / (2 * hv),
        }
        analytic = {
            "delta": pricer.delta(100, 1, spot, vol),
            "gamma": pricer.gamma(100, 1, spot, vol),
            "vega": pricer.vega(100, 1, spot, vol),
        }
        for greek, value in analytic.items():
            worst_fd = max(worst_fd, abs(fd[greek] - value) / abs(value))
    if worst_fd >= 1e-5:
        problems.append(f"FD rel err {worst_fd:.2e}")

    # implied_vol inverts price on the stated vol set
    worst_iv = 0.0
    for vol in (0.05, 0.1, 0.2, 0.5, 1, 2):
        recovered = pricer.implied_vol(100, 1, 100, pricer.price(100, 1, 100, vol))
        worst_iv = max(worst_iv, abs(recovered - vol))
    if worst_iv >= 1e-6:
        problems.append(f"implied vol err {worst_iv:.2e}")

    # the nested wire query: vol from implied_vol feeds the greeks batch
    client = Client(app.gateway)
    status, body = client.post(
        "/fast/pricer",
        json={
            "fns": ["price", "delta", "gamma", "vega"],
            "data": {
                "strike": 100,
                "time": 1,
                "spot": 20,
                "vol": "{{/lambda/pricer/implied_vol?strike=100&time=1&spot =20&price=2}}",
            },
        },
    )
    if status != 200 or abs(body["price"] - 2) >= 1e-8:
        problems.append(f"nested query status={status}")
    sigma = pricer.implied_vol(100, 1, 20, 2)
    if abs(pricer.price(100, 1, 20, sigma) - 2) >= 1e-8:
        problems.append("direct sigma* reprice")

    criterion(
        8,
        "pricer numerics: MC 0.2%, FD greeks 1e-5, implied vol 1e-6, sigma* 1e-8",
        not problems,
        "; ".join(problems)
        or f"MC {mc_rel:.1e}, FD {worst_fd:.1e}, IV {worst_iv:.1e}",
    )


# --- criterion 9

GOLDEN_CORPUS = {
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
    GOLDEN_QUERY: CombExpr(
        "apply",
        (CombExpr("apply", ("add",), None, Literal(2)),),
        "higher_order_arithmetic",
        Literal(3),
    ),
}


@settings(max_examples=1000, deadline=None)
@given(_queries)
def _print_parse_round_trip(ast):
    assert parse(format_query(ast)) == ast


def test_criterion_09_parse_corpus_and_round_trip(criterion):
    bad = [text for text, want in GOLDEN_CORPUS.items() if parse(text) != want]
    round_trip_ok = True
    try:
        _print_parse_round_trip()
    except AssertionError:
        round_trip_ok = False
    criterion(
        9,
        "verbatim corpus parses to the documented ASTs; 1000 AST round trips",
        not bad and round_trip_ok,
        f"corpus failures: {bad or 'none'}",
    )


# --- criterion 10

ALLOWED_STATUSES = {400, 404, 405, 413, 422, 500}


def _contract_rows(app):
    """(label, request, expected status, (mode, text)) for every error case."""
    loop_seed = _post("/rest/loop", {"data": "{{/rest/loop}}"})
    app.gateway.handle(loop_seed)
    exact, contains, prefix = "exact", "contains", "prefix"
    return [
        ("rest missing", _get("/rest/missing"), 404, (exact, "Resource not found")),
        (
            "rest delete missing",
            WireRequest("DELETE", "/rest/missing", "", None, ""),
            404,
            (exact, "Resource not found"),
        ),
        (
            "lambda unknown module",
            _get("/lambda/nosuch/fn"),
            404,
            (exact, "Module not available"),
        ),
        (
            "fast unknown module",
            _post("/fast/nosuch", {"fns": ["f"], "data": {}}),
            404,
            (exact, "Module not available"),
        ),
        (
            "lambda unknown function",
            _get("/lambda/weather/nosuch"),
            404,
            (exact, "Function not found: weather.nosuch"),
        ),
        ("unknown route", _get("/totally/elsewhere"), 404, (exact, "Not found")),
        (
            "lambda too many segments",
            _get("/lambda/a/b/c"),
            404,
            (exact, "Not found"),
        ),
        (
            "rest wrong method",
            WireRequest("PATCH", "/rest/x", "", b"1", "application/json"),
            405,
            (exact, "PATCH is not allowed here; use GET or POST or PUT or DELETE"),
        ),
        (
            "healthz wrong method",
            WireRequest("POST", "/healthz", "", b"{}", "application/json"),
            405,
            (exact, "POST is not allowed here; use GET"),
        ),
        (
            "query wrong method",
            WireRequest("PUT", "/query", "", b"{}", "application/json"),
            405,
            (exact, "PUT is not allowed here; use GET or POST"),
        ),
        (
            "lambda wrong method",
            WireRequest("DELETE", "/lambda/basic_arithmetic/add", "", None, ""),
            405,
            (exact, "DELETE is not allowed here; use GET or POST"),
        ),
        (
            "post query via GET",
            _get("/query", {"q": "Post xs to /rest/ys"}),
            405,
            (exact, "Post queries require POST"),
        ),
        (
            "fast to_uri via GET",
            _get("/fast/pricer/price", {"data": "{}", "to_uri": "/rest/out"}),
            405,
            (exact, "posting a result to a URI requires POST"),
        ),
        (
            "rest store without body",
            WireRequest("POST", "/rest/x", "", None, "application/json"),
            400,
            (exact, "a JSON body is required to store a resource"),
        ),
        (
            "malformed JSON body",
            WireRequest("POST", "/rest/x", "", b"{oops", "application/json"),
            400,
            (prefix, "malformed JSON in request body"),
        ),
        (
            "non-UTF-8 body",
            WireRequest("POST", "/rest/x", "", b"\xff\xfe\xfd", "application/json"),
            400,
            (exact, "request body is not valid UTF-8"),
        ),
        (
            "uri with template braces",
            _post("/rest/bad{x}", {"data": 1}),
            400,
            (contains, "may not contain template braces"),
        ),
        (
            "uri with empty segment",
            _get("/rest/a//b"),
            400,
            (contains, "empty segments"),
        ),
        (
            "ambiguous bare name",
            _get("/lambda/add", {"a": "1", "b": "2"}),
            400,
            (
                exact,
                "function 'add' is ambiguous across packages: "
                "basic_arithmetic, higher_order_arithmetic",
            ),
        ),
        (
            "bad to_do",
            _post("/lambda/basic_arithmetic/add", {"to_do": "bogus", "data": [1, 2]}),
            400,
            (exact, 'to_do must be one of apply, map, reduce, filter, got "bogus"'),
        ),
        (
            "fast segment plus fns",
            _post("/fast/pricer/price", {"fns": ["delta"], "data": {}}),
            400,
            (exact, "give either a function segment or fns, not both"),
        ),
        (
            "fast without fns",
            _post("/fast/pricer", {"data": {}}),
            400,
            (exact, "fns is required when the path names no function"),
        ),
        (
            "fast single without to_uri",
            _post("/fast/pricer/price", {"data": {}}),
            400,
            (exact, "to_uri is required when calling a single function"),
        ),
        (
            "empty fns",
            _post("/fast/pricer", {"fns": [], "data": {}}),
            400,
            (exact, "fns must be a non-empty list of function names"),
        ),
        (
            "query without q",
            _get("/query"),
            400,
            (exact, 'missing query parameter "q"'),
        ),
        (
            "query parse error",
            _get("/query", {"q": "Map price on"}),
            400,
            (exact, "unexpected end of input at position 12"),
        ),
        (
            "malformed template",
            _post("/lambda/basic_arithmetic/add", {"data": ["{{/rest/x", 1]}),
            400,
            (contains, "never closes"),
        ),
        (
            "arity mismatch",
            _post("/lambda/basic_arithmetic/add", {"data": [1, 2, 3]}),
            422,
            (exact, "basic_arithmetic.add expects 2 arguments, got 3"),
        ),
        (
            "missing parameter",
            _post("/lambda/basic_arithmetic/add", {"a": 1}),
            422,
            (exact, "basic_arithmetic.add missing required parameter(s): b"),
        ),
        (
            "unknown parameter",
            _post("/lambda/basic_arithmetic/add", {"a": 1, "b": 2, "bogus": 3}),
            422,
            (exact, "basic_arithmetic.add got unexpected parameter(s): bogus"),
        ),
        (
            "division by zero",
            _post("/lambda/basic_arithmetic/divide", {"a": 1, "b": 0}),
            500,
            (exact, "division by zero"),
        ),
        (
            "map of a non-array",
            _post("/lambda/basic_arithmetic/add", {"to_do": "map", "data": 3}),
            500,
            (exact, "map requires an array payload"),
        ),
        (
            "empty reduce",
            _post("/lambda/basic_arithmetic/add", {"to_do": "reduce", "data": []}),
            500,
            (exact, "reduce of empty array"),
        ),
        (
            "element failure carries its index",
            _post(
                "/lambda/basic_arithmetic/add",
                {"to_do": "map", "data": [[1, 2], ["x", 2]]},
            ),
            500,
            (prefix, "map element 1:"),
        ),
        (
            "non-boolean filter predicate",
            _post(
                "/lambda/weather/get_weather",
                {"to_do": "filter", "data": [[10, 20]]},
            ),
            500,
            (prefix, "filter element 0: filter predicate must return a boolean"),
        ),
        (
            "function value over the wire",
            _post("/lambda/higher_order_arithmetic/add", {"data": [2]}),
            500,
            (
                exact,
                "the result is a function value and cannot be returned over the wire",
            ),
        ),
        (
            "template depth exceeded",
            _post("/lambda/basic_arithmetic/add", {"data": ["{{/rest/loop}}", 1]}),
            500,
            (exact, "template nesting exceeds the depth limit of 8"),
        ),
    ]


def test_criterion_10_http_contract(app, criterion):
    failures = []
    seen_statuses = set()
    for label, request, want_status, (mode, text) in _contract_rows(app):
        response = app.gateway.handle(request)
        seen_statuses.add(response.status)
        body = response.body
        shape_ok = (
            isinstance(body, dict)
            and set(body) == {"message"}
            and isinstance(body["message"], str)
            and body["message"]
        )
        message = body.get("message", "") if isinstance(body, dict) else ""
        if mode == "exact":
            text_ok = message == text
        elif mode == "prefix":
            text_ok = message.startswith(text)
        else:
            text_ok = text in message
        if response.status != want_status or not shape_ok or not text_ok:
            failures.append(f"{label}: got {response.status} {message!r}")

    # 413 and purity rows need specially configured gateways
    small = build_app(Config(max_bytes=1024))
    response = small.gateway.handle(_post("/rest/big", {"data": "x" * 2000}))
    seen_statuses.add(response.status)
    if response.status != 413 or response.body != {
        "message": "request body exceeds 1024 bytes"
    }:
        failures.append(f"payload too large: got {response.status} {response.body!r}")

    checked = build_app(Config(check_purity=True))
    state = {"n": 0}

    def bump(x):
        state["n"] += 1
        return x + state["n"]

    checked.machine.register_package("impure_pkg", {"bump": bump})
    response = checked.gateway.handle(_post("/lambda/impure_pkg/bump", {"data": [1]}))
    seen_statuses.add(response.status)
    if response.status != 500 or response.body != {
        "message": "purity check failed: impure_pkg.bump returned differing results"
    }:
        failures.append(f"purity violation: got {response.status} {response.body!r}")

    denied = build_app()
    denied.gateway.allow = lambda method, path: False
    response = denied.gateway.handle(_get("/healthz"))
    seen_statuses.add(response.status)
    if response.status != 404 or response.body != {"message": "Not found"}:
        failures.append(f"allow-hook denial: got {response.status} {response.body!r}")

    if not seen_statuses <= ALLOWED_STATUSES:
        failures.append(f"stray statuses: {sorted(seen_statuses - ALLOWED_STATUSES)}")
    if seen_statuses != ALLOWED_STATUSES:
        failures.append(f"uncovered statuses: {sorted(ALLOWED_STATUSES - seen_statuses)}")

    criterion(
        10,
        "every route/method/error case answers the documented status and message",
        not failures,
        f"{len(failures)} failures" + (f": {failures[:3]}" if failures else ""),
    )
