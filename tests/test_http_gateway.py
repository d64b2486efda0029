import io
import json
import threading
from urllib.parse import parse_qsl, urlencode

import pytest
from hypothesis import example, given, settings, strategies as st

import fastgate
from fastgate import build_app
from fastgate.config import Config
from fastgate.errors import FastError
from fastgate.http_gateway import WireRequest, WireResponse
from fastgate.lambda_machine import FunctionRef, FunctionValue
from fastgate.template_resolver import TemplateResolver
from fastgate.values import canonical_json, validate_value

from conftest import Client
from test_values import json_values

# --- plumbing and routing


def test_healthz(client):
    assert client.get("/healthz") == (200, {"status": "ok"})
    status, body = client.post("/healthz", json={})
    assert status == 405
    assert body == {"message": "POST is not allowed here; use GET"}


def test_unknown_routes_are_404(client):
    for path in ("/", "/nope", "/rest", "/lambda", "/fast", "/lambda/", "/fast/x/y/z"):
        assert client.get(path) == (404, {"message": "Not found"})


def test_method_gate_lists_alternatives(client):
    status, body = client.request("PATCH", "/rest/x", json={"data": 1})
    assert status == 405
    assert body == {"message": "PATCH is not allowed here; use GET or POST or PUT or DELETE"}


def test_allow_hook_denials_look_like_404(bundle):
    bundle.gateway.allow = lambda method, path: not path.startswith("/lambda/")
    client = Client(bundle.gateway)
    assert client.get("/lambda/weather/get_weather", query={"latitude": "0", "longitude": "0"}) == (
        404,
        {"message": "Not found"},
    )
    status, _ = client.get("/healthz")
    assert status == 200


def test_head_is_answered_as_its_get_and_reaches_the_allow_hook_as_get(bundle):
    seen = []
    bundle.gateway.allow = lambda method, path: seen.append(method) or path != "/rest/hidden"
    bundle.store.post_resource("/rest/shown", [1])
    bundle.store.post_resource("/rest/hidden", [2])
    client = Client(bundle.gateway)
    for path in ("/healthz", "/rest/shown", "/rest/hidden", "/rest/none"):
        assert client.request("HEAD", path) == client.get(path)
    assert seen == ["GET"] * 8


def test_oversized_body_is_413_and_not_stored(bundle):
    bundle.gateway.max_bytes = 64
    client = Client(bundle.gateway)
    status, body = client.post("/rest/big", json={"data": "x" * 200})
    assert status == 413
    assert body == {"message": "request body exceeds 64 bytes"}
    assert client.get("/rest/big")[0] == 404


# --- /rest


def test_rest_lifecycle(client):
    status, body = client.post("/rest/books/1", json={"data": {"title": "T"}})
    assert (status, body) == (200, {"status": "success"})
    assert client.get("/rest/books/1") == (200, {"title": "T"})
    assert client.put("/rest/books/1", json={"data": {"title": "U"}}) == (
        200,
        {"status": "success"},
    )
    assert client.get("/rest/books/1") == (200, {"title": "U"})
    assert client.delete("/rest/books/1") == (200, {"status": "success"})
    assert client.get("/rest/books/1") == (404, {"message": "Resource not found"})
    assert client.delete("/rest/books/1") == (404, {"message": "Resource not found"})


def test_rest_envelope_unwraps_only_pure_data_objects(client):
    client.post("/rest/a", json={"data": 5})
    assert client.get("/rest/a") == (200, 5)
    client.post("/rest/b", json={"data": 5, "note": "keep me"})
    assert client.get("/rest/b") == (200, {"data": 5, "note": "keep me"})
    client.post("/rest/c", json=[1, 2, 3])
    assert client.get("/rest/c") == (200, [1, 2, 3])
    client.post("/rest/d", json="plain")
    assert client.get("/rest/d") == (200, "plain")
    client.post("/rest/e", json={"data": None})
    assert client.get("/rest/e") == (200, None)


def test_rest_requires_a_json_body(client):
    status, body = client.post("/rest/x")
    assert status == 400
    assert body == {"message": "a JSON body is required to store a resource"}
    status, body = client.post("/rest/x", body=b"{not json")
    assert status == 400
    assert "malformed JSON in request body" in body["message"]
    status, body = client.post("/rest/x", body=b"\xff\xfe")
    assert (status, body) == (400, {"message": "request body is not valid UTF-8"})


def test_rest_rejects_bad_uris(client):
    status, body = client.post("/rest/has{brace}", json={"data": 1})
    assert status == 400
    assert "brace" in body["message"] or "{" in body["message"]
    status, _ = client.get("/rest/a//b")
    assert status == 400


def test_rest_children_listing(client):
    client.post("/rest/books/1", json={"data": "a"})
    client.post("/rest/books/2", json={"data": "b"})
    client.post("/rest/books/2/reviews", json={"data": "r"})
    client.post("/rest/booking", json={"data": "x"})
    status, body = client.get("/rest/books", query={"children": "true"})
    assert status == 200
    assert body == ["/rest/books/1", "/rest/books/2", "/rest/books/2/reviews"]
    assert client.get("/rest/books", query={"children": "1"})[1] == body
    # without the flag the prefix itself must exist
    assert client.get("/rest/books")[0] == 404


def test_rest_percent_encoding_round_trip(client):
    client.post("/rest/caf%C3%A9", json={"data": 1})
    assert client.get("/rest/café") == (200, 1)


# --- /lambda


def test_lambda_query_params_are_typed(client):
    status, body = client.get(
        "/lambda/weather/get_weather",
        query={"latitude": "34.05", "longitude": "118.25"},
    )
    assert (status, body) == (200, {"temp_c": 27.46})


def test_lambda_single_segment_resolves_unique_names(client):
    status, body = client.get(
        "/lambda/get_weather", query={"latitude": "0", "longitude": "0"}
    )
    assert (status, body) == (200, {"temp_c": 30.0})
    status, body = client.get("/lambda/add", query={"a": "1", "b": "2"})
    assert status == 400
    assert "ambiguous" in body["message"]
    assert "basic_arithmetic" in body["message"]
    assert "higher_order_arithmetic" in body["message"]


def test_lambda_body_forms(client):
    # free body keys
    assert client.post("/lambda/basic_arithmetic/add", json={"a": 2, "b": 3}) == (200, 5)
    # explicit data envelope with positional args
    assert client.post("/lambda/basic_arithmetic/add", json={"data": [2, 3]}) == (200, 5)
    # a bare list body is the positional argument list
    assert client.post("/lambda/pricer/get_value", json=[[[100, 1, 100, 0.2]]])[0] == 200
    # data query param carries JSON
    assert client.get("/lambda/basic_arithmetic/add", query={"data": "[2,3]"}) == (200, 5)


def test_lambda_body_overrides_query_params(client):
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"a": 10, "b": 20}, query={"a": "1", "b": "2"}
    )
    assert (status, body) == (200, 30)


def test_lambda_form_encoded_body(client):
    status, body = client.post(
        "/lambda/weather/get_weather",
        body=b"latitude=35.05&longitude=118.25",
        content_type="application/x-www-form-urlencoded",
    )
    assert (status, body) == (200, {"temp_c": 27.13})


def test_lambda_uri_payload(client):
    client.post("/rest/pair", json={"data": {"a": 4, "b": 5}})
    assert client.post("/lambda/basic_arithmetic/add", json={"uri": "/rest/pair"}) == (
        200,
        9,
    )
    status, body = client.post("/lambda/basic_arithmetic/add", json={"uri": "/rest/nope"})
    assert (status, body) == (404, {"message": "Resource not found"})


def test_lambda_combinators_over_the_wire(client):
    assert client.post(
        "/lambda/basic_arithmetic/add",
        json={"to_do": "map", "data": [[1, 2], [3, 4]]},
    ) == (200, [3, 7])
    assert client.post(
        "/lambda/basic_arithmetic/add",
        json={"to_do": "reduce", "data": [1, 2, 3, 4]},
    ) == (200, 10)
    client.post("/rest/xs", json={"data": [[1, 2], [3, 4]]})
    assert client.post(
        "/lambda/basic_arithmetic/add", json={"to_do": "map", "uri": "/rest/xs"}
    ) == (200, [3, 7])


def test_lambda_error_statuses(client):
    status, body = client.get("/lambda/nosuch/fn")
    assert (status, body) == (404, {"message": "Module not available"})
    status, body = client.get("/lambda/weather/nosuch")
    assert status == 404
    assert body == {"message": "Function not found: weather.nosuch"}
    status, body = client.post("/lambda/basic_arithmetic/add", json={"data": [1, 2, 3]})
    assert status == 422
    assert body == {"message": "basic_arithmetic.add expects 2 arguments, got 3"}
    status, body = client.post("/lambda/basic_arithmetic/add", json={"a": 1, "bogus": 2})
    assert status == 422
    assert "unexpected parameter" in body["message"]
    status, body = client.post("/lambda/basic_arithmetic/add", json={"a": 1})
    assert status == 422
    assert "missing required parameter(s): b" in body["message"]
    status, body = client.post("/lambda/basic_arithmetic/divide", json={"a": 1, "b": 0})
    assert (status, body) == (500, {"message": "division by zero"})
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"to_do": "bogus", "data": [1, 2]}
    )
    assert status == 400
    assert body == {
        "message": 'to_do must be one of apply, map, reduce, filter, got "bogus"'
    }
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"to_do": "map", "data": 3}
    )
    assert (status, body) == (500, {"message": "map requires an array payload"})
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"to_do": "reduce", "data": []}
    )
    assert (status, body) == (500, {"message": "reduce of empty array"})
    status, body = client.post(
        "/lambda/basic_arithmetic/add",
        json={"to_do": "map", "data": [[1, 2], ["x", 2]]},
    )
    assert status == 500
    assert body["message"].startswith("map element 1:")
    status, body = client.post("/lambda/higher_order_arithmetic/add", json={"data": [2]})
    assert status == 500
    assert body == {
        "message": "the result is a function value and cannot be returned over the wire"
    }


def test_lambda_get_never_mutates(bundle):
    client = Client(bundle.gateway)
    client.post("/rest/seed", json={"data": [1, 2]})
    before = bundle.store.canonical_dump()
    client.get("/lambda/basic_arithmetic/add", query={"data": "[1,2]"})
    client.get("/lambda/nosuch/fn")
    client.get("/rest/seed")
    client.get("/rest/seed", query={"children": "true"})
    client.get("/rest/missing")
    assert bundle.store.canonical_dump() == before


# --- templates on the wire


def test_template_references_resolve_in_payloads(client):
    client.post("/rest/x", json={"data": 4})
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"data": ["{{/rest/x}}", 3]}
    )
    assert (status, body) == (200, 7)
    status, body = client.post(
        "/lambda/basic_arithmetic/add",
        json={"data": ["{{/lambda/basic_arithmetic/add?a=1&b=2}}", 10]},
    )
    assert (status, body) == (200, 13)


def test_template_depth_limit_maps_to_500(client):
    client.post("/rest/loop", json={"data": "{{/rest/loop}}"})
    status, body = client.post("/lambda/basic_arithmetic/add", json={"data": ["{{/rest/loop}}", 1]})
    assert status == 500
    assert body == {"message": "template nesting exceeds the depth limit of 8"}


def test_template_chain_deeper_than_the_stack_is_depth_exceeded():
    app = build_app(Config(depth_limit=5000))
    chain = "{{" * 3000 + "/rest/x" + "}}" * 3000
    status, body = Client(app.gateway).post(
        "/lambda/basic_arithmetic/add", json={"data": chain}
    )
    assert (status, body) == (500, {"message": "template nesting is too deep to resolve"})


def test_stored_objects_resolve_templates_in_key_order(client):
    # the store keeps canonical text, so a posted object's key order is not kept
    # and the first failing template is the same whichever order was posted
    absent = "{{/rest/absent}}"
    for data in ({"b": "{{bad}}", "a": absent}, {"a": absent, "b": "{{bad}}"}):
        client.post("/rest/args", json={"data": data})
        reply = client.get("/lambda/basic_arithmetic/add", query={"uri": "/rest/args"})
        assert reply == (404, {"message": "Resource not found"})


def test_uri_payloads_resolve_only_their_templates(bundle, client):
    bundle.machine.register_package("echo", {"same": lambda x: x})
    client.post("/rest/a", json={"data": 5})
    # a raw JSON body: the string itself is stored, not an unwrapped envelope
    assert client.post("/rest/t", body=b'"{{/rest/a}}"') == (200, {"status": "success"})
    client.post("/rest/e", json={"data": ["\\{{lit}}"]})
    client.post("/rest/k", json={"data": [{"{{/rest/a}}": 1}]})
    assert client.get("/lambda/echo/same", query={"uri": "/rest/t"}) == (200, 5)
    assert client.post("/lambda/echo/same", json={"data": ["{{/rest/t}}"]}) == (200, 5)
    assert client.get("/lambda/echo/same", query={"uri": "/rest/e"}) == (200, "{{lit}}")
    assert client.get("/lambda/echo/same", query={"uri": "/rest/k"}) == (
        200,
        {"{{/rest/a}}": 1},
    )


def test_a_template_free_uri_payload_is_read_once_and_never_walked(bundle, client, monkeypatch):
    book = [[90 + i % 20, 0.5 + i % 3, 100.0, 0.2] for i in range(1000)]
    client.post("/rest/book", json={"data": book})
    expected = client.post("/lambda/pricer/price", json={"to_do": "map", "data": book})[1]

    class CountingEntries(dict):
        reads = 0

        def __getitem__(self, key):
            CountingEntries.reads += 1
            return super().__getitem__(key)

    walks = []
    walk = TemplateResolver._walk

    def counting_walk(self, value, depth):
        walks.append(depth)
        return walk(self, value, depth)

    monkeypatch.setattr(bundle.store, "_entries", CountingEntries(bundle.store._entries))
    monkeypatch.setattr(TemplateResolver, "_walk", counting_walk)
    reply = client.get("/lambda/pricer/price", query={"uri": "/rest/book", "to_do": "map"})
    assert reply == (200, expected)
    assert CountingEntries.reads == 1
    assert walks == []


def test_a_uri_wins_before_the_inline_arguments_are_parsed(client):
    book = [[100, 1, 100, 0.2], [90, 0.5, 110, 0.3]]
    client.post("/rest/book", json={"data": book})
    expected = client.post("/lambda/pricer/price", json={"to_do": "map", "data": book})
    reply = client.get(
        "/lambda/pricer/price", query={"uri": "/rest/book", "to_do": "map", "data": "nope"}
    )
    assert reply == expected
    assert reply[0] == 200 and len(reply[1]) == 2


def test_a_uri_that_is_not_a_string_is_a_400(client):
    client.post("/rest/book", json={"data": [[90, 1, 100, 0.2]]})
    for uri in (3, ["/rest/book"], {"u": "/rest/book"}, True):
        reply = client.post(
            "/lambda/pricer/price", json={"to_do": "map", "uri": uri, "data": [[90, 1, 100, 0.2]]}
        )
        assert reply == (400, {"message": "uri must be a resource URI string"}), uri
    # null is no uri, in the body as for /fast's to_uri: the inline data is used
    inline = client.post("/lambda/pricer/price", json={"to_do": "map", "data": [[90, 1, 100, 0.2]]})
    assert inline[0] == 200
    assert client.post("/lambda/pricer/price", json={"to_do": "map", "uri": None,
                                                     "data": [[90, 1, 100, 0.2]]}) == inline
    # the body's field wins over the param, as it does for to_uri
    assert client.post("/lambda/pricer/price", query={"uri": "/rest/book"},
                       json={"to_do": "map", "uri": 3}) == (
        400, {"message": "uri must be a resource URI string"})
    assert client.post("/fast/pricer", json={"to_do": "map", "uri": 3, "fns": ["price"]}) == (
        400, {"message": "uri must be a resource URI string"})


def test_template_malformed_maps_to_400(client):
    status, body = client.post(
        "/lambda/basic_arithmetic/add", json={"data": ["{{/rest/x", 1]}
    )
    assert status == 400
    assert "never closes" in body["message"]


@pytest.mark.parametrize(
    "template, message",
    [
        ("{{{{/rest/n}}}}", "template body did not resolve to text"),
        (
            "{{/lambda/a/b/c}}",
            'lambda template path needs one or two segments, got "/lambda/a/b/c"',
        ),
    ],
)
def test_template_that_names_nothing_maps_to_400(client, template, message):
    client.post("/rest/n", json={"data": 5})
    status, body = client.post("/lambda/basic_arithmetic/add", json={"data": [template, 1]})
    assert (status, body) == (400, {"message": message})


def test_template_results_stored_via_rest_are_raw(client):
    # POST /rest stores payloads verbatim; templates live in lambda calls
    client.post("/rest/raw", json={"data": "{{/rest/nope}}"})
    assert client.get("/rest/raw") == (200, "{{/rest/nope}}")


# --- /fast


def test_fast_single_function_posts_result(client):
    client.post("/rest/trades", json={"data": [[100, 1, 100, 0.2], [90, 0.5, 105, 0.35]]})
    status, body = client.post(
        "/fast/pricer/get_value",
        json={"data": ["{{/rest/trades}}"], "to_uri": "/rest/books/value"},
    )
    assert status == 200
    assert body == {"status": "success", "to_uri": "/rest/books/value"}
    status, stored = client.get("/rest/books/value")
    assert status == 200
    assert stored == pytest.approx(7.965567455405804 + 18.892986885237924, rel=1e-12)


def test_fast_fns_batch(client):
    trade = {"strike": 100, "time": 1, "spot": 100, "vol": 0.2}
    status, body = client.post(
        "/fast/pricer",
        json={"fns": ["price", "delta", "gamma", "vega"], "data": trade},
    )
    assert status == 200
    assert set(body) == {"price", "delta", "gamma", "vega"}
    for name in body:
        single = client.post(f"/lambda/pricer/{name}", json={"data": trade})
        assert single == (200, body[name])


def test_fast_fns_accepts_loose_encodings(client):
    trade = {"strike": 100, "time": 1, "spot": 100, "vol": 0.2}
    want = client.post(
        "/fast/pricer", json={"fns": ["price", "delta"], "data": trade}
    )[1]
    for encoded in ('["price","delta"]', "['price','delta']", "price,delta", "('price','delta')"):
        got = client.post("/fast/pricer", json={"fns": encoded, "data": trade})
        assert got == (200, want)
    got = client.request(
        "POST",
        "/fast/pricer",
        query={"fns": "price,delta", "data": json.dumps(trade)},
    )
    assert got == (200, want)
    no_names = {"message": "fns must be a non-empty list of function names"}
    for encoded, reply in (
        ("", (400, {"message": "fns is required when the path names no function"})),
        ("[]", (400, no_names)),
        ("[" * 100_000, (400, no_names)),
    ):
        assert client.post("/fast/pricer", json={"fns": encoded, "data": trade}) == reply


def test_a_repeated_fns_name_runs_once_and_answers_as_the_deduplicated_request(bundle):
    calls = []
    bundle.machine.register_package("counting", {
        "double": lambda x: calls.append(x) or 2 * x,
        "negate": lambda x: calls.append(x) or -x,
    })
    client = Client(bundle.gateway)
    xs = [1, 2, 3]

    def reply_and_calls(path, payload):
        calls.clear()
        reply = client.post(path, json=payload)
        return reply, len(calls)

    for repeated, once in (
        (["double"] * 50, ["double"]),
        (["double", "negate", "double", "negate"], ["double", "negate"]),
        ("double,double,negate", "double,negate"),
        ("['negate','negate']", "negate"),
    ):
        want = reply_and_calls("/fast/counting", {"fns": once, "to_do": "map", "data": xs})
        assert want[0][0] == 200
        got = reply_and_calls("/fast/counting", {"fns": repeated, "to_do": "map", "data": xs})
        assert got == want, repeated
    # a query's batched list keeps its shape, and runs each distinct name once
    assert reply_and_calls("/query", {"q": "Map [double, double] from counting on [1, 2, 3]"}) == (
        (200, [{"double": 2}, {"double": 4}, {"double": 6}]), 3)
    assert reply_and_calls("/query", {"q": "Apply double, negate, double from counting on 5"}) == (
        (200, {"double": 10, "negate": -5}), 2)
    assert reply_and_calls("/query", {"q": "Map double, negate, double from counting on [1]"}) == (
        reply_and_calls("/query", {"q": "Map double, negate from counting on [1]"}))


def test_fast_batch_with_to_uri(client):
    trade = {"strike": 100, "time": 1, "spot": 100, "vol": 0.2}
    status, body = client.post(
        "/fast/pricer",
        json={"fns": ["price", "delta"], "data": trade, "to_uri": "/rest/out/greeks"},
    )
    assert (status, body) == (200, {"status": "success", "to_uri": "/rest/out/greeks"})
    status, stored = client.get("/rest/out/greeks")
    assert status == 200
    assert set(stored) == {"price", "delta"}


def test_fast_validation_errors(client):
    trade = {"strike": 100, "time": 1, "spot": 100, "vol": 0.2}
    status, body = client.post(
        "/fast/pricer/price", json={"fns": ["delta"], "data": trade}
    )
    assert (status, body) == (
        400,
        {"message": "give either a function segment or fns, not both"},
    )
    status, body = client.post("/fast/pricer", json={"data": trade})
    assert (status, body) == (
        400,
        {"message": "fns is required when the path names no function"},
    )
    status, body = client.post("/fast/pricer/price", json={"data": trade})
    assert (status, body) == (
        400,
        {"message": "to_uri is required when calling a single function"},
    )
    status, body = client.post(
        "/fast/pricer/price", json={"data": trade, "to_uri": 7}
    )
    assert (status, body) == (400, {"message": "to_uri must be a resource URI string"})
    status, body = client.request(
        "GET",
        "/fast/pricer/price",
        query={"data": json.dumps(trade), "to_uri": "/rest/out"},
    )
    assert (status, body) == (
        405,
        {"message": "posting a result to a URI requires POST"},
    )
    status, body = client.post("/fast/pricer", json={"fns": [], "data": trade})
    assert (status, body) == (
        400,
        {"message": "fns must be a non-empty list of function names"},
    )
    status, body = client.post("/fast/pricer", json={"fns": [1, 2], "data": trade})
    assert status == 400
    status, body = client.post(
        "/fast/nosuch", json={"fns": ["f"], "data": {}, "to_uri": "/rest/o"}
    )
    assert (status, body) == (404, {"message": "Module not available"})


def test_fast_failure_does_not_store(client):
    client.post("/rest/trades", json={"data": [[100, 1, 100, -0.2]]})
    status, _ = client.post(
        "/fast/pricer/get_value",
        json={"data": ["{{/rest/trades}}"], "to_uri": "/rest/books/value"},
    )
    assert status == 500
    assert client.get("/rest/books/value")[0] == 404


# --- /query


def test_query_via_get_param(client):
    client.post("/rest/trades", json={"data": [[100, 1, 20, 0.2], [100, 1, 100, 0.2]]})
    status, body = client.get(
        "/query", query={"q": "Map price, delta from pricer on trades"}
    )
    assert status == 200
    assert len(body) == 2 and set(body[0]) == {"price", "delta"}


def test_query_via_post_body(client):
    status, body = client.post(
        "/query",
        json={"q": "Get Apply (Apply add on 2) from higher_order_arithmetic on 3"},
    )
    assert (status, body) == (200, 5)


def test_query_missing_q(client):
    assert client.get("/query") == (400, {"message": 'missing query parameter "q"'})
    assert client.post("/query", json={}) == (
        400,
        {"message": 'missing query parameter "q"'},
    )


def test_query_function_values_never_reach_the_wire(client):
    for q in (
        "Apply add from higher_order_arithmetic on 2",
        "Apply [add, add] from higher_order_arithmetic on 2",
    ):
        assert client.get("/query", query={"q": q}) == (
            500,
            {"message": "query result is a function value and cannot be serialized"},
        )


@pytest.mark.parametrize(
    "path, body, message",
    [
        (
            "/lambda/basic_arithmetic/add",
            "[" * 100_000,
            "request body exceeds nesting depth 64",
        ),
        (
            "/query",
            {"q": "Map add from basic_arithmetic on " * 1000 + "[[1,2]]"},
            "combinators nest deeper than 64 at position 2112",
        ),
        (
            "/query",
            {"q": "Apply (" * 2000 + "add" + ") on 1" * 2000},
            "combinators nest deeper than 64 at position 448",
        ),
        (
            "/query",
            {"q": "Apply add on " + "[" * 100_000},
            "JSON value exceeds nesting depth 64 at position 13",
        ),
    ],
    ids=["json-body", "query-map-chain", "query-paren-chain", "query-json-literal"],
)
def test_deep_nesting_is_a_400_not_a_recursion_error(client, path, body, message):
    if isinstance(body, str):
        reply = client.post(path, body=body)
    else:
        reply = client.post(path, json=body)
    assert reply == (400, {"message": message})


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


_FUNCTION_LEAF = FunctionValue(lambda x: x)
_TOO_DEEP = "function produced an invalid result: result exceeds nesting depth 64"


@pytest.mark.parametrize(
    "depth, leaf, message",
    [
        (100_000, 1, _TOO_DEEP),
        # past the depth validation looks at, a function value is just depth
        (70, _FUNCTION_LEAF, _TOO_DEEP),
        (64, _FUNCTION_LEAF, "result contains a function value and cannot be serialized"),
    ],
    ids=["deep-list", "function-value-past-the-limit", "function-value-at-the-limit"],
)
def test_deep_function_results_answer_the_documented_500(bundle, depth, leaf, message):
    bundle.machine.register_package("deep", {"nest": lambda x: _nested(depth, leaf)})
    reply = Client(bundle.gateway).post("/lambda/deep/nest", json={"data": [0]})
    assert reply == (500, {"message": message})


def test_query_parse_errors_are_400_with_position(client):
    status, body = client.get("/query", query={"q": "Map price on"})
    assert status == 400
    assert body == {"message": "unexpected end of input at position 12"}


def test_post_queries_require_post(client):
    client.post("/rest/xs", json={"data": [1, 2]})
    q = "Post Apply add from basic_arithmetic on xs to /rest/sum"
    status, body = client.get("/query", query={"q": q})
    assert (status, body) == (405, {"message": "Post queries require POST"})
    assert client.get("/rest/sum")[0] == 404
    status, body = client.post("/query", json={"q": q})
    assert (status, body) == (200, {"status": "success"})
    assert client.get("/rest/sum") == (200, 3)


def test_query_body_q_wins_over_param(client):
    status, body = client.post(
        "/query",
        json={"q": "Apply add from basic_arithmetic on [1, 2]"},
        query={"q": "Apply add from basic_arithmetic on [5, 5]"},
    )
    assert (status, body) == (200, 3)


def test_a_query_body_q_that_is_not_a_string_is_400(client):
    assert client.post("/query", json={"q": 5}, query={"q": "Get xs"}) == (
        400, {"message": "query must be a string at position 0"})


# --- one rule for each part of a call: binding, naming and control fields


@pytest.mark.parametrize(
    "operand, message",
    [
        ("[3, 4]", "add(2) expects 1 arguments, got 2"),
        ('{"y": 3, "z": 4}', "add(2) got unexpected parameter(s): z"),
        ("{}", "add(2) missing required parameter(s): y"),
    ],
)
def test_a_function_value_is_bound_as_a_registered_function_is(client, operand, message):
    for query, reply in (
        (f"Apply (Apply add on 2) from higher_order_arithmetic on {operand}", message),
        (f"Map (Apply add on 2) from higher_order_arithmetic on [{operand}]",
         f"map element 0: {message}"),
    ):
        status, body = client.post("/query", json={"q": query})
        assert (status, body) == (422, {"message": reply})
        assert "<locals>" not in body["message"]


def test_a_type_error_in_a_function_value_body_is_a_domain_error(bundle, client):
    bundle.machine.register_package(
        "strings", {"joiner": lambda sep: FunctionValue(sep.join, f"joiner({sep!r})")}
    )
    q = 'Apply (Apply joiner on "-") from strings on 5'
    assert client.post("/query", json={"q": q}) == (
        500, {"message": "joiner('-'): can only join an iterable"})


@pytest.mark.parametrize(
    "path",
    ["basic_arithmetic/add", "basic_arithmetic%2Fadd", "basic%5Farithmetic/add",
     "basic_arithmetic%252Fadd", "add"],
)
def test_a_lambda_template_names_what_its_path_names_on_the_wire(bundle, client, path):
    bundle.machine.register_package("echo", {"same": lambda x: x})
    wire = client.get(f"/lambda/{path}", query={"a": "50", "b": "50"})
    spliced = client.post("/lambda/echo/same", json={"data": [f"{{{{/lambda/{path}?a=50&b=50}}}}"]})
    assert spliced == wire


@pytest.mark.parametrize(
    "target",
    ["/lambda%2Fbasic_arithmetic/add?a=1&b=2", "/lambda%2Fget_weather?latitude=0&longitude=0",
     "/rest%2Fx", "/rest%2Fa%2541"],
)
def test_a_template_reads_its_kind_from_the_decoded_path(bundle, client, target):
    bundle.machine.register_package("echo", {"same": lambda x: x})
    bundle.store.post_resource("/rest/x", 4)
    bundle.store.post_resource("/rest/a%41", 7)  # decoded once: a second decode reads /rest/aA
    path, _, query = target.partition("?")
    wire = client.get(path, query=dict(parse_qsl(query)))
    assert wire[0] == 200
    assert client.post("/lambda/echo/same", json={"data": [f"{{{{{target}}}}}"]}) == wire


@pytest.mark.parametrize(
    "q,reply",
    [("Map add from basic_arithmetic on /rest%2Fbook", [3, 7]),
     ("Post Map add from basic_arithmetic on book to /rest%2Fout", {"status": "success"})],
)
def test_a_query_uri_is_read_once_decoded(client, q, reply):
    client.post("/rest/book", json={"data": [[1, 2], [3, 4]]})
    assert client.post("/query", json={"q": q}) == (200, reply)
    if q.startswith("Post"):
        assert client.get("/rest/out") == (200, [3, 7])


# URI text after /rest/: safe characters, raw and escaped UTF-8, escapes of
# "/", "%", "?" and "{", and escapes that are malformed or spell no UTF-8
_uri_texts = st.lists(
    st.sampled_from(["a", "B", "7", "-", ".", "~", "_", "/", "é", "%2F", "%41", "%25",
                     "%C3%A9", "%3F", "%7B", "%FF", "%C3", "%zz", "%"]),
    max_size=6,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_uri_texts)
@example("caf%C3%A9")
@example("a%FF")
def test_every_reader_of_a_uri_text_reaches_one_key_or_answers_one_400(text):
    app = build_app()
    client = Client(app.gateway)
    uri = "/rest/" + text
    add = "/lambda/basic_arithmetic/add"
    written = client.post(uri, json=[1, 2])
    stored = json.loads(app.store.canonical_dump())
    read = [
        client.post(add, json={"uri": uri}),
        client.get(add, query={"uri": uri}),
        client.post(add, body=urlencode({"uri": uri}),
                    content_type="application/x-www-form-urlencoded"),
        client.post(add, json={"data": "{{%s}}" % uri}),
        # no drawn character ends a query's URI (whitespace or ,()[]), so the
        # text goes into a query as it is
        client.post("/query", json={"q": f"Apply add from basic_arithmetic on {uri}"}),
    ]
    query_post = client.post(
        "/query", json={"q": f"Post Apply add from basic_arithmetic on [2, 3] to {uri}"}
    )
    queried = json.loads(app.store.canonical_dump())
    posted = client.post("/fast/basic_arithmetic/add", json={"data": [2, 3], "to_uri": uri})
    after = json.loads(app.store.canonical_dump())
    if written[0] == 200:
        (key,) = stored
        assert stored == {key: [1, 2]}
        assert read == [(200, 3)] * 5
        assert query_post == (200, {"status": "success"})
        assert queried == {key: 5}
        assert posted == (200, {"status": "success", "to_uri": uri})
        assert after == {key: 5}
    else:
        assert written[0] == 400
        assert read == [written] * 5
        assert query_post == written
        assert queried == {}
        assert posted == written
        assert after == {}
    if written == (400, {"message": f"URI is not percent-encoded UTF-8: {uri}"}):
        # the same text written into a query string unencoded is refused alike
        raw = app.gateway.handle(WireRequest("GET", add, "uri=" + uri))
        assert (raw.status, raw.body) == written


@pytest.mark.parametrize("to_do", [5, ["map"], {}, True])
def test_a_to_do_that_names_no_combinator_is_400(client, to_do):
    for path, extra in (("/lambda/basic_arithmetic/add", {}), ("/fast/basic_arithmetic", {"fns": ["add"]})):
        status, body = client.post(path, json={"to_do": to_do, "a": 1, "b": 2, **extra})
        assert status == 400
        # the value is spelled as the client sent it, in JSON: `true`, not `True`
        assert body["message"] == (
            f"to_do must be one of apply, map, reduce, filter, got {json.dumps(to_do)}"
        )


def test_a_null_or_empty_to_do_is_apply_and_a_body_field_wins(client):
    for to_do in (None, ""):
        assert client.post("/lambda/basic_arithmetic/add", json={"to_do": to_do, "a": 1, "b": 2}) == (
            200, 3)
    # the body's null wins over the param's map, as it does for uri
    assert client.post("/lambda/basic_arithmetic/add", query={"to_do": "map"},
                       json={"to_do": None, "data": [1, 2]}) == (200, 3)


def test_module_and_function_are_free_parameter_names(bundle, client):
    bundle.machine.register_package("p", {"f": lambda function: function, "g": lambda module: module})
    assert client.post("/lambda/p/f", json={"function": 3}) == (200, 3)
    assert client.get("/lambda/p/g", query={"module": "4"}) == (200, 4)
    assert client.post("/lambda/basic_arithmetic/add", json={"a": 1, "b": 2, "module": "x"}) == (
        422, {"message": "basic_arithmetic.add got unexpected parameter(s): module"})


def test_query_via_form_encoded_body(client):
    client.post("/rest/xs", json={"data": [1, 2]})
    form = "application/x-www-form-urlencoded"
    assert client.post("/query", body=b"q=Get+xs", content_type=form) == (200, [1, 2])
    status, body = client.post(
        "/query",
        body=b"q=Apply+add+from+basic_arithmetic+on+xs",
        query={"q": "Get xs"},
        content_type=form,
    )
    assert (status, body) == (200, 3)  # the form wins over the query string


# --- determinism and the WSGI adapter


def test_identical_requests_are_byte_identical(client):
    client.post("/rest/trades", json={"data": [[100, 1, 100, 0.2]]})
    req = lambda: client.get("/query", query={"q": "Map [price] from pricer on trades"})
    first, second = req(), req()
    assert canonical_json(first) == canonical_json(second)


def _wsgi_call(gateway, method, path, query="", body=b"", content_type="application/json"):
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)),
        "CONTENT_TYPE": content_type,
        "wsgi.input": io.BytesIO(body),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = gateway.wsgi_app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)


def test_wsgi_adapter_speaks_canonical_json(bundle):
    status, headers, payload = _wsgi_call(bundle.gateway, "GET", "/healthz")
    assert status == "200 OK"
    assert headers["Content-Type"] == "application/json"
    assert payload == b'{"status":"ok"}'
    assert headers["Content-Length"] == str(len(payload))
    status, _, payload = _wsgi_call(bundle.gateway, "GET", "/rest/missing")
    assert status == "404 Not Found"
    assert payload == b'{"message":"Resource not found"}'


def test_wsgi_query_string_parsing(bundle):
    status, _, payload = _wsgi_call(
        bundle.gateway, "GET", "/lambda/basic_arithmetic/add", query="a=1&b=2"
    )
    assert status == "200 OK" and payload == b"3"


# text rich in what JSON escapes: non-ASCII, lone surrogates, controls
_WIRE_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff\u00e9\u4e2d\x00\"\\"),
    max_size=8,
)
_wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-05])
    | _WIRE_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_WIRE_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(value=_wire_values)
@example(value=-0.0)
@example(value=1e-05)
@example(value=[2**64, -(2**70)])
@example(value={"z": {"y": "\u00e9\ud800", "b": [1e-05, -0.0]}, "a": {"k": None, "c": True}})
@example(value=_nested(63, {"b": 1, "a": 2**64}))  # 64 deep, the limit
@example(value={"\ud800\udfff": None, "\udfff": None})
def test_a_resource_get_answers_the_canonical_bytes_of_the_posted_value(value):
    # the JSON value the draw denotes: a str holding a high and a low
    # surrogate side by side is one astral character once it is JSON
    value = json.loads(json.dumps(value))
    app = build_app()
    # the raw UTF-8 form where it exists, else the escaped one (lone surrogates)
    try:
        raw = json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raw = json.dumps(value).encode("utf-8")
    if isinstance(value, dict) and set(value) == {"data"}:
        raw = b'{"data":' + raw + b"}"  # an envelope, so the reply is the whole value
    assert _wsgi_call(app.gateway, "POST", "/rest/drawn", body=raw)[0] == "200 OK"
    status, headers, payload = _wsgi_call(app.gateway, "GET", "/rest/drawn")
    assert status == "200 OK" and headers["Content-Length"] == str(len(payload))
    reparsed = canonical_json(json.loads(app.store.get_text("/rest/drawn")))
    assert payload == canonical_json(value).encode("utf-8") == reparsed.encode("utf-8")


def test_a_wire_post_walks_its_body_once(bundle, monkeypatch):
    walks = []

    def counting_validate(value, **kwargs):
        walks.append(kwargs.get("what", "value"))
        validate_value(value, **kwargs)

    for module in (fastgate.values, fastgate.rest_machine, fastgate.lambda_machine,
                   fastgate.query_language):
        monkeypatch.setattr(module, "validate_value", counting_validate)
    book = [[100 + i, 1 + i % 3, 100, 0.2 + i / 10_000] for i in range(1000)]
    for body in (book, {"data": book}):
        walks.clear()
        raw = json.dumps(body).encode("utf-8")
        assert _wsgi_call(bundle.gateway, "POST", "/rest/book", body=raw)[0] == "200 OK"
        assert walks == ["request body"]
    assert bundle.store.get_resource("/rest/book") == book


def test_a_computed_result_past_the_depth_limit_is_still_refused(bundle):
    # each result is 64 deep, the most a function may return; storing it
    # under an fns key or in a mapped list adds the 65th level
    bundle.machine.register_package("deep", {"nest": lambda x: _nested(64, x)})
    client = Client(bundle.gateway)
    refused = (400, {"message": "value exceeds nesting depth 64"})
    fast = {"data": {"x": 1}, "fns": ["nest"], "to_uri": "/rest/deep"}
    assert client.post("/fast/deep", json=fast) == refused
    mapped = {"q": "Post Map [nest] from deep on [1] to /rest/deep"}
    assert client.post("/query", json=mapped) == refused
    assert client.get("/rest/deep") == (404, {"message": "Resource not found"})
    stored = client.post("/query", json={"q": "Post Apply nest from deep on 1 to /rest/deep"})
    assert stored == (200, {"status": "success"})
    assert client.get("/rest/deep") == (200, _nested(64, 1))


def test_a_composed_reply_may_nest_past_the_depth_limit(bundle):
    # the bound holds for each value that enters and each function result,
    # not for a reply composed from them: a map's array and an fns object
    # each add a level above their results
    bundle.machine.register_package("deep", {"nest": lambda x: _nested(64, x)})
    client = Client(bundle.gateway)
    mapped = client.post("/query", json={"q": "Map [nest] from deep on [1]"})
    assert mapped == (200, _nested(65, 1))
    batched = client.post("/fast/deep", json={"data": {"x": 1}, "fns": ["nest"]})
    assert batched == (200, {"nest": _nested(64, 1)})
    # such a reply cannot be posted back as it is
    assert client.post("/rest/deep", json=_nested(65, 1)) == (
        400, {"message": "request body exceeds nesting depth 64"}
    )


def test_purity_checked_gateway_rejects_impure_functions():
    from fastgate import Config

    app = build_app(Config(check_purity=True))
    counter = {"n": 0}

    def bump(x):
        counter["n"] += 1
        return x + counter["n"]

    app.machine.register_package("impure_pkg", {"bump": bump})
    client = Client(app.gateway)
    status, body = client.post("/lambda/impure_pkg/bump", json={"data": [1]})
    assert status == 500
    assert body == {
        "message": "purity check failed: impure_pkg.bump returned differing results"
    }
    # pure functions still answer normally under the checked mode
    assert client.post("/lambda/basic_arithmetic/add", json={"data": [1, 2]}) == (200, 3)
    # and a function value gets the same answer as without the check
    assert client.post("/lambda/higher_order_arithmetic/add", json={"data": [2]}) == (
        500,
        {"message": "the result is a function value and cannot be returned over the wire"},
    )
    differing = "purity check failed: impure_pkg.bump returned differing results"
    # queries, map elements and template splices are checked too
    assert client.post("/query", json={"q": "Apply bump from impure_pkg on 1"}) == (
        500,
        {"message": differing},
    )
    assert client.post("/query", json={"q": "Map bump from impure_pkg on [1,2]"}) == (
        500,
        {"message": "map element 0: " + differing},
    )
    spliced = {"data": ["{{/lambda/impure_pkg/bump?x=1}}", 1]}
    assert client.post("/lambda/basic_arithmetic/add", json=spliced) == (
        500,
        {"message": differing},
    )

    def mut(d):
        d["seen"] = True
        return d.get("x", 0)

    # the same result twice, but the first call wrote into its argument
    app.machine.register_package("mutating_pkg", {"mut": mut})
    assert client.post("/lambda/mutating_pkg/mut", json={"data": {"d": {"x": 3}}}) == (
        500,
        {"message": "purity check failed: mutating_pkg.mut changed its input"},
    )
    # higher-order calls still work under the check
    query = "Get Apply (Apply add on 2) from higher_order_arithmetic on 3"
    assert client.post("/query", json={"q": query}) == (200, 5)


def test_handle_never_raises(bundle):
    # even hostile inputs come back as WireResponse objects
    hostile = [
        WireRequest("GET", "/lambda/basic_arithmetic/add", urlencode({"data": "[1,2"}), None, ""),
        WireRequest("??", "/rest/x", "", None, ""),
        WireRequest("GET", "", "", None, ""),
        WireRequest("POST", "/query", "", b"\x00\x01", "application/json"),
    ]
    for req in hostile:
        response = bundle.gateway.handle(req)
        assert isinstance(response, WireResponse)
        assert response.status in {400, 404, 405, 413, 422, 500}
        canonical_json(response.body)  # must always serialize


def test_an_unexpected_error_answers_a_fixed_500_and_logs_its_traceback(bundle, capsys):
    def lookup(key):
        return {}[key]  # a KeyError is no documented error

    bundle.machine.register_package("faulty", {"lookup": lookup})
    client = Client(bundle.gateway)
    assert client.post("/lambda/faulty/lookup", json={"data": ["k"]}) == (
        500,
        {"message": "internal server error"},
    )
    logged = capsys.readouterr().err
    assert "Traceback" in logged and "KeyError: 'k'" in logged
    # the documented 500s keep their messages
    assert client.post("/lambda/basic_arithmetic/divide", json={"data": [1, 0]}) == (
        500,
        {"message": "division by zero"},
    )


def test_a_lambda_call_looks_its_function_up_once(bundle, client, monkeypatch):
    lookups = []
    lookup = bundle.machine.lookup
    monkeypatch.setattr(bundle.machine, "lookup", lambda ref: lookups.append(ref) or lookup(ref))
    assert client.post("/lambda/basic_arithmetic/add", json={"data": [1, 2]}) == (200, 3)
    assert lookups == [FunctionRef("basic_arithmetic", "add")]
    assert client.post("/lambda/basic_arithmetic/nope", json={"data": [1]}) == (
        404, {"message": "Function not found: basic_arithmetic.nope"}
    )


def test_served_map_runs_on_the_request_thread(bundle, client, monkeypatch):
    book = [[90 + i % 20, 0.5 + i % 3, 100.0, 0.2] for i in range(1000)]
    assert client.post("/rest/book", json={"data": book}) == (200, {"status": "success"})
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)  # a thread started to run map elements
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = threading.enumerate()
    status, prices = client.get("/lambda/pricer/price", query={"uri": "/rest/book", "to_do": "map"})
    assert status == 200 and len(prices) == 1000
    assert started == []
    assert threading.enumerate() == before


# --- wire fuzzing: any request gets a documented status and a JSON message

_DOCUMENTED_STATUSES = {200, 400, 404, 405, 413, 422, 500}
_FUNCTIONS = [
    "basic_arithmetic/add", "basic_arithmetic/divide", "higher_order_arithmetic/add",
    "pricer/price", "pricer/implied_vol", "pricer/get_value", "weather/get_weather",
]
_QUERIES = [
    "Apply add from basic_arithmetic on [1, 2]",
    "Map price from pricer on book",
    "Reduce add from basic_arithmetic on Map [price] from pricer on /rest/book",
    "Map price, delta from pricer on book",
    "Filter add on [1, 2]",
    "Apply add from basic_arithmetic on {{/rest/pair}}",
    "Get Apply (Apply add on 2) from higher_order_arithmetic on 3",
    "Post Map price from pricer on book to /rest/out",
    "price for strike = 100 and time = 1 and spot = 100 and vol = 0.2",
]
_segments = st.text(alphabet="ab{}/?%._- é", max_size=6)
_paths = st.one_of(
    st.lists(_segments, max_size=3).map(lambda segs: "/rest/" + "/".join(segs))
    | st.sampled_from(["/rest/book", "/rest/pair", "/rest"]),
    st.sampled_from(_FUNCTIONS + ["pricer", "add", "nope/x", "a/b/c"]).map(lambda f: "/lambda/" + f)
    | _segments.map(lambda seg: "/lambda/" + seg),
    st.tuples(st.sampled_from(["pricer", "basic_arithmetic", "nope", ""]), _segments).map(
        lambda ms: "/fast/" + "/".join(ms)
    ),
    st.sampled_from(["/query", "/healthz"]),
    st.tuples(st.sampled_from(["/query", "/healthz", "/", ""]), _segments).map("".join),
)
_methods = st.sampled_from(["GET", "POST"] * 3 + ["PUT", "DELETE", "PATCH", "HEAD"])
_numbers = st.integers(min_value=-5, max_value=200) | st.floats(-1e3, 1e3)
# arguments the builtin functions accept, so calls also reach evaluation and 200s
_arguments = st.one_of(
    st.lists(_numbers, max_size=4),
    st.lists(st.lists(_numbers, min_size=2, max_size=4), max_size=3),
    st.fixed_dictionaries({"a": _numbers, "b": _numbers}),
)
_param_values = st.one_of(
    st.sampled_from(
        ["map", "reduce", "filter", "apply", "/rest/book", "/rest/pair", "/rest/none",
         "price,delta", '["add"]', "1e400", "NaN", "true", "{{/rest/pair}}"]
    ),
    st.tuples(st.sampled_from(_QUERIES), st.integers(min_value=1, max_value=90)).map(
        lambda qn: qn[0][: qn[1]]  # whole or truncated
    ),
    st.text(max_size=12),
    (json_values | _arguments).map(json.dumps),
)
_queries = st.dictionaries(
    st.sampled_from(["data", "uri", "to_do", "to_uri", "fns", "q", "children", "a", "b",
                     "strike", "time", "spot", "vol"]) | st.text(max_size=4),
    _param_values,
    max_size=4,
)
# query and form text: encoded params, or raw text whose escapes may not be UTF-8
_query_texts = _queries.map(urlencode) | st.lists(
    st.sampled_from(["&", "=", "+", "%", "a", "uri", "to_do", "map", "/rest/book",
                     "%C3%A9", "%C3", "%FF", "%zz", "%2F", "%25"]),
    max_size=8,
).map("".join)
_json_texts = st.one_of(
    json_values,
    _arguments,
    st.fixed_dictionaries({}, optional={
        "data": json_values | _arguments, "uri": _param_values | json_values,
        "to_do": _param_values | json_values, "fns": json_values,
        "to_uri": _param_values | json_values, "q": _param_values | json_values,
    }),
).map(json.dumps)
_bodies = st.one_of(
    st.just((None, "")),
    _json_texts.map(lambda text: (text.encode(), "application/json")),
    st.tuples(_json_texts, st.integers(min_value=0)).map(
        lambda tc: (tc[0][: tc[1] % max(1, len(tc[0]))].encode(), "application/json")
    ),
    _query_texts.map(lambda form: (form.encode(), "application/x-www-form-urlencoded")),
    st.binary(max_size=16).map(lambda raw: (raw, "")),
)
_positive = st.floats(min_value=0.05, max_value=10)
_call_arguments = {
    "basic_arithmetic/add": st.lists(_numbers, min_size=2, max_size=2),
    "basic_arithmetic/divide": st.lists(_numbers, min_size=2, max_size=2),
    "pricer/price": st.lists(_positive, min_size=4, max_size=4),
    "weather/get_weather": st.lists(st.floats(-90, 90), min_size=2, max_size=2),
}


def _well_formed_call(function):
    args = _call_arguments[function]
    body = args.map(lambda a: {"data": a}) | st.fixed_dictionaries(
        {"data": st.lists(args, max_size=3), "to_do": st.just("map") | json_values}
    )
    return st.tuples(
        st.sampled_from(["GET", "POST"]),
        st.just("/lambda/" + function),
        st.just(""),
        body.map(lambda b: (json.dumps(b).encode(), "application/json")),
    )


# besides arbitrary requests, well-formed calls and queries, so that
# evaluation and the 200 path are reached as often as the error paths
_requests = st.one_of(
    st.tuples(_methods, _paths, _query_texts, _bodies),
    st.sampled_from(sorted(_call_arguments)).flatmap(_well_formed_call),
    st.tuples(
        st.sampled_from(["GET", "POST"]),
        st.just("/query"),
        st.sampled_from(_QUERIES).map(lambda q: urlencode({"q": q})),
        st.just((None, "")),
    ),
)


@settings(max_examples=300, deadline=None)
@given(request=_requests)
def test_wire_fuzz_answers_documented_statuses(request):
    method, path, query, (raw, content_type) = request
    app = build_app()
    client = Client(app.gateway)
    client.post("/rest/book", json={"data": [[100, 1, 100, 0.2], [90, 0.5, 100, 0.3]]})
    client.post("/rest/pair", json={"data": {"a": 4, "b": 5}})
    escaped = []
    route = app.gateway._route

    def guarded_route(req):
        try:
            return route(req)
        except FastError:
            raise
        except Exception as exc:  # what handle's last-resort guard would answer
            escaped.append(exc)
            raise

    app.gateway._route = guarded_route
    response = app.gateway.handle(WireRequest(method, path, query, raw, content_type))
    assert escaped == []
    assert response.status in _DOCUMENTED_STATUSES
    if response.status != 200:
        assert isinstance(response.body, dict) and set(response.body) == {"message"}
        assert isinstance(response.body["message"], str)
    canonical_json(response.body)
