"""Worker processes: the same replies and store as in process, and no
process left behind.

The differential corpus runs each data-parallel call through a gateway
with a one-worker pool and through one without, and compares the bytes;
so do the requests whose bodies reach LARGE_BODY bytes, on any route, and
the calls that parse a stored text of LARGE_BODY bytes.
The lifecycle tests are Linux-only: they read worker pids from /proc.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlencode

import pytest

from fastgate import build_app, http_gateway
from fastgate.config import Config
from fastgate.http_gateway import LARGE_BODY, WireRequest
from fastgate.rest_machine import ResourceStore
from fastgate.values import canonical_json
from fastgate.workers import WorkerPool, worker_count

from test_cli import _child_env, _free_port

JSON = "application/json"
FIXED_500 = (500, '{"message":"internal server error"}', "")
PROC_TIMEOUT_S = 20


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def _mutate(d):
    d["seen"] = True  # an impurity that --check-purity sees, and a fixed result without it
    return d.get("x", 0)


_TEST_PACKAGES = {
    "deep": {"nest": lambda depth: _nested(depth, 1)},
    "grow": {"pad": lambda n: "x" * n},
    "pred": {"positive": lambda x: x > 0},
    "mutating": {"mutate": _mutate},
    # an int too long for str() passes the result check and fails the reply's
    # encoding, which answers the fixed 500
    "huge": {"power": lambda x: 10**x},
}

_SEED = {
    "/rest/xs": [[1, 2], [3, 4]],
    "/rest/a%b": [[5, 6]],  # a key with a literal percent sign
    "/rest/x": 4,
    "/rest/tpl": [["{{/rest/x}}", 1], [2, "{{/lambda/basic_arithmetic/add?a=1&b=2}}"]],
    "/rest/loop": "{{/rest/loop}}",
    "/rest/book": [[100, 1, 100, 0.2], [90, 0.5, 110, 0.3]],
    "/rest/café au lait": [[7, 8]],
}


def _call(path, value=None, method="POST", query=None, body=None, content_type=JSON):
    if value is not None:
        body = json.dumps(value).encode("utf-8")
    return WireRequest(method, path, urlencode(query or {}), body, content_type)


_MAP_ADD = "/lambda/basic_arithmetic/add"

# every request is data-parallel, or fails before a data-parallel call would
# be handed to a worker; the ids name what each one covers
_CORPUS = {
    "map-inline": _call(_MAP_ADD, {"to_do": "map", "data": [[1, 2], [3.5, 4]]}),
    "map-query-params": _call(_MAP_ADD, method="GET", query={"to_do": "map", "data": "[[1,2]]"}),
    "map-form": _call(_MAP_ADD, body=b"to_do=map&data=%5B%5B1%2C2%5D%5D",
                      content_type="application/x-www-form-urlencoded"),
    "map-query-bad-escape": WireRequest("GET", _MAP_ADD, "to_do=map&uri=/rest/a%FF"),
    "map-form-plus-and-utf8": _call(_MAP_ADD, body=b"to_do=map&uri=/rest/caf%C3%A9+au+lait",
                                    content_type="application/x-www-form-urlencoded"),
    "reduce": _call(_MAP_ADD, {"to_do": "reduce", "data": [1, 2, 3]}),
    "filter": _call("/lambda/pred/positive", {"to_do": "filter", "data": [1, -2, 3.5]}),
    "filter-non-boolean": _call("/lambda/pricer/price", {"to_do": "filter", "uri": "/rest/book"}),
    "map-uri": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/xs"}),
    "uri-wins-over-data-param": _call("/lambda/pricer/price", method="GET",
                                      query={"uri": "/rest/book", "to_do": "map", "data": "nope"}),
    "pct25-in-uri": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/a%25b"}),
    "not-utf8-in-uri": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/a%FF"}),
    "pct25-in-path": _call("/lambda/basic%5Farithmetic/add", {"to_do": "map", "data": [[1, 2]]}),
    "pct25-literal-in-path": _call("/lambda/basic_arithmetic/a%25dd", {"to_do": "map"}),
    "head": _call(_MAP_ADD, method="HEAD", query={"to_do": "map", "uri": "/rest/xs"}),
    "missing-uri": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/missing"}),
    "templates-in-fetched-value": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/tpl"}),
    "templates-inline": _call(_MAP_ADD, {"to_do": "map", "data": [["{{/rest/x}}", 1]]}),
    "templates-pct2F": _call(_MAP_ADD, {"to_do": "map", "data": [["{{/rest%2Fx}}", 1]]}),
    "fast-fns": _call("/fast/pricer", {"to_do": "map", "uri": "/rest/book",
                                       "fns": ["price", "delta", "vega"]}),
    "fast-to-uri": _call("/fast/basic_arithmetic/add",
                         {"to_do": "map", "uri": "/rest/xs", "to_uri": "/rest/out%25put"}),
    "fast-to-uri-over-get": _call("/fast/basic_arithmetic/add", method="GET",
                                  query={"to_do": "map", "data": "[[1,2]]", "to_uri": "/rest/o"}),
    "query-map": _call("/query", {"q": "Map add from basic_arithmetic on xs"}),
    "query-pct2F-operand": _call("/query", {"q": "Map add from basic_arithmetic on /rest%2Fxs"}),
    "query-get-reduce": _call("/query", method="GET",
                              query={"q": "Reduce add from basic_arithmetic on [1, 2, 3]"}),
    "query-post-to": _call("/query", {"q": "Post Map add from basic_arithmetic on xs to /rest/s"}),
    "query-post-over-get": _call("/query", method="GET",
                                 query={"q": "Post Map add from basic_arithmetic on xs to /rest/t"}),
    "query-nested-in-apply": _call(
        "/query", {"q": "Apply add from basic_arithmetic on Filter positive from pred on [1, -2, 3]"}),
    "query-function-item": _call(
        "/query", {"q": "Map (Apply add on 2) from higher_order_arithmetic on [3, 4]"}),
    "query-function-item-arity": _call(
        "/query", {"q": "Map (Apply add on 2) from higher_order_arithmetic on [[3, 4]]"}),
    # the one filter sits in a function item, and its boolean is no function
    "query-filter-in-function-item": _call(
        "/query", {"q": "Apply (Filter positive from pred on [1]) on 2"}),
    "function-value-result": _call("/lambda/higher_order_arithmetic/add",
                                   {"to_do": "map", "data": [1, 2]}),
    "query-function-value-result": _call(
        "/query", {"q": "Map add from higher_order_arithmetic on [1]"}),
    "depth-64-query": _call("/query", {"q": "Map add from basic_arithmetic on " * 64 + "[[1,2]]"}),
    "depth-65-query": _call("/query", {"q": "Map add from basic_arithmetic on " * 65 + "[[1,2]]"}),
    "depth-64-result": _call("/lambda/deep/nest", {"to_do": "map", "data": [63]}),
    "depth-65-result": _call("/lambda/deep/nest", {"to_do": "map", "data": [64]}),
    "depth-body": _call(_MAP_ADD, method="POST", query={"to_do": "map"}, body=b"[" * 100),
    "denied-by-allow": _call("/lambda/pricer/gamma", {"to_do": "map", "uri": "/rest/book"}),
    "purity": _call("/lambda/mutating/mutate", {"to_do": "map", "data": [{"d": {"x": 3}}]}),
    "unexpected-exception": _call("/lambda/huge/power", {"to_do": "map", "data": [5000]}),
    # one per class of errors.py that a request can reach (DuplicatePackage is
    # raised at registration only)
    "InvalidValue": _call(_MAP_ADD, method="GET", query={"to_do": "map", "data": "[1,"}),
    "InvalidValue-to_do": _call(_MAP_ADD, {"to_do": "Map", "data": [[1, 2]]}),
    "InvalidUri": _call(_MAP_ADD, {"to_do": "map", "uri": "/rest/a?b"}),
    "MalformedTemplate": _call(_MAP_ADD, {"to_do": "map", "data": [["{{/nope}}", 1]]}),
    "BadRequest": _call("/fast/basic_arithmetic/add", {"to_do": "map", "to_uri": 3}),
    "BadRequest-uri-number": _call("/lambda/pricer/price",
                                   {"to_do": "map", "uri": 3, "data": [[90, 1, 100, 0.2]]}),
    "BadRequest-uri-list": _call("/lambda/pricer/price", {"to_do": "map", "uri": ["/rest/book"],
                                                          "data": [[90, 1, 100, 0.2]]}),
    "AmbiguousFunction": _call("/query", {"q": "Map add on xs"}),
    "ParseError": _call("/query", {"q": "Map add on"}),
    "NotFound": _call("/lambda/basic_arithmetic/add/extra", {"to_do": "map"}),
    "ModuleNotAvailable": _call("/query", {"q": "Map f from nosuch on xs"}),
    "FunctionNotFound": _call("/query", {"q": "Filter nosuch from basic_arithmetic on xs"}),
    "MethodNotAllowed": _call(_MAP_ADD, method="DELETE", query={"to_do": "map"}),
    "PayloadTooLarge": _call("/fast/grow/pad",
                             {"to_do": "map", "data": [5000], "to_uri": "/rest/big"}),
    "ArityMismatch": _call(_MAP_ADD, {"to_do": "map", "data": [[1, 2, 3]]}),
    "UnknownParameter": _call(_MAP_ADD, {"to_do": "map", "data": [{"q": 1}]}),
    "DomainError": _call("/lambda/basic_arithmetic/divide", {"to_do": "map", "data": [[1, 0]]}),
    "NoSolution": _call("/lambda/pricer/implied_vol", {"to_do": "map",
                                                        "data": [[100, 1, 100, 1000]]}),
    "EmptyReduce": _call(_MAP_ADD, {"to_do": "reduce", "data": []}),
    "NotAnArray": _call(_MAP_ADD, {"to_do": "filter", "data": 3}),
    "DepthExceeded": _call(_MAP_ADD, {"to_do": "map", "data": [["{{/rest/loop}}", 1]]}),
    "UnserializableResult": _call(_MAP_ADD, {"to_do": "reduce",
                                             "data": ["{{/lambda/higher_order_arithmetic/add?x=1}}"]}),
    "PurityViolation": _call("/query", {"q": "Map mutate from mutating on [{\"d\": {}}]"}),
}


def _app(check_purity, max_bytes=4096):
    app = build_app(Config(max_bytes=max_bytes, check_purity=check_purity))
    for name, functions in _TEST_PACKAGES.items():
        app.machine.register_package(name, functions)
    for uri, value in _SEED.items():
        app.store.post_resource(uri, value)
    app.gateway.allow = lambda method, path: path != "/lambda/pricer/gamma"
    return app


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "check-purity"])
def pair(request):
    """(in-process app, app whose data-parallel calls go to its one worker)."""
    if not hasattr(os, "fork"):
        pytest.skip("workers need os.fork")
    pooled = _app(request.param)
    pooled.gateway.workers = WorkerPool.fork(pooled.gateway, 1)
    try:
        yield _app(request.param), pooled
    finally:
        pooled.gateway.workers.close()


def _reply(app, req):
    response = app.gateway.handle(req)
    return response.status, response.text, response.allow


def test_a_worker_answers_every_request_byte_for_byte_as_in_process(pair):
    local, pooled = pair
    for name, req in _CORPUS.items():
        assert _reply(pooled, req) == _reply(local, req), name
    assert pooled.store.canonical_dump() == local.store.canonical_dump()
    assert len(pooled.gateway.workers) == 1  # no call killed the worker


def _hand_offs(pool, monkeypatch) -> list:
    """The requests `pool` is given from now on, in order."""
    handed, call = [], pool.call
    monkeypatch.setattr(pool, "call", lambda worker, req: handed.append(req) or call(worker, req))
    return handed


# the corpus entries answered before a map, reduce or filter could run
_ANSWERED_IN_PROCESS = {
    "pct25-literal-in-path", "fast-to-uri-over-get", "query-post-over-get", "depth-65-query",
    "depth-body", "denied-by-allow", "InvalidValue-to_do", "BadRequest", "ParseError",
    "map-query-bad-escape",
    "NotFound", "MethodNotAllowed",
    "AmbiguousFunction", "BadRequest-uri-list", "BadRequest-uri-number", "DepthExceeded",
    "FunctionNotFound", "InvalidUri", "InvalidValue", "MalformedTemplate", "ModuleNotAvailable",
    "NotAnArray", "UnserializableResult", "missing-uri", "not-utf8-in-uri",
}


def test_the_corpus_reaches_the_worker(pair, monkeypatch):
    # a hand-off that never happened would make the differential test
    # compare the in-process path with itself
    _, pooled = pair
    handed = _hand_offs(pooled.gateway.workers, monkeypatch)
    in_process = set()
    for name, req in _CORPUS.items():
        before = len(handed)
        pooled.gateway.handle(req)
        if len(handed) == before:
            in_process.add(name)
    assert in_process == _ANSWERED_IN_PROCESS


def _refuse_hand_off(worker, req):
    raise AssertionError(f"{req.path} was handed to a worker")


def test_apply_calls_run_in_process(pair, monkeypatch):
    _, pooled = pair
    monkeypatch.setattr(pooled.gateway.workers, "call", _refuse_hand_off)
    assert _reply(pooled, _call(_MAP_ADD, {"data": [1, 2]}))[:2] == (200, "3")
    assert _reply(pooled, _call("/query", {"q": "Apply add from basic_arithmetic on [1, 2]"}))[0] == 200
    assert _reply(pooled, _call("/rest/xs", method="GET"))[0] == 200


# --- resource writes whose body reaches LARGE_BODY bytes


_BOOK = [[90 + k % 7, 0.5, 100.25, 0.2] for k in range(40)]

# (request, status); the corpus app caps bodies at 4096 bytes, so the tests
# patch LARGE_BODY down to send each of these to the worker
_LARGE_WRITES = {
    "canonical": (_call("/rest/w/canonical", body=canonical_json(_BOOK).encode()), 200),
    "envelope": (_call("/rest/w/envelope", {"data": _BOOK}), 200),
    "non-canonical": (_call("/rest/w/loose", body=b' { "z" : [ 2.50 , 1E2, -0.0 ] ,\n'
                                                   b' "a" : "\\u0041\\u00e9" } '), 200),
    "non-finite": (_call("/rest/w/inf", body=b"[1, 1e400]"), 400),
    "depth-65": (_call("/rest/w/deep", _nested(65, 1)), 400),
    "malformed": (_call("/rest/w/bad", body=b'{"data": [1, 2'), 400),
    "not-utf8": (_call("/rest/w/bytes", body=b'["\xff\xfe"]'), 400),
    "form": (_call("/rest/w/form", body=b"data=%5B1%5D",
                   content_type="application/x-www-form-urlencoded"), 400),
    "put": (_call("/rest/w/put", {"data": _BOOK[:10]}, method="PUT"), 200),
    "empty-segment": (_call("/rest/w//x", [1]), 400),
    "braces": (_call("/rest/w/{x}", [1]), 400),
    # 2,800 bytes of 1e5 literals whose canonical text, 100000.0 each, passes 4096
    "canonical-outgrows-max-bytes": (
        _call("/rest/w/big", body=("[" + ",".join(["1e5"] * 700) + "]").encode()), 413),
}


def test_a_large_write_in_a_worker_answers_and_stores_as_in_process(pair, monkeypatch):
    local, pooled = pair
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    handed = _hand_offs(pooled.gateway.workers, monkeypatch)
    for name, (req, status) in _LARGE_WRITES.items():
        reply = _reply(pooled, req)
        assert reply == _reply(local, req), name
        assert reply[0] == status, (name, reply)
        assert handed[-1] is req, name
        assert pooled.store.canonical_dump() == local.store.canonical_dump(), name
    assert local.store.get_text("/rest/w/loose") == '{"a":"A\\u00e9","z":[2.5,100.0,-0.0]}'
    assert len(pooled.gateway.workers) == 1


# a large body on a request that decodes no body stays in process: only
# get_text and put_text of the worker's store reach the server's
_LARGE_BODIES_IN_PROCESS = {
    "children": _call("/rest/w", {"data": _BOOK}, method="GET", query={"children": "true"}),
    "get": _call("/rest/w/put", {"data": _BOOK}, method="GET"),
    "delete": _call("/rest/w/put", {"data": _BOOK}, method="DELETE"),
}


def test_a_large_body_on_a_request_that_decodes_no_body_runs_in_process(pair, monkeypatch):
    local, pooled = pair
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    for app in (local, pooled):
        assert _reply(app, _call("/rest/w/put", {"data": _BOOK[:10]}))[0] == 200
    handed = _hand_offs(pooled.gateway.workers, monkeypatch)
    for name, req in _LARGE_BODIES_IN_PROCESS.items():
        reply = _reply(pooled, req)
        assert reply == _reply(local, req), name
        assert reply[0] == 200, (name, reply)
        assert pooled.store.canonical_dump() == local.store.canonical_dump(), name
    assert handed == []
    assert len(pooled.gateway.workers) == 1


# calls whose bodies reach LARGE_BODY bytes once it is patched down to 1
_LARGE_CALL_BODIES = {
    "apply-padded": _call(_MAP_ADD, {"data": [1, 2], "pad": _BOOK}),
    "map-inline": _call(_MAP_ADD, {"to_do": "map", "data": [[1, 2], [3.5, 4]]}),
    "form": _call(_MAP_ADD, body=b"a=1&b=2", content_type="application/x-www-form-urlencoded"),
    "query-map": _call("/query", {"q": "Map add from basic_arithmetic on xs"}),
}


def _refuse_decode(*args, **kwargs):
    raise AssertionError("the server decoded a body that it hands off")


def test_the_server_decodes_no_body_that_it_hands_off(pair, monkeypatch):
    local, pooled = pair
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    expected = {name: _reply(local, req) for name, req in _LARGE_CALL_BODIES.items()}
    # the forked worker keeps the real decoders; the server may read only
    # the empty query string
    monkeypatch.setattr(http_gateway, "loads_strict", _refuse_decode)
    monkeypatch.setattr(http_gateway, "decode_params",
                        lambda text: {} if text == "" else _refuse_decode())
    handed = _hand_offs(pooled.gateway.workers, monkeypatch)
    for name, req in _LARGE_CALL_BODIES.items():
        reply = _reply(pooled, req)
        assert reply == expected[name], name
        assert reply[0] == 200, (name, reply)
        assert handed[-1] is req, name
    assert len(pooled.gateway.workers) == 1


_READ_SEED = {
    "/rest/r/args": [1, 2],
    "/rest/r/three": [1, 2, 3],
    "/rest/r/row": [100, 1, 100, 0.2],
    "/rest/r/tpl": {"a": "{{/rest/x}}", "b": 1},
    "/rest/r/gone": 1,
}

# (request, status) of calls that parse a stored text; the tests patch
# LARGE_BODY down to 1, so that each read of one sends the call to the
# worker, and each carries its arguments in the query string, since a body
# would send it there at its decode
_LARGE_READS = {
    "apply-uri": (_call(_MAP_ADD, method="GET", query={"uri": "/rest/r/args"}), 200),
    "template-query-param-post": (_call("/lambda/pricer/get_value",
                                        query={"stock_portfolio": "{{/rest/book}}"}), 200),
    "template-query-param": (_call("/lambda/pricer/get_value", method="GET",
                                   query={"stock_portfolio": "{{/rest/book}}"}), 200),
    "template-in-fetched-value": (_call(_MAP_ADD, method="GET", query={"uri": "/rest/r/tpl"}),
                                  200),
    "fast-fns-uri": (_call("/fast/pricer", method="GET",
                           query={"uri": "/rest/r/row", "fns": "price,delta"}), 200),
    "fast-to-uri": (_call("/fast/basic_arithmetic/add",
                          query={"uri": "/rest/r/args", "to_uri": "/rest/r/sum"}), 200),
    "query-apply": (_call("/query", method="GET",
                          query={"q": "Apply add from basic_arithmetic on /rest/r/args"}), 200),
    "query-post-apply": (_call("/query", query={"q": "Post Apply add from basic_arithmetic"
                                                     " on /rest/r/args to /rest/r/posted"}), 200),
    "arity-error-after-read": (_call(_MAP_ADD, method="GET", query={"uri": "/rest/r/three"}),
                               422),
    "domain-error-after-read": (_call(_MAP_ADD, method="GET", query={"uri": "/rest/xs"}), 500),
}


def _seed_reads(*apps):
    for app in apps:
        for uri, value in _READ_SEED.items():
            app.store.post_resource(uri, value)


def test_a_large_read_in_a_worker_answers_and_stores_as_in_process(pair, monkeypatch):
    local, pooled = pair
    _seed_reads(local, pooled)
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    handed = _hand_offs(pooled.gateway.workers, monkeypatch)
    for name, (req, status) in _LARGE_READS.items():
        reply = _reply(pooled, req)
        assert reply == _reply(local, req), name
        assert reply[0] == status, (name, reply)
        assert handed[-1] is req, name
        assert pooled.store.canonical_dump() == local.store.canonical_dump(), name
    assert local.store.get_text("/rest/r/sum") == local.store.get_text("/rest/r/posted") == "3"
    assert len(pooled.gateway.workers) == 1


# requests that parse no stored text: each stays in process, whatever the
# length of the text it names
_READS_IN_PROCESS = {
    "get": (_call("/rest/book", method="GET"), 200),
    "head": (_call("/rest/book", method="HEAD"), 200),
    "children": (_call("/rest/r", method="GET", query={"children": "true"}), 200),
    "delete": (_call("/rest/r/gone", method="DELETE"), 200),
    "missing-key-template": (_call(_MAP_ADD, method="GET",
                                   query={"a": "{{/rest/missing}}", "b": "1"}), 404),
}


def test_a_request_that_parses_no_stored_text_runs_in_process(pair, monkeypatch):
    local, pooled = pair
    _seed_reads(local, pooled)
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    monkeypatch.setattr(pooled.gateway.workers, "call", _refuse_hand_off)
    for name, (req, status) in _READS_IN_PROCESS.items():
        reply = _reply(pooled, req)
        assert reply == _reply(local, req), name
        assert reply[0] == status, (name, reply)
        assert pooled.store.canonical_dump() == local.store.canonical_dump(), name


def test_a_stored_text_of_large_body_bytes_goes_to_a_worker_and_one_byte_less_does_not(
    monkeypatch,
):
    if not hasattr(os, "fork"):
        pytest.skip("workers need os.fork")
    app = build_app()
    app.machine.register_package("t", {"size": lambda text: len(text)})
    app.gateway.workers = WorkerPool.fork(app.gateway, 1)
    try:
        handed = _hand_offs(app.gateway.workers, monkeypatch)
        for size, reaches_worker in ((LARGE_BODY - 1, False), (LARGE_BODY, True)):
            app.store.post_resource("/rest/edge", "x" * (size - 2))
            assert len(app.store.get_text("/rest/edge")) == size
            req = _call("/lambda/t/size", {"text": "{{/rest/edge}}"})
            assert _reply(app, req) == (200, str(size - 2), "")
            assert (handed[-1:] == [req]) is reaches_worker, size
    finally:
        app.gateway.workers.close()


def test_a_body_of_large_body_bytes_goes_to_a_worker_and_one_byte_less_does_not(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("workers need os.fork")
    app = build_app()
    app.gateway.workers = WorkerPool.fork(app.gateway, 1)
    try:
        handed = _hand_offs(app.gateway.workers, monkeypatch)
        for size, reaches_worker in ((LARGE_BODY - 1, False), (LARGE_BODY, True)):
            for path, body, text in (
                ("/rest/edge", b"[" + b" " * (size - 3) + b"1]", '{"status":"success"}'),
                (_MAP_ADD, b'{"a":1,"b":2' + b" " * (size - 13) + b"}", "3"),
            ):
                assert len(body) == size
                req = _call(path, body=body)
                assert _reply(app, req) == (200, text, "")
                assert (handed[-1:] == [req]) is reaches_worker, (path, size)
            assert app.store.get_text("/rest/edge") == "[1]"
    finally:
        app.gateway.workers.close()


# --- the worker lifecycle (Linux)

linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc")


def _children(pid: int) -> list:
    """The pids whose parent is `pid`, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # it exited while we looked
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return sorted(found)


def _ended(pid: int) -> bool:
    """Whether `pid` is gone or a zombie; an orphan waits for its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


def _wait_ended(pids: list) -> list:
    """The pids of `pids` still running after a bounded wait."""
    deadline = time.time() + PROC_TIMEOUT_S
    while time.time() < deadline and not all(_ended(pid) for pid in pids):
        time.sleep(0.05)
    return [pid for pid in pids if not _ended(pid)]


def _sockets(pid: int) -> int:
    links = [os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")]
    return sum(link.startswith("socket:") for link in links)


def _start_serving(port: int, *options: str) -> tuple:
    """A `fastgate serve` subprocess that answers, with `options` added, and
    its worker pids."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "fastgate.cli", "serve", "--bind", f"127.0.0.1:{port}", *options],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(),
    )
    deadline = time.time() + PROC_TIMEOUT_S
    while True:
        try:
            assert _get(port, "/healthz") == (200, {"status": "ok"})
            break
        except OSError:
            if time.time() > deadline or proc.poll() is not None:
                proc.kill()
                proc.communicate()
                raise
            time.sleep(0.05)
    return proc, _children(proc.pid)


def _get(port: int, target: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PROC_TIMEOUT_S)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@linux_only
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_no_worker_outlives_the_server(signum):
    port = _free_port()
    proc, workers = _start_serving(port)
    try:
        assert len(workers) == worker_count()
        for worker in workers:  # its own end of its socketpair, and no listening socket
            assert _sockets(worker) == 1
        if workers:  # Ctrl-C on a terminal reaches the workers too: they ignore it
            os.kill(workers[0], signal.SIGINT)
        assert _get(port, "/lambda/basic_arithmetic/add?to_do=map&data=[[1,2],[3,4]]") == (
            200, [3, 7])
        assert not [pid for pid in workers if _ended(pid)]
        proc.send_signal(signum)
        proc.communicate(timeout=PROC_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert _wait_ended(workers) == []


@linux_only
def test_a_large_write_made_in_a_worker_is_in_the_store_file_after_sigterm(tmp_path):
    port = _free_port()
    path = tmp_path / "store.json"
    proc, workers = _start_serving(port, "--store", str(path))
    text = canonical_json([[100 + k % 9, 0.5, 100.5, 0.25] for k in range(1000)])
    assert len(text) >= LARGE_BODY
    try:
        assert len(workers) == worker_count()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PROC_TIMEOUT_S)
        try:
            conn.request("POST", "/rest/big", text.encode(), {"Content-Type": JSON})
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, b'{"status":"success"}')
        finally:
            conn.close()
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=PROC_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    reloaded = ResourceStore()
    reloaded.load(str(path))
    assert reloaded.get_text("/rest/big") == text
    assert _wait_ended(workers) == []


def _serving_pool(functions: dict) -> tuple:
    """An app with `functions` as package "t", its one-worker pool, and the
    worker's pid."""
    app = build_app()
    app.machine.register_package("t", functions)
    before = set(_children(os.getpid()))
    app.gateway.workers = WorkerPool.fork(app.gateway, 1)
    (worker,) = set(_children(os.getpid())) - before
    return app, app.gateway.workers, worker


@linux_only
def test_a_killed_worker_answers_its_call_with_the_fixed_500_and_is_not_reused():
    started_r, started_w = os.pipe()

    def hold(x):
        os.write(started_w, b"!")
        time.sleep(PROC_TIMEOUT_S)
        return x

    app, pool, worker = _serving_pool({"hold": hold})
    try:
        replies = []
        call = _call("/lambda/t/hold", {"to_do": "map", "data": [1]})
        thread = threading.Thread(target=lambda: replies.append(_reply(app, call)))
        thread.start()
        assert os.read(started_r, 1) == b"!"  # the worker is inside the call
        os.kill(worker, signal.SIGKILL)
        thread.join(PROC_TIMEOUT_S)
        assert not thread.is_alive()
        assert replies == [FIXED_500]
        assert not os.path.exists(f"/proc/{worker}")  # reaped, not a zombie
        assert len(pool) == 0
        # later calls run in process, and answer
        assert _reply(app, _call(_MAP_ADD, {"to_do": "map", "data": [[1, 2]]})) == (200, "[3]", "")
    finally:
        pool.close()
        os.close(started_r)
        os.close(started_w)


@linux_only
def test_a_worker_that_died_idle_is_reaped_and_skipped():
    app, pool, worker = _serving_pool({})
    try:
        os.kill(worker, signal.SIGKILL)
        deadline = time.time() + PROC_TIMEOUT_S
        while not _ended(worker) and time.time() < deadline:
            time.sleep(0.01)
        assert _reply(app, _call(_MAP_ADD, {"to_do": "map", "data": [[1, 2]]})) == (200, "[3]", "")
        assert not os.path.exists(f"/proc/{worker}")
        assert len(pool) == 0
    finally:
        pool.close()


@linux_only
def test_more_concurrent_calls_than_workers_all_answer():
    def where(delay):
        time.sleep(delay)  # holds the worker while the other calls arrive
        return os.getpid()

    app, pool, worker = _serving_pool({"where": where})
    try:
        replies = []
        call = _call("/lambda/t/where", {"to_do": "map", "data": [1.0]})
        threads = [
            threading.Thread(target=lambda: replies.append(_reply(app, call))) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(PROC_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(replies) == sorted(
            [(200, f"[{worker}]", "")] + [(200, f"[{os.getpid()}]", "")] * 2
        )
        assert len(pool) == 1
    finally:
        pool.close()
    assert _wait_ended([worker]) == []


@linux_only
def test_a_large_read_while_the_only_worker_is_busy_runs_in_process(monkeypatch):
    started_r, started_w = os.pipe()
    release_r, release_w = os.pipe()

    def hold(x):
        os.write(started_w, b"!")
        os.read(release_r, 1)  # holds the worker until the large read has answered
        return x

    app, pool, worker = _serving_pool({"hold": hold})
    local = build_app()
    book = [[90 + k % 7, 0.5, 100.25, 0.2] for k in range(1000)]
    thread = None
    try:
        for each in (app, local):
            each.store.post_resource("/rest/big", book)
        assert len(app.store.get_text("/rest/big")) >= LARGE_BODY
        handed = _hand_offs(pool, monkeypatch)
        replies = []
        held = _call("/lambda/t/hold", {"to_do": "map", "data": [1]})
        thread = threading.Thread(target=lambda: replies.append(_reply(app, held)))
        thread.start()
        assert os.read(started_r, 1) == b"!"  # the worker is inside the call
        read = _call("/lambda/pricer/get_value", {"stock_portfolio": "{{/rest/big}}"})
        reply = _reply(app, read)
        assert reply == _reply(local, read)
        assert reply[0] == 200
        os.write(release_w, b"!")
        thread.join(PROC_TIMEOUT_S)
        assert not thread.is_alive()
        assert replies == [(200, "[1]", "")]
        assert handed == [held]
        assert len(pool) == 1
    finally:
        os.write(release_w, b"!")  # a failed check must not leave the worker held
        if thread is not None:
            thread.join(PROC_TIMEOUT_S)
        pool.close()
        for fd in (started_r, started_w, release_r, release_w):
            os.close(fd)
    assert _wait_ended([worker]) == []
