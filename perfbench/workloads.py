"""The three traffic mixes, generated from the seed before any timing.

Each workload gives the requests that seed the store at set-up, one
request sequence per client (cycled when a run outlasts it), and an
oracle that checks the recorded responses after the timed window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from oracle import (
    GREEKS,
    all_close,
    call_price,
    canonical_bytes,
    close,
    is_number,
    parse,
)

SEQUENCE_LENGTH = 4096
BOOK_ROWS = 1000
OWNED_URIS = 32  # per store_rw client
ROW_COUNTS = (1, 100, 1000)
BOOK_VARIANTS = 4  # distinct bodies per row count in store_rw

SUCCESS_BODY = canonical_bytes({"status": "success"})
NOT_FOUND_BODY = canonical_bytes({"message": "Resource not found"})


@dataclass(frozen=True)
class Request:
    route: str  # label for per-route sample counts
    method: str
    target: str  # path and query string
    body: Optional[bytes]
    expect: tuple  # what the oracle needs to know; hashable


@dataclass
class Workload:
    setup: list  # requests that must all answer 200 before timing
    sequences: list  # one list of Request per client
    oracle: object  # check(client, [(Request, status, body)]) -> [bool]


def _json_post(route: str, target: str, value, expect: tuple) -> Request:
    return Request(route, "POST", target, canonical_bytes(value), expect)


def _row(rng: random.Random) -> list:
    return [
        round(rng.uniform(80.0, 120.0), 2),
        round(rng.uniform(0.1, 2.0), 2),
        round(rng.uniform(80.0, 120.0), 2),
        round(rng.uniform(0.1, 0.6), 2),
    ]


def _routes(rng: random.Random, counts: dict) -> list:
    """SEQUENCE_LENGTH route names, in shuffled blocks that each hold every
    route its count of times, so any stretch of a run has the stated mix."""
    block = [route for route, count in counts.items() for _ in range(count)]
    routes = []
    while len(routes) < SEQUENCE_LENGTH:
        rng.shuffle(block)
        routes += block
    return routes[:SEQUENCE_LENGTH]


# --- oracles


class StatelessOracle:
    """Every response depends on its request alone.

    A body that already passed for the same expectation passes again
    without being decoded: the gateway's replies are byte-deterministic.
    """

    def __init__(self, verify):
        self._verify = verify
        self._passed: set = set()

    def check(self, client: int, executed: list) -> list:
        verdicts = []
        for request, status, body in executed:
            key = (request.expect, body)
            ok = status == 200 and (
                key in self._passed or self._verify(request.expect, parse(body))
            )
            if ok:
                self._passed.add(key)
            verdicts.append(ok)
        return verdicts


class StoreOracle:
    """Replays each client's own writes: its URIs are touched by nobody else."""

    def __init__(self, initial: list):
        self._initial = initial  # per client: {uri: canonical bytes}

    def check(self, client: int, executed: list) -> list:
        model = dict(self._initial[client])
        verdicts = []
        for request, status, body in executed:
            kind, uri = request.expect[0], request.expect[1]
            if kind == "post":
                ok = status == 200 and body == SUCCESS_BODY
                model[uri] = request.body
            elif kind == "get":
                if uri in model:
                    ok = status == 200 and body == model[uri]
                else:
                    ok = status == 404 and body == NOT_FOUND_BODY
            elif kind == "delete":
                if uri in model:
                    ok = status == 200 and body == SUCCESS_BODY
                    del model[uri]
                else:
                    ok = status == 404 and body == NOT_FOUND_BODY
            else:  # children of the client's prefix: exactly its live URIs
                ok = status == 200 and body == canonical_bytes(sorted(model))
            verdicts.append(ok)
        return verdicts


# --- small_calls


def _small_calls(seed: int, clients: int) -> Workload:
    rng = random.Random(f"small_calls:{seed}")
    strikes = [round(rng.uniform(80.0, 120.0), 2) for _ in range(32)]
    spots = [round(rng.uniform(80.0, 120.0), 2) for _ in range(32)]
    setup = [
        _json_post("seed", f"/rest/bench/strike/{i}", k, ("seed",))
        for i, k in enumerate(strikes)
    ] + [
        _json_post("seed", f"/rest/bench/spot/{i}", s, ("seed",))
        for i, s in enumerate(spots)
    ]
    counts = {"price": 2, "add": 1, "query": 1, "templated_price": 1}

    def operand(r: random.Random):
        if r.random() < 0.5:
            return r.randint(-10**6, 10**6)
        return round(r.uniform(-1000.0, 1000.0), 2)

    def one(r: random.Random, route: str) -> Request:
        if route == "price":
            row = _row(r)
            return _json_post(route, "/lambda/pricer/price", row, ("price", *row))
        if route == "add":
            a, b = operand(r), operand(r)
            return Request(
                route, "GET", f"/lambda/basic_arithmetic/add?a={a!r}&b={b!r}", None,
                ("exact", a + b),
            )
        if route == "query":
            a, b = operand(r), operand(r)
            return _json_post(
                route, "/query", {"q": f"subtract for a={a!r} and b={b!r}"}, ("exact", a - b)
            )
        i, j = r.randrange(32), r.randrange(32)
        t1, t2 = round(r.uniform(0.1, 1.0), 2), round(r.uniform(0.1, 1.0), 2)
        v1, v2 = round(r.uniform(0.1, 0.5), 2), round(r.uniform(0.5, 1.5), 2)
        body = {
            "strike": f"{{{{/rest/bench/strike/{i}}}}}",
            "time": f"{{{{/lambda/basic_arithmetic/add?a={t1!r}&b={t2!r}}}}}",
            "spot": f"{{{{/rest/bench/spot/{j}}}}}",
            "vol": f"{{{{/lambda/basic_arithmetic/multiply?a={v1!r}&b={v2!r}}}}}",
        }
        expect = ("price", strikes[i], t1 + t2, spots[j], v1 * v2)
        return _json_post(route, "/lambda/pricer/price", body, expect)

    def verify(expect: tuple, got) -> bool:
        if expect[0] == "exact":
            return is_number(got) and got == expect[1]
        return close(got, call_price(*expect[1:]))

    sequences = []
    for client in range(clients):
        r = random.Random(f"small_calls:{seed}:{client}")
        sequences.append([one(r, route) for route in _routes(r, counts)])
    return Workload(setup, sequences, StatelessOracle(verify))


# --- book_compute

REDUCE_MAP_QUERY = "Reduce add from basic_arithmetic on Map [price] from pricer on book"


def _book_compute(seed: int, clients: int) -> Workload:
    rng = random.Random(f"book_compute:{seed}")
    book = [_row(rng) for _ in range(BOOK_ROWS)]
    setup = [_json_post("seed", "/rest/book", book, ("seed",))]
    expected = {name: [fn(*row) for row in book] for name, fn in GREEKS.items()}
    total = sum(expected["price"])
    fns = ["price", "delta", "gamma", "vega"]
    requests = {
        "map": Request(
            "map", "GET", "/lambda/pricer/price?uri=/rest/book&to_do=map", None, ("map",)
        ),
        "fast": _json_post(
            "fast", "/fast/pricer", {"fns": fns, "to_do": "map", "uri": "/rest/book"}, ("fast",)
        ),
        "reduce_map": _json_post("reduce_map", "/query", {"q": REDUCE_MAP_QUERY}, ("sum",)),
        "get_value": _json_post(
            "get_value", "/lambda/pricer/get_value",
            {"stock_portfolio": "{{/rest/book}}"}, ("sum",),
        ),
    }
    counts = {"map": 3, "fast": 2, "reduce_map": 3, "get_value": 2}

    def verify(expect: tuple, got) -> bool:
        if expect[0] == "map":
            return all_close(got, expected["price"])
        if expect[0] == "fast":
            return (
                isinstance(got, dict)
                and sorted(got) == sorted(fns)
                and all(all_close(got[name], expected[name]) for name in fns)
            )
        return close(got, total)

    sequences = []
    for client in range(clients):
        r = random.Random(f"book_compute:{seed}:{client}")
        sequences.append([requests[route] for route in _routes(r, counts)])
    return Workload(setup, sequences, StatelessOracle(verify))


# --- store_rw


def _store_rw(seed: int, clients: int) -> Workload:
    """URI i always holds books of ROW_COUNTS[i % 3] rows, and each block of
    requests writes and reads every size equally often, so the bytes moved
    do not depend on which URIs the seed happens to pick."""
    rng = random.Random(f"store_rw:{seed}")
    bodies = {
        rows: [canonical_bytes([_row(rng) for _ in range(rows)]) for _ in range(BOOK_VARIANTS)]
        for rows in ROW_COUNTS
    }
    counts = {("post", rows): 3 for rows in ROW_COUNTS}
    counts.update({("get", rows): 3 for rows in ROW_COUNTS})
    counts.update({("children", None): 1, ("delete", None): 1})
    setup, initial, sequences = [], [], []
    for client in range(clients):
        prefix = f"/rest/rw/c{client}"
        uris = [f"{prefix}/u{i}" for i in range(OWNED_URIS)]
        by_size = {rows: uris[k::len(ROW_COUNTS)] for k, rows in enumerate(ROW_COUNTS)}
        initial.append({})
        for rows, owned in by_size.items():
            for uri in owned:
                setup.append(Request("seed", "POST", uri, bodies[rows][0], ("seed",)))
                initial[client][uri] = bodies[rows][0]
        r = random.Random(f"store_rw:{seed}:{client}")
        sequence = []
        for route, rows in _routes(r, counts):
            if route == "post":
                uri = r.choice(by_size[rows])
                sequence.append(Request(route, "POST", uri, r.choice(bodies[rows]), ("post", uri)))
            elif route == "get":
                uri = r.choice(by_size[rows])
                sequence.append(Request(route, "GET", uri, None, ("get", uri)))
            elif route == "delete":
                uri = r.choice(uris)
                sequence.append(Request(route, "DELETE", uri, None, ("delete", uri)))
            else:
                target = f"{prefix}?children=true"
                sequence.append(Request(route, "GET", target, None, ("children", prefix)))
        sequences.append(sequence)
    return Workload(setup, sequences, StoreOracle(initial))


GENERATORS = {
    "small_calls": _small_calls,
    "book_compute": _book_compute,
    "store_rw": _store_rw,
}


def build(name: str, seed: int, clients: int) -> Workload:
    return GENERATORS[name](seed, clients)
