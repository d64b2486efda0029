"""Per-layer metrics from the spans file of a traced run.

A span's self time is its duration minus the part of its interval that
the union of its children's intervals covers.  Children that the map
pool runs on several threads at once overlap, so their self times add
up to more than the wall time they span; the diagnostic `accounted_ratio`
(layer self times plus transport, over client wall time) shows how much.
Without pool threads it is 1 by construction, since transport is the
client wall time minus the `wsgi_app` span.
"""

from __future__ import annotations

import array
import json
from collections import defaultdict

ROOT_SPAN = "http_gateway.wsgi_app"
HANDLE_SPAN = "http_gateway.handle"
RESOLVE_SPAN = "template_resolver.resolve"
ENGINE = "lambda_machine."
FUNCTION_BODIES = "builtin_packages."
VALUE_HELPERS = ("loads_strict", "canonical_json", "validate_value", "copy_value")
REST_OPERATIONS = ("get_resource", "post_resource", "delete_resource", "list_children")
FIELDS_PER_SPAN = 7


def read_spans(path: str) -> tuple:
    """(names, flat array of span fields) as traced_serve.py writes them."""
    spans = array.array("q")
    with open(path, "rb") as fh:
        names = json.loads(fh.readline())
        spans.frombytes(fh.read())
    return names, spans


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def per_layer(names: list, spans, walls: dict, connects: int, overhead_ratio: float) -> tuple:
    """(metrics, diagnostics) over the traced requests in `walls`.

    `metrics` maps a per-layer metric name to (value, unit).  `diagnostics`
    holds figures with no better direction: the number of traced requests,
    the resolver hit ratio, which the workload mix sets, and the
    accounted ratio, a consistency check.

    `walls` maps request id to client-observed seconds; `connects` is the
    number of TCP connects those requests made.  Spans come after their
    children, so one pass with the children of unfinished spans pending
    computes every self time.
    """
    calls, self_ns, notes = defaultdict(int), defaultdict(int), defaultdict(int)
    pending = defaultdict(list)  # parent span id -> child intervals
    root_ns = transport_ns = wall_ns = requests = resolve_hits = 0
    fields = iter(spans)
    for rid, sid, parent, code, start, end, note in zip(*[fields] * FIELDS_PER_SPAN):
        children = pending.pop(sid, ())
        if parent:
            pending[parent].append((start, end))
        if rid not in walls:
            continue
        name = names[code]
        calls[name] += 1
        self_ns[name] += (end - start) - _covered(children, start, end)
        if name == ROOT_SPAN:
            wall = round(walls[rid] * 1e9)
            root_ns += end - start
            transport_ns += wall - (end - start)
            wall_ns += wall
            requests += 1
        elif name == HANDLE_SPAN:
            notes[name] += note != 200
        elif name == RESOLVE_SPAN:
            # every template reaches the store or a function: a child span
            resolve_hits += bool(children)
        elif note >= 0:
            notes[name] += note
    n = max(requests, 1)

    def ms(ns: float) -> tuple:
        return ns / n / 1e6, "ms"

    def count(number: float) -> tuple:
        return number / n, "count"

    def ratio(num: float, den: float) -> tuple:
        return (num / den if den else 0.0), "ratio"

    def group(prefix: str) -> tuple:
        members = [name for name in calls if name.startswith(prefix)]
        return sum(calls[m] for m in members), sum(self_ns[m] for m in members)

    _, engine_ns = group(ENGINE)
    body_calls, body_ns = group(FUNCTION_BODIES)
    metrics = {
        "transport.self_ms_per_req": ms(transport_ns),
        "transport.connections_per_req": count(connects),
        "http_gateway.wsgi_app.ms_per_req": ms(root_ns),
        "http_gateway.wsgi_app.self_ms_per_req": ms(self_ns[ROOT_SPAN]),
        "http_gateway.handle.self_ms_per_req": ms(self_ns[HANDLE_SPAN]),
        "http_gateway.handle.non200_per_req": count(notes[HANDLE_SPAN]),
    }
    for helper in VALUE_HELPERS:
        name = f"values.{helper}"
        metrics[f"{name}.calls_per_req"] = count(calls[name])
        metrics[f"{name}.self_ms_per_req"] = ms(self_ns[name])
    metrics["values.canonical_json.bytes_per_req"] = (notes["values.canonical_json"] / n, "bytes")
    metrics.update({
        f"{RESOLVE_SPAN}.calls_per_req": count(calls[RESOLVE_SPAN]),
        f"{RESOLVE_SPAN}.self_ms_per_req": ms(self_ns[RESOLVE_SPAN]),
        "lambda_machine.run.self_ms_per_req": ms(self_ns["lambda_machine.run"]),
        "lambda_machine.bind_and_call.calls_per_req": count(calls["lambda_machine.bind_and_call"]),
        "lambda_machine.self_ms_per_req": ms(engine_ns),
        "lambda_machine.overhead_ratio": ratio(engine_ns, body_ns),
        "builtin_packages.calls_per_req": count(body_calls),
        "builtin_packages.self_ms_per_req": ms(body_ns),
        "query_language.parse.self_ms_per_req": ms(self_ns["query_language.parse"]),
        "query_language.evaluate.self_ms_per_req": ms(self_ns["query_language.evaluate"]),
    })
    for operation in REST_OPERATIONS:
        name = f"rest_machine.{operation}"
        metrics[f"{name}.calls_per_req"] = count(calls[name])
        metrics[f"{name}.self_ms_per_req"] = ms(self_ns[name])
    metrics.update({
        "trace.wall_ms_per_req": ms(wall_ns),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    diagnostics = {
        "requests": requests,
        "template_resolver.hit_ratio": ratio(resolve_hits, calls[RESOLVE_SPAN])[0],
        "accounted_ratio": ratio(sum(self_ns.values()) + transport_ns, wall_ns)[0],
    }
    return metrics, diagnostics
