"""Run `fastgate serve` with a span around each layer's entry points.

Usage: python3 perfbench/traced_serve.py SPANS_FILE serve --bind HOST:PORT

The gateway's own code is not changed.  Before the command line runs,
the launcher swaps the value helpers (canonical_json, loads_strict,
validate_value, copy_value) in every module that imported them, and
the query parser, for timed wrappers.  When `serve` builds its app, the
launcher wraps the bundle's methods and every registered function, then
`serve` goes on as usual.  SIGTERM takes the server down through its own
interrupt path, and the spans, kept in memory until then, go to
SPANS_FILE: one JSON line with the span names, then seven native 64-bit
integers per span (request id, span id, parent id, name index, start ns,
end ns, extra or -1), each span after its children.

A span's request id is the integer in the client's X-Bench-Request-Id
header (-1 without one).  Work that the engine's map pool runs on its
threads is parented to the `run` span that submitted it.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import os
import signal
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fastgate import (  # noqa: E402
    cli,
    config,
    http_gateway,
    lambda_machine,
    query_language,
    rest_machine,
    template_resolver,
    values,
)
from fastgate.builtin_packages import BUILTIN_PACKAGES  # noqa: E402
from fastgate.lambda_machine import FunctionRef  # noqa: E402

REQUEST_ID_ENVIRON = "HTTP_X_BENCH_REQUEST_ID"
NO_EXTRA = -1
VALUE_HELPERS = ("canonical_json", "loads_strict", "validate_value", "copy_value")
HELPER_USERS = (values, http_gateway, rest_machine, lambda_machine, template_resolver,
                query_language, config, cli)


class Tracer:
    def __init__(self):
        self.names: list = []
        # one extend() per span: a single C call, so threads never interleave
        self.spans = array.array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(-1, 0)]
        return stack

    def wrap(self, name: str, fn, extra=None, root: bool = False):
        """`fn` recording one span per call; `extra(result)` adds a number.

        A root span starts a fresh stack for the request its WSGI environ
        names.
        """
        code = len(self.names)
        self.names.append(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._local.stack = [(int(args[0].get(REQUEST_ID_ENVIRON, -1)), 0)]
            stack = self._stack()
            rid, parent = stack[-1]
            sid = next(ids)
            stack.append((rid, sid))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                note = NO_EXTRA if extra is None or result is None else extra(result)
                spans.extend((rid, sid, parent, code, start, end, note))

        return traced

    def carry(self, fn):
        """`fn` run on another thread as a child of the caller's current span."""
        context = self._stack()[-1]
        local = self._local

        def carried(*args):
            saved = getattr(local, "stack", None)
            local.stack = [context]
            try:
                return fn(*args)
            finally:
                local.stack = saved

        return carried

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.names).encode("utf-8") + b"\n")
            self.spans.tofile(fh)


class _CarryingExecutor:
    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def map(self, fn, *iterables):
        return self._pool.map(self._tracer.carry(fn), *iterables)


def trace_helpers(tracer: Tracer) -> None:
    for helper in VALUE_HELPERS:
        traced = tracer.wrap(
            f"values.{helper}", getattr(values, helper),
            extra=len if helper == "canonical_json" else None,
        )
        for module in HELPER_USERS:
            if hasattr(module, helper):
                setattr(module, helper, traced)
    query_language.parse = tracer.wrap("query_language.parse", query_language.parse)


def trace_bundle(bundle, tracer: Tracer) -> None:
    def wrap_methods(layer: str, obj, names, **kwargs):
        for name in names:
            setattr(obj, name, tracer.wrap(f"{layer}.{name}", getattr(obj, name), **kwargs))

    gateway, machine = bundle.gateway, bundle.machine
    wrap_methods("http_gateway", gateway, ["wsgi_app"], root=True)
    wrap_methods("http_gateway", gateway, ["handle"], extra=lambda response: response.status)
    wrap_methods("template_resolver", bundle.resolver, ["resolve"])
    wrap_methods("query_language", bundle.engine, ["evaluate"])
    wrap_methods("lambda_machine", machine, ["invoke", "invoke_checked", "run", "bind_and_call"])
    wrap_methods(
        "rest_machine", bundle.store,
        ["get_resource", "post_resource", "delete_resource", "list_children"],
    )
    for package in machine.packages():
        for name in BUILTIN_PACKAGES[package]:
            handle = machine.lookup(FunctionRef(package, name))
            handle.fn = tracer.wrap(f"builtin_packages.{package}.{name}", handle.fn)
    make_executor = machine._executor
    machine._executor = lambda: _CarryingExecutor(make_executor(), tracer)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    trace_helpers(tracer)
    build_app = cli.build_app

    def build_traced_app(*args, **kwargs):
        bundle = build_app(*args, **kwargs)
        trace_bundle(bundle, tracer)
        return bundle

    cli.build_app = build_traced_app
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        cli.main(args=cli_args, prog_name="fastgate", standalone_mode=False)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
