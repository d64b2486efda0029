"""Self-test of the benchmark against the real server.

    python3 perfbench/selftest.py

1. Each workload runs for a few seconds untraced; the run must be correct,
   fail nothing, and report exactly the end-to-end metrics BENCHMARK.json
   names.  small_calls also runs traced and must report exactly the
   per-layer metrics.
2. For each workload, the first requests of a sequence are sent to a fresh
   server; the oracle must pass every reply as received and reject each
   reply once its first digit or its status is changed.

Exits non-zero with a message on the first failure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import sys

import run
import server as servers
import workloads

SMOKE_SECONDS = 3
ORACLE_REQUESTS = 40


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def smoke(name: str, trace: bool, expected_metrics: list) -> None:
    result = run.run_workload(name, seed=7, seconds=SMOKE_SECONDS, trace=trace)
    label = f"{name} (trace={int(trace)})"
    _require(result["correct"], f"{label}: a response failed the oracle")
    _require(result["attempted"] > 0 and result["failed"] == 0, f"{label}: {result['failed']} failed")
    got = list(result["record"]["metrics"])
    _require(sorted(got) == sorted(expected_metrics), f"{label}: metrics {got}")
    print(f"ok  smoke {label}: {result['attempted']} requests")


def _corrupt(body: bytes) -> bytes:
    """The body with its most significant digit changed, or with a byte added."""
    first = re.search(rb"[0-9]", body)
    if first is None:
        return body + b"x"
    at = first.start()
    return body[:at] + str((int(body[at:at + 1]) + 1) % 10).encode() + body[at + 1:]


def oracle_rejects_corruption(name: str) -> None:
    workload = workloads.build(name, seed=7, clients=1)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    server, _ = run.start_server(workload, run.SERVE_ARGV)
    executed = []
    try:
        conn = http.client.HTTPConnection(servers.HOST, server.port, timeout=60)
        for req in workload.sequences[0][:ORACLE_REQUESTS]:
            headers = {"Content-Type": "application/json"} if req.body else {}
            conn.request(req.method, req.target, req.body, headers)
            response = conn.getresponse()
            executed.append((req, response.status, response.read()))
        conn.close()
    finally:
        server.stop()
    _require(all(workload.oracle.check(0, executed)), f"{name}: oracle rejected a true reply")
    for i, (req, status, body) in enumerate(executed):
        for bad in ((req, status, _corrupt(body)), (req, 500, body)):
            trial = executed[:i] + [bad] + executed[i + 1:]
            _require(
                not workload.oracle.check(0, trial)[i],
                f"{name}: oracle accepted corrupted reply {i} to {req.method} {req.target}",
            )
    print(f"ok  oracle {name}: {len(executed)} replies pass, every corruption rejected")


def main() -> int:
    spec = _spec()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in run.WORKLOADS:
        smoke(name, False, end_to_end)
    smoke("small_calls", True, per_layer)
    for name in run.WORKLOADS:
        oracle_rejects_corruption(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
