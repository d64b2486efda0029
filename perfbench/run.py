"""The fastgate benchmark: closed-loop HTTP load on the real server.

    python3 perfbench/run.py --workload small_calls --seed 1 --seconds 30 --trace 0

Starts the unchanged `fastgate serve` from ./src on a free localhost port,
drives it with CLIENTS closed-loop clients (each waits for its reply before
sending again) for --seconds after a warm-up, checks every response with an
independent oracle, and prints the metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 half the time runs untraced and half
against perfbench/traced_serve.py, and the metrics are per layer.
--workload all runs every workload in turn.

Standard output: a table of every metric with its unit and sample count,
one JSON run record per workload, and as the last line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

import layers
import loadgen
import server as servers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

CLIENTS = 2
SETUP_REPEATS = 5
SERVE_ARGV = ["-m", "fastgate.cli", "serve"]
WORKLOADS = ("small_calls", "book_compute", "store_rw")


def warmup_seconds(seconds: float) -> float:
    """Long enough for lazy state such as the map pool to be created."""
    return min(2.0, max(0.5, seconds / 5))


def _commit():
    """The checked-out commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _verdicts(workload, load) -> list:
    """Per client, whether each recorded response passed the oracle."""
    verdicts = []
    for client, samples in enumerate(load.samples):
        sequence = workload.sequences[client]
        executed = [(sequence[s[0] % len(sequence)], s[3], s[4]) for s in samples]
        verdicts.append(workload.oracle.check(client, executed))
    return verdicts


class Window:
    """The requests of one load that completed inside its timed window."""

    def __init__(self, workload, load):
        verdicts = _verdicts(workload, load)
        self.seconds = load.stop_at - load.start_at
        self.all_passed = all(all(v) for v in verdicts)
        self.samples, self.passed, self.routes = [], [], {}
        for client, samples in enumerate(load.samples):
            sequence = workload.sequences[client]
            for sample, ok in zip(samples, verdicts[client]):
                if load.start_at < sample[2] <= load.stop_at:
                    self.samples.append((client, sample))
                    self.passed.append(ok)
                    route = sequence[sample[0] % len(sequence)].route
                    self.routes[route] = self.routes.get(route, 0) + 1
        self.attempted = len(self.samples)
        self.failed = self.passed.count(False)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.seconds

    def latency_quantiles_ms(self) -> list:
        latencies = [(s[2] - s[1]) * 1e3 for _, s in self.samples]
        if len(latencies) < 2:
            raise RuntimeError("too few requests completed in the timed window")
        return statistics.quantiles(latencies, n=100, method="inclusive")

    def connects(self) -> int:
        return sum(s[5] for _, s in self.samples)


def start_server(workload, argv: list):
    return servers.start(ROOT, argv, os.path.join(OUT_DIR, "server.log"), workload.setup)


def run_end_to_end(workload, seconds: float) -> tuple:
    setups, server = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, took = start_server(workload, SERVE_ARGV)
            setups.append(took)
        load = loadgen.drive(server, workload.sequences, warmup_seconds(seconds), seconds)
        peak_rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    window = Window(workload, load)
    q = window.latency_quantiles_ms()
    n = window.attempted
    metrics = {
        "throughput_rps": (window.throughput(), "req/s", n),
        "latency_p50_ms": (q[49], "ms", n),
        "latency_p90_ms": (q[89], "ms", n),
        "server_cpu_us_per_req": (load.server_cpu_s / n * 1e6, "us", n),
        "server_peak_rss_mb": (peak_rss, "MiB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    record = {
        "latency_p99_ms": q[98],
        "error_rate": window.failed / n,
        "connections_per_req": window.connects() / n,
        "client_cpu_us_per_req": load.client_cpu_s / n * 1e6,
        "routes": window.routes,
        "setup_s_each": setups,
    }
    return window, metrics, record


def run_traced(workload, name: str, seconds: float) -> tuple:
    half = seconds / 2
    warmup = warmup_seconds(half)
    server, _ = start_server(workload, SERVE_ARGV)
    try:
        untraced = Window(workload, loadgen.drive(server, workload.sequences, warmup, half))
    finally:
        server.stop()
    spans_path = os.path.join(OUT_DIR, f"spans-{name}.bin")
    traced_argv = [os.path.join(HERE, "traced_serve.py"), spans_path, "serve"]
    server, _ = start_server(workload, traced_argv)
    try:
        traced = Window(workload, loadgen.drive(server, workload.sequences, warmup, half))
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"traced server exited with code {code}")
    names, spans = layers.read_spans(spans_path)
    walls = {
        loadgen.request_id(client, s[0]): s[2] - s[1] for client, s in traced.samples
    }
    overhead = traced.throughput() / untraced.throughput()
    found, diagnostics = layers.per_layer(names, spans, walls, traced.connects(), overhead)
    n = diagnostics["requests"]
    metrics = {metric: (value, unit, n) for metric, (value, unit) in found.items()}
    record = {
        "untraced_throughput_rps": untraced.throughput(),
        "traced_throughput_rps": traced.throughput(),
        "spans": len(spans) // layers.FIELDS_PER_SPAN,
        "trace_diagnostics": diagnostics,
        "routes": traced.routes,
    }
    return untraced, traced, metrics, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": f"closed loop, {CLIENTS} clients, one thread and connection each",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "loadavg_at_start": os.getloadavg(),
    }
    workload = workloads.build(name, seed, CLIENTS)
    if trace:
        untraced, traced, metrics, extra = run_traced(workload, name, seconds)
        windows = [untraced, traced]
    else:
        window, metrics, extra = run_end_to_end(workload, seconds)
        windows = [window]
    record.update(extra)
    record["metrics"] = {
        metric: {"value": value, "unit": unit, "samples": samples}
        for metric, (value, unit, samples) in metrics.items()
    }
    return {
        "correct": all(w.all_passed for w in windows),
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "record": record,
    }


def _table(runs: list) -> str:
    lines = [f"{'workload':<14}{'metric':<44}{'value':>14}  {'unit':<8}{'samples':>8}"]
    for run in runs:
        record = run["record"]
        for name, m in record["metrics"].items():
            lines.append(
                f"{record['workload']:<14}{name:<44}{m['value']:>14.6g}  "
                f"{m['unit']:<8}{m['samples']:>8}"
            )
        lines.append(
            f"{record['workload']:<14}{'attempted/failed':<44}"
            f"{run['attempted']:>8}/{run['failed']:<5}  correct={run['correct']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fastgate", "cli.py")):
        print(f"error: no fastgate source under {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print(_table(runs))
    for run in runs:
        record = run["record"]
        path = os.path.join(
            OUT_DIR, f"record-{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run, fh, indent=1)
        print(json.dumps({"record": record}, separators=(",", ":")))
    prefix = len(runs) > 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{r['record']['workload']}.{name}" if prefix else name): {
                "value": m["value"], "unit": m["unit"],
            }
            for r in runs
            for name, m in r["record"]["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
