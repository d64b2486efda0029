"""Closed-loop load: each client thread sends its next request only after
the previous reply has arrived, over one reused http.client connection."""

from __future__ import annotations

import gc
import http.client
import threading
import time
from dataclasses import dataclass

from server import HOST

REQUEST_ID_HEADER = "X-Bench-Request-Id"
REQUEST_TIMEOUT_S = 60.0


class CountingConnection(http.client.HTTPConnection):
    """Counts TCP connects; http.client reconnects by itself after a close."""

    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def request_id(client: int, index: int) -> int:
    return client << 32 | index


def _client(client: int, port: int, sequence: list, stop_at: list, out: list) -> None:
    """Append (index, start, end, status, body, connects) for every request sent.

    The client stops after the first reply that arrives at or after
    `stop_at[0]`, a time the caller may bring forward.
    """
    conn = CountingConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    clock = time.perf_counter
    json_type = "application/json"
    length = len(sequence)
    index = 0
    try:
        while True:
            req = sequence[index % length]
            headers = {REQUEST_ID_HEADER: str(request_id(client, index))}
            if req.body is not None:
                headers["Content-Type"] = json_type
            before = conn.connects
            start = clock()
            try:
                conn.request(req.method, req.target, req.body, headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                status, body = None, b""
            end = clock()
            out.append((index, start, end, status, body, conn.connects - before))
            index += 1
            if end >= stop_at[0]:
                return
    finally:
        conn.close()


@dataclass
class Load:
    samples: list  # per client: list of sample tuples, in send order
    start_at: float  # the timed window is (start_at, stop_at] by completion time
    stop_at: float
    server_cpu_s: float
    client_cpu_s: float


def drive(server, sequences: list, warmup_s: float, seconds: float) -> Load:
    """Warm up, then time `seconds` of closed-loop load from one client per sequence."""
    samples = [[] for _ in sequences]
    gc.collect()
    gc.freeze()
    start_at = time.perf_counter() + warmup_s
    stop_at = start_at + seconds
    shared_stop = [stop_at]
    threads = [
        threading.Thread(
            target=_client, args=(client, server.port, sequence, shared_stop, samples[client])
        )
        for client, sequence in enumerate(sequences)
    ]
    for thread in threads:
        thread.start()
    try:
        time.sleep(max(0.0, start_at - time.perf_counter()))
        server_cpu, client_cpu = server.cpu_seconds(), time.process_time()
        time.sleep(max(0.0, stop_at - time.perf_counter()))
        server_cpu = server.cpu_seconds() - server_cpu
        client_cpu = time.process_time() - client_cpu
    except BaseException:
        shared_stop[0] = 0.0
        raise
    finally:
        for thread in threads:
            thread.join()
        gc.unfreeze()
    return Load(samples, start_at, stop_at, server_cpu, client_cpu)

