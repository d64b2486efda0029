"""Start, probe and stop a gateway server process on a localhost port."""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


class SetupError(RuntimeError):
    pass


class ServerExited(SetupError):
    pass


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One server process; `argv` is everything after the interpreter."""

    def __init__(self, root: str, argv: list, log_path: str):
        self.port = _free_port()
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *argv, "--bind", f"{HOST}:{self.port}"],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )

    def wait_ready(self) -> None:
        """Poll /healthz until it answers 200."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerExited(f"server exited with code {self.proc.returncode}")
            conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise SetupError("server did not answer /healthz in time")

    def send_all(self, requests: list) -> None:
        """Send set-up requests in order; each must answer 200."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            for req in requests:
                headers = {"Content-Type": "application/json"} if req.body else {}
                conn.request(req.method, req.target, req.body, headers)
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    raise SetupError(f"{req.method} {req.target}: {response.status} {body[:200]!r}")
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server process, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Terminate the process and wait for it; kill it if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def start(root: str, argv: list, log_path: str, setup: list) -> tuple:
    """A ready, seeded server and the seconds that took, spawn included.

    A port taken between choosing and binding makes the server exit, so
    the spawn is retried on a fresh port.
    """
    for attempt in range(3):
        began = time.perf_counter()
        server = Server(root, argv, log_path)
        try:
            server.wait_ready()
            server.send_all(setup)
            return server, time.perf_counter() - began
        except ServerExited:
            if attempt == 2:
                raise
        except BaseException:
            server.stop()
            raise
    raise AssertionError("unreachable")
