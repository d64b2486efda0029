"""Worker processes for heavy requests, which `http_gateway.Gateway._hand_off`
names.

Their time goes to pure-Python function bodies, the parse and validation of
a large request body, on any route, or of a stored text, and the canonical
encoding of the result or the stored value, and the interpreter lock runs one thread's Python at a time,
so threads give them no second CPU.  `WorkerPool.fork`
forks processes that each keep the forked gateway and run its unchanged
`handle` on whole requests that the server's gateway hands them (see
`http_gateway`).  The server keeps the transport and the store: a
worker keeps its forked `ResourceStore`, whose entries are swapped for a
mapping that sends each read and each write of a key to the server's
thread that handed it the request, which applies them to the server's
store in the order sent.  The worker's store checks each key and raises
NotFound itself, as the server's does.  So reads, writes, their order and
their errors are those of the same call run in the server.

Fork only before any thread starts, since a forked child holds just the
thread that forked it, and a lock another thread held stays held there.
Each message is a `marshal`-ed tuple, or the text or None that answers a
read, after its length, in 8 bytes.
A worker ignores SIGINT, so Ctrl-C on a terminal stops the server alone.
It exits when it reads the end of its socket, which `WorkerPool.close`
or the server's death closes.  A worker that dies answers its call in
flight with the fixed 500, and the server reaps it and does not use it
again.
"""

from __future__ import annotations

import marshal
import os
import signal
import socket
import traceback
from contextlib import suppress
from typing import Optional

from .http_gateway import WireRequest, WireResponse, internal_error
from .rest_machine import ResourceStore

_GET, _PUT, _REPLY = range(3)  # from a worker: a store read, a store write, its reply
_LENGTH = 8  # bytes of the little-endian length before each message


def worker_count() -> int:
    """One worker per CPU this process may run on; none on one CPU or
    where there is no fork."""
    if not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else 0


def _send(sock: socket.socket, message) -> None:
    data = marshal.dumps(message)
    sock.sendall(len(data).to_bytes(_LENGTH, "little") + data)


def _receive(reader):
    """The next message; EOFError when the other end closed before a whole one."""
    head = reader.read(_LENGTH)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < _LENGTH or len(data) < size:
        raise EOFError("the other process closed its socket")
    return marshal.loads(data)


class _Worker:
    """The server's end of one worker process."""

    def __init__(self, pid: int, sock: socket.socket):
        self.pid = pid
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class WorkerPool:
    """The server's worker processes, and the store that answers them.

    A request thread takes an idle worker with `idle` and gives it a
    request with `call`, which puts the worker back when it has answered.
    There is no queue: with no worker idle, the caller runs the call itself.
    """

    def __init__(self, store: ResourceStore):
        self._store = store
        self._workers: list[_Worker] = []  # every live worker
        self._idle: list[_Worker] = []  # pop and append are atomic

    @classmethod
    def fork(cls, gateway, count: int) -> "WorkerPool":
        """`count` workers, each forked from this process with `gateway`."""
        pool = cls(gateway.store)
        try:
            for _ in range(count):
                ours, theirs = socket.socketpair()
                pid = os.fork()
                if pid == 0:
                    _run_worker(gateway, theirs, [ours, *pool._workers])
                theirs.close()
                worker = _Worker(pid, ours)
                pool._workers.append(worker)
                pool._idle.append(worker)
        except BaseException:
            pool.close()
            raise
        return pool

    def __len__(self) -> int:
        return len(self._workers)

    def idle(self) -> Optional[_Worker]:
        """An idle live worker, now busy, or None when there is none."""
        while True:
            try:
                worker = self._idle.pop()
            except IndexError:
                return None
            with suppress(ChildProcessError):
                if os.waitpid(worker.pid, os.WNOHANG) == (0, 0):
                    return worker
            self._drop(worker)  # it died while idle, and is reaped now

    def call(self, worker: _Worker, req: WireRequest) -> WireResponse:
        """Run `req` in the busy `worker`, answering its store messages, and
        return its reply; the fixed 500 when the worker dies first."""
        try:
            _send(worker.sock, (req.method, req.path, req.query, req.body, req.content_type))
            while (message := _receive(worker.reader))[0] != _REPLY:
                if message[0] == _GET:  # None for an absent key
                    _send(worker.sock, self._store._entries.get(message[1]))
                else:
                    self._store.put_text(message[1], message[2])
        except (EOFError, OSError):  # the worker died: only its exit closes its end
            with suppress(ChildProcessError):
                os.waitpid(worker.pid, 0)
            self._drop(worker)
            return internal_error()
        self._idle.append(worker)
        return WireResponse(message[1], message[2], message[3])

    def _drop(self, worker: _Worker) -> None:
        worker.close()
        with suppress(ValueError):  # close() dropped it already
            self._workers.remove(worker)

    def close(self) -> None:
        """End every worker: close its socket, so that it reads the end and
        exits, then reap it."""
        workers, self._workers, self._idle = self._workers, [], []
        for worker in workers:
            worker.close()
        for worker in workers:
            with suppress(ChildProcessError):
                os.waitpid(worker.pid, 0)


class _ServerEntries:
    """A worker store's `_entries`: each read and write of a key is sent to
    the server's store, which answers a read with the text or None."""

    def __init__(self, sock: socket.socket, reader):
        self._sock = sock
        self._reader = reader

    def __getitem__(self, key: str) -> str:
        _send(self._sock, (_GET, key))
        text = _receive(self._reader)
        if text is None:
            raise KeyError(key)
        return text

    def __setitem__(self, key: str, text: str) -> None:
        _send(self._sock, (_PUT, key, text))


def _run_worker(gateway, sock: socket.socket, server_ends: list) -> None:
    """A forked child's whole life: serve requests until the server closes
    its end of `sock`, then exit, never returning to the forking code.

    `server_ends` are the server's ends of this worker's socket and of the
    earlier workers' sockets, which the child closes: a copy kept open here
    would keep a worker from reading the end of its socket.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for end in server_ends:
            end.close()
        reader = sock.makefile("rb")
        gateway.store._entries = _ServerEntries(sock, reader)
        gateway.allow = None  # the server's gateway ran the hook
        gateway.workers = None
        with suppress(EOFError, BrokenPipeError, ConnectionResetError):
            while True:
                method, path, query, body, content_type = _receive(reader)
                response = gateway.handle(WireRequest(method, path, query, body, content_type))
                _send(sock, (_REPLY, response.status, response.text, response.allow))
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)  # no exit handlers or buffers of the forking process
