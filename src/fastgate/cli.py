"""Operator entry point: serve the gateway, run queries, seed resources.

Exit codes: 0 success, 1 client or input error, 2 server or transport
error, or a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import signal
import socket
import socketserver
import sys
import threading
import time
from contextlib import suppress
from time import gmtime
from urllib.parse import quote, urlsplit

from .config import ENV_CONFIG, build_app, load_config_file, make_config
from .errors import FastError
from .http_gateway import _REASONS, _error, reply_head
from .values import canonical_json, loads_strict
from .workers import WorkerPool, worker_count

DEFAULT_SERVER = "http://127.0.0.1:8080"

# A connection that sends nothing for this long, between requests or in the
# middle of one, is closed, so an idle client does not hold a thread forever.
IDLE_TIMEOUT_S = 60.0

_MAX_LINE = 65536  # bytes in the request line (else 414) or in a header line (else 431)
_MAX_LINES = 100  # header lines, the blank line that ends them included (else 431)
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_TOKEN = re.compile(rb"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # a field name, RFC 9110 section 5.6.2
# IMF-fixdate names are English whatever the locale (RFC 9110 section 5.6.7)
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _GatewayHandler(socketserver.StreamRequestHandler):
    """HTTP/1.1 in front of the server's gateway, one request at a time.

    The request line and the header block are read once, as bytes, into the
    environ, and the body is checked and read by its Content-Length before
    the gateway's `wsgi_app` sees the request.  The connection stays open
    until the client closes it or sends `Connection: close`, the request is
    HTTP/1.0, or the client stays silent for IDLE_TIMEOUT_S.  Every method
    reaches the gateway, so an unknown one gets its 405, not a 501.  A
    request not strictly framed never does (RFC 9112): it gets a JSON error,
    with no body for a HEAD, and the connection closes.
    """

    disable_nagle_algorithm = True  # a reply's last partial segment goes out at once

    def handle(self):
        self.connection.settimeout(IDLE_TIMEOUT_S)
        # the client went silent, or reset the connection: drop it without a reply or a log line
        with suppress(TimeoutError, ConnectionError):
            while not self.server.closing and self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Read and answer one request; False when the connection is to close."""
        self.head = False  # a reply to HEAD carries no body (RFC 9110 section 9.3.2)
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._reject(414)
        words = (text := line.decode("latin-1").rstrip("\r\n")).split()
        if not words:  # the client closed the connection, or sent a blank line
            return False
        if len(words) >= 3 and not (version := _VERSION.fullmatch(words[-1])):
            return self._reject(400, f"Bad request version ({words[-1]!r})")
        if len(words) >= 3 and int(version[1]) > 1:
            return self._reject(505, f"Invalid HTTP version ({words[-1][5:]})")
        if len(words) != 3:
            return self._reject(400, f"Bad request syntax ({text!r})")
        method, target, _ = words
        self.head = method == "HEAD"
        http11 = int(version[1]) == 1 <= int(version[2])  # or a later 1.x (RFC 9110 2.5)
        path, _, query = target.partition("?")
        # PATH_INFO stays percent-encoded: the gateway decodes a path once, as UTF-8
        environ = {"REQUEST_METHOD": method, "PATH_INFO": path, "QUERY_STRING": query}
        framing = {b"content-length": [], b"content-type": []}  # by exact name, not Content_Length
        for _ in range(_MAX_LINES):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE:
                return self._reject(431, "Line too long")
            name, colon, value = line.partition(b":")
            if not (colon and _TOKEN.fullmatch(name)):
                return self._reject(400, "malformed header field name")
            key = "HTTP_" + name.decode("ascii").upper().replace("-", "_")
            value = value.strip().decode("latin-1")
            environ[key] = f"{environ[key]},{value}" if key in environ else value
            framing.get(name.lower(), []).append(value)
        else:
            return self._reject(431, "Too many headers")
        if not target.isascii():  # RFC 9112 allows only ASCII
            return self._reject(400, "request target must be ASCII; percent-encode other bytes")
        if http11 and "," in environ.get("HTTP_HOST", ","):  # none, or two joined by a comma
            return self._reject(400, "an HTTP/1.1 request needs exactly one Host")
        if "HTTP_TRANSFER_ENCODING" in environ:
            return self._reject(400, "Transfer-Encoding is not supported; send a Content-Length")
        declared = ",".join(framing[b"content-length"]) or "0"  # a repeated one is not digits
        if not (declared.isascii() and declared.isdigit()):
            return self._reject(400, "Content-Length must be a non-negative integer")
        length = int(declared)
        gateway = self.server.gateway
        if length > gateway.max_bytes:  # refused unread, and never invited by a 100
            return self._reject(413, f"request body exceeds {gateway.max_bytes} bytes")
        if length and http11 and environ.get("HTTP_EXPECT", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            return self._reject(400, "request body is shorter than its Content-Length")
        environ["CONTENT_LENGTH"] = str(length)
        environ["CONTENT_TYPE"] = next(iter(framing[b"content-type"]), "")
        environ["wsgi.input"] = io.BytesIO(body)
        options = environ.get("HTTP_CONNECTION", "").lower().split(",")
        close = not http11 or any(option.strip() == "close" for option in options)
        reply = []
        chunks = gateway.wsgi_app(environ, lambda status, headers: reply.extend((status, headers)))
        status, headers = reply
        self._send(status, headers, b"".join(chunks), close)
        return not close

    def _reject(self, code: int, message: str = "") -> bool:
        """Answer a request the reader refused with a JSON error, and close."""
        self._send(*reply_head(_error(code, message or _REASONS[code])), close=True)
        return False

    def _send(self, status: str, headers: list, body: bytes, close: bool) -> None:
        # One write: a second small one would wait on the client's delayed ACK.
        head = [f"HTTP/1.1 {status}", self.server.date_line()]
        head += [f"{name}: {value}" for name, value in headers]
        if close:
            head.append("Connection: close")
        if self.head:  # Content-Length still gives the size of the body left out
            body = b""
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)


class GatewayServer(socketserver.ThreadingTCPServer):
    """Serves a `Gateway` with one thread per connection.

    Each request goes to `gateway.wsgi_app`, looked up per request, so a
    wrapper set on the instance serves too.  A body over `gateway.max_bytes`
    is refused with a 413 before it is read.

    `server_close` lets the requests in flight finish and ends every
    connection before it returns, so the gateway serves nothing after it and
    a store saved then holds every acknowledged write.
    """

    allow_reuse_address = True
    daemon_threads = False  # server_close joins them

    def __init__(self, address: tuple, gateway):
        self.gateway = gateway
        self.closing = False
        self._date = (None, "")  # the last (second, Date line)
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _GatewayHandler)

    def date_line(self) -> str:
        """The Date header line for now, formatted once a second, its resolution
        (RFC 9110 section 6.6.1)."""
        second, line = self._date  # read once, so a thread racing a refresh sends a whole pair
        now = int(time.time())
        if now != second:
            t = gmtime(now)  # by name: a test swaps `time` for an object with time() alone
            line = (
                f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
                f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
            )
            self._date = (now, line)
        return line

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        self.closing = True
        with self._connections_lock:
            for request in self._connections:
                with suppress(OSError):  # wake a thread waiting for its next request
                    request.shutdown(socket.SHUT_RD)
        super().server_close()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _fail(message: str, code: int):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def serve(config_path, **flags):
    """Run the gateway until interrupted."""
    try:
        values = load_config_file(config_path) if config_path else {}
        # the flags are keyed as the config file is; a flag left out (None) leaves its value
        values.update((key, value) for key, value in flags.items() if value is not None)
        config = make_config(values)
        bundle = build_app(config)
    except (FastError, OSError) as exc:
        _fail(str(getattr(exc, "message", exc)), 1)
    # before the bind and before any thread starts: a worker keeps no listening
    # socket, and no lock that another thread held
    workers = bundle.gateway.workers = WorkerPool.fork(bundle.gateway, worker_count())
    try:
        server = GatewayServer((config.host, config.port), bundle.gateway)
    except OSError as exc:
        workers.close()
        _fail(f"cannot bind {config.host}:{config.port}: {exc}", 1)
    print(f"serving on http://{config.host}:{config.port}", file=sys.stderr)
    print(f"packages: {', '.join(bundle.machine.packages())}", file=sys.stderr)
    print(
        f"worker processes for heavy requests: {len(workers)}",
        file=sys.stderr,
    )
    if config.store_path:
        print(f"store file: {config.store_path}", file=sys.stderr)
    # SIGTERM (docker stop, systemd) takes the same path as Ctrl-C, so the store is flushed
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        workers.close()
        if config.store_path:
            bundle.store.save(config.store_path)
            print(f"store flushed to {config.store_path}", file=sys.stderr)


def _post(server: str, path: str, value):
    """POST `value` as JSON to `path` under the `server` URL; the reply's value.

    Any other outcome exits: 1 for a 4xx, 2 for no server or another reply.
    """
    # imported here, so that `serve` loads no HTTP client and no TLS
    from http.client import HTTPConnection, HTTPException, HTTPSConnection

    try:
        url = urlsplit(server)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("the URL must start with http:// or https://")
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        conn = connection(url.hostname, url.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"}
            conn.request("POST", url.path.rstrip("/") + path, canonical_json(value), headers)
            response = conn.getresponse()
            status, body = response.status, response.read()
        finally:
            conn.close()
    except (OSError, ValueError, HTTPException) as exc:
        _fail(f"cannot reach {server}: {exc}", 2)
    try:
        payload = json.loads(body)
    except ValueError:
        _fail(f"non-JSON response (HTTP {status})", 2)
    if status != 200:
        message = payload.get("message") if isinstance(payload, dict) else None
        _fail(message or f"HTTP {status}", 1 if 400 <= status < 500 else 2)
    return payload


def query(text, server):
    """Send a query-language string and print the JSON result."""
    print(json.dumps(_post(server, "/query", {"q": text}), indent=2))


def seed(file, server, uri):
    """POST a JSON file's value to a resource URI."""
    try:
        with open(file, "r", encoding="utf-8") as fh:
            value = loads_strict(fh.read(), what=file)
    except OSError as exc:
        _fail(str(exc), 1)
    except FastError as exc:
        _fail(exc.message, 1)
    if not uri.startswith("/"):
        uri = "/" + uri
    if not uri.startswith("/rest/"):
        uri = "/rest" + uri
    payload = _post(server, quote(uri, safe="/%"), value)  # the server decodes it once
    if not (isinstance(payload, dict) and payload.get("status") == "success"):
        _fail(f"unexpected reply: {canonical_json(payload)}", 2)
    print(f"seeded {uri}")


# Ctrl-C outside `serve` exits 1, or is raised on when standalone_mode is false.
# perfbench/traced_serve.py passes prog_name and standalone_mode; they go when
# ROADMAP item 1 stops that.
def main(args=None, prog_name="fastgate", standalone_mode=True):
    """A resource store and a pure-function engine behind one HTTP API."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        """The add_argument of a new subcommand that calls `run`, named after it."""
        doc = run.__doc__
        sub = commands.add_parser(run.__name__, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command(serve)
    option("--bind", metavar="HOST:PORT", help="Listen address.")
    option("--packages", metavar="A,B", help="Builtin packages to enable.",
           type=lambda names: [name.strip() for name in names.split(",") if name.strip()])
    option("--store", metavar="FILE", help="Persist resources here.")
    option("--depth", type=int, metavar="INTEGER", help="Template nesting limit.")
    option("--max-bytes", type=int, metavar="INTEGER", help="Payload size limit.")
    option("--check-purity", action="store_true", default=None, help="Evaluate twice and compare.")
    # an empty or unset variable, like an explicit --config "", names no file
    option("--config", dest="config_path", default=os.environ.get(ENV_CONFIG), metavar="FILE",
           help=f"JSON config file (or ${ENV_CONFIG}).")
    for run, operand in ((query, "TEXT"), (seed, "FILE")):
        option = command(run)
        option(operand.lower(), metavar=operand)
        option("--server", default=DEFAULT_SERVER, metavar="URL", help="[default: %(default)s]")
    option("--uri", required=True, metavar="/rest/...", help="Target resource URI.")
    options = vars(parser.parse_args(args))
    try:
        options.pop("run")(**options)
    except KeyboardInterrupt:
        if standalone_mode:
            sys.exit("\nAborted!")  # printed to stderr, after the terminal's ^C
        raise


if __name__ == "__main__":
    main()
