"""Operator entry point: serve the gateway, run queries, seed resources.

Exit codes: 0 success, 1 client or input error, 2 server or transport
error.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
from contextlib import suppress
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import click
import requests

from .config import ENV_CONFIG, build_app, load_config_file, make_config, parse_bind
from .errors import FastError
from .values import canonical_json, loads_strict

DEFAULT_SERVER = "http://127.0.0.1:8080"

# A connection that sends nothing for this long, between requests or in the
# middle of one, is closed, so an idle client does not hold a thread forever.
IDLE_TIMEOUT_S = 60.0


class _ContinueOnRead:
    """`wsgi.input` for a request that sent `Expect: 100-continue`.

    The interim `100 Continue` goes out at the app's first read (PEP 3333),
    so a body that the app refuses unread (a bad length, one over the cap)
    is never invited.
    """

    def __init__(self, rfile, wfile):
        self._rfile = rfile
        self._wfile = wfile

    def read(self, size=-1):
        if self._wfile is not None:
            self._wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self._wfile = None
        return self._rfile.read(size)


class _GatewayHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 in front of the server's WSGI app, one request at a time.

    The connection stays open until the client closes it or sends
    `Connection: close`, the request is not HTTP/1.1, the app answers
    `Connection: close` because it left the body unread, or the client
    stays silent for IDLE_TIMEOUT_S.  Every method reaches the app, so an
    unknown one gets the app's 405, not a 501.  A request target holding a
    byte outside ASCII never does: it gets a 400, and the connection closes.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # a reply's last partial segment goes out at once

    def setup(self):
        super().setup()
        self.connection.settimeout(IDLE_TIMEOUT_S)

    def handle_one_request(self):
        if self.server.closing:
            self.close_connection = True
            return
        try:
            self.raw_requestline = self.rfile.readline(65537)
            self.body_input = self.rfile
            if len(self.raw_requestline) > 65536:
                self.requestline = self.request_version = self.command = ""
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            elif not self.raw_requestline:
                self.close_connection = True
            elif not self.parse_request():
                pass  # parse_request has sent its own error reply
            elif not self.path.isascii():
                # http.server decodes the line as ISO-8859-1; RFC 9112 allows only ASCII
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "request target must be ASCII; percent-encode other bytes",
                )
            else:
                self._call_app()
        except TimeoutError:  # the client went silent: drop it without a reply
            self.close_connection = True

    def _call_app(self):
        path, _, query = self.path.partition("?")
        environ = {
            "REQUEST_METHOD": self.command,
            # still percent-encoded: the gateway decodes a path once, as UTF-8
            "PATH_INFO": path,
            "QUERY_STRING": query,
            # joined, so that duplicates fail the app's digits-only check
            "CONTENT_LENGTH": ",".join(self.headers.get_all("Content-Length", ())),
            "CONTENT_TYPE": self.headers.get("Content-Type", ""),
            "wsgi.input": self.body_input,
        }
        for name, value in self.headers.items():
            key = "HTTP_" + name.upper().replace("-", "_")
            value = value.strip()
            environ[key] = f"{environ[key]},{value}" if key in environ else value
        reply = []
        chunks = self.server.app(environ, lambda status, headers: reply.extend((status, headers)))
        status, headers = reply
        if ("Connection", "close") in headers or self.request_version != "HTTP/1.1":
            self.close_connection = True
        self._send(status, headers, b"" if self.command == "HEAD" else b"".join(chunks))

    def handle_expect_100(self):
        # http.server would answer 100 here, before the app has seen the length
        self.body_input = _ContinueOnRead(self.rfile, self.wfile)
        return True

    def _send(self, status: str, headers: list, body: bytes) -> None:
        # One write: a second small one would wait on the client's delayed ACK.
        head = [f"{self.protocol_version} {status}", f"Date: {self.date_time_string()}"]
        head += [f"{name}: {value}" for name, value in headers]
        if self.close_connection and ("Connection", "close") not in headers:
            head.append("Connection: close")
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)

    def send_error(self, code, message=None, explain=None):
        """Errors that http.server finds itself (request line, headers), in JSON."""
        self.close_connection = True
        phrase = HTTPStatus(code).phrase
        body = canonical_json({"message": message or phrase}).encode("utf-8")
        headers = [("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
        self._send(f"{code} {phrase}", headers, body)

    def log_message(self, format, *args):  # per-request noise off
        pass


class GatewayServer(ThreadingHTTPServer):
    """Serves the WSGI callable `app` with one thread per connection.

    `server_close` lets the requests in flight finish and ends every
    connection before it returns, so the app serves nothing after it and
    a store saved then holds every acknowledged write.
    """

    daemon_threads = False  # server_close joins them

    def __init__(self, address: tuple, app):
        self.app = app
        self.closing = False
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _GatewayHandler)

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
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """A resource store and a pure-function engine behind one HTTP API."""


@main.command()
@click.option("--bind", default=None, metavar="HOST:PORT", help="Listen address.")
@click.option(
    "--packages", default=None, metavar="A,B", help="Builtin packages to enable."
)
@click.option(
    "--store", "store_path", default=None, metavar="FILE", help="Persist resources here."
)
@click.option("--depth", default=None, type=int, help="Template nesting limit.")
@click.option("--max-bytes", default=None, type=int, help="Payload size limit.")
@click.option(
    "--check-purity", is_flag=True, default=False, help="Evaluate twice and compare."
)
@click.option(
    "--config",
    "config_path",
    default=None,
    metavar="FILE",
    help=f"JSON config file (or ${ENV_CONFIG}).",
)
def serve(bind, packages, store_path, depth, max_bytes, check_purity, config_path):
    """Run the gateway until interrupted."""
    try:
        file_values = None
        path = config_path or os.environ.get(ENV_CONFIG)
        if path:
            file_values = load_config_file(path)
        overrides = {}
        if bind is not None:
            overrides["host"], overrides["port"] = parse_bind(bind)
        if packages is not None:
            overrides["packages"] = [p.strip() for p in packages.split(",") if p.strip()]
        config = make_config(
            file_values,
            store_path=store_path,
            depth_limit=depth,
            max_bytes=max_bytes,
            check_purity=True if check_purity else None,
            **overrides,
        )
        bundle = build_app(config)
    except (FastError, OSError) as exc:
        _fail(str(getattr(exc, "message", exc)), 1)
    try:
        server = GatewayServer((config.host, config.port), bundle.gateway.wsgi_app)
    except OSError as exc:
        _fail(f"cannot bind {config.host}:{config.port}: {exc}", 1)
    click.echo(f"serving on http://{config.host}:{config.port}", err=True)
    click.echo(f"packages: {', '.join(bundle.machine.packages())}", err=True)
    if config.store_path:
        click.echo(f"store file: {config.store_path}", err=True)
    # SIGTERM (docker stop, systemd) takes the same path as Ctrl-C, so the store is flushed
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        click.echo("shutting down", err=True)
    finally:
        server.server_close()
        if config.store_path:
            bundle.store.save(config.store_path)
            click.echo(f"store flushed to {config.store_path}", err=True)


@main.command()
@click.argument("text")
@click.option("--server", default=DEFAULT_SERVER, metavar="URL", show_default=True)
def query(text, server):
    """Send a query-language string and print the JSON result."""
    url = server.rstrip("/") + "/query"
    try:
        response = requests.post(url, json={"q": text}, timeout=60)
    except requests.RequestException as exc:
        _fail(f"cannot reach {server}: {exc}", 2)
    try:
        payload = response.json()
    except ValueError:
        _fail(f"non-JSON response (HTTP {response.status_code})", 2)
    if response.status_code == 200:
        click.echo(json.dumps(payload, indent=2))
        return
    message = payload.get("message") if isinstance(payload, dict) else None
    _fail(
        message or f"HTTP {response.status_code}",
        1 if 400 <= response.status_code < 500 else 2,
    )


@main.command()
@click.argument("file", type=click.Path())
@click.option("--server", default=DEFAULT_SERVER, metavar="URL", show_default=True)
@click.option("--uri", required=True, metavar="/rest/...", help="Target resource URI.")
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
    try:
        response = requests.post(server.rstrip("/") + uri, json=value, timeout=60)
    except requests.RequestException as exc:
        _fail(f"cannot reach {server}: {exc}", 2)
    try:
        payload = response.json()
    except ValueError:
        _fail(f"non-JSON response (HTTP {response.status_code})", 2)
    if response.status_code == 200 and isinstance(payload, dict) and (
        payload.get("status") == "success"
    ):
        click.echo(f"seeded {uri}")
        return
    message = payload.get("message") if isinstance(payload, dict) else None
    _fail(
        message or f"HTTP {response.status_code}",
        1 if 400 <= response.status_code < 500 else 2,
    )


if __name__ == "__main__":
    main()
