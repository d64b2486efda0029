"""The HTTP/1.1 request reader over real sockets.

The reader parses each request head once and strictly (RFC 9112), and
frames the body itself.  The socket tests below pin the requests it
refuses, and a differential test sends the same raw bytes to it and to the
`http.server` transport it replaced, in front of the WSGI adapter that
framed the body then, both kept verbatim below, and compares status, body
and whether the connection closes.  The only differences allowed are the
ones the reader makes on purpose, listed in _CHANGED.
"""

import http.client
import json
import os
import random
import re
import socket
import struct
import sys
import threading
import time
from contextlib import suppress
from http import HTTPStatus
from http.client import responses as _REASONS
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import Optional
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fastgate import build_app, cli, http_gateway
from fastgate.errors import BadRequest, FastError, PayloadTooLarge
from fastgate.http_gateway import LARGE_BODY, WireRequest, _error
from fastgate.rest_machine import DEFAULT_MAX_BYTES
from fastgate.values import canonical_json
from fastgate.workers import WorkerPool

from test_rest_machine import Op, linearizable
from test_values import json_values
from test_workers import _app, _hand_offs

SOCKET_TIMEOUT_S = 5
IDLE_TIMEOUT_S = 60.0  # read by the copied handler below

# --- the transport at the parent commit, verbatim: http.server's handler
# with the overrides that fed the same WSGI app


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


# --- the WSGI adapter from before the reader framed the body, verbatim:
# `Gateway.wsgi_app` and `Gateway._read_body`, on today's `Gateway.handle`


class _OldAdapter:
    def __init__(self, gateway):
        self.handle = gateway.handle
        self.max_bytes = gateway.max_bytes

    def wsgi_app(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")  # case-sensitive (RFC 9110 9.1)
        path = environ.get("PATH_INFO", "/")
        # not verbatim: today's WireRequest carries the query string as read
        query = environ.get("QUERY_STRING", "")
        headers = [("Content-Type", "application/json")]
        try:
            body = self._read_body(environ)
        except FastError as exc:
            response = _error(exc.http_status, exc.message)
            # unread body bytes must not be parsed as the next request
            headers.append(("Connection", "close"))
        else:
            response = self.handle(
                WireRequest(
                    method,
                    path,
                    query,
                    body,
                    environ.get("CONTENT_TYPE", ""),
                )
            )
        payload = response.text.encode("utf-8")
        headers.append(("Content-Length", str(len(payload))))
        if response.allow:  # not verbatim: today's gateway names a 405's methods
            headers.append(("Allow", response.allow))
        reason = _REASONS.get(response.status, "Unknown")
        start_response(f"{response.status} {reason}", headers)
        return [payload]

    def _read_body(self, environ) -> Optional[bytes]:
        """The body framed by CONTENT_LENGTH (RFC 9112 section 6.3), None if empty.

        Anything but a decimal length is a 400, as is chunked framing; a
        length over the cap is a 413 and the body is never read.
        """
        if "HTTP_TRANSFER_ENCODING" in environ:
            raise BadRequest("Transfer-Encoding is not supported; send a Content-Length")
        text = environ.get("CONTENT_LENGTH") or "0"
        if not (text.isascii() and text.isdigit()):
            raise BadRequest("Content-Length must be a non-negative integer")
        length = int(text)
        if length > self.max_bytes:
            raise PayloadTooLarge(f"request body exceeds {self.max_bytes} bytes")
        if not length:
            return None
        body = environ["wsgi.input"].read(length)
        if len(body) < length:
            raise BadRequest("request body is shorter than its Content-Length")
        return body


# --- helpers


class _Served:
    """A server on a free localhost port, its own app, and a thread serving it.

    `old` puts the old transport and the old adapter in front of the app.
    """

    def __init__(self, old=False, workers=0):
        self.app = build_app()
        gateway = self.app.gateway
        if workers:  # forked before this server's thread starts
            gateway.workers = WorkerPool.fork(gateway, workers)
        if old:
            self.server = GatewayServer(("127.0.0.1", 0), _OldAdapter(gateway).wsgi_app)
        else:
            self.server = cli.GatewayServer(("127.0.0.1", 0), gateway)
        self.address = self.server.server_address
        serve = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)
        serve.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        if self.app.gateway.workers is not None:
            self.app.gateway.workers.close()


@pytest.fixture
def served():
    server = _Served()
    yield server
    server.close()


def _send(address, data: bytes) -> bytes:
    """Send raw bytes, close the sending half, and read until the server closes."""
    received = b""
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT_S) as sock:
        with suppress(OSError):  # a server that closed early may refuse the rest
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        with suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                received += chunk
    return received


def _replies(received: bytes) -> list:
    """(status line, headers without Date, body) for each reply, in order.

    A reply to HEAD has no body, so a status line where its body would start
    (never JSON) ends it; a 100 Continue has no Content-Length.
    """
    replies = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        headers.pop("Date", None)
        length = 0 if rest.startswith(b"HTTP/1.1 ") else int(headers.get("Content-Length", 0))
        replies.append((status, headers, rest[:length]))
        received = rest[length:]
    return replies


def _request(method="GET", target="/healthz", headers=(("Host", "t"),), body=b"",
             version="HTTP/1.1") -> bytes:
    lines = [f"{method} {target} {version}"] + [f"{name}: {value}" for name, value in headers]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


# answered only if the connection is still open after the requests before it
_PROBE = b"GET /healthz HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n"
_REFUSED = "HTTP/1.1 400 Bad Request"
_OK = "HTTP/1.1 200 OK"


# --- what the reader refuses: a JSON 400, and the connection closes


def _refused(served, data: bytes, message: str) -> None:
    body = canonical_json({"message": message}).encode()
    headers = {"Content-Type": "application/json", "Content-Length": str(len(body)),
               "Connection": "close"}
    # one reply: the probe after the refused request goes unread
    assert _replies(_send(served.address, data + _PROBE)) == [
        ("HTTP/1.1 400 Bad Request", headers, body)
    ]


def test_a_space_before_the_colon_cannot_smuggle_a_request(served):
    served.app.store.post_resource("/rest/victim", 1)
    smuggled = b"DELETE /rest/victim HTTP/1.1\r\nHost: t\r\n\r\n"
    head = b"POST /rest/carrier HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
    data = head + b"Content-Length : %d\r\n\r\n" % len(smuggled) + smuggled
    _refused(served, data, "malformed header field name")
    assert served.app.store.get_resource("/rest/victim") == 1  # the DELETE never ran
    assert served.app.store.canonical_dump() == '{"/rest/victim":1}'


def test_only_a_field_named_content_length_frames_a_body(served):
    # Content_Length maps to the same HTTP_ key, but a proxy that forwards it
    # frames no body, so the bytes after the head are the next request
    served.app.store.post_resource("/rest/victim", 1)
    smuggled = b"DELETE /rest/victim HTTP/1.1\r\nHost: t\r\n\r\n"
    head = b"POST /rest/carrier HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
    data = head + b"Content_Length: %d\r\n\r\n" % len(smuggled) + smuggled
    replies = _replies(_send(served.address, data + _PROBE))
    assert replies[0][2] == b'{"message":"a JSON body is required to store a resource"}'
    assert [reply[0] for reply in replies] == [
        "HTTP/1.1 400 Bad Request", "HTTP/1.1 200 OK", "HTTP/1.1 200 OK"
    ]
    assert served.app.store.canonical_dump() == "{}"  # the DELETE ran as its own request


def test_only_a_field_named_content_type_sets_the_content_type(served):
    head = b"POST /rest/typed HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n"
    data = head + b"Content_Type: application/x-www-form-urlencoded\r\n\r\n[1]"
    assert _replies(_send(served.address, data + _PROBE))[0][0] == "HTTP/1.1 200 OK"
    assert served.app.store.get_resource("/rest/typed") == [1]  # read as JSON, not a form


@pytest.mark.parametrize(
    "headers",
    [
        (("Content-Length", "1"),),
        (("Host", "a"), ("Content-Length", "1"), ("Host", "b")),
        (("Host", "a"), ("host", "a"), ("Content-Length", "1")),
    ],
    ids=["missing", "two", "two-same"],
)
def test_an_http11_request_needs_exactly_one_host(served, headers):
    data = _request("POST", "/rest/hosted", headers, b"1")
    _refused(served, data, "an HTTP/1.1 request needs exactly one Host")
    assert served.app.store.canonical_dump() == "{}"
    # HTTP/1.0 has no Host rule
    data = _request("POST", "/rest/hosted", headers, b"1", "HTTP/1.0")
    [reply] = _replies(_send(served.address, data))
    assert reply[0] == "HTTP/1.1 200 OK" and reply[1]["Connection"] == "close"


@pytest.mark.parametrize(
    "field",
    [b"X-Folded: a\r\n b", b"X-Folded: a\r\n\tb", b" X-Leading: a", b"X-Space : a",
     b"X-Tab\t: a", b"No colon", b": empty name", b"X(Paren): a", b"X-\xe9: a"],
    ids=["obs-fold", "obs-fold-tab", "leading-space", "space", "tab", "no-colon",
         "empty-name", "separator", "non-ascii"],
)
def test_a_field_name_that_is_not_a_token_is_refused(served, field):
    head = b"POST /rest/fielded HTTP/1.1\r\nHost: t\r\n"
    data = head + field + b"\r\nContent-Length: 1\r\n\r\n1"
    _refused(served, data, "malformed header field name")
    assert served.app.store.canonical_dump() == "{}"


@pytest.mark.parametrize("line", [b"GET /healthz", b"POST /rest/x"])
def test_a_two_word_request_line_is_refused(served, line):
    _refused(served, line + b"\r\n\r\n", f"Bad request syntax ({line.decode()!r})")


_HEAD = b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n"


@pytest.mark.parametrize("data, code, message", [
    ("HEAD /café HTTP/1.1\r\nHost: t\r\n\r\n".encode(), 400,
     "request target must be ASCII; percent-encode other bytes"),
    (b"HEAD /healthz HTTP/1.1\r\n\r\n", 400, "an HTTP/1.1 request needs exactly one Host"),
    (_HEAD + b"Transfer-Encoding: chunked\r\n\r\n", 400,
     "Transfer-Encoding is not supported; send a Content-Length"),
    (_HEAD + b"Content-Length: x\r\n\r\n", 400, "Content-Length must be a non-negative integer"),
    (_HEAD + b"Content-Length: 1000000000000\r\n\r\n", 413,
     f"request body exceeds {DEFAULT_MAX_BYTES} bytes"),
    (_HEAD + b"Content-Length: 500\r\n\r\n[1]", 400,
     "request body is shorter than its Content-Length"),
], ids=["non-ascii-target", "no-host", "chunked", "garbage-length", "oversized", "short-body"])
def test_a_refused_head_gets_no_body(served, data, code, message):
    length = len(canonical_json({"message": message}))
    headers = {"Content-Type": "application/json", "Content-Length": str(length),
               "Connection": "close"}
    # RFC 9110 section 9.3.2; and the probe after it goes unanswered
    assert _replies(_send(served.address, data + _PROBE)) == [
        (f"HTTP/1.1 {code} {HTTPStatus(code).phrase}", headers, b"")
    ]


def test_a_later_http1_minor_version_is_served_as_http11(served):
    replies = _replies(_send(served.address, _request(version="HTTP/1.2") + _PROBE))
    assert [reply[0] for reply in replies] == ["HTTP/1.1 200 OK", "HTTP/1.1 200 OK"]
    assert "Connection" not in replies[0][1]  # kept open, as for HTTP/1.1
    _refused(served, _request(headers=(), version="HTTP/1.2"),
             "an HTTP/1.1 request needs exactly one Host")


def test_a_reply_that_cannot_be_encoded_gets_the_fixed_500_on_a_live_connection(served, capsys):
    served.app.gateway.handle_query = lambda req: float("nan")  # no JSON for it
    replies = _replies(_send(served.address, _request(target="/query?q=1") + _PROBE))
    error = b'{"message":"internal server error"}'
    assert replies == [
        ("HTTP/1.1 500 Internal Server Error",
         {"Content-Type": "application/json", "Content-Length": str(len(error))}, error),
        # the same connection serves the next request
        ("HTTP/1.1 200 OK",
         {"Content-Type": "application/json", "Content-Length": "15", "Connection": "close"},
         b'{"status":"ok"}'),
    ]
    assert "ValueError: Out of range float values" in capsys.readouterr().err


def test_method_names_are_case_sensitive(served):
    served.app.store.post_resource("/rest/victim", 1)
    data = _request("delete", "/rest/victim") + _request("get", "/rest/victim") + _PROBE
    replies = _replies(_send(served.address, data))
    assert [reply[0] for reply in replies] == [
        "HTTP/1.1 405 Method Not Allowed", "HTTP/1.1 405 Method Not Allowed", "HTTP/1.1 200 OK"
    ]
    assert served.app.store.get_resource("/rest/victim") == 1


# --- HEAD, Allow and Connection options


@pytest.mark.parametrize(
    "target, status",
    [("/healthz", _OK), ("/rest/x", _OK), ("/rest/missing", "HTTP/1.1 404 Not Found")],
)
def test_head_gets_the_get_reply_without_its_body(served, target, status):
    # RFC 9110 sections 9.1 and 9.3.2
    served.app.store.post_resource("/rest/x", {"a": [1, 2.5], "b": "c"})
    close = (("Host", "t"), ("Connection", "close"))
    [get] = _replies(_send(served.address, _request("GET", target, close)))
    assert get[0] == status and int(get[1]["Content-Length"]) == len(get[2]) > 0
    received = _send(served.address, _request("HEAD", target, close))
    assert received.endswith(b"\r\n\r\n")  # the head alone, no body bytes after it
    assert _replies(received) == [(status, get[1], b"")]
    # and the connection stays in step for the next request
    replies = _replies(_send(served.address, _request("HEAD", target) + _PROBE))
    assert [reply[0] for reply in replies] == [status, _OK]
    assert not replies[0][2]


_POST_QUERY = "/query?q=Post+xs+to+%2Frest%2Fys"
_FAST_TO_URI = "/fast/pricer/price?to_uri=%2Frest%2Fout"


@pytest.mark.parametrize("method, target, allow, message", [
    ("POST", "/healthz", "GET, HEAD", "POST is not allowed here; use GET"),
    ("PUT", "/query", "GET, HEAD, POST", "PUT is not allowed here; use GET or POST"),
    ("PATCH", "/rest/x", "GET, HEAD, POST, PUT, DELETE",
     "PATCH is not allowed here; use GET or POST or PUT or DELETE"),
    ("delete", "/rest/x", "GET, HEAD, POST, PUT, DELETE",
     "delete is not allowed here; use GET or POST or PUT or DELETE"),
    ("DELETE", "/lambda/basic_arithmetic/add", "GET, HEAD, POST",
     "DELETE is not allowed here; use GET or POST"),
    ("PUT", "/fast/pricer?fns=price", "GET, HEAD, POST",
     "PUT is not allowed here; use GET or POST"),
    ("GET", _FAST_TO_URI, "POST", "posting a result to a URI requires POST"),
    ("HEAD", _FAST_TO_URI, "POST", None),
    ("GET", _POST_QUERY, "POST", "Post queries require POST"),
    ("HEAD", _POST_QUERY, "POST", None),
], ids=["healthz", "query", "rest", "rest-lower-case", "lambda", "fast", "fast-to-uri",
        "fast-to-uri-head", "post-query", "post-query-head"])
def test_every_405_carries_allow(served, method, target, allow, message):
    # RFC 9110 section 15.5.6; the message is the same as without the field
    status, headers, body = _replies(_send(served.address, _request(method, target) + _PROBE))[0]
    assert status == "HTTP/1.1 405 Method Not Allowed"
    assert headers["Allow"] == allow
    assert body == (canonical_json({"message": message}).encode() if message else b"")
    assert list(headers) == ["Content-Type", "Content-Length", "Allow"]
    assert served.app.store.canonical_dump() == "{}"


@pytest.mark.parametrize("connection", [
    (("Connection", "keep-alive, close"),),
    (("Connection", "Keep-Alive ,CLOSE"),),
    (("Connection", "x-a,close,x-b"),),
    (("Connection", "keep-alive"), ("connection", "close")),  # one list, two fields
], ids=["keep-alive-close", "any-case", "middle", "two-fields"])
def test_close_anywhere_in_the_connection_list_closes_after_the_reply(served, connection):
    # RFC 9112 section 9.6: the pipelined probe after it goes unanswered
    data = _request(headers=(("Host", "t"),) + connection)
    assert _replies(_send(served.address, data + _PROBE)) == [
        (_OK, {"Content-Type": "application/json", "Content-Length": "15",
               "Connection": "close"}, b'{"status":"ok"}'),
    ]


@pytest.mark.parametrize("connection", ["keep-alive", "closed", "keep-alive, x-close"])
def test_a_connection_list_without_close_keeps_the_connection(served, connection):
    data = _request(headers=(("Host", "t"), ("Connection", connection)))
    replies = _replies(_send(served.address, data + _PROBE))
    assert [reply[0] for reply in replies] == [_OK, _OK]
    assert "Connection" not in replies[0][1]


def _reset(sock) -> None:
    """Close `sock` with a TCP reset instead of a FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _wait_until_idle(served) -> None:
    """Wait until the server has finished with every connection it accepted."""
    deadline = time.monotonic() + SOCKET_TIMEOUT_S
    while served.server._connections:
        assert time.monotonic() < deadline, "a connection is still being served"
        time.sleep(0.01)


def _reset_between_requests(address) -> None:
    sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT_S)
    sock.sendall(_request())
    assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")
    _reset(sock)


def _reset_in_the_middle_of_a_body(address) -> None:
    headers = (("Host", "t"), ("Content-Length", "100"), ("Expect", "100-continue"))
    sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT_S)
    sock.sendall(_request("POST", "/rest/cut", headers))
    # the interim reply goes out when the app starts to read the body
    assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
    sock.sendall(b"[1, 2, 3")
    time.sleep(0.05)  # let the server read what was sent and wait for the rest
    _reset(sock)


@pytest.mark.parametrize("reset", [_reset_between_requests, _reset_in_the_middle_of_a_body])
def test_a_client_reset_ends_its_connection_quietly(served, capsys, reset):
    reset(served.address)
    _wait_until_idle(served)
    replies = _replies(_send(served.address, _PROBE))
    assert [reply[0] for reply in replies] == ["HTTP/1.1 200 OK"]
    _wait_until_idle(served)
    assert capsys.readouterr().err == ""
    assert served.app.store.canonical_dump() == "{}"


_IMF_FIXDATE = re.compile(
    rb"Date: (Mon|Tue|Wed|Thu|Fri|Sat|Sun), [0-9]{2} "
    rb"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) [0-9]{4} [0-9]{2}:[0-9]{2}:[0-9]{2} GMT"
)


def _dates(received: bytes) -> list:
    """The Date lines of each reply head in `received`, in order."""
    heads = [reply.partition(b"\r\n\r\n")[0]
             for reply in re.split(rb"(?=HTTP/1\.1 [0-9]{3} )", received) if reply]
    return [[line for line in head.split(b"\r\n") if line.lower().startswith(b"date:")]
            for head in heads]


def test_each_reply_carries_one_date_in_imf_fixdate_form(served):
    data = _request() + _request("PATCH") + b"GET /\r\n\r\n"
    received = _send(served.address, data)
    assert [reply[0] for reply in _replies(received)] == [
        "HTTP/1.1 200 OK", "HTTP/1.1 405 Method Not Allowed", "HTTP/1.1 400 Bad Request"
    ]
    dates = _dates(received)
    assert len(dates) == 3
    for lines in dates:
        assert len(lines) == 1 and _IMF_FIXDATE.fullmatch(lines[0]), lines


def test_the_date_changes_with_the_second(served, monkeypatch):
    now = [1_700_000_000.999]
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: now[0]))
    sock = socket.create_connection(served.address, timeout=SOCKET_TIMEOUT_S)
    with sock:
        sent = []
        for clock in (1_700_000_000.999, 1_700_000_000.001, 1_700_000_001.0):
            now[0] = clock
            sock.sendall(_request())
            sent.append(sock.recv(65536))
    assert [_dates(reply) for reply in sent] == [
        [[b"Date: Tue, 14 Nov 2023 22:13:20 GMT"]],
        [[b"Date: Tue, 14 Nov 2023 22:13:20 GMT"]],
        [[b"Date: Tue, 14 Nov 2023 22:13:21 GMT"]],
    ]


def test_the_date_line_is_what_formatdate_gives(served, monkeypatch):
    from email.utils import formatdate  # the reference; the server does not load email

    stamps = [0, 1, 1_709_208_000,  # the epoch; 29 February 2024
              1_735_689_599, 1_735_689_600,  # 23:59:59 on 31 December 2024, and a second on
              2**31 - 1, 2**31, 4_107_542_399,  # either side of 2038; 2100 is no leap year
              1_700_000_000.999]
    stamps += random.Random(5).sample(range(2**35), 200)
    for stamp in stamps:
        monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: stamp))
        assert served.server.date_line() == "Date: " + formatdate(stamp, usegmt=True), stamp


# --- the differential test against the old transport


@pytest.fixture(scope="module")
def pair():
    servers = _Served(), _Served(old=True)
    yield servers
    for served in servers:
        served.close()


def _both(pair, data: bytes, probe: bytes = _PROBE) -> tuple:
    """The replies of (the reader, the old transport) to `data` and then `probe`."""
    return tuple(_replies(_send(served.address, data + probe)) for served in pair)


_names = st.sampled_from(["X-A", "x-b", "X-Bench-Request-Id", "Accept", "User-Agent", "X_U",
                         "Content_Length", "content_type"])
_values = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e), max_size=12)
_json_bodies = st.sampled_from([b"", b"1", b"[1,2]", b'{"data":[3,4]}', b'{"q":"Get /rest/d/a"}',
                                b'"s"', b"[1,", b"\xff", b"a=1&b=2", b"q=Get+%2Frest%2Fd%2Fa"])
_targets = st.sampled_from([
    "/healthz", "/rest/d/a", "/rest/d/b", "/rest/d/?children=true", "/rest/d%2Fa",
    "/lambda/basic_arithmetic/add", "/lambda/basic_arithmetic/add?a=1&b=2",
    "/lambda/add?data=[1,2]", "/query", "/query?q=Get+%2Frest%2Fd%2Fa", "/nowhere", "/",
    "/fast/pricer?fns=price", "/lambda/basic_arithmetic/divide?a=1&b=0",
])


@st.composite
def _valid_requests(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    body = draw(_json_bodies)
    headers = [("Host", "t")] if version == "HTTP/1.1" or draw(st.booleans()) else []
    headers += draw(st.lists(st.tuples(_names, _values), max_size=3))
    if body or draw(st.booleans()):
        headers.append((draw(st.sampled_from(["Content-Length", "content-length"])),
                        str(len(body))))
    content_type = draw(st.sampled_from(
        [None, "application/json", "application/x-www-form-urlencoded", "text/plain"]))
    if content_type:
        headers.append(("Content-Type", content_type))
    connection = draw(st.sampled_from([None, None, "close", "Close", "keep-alive"]))
    if connection:
        headers.append(("Connection", connection))
    if version == "HTTP/1.1" and body and draw(st.booleans()):
        headers.append(("Expect", "100-continue"))
    draw(st.randoms()).shuffle(headers)
    return _request(method, draw(_targets), headers, body, version)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests=st.lists(_valid_requests(), min_size=1, max_size=3))
def test_valid_requests_get_the_same_replies(pair, requests):
    new, old = _both(pair, b"".join(requests))
    assert new == old


# documented malformed framings, and heads both transports read alike
_MALFORMED = {
    "negative-length": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n",
    "garbage-length": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
    "duplicate-length": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n"
                        b"Content-Length: 1\r\n\r\n1",
    "oversized": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000000000\r\n\r\n",
    "oversized-expect": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                        b"Content-Length: 999999999\r\n\r\n",
    "chunked": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n1\r\n",
    # Transfer_Encoding names the same HTTP_TRANSFER_ENCODING key, so both
    # transports refuse it as they refuse Transfer-Encoding
    "chunked-underscore": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nTransfer_Encoding: chunked\r\n\r\n"
                          b"1\r\n1\r\n",
    "chunked-lower-case": b"POST /rest/f HTTP/1.1\r\nHost: t\r\ntransfer-encoding: chunked\r\n\r\n"
                          b"1\r\n1\r\n",
    "short-body": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: 500\r\n\r\n[1]",
    "nonsense": b"NONSENSE\r\n\r\n",
    "four-words": b"GET / x HTTP/1.1\r\nHost: t\r\n\r\n",
    "bad-version": b"GET / HTTP/x\r\nHost: t\r\n\r\n",
    "bad-version-digits": b"GET / HTTP/1.1.1\r\nHost: t\r\n\r\n",
    "long-version": b"GET / HTTP/1.12345678901\r\nHost: t\r\n\r\n",
    "http2": b"GET / HTTP/2.0\r\nHost: t\r\n\r\n",
    "http09-three-words": b"GET /healthz HTTP/0.9\r\n\r\n",
    "non-ascii-target": "POST /rest/crème HTTP/1.1\r\nHost: t\r\n\r\n".encode(),
    "non-ascii-query": "GET /healthz?a=é HTTP/1.1\r\nHost: t\r\n\r\n".encode(),
    "long-request-line": b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\nHost: t\r\n\r\n",
    "long-header-line": b"GET / HTTP/1.1\r\nHost: t\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
    "too-many-headers": b"GET / HTTP/1.1\r\nHost: t\r\n" + b"X-N: 1\r\n" * 100 + b"\r\n",
    "99-headers": b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + b"X-N: 1\r\n" * 98 + b"\r\n",
    "blank-line": b"\r\n",
    "nothing": b"",
    "bare-lf": b"GET /healthz HTTP/1.1\nHost: t\n\n",
    "unknown-method": b"BREW /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    "body-on-get": b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n[]",
    "underscore-length": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                         b"Content_Length: 41\r\n\r\nDELETE /rest/f HTTP/1.1\r\nHost: t\r\n\r\n",
    "underscore-and-length": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent_Length: 2\r\n"
                             b"Content-Length: 3\r\n\r\n[1]",
    "underscore-type": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n"
                       b"Content_Type: text/plain\r\n\r\n[1]",
    "two-types": b"POST /rest/f HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n"
                 b"Content-Type: application/json\r\nContent-Type: text/plain\r\n\r\n[1]",
    "latin-1-value": b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-A: caf\xe9\r\n\r\n",
}


@pytest.mark.parametrize("data", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_framing_gets_the_same_replies(pair, data):
    new, old = _both(pair, data)
    assert new == old
    if data.endswith(b"\r\n\r\n") and b"Host" in data:  # pipelined after a good request
        new, old = _both(pair, _request() + data)
        assert new == old


def test_a_head_cut_short_by_the_client_gets_the_same_replies(pair):
    for data in (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", b"GET /healthz HTTP/1.1\r\n"
                 b"Host: t\r\nContent-Length: 2\r\n\r\n[", b"GET /healthz HTTP/1.0"):
        new, old = _both(pair, data, probe=b"")
        assert new == old


# the differences the reader makes on purpose: (old transport's replies as
# status lines, the reader's).  Each runs on a fresh pair of stores.
_CHANGED = {
    # a field name that is not a token: the old parser dropped the line, or
    # every line after it, so the body was read as the next request
    "space-before-colon": (
        b"POST /rest/c HTTP/1.1\r\nHost: t\r\nContent-Length : 41\r\n\r\n"
        b"DELETE /rest/victim HTTP/1.1\r\nHost: t\r\n\r\n",
        [_REFUSED, _OK, _OK], [_REFUSED],
    ),
    "obs-fold": (
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-A: a\r\n b\r\n\r\n", [_OK, _OK], [_REFUSED],
    ),
    "no-colon": (b"GET /healthz HTTP/1.1\r\nHost: t\r\nNo colon\r\n\r\n", [_OK, _OK], [_REFUSED]),
    # RFC 9112 section 3.2
    "no-host": (b"GET /healthz HTTP/1.1\r\n\r\n", [_OK, _OK], [_REFUSED]),
    "two-hosts": (b"GET /healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", [_OK, _OK], [_REFUSED]),
    # HTTP/0.9: one reply with the connection closed, or a 400, then; a 400 now
    "http09-get": (b"GET /healthz\r\n\r\n", [_OK], [_REFUSED]),
    "http09-post": (b"POST /rest/x\r\n\r\n", [_REFUSED], [_REFUSED]),
    # http.server's open-redirect guard rewrote //path to /path
    "double-slash": (b"GET //healthz HTTP/1.1\r\nHost: t\r\n\r\n", [_OK, _OK],
                     ["HTTP/1.1 404 Not Found", _OK]),
    # a later HTTP/1.x minor is served as 1.1 and keeps the connection open
    "http12": (b"GET /healthz HTTP/1.2\r\nHost: t\r\n\r\n", [_OK], [_OK, _OK]),
    # a refused HEAD: the old transport sent the JSON body of its 400, and
    # let a HEAD with no Host reach the app; the reader sends no body
    "head-non-ascii-target": ("HEAD /café HTTP/1.1\r\nHost: t\r\n\r\n".encode(),
                              [_REFUSED], [_REFUSED]),
    # (HEAD is served as GET now, so the old transport's HEAD /healthz gets a 200)
    "head-no-host": (b"HEAD /healthz HTTP/1.1\r\n\r\n", [_OK, _OK], [_REFUSED]),
    # Connection is a list of options (RFC 9112 section 9.6): http.server
    # closed only on a value of exactly `close`, and served the probe
    "connection-list": (
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n",
        [_OK, _OK], [_OK],
    ),
}


@pytest.mark.parametrize("data, old_statuses, new_statuses", _CHANGED.values(),
                         ids=_CHANGED.keys())
def test_the_reader_differs_only_where_it_means_to(data, old_statuses, new_statuses):
    pair = _Served(), _Served(old=True)
    try:
        for served in pair:
            served.app.store.post_resource("/rest/victim", 1)
        new, old = _both(pair, data)
        assert [reply[0] for reply in old] == old_statuses
        assert [reply[0] for reply in new] == new_statuses
        if data.startswith(b"HEAD"):
            assert not new[0][2]
        # the reader never lets the smuggled DELETE run
        assert pair[0].app.store.get_resource("/rest/victim") == 1
    finally:
        for served in pair:
            served.close()


# --- the boundaries add nothing: a request drawn from the worker corpus's
# grammar gets the same reply in process, over a socket and in a worker


@pytest.fixture(scope="module")
def three_ways(tmp_path_factory):
    """(in-process app, app with one worker, served app), one kept-alive
    connection to the served app as (socket, reader), and the seed's store
    file; each app holds the worker corpus's seed, and a book of LARGE_BODY
    bytes or more at _BIG, and takes bodies a little over LARGE_BODY."""
    if not hasattr(os, "fork"):
        pytest.skip("workers need os.fork")
    local, pooled, served = (_app(False, max_bytes=2 * LARGE_BODY) for _ in range(3))
    local.store.post_resource(_BIG, [[90 + k % 7, 0.5, 100.25, 0.2] for k in range(1000)])
    assert len(local.store.get_text(_BIG)) >= LARGE_BODY
    pooled.gateway.workers = WorkerPool.fork(pooled.gateway, 1)  # before the server's thread
    server = cli.GatewayServer(("127.0.0.1", 0), served.gateway)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    seed = str(tmp_path_factory.mktemp("seed") / "store.json")
    local.store.save(seed)
    sock = socket.create_connection(server.server_address, timeout=SOCKET_TIMEOUT_S)
    reader = sock.makefile("rb")
    try:
        yield (local, pooled, served), (sock, reader), seed
    finally:
        reader.close()
        sock.close()
        server.shutdown()
        server.server_close()
        pooled.gateway.workers.close()


_CONTROL = {
    "uri": ["/rest/xs", "/rest/book", "/rest/tpl", "/rest/a%25b", "/rest/missing", "/rest/a%FF"],
    "data": [[[1, 2], [3.5, 4]], [1, -2, 3], [[100, 1, 100, 0.2]], "{{/rest/x}}"],
    "to_uri": ["/rest/out", "/rest/out%25put", "/rest/xs"],
    "fns": [["price", "delta"], "price"],
    "q": ["Map add from basic_arithmetic on xs", "Reduce add from basic_arithmetic on [1, 2]",
          "Post Map add from basic_arithmetic on xs to /rest/s", "Filter positive from pred on xs",
          "Map (Apply add on 2) from higher_order_arithmetic on [3, 4]", "Get book", "Map add on"],
}
_CALLS = ["/lambda/basic_arithmetic/add", "/lambda/pricer/price", "/lambda/pred/positive",
          "/lambda/higher_order_arithmetic/add", "/lambda/pricer/gamma", "/fast/pricer",
          "/fast/basic_arithmetic/add", "/lambda/pricer/get_value"]
_BIG = "/rest/big"  # the seed's one stored text of LARGE_BODY bytes or more
# the two ways an apply call parses it: the fetched payload, or a free
# argument's template (no uri or data may shadow it)
_BIG_READS = [{"uri": _BIG}, {"stock_portfolio": "{{%s}}" % _BIG}]
_RESOURCES = ["/rest/w/new", "/rest/xs", "/rest/a%25b"]
_FORM = "application/x-www-form-urlencoded"


@st.composite
def _corpus_requests(draw, heavy=False):
    """A request of the worker corpus's grammar: a route, a method, control
    fields from any JSON value (or one the seed makes meaningful) sent as a
    JSON body, a query string or a form, and a JSON body padded to about
    LARGE_BODY bytes.  A `heavy` one reaches the pooled app's worker unless
    it is refused first: a data-parallel call, once its map, reduce or
    filter runs over an array, an apply call that parses the stored text at
    _BIG, or a call or resource write whose body holds LARGE_BODY bytes or
    more."""
    path = draw(st.sampled_from(_CALLS + _RESOURCES + ([] if heavy else ["/query", "/healthz"])))
    write = path.startswith("/rest/")
    if heavy:
        method = draw(st.sampled_from(("POST", "PUT") if write else ("GET", "POST")))
    else:  # mostly a method that the route answers
        answered = ("GET", "POST", "PUT", "DELETE") if write else ("GET", "POST")
        method = draw(st.sampled_from(answered * 3 + ("HEAD", "PATCH")))
    to_do = st.sampled_from(["map", "reduce", "filter"])
    reads = {}
    if heavy and not write and draw(st.booleans()):
        to_do = st.sampled_from(["apply", ""])
        reads = draw(st.sampled_from(_BIG_READS))
    if not heavy:
        to_do = to_do | st.sampled_from(["apply", "Map"]) | json_values
    fields = draw(st.fixed_dictionaries({"to_do": to_do}, optional={
        name: st.sampled_from(values) | json_values for name, values in _CONTROL.items()
    }))
    if reads:
        fields.pop("uri", None)
        fields.pop("data", None)
        fields.update(reads)
    carriers = ["json", "value", "query", "form"]
    if heavy:
        carriers = ["json", "value"] if write else ["json", "query", "form"]
    carrier = draw(st.sampled_from(carriers))
    query, body, content_type = "", None, "application/json"
    text = urlencode({k: v if isinstance(v, str) else json.dumps(v) for k, v in fields.items()})
    if carrier == "query":
        query = text
    elif carrier == "form":
        body, content_type = text.encode(), _FORM
    else:
        body = json.dumps(fields if carrier == "json" else draw(json_values)).encode()
        sizes = [0, LARGE_BODY - 1] if not heavy else []
        size = draw(st.sampled_from(sizes + [LARGE_BODY, LARGE_BODY + 1]))
        body = b" " * (size - len(body)) + body  # JSON allows the leading blanks
    return WireRequest(method, path, query, body, content_type)


def _over_the_socket(connection, req: WireRequest) -> tuple:
    """(status, body text, Allow) of `req` sent on the kept-alive
    `connection`; for a HEAD, the Content-Length its reply announces in
    place of the body it must leave out."""
    sock, reader = connection
    target = req.path + ("?" + req.query if req.query else "")
    body = req.body or b""
    head = (f"{req.method} {target} HTTP/1.1\r\nHost: t\r\nContent-Type: {req.content_type}"
            f"\r\nContent-Length: {len(body)}\r\n\r\n")
    sock.sendall(head.encode("ascii") + body)
    version, status, phrase = reader.readline().decode("latin-1").rstrip("\r\n").split(" ", 2)
    fields = dict(line.decode("latin-1").rstrip("\r\n").split(": ", 1)
                  for line in iter(reader.readline, b"\r\n"))
    assert (version, phrase) == ("HTTP/1.1", HTTPStatus(int(status)).phrase)
    assert fields["Content-Type"] == "application/json" and "Connection" not in fields
    length = int(fields["Content-Length"])
    text = length if req.method == "HEAD" else reader.read(length).decode("utf-8")
    return int(status), text, fields.get("Allow", "")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(requests=st.lists(_corpus_requests(), max_size=2), heavy=_corpus_requests(heavy=True),
       at=st.integers(0, 2))
def test_a_socket_and_a_worker_answer_as_the_gateway_does_in_process(
    three_ways, requests, heavy, at
):
    apps, connection, seed = three_ways
    for app in apps:
        app.store.load(seed)
    local, pooled, _ = apps
    requests.insert(at, heavy)  # each example goes to the worker, unless refused first
    for req in requests:
        response = local.gateway.handle(req)
        expected = response.status, response.text, response.allow
        assert pooled.gateway.handle(req) == response, req
        if req.method == "HEAD":
            expected = expected[0], len(response.text.encode("utf-8")), expected[2]
        assert _over_the_socket(connection, req) == expected, req
    assert len({app.store.canonical_dump() for app in apps}) == 1
    assert len(pooled.gateway.workers) == 1  # no request killed the worker


# --- per-URI linearizability over the wire


def test_rest_is_linearizable_per_uri_over_keep_alive_connections(served):
    _check_linearizable(served)


def test_rest_is_linearizable_per_uri_when_writes_run_in_a_worker(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("workers need os.fork")
    # every POST body reaches LARGE_BODY, so a POST that finds the one worker
    # idle runs there, while GETs and DELETEs, which are not writes, run here
    monkeypatch.setattr(http_gateway, "LARGE_BODY", 1)
    served = _Served(workers=1)
    try:
        handed = _hand_offs(served.app.gateway.workers, monkeypatch)
        _check_linearizable(served)
        assert handed and {req.method for req in handed} == {"POST"}
        assert len(served.app.gateway.workers) == 1
    finally:
        served.close()


def _check_linearizable(served):
    rng = random.Random(11)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the server's threads finely
    try:
        for round_no in range(30):
            uris = [f"/rest/wire/{round_no}/{k}" for k in range(2)]
            n_clients = rng.randint(2, 5)
            plans = [
                [(rng.choice(("GET", "POST", "DELETE")), rng.choice(uris)) for _ in range(8)]
                for _ in range(n_clients)
            ]
            histories = {uri: [] for uri in uris}
            start = threading.Barrier(n_clients, timeout=SOCKET_TIMEOUT_S)
            failures = []

            def client(tid, plan):
                conn = http.client.HTTPConnection(*served.address, timeout=SOCKET_TIMEOUT_S)
                try:
                    conn.connect()
                    start.wait()
                    for seq, (method, uri) in enumerate(plan):
                        body = None
                        if method == "POST":
                            body = canonical_json([tid, seq, list(range(20))])
                        call = time.perf_counter_ns()
                        conn.request(method, uri, body, {"Content-Type": "application/json"})
                        response = conn.getresponse()
                        text = response.read().decode()
                        ret = time.perf_counter_ns()
                        status = response.status
                        if method == "POST":
                            assert status == 200
                            op = Op(call, ret, method, body)
                        elif method == "GET":
                            assert status in (200, 404)
                            op = Op(call, ret, method, text if status == 200 else None)
                        else:
                            assert status in (200, 404)
                            op = Op(call, ret, method, None, ok=status == 200)
                        histories[uri].append(op)  # list.append is atomic
                except Exception as exc:  # reported by the main thread
                    failures.append(exc)
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=client, args=(tid, plan))
                for tid, plan in enumerate(plans)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(SOCKET_TIMEOUT_S)
                assert not thread.is_alive()
            assert failures == []
            assert sum(map(len, histories.values())) == 8 * n_clients
            for uri, history in histories.items():
                assert linearizable(history), (uri, history)
    finally:
        sys.setswitchinterval(switch)


# --- the client commands' one POST helper


def test_seed_percent_encodes_a_uri_outside_ascii(served, tmp_path, capsys):
    path = tmp_path / "value.json"
    path.write_text("[1]")
    url = "http://%s:%d/" % served.address
    cli.main(["seed", str(path), "--uri", "café/1", "--server", url])
    assert capsys.readouterr().out == "seeded /rest/café/1\n"
    assert served.app.store.get_resource("/rest/café/1") == [1]


def test_seed_sends_question_marks_and_hashes_as_part_of_the_uri(served, tmp_path, capsys):
    path = tmp_path / "value.json"
    path.write_text("2")
    url = "http://%s:%d" % served.address
    cli.main(["seed", str(path), "--uri", "a#b%20c", "--server", url])
    assert served.app.store.canonical_dump() == '{"/rest/a#b c":2}'
    # the server refuses the `?`: it is not read as the start of a query string
    with pytest.raises(SystemExit) as exit:
        cli.main(["seed", str(path), "--uri", "a?b", "--server", url])
    assert exit.value.code == 1
    err = capsys.readouterr().err
    assert "error: resource URI may not contain a query string: /rest/a?b" in err


@pytest.mark.parametrize("server", ["127.0.0.1:1", "ftp://127.0.0.1:1", "http://127.0.0.1:x"])
def test_a_server_url_that_is_not_http_exits_2(server, capsys):
    with pytest.raises(SystemExit) as exit:
        cli.main(["query", "Get x", "--server", server])
    assert exit.value.code == 2
    assert f"error: cannot reach {server}" in capsys.readouterr().err
