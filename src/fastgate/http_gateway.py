"""The single API surface in front of both machines.

Routes:
    /rest/*                 resource store (GET, POST, PUT, DELETE)
    /lambda/<m>/<f>         pure call; one segment means a unique bare name
    /fast/<m>[/<f>]         compute then optionally post the result to a URI
    /query                  the query language carrier
    /healthz                liveness

HEAD is served wherever GET is, as that GET: the transport sends the
reply's status and headers and leaves the body out (RFC 9110 section 9.3.2).

Everything speaks JSON.  Error bodies are {"message": ...} with status
drawn from {400, 404, 405, 413, 422, 500}; 200 bodies are the bare result.
A 405 also carries the route's methods for the reply's `Allow` field
(RFC 9110 section 15.5.6).
The core handler is transport-free.  It percent-decodes the request path
once, as UTF-8 (`rest_machine.decode_uri`, which answers a malformed escape
with a 400), so the allow hook, the router and the store see one form.
A request carries its query string as the transport read it; the handler
reads it, and a form body, with `rest_machine.decode_params`, which decodes
each name and value as a path is, so a bad escape there is a 400 too.
It also encodes each reply's canonical JSON text, once, inside its guard:
a reply that cannot be encoded gets the fixed 500.  A resource GET sends
the stored text as is, neither parsed nor re-encoded, and a wire POST body
is validated once, when it is parsed.
`wsgi_app` is its one transport adapter: it takes PATH_INFO and
QUERY_STRING still percent-encoded and a body that the server has already
framed.
`reply_head` is the one place a reply's status line text, its header fields
(Content-Type, Content-Length and a 405's Allow) and its body bytes are
made, for the gateway's replies and the reader's refusals alike.
`cli.GatewayServer` serves a `Gateway` over HTTP/1.1 with persistent
connections: it reads each request head and body once, strictly
(RFC 9112), refuses a body over `max_bytes` unread, and calls `wsgi_app`.
An unexpected exception answers a fixed 500 message and logs its traceback
to stderr.

A heavy request goes to an idle process of `workers`, a
`workers.WorkerPool`, when it has one; `Gateway._hand_off` states when a
request is heavy and why handing it off midway is exact.  The worker gets
the request as the transport built it and runs `handle` on it.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, replace
from http import HTTPStatus
from typing import Callable, Optional

from .errors import (
    BadRequest,
    FastError,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    UnserializableResult,
)
from .lambda_machine import FunctionHandle, FunctionRef, FunctionValue
from .query_language import PostTo, parse
from .rest_machine import DEFAULT_MAX_BYTES, decode_params, decode_uri, normalize_uri
from .values import Value, canonical_json, loads_strict, parse_scalar

RESERVED_PARAMS = frozenset({"data", "uri", "to_do", "to_uri", "fns", "q"})

# the size from which a body or a stored text makes a request heavy; see
# `Gateway._hand_off`
LARGE_BODY = 16 * 1024

_ABSENT = object()

_FNS_PUNCTUATION = str.maketrans("", "", "[]()'\"")

# http.client.responses, built here so the server does not load an HTTP client
_REASONS = {status.value: status.phrase for status in HTTPStatus}


@dataclass
class WireRequest:
    """A request as the transport read it: the path and the query string
    still percent-encoded, the body as framed."""

    method: str
    path: str
    query: str = ""
    body: Optional[bytes] = None
    content_type: str = ""


@dataclass
class WireResponse:
    """A reply: its status, its body's canonical JSON text and, for a 405,
    the value of its Allow field."""

    status: int
    text: str
    allow: str = ""

    @property
    def body(self) -> Value:
        """The body as a value, parsed afresh from the text."""
        return json.loads(self.text)


def _error(status: int, message: str, allow: str = "") -> WireResponse:
    return WireResponse(status, canonical_json({"message": message}), allow)


def internal_error() -> WireResponse:
    """The fixed 500, which names nothing of the failure."""
    return _error(500, "internal server error")


def reply_head(response: WireResponse) -> tuple:
    """(status text, header fields, body bytes) of a reply, which is JSON."""
    body = response.text.encode("utf-8")
    headers = [("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
    if response.allow:
        headers.append(("Allow", response.allow))
    return f"{response.status} {_REASONS.get(response.status, 'Unknown')}", headers, body


class _HandOff(Exception):
    """Raised for a request that an idle worker takes; `handle` sends it."""

    def __init__(self, worker):
        super().__init__()
        self.worker = worker


class Gateway:
    """Dispatches wire requests to the machines behind one surface.

    `allow` is the security hook point: a callback (method, path) -> bool;
    denied requests answer 404 so the route's existence is not revealed.
    It sees a HEAD as the GET that answers it.

    `workers`, None or a `workers.WorkerPool`, runs heavy requests (see
    `_hand_off`).
    """

    def __init__(
        self,
        store,
        machine,
        resolver,
        engine,
        max_bytes: int = DEFAULT_MAX_BYTES,
        allow: Optional[Callable[[str, str], bool]] = None,
    ):
        self.store = store
        self.machine = machine
        self.resolver = resolver
        self.engine = engine
        self.max_bytes = max_bytes
        self.allow = allow
        self.workers = None
        store.before_parse = lambda text: self._hand_off(len(text) >= LARGE_BODY)
        machine.before_loop = lambda: self._hand_off(True)

    # --- entry points

    def handle(self, req: WireRequest) -> WireResponse:
        wire = req  # what a worker gets: path and query still percent-encoded, HEAD still HEAD
        try:
            if req.body is not None and len(req.body) > self.max_bytes:
                raise PayloadTooLarge(f"request body exceeds {self.max_bytes} bytes")
            if "%" in req.path:  # decoded once, so allow, router and store agree
                req = replace(req, path=decode_uri(req.path))
            if req.method == "HEAD":  # served as its GET, which the allow hook sees too
                req = replace(req, method="GET")
            if self.allow is not None and not self.allow(req.method, req.path):
                raise NotFound("Not found")
            result = self._route(req)
            if isinstance(result, WireResponse):  # a stored value's text, sent as is
                return result
            return WireResponse(200, canonical_json(result))
        except _HandOff as hand_off:
            return self.workers.call(hand_off.worker, wire)
        except FastError as exc:
            return _error(exc.http_status, exc.message, exc.allow)
        except Exception:  # last-resort guard: the traceback goes to stderr, not the client
            traceback.print_exc()
            return internal_error()

    def wsgi_app(self, environ, start_response):
        """The WSGI entry that `cli.GatewayServer` calls.

        It trusts the environ that server builds: CONTENT_LENGTH is a checked
        decimal within the cap, and `wsgi.input` holds exactly that many bytes.
        """
        method = environ.get("REQUEST_METHOD", "GET")  # case-sensitive (RFC 9110 9.1)
        path = environ.get("PATH_INFO", "/")
        query = environ.get("QUERY_STRING", "")
        length = int(environ.get("CONTENT_LENGTH") or 0)
        body = environ["wsgi.input"].read(length) if length else None
        status, headers, payload = reply_head(
            self.handle(WireRequest(method, path, query, body, environ.get("CONTENT_TYPE", "")))
        )
        start_response(status, headers)
        return [payload]

    # --- routing

    def _route(self, req: WireRequest) -> Value | WireResponse:
        path = req.path
        if path == "/healthz":
            self._require_method(req, ("GET",))
            return {"status": "ok"}
        if path == "/query":
            self._require_method(req, ("GET", "POST"))
            return self.handle_query(req)
        if path.startswith("/rest/"):
            self._require_method(req, ("GET", "POST", "PUT", "DELETE"))
            return self.handle_rest(req)
        if path.startswith("/lambda/"):
            self._require_method(req, ("GET", "POST"))
            return self.handle_lambda(req)
        if path.startswith("/fast/"):
            self._require_method(req, ("GET", "POST"))
            return self.handle_fast(req)
        raise NotFound("Not found")

    @staticmethod
    def _require_method(req: WireRequest, allowed: tuple) -> None:
        if req.method not in allowed:
            raise MethodNotAllowed(
                f"{req.method} is not allowed here; use {' or '.join(allowed)}",
                ", ".join(allowed).replace("GET", "GET, HEAD"),  # HEAD is served as GET
            )

    # --- handlers

    def handle_rest(self, req: WireRequest) -> Value | WireResponse:
        if req.method == "GET":
            if decode_params(req.query).get("children") in ("true", "1"):
                return self.store.list_children(req.path)
            return WireResponse(200, self.store.get_text(req.path))
        if req.method == "DELETE":
            return self.store.delete_resource(req.path)
        self._hand_off(req.body is not None and len(req.body) >= LARGE_BODY)
        body = self._json_body(req)
        if body is _ABSENT:
            raise BadRequest("a JSON body is required to store a resource")
        if isinstance(body, dict) and set(body) == {"data"}:
            body = body["data"]  # unwrap the {"data": ...} envelope
        # loads_strict validated the body, and the envelope only adds depth
        return self.store.post_resource(req.path, body, validated=True)

    def handle_lambda(self, req: WireRequest) -> Value:
        handle = self.machine.resolve_path(req.path)  # a 404 before the arguments are read
        if handle is None:
            raise NotFound("Not found")
        params, body = self._call_arguments(req)
        to_do = self._to_do(params, body)
        return self._run_wire(handle, to_do, self._argument_payload(params, body))

    def handle_fast(self, req: WireRequest) -> Value:
        segments = [seg for seg in req.path[len("/fast/") :].split("/") if seg]
        if not segments or len(segments) > 2:
            raise NotFound("Not found")
        module = segments[0]
        params, body = self._call_arguments(req)
        fn_names = self._fns_list(self._control(params, body, "fns"))
        to_uri = self._control_uri(params, body, "to_uri")
        if to_uri is not None and req.method != "POST":
            raise MethodNotAllowed("posting a result to a URI requires POST", "POST")
        if len(segments) == 2 and fn_names:
            raise BadRequest("give either a function segment or fns, not both")
        if len(segments) == 1 and not fn_names:
            raise BadRequest("fns is required when the path names no function")
        if to_uri is None and not fn_names:
            raise BadRequest("to_uri is required when calling a single function")
        to_do = self._to_do(params, body)
        payload = self._argument_payload(params, body)
        if fn_names:
            result: Value = {}
            for name in dict.fromkeys(fn_names):  # pure calls: each distinct name runs once
                handle = self.machine.lookup(FunctionRef(module, name))
                result[name] = self._run_wire(handle, to_do, payload)
        else:
            handle = self.machine.lookup(FunctionRef(module, segments[1]))
            result = self._run_wire(handle, to_do, payload)
        if to_uri is None:
            return result
        self.store.post_resource(normalize_uri(to_uri), result)
        return {"status": "success", "to_uri": to_uri}

    def handle_query(self, req: WireRequest) -> Value:
        text = self._control(*self._call_arguments(req), "q")
        if text is None or text == "":
            raise BadRequest('missing query parameter "q"')
        expr = parse(text)  # a 400 for a q that is not a string
        if isinstance(expr, PostTo) and req.method != "POST":
            raise MethodNotAllowed("Post queries require POST", "POST")
        return self.engine.evaluate(expr)

    # --- request plumbing

    def _hand_off(self, heavy: bool) -> None:
        """Raise _HandOff with an idle worker for a heavy request, if there
        is one; else return, and the request runs on this thread.  A
        worker's gateway has no workers, so there it always returns.

        A request goes to a worker at one of three points, each just before
        the work it guards: before it decodes a `/rest` write body of at
        least LARGE_BODY bytes, before it parses a stored text of at least
        LARGE_BODY bytes (the store's `before_parse`), and before a map,
        reduce or filter runs over an array (the machine's `before_loop`).
        A request refused before any of them is answered here.  A wire GET,
        a child listing and a DELETE parse no stored text, so they never
        hand off.

        The worker runs the request again from the start, and dropping what
        ran here is exact: it was only reads and pure calls, since every
        write of a request comes after all of its reads and runs (`to_uri`,
        a query's top-level Post ... to, or the `/rest` write itself)."""
        if heavy and self.workers is not None:
            worker = self.workers.idle()
            if worker is not None:
                raise _HandOff(worker)

    def _json_body(self, req: WireRequest):
        """The parsed JSON body, _ABSENT when there is none or it is a form."""
        if not req.body or self._is_form(req):
            return _ABSENT
        return loads_strict(self._body_text(req), what="request body")

    @staticmethod
    def _is_form(req: WireRequest) -> bool:
        return req.content_type.split(";")[0].strip().lower() == (
            "application/x-www-form-urlencoded"
        )

    @staticmethod
    def _body_text(req: WireRequest) -> str:
        try:
            return req.body.decode("utf-8")
        except UnicodeDecodeError:
            raise BadRequest("request body is not valid UTF-8") from None

    def _call_arguments(self, req: WireRequest) -> tuple[dict, Value]:
        """One parse of a call: (params, body).

        params are the query params with a form-encoded body folded in (the
        form wins); body is the decoded JSON body, _ABSENT for none or a form.
        """
        params = decode_params(req.query)
        if req.body and self._is_form(req):
            params.update(decode_params(self._body_text(req)))
        return params, self._json_body(req)

    @staticmethod
    def _control(params: dict, body, name: str):
        """A control field (`uri`, `to_uri`, `to_do`, `fns` or `q`): a JSON body
        object's `name`, else the query or form param; None for none."""
        if isinstance(body, dict) and name in body:
            return body[name]
        return params.get(name)

    def _control_uri(self, params: dict, body, name: str) -> str | None:
        """A URI control field; null is none, any other non-string a 400."""
        uri = self._control(params, body, name)
        if uri is not None and not isinstance(uri, str):
            raise BadRequest(f"{name} must be a resource URI string")
        return uri

    def _argument_payload(self, params: dict, body) -> Value:
        """The payload for a lambda-style call.

        A "uri" control field (any non-string but null is a 400) wins: the
        payload is the fetched resource, and no inline form is read.
        Otherwise the argument priority is: JSON body object (its "data"
        key, else its free keys) > list or scalar body > "data" param >
        free query params.  The final payload passes through the template
        resolver; a fetched one only when its stored text holds a template.
        """
        uri = self._control_uri(params, body, "uri")
        if uri is not None:
            return self.resolver.fetch(uri)
        data = _ABSENT
        if isinstance(body, dict):
            if "data" in body:
                data = body["data"]
            else:
                free = {k: v for k, v in body.items() if k not in RESERVED_PARAMS}
                if free:
                    data = free
        elif body is not _ABSENT:
            data = body
        if data is _ABSENT:
            if "data" in params:
                data = loads_strict(params["data"], what="data parameter")
            else:
                free = {
                    k: parse_scalar(v)
                    for k, v in params.items()
                    if k not in RESERVED_PARAMS
                }
                data = free
        return self.resolver.resolve(data)

    def _to_do(self, params: dict, body) -> Value:
        """The `to_do` control field, apply when it is none or empty; a value
        that names no combinator gets its 400 from `LambdaMachine.run`."""
        to_do = self._control(params, body, "to_do")
        return "apply" if to_do is None or to_do == "" else to_do

    def _run_wire(self, handle: FunctionHandle, to_do: Value, payload: Value) -> Value:
        result = self.machine.run(handle, to_do, payload)
        if isinstance(result, FunctionValue):
            raise UnserializableResult(
                "the result is a function value and cannot be returned over the wire"
            )
        return result

    @staticmethod
    def _fns_list(raw) -> list[str]:
        """fns as a list of names: a JSON array, or a string of comma-separated
        names with optional brackets and quotes ("a,b", '["a","b"]', "('a',)").

        Function names hold no brackets or quotes, so dropping them and
        splitting on commas reads every string form.
        """
        if raw is None or (isinstance(raw, str) and not raw.strip()):
            return []
        if isinstance(raw, str):
            raw = [name.strip() for name in raw.translate(_FNS_PUNCTUATION).split(",")]
        if (
            not isinstance(raw, list)
            or not raw
            or any(not isinstance(name, str) or not name for name in raw)
        ):
            raise BadRequest("fns must be a non-empty list of function names")
        return raw
