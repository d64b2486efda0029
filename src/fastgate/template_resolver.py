"""Server-side `{{...}}` substitution inside argument payloads.

A template body is a path starting with /rest/ (fetch the resource) or
/lambda/ (apply a function to its query-string arguments), read once the
path is percent-decoded: `{{/rest%2Fx}}` reads /rest/x, as `GET /rest%2Fx`
does, and `{{/rest/a%FF}}` is refused, as that GET is (`decode_uri`).  The
arguments of a /lambda/ ref are read as a wire query string is
(`decode_params`), so `?a=%FF` is refused too.  A string leaf that is
exactly one template becomes the typed result; a template embedded in a
longer string is substituted as JSON text (strings verbatim).  A backslash
immediately before "{{" makes the braces literal.

Resolution runs innermost-first: templates inside a body are substituted
before the body is parsed, and templates inside a fetched result are
resolved in turn.  Every hop down such a chain consumes one unit of the
depth budget, so reference cycles terminate with DepthExceeded.

A stored value whose canonical text holds no "{{" is used as is, unwalked.
That is exact: the text escapes no "{" (it is ASCII-only JSON, which spells
only control and non-ASCII characters as escapes), JSON syntax never
puts "{{" outside a string, and only a string holding "{{" can change.
"""

from __future__ import annotations

import json

from .errors import DepthExceeded, InvalidValue, MalformedTemplate, UnserializableResult
from .lambda_machine import FunctionValue
from .rest_machine import decode_params, decode_uri
from .values import Value, canonical_json, parse_scalar

DEFAULT_DEPTH_LIMIT = 8

_OPEN = "{{"
_CLOSE = "}}"
_ESCAPED_OPEN = "\\{{"


def _find_spans(text: str) -> list[tuple[int, int]]:
    """Top-level template spans as (index of "{{", index one past "}}"),
    honoring the backslash escape.

    Nested "{{" inside a span must balance; an unterminated opener is an
    error.  A "}}" with no opener is literal text.  The search jumps from one
    "{{" or "}}" to the next; a backslash before a "{{" always escapes it,
    since no token it could belong to ends in a backslash.
    """
    spans = []
    i = 0
    while (start := text.find(_OPEN, i)) >= 0:
        i = start + 2
        if text[start - 1 : start] == "\\":
            continue
        depth = 1
        close = -1
        while depth:
            if close < i:
                close = text.find(_CLOSE, i)
                if close < 0:
                    raise MalformedTemplate(
                        f"unbalanced braces: template opened at index {start} never closes"
                    )
            opener = text.find(_OPEN, i, close)
            if opener < 0:
                depth -= 1
                i = close + 2
            else:
                if text[opener - 1] != "\\":  # an escaped "{{" does not nest
                    depth += 1
                i = opener + 2
        spans.append((start, i))
    return spans


def _unescape(text: str) -> str:
    return text.replace(_ESCAPED_OPEN, _OPEN)


def _parse_ref(body: str) -> tuple[str, str, str]:
    """(kind, path, query) of a template body.  Split the query off, decode
    the path once and read the kind from the decoded path, as the wire does
    (RFC 3986 section 2.4).  A /rest/ ref carries its whole body decoded, so
    the store refuses a query in it; a /lambda/ ref carries the decoded path
    and the raw query."""
    raw = body.strip()
    if not raw:
        raise MalformedTemplate("empty template body")
    raw_path, _, query = raw.partition("?")
    path = decode_uri(raw_path)
    if path.startswith("/rest/"):
        return "rest", decode_uri(raw), ""
    if path.startswith("/lambda/"):
        return "lambda", path, query
    raise MalformedTemplate(
        f"template body must start with /rest/ or /lambda/, got {canonical_json(raw)}"
    )


class TemplateResolver:
    """Binds the substitution pass to a resource store and a lambda machine."""

    def __init__(self, store, machine, depth_limit: int = DEFAULT_DEPTH_LIMIT):
        if depth_limit < 1:
            raise InvalidValue(f"depth limit must be >= 1, got {depth_limit}")
        self.store = store
        self.machine = machine
        self.depth_limit = depth_limit

    def resolve(self, payload: Value) -> Value:
        try:
            return self._walk(payload, self.depth_limit)
        except RecursionError:
            # a budget larger than the interpreter's stack runs out of stack first
            raise DepthExceeded("template nesting is too deep to resolve") from None

    def fetch(self, uri: str) -> Value:
        """The value stored at `uri`, decoded once, with its templates resolved."""
        value, templated = self._load(decode_uri(uri))
        return self.resolve(value) if templated else value

    def _load(self, key: str) -> tuple[Value, bool]:
        """The value stored at the decoded `key` and whether its text holds
        "{{", from one read, so a concurrent write cannot pair one value
        with another's answer."""
        text = self.store.get_text(key)
        self.store.before_parse(text)
        return json.loads(text), _OPEN in text

    def _walk(self, value: Value, depth: int) -> Value:
        if isinstance(value, str):
            return self._resolve_text(value, depth)
        if isinstance(value, list):
            return [self._walk(item, depth) for item in value]
        if isinstance(value, dict):
            return {key: self._walk(item, depth) for key, item in value.items()}
        return value

    def _resolve_text(self, text: str, depth: int) -> Value:
        spans = _find_spans(text)
        if not spans:
            return _unescape(text)
        if len(spans) == 1:
            start, end = spans[0]
            if not text[:start].strip() and not text[end:].strip():
                # the leaf is exactly one template: substitute the typed value
                return self._dispatch(text[start + 2 : end - 2], depth)
        pieces = []
        cursor = 0
        for start, end in spans:
            pieces.append(_unescape(text[cursor:start]))
            result = self._dispatch(text[start + 2 : end - 2], depth)
            pieces.append(result if isinstance(result, str) else canonical_json(result))
            cursor = end
        pieces.append(_unescape(text[cursor:]))
        return "".join(pieces)

    def _dispatch(self, body: str, depth: int) -> Value:
        """The typed value of one template body, its own templates resolved."""
        if depth < 1:
            raise DepthExceeded(
                f"template nesting exceeds the depth limit of {self.depth_limit}"
            )
        # inner templates resolve before the body is parsed
        resolved_body = self._resolve_text(body, depth - 1)
        if not isinstance(resolved_body, str):
            # a body that was itself one whole template yielded a typed value;
            # only string bodies can be parsed as references
            raise MalformedTemplate("template body did not resolve to text")
        kind, path, query = _parse_ref(resolved_body)
        if kind == "rest":
            value, templated = self._load(path)
            return self._walk(value, depth - 1) if templated else value
        handle = self.machine.resolve_path(path)
        if handle is None:
            raise MalformedTemplate(
                f"lambda template path needs one or two segments, got {canonical_json(path)}"
            )
        # names never hold whitespace, and hand-written refs often pad around "="
        args = {
            name.strip(): parse_scalar(raw.strip())
            for name, raw in decode_params(query).items()
        }
        result = self.machine.bind_and_call(handle, args)
        if isinstance(result, FunctionValue):
            raise UnserializableResult(
                "template resolved to a function value, which cannot be spliced"
            )
        return self._walk(result, depth - 1)
