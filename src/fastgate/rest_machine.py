"""The resource engine: a URI-addressed store of mutable values.

This is the only mutable state in the system.  Every URI lives under
/rest/, maps to at most one value, and POST is an upsert.  Each URI holds
its value's canonical JSON text, computed once when the value is posted.
A wire GET sends that text as is; a template, query or `uri=` read
parses a fresh value from it.  Text is immutable, so no reader can change
what another sees.  Reads never block each other; writes swap whole
entries so a concurrent read observes either the old or the new value,
never a partial one.
`decode_uri` is the one percent-decoder of URI text, for the wire path,
templates, queries and `uri`/`to_uri`.  It refuses malformed escapes
rather than replacing them, so two texts name one key only when they spell
the same bytes (`%25` for a literal "%").  `decode_params` reads
`name=value` text (a query string, a form body, a template's arguments)
with it.
A worker process's store keeps its own key checks and NotFound, but its
entries are a mapping that sends each read and write of a key to the
server's store (see `workers`), so the server's entries are the only ones.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from urllib.parse import unquote

from .errors import InvalidUri, NotFound, PayloadTooLarge
from .values import MAX_DEPTH, Value, canonical_json, loads_strict, validate_value

DEFAULT_MAX_BYTES = 1024 * 1024

SUCCESS = {"status": "success"}

RESOURCE_NOT_FOUND = "Resource not found"


def decode_uri(text: str) -> str:
    """Percent-decode URI text once, strictly: every "%" starts two hex
    digits (RFC 3986 section 2.1) and the bytes spell UTF-8, so texts that
    spell different bytes never decode to one name, as they would if bad
    bytes became U+FFFD.  Anything else is an InvalidUri."""
    if "%" not in text:
        return text
    if re.search("%(?![0-9A-Fa-f]{2})", text) is None:
        try:
            return unquote(text, errors="strict")
        except UnicodeDecodeError:
            pass
    raise InvalidUri(f"URI is not percent-encoded UTF-8: {text}")


def decode_params(text: str) -> dict[str, str]:
    """Read `name=value` text: fields split on "&" (empty ones dropped), "+"
    read as a space, each field split at its first "=" (none: an empty
    value), each name and value decoded by `decode_uri`; a repeated name
    keeps its last value.  Where the escapes spell UTF-8 it reads what
    urllib.parse reads, keeping blank values; where they do not, urllib
    keeps a bad escape or makes its bytes U+FFFD, and this is an InvalidUri."""
    params = {}
    for field in text.replace("+", " ").split("&"):
        if field:
            name, _, value = field.partition("=")
            params[decode_uri(name)] = decode_uri(value)
    return params


def check_key(key: str) -> str:
    """Check a decoded resource URI, the form that keys the store: under
    /rest/, with no query string, template braces or empty segments."""
    if not isinstance(key, str):
        raise InvalidUri(f"resource URI must be a string, got {type(key).__name__}")
    if "?" in key:
        raise InvalidUri(f"resource URI may not contain a query string: {key}")
    # single braces too: they are reserved for templates and invalid in URIs
    if "{" in key or "}" in key:
        raise InvalidUri(f"resource URI may not contain template braces: {key}")
    if not key.startswith("/rest/"):
        raise InvalidUri(f"resource URI must start with /rest/: {key}")
    segments = key[len("/rest/"):].split("/")
    if any(seg == "" for seg in segments):
        raise InvalidUri(f"resource URI may not contain empty segments: {key}")
    return key


class ResourceStore:
    """Decoded URI (`check_key`) -> canonical JSON text, per-URI linearizable.

    `_entries` is the one seam: any mapping read and written by key serves
    `get_text` and `put_text`, so a test can count reads and a worker can
    send them to the server.  The other methods need the dict.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        # sees each stored text that a template, query or `uri` read is
        # about to parse; a gateway sets it to hand a long one to a worker
        self.before_parse = lambda text: None

    def get_resource(self, uri: str) -> Value:
        """Return a fresh copy of the stored value, or raise NotFound."""
        text = self.get_text(uri)
        self.before_parse(text)
        return json.loads(text)  # validated when it was posted

    def get_text(self, uri: str) -> str:
        """Return the stored canonical JSON text, or raise NotFound."""
        key = check_key(uri)
        try:
            return self._entries[key]  # dict lookup is atomic
        except KeyError:
            raise NotFound(RESOURCE_NOT_FOUND) from None

    def post_resource(self, uri: str, value: Value, *, validated: bool = False) -> dict:
        """Create or replace the entry (upsert); returns a success status.

        `validated` says the caller has run `validate_value` over `value`
        already, as `loads_strict` does for a wire body, so it is not walked
        twice.  Computed results, which can nest deeper, leave it False.
        """
        key = check_key(uri)
        if not validated:
            validate_value(value)
        text = canonical_json(value)  # ASCII, so its length is its size in bytes
        if len(text) > self.max_bytes:
            raise PayloadTooLarge(f"payload exceeds {self.max_bytes} bytes")
        self.put_text(key, text)
        return dict(SUCCESS)

    def put_text(self, key: str, text: str) -> None:
        """Store the canonical text of a value `post_resource` has checked
        under its checked key: that method's last step, and how the
        server's store applies a write that a worker process sends."""
        with self._lock:
            self._entries[key] = text

    def delete_resource(self, uri: str) -> dict:
        key = check_key(uri)
        with self._lock:
            if key not in self._entries:
                raise NotFound(RESOURCE_NOT_FOUND)
            del self._entries[key]
        return dict(SUCCESS)

    def list_children(self, uri: str) -> list[str]:
        """All stored URIs strictly below `uri` at a segment boundary, sorted."""
        prefix = check_key(uri) + "/"
        with self._lock:
            keys = list(self._entries)
        return sorted(k for k in keys if k.startswith(prefix))

    def canonical_dump(self) -> str:
        """The whole store as the canonical JSON of a URI-keyed object."""
        with self._lock:
            entries = sorted(self._entries.items())
        return "{" + ",".join(canonical_json(k) + ":" + v for k, v in entries) + "}"

    def save(self, path: str) -> None:
        """Write the store to a UTF-8 JSON file, atomically and durably."""
        data = self.canonical_dump()
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        # the rename is durable only once the directory entry is synced
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def load(self, path: str) -> None:
        """Replace the store contents from a JSON file written by save()."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        # the URI object is one level above the entries, each posted at most MAX_DEPTH deep
        data = loads_strict(raw, what=f"store file {path}", depth=MAX_DEPTH + 1)
        if not isinstance(data, dict):
            raise InvalidUri(f"store file {path} must hold a JSON object keyed by URI")
        entries = {check_key(uri): canonical_json(value) for uri, value in data.items()}
        with self._lock:
            self._entries = entries
