"""fastgate: a mutable resource store and a pure-function engine behind one API.

Resources live under /rest/ URIs and are the only mutable state.
Functions live in registered packages, take JSON payloads, and are pure:
same inputs, same bytes out, no observable state change.  On top sit
`{{...}}` payload templates, a small query language, and an HTTP gateway
exposing all of it.
"""

from .builtin_packages import available_packages, register_builtins
from .config import AppBundle, Config, build_app, make_config
from .errors import FastError
from .http_gateway import Gateway, WireRequest, WireResponse
from .lambda_machine import FunctionRef, FunctionValue, LambdaMachine
from .query_language import QueryEngine, format_query, parse
from .rest_machine import ResourceStore, normalize_uri
from .template_resolver import TemplateResolver
from .values import Value, canonical_json

__version__ = "0.1.0"

__all__ = [
    "AppBundle",
    "Config",
    "FastError",
    "FunctionRef",
    "FunctionValue",
    "Gateway",
    "LambdaMachine",
    "QueryEngine",
    "ResourceStore",
    "TemplateResolver",
    "Value",
    "WireRequest",
    "WireResponse",
    "available_packages",
    "build_app",
    "canonical_json",
    "format_query",
    "make_config",
    "normalize_uri",
    "parse",
    "register_builtins",
    "__version__",
]
