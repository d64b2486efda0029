"""Exception hierarchy shared by every engine.

Each error carries the HTTP status the gateway maps it to, so the
status table stays in one place and is exhaustively testable.
"""


class FastError(Exception):
    """Base class for all gateway-visible errors."""

    http_status = 500
    allow = ""  # the reply's Allow field, which only a 405 sets

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


# --- 400: the client sent something malformed

class InvalidValue(FastError):
    http_status = 400


class InvalidUri(FastError):
    http_status = 400


class MalformedTemplate(FastError):
    http_status = 400


class BadRequest(FastError):
    http_status = 400


class AmbiguousFunction(FastError):
    http_status = 400


class ParseError(FastError):
    """Query text rejected at an offset, which its message ends with."""

    http_status = 400

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# --- 404

class NotFound(FastError):
    http_status = 404


class ModuleNotAvailable(FastError):
    http_status = 404


class FunctionNotFound(FastError):
    http_status = 404


# --- 405 / 413

class MethodNotAllowed(FastError):
    """Carries the route's methods for the reply's Allow field."""

    http_status = 405

    def __init__(self, message: str, allow: str):
        super().__init__(message)
        self.allow = allow


class PayloadTooLarge(FastError):
    http_status = 413


# --- 422: the request parsed but cannot bind to the target function

class ArityMismatch(FastError):
    http_status = 422


class UnknownParameter(FastError):
    http_status = 422


# --- 500: evaluation failures

class DomainError(FastError):
    http_status = 500


class NoSolution(DomainError):
    pass


class EmptyReduce(FastError):
    http_status = 500


class NotAnArray(FastError):
    http_status = 500


class DepthExceeded(FastError):
    http_status = 500


class UnserializableResult(FastError):
    http_status = 500


class PurityViolation(FastError):
    http_status = 500


class DuplicatePackage(FastError):
    http_status = 500
