"""The declarative query language: parser, printer, and evaluator.

Grammar (normative):

    query      := [verb] expr ["to" URI]
    verb       := "Get" | "Post"          (Post requires the "to" clause)
    expr       := combExpr | simpleCall | operand
    simpleCall := NAME "for" binding ("and" binding)*
    binding    := NAME "=" literal
    combExpr   := COMB fnList ["from" NAME] "on" operand
    COMB       := "Apply" | "Map" | "Reduce" | "Filter"
    fnList     := fnItem ("," fnItem)* | "[" fnItem ("," fnItem)* "]"
    fnItem     := NAME | "(" expr ")"
    operand    := NAME | URI | literal | combExpr | JSONVALUE
    literal    := number | quoted string | "true" | "false" | "null"

Keywords are case-insensitive and reserved.  A bare NAME operand denotes
the resource /rest/<NAME>; a URI operand (or "to" target) must be an
explicit /rest/ path once percent-decoded.  "from" scopes function-name
resolution over the whole function list, parenthesized items included,
but not the operand.  Reduce and filter take exactly one function; a
batched (multi-function) list is legal for map and apply and its items
must be plain names.  Combinators nest at most MAX_DEPTH deep.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import DomainError, ParseError, UnserializableResult
from .lambda_machine import COMBINATORS, FunctionRef, FunctionValue
from .rest_machine import decode_uri, normalize_uri
from .values import DECODER, MAX_DEPTH, Value, canonical_json, validate_value

_CONSTANTS = {"true": True, "false": False, "null": None}
KEYWORDS = {"get", "post", "to", "for", "and", "from", "on", *COMBINATORS, *_CONSTANTS}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_URI_RE = re.compile(r"/[^\s,()\[\]]+")


# --- AST


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class ResourceRef:
    uri: str


@dataclass(frozen=True)
class SimpleCall:
    function: str
    bindings: dict


@dataclass(frozen=True)
class CombExpr:
    comb: str
    fns: tuple  # of NAME strings and/or QueryExpr nodes
    module: Optional[str]
    operand: "QueryExpr"


@dataclass(frozen=True)
class PostTo:
    inner: "QueryExpr"
    target: str


QueryExpr = Union[Literal, ResourceRef, SimpleCall, CombExpr, PostTo]


# --- parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # combinators open around the current position

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self._ws()
        return self.pos >= len(self.text)

    def peek_char(self) -> str:
        self._ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def peek_name(self) -> Optional[str]:
        self._ws()
        match = _NAME_RE.match(self.text, self.pos)
        return match.group() if match else None

    def peek_keyword(self) -> Optional[str]:
        name = self.peek_name()
        if name is not None and name.lower() in KEYWORDS:
            return name.lower()
        return None

    def take_name(self, what: str) -> str:
        self._ws()
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def try_keyword(self, keyword: str) -> bool:
        if self.peek_keyword() == keyword:
            self.take_name(keyword)
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.try_keyword(keyword):
            raise self.error(f"expected {keyword!r}")

    def try_punct(self, char: str) -> bool:
        if self.peek_char() == char:
            self.pos += 1
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.try_punct(char):
            raise self.error(f"expected {char!r}")

    def json_value(self) -> Value:
        self._ws()
        try:
            value, end = DECODER.raw_decode(self.text, self.pos)
        except ValueError as exc:
            raise self.error(f"invalid JSON value: {exc}") from None
        except RecursionError:
            raise self.error(f"JSON value exceeds nesting depth {MAX_DEPTH}") from None
        validate_value(value, what="query literal")
        self.pos = end
        return value

    def parse_uri(self, what: str) -> str:
        """The URI's raw text, which evaluation decodes; its /rest/ prefix
        is read once decoded, so /rest%2Fx names /rest/x, as on the wire, and
        a malformed escape such as /rest/a%FF is an InvalidUri here."""
        self._ws()
        match = _URI_RE.match(self.text, self.pos)
        if not match:
            raise self.error(f"expected {what}")
        uri = match.group()
        if not decode_uri(uri).startswith("/rest/"):
            raise self.error(f"{what} must start with /rest/, got {canonical_json(uri)}")
        self.pos = match.end()
        return uri

    # productions

    def parse_query(self) -> QueryExpr:
        if self.at_end():
            raise self.error("empty query")
        verb = None
        keyword = self.peek_keyword()
        if keyword in ("get", "post"):
            self.take_name(keyword)
            verb = keyword
        expr = self.parse_operand(calls=True)
        target = None
        if self.try_keyword("to"):
            if verb != "post":
                raise self.error("a 'to' clause requires the Post verb")
            target = self.parse_uri("target URI")
        if verb == "post" and target is None:
            raise self.error("Post requires a 'to' clause")
        if not self.at_end():
            raise self.error("unexpected trailing input")
        if target is not None:
            return PostTo(expr, target)
        return expr

    def parse_bindings(self, function: str) -> SimpleCall:
        bindings = {}
        while True:
            key = self.take_name("parameter name")
            if key.lower() in KEYWORDS:
                raise self.error(f"{canonical_json(key)} is a reserved word, not a parameter name")
            self.expect_punct("=")
            bindings[key] = self.parse_binding_literal()
            if not self.try_keyword("and"):
                break
        return SimpleCall(function, bindings)

    def parse_binding_literal(self) -> Value:
        char = self.peek_char()
        if char == '"' or char == "-" or char.isdigit():
            return self.json_value()
        keyword = self.peek_keyword()
        if keyword in _CONSTANTS:
            self.take_name(keyword)
            return _CONSTANTS[keyword]
        raise self.error("expected a literal")

    def parse_comb(self) -> CombExpr:
        start = self.pos
        if self.depth == MAX_DEPTH:
            raise self.error(f"combinators nest deeper than {MAX_DEPTH}")
        self.depth += 1
        comb = self.take_name("combinator").lower()
        fns = self.parse_fn_list()
        module = None
        if self.try_keyword("from"):
            module = self.take_name("module name")
            if module.lower() in KEYWORDS:
                raise self.error(f"{canonical_json(module)} is a reserved word, not a module name")
        self.expect_keyword("on")
        operand = self.parse_operand()
        if comb in ("reduce", "filter") and len(fns) != 1:
            raise ParseError(f"{comb} takes exactly one function, got {len(fns)}", start)
        if len(fns) > 1 and not all(isinstance(fn, str) for fn in fns):
            raise ParseError("batched function lists take plain names only", start)
        self.depth -= 1
        return CombExpr(comb, tuple(fns), module, operand)

    def parse_fn_list(self) -> list:
        bracketed = self.try_punct("[")
        items = [self.parse_fn_item()]
        while self.try_punct(","):
            items.append(self.parse_fn_item())
        if bracketed:
            self.expect_punct("]")
        return items

    def parse_fn_item(self):
        if self.try_punct("("):
            inner = self.parse_operand(calls=True)
            self.expect_punct(")")
            return inner
        name = self.peek_name()
        if name is None or name.lower() in KEYWORDS:
            raise self.error("expected a function name")
        return self.take_name("function name")

    def parse_operand(self, calls: bool = False) -> QueryExpr:
        """An operand; with `calls`, an expr, where a name followed by `for`
        is a simpleCall rather than the resource of that name."""
        if self.at_end():
            raise self.error("unexpected end of input")
        char = self.peek_char()
        if char in '[{"' or char == "-" or char.isdigit():
            return Literal(self.json_value())
        if char == "/":
            return ResourceRef(self.parse_uri("operand URI"))
        keyword = self.peek_keyword()
        if keyword in COMBINATORS:
            return self.parse_comb()
        if keyword in _CONSTANTS:
            self.take_name(keyword)
            return Literal(_CONSTANTS[keyword])
        name = self.peek_name()
        if name is not None and name.lower() not in KEYWORDS:
            self.take_name("name")
            if calls and self.try_keyword("for"):
                return self.parse_bindings(name)
            return ResourceRef(f"/rest/{name}")
        raise self.error("expected an operand")


def parse(text: str) -> QueryExpr:
    """Parse a query string into its AST; raises ParseError with a position."""
    if not isinstance(text, str):
        raise ParseError("query must be a string", 0)
    return _Parser(text).parse_query()


# --- printer


def _is_bare_name(segment: str) -> bool:
    return bool(_NAME_RE.fullmatch(segment)) and segment.lower() not in KEYWORDS


def format_query(expr: QueryExpr) -> str:
    """Render an AST back to query text; parse(format_query(e)) == e."""
    if isinstance(expr, PostTo):
        return f"Post {format_query(expr.inner)} to {expr.target}"
    if isinstance(expr, Literal):
        return json.dumps(expr.value)
    if isinstance(expr, ResourceRef):
        tail = expr.uri[len("/rest/") :]
        if _is_bare_name(tail):
            return tail
        return expr.uri
    if isinstance(expr, SimpleCall):
        bound = " and ".join(
            f"{name}={json.dumps(value)}" for name, value in expr.bindings.items()
        )
        return f"{expr.function} for {bound}"
    if isinstance(expr, CombExpr):
        items = ", ".join(
            item if isinstance(item, str) else f"({format_query(item)})"
            for item in expr.fns
        )
        text = f"{expr.comb.capitalize()} [{items}]"
        if expr.module is not None:
            text += f" from {expr.module}"
        return f"{text} on {format_query(expr.operand)}"
    raise TypeError(f"not a query expression: {expr!r}")


# --- evaluator

_UNSERIALIZABLE_QUERY_RESULT = "query result is a function value and cannot be serialized"


class QueryEngine:
    """Evaluates query ASTs against a lambda machine and a resource store."""

    def __init__(self, machine, store):
        self.machine = machine
        self.store = store

    def run(self, text: str) -> Value:
        return self.evaluate(parse(text))

    def evaluate(self, expr: QueryExpr) -> Value:
        result = self._eval(expr, None)
        if isinstance(result, FunctionValue):
            raise UnserializableResult(_UNSERIALIZABLE_QUERY_RESULT)
        return result

    def _eval(self, expr: QueryExpr, module_ctx: Optional[str]):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ResourceRef):
            return self.store.get_resource(normalize_uri(expr.uri))
        if isinstance(expr, SimpleCall):
            handle = self.machine.resolve_unique(expr.function)
            return self.machine.bind_and_call(handle, dict(expr.bindings))
        if isinstance(expr, CombExpr):
            return self._eval_comb(expr, module_ctx)
        if isinstance(expr, PostTo):
            value = self._eval(expr.inner, module_ctx)
            if isinstance(value, FunctionValue):
                raise UnserializableResult(
                    "cannot post a function value to a resource"
                )
            return self.store.post_resource(normalize_uri(expr.target), value)
        raise TypeError(f"not a query expression: {expr!r}")

    def _eval_comb(self, expr: CombExpr, module_ctx: Optional[str]):
        scope = expr.module if expr.module is not None else module_ctx
        if len(expr.fns) == 1:
            target = self._resolve_fn(expr.fns[0], scope)
            return self.machine.run(target, expr.comb, self._eval(expr.operand, module_ctx))
        # a batched list holds plain names (the parser sees to it), and calls
        # are pure, so each distinct name runs once
        names = list(dict.fromkeys(expr.fns))
        targets = [self._resolve_fn(name, scope) for name in names]
        operand = self._eval(expr.operand, module_ctx)
        if expr.comb == "apply":
            batch = {
                name: self.machine.run(target, "apply", operand)
                for name, target in zip(names, targets)
            }
            # a member is not a top-level result, so no exit guard would see it
            if any(isinstance(item, FunctionValue) for item in batch.values()):
                raise UnserializableResult(_UNSERIALIZABLE_QUERY_RESULT)
            return batch
        columns = [self.machine.run(target, "map", operand) for target in targets]
        return [
            {name: column[i] for name, column in zip(names, columns)}
            for i in range(len(operand))
        ]

    def _resolve_fn(self, item, scope: Optional[str]):
        if isinstance(item, str):
            if scope is not None:
                return self.machine.lookup(FunctionRef(scope, item))
            return self.machine.resolve_unique(item)
        value = self._eval(item, scope)
        if not isinstance(value, FunctionValue):
            raise DomainError(
                "a parenthesized function item must evaluate to a function"
            )
        return value
