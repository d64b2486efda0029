import pytest
from hypothesis import example, given, settings, strategies as st

from fastgate.builtin_packages import register_builtins
from fastgate.errors import (
    DepthExceeded,
    InvalidValue,
    MalformedTemplate,
    NotFound,
    UnserializableResult,
)
from fastgate.lambda_machine import LambdaMachine
from fastgate.rest_machine import ResourceStore
from fastgate.template_resolver import TemplateResolver, _find_spans


@pytest.fixture
def env():
    store = ResourceStore()
    machine = LambdaMachine()
    register_builtins(machine)
    resolver = TemplateResolver(store, machine)
    return store, resolver


def test_scan_finds_lambda_refs_with_args(env):
    _, resolver = env
    # the arguments' names and values are trimmed
    assert resolver.resolve("{{ /lambda/basic_arithmetic/add? a = 1 & b= 2 }}") == 3


@pytest.mark.parametrize(
    "bad",
    ["{{/rest/a", "{{}}", "{{   }}", "{{/nowhere/x}}", "{{rest/x}}"],
)
def test_scan_rejects_malformed(env, bad):
    _, resolver = env
    with pytest.raises(MalformedTemplate):
        resolver.resolve({"k": bad})


@pytest.mark.parametrize(
    "bad, message",
    [("{{/nowhere/x}}", 'template body must start with /rest/ or /lambda/, got "/nowhere/x"'),
     ("{{/lambd\u00e1/x}}",
      r'template body must start with /rest/ or /lambda/, got "/lambd\u00e1/x"')],
)
def test_a_malformed_template_is_quoted_as_json(env, bad, message):
    _, resolver = env
    with pytest.raises(MalformedTemplate) as caught:
        resolver.resolve(bad)
    assert caught.value.message == message


def test_whole_string_substitutes_typed_value(env):
    store, resolver = env
    store.post_resource("/rest/p", [[100, 1, 20, 0.2]])
    assert resolver.resolve({"stock_portfolio": "{{/rest/p}}"}) == {
        "stock_portfolio": [[100, 1, 20, 0.2]]
    }
    # surrounding whitespace still counts as a whole-string template
    assert resolver.resolve("  {{/rest/p}} ") == [[100, 1, 20, 0.2]]


def test_embedded_templates_stringify(env):
    store, resolver = env
    store.post_resource("/rest/n", 42)
    store.post_resource("/rest/s", "mid")
    store.post_resource("/rest/o", {"b": 1, "a": [True, None]})
    assert resolver.resolve("n={{/rest/n}}!") == "n=42!"
    assert resolver.resolve("x{{/rest/s}}y") == "xmidy"  # strings splice verbatim
    assert resolver.resolve("o={{/rest/o}}") == 'o={"a":[true,null],"b":1}'


def test_lambda_refs_call_with_typed_args(env):
    _, resolver = env
    out = resolver.resolve(
        {"t": "{{/lambda/weather/get_weather?latitude=0&longitude=0}}"}
    )
    assert out == {"t": {"temp_c": 30.0}}
    # single-segment form works when the name is globally unique
    out = resolver.resolve("{{/lambda/get_weather?latitude=90&longitude=0}}")
    assert out == {"temp_c": 0.0}


def test_nested_templates_resolve_innermost_first(env):
    store, resolver = env
    store.post_resource("/rest/x", 2)
    assert resolver.resolve("{{/lambda/basic_arithmetic/add?a={{/rest/x}}&b=1}}") == 3


def test_results_may_contain_templates_and_consume_depth(env):
    store, resolver = env
    for i in range(1, 8):
        store.post_resource(f"/rest/c{i}", "{{/rest/c%d}}" % (i + 1))
    store.post_resource("/rest/c8", "end")
    assert resolver.resolve("{{/rest/c1}}") == "end"  # exactly 8 hops
    store.post_resource("/rest/c0", "{{/rest/c1}}")
    with pytest.raises(DepthExceeded):
        resolver.resolve("{{/rest/c0}}")  # 9 hops


def test_self_reference_terminates(env):
    store, resolver = env
    store.post_resource("/rest/loop", "{{/rest/loop}}")
    with pytest.raises(DepthExceeded):
        resolver.resolve("{{/rest/loop}}")


def test_escape_yields_literal_braces(env):
    _, resolver = env
    assert resolver.resolve("\\{{not a template}}") == "{{not a template}}"
    assert resolver.resolve({"k": "\\{{x}}"}) == {"k": "{{x}}"}


def test_spliced_stored_values_resolve_only_their_templates(env):
    store, resolver = env
    store.post_resource("/rest/a", 5)
    store.post_resource("/rest/t", "{{/rest/a}}")  # a stored template still resolves
    store.post_resource("/rest/e", ["\\{{lit}}", "}}"])  # an escape still unescapes
    store.post_resource("/rest/k", {"{{/rest/a}}": 1})  # keys are never templates
    assert resolver.resolve("{{/rest/t}}") == 5
    assert resolver.resolve("x{{/rest/t}}") == "x5"
    assert resolver.resolve("{{/rest/e}}") == ["{{lit}}", "}}"]
    assert resolver.resolve({"v": "{{/rest/k}}"}) == {"v": {"{{/rest/a}}": 1}}


def test_missing_resource_propagates(env):
    _, resolver = env
    with pytest.raises(NotFound):
        resolver.resolve("{{/rest/absent}}")


def test_function_valued_templates_are_rejected(env):
    _, resolver = env
    with pytest.raises(UnserializableResult):
        resolver.resolve("{{/lambda/higher_order_arithmetic/add?x=2}}")


def test_depth_limit_must_be_positive(env):
    store, _ = env
    machine = LambdaMachine()
    with pytest.raises(InvalidValue):
        TemplateResolver(store, machine, depth_limit=0)


def test_resolution_of_pure_refs_never_mutates_the_store(env):
    store, resolver = env
    store.post_resource("/rest/x", 5)
    before = store.canonical_dump()
    resolver.resolve(
        ["{{/rest/x}}", "{{/lambda/basic_arithmetic/add?a=1&b=2}}", "plain"]
    )
    assert store.canonical_dump() == before


# properties: equivalence to manual composition, idempotence

_uris = st.sampled_from(["/rest/r1", "/rest/r2", "/rest/r3"])
_scalars = st.none() | st.booleans() | st.integers(-100, 100) | st.text(
    alphabet=st.characters(blacklist_characters="{}\\", blacklist_categories=("Cs",)),
    max_size=10,
)
_payloads = st.recursive(
    _scalars | _uris.map(lambda u: "{{%s}}" % u),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=12,
)


def _manual_substitute(payload, fetch):
    if isinstance(payload, str) and payload.startswith("{{"):
        return fetch(payload[2:-2])
    if isinstance(payload, list):
        return [_manual_substitute(item, fetch) for item in payload]
    if isinstance(payload, dict):
        return {k: _manual_substitute(v, fetch) for k, v in payload.items()}
    return payload


@given(_payloads)
def test_resolve_equals_manual_composition(payload):
    store = ResourceStore()
    store.post_resource("/rest/r1", {"a": 1})
    store.post_resource("/rest/r2", [1, "two"])
    store.post_resource("/rest/r3", "three")
    machine = LambdaMachine()
    resolver = TemplateResolver(store, machine)
    resolved = resolver.resolve(payload)
    assert resolved == _manual_substitute(payload, store.get_resource)
    # a second pass finds nothing left to do
    assert resolver.resolve(resolved) == resolved


def _find_spans_by_character(text):
    """The span scan as it was before it jumped with str.find, verbatim but
    for its constants inlined: one character at a time, up to three
    startswith calls per character."""
    spans = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("\\{{", i):
            i += 3
            continue
        if not text.startswith("{{", i):
            i += 1
            continue
        start = i
        i += 2
        depth = 1
        while i < n and depth:
            if text.startswith("\\{{", i):
                i += 3
            elif text.startswith("{{", i):
                depth += 1
                i += 2
            elif text.startswith("}}", i):
                depth -= 1
                i += 2
            else:
                i += 1
        if depth:
            raise MalformedTemplate(
                f"unbalanced braces: template opened at index {start} never closes"
            )
        spans.append((start, i))
    return spans


def _spans_or_message(find, text):
    try:
        return find(text)
    except MalformedTemplate as exc:
        return exc.message


@settings(max_examples=2000)
@given(st.text(alphabet="{}\\ a/", max_size=40))
@example("\\{{{{a}}")
@example("{{{{\\{{}}}}}}}}")
@example("{{a}}}}{{")
@example("\\\\{{x}}")
def test_span_scan_matches_the_character_scan(text):
    assert _spans_or_message(_find_spans, text) == _spans_or_message(
        _find_spans_by_character, text
    )
