import json
import os
import random
import string
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qsl

import pytest
from hypothesis import example, given, settings, strategies as st

from fastgate import build_app, rest_machine
from fastgate.errors import InvalidUri, InvalidValue, NotFound, PayloadTooLarge
from fastgate.http_gateway import WireRequest
from fastgate.rest_machine import ResourceStore, decode_params, normalize_uri
from fastgate.values import MAX_DEPTH, canonical_json

from test_values import json_values


def test_normalize_accepts_and_decodes():
    assert normalize_uri("/rest/a/b") == "/rest/a/b"
    assert normalize_uri("/rest/a%20b") == "/rest/a b"
    assert normalize_uri("/rest/rest_URI") == "/rest/rest_URI"


@pytest.mark.parametrize(
    "bad",
    [
        "/other/a",
        "rest/a",
        "/rest/",
        "/rest//a",
        "/rest/a//b",
        "/rest/a?x=1",
        "/rest/a{{b}}",
        "/rest/{{/rest/x}}",
        "",
        123,
    ],
)
def test_normalize_rejects(bad):
    with pytest.raises(InvalidUri):
        normalize_uri(bad)


# ASCII text rich in the characters that delimit and escape params
_param_texts = st.lists(
    st.sampled_from(["&", "=", "+", "%", "0", "9", "a", "F", "C", "3", "x", "/",
                     "%C3", "%A9", "%FF", "%2B", "%26", "%3D", "%25", "%zz"]),
    max_size=12,
).map("".join)


def _escapes_spell_utf8(text):
    """Every "%" starts two hex digits and the bytes they spell are UTF-8."""
    if any(len(piece) < 2 or not set(piece[:2]) <= set(string.hexdigits)
           for piece in text.split("%")[1:]):
        return False
    try:
        parse_qsl(text, keep_blank_values=True, errors="strict")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=500)
@given(_param_texts)
@example("uri=/rest/a%FF")
@example("a=%C3%A9&b=1+2&a=3&&c&=%2B")
def test_decode_params_reads_what_parse_qsl_reads_or_refuses(text):
    lenient = parse_qsl(text, keep_blank_values=True)
    if _escapes_spell_utf8(text):
        assert decode_params(text) == dict(lenient)
    else:
        # the lenient reader turned bytes into U+FFFD or kept a bare "%"
        assert any("\ufffd" in part or "%" in part for pair in lenient for part in pair)
        with pytest.raises(InvalidUri) as exc:
            decode_params(text)
        assert exc.value.message.startswith("URI is not percent-encoded UTF-8: ")


def test_get_post_delete_cycle():
    store = ResourceStore()
    with pytest.raises(NotFound) as exc:
        store.get_resource("/rest/thing")
    assert exc.value.message == "Resource not found"
    assert store.post_resource("/rest/thing", {"v": 1}) == {"status": "success"}
    assert store.get_resource("/rest/thing") == {"v": 1}
    store.post_resource("/rest/thing", [2])  # POST is an upsert
    assert store.get_resource("/rest/thing") == [2]
    assert store.delete_resource("/rest/thing") == {"status": "success"}
    with pytest.raises(NotFound):
        store.delete_resource("/rest/thing")


def test_stored_values_are_isolated_copies():
    store = ResourceStore()
    value = {"rows": [[1, 2]]}
    store.post_resource("/rest/v", value)
    value["rows"][0][0] = 99
    assert store.get_resource("/rest/v") == {"rows": [[1, 2]]}
    fetched = store.get_resource("/rest/v")
    fetched["rows"].append("tampered")
    assert store.get_resource("/rest/v") == {"rows": [[1, 2]]}


def test_size_limit():
    store = ResourceStore(max_bytes=64)
    store.post_resource("/rest/small", "x" * 10)
    with pytest.raises(PayloadTooLarge):
        store.post_resource("/rest/big", "x" * 100)


def test_list_children_sorted_and_scoped():
    store = ResourceStore()
    for uri in ["/rest/k/b", "/rest/k/a", "/rest/k/a/deep", "/rest/other", "/rest/k2"]:
        store.post_resource(uri, 1)
    assert store.list_children("/rest/k") == ["/rest/k/a", "/rest/k/a/deep", "/rest/k/b"]
    assert store.list_children("/rest/other") == []


def test_save_load_round_trip(tmp_path):
    store = ResourceStore()
    store.post_resource("/rest/a", {"x": [1, 2.5, None]})
    store.post_resource("/rest/b/c", "text")
    path = tmp_path / "store.json"
    store.save(str(path))

    fresh = ResourceStore()
    fresh.load(str(path))
    assert fresh.canonical_dump() == store.canonical_dump()
    assert fresh.get_resource("/rest/b/c") == "text"

    # a file written by an earlier release loads and saves back byte for byte
    path.write_text(EARLIER_STORE_FILE, encoding="utf-8")
    fresh.load(str(path))
    fresh.save(str(path))
    assert path.read_text(encoding="utf-8") == EARLIER_STORE_FILE
    assert fresh.get_resource("/rest/café/ñ")["zeta"] == 'naïve ☃ "q"\n\t\ud800'


def test_store_keys_are_decoded_uris_kept_as_given(tmp_path):
    store = ResourceStore()
    # the key a request path of /rest/100%2525 decodes to, once
    store.post_resource("/rest/100%25", 1)
    assert store.get_resource("/rest/100%25") == 1
    with pytest.raises(NotFound):
        store.get_resource("/rest/100%")
    path = tmp_path / "store.json"
    store.save(str(path))
    fresh = ResourceStore()
    fresh.load(str(path))  # a saved key is not decoded a second time
    assert fresh.get_resource("/rest/100%25") == 1


# saved before the store kept canonical text, with that release's save()
EARLIER_STORE_FILE = (
    '{"/rest/a b":"{{/rest/book}}","/rest/book":[[100,1,20.5,0.2],'
    "[1e-05,1e+16,-0.0,123456789012345678901234567890]],"
    '"/rest/caf\\u00e9/\\u00f1":{"alpha":[true,false,null],'
    '"zeta":"na\\u00efve \\u2603 \\"q\\"\\n\\t\\ud800","\\u00c9mile":{}},'
    '"/rest/empty":[]}'
)


def test_save_syncs_the_file_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def inode(stat):
        return stat.st_dev, stat.st_ino

    def fsync(fd):
        events.append(("fsync", inode(os.fstat(fd))))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", inode(os.stat(src))))
        real_replace(src, dst)

    monkeypatch.setattr(rest_machine.os, "fsync", fsync)
    monkeypatch.setattr(rest_machine.os, "replace", replace)
    store = ResourceStore()
    store.post_resource("/rest/a", [1, 2])
    store.save(str(tmp_path / "store.json"))
    assert [kind for kind, _ in events] == ["fsync", "replace", "fsync"]
    (_, synced), (_, renamed), (_, directory) = events
    assert synced == renamed  # the data reaches the disk before it gets its name
    assert directory == inode(os.stat(tmp_path))  # then the new name itself
    assert (tmp_path / "store.json").read_text() == '{"/rest/a":[1,2]}'


def test_load_rejects_bad_shapes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1,2,3]")
    store = ResourceStore()
    with pytest.raises(InvalidUri):
        store.load(str(path))
    path.write_text('{"no-prefix": 1}')
    with pytest.raises(InvalidUri):
        store.load(str(path))


def _nested(depth: int):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


def test_store_reloads_a_value_posted_at_full_depth(tmp_path):
    store = ResourceStore()
    store.post_resource("/rest/deep", _nested(MAX_DEPTH))
    path = tmp_path / "store.json"
    store.save(str(path))

    fresh = ResourceStore()
    fresh.load(str(path))
    assert fresh.get_resource("/rest/deep") == _nested(MAX_DEPTH)
    assert fresh.canonical_dump() == store.canonical_dump()


@pytest.mark.parametrize(
    "entry, message",
    [
        (canonical_json(_nested(MAX_DEPTH + 1)), f"exceeds nesting depth {MAX_DEPTH}"),
        ("[1e400]", "non-finite number"),
        ("[NaN]", "non-finite JSON constant NaN"),
    ],
    ids=["65-deep", "overflow", "NaN"],
)
def test_load_rejects_an_entry_post_would_refuse(tmp_path, entry, message):
    path = tmp_path / "hand-written.json"
    path.write_text('{"/rest/ok":[1],"/rest/bad":' + entry + "}")
    store = ResourceStore()
    with pytest.raises(InvalidValue) as exc:
        store.load(str(path))
    assert message in exc.value.message
    with pytest.raises(InvalidValue):
        store.post_resource("/rest/bad", json.loads(entry))
    assert store.canonical_dump() == "{}"


def test_canonical_dump_is_order_independent():
    a = ResourceStore()
    b = ResourceStore()
    a.post_resource("/rest/one", 1)
    a.post_resource("/rest/two", 2)
    b.post_resource("/rest/two", 2)
    b.post_resource("/rest/one", 1)
    assert a.canonical_dump() == b.canonical_dump()
    assert ResourceStore().canonical_dump() == "{}"

    a.post_resource("/rest/zoë/ключ", {"ü": "☃", "a": [1.5, None]})
    a.post_resource("/rest/one/x", "naïve")
    uris = ["/rest/one", "/rest/two", "/rest/zoë/ключ", "/rest/one/x"]
    reference = canonical_json({uri: a.get_resource(uri) for uri in uris})
    assert a.canonical_dump() == reference


def test_concurrent_writers_and_readers_stay_consistent():
    store = ResourceStore()
    store.post_resource("/rest/hot", [0, 0])
    errors = []

    def writer(tag):
        try:
            for i in range(200):
                store.post_resource("/rest/hot", [tag, i])
        except Exception as exc:  # pragma: no cover - should not happen
            errors.append(exc)

    def reader():
        try:
            for _ in range(200):
                value = store.get_resource("/rest/hot")
                # whole-value swap: never a torn write
                assert isinstance(value, list) and len(value) == 2
        except Exception as exc:  # pragma: no cover - should not happen
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = store.get_resource("/rest/hot")
    assert final[0] in range(4) and final[1] == 199


@given(json_values)
def test_post_then_get_round_trips(value):
    store = ResourceStore()
    store.post_resource("/rest/v", value)
    got = store.get_resource("/rest/v")
    assert got == value
    assert canonical_json(got) == canonical_json(value)  # 1.0 stays 1.0, True stays true


# --- per-URI linearizability (Wing & Gong, "Testing and verifying concurrent
# objects", JPDC 1993): every history of GET/POST/DELETE on one URI must have
# a legal order, consistent with real time, against a register that holds a
# value or is absent.


@dataclass(frozen=True)
class Op:
    call: int  # perf_counter_ns when issued
    ret: int  # perf_counter_ns when answered
    kind: str  # "GET" | "POST" | "DELETE"
    value: Optional[str]  # canonical text posted or read; None for absent
    ok: bool = True  # DELETE found the URI


def _step(state: Optional[str], op: Op):
    """(legal, next state) of `op` against the register's `state`."""
    if op.kind == "POST":
        return True, op.value
    if op.kind == "GET":
        return op.value == state, state
    return op.ok == (state is not None), None


def linearizable(history: list) -> bool:
    """Brute-force search from an absent URI, memoized on (linearized set, state)."""
    ops = sorted(history, key=lambda op: op.call)
    full = (1 << len(ops)) - 1
    dead_ends = set()

    def search(done: int, state: Optional[str]) -> bool:
        if done == full:
            return True
        if (done, state) in dead_ends:
            return False
        pending = [i for i in range(len(ops)) if not done >> i & 1]
        horizon = min(ops[i].ret for i in pending)
        for i in pending:
            if ops[i].call > horizon:  # something pending returned before this began
                break
            legal, after = _step(state, ops[i])
            if legal and search(done | 1 << i, after):
                return True
        dead_ends.add((done, state))
        return False

    return search(0, None)


def test_linearizability_checker_rejects_a_bad_history():
    a = canonical_json(["a"])
    # a read overlapping a write may see either side of it...
    assert linearizable([Op(0, 100, "POST", a), Op(10, 20, "GET", None), Op(30, 40, "GET", a)])
    # ...but once a later read has seen the write, no read after it sees the old state
    assert not linearizable(
        [Op(0, 100, "POST", a), Op(10, 20, "GET", a), Op(30, 40, "GET", None)]
    )
    assert not linearizable([Op(0, 10, "POST", a), Op(20, 30, "DELETE", None, ok=False)])


def test_rest_is_linearizable_per_uri():
    app = build_app()
    gateway = app.gateway
    rng = random.Random(5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' requests finely
    try:
        for round_no in range(40):
            uris = [f"/rest/lin/{round_no}/{k}" for k in range(2)]
            n_threads = rng.randint(2, 8)
            plans = [
                [(rng.choice(("GET", "POST", "DELETE")), rng.choice(uris)) for _ in range(6)]
                for _ in range(n_threads)
            ]
            histories = {uri: [] for uri in uris}
            start = threading.Barrier(n_threads, timeout=5)

            def client(tid, plan):
                start.wait()
                for seq, (method, uri) in enumerate(plan):
                    body = None
                    if method == "POST":
                        body = canonical_json([tid, seq, list(range(50))]).encode()
                    call = time.perf_counter_ns()
                    reply = gateway.handle(WireRequest(method, uri, "", body))
                    ret = time.perf_counter_ns()
                    if method == "POST":
                        assert reply.status == 200
                        op = Op(call, ret, method, body.decode())
                    elif method == "GET":
                        assert reply.status in (200, 404)
                        found = reply.status == 200
                        op = Op(call, ret, method, canonical_json(reply.body) if found else None)
                    else:
                        assert reply.status in (200, 404)
                        op = Op(call, ret, method, None, ok=reply.status == 200)
                    histories[uri].append(op)  # list.append is atomic

            threads = [
                threading.Thread(target=client, args=(tid, plan))
                for tid, plan in enumerate(plans)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
                assert not t.is_alive()
            assert sum(map(len, histories.values())) == 6 * n_threads  # no client died
            for uri, history in histories.items():
                assert linearizable(history), (uri, history)
    finally:
        sys.setswitchinterval(switch)
