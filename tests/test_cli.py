import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
import fastgate
from fastgate import build_app, cli
from fastgate.cli import GatewayServer, main
from fastgate.config import Config, load_config_file, make_config, parse_bind
from fastgate.errors import InvalidValue
from fastgate.http_gateway import WireRequest
from fastgate.rest_machine import DEFAULT_MAX_BYTES, ResourceStore

# --- configuration


def test_parse_bind():
    assert parse_bind("0.0.0.0:9999") == ("0.0.0.0", 9999)
    assert parse_bind("localhost:80") == ("localhost", 80)
    for bad in ("8080", ":8080", "host:", "host:abc"):
        with pytest.raises(InvalidValue):
            parse_bind(bad)


def test_load_config_file(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text('{"bind": "0.0.0.0:9000", "depth": 3}')
    assert load_config_file(str(path)) == {"bind": "0.0.0.0:9000", "depth": 3}
    path.write_text('{"bind": "x:1", "mystery": true}')
    with pytest.raises(InvalidValue, match="unknown config key"):
        load_config_file(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(InvalidValue, match="must hold a JSON object"):
        load_config_file(str(path))
    path.write_text("{nope")
    with pytest.raises(InvalidValue, match="malformed JSON"):
        load_config_file(str(path))


def test_make_config_precedence():
    file_values = {"bind": "0.0.0.0:9000", "depth": 3, "packages": ["pricer"]}
    config = make_config({**file_values, "depth": 5})
    assert (config.host, config.port) == ("0.0.0.0", 9000)
    assert config.depth_limit == 5  # a flag laid over the file beats it
    assert config.packages == ["pricer"]
    # a key left out keeps the file's value, or else the default
    assert make_config({"depth": 3}).depth_limit == 3
    assert make_config({}).depth_limit == 8
    config = make_config({"store": "s.json", "check_purity": True})
    assert config.store_path == "s.json"
    assert config.check_purity is True


@pytest.mark.parametrize(
    "file_values",
    [
        {"bind": "host:0"},
        {"bind": "host:70000"},
        {"depth": 0},
        {"depth": "three"},
        {"depth": True},
        {"max_bytes": 100},
        {"packages": ["pricer", "mystery"]},
        {"packages": "pricer"},
        {"check_purity": "yes"},
        {"store": None},
        {"store": ["a"]},
        {"bind": 5},
    ],
)
def test_make_config_rejects_bad_values(file_values):
    with pytest.raises(InvalidValue):
        make_config(file_values)


def test_build_app_loads_existing_store(tmp_path):
    path = tmp_path / "store.json"
    seeded = ResourceStore()
    seeded.post_resource("/rest/books/1", {"title": "T"})
    seeded.save(str(path))
    app = build_app(Config(store_path=str(path)))
    assert app.store.get_resource("/rest/books/1") == {"title": "T"}


def test_build_app_with_missing_store_file_starts_empty(tmp_path):
    app = build_app(Config(store_path=str(tmp_path / "absent.json")))
    assert app.store.canonical_dump() == "{}"


# --- serve: configuration failures exit 1 before binding


def test_serve_rejects_bad_bind(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["serve", "--bind", "nonsense"])
    assert exit.value.code == 1
    assert "error: bind must look like host:port" in capsys.readouterr().err


def test_serve_rejects_unknown_package(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["serve", "--packages", "pricer,mystery"])
    assert exit.value.code == 1
    assert "error: unknown package(s): mystery" in capsys.readouterr().err


def test_serve_rejects_missing_config_file(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["serve", "--config", "/no/such/file.json"])
    assert exit.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_serve_reads_config_from_env(tmp_path, monkeypatch, capsys):
    path = tmp_path / "conf.json"
    path.write_text('{"bind": "127.0.0.1:99999"}')
    monkeypatch.setenv("FAST_CONFIG", str(path))
    with pytest.raises(SystemExit) as exit:
        main(["serve"])
    assert exit.value.code == 1
    assert "bind port out of range: 99999" in capsys.readouterr().err


def test_serve_flag_overrides_env_config(tmp_path, monkeypatch, capsys):
    good = tmp_path / "good-but-broken-port.json"
    good.write_text('{"bind": "127.0.0.1:88888"}')
    monkeypatch.setenv("FAST_CONFIG", "/no/such/file.json")
    with pytest.raises(SystemExit) as exit:
        main(["serve", "--config", str(good)])
    # the flag's file was read (its port error), not the env's missing file
    assert exit.value.code == 1
    assert "bind port out of range: 88888" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, env", [("", "/no/such/file.json"), (None, ""), ("", "")],
    ids=["empty-flag", "empty-env", "both-empty"],
)
def test_an_empty_config_names_no_file(config, env, monkeypatch, capsys):
    monkeypatch.setenv("FAST_CONFIG", env)
    flag = [] if config is None else ["--config", config]
    with pytest.raises(SystemExit) as exit:
        main(["serve", "--bind", "127.0.0.1:99999", *flag])
    # the port error comes after the file would have been read
    assert exit.value.code == 1
    assert capsys.readouterr().err == "error: bind port out of range: 99999\n"


# --- the command line itself: the spellings that scripts and docs rely on

# each command's option strings with their metavars, and the client commands'
# shown default, as `--help` listed them before the parser moved to argparse
_HELP_LISTS = {
    "serve": ["--bind HOST:PORT", "--packages A,B", "--store FILE", "--depth INTEGER",
              "--max-bytes INTEGER", "--check-purity", "--config FILE", "--help"],
    "query": ["TEXT", "--server URL", "[default: http://127.0.0.1:8080]", "--help"],
    "seed": ["FILE", "--server URL", "[default: http://127.0.0.1:8080]", "--uri /rest/...",
             "--help"],
}


@pytest.mark.parametrize("command", sorted(_HELP_LISTS))
def test_each_command_help_lists_its_options_and_metavars(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # the help text wraps at the terminal's width
    with pytest.raises(SystemExit) as exit:
        main([command, "--help"])
    assert exit.value.code == 0
    out = capsys.readouterr().out
    assert [item for item in _HELP_LISTS[command] if item not in out] == []


@pytest.mark.parametrize(
    "args",
    [[], ["serve", "--depth", "abc"], ["serve", "--max-bytes", "1e6"], ["serve", "--bogus"],
     ["serve", "--max", "2048"], ["query"], ["seed", "value.json"], ["nonsense"]],
)
def test_a_usage_error_exits_2(args, capsys):
    with pytest.raises(SystemExit) as exit:
        main(args)
    assert exit.value.code == 2
    assert "usage:" in capsys.readouterr().err.lower()


def test_ctrl_c_in_a_client_command_prints_aborted_and_exits_1():
    with socket.create_server(("127.0.0.1", 0)) as silent:  # accepts, never answers
        silent.settimeout(20)
        url = "http://127.0.0.1:%d" % silent.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fastgate.cli", "query", "Get x", "--server", url],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        try:
            connection, _ = silent.accept()  # the client is now in its request
            with connection:
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert (proc.returncode, out, err) == (1, b"", b"\nAborted!\n")  # and no traceback


def test_ctrl_c_is_raised_on_outside_standalone_mode(monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_post", interrupted)
    # the benchmark's traced server runs main with these keywords
    with pytest.raises(KeyboardInterrupt):
        main(args=["query", "Get x"], prog_name="fastgate", standalone_mode=False)


# --- live server helpers


@pytest.fixture(scope="module")
def live_server():
    app = build_app()
    server = GatewayServer(("127.0.0.1", 0), app.gateway)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}", app
    server.shutdown()
    server.server_close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# --- query command


def test_query_prints_json_result(live_server, capsys):
    url, _ = live_server
    main(
        [
            "query",
            "Get Apply (Apply add on 2) from higher_order_arithmetic on 3",
            "--server",
            url,
        ],
    )
    assert json.loads(capsys.readouterr().out) == 5


def test_query_pretty_prints_structures(live_server, capsys):
    url, app = live_server
    app.store.post_resource("/rest/cli_trades", [[100, 1, 100, 0.2]])
    main(["query", "Map [price] from pricer on cli_trades", "--server", url])
    output = capsys.readouterr().out
    assert json.loads(output) == pytest.approx([7.965567455405804])
    assert "\n" in output.strip()  # indent=2 formatting


def test_query_parse_error_exits_1(live_server, capsys):
    url, _ = live_server
    with pytest.raises(SystemExit) as exit:
        main(["query", "Map price on", "--server", url])
    assert exit.value.code == 1
    assert "error: unexpected end of input at position 12" in capsys.readouterr().err


def test_query_domain_error_exits_2(live_server, capsys):
    url, _ = live_server
    with pytest.raises(SystemExit) as exit:
        main(["query", "Apply divide from basic_arithmetic on [1, 0]", "--server", url])
    assert exit.value.code == 2
    assert "error: division by zero" in capsys.readouterr().err


def test_query_unreachable_server_exits_2(capsys):
    url = f"http://127.0.0.1:{_free_port()}"
    with pytest.raises(SystemExit) as exit:
        main(["query", "Get x", "--server", url])
    assert exit.value.code == 2
    assert "cannot reach" in capsys.readouterr().err


# --- seed command


def test_seed_round_trip(live_server, tmp_path, capsys):
    url, _ = live_server
    payload = {"data": [[100, 1, 100, 0.2], [90, 0.5, 105, 0.35]]}
    path = tmp_path / "trades.json"
    path.write_text(json.dumps(payload))
    main(["seed", str(path), "--uri", "books/trades", "--server", url])
    assert capsys.readouterr().out == "seeded /rest/books/trades\n"
    # envelope unwrapped on store
    assert _request(url, "GET", "/rest/books/trades") == (200, payload["data"])


def test_seed_accepts_full_rest_uris(live_server, tmp_path):
    url, _ = live_server
    path = tmp_path / "value.json"
    path.write_text("42")
    main(["seed", str(path), "--uri", "/rest/answers/1", "--server", url])
    assert _request(url, "GET", "/rest/answers/1") == (200, 42)


def test_seed_malformed_file_exits_1(live_server, tmp_path, capsys):
    url, _ = live_server
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exit:
        main(["seed", str(path), "--uri", "x", "--server", url])
    assert exit.value.code == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_seed_missing_file_exits_1(live_server):
    url, _ = live_server
    with pytest.raises(SystemExit) as exit:
        main(["seed", "/no/such/file.json", "--uri", "x", "--server", url])
    assert exit.value.code == 1


def test_seed_rejected_uri_exits_1(live_server, tmp_path, capsys):
    url, _ = live_server
    path = tmp_path / "ok.json"
    path.write_text("1")
    with pytest.raises(SystemExit) as exit:
        main(["seed", str(path), "--uri", "/rest/bad{brace}", "--server", url])
    assert exit.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_seed_unreachable_server_exits_2(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text("1")
    url = f"http://127.0.0.1:{_free_port()}"
    with pytest.raises(SystemExit) as exit:
        main(["seed", str(path), "--uri", "x", "--server", url])
    assert exit.value.code == 2


# --- the HTTP/1.1 transport, over real sockets with short timeouts

SOCKET_TIMEOUT_S = 5


class _CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def _address(url: str) -> tuple:
    host, port = url.removeprefix("http://").split(":")
    return host, int(port)


def _raw_exchange(url: str, data: bytes, shut_write: bool = False) -> list:
    """Send raw bytes, read until the server closes, and parse the replies.

    Each reply is (status line, headers, body).  A server that keeps the
    connection open makes the read time out, which fails the test instead
    of stalling it.
    """
    with socket.create_connection(_address(url), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(data)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    replies = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        replies.append((status, headers, rest[:length]))
        received = rest[length:]
    return replies


def test_keep_alive_serves_many_requests_on_one_connection(live_server):
    url, _ = live_server
    conn = _CountingConnection(*_address(url), timeout=SOCKET_TIMEOUT_S)
    try:
        for i in range(20):
            conn.request(
                "POST", f"/rest/keepalive/{i}", f"[{i}]", {"Content-Type": "application/json"}
            )
            posted = conn.getresponse()
            assert (posted.status, posted.read()) == (200, b'{"status":"success"}')
            conn.request("GET", f"/rest/keepalive/{i}")
            fetched = conn.getresponse()
            assert (fetched.status, fetched.read()) == (200, f"[{i}]".encode())
            assert fetched.getheader("Connection") is None
    finally:
        conn.close()
    assert conn.connects == 1


def test_client_connection_close_is_honoured(live_server):
    url, _ = live_server
    request = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    # the second request must go unanswered: the server closes after the first
    replies = _raw_exchange(url, request + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert len(replies) == 1
    status, headers, body = replies[0]
    assert status == "HTTP/1.1 200 OK"
    assert headers["Connection"] == "close"
    assert body == b'{"status":"ok"}'


def test_http10_request_gets_a_closed_connection(live_server):
    url, _ = live_server
    [(status, headers, body)] = _raw_exchange(url, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert status == "HTTP/1.1 200 OK"
    assert headers["Connection"] == "close"
    assert body == b'{"status":"ok"}'


def test_any_method_reaches_the_gateway_over_the_wire(live_server):
    url, app = live_server
    conn = _CountingConnection(*_address(url), timeout=SOCKET_TIMEOUT_S)
    try:
        # HEAD is served as GET: /rest/x is not stored
        for method, status in (("PATCH", 405), ("HEAD", 404)):
            expected = app.gateway.handle(WireRequest(method, "/rest/x"))
            conn.request(method, "/rest/x")
            response = conn.getresponse()
            assert response.status == expected.status == status
            body = response.read()
            if method == "HEAD":
                assert body == b""  # a HEAD reply carries no body
            else:
                assert json.loads(body) == expected.body == {
                    "message": "PATCH is not allowed here; use GET or POST or PUT or DELETE"
                }
        conn.request("GET", "/healthz")  # the connection is still in step
        assert conn.getresponse().read() == b'{"status":"ok"}'
    finally:
        conn.close()
    assert conn.connects == 1


_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.mark.parametrize(
    "head, status, message",
    [
        (
            b"Content-Length: -1",
            "400 Bad Request",
            "Content-Length must be a non-negative integer",
        ),
        (
            b"Content-Length: abc",
            "400 Bad Request",
            "Content-Length must be a non-negative integer",
        ),
        (
            b"Content-Length: 3\r\nContent-Length: 3",
            "400 Bad Request",
            "Content-Length must be a non-negative integer",
        ),
        (
            b"Content-Length: 1000000000000",
            "413 Request Entity Too Large",
            f"request body exceeds {DEFAULT_MAX_BYTES} bytes",
        ),
        (
            b"Transfer-Encoding: chunked",
            "400 Bad Request",
            "Transfer-Encoding is not supported; send a Content-Length",
        ),
    ],
    ids=["negative", "garbage", "duplicate", "oversized", "chunked"],
)
def test_bad_body_framing_is_rejected_and_the_connection_closed(
    live_server, head, status, message
):
    url, _ = live_server
    request = b"POST /rest/framing HTTP/1.1\r\nHost: t\r\n" + head + b"\r\n\r\n"
    # the bytes after the head would be a second request if the server
    # read on; it must close instead
    replies = _raw_exchange(url, request + _SMUGGLED)
    assert len(replies) == 1
    got_status, headers, body = replies[0]
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Connection"] == "close"
    assert json.loads(body) == {"message": message}


def test_short_body_is_rejected(live_server):
    url, _ = live_server
    request = b"POST /rest/short HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n[1]"
    [(status, headers, body)] = _raw_exchange(url, request, shut_write=True)
    assert status == "HTTP/1.1 400 Bad Request"
    assert json.loads(body) == {"message": "request body is shorter than its Content-Length"}


def test_expect_100_continue_invites_only_a_body_the_gateway_reads(live_server):
    url, _ = live_server
    head = b"POST /rest/expect HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
    with socket.create_connection(_address(url), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(head + b"Content-Length: 999999999\r\n\r\n")
        reply = sock.makefile("rb").read()  # until the server closes
    assert reply.startswith(b"HTTP/1.1 413 Request Entity Too Large\r\n")
    assert b"\r\nConnection: close\r\n" in reply
    with socket.create_connection(_address(url), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(head + b"Content-Length: 3\r\nConnection: close\r\n\r\n")
        reader = sock.makefile("rb")
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(b"[1]")
        assert reader.readline() == b"HTTP/1.1 200 OK\r\n"


def test_an_oversized_upload_is_refused_without_reading_it():
    app = build_app()
    app.gateway.max_bytes = 10
    server = GatewayServer(("127.0.0.1", 0), app.gateway)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = "http://{}:{}".format(*server.server_address)
    head = b"POST /rest/x HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: "
    try:
        # no body bytes follow: a server that waited for them would time the read out
        [(status, headers, body)] = _raw_exchange(url, head + b"1000\r\n\r\n")
        # a body of exactly the cap is read and served; one byte more is refused
        [at_cap] = _raw_exchange(url, head + b"10\r\n\r\n[1,2,3,45]")
        [over_cap] = _raw_exchange(url, head + b"11\r\n\r\n[1,2,3,456]")
    finally:
        server.shutdown()
        server.server_close()
    assert status == "HTTP/1.1 413 Request Entity Too Large"
    assert headers["Connection"] == "close"
    assert json.loads(body) == {"message": "request body exceeds 10 bytes"}
    assert at_cap[0] == "HTTP/1.1 200 OK"
    assert json.loads(at_cap[2]) == {"status": "success"}
    assert over_cap[0] == "HTTP/1.1 413 Request Entity Too Large"
    assert json.loads(over_cap[2]) == {"message": "request body exceeds 10 bytes"}
    assert json.loads(app.store.canonical_dump()) == {"/rest/x": [1, 2, 3, 45]}


def test_malformed_request_line_answers_json(live_server):
    url, _ = live_server
    [(status, headers, body)] = _raw_exchange(url, b"NONSENSE\r\n\r\n")
    assert status == "HTTP/1.1 400 Bad Request"
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert json.loads(body) == {"message": "Bad request syntax ('NONSENSE')"}


def _exchange(conn, method, path, value=None):
    body = None if value is None else json.dumps(value)
    conn.request(method, path, body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _request(base: str, method: str, path: str, value=None) -> tuple:
    """`_exchange` on a connection of its own to the server at `base`."""
    conn = http.client.HTTPConnection(*_address(base), timeout=10)
    try:
        return _exchange(conn, method, path, value)
    finally:
        conn.close()


def test_a_percent_encoded_path_names_the_same_resource_everywhere(live_server):
    url, _ = live_server
    conn = http.client.HTTPConnection(*_address(url), timeout=SOCKET_TIMEOUT_S)
    add = "/lambda/basic_arithmetic/add"
    try:
        assert _exchange(conn, "POST", "/rest/caf%C3%A9", [1, 2]) == (200, {"status": "success"})
        # a query, a template splice and a uri argument all name it as text
        assert _exchange(conn, "POST", "/query", {"q": "Get /rest/café"}) == (200, [1, 2])
        assert _exchange(conn, "POST", "/query", {"q": "Get /rest%2Fcaf%C3%A9"}) == (200, [1, 2])
        assert _exchange(conn, "POST", add, {"data": "{{/rest/café}}"}) == (200, 3)
        assert _exchange(conn, "POST", add, {"data": "{{/rest%2Fcafé}}"}) == (200, 3)
        assert _exchange(conn, "POST", add, {"uri": "/rest/café"}) == (200, 3)
        assert _exchange(conn, "GET", add + "?uri=/rest/caf%C3%A9") == (200, 3)
        assert _exchange(conn, "GET", "/rest%2Fcaf%C3%A9") == (200, [1, 2])
        # and a query's write is found by the wire path that encodes it
        assert _exchange(conn, "POST", "/query", {"q": "Post 5 to /rest/na%C3%AFve"}) == (
            200,
            {"status": "success"},
        )
        assert _exchange(conn, "GET", "/rest/na%C3%AFve") == (200, 5)
        assert _exchange(conn, "GET", "/rest/na%C3%AFve?children=true") == (200, [])
        # function path segments decode too
        assert _exchange(conn, "GET", "/lambda/basic_%61rithmetic/add?a=1&b=2") == (200, 3)
    finally:
        conn.close()


def test_a_malformed_percent_encoding_names_no_resource_anywhere(live_server):
    url, app = live_server
    conn = http.client.HTTPConnection(*_address(url), timeout=SOCKET_TIMEOUT_S)
    add = "/lambda/basic_arithmetic/add"
    app.store.post_resource("/rest/a%zz", 7)
    before = app.store.canonical_dump()
    try:
        # not UTF-8, a cut-off sequence, and a "%" that starts no escape
        for bad in ("/rest/a%FF", "/rest/a%C3", "/rest/a%zz", "/rest/100%"):
            refused = (400, {"message": f"URI is not percent-encoded UTF-8: {bad}"})
            assert _exchange(conn, "POST", bad, [1]) == refused
            assert _exchange(conn, "GET", bad) == refused
            assert _exchange(conn, "POST", add, {"uri": bad}) == refused
            assert _exchange(conn, "POST", "/fast/basic_arithmetic/add",
                             {"data": [1, 2], "to_uri": bad}) == refused
            assert _exchange(conn, "POST", add, {"data": "{{%s}}" % bad}) == refused
            assert _exchange(conn, "POST", "/query", {"q": f"Get {bad}"}) == refused
            assert _exchange(conn, "POST", "/query", {"q": f"Post 5 to {bad}"}) == refused
            # query strings, form bodies and template arguments are read as paths are
            assert _exchange(conn, "GET", f"{add}?uri={bad}") == refused
            conn.request("POST", add, f"uri={bad}",
                         {"Content-Type": "application/x-www-form-urlencoded"})
            response = conn.getresponse()
            assert (response.status, json.loads(response.read())) == refused
            template = "{{/lambda/basic_arithmetic/add?a=%s&b=1}}" % bad
            assert _exchange(conn, "POST", add, {"data": template}) == refused
        # an escaped "%" still names the key that holds one
        assert _exchange(conn, "GET", "/rest/a%25zz") == (200, 7)
    finally:
        conn.close()
    dump = app.store.canonical_dump()
    assert dump == before
    assert "\\ufffd" not in dump  # no byte was swapped for U+FFFD


def test_a_request_target_outside_ascii_is_rejected(live_server):
    url, app = live_server
    message = {"message": "request target must be ASCII; percent-encode other bytes"}
    for target in ("/rest/crème", "/lambda/basic_arithmetic/add?a=1&b=é"):
        request = f"POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\n[1]"
        # the bytes after the head would be a second request if the server read on
        replies = _raw_exchange(url, request.encode("utf-8") + _SMUGGLED)
        assert len(replies) == 1
        status, headers, body = replies[0]
        assert status == "HTTP/1.1 400 Bad Request"
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == message
    stored = json.loads(app.store.canonical_dump())
    assert not [key for key in stored if key.startswith("/rest/cr")]
    # the same name percent-encoded as UTF-8 is a valid target
    conn = http.client.HTTPConnection(*_address(url), timeout=SOCKET_TIMEOUT_S)
    try:
        posted = _exchange(conn, "POST", "/rest/cr%C3%A8me", [1])
        assert posted == (200, {"status": "success"})
        assert _exchange(conn, "GET", "/rest/cr%C3%A8me") == (200, [1])
    finally:
        conn.close()
    stored = json.loads(app.store.canonical_dump())
    assert [key for key in stored if key.startswith("/rest/cr")] == ["/rest/crème"]


def test_a_path_is_decoded_once_for_the_allow_hook_and_the_store():
    app = build_app()
    app.gateway.allow = lambda method, path: not path.startswith("/rest/private/")
    server = GatewayServer(("127.0.0.1", 0), app.gateway)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    conn = http.client.HTTPConnection(*server.server_address, timeout=SOCKET_TIMEOUT_S)
    try:
        denied = (404, {"message": "Not found"})
        assert _exchange(conn, "POST", "/rest/private/x", 1) == denied
        assert _exchange(conn, "POST", "/rest/private%2Fx", 1) == denied
        # %25 decodes to a literal percent sign, which names another resource
        assert _exchange(conn, "POST", "/rest/private%252Fx", 2) == (200, {"status": "success"})
        assert json.loads(app.store.canonical_dump()) == {"/rest/private%2Fx": 2}
        assert _exchange(conn, "GET", "/rest/private%252Fx") == (200, 2)
    finally:
        conn.close()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "sent",
    [b"", b"POST /rest/stall HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n[1,"],
    ids=["between-requests", "mid-body"],
)
def test_a_silent_connection_is_closed_after_the_idle_timeout(
    live_server, monkeypatch, capsys, sent
):
    monkeypatch.setattr("fastgate.cli.IDLE_TIMEOUT_S", 0.2)
    url, _ = live_server
    with socket.create_connection(_address(url), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(sent)
        assert sock.recv(65536) == b""  # closed without a reply, within SOCKET_TIMEOUT_S
    assert capsys.readouterr().err == ""  # and without a traceback


def test_server_close_finishes_requests_in_flight_and_ends_idle_connections():
    app = build_app()
    entered, release = threading.Event(), threading.Event()

    def hold(x):
        entered.set()
        release.wait(SOCKET_TIMEOUT_S)
        return x

    app.machine.register_package("held", {"hold": hold})
    server = GatewayServer(("127.0.0.1", 0), app.gateway)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    address = server.server_address
    idle = http.client.HTTPConnection(*address, timeout=SOCKET_TIMEOUT_S)
    busy = http.client.HTTPConnection(*address, timeout=SOCKET_TIMEOUT_S)
    replies = []
    try:
        idle.request("GET", "/healthz")
        assert idle.getresponse().read() == b'{"status":"ok"}'

        def call():
            busy.request("POST", "/lambda/held/hold", "[7]", {"Content-Type": "application/json"})
            response = busy.getresponse()
            replies.append((response.status, response.read()))

        caller = threading.Thread(target=call)
        caller.start()
        assert entered.wait(SOCKET_TIMEOUT_S)
        server.shutdown()
        closer = threading.Thread(target=server.server_close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()  # it waits for the request in flight
        release.set()
        closer.join(SOCKET_TIMEOUT_S)
        assert not closer.is_alive()  # and not for the idle connection
        caller.join(SOCKET_TIMEOUT_S)
        assert replies == [(200, b"7")]
        with pytest.raises((http.client.HTTPException, OSError)):
            idle.request("GET", "/healthz")
            idle.getresponse()
    finally:
        release.set()
        idle.close()
        busy.close()


# --- the server process end to end


def _child_env() -> dict:
    """The environment in which a child imports the same fastgate as this test,
    installed or not."""
    source_root = os.path.dirname(os.path.dirname(fastgate.__file__))
    pythonpath = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def _serve_process(port: int, *options: str) -> subprocess.Popen:
    """`fastgate serve` on `port` in a child process, with `options` added."""
    return subprocess.Popen(
        [sys.executable, "-m", "fastgate.cli", "serve", "--bind", f"127.0.0.1:{port}", *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )


# what a serving process has no use for: TLS, mail, an HTTP client or server
# library, a thread pool, or multiprocessing and pickle, since the workers
# need only os, socket and marshal (CI runs this test as a step of its own)
_UNUSED_BY_SERVE = ["requests", "http.client", "ssl", "email", "http.server",
                    "concurrent.futures", "multiprocessing", "pickle"]


@pytest.mark.parametrize("module", ["fastgate.cli", "fastgate"])
def test_importing_fastgate_loads_no_client_tls_email_or_pool(module):
    # the second line names what the import loaded from outside the standard
    # library and fastgate; a module loaded before it (a site hook's) is not counted
    check = (f"import sys; before = set(sys.modules); import {module}; "
             f"print(' '.join(sorted(set({_UNUSED_BY_SERVE!r}) & set(sys.modules)))); "
             "print(' '.join(sorted(name for name in set(sys.modules) - before "
             "if name.partition('.')[0] not in {*sys.stdlib_module_names, 'fastgate'})))")
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                            env=_child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    unused, third_party = result.stdout.split("\n")[:2]
    assert unused == ""
    assert third_party == ""


def _wait_until_serving(base: str) -> None:
    deadline = time.time() + 20
    while True:
        try:
            if _request(base, "GET", "/healthz")[0] == 200:
                return
        except (OSError, http.client.HTTPException):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_process_flushes_store_on_sigint(tmp_path, signum):
    port = _free_port()
    store_path = tmp_path / "persisted.json"
    proc = _serve_process(port, "--store", str(store_path))
    try:
        base = f"http://127.0.0.1:{port}"
        _wait_until_serving(base)
        posted = _request(base, "POST", "/rest/books/1", {"data": {"title": "T"}})
        assert posted == (200, {"status": "success"})
        assert _request(base, "GET", "/lambda/basic_arithmetic/add?a=1&b=2") == (200, 3)
        proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert b"store flushed to" in stderr
    assert os.path.exists(store_path)
    reloaded = ResourceStore()
    reloaded.load(str(store_path))
    assert reloaded.get_resource("/rest/books/1") == {"title": "T"}


def test_serve_process_caps_request_bodies_at_max_bytes():
    port = _free_port()
    proc = _serve_process(port, "--max-bytes", "2048")
    try:
        _wait_until_serving(f"http://127.0.0.1:{port}")
        head = b"POST /rest/big HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S) as sock:
            sock.sendall(head + b"Content-Length: 4096\r\n\r\n")
            # until the server closes; a server that invited the body would time this out
            reply = sock.makefile("rb").read()
    finally:
        proc.kill()
        proc.communicate()
    assert reply.startswith(b"HTTP/1.1 413 Request Entity Too Large\r\n")  # no 100 before it
    assert reply.endswith(b'\r\n\r\n{"message":"request body exceeds 2048 bytes"}')
