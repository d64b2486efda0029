"""Shared fixtures: a fresh app bundle, a counting in-process client, and
the acceptance-criteria reporter that prints one PASS/FAIL line per
criterion in the terminal summary."""

import json as jsonlib
from urllib.parse import urlencode

import pytest

from fastgate import build_app
from fastgate.http_gateway import WireRequest


class Client:
    """In-process wire client; counts round trips for batching assertions."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.count = 0

    def request(self, method, path, query=None, json=None, body=None,
                content_type="application/json"):
        raw = body
        if json is not None:
            raw = jsonlib.dumps(json).encode("utf-8")
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
        self.count += 1
        response = self.gateway.handle(
            WireRequest(method, path, urlencode(query or {}), raw, content_type)
        )
        return response.status, response.body

    def get(self, path, query=None):
        return self.request("GET", path, query=query)

    def post(self, path, json=None, query=None, body=None,
             content_type="application/json"):
        return self.request("POST", path, query=query, json=json, body=body,
                            content_type=content_type)

    def put(self, path, json=None):
        return self.request("PUT", path, json=json)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture
def bundle():
    return build_app()


@pytest.fixture
def client(bundle):
    return Client(bundle.gateway)


ACCEPTANCE_RESULTS = []


@pytest.fixture
def criterion():
    """Record one acceptance criterion verdict and assert it."""

    def record(number, name, ok, detail=""):
        ACCEPTANCE_RESULTS.append((number, name, bool(ok), detail))
        suffix = f" ({detail})" if detail else ""
        line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {name}{suffix}"
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(
            f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {name}{suffix}"
        )
