"""Configuration and application assembly.

One set of settings keys everywhere: the JSON config file and the `serve`
flags both spell them `bind`, `packages`, `store`, `depth`, `max_bytes`
and `check_purity`, and `make_config` is their one reader.  Flags win
over the file, which the FAST_CONFIG environment variable may name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .builtin_packages import available_packages, register_builtins
from .errors import InvalidValue
from .http_gateway import Gateway
from .lambda_machine import LambdaMachine
from .query_language import QueryEngine
from .rest_machine import DEFAULT_MAX_BYTES, ResourceStore
from .template_resolver import DEFAULT_DEPTH_LIMIT, TemplateResolver
from .values import loads_strict

ENV_CONFIG = "FAST_CONFIG"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080

_CONFIG_KEYS = frozenset(
    {"bind", "packages", "store", "depth", "max_bytes", "check_purity"}
)

MIN_MAX_BYTES = 1024


@dataclass
class Config:
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    packages: Optional[list[str]] = None  # None enables every builtin package
    store_path: Optional[str] = None
    depth_limit: int = DEFAULT_DEPTH_LIMIT
    max_bytes: int = DEFAULT_MAX_BYTES
    check_purity: bool = False

    def validate(self) -> "Config":
        if not self.host:
            raise InvalidValue("bind host must be non-empty")
        if not (0 < self.port < 65536):
            raise InvalidValue(f"bind port out of range: {self.port}")
        if self.depth_limit < 1:
            raise InvalidValue(f"depth limit must be >= 1, got {self.depth_limit}")
        if self.max_bytes < MIN_MAX_BYTES:
            raise InvalidValue(
                f"payload size limit must be >= {MIN_MAX_BYTES}, got {self.max_bytes}"
            )
        if self.packages is not None:
            known = set(available_packages())
            unknown = sorted(set(self.packages) - known)
            if unknown:
                raise InvalidValue(f"unknown package(s): {', '.join(unknown)}")
        return self


def parse_bind(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise InvalidValue(f"bind must look like host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise InvalidValue(f"bind port must be an integer, got {port_text!r}") from None
    return host, port


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    data = loads_strict(raw, what=f"config file {path}")
    if not isinstance(data, dict):
        raise InvalidValue(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise InvalidValue(f"unknown config key(s): {', '.join(unknown)}")
    return data


def make_config(values: dict) -> Config:
    """A validated Config from settings keyed as the config file is; a key
    left out keeps its default."""
    config = Config()
    if "bind" in values:
        config.host, config.port = parse_bind(_as_str(values["bind"], "bind"))
    if "packages" in values:
        packages = values["packages"]
        if not isinstance(packages, list) or not all(
            isinstance(p, str) for p in packages
        ):
            raise InvalidValue("config packages must be an array of names")
        config.packages = packages
    if "store" in values:
        config.store_path = _as_str(values["store"], "store")
    if "depth" in values:
        config.depth_limit = _as_int(values["depth"], "depth")
    if "max_bytes" in values:
        config.max_bytes = _as_int(values["max_bytes"], "max_bytes")
    if "check_purity" in values:
        if not isinstance(values["check_purity"], bool):
            raise InvalidValue("config check_purity must be a boolean")
        config.check_purity = values["check_purity"]
    return config.validate()


def _as_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise InvalidValue(f"config {what} must be a string")
    return value


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"config {what} must be an integer")
    return value


@dataclass
class AppBundle:
    """Everything a server or test needs, wired together."""

    store: ResourceStore
    machine: LambdaMachine
    resolver: TemplateResolver
    engine: QueryEngine
    gateway: Gateway


def build_app(config: Optional[Config] = None) -> AppBundle:
    config = (config or Config()).validate()
    store = ResourceStore(max_bytes=config.max_bytes)
    if config.store_path and os.path.exists(config.store_path):
        store.load(config.store_path)
    machine = LambdaMachine(check_purity=config.check_purity)
    register_builtins(machine, config.packages)
    resolver = TemplateResolver(store, machine, config.depth_limit)
    engine = QueryEngine(machine, store)
    gateway = Gateway(store, machine, resolver, engine, max_bytes=config.max_bytes)
    return AppBundle(store, machine, resolver, engine, gateway)
