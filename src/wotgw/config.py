"""Configuration loading for the gateway service.

One document covers every module's keys. Two formats are accepted: a JSON
object (nested sections or flat dotted keys) and a TOML-like line format of
``section.key = value`` pairs. Device entries are validated at load so a
bad registration fails at startup, not at first request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from wotgw import cache as cache_mod
from wotgw import guard as guard_mod


class ConfigError(ValueError):
    pass


def parse_hostport(text: str) -> tuple[str, int]:
    """Split ``host:port`` into (host, port); IPv6 literals use brackets: ``[::1]:8080``."""
    text = text.strip()
    if text.startswith("["):
        end = text.find("]")
        if end < 0 or not text[end + 1 :].startswith(":"):
            raise ConfigError(f"bad address {text!r}, expected [v6addr]:port")
        host, port_text = text[1:end], text[end + 2 :]
    else:
        host, _, port_text = text.rpartition(":")
        if not host:
            raise ConfigError(f"bad address {text!r}, expected host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"bad port in {text!r}")
    if not 0 <= port <= 65535:
        raise ConfigError(f"port out of range in {text!r}")
    return host, port


def format_hostport(host: str, port: int) -> str:
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


@dataclass
class DeviceConfig:
    device_id: str
    endpoint: str
    mapping_file: str | None = None
    mapping_inline: dict | None = None
    ttl_seconds: float | None = None
    health_path: str = "/status"


@dataclass
class GatewayConfig:
    listen_v4: tuple[str, int] | None = ("127.0.0.1", 8080)
    listen_v6: tuple[str, int] | None = ("::1", 8080)
    failure_threshold: int = 3
    probe_interval_seconds: float = 10.0
    request_timeout_seconds: float = 2.0
    relay_enabled: bool = True
    cache_enabled: bool = True
    cache_max_entries: int = cache_mod.DEFAULT_MAX_ENTRIES
    cache_max_bytes: int = cache_mod.DEFAULT_MAX_BYTES
    cache_default_ttl_seconds: float = cache_mod.DEFAULT_TTL_SECONDS
    dos_rate_limit: int = guard_mod.DEFAULT_RATE_LIMIT
    dos_window_seconds: float = guard_mod.DEFAULT_WINDOW_SECONDS
    dos_repeat_limit: int = guard_mod.DEFAULT_REPEAT_LIMIT
    dos_block_seconds: float = guard_mod.DEFAULT_BLOCK_SECONDS
    dos_idle_purge_seconds: float = guard_mod.DEFAULT_IDLE_PURGE_SECONDS
    socks_listen_v4: tuple[str, int] | None = ("127.0.0.1", 1080)
    socks_listen_v6: tuple[str, int] | None = ("::1", 1080)
    socks_resolver: str = "system"  # "system" | "static:<path>"
    devices: list[DeviceConfig] = field(default_factory=list)


_LISTEN_KEYS = {
    "gateway.listen_v4": "listen_v4",
    "gateway.listen_v6": "listen_v6",
    "socks.listen_v4": "socks_listen_v4",
    "socks.listen_v6": "socks_listen_v6",
}

_SCALAR_KEYS = {
    "gateway.failure_threshold": ("failure_threshold", int),
    "gateway.probe_interval_seconds": ("probe_interval_seconds", float),
    "gateway.request_timeout_seconds": ("request_timeout_seconds", float),
    "gateway.relay_enabled": ("relay_enabled", bool),
    "gateway.cache_enabled": ("cache_enabled", bool),
    "cache.max_entries": ("cache_max_entries", int),
    "cache.max_bytes": ("cache_max_bytes", int),
    "cache.default_ttl_seconds": ("cache_default_ttl_seconds", float),
    "dos.rate_limit": ("dos_rate_limit", int),
    "dos.window_seconds": ("dos_window_seconds", float),
    "dos.repeat_limit": ("dos_repeat_limit", int),
    "dos.block_seconds": ("dos_block_seconds", float),
    "dos.idle_purge_seconds": ("dos_idle_purge_seconds", float),
    "socks.resolver": ("socks_resolver", str),
}


def load_config(path: str | Path) -> GatewayConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}")
        flat, devices = _flatten(doc)
    else:
        flat, devices = _parse_lines(text)
    return _build(flat, devices, base_dir=path.parent)


def config_from_dict(doc: dict, base_dir: str | Path = ".") -> GatewayConfig:
    flat, devices = _flatten(doc)
    return _build(flat, devices, base_dir=Path(base_dir))


def _flatten(doc: dict) -> tuple[dict, list[dict]]:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be an object")
    flat: dict[str, object] = {}
    devices: list[dict] = []
    for key, value in doc.items():
        if key == "devices":
            if not isinstance(value, list):
                raise ConfigError("devices must be a list")
            devices = value
        elif isinstance(value, dict):
            for sub, subval in value.items():
                flat[f"{key}.{sub}"] = subval
        else:
            flat[key] = value
    return flat, devices


def _parse_lines(text: str) -> tuple[dict, list[dict]]:
    """TOML-like format: ``section.key = value`` lines, '#' comments.

    Devices use ``device.<id>.<field> = value`` lines.
    """
    flat: dict[str, object] = {}
    by_device: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip().strip('"')
        if key.startswith("device."):
            parts = key.split(".", 2)
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: expected device.<id>.<field>")
            by_device.setdefault(parts[1], {"id": parts[1]})[parts[2]] = value
        else:
            flat[key] = value
    return flat, list(by_device.values())


def _coerce(value: object, kind: type) -> object:
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"expected true/false, got {value!r}")
    if kind is str:
        return str(value)
    # bool is an int to Python, and int() would drop a fraction unseen
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"expected {'a whole' if kind is int else 'a'} number, got {value!r}")
    value = kind(value)
    if not 0 <= value < math.inf:  # NaN too
        raise ConfigError(f"expected a finite number >= 0, got {value!r}")
    return value


def device_config(device_id: str, entry, base_dir: Path = Path(".")) -> DeviceConfig:
    """A device entry of a config document or an admin registration, with
    every field checked; a bad one raises ConfigError. ``mapping_file`` is
    resolved against ``base_dir``."""
    endpoint = entry.get("endpoint") if isinstance(entry, dict) else None
    if not isinstance(endpoint, str):
        raise ConfigError(f"device {device_id!r}: entry must be an object with an endpoint string")
    parse_hostport(endpoint)  # fail fast on malformed endpoints
    mapping = entry.get("mapping")
    if mapping is not None and not (
        isinstance(mapping, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items())
    ):
        raise ConfigError(f"device {device_id!r}: mapping must map strings to strings")
    mapping_file = entry.get("mapping_file")
    if mapping_file is not None:
        if not (isinstance(mapping_file, str) and (base_dir / mapping_file).is_file()):
            raise ConfigError(f"device {device_id!r}: mapping file not found: {mapping_file!r}")
        mapping_file = str(base_dir / mapping_file)
    ttl = entry.get("ttl_seconds")
    if ttl is not None:
        try:
            ttl = math.nan if isinstance(ttl, bool) else float(ttl)
        except (TypeError, ValueError, OverflowError):
            ttl = math.nan
        if not 0 <= ttl < math.inf:  # NaN too
            raise ConfigError(f"device {device_id!r}: ttl_seconds must be a finite number >= 0")
    return DeviceConfig(
        device_id=device_id,
        endpoint=endpoint,
        mapping_file=mapping_file,
        mapping_inline=mapping,
        ttl_seconds=ttl,
        health_path=entry.get("health_path", "/status"),
    )


def _build(flat: dict, devices: list[dict], base_dir: Path) -> GatewayConfig:
    cfg = GatewayConfig(devices=[])
    for key, value in flat.items():
        if key in _LISTEN_KEYS:
            if value in (None, "", "none", "off"):
                setattr(cfg, _LISTEN_KEYS[key], None)
            else:
                setattr(cfg, _LISTEN_KEYS[key], parse_hostport(str(value)))
        elif key in _SCALAR_KEYS:
            attr, kind = _SCALAR_KEYS[key]
            try:
                setattr(cfg, attr, _coerce(value, kind))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    for entry in devices:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"device entry needs id and endpoint: {entry!r}")
        cfg.devices.append(device_config(str(entry["id"]), entry, base_dir))
    if cfg.socks_resolver != "system":
        if not cfg.socks_resolver.startswith("static:"):
            raise ConfigError(f"socks.resolver must be 'system' or 'static:<path>'")
        # like a mapping_file, the table's path is relative to the config's directory
        cfg.socks_resolver = f"static:{base_dir / cfg.socks_resolver.removeprefix('static:')}"
    return cfg
