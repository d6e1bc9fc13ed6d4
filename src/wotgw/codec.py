"""JSON key coding/decoding driven by a long-name <-> short-code dictionary.

Object keys equal to a dictionary long name are replaced by the short code
on the device-bound path and restored on the client-bound path. Values are
never rewritten.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

_EMPTY = frozenset()


def active_kernel() -> str:
    """Name of the key-rewrite implementation; there is only the pure-Python one."""
    return "pure"  # kept: perfbench/run.py records it in every benchmark report


class MappingError(ValueError):
    """Malformed mapping document or broken dictionary invariant."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class KeyCollisionError(ValueError):
    """A document key equals an existing short code, so encoding would not round-trip."""

    def __init__(self, path: str, key: str):
        self.path = path or "/"
        super().__init__(f"key {key!r} at {self.path!r} collides with a short code")
        self.key = key


class MappingDictionary:
    """Bijective long-name <-> short-code table.

    Validated on construction: nonempty keys, pairwise distinct long names,
    pairwise distinct short codes, and no short code equal to any long name
    (that would make decoding ambiguous). Immutable after construction and
    safe to share across threads.
    """

    __slots__ = ("name", "entries", "to_short", "to_long", "short_codes")

    def __init__(self, entries: Iterable[tuple[str, str]], name: str = "unnamed"):
        entries = tuple((long, short) for long, short in entries)
        validate_entries(entries)
        self.name = name
        self.entries = entries
        self.to_short = {long: short for long, short in entries}
        self.to_long = {short: long for long, short in entries}
        self.short_codes = frozenset(self.to_long)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"MappingDictionary({self.name!r}, {len(self.entries)} entries)"


def validate_entries(entries, lines=None) -> None:
    """Check dictionary invariants; ``lines`` maps entry index -> source line."""

    def line(i):
        return lines[i] if lines else None

    longs: dict[str, int] = {}
    shorts: dict[str, int] = {}
    for i, (long, short) in enumerate(entries):
        if not long or not short:
            raise MappingError("empty key in mapping entry", line(i))
        if long in longs:
            raise MappingError(f"duplicate long name {long!r}", line(i))
        if short in shorts:
            raise MappingError(f"duplicate short code {short!r}", line(i))
        longs[long] = i
        shorts[short] = i
    for short, i in shorts.items():
        if short in longs:
            raise MappingError(
                f"short code {short!r} collides with a long name", line(i)
            )


EMPTY_MAPPING = MappingDictionary((), name="empty")


def load_mapping(source: str, name: str = "unnamed") -> MappingDictionary:
    """Load a mapping document, auto-detecting the JSON-object or line format."""
    if source.lstrip()[:1] == "{":
        return load_mapping_json(source, name)
    return load_mapping_text(source, name)


def load_mapping_text(source: str, name: str = "unnamed") -> MappingDictionary:
    """Parse the line format: ``long_name<TAB or space>short_code`` per line.

    '#' starts a comment line, blank lines are ignored. Errors report the
    offending line number.
    """
    entries: list[tuple[str, str]] = []
    lines: list[int] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t") if "\t" in stripped else stripped.split()
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) != 2:
            raise MappingError(
                f"expected 'long_name short_code', got {stripped!r}", lineno
            )
        entries.append((parts[0], parts[1]))
        lines.append(lineno)
    validate_entries(entries, lines)
    return MappingDictionary(entries, name)


def load_mapping_json(source: str, name: str = "unnamed") -> MappingDictionary:
    """Parse the JSON-object format: ``{"long_name": "short_code", ...}``."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise MappingError(f"invalid JSON mapping document: {exc}", exc.lineno)
    if not isinstance(doc, dict):
        raise MappingError("JSON mapping document must be an object")
    for long, short in doc.items():
        if not isinstance(short, str):
            raise MappingError(f"short code for {long!r} must be a string")
    return MappingDictionary(tuple(doc.items()), name)


def load_mapping_file(path: str, name: str | None = None) -> MappingDictionary:
    with open(path, encoding="utf-8") as fh:
        return load_mapping(fh.read(), name or path)


def encode_keys(doc: Any, mapping: MappingDictionary) -> Any:
    """Replace long-name object keys with short codes, recursively.

    Rejects documents containing a key equal to any short code: silently
    double-mapping such a key would break the round trip.
    """
    try:
        return _rewrite_keys(doc, mapping.to_short, mapping.short_codes)
    except ValueError as exc:
        key = exc.args[0]
        raise KeyCollisionError(_find_key_path(doc, key, mapping.short_codes), key)


def decode_keys(doc: Any, mapping: MappingDictionary) -> Any:
    """Replace short-code object keys with their long names; unknown keys pass through."""
    return _rewrite_keys(doc, mapping.to_long, _EMPTY)


def _rewrite_keys(value: Any, table: dict, forbidden: frozenset) -> Any:
    """Return a copy of ``value`` with every object key mapped through ``table``.

    Keys absent from ``table`` are kept as-is. A key present in ``forbidden``
    raises ValueError carrying the offending key (the caller renders the
    path). Lists and objects are rebuilt, leaf values are shared.
    """
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            if key in forbidden:
                raise ValueError(key)
            out[table.get(key, key)] = _rewrite_keys(sub, table, forbidden)
        return out
    if isinstance(value, list):
        return [_rewrite_keys(item, table, forbidden) for item in value]
    return value


def _find_key_path(value: Any, key: str, forbidden: frozenset, path: str = "") -> str:
    """Locate the first occurrence of a forbidden key, for error reporting."""
    if isinstance(value, dict):
        for k, sub in value.items():
            here = f"{path}/{k}"
            if k in forbidden:
                return here
            found = _find_key_path(sub, key, forbidden, here)
            if found:
                return found
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found = _find_key_path(item, key, forbidden, f"{path}/{i}")
            if found:
                return found
    return ""


# --- canonical serialization -------------------------------------------------
#
# The standard library's C encoder writes both forms. Minified, insertion-
# ordered bytes are the wire and byte-count basis; the key-sorted variant
# feeds digests so that whitespace and key order do not split cache keys.
# Numbers are re-emitted in Python's shortest round-trip form: each keeps its
# IEEE-754 value but not its spelling (0.50 -> 0.5, 1E2 -> 100.0). Encoding
# raises ValueError for a non-finite number or a lone surrogate, and
# TypeError for a value JSON has no form for.

_OPTIONS = dict(separators=(",", ":"), ensure_ascii=False, allow_nan=False)
_MIN = json.JSONEncoder(**_OPTIONS)
_SORTED = json.JSONEncoder(sort_keys=True, **_OPTIONS)


def parse_json(data: bytes | str) -> Any:
    """Parse a JSON document from UTF-8 bytes or a str."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    return json.loads(data)


def canonical_bytes(value: Any) -> bytes:
    """Minified serialization, object keys in insertion order."""
    return _MIN.encode(value).encode("utf-8")


def digest_value(value: Any) -> str:
    """Digest of the key-sorted minified serialization."""
    return hashlib.sha256(_SORTED.encode(value).encode("utf-8")).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_size_delta(original: Any, coded: Any) -> tuple[int, int]:
    """Byte lengths (before, after) of the minified serializations."""
    return len(canonical_bytes(original)), len(canonical_bytes(coded))
