"""In-memory response cache: TTL expiry plus LRU eviction under entry/byte caps.

Keys identify a device request (device, method, path, canonical body digest);
entries hold the decoded, client-facing response. Only success-class
responses are stored. The clock is injected by callers so tests are
deterministic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from wotgw import codec

DEFAULT_MAX_ENTRIES = 1024
DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_TTL_SECONDS = 5.0

# parse_body's answer for an empty or non-JSON body, which is digested raw.
NOT_JSON = object()
_UNPARSED = object()


def parse_body(body: bytes) -> Any:
    """The request body's JSON document, or NOT_JSON."""
    if body:
        try:
            return codec.parse_json(body)
        except (ValueError, TypeError):
            pass
    return NOT_JSON


@dataclass(frozen=True)
class CacheKey:
    device_id: str
    method: str
    path: str
    body_digest: str

    @classmethod
    def for_request(
        cls, device_id: str, method: str, path: str, body: bytes, doc: Any = _UNPARSED
    ) -> "CacheKey":
        """Build a key whose body digest ignores JSON whitespace and key order.

        ``doc`` is ``parse_body(body)`` when the caller has it already.
        """
        if doc is _UNPARSED:
            doc = parse_body(body)
        try:
            digest = codec.digest_bytes(body) if doc is NOT_JSON else codec.digest_value(doc)
        except (ValueError, TypeError):
            digest = codec.digest_bytes(body)
        return cls(device_id, method.upper(), path, digest)


@dataclass
class CacheEntry:
    status: int
    body: bytes
    stored_at: float
    ttl: float

    @property
    def size(self) -> int:
        return len(self.body)

    def fresh(self, now: float) -> bool:
        return now < self.stored_at + self.ttl


class ResponseCache:
    """Thread-safe TTL+LRU cache bounded by entry count and total bytes."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        default_ttl: float = DEFAULT_TTL_SECONDS,
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.default_ttl = default_ttl
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: CacheKey, now: float) -> CacheEntry | None:
        """Return the fresh entry for ``key`` or None; a hit refreshes recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if not entry.fresh(now):
                del self._entries[key]
                self._bytes -= entry.size
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> bool:
        """Store a success-class entry, evicting LRU residents to fit.

        Returns False (rejected, not an error) for non-2xx entries and for
        entries that alone exceed the byte capacity.
        """
        if not 200 <= entry.status < 300:
            return False
        if entry.size > self.max_bytes or self.max_entries < 1:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.size
            self._entries[key] = entry
            self._bytes += entry.size
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.size
                self.evictions += 1
            return True

    def invalidate_device(self, device_id: str) -> int:
        """Drop every entry for ``device_id``; returns the number removed."""
        with self._lock:
            doomed = [k for k in self._entries if k.device_id == device_id]
            for k in doomed:
                self._bytes -= self._entries.pop(k).size
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def byte_count(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": self.hits / total if total else 0.0,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
