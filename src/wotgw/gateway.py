"""The gateway web server: guard -> cache -> codec -> forward -> decode.

Client requests for /devices/{id}/... run the pipeline against registered
devices. The coded (short-key) JSON form exists only on the gateway-device
leg; clients always see long keys. When the client-facing listener's address
family differs from the device's, forwarding goes through the SOCKS relay;
matching families connect directly. Device-leg connections are persistent
HTTP/1.1 and pooled per device and leg, so a relay tunnel carries many
requests. Devices that stop answering are reported with a 503 outage body and
probed back to health. Both legs speak HTTP/1.1 through the framer of
``wotgw.http11``, whose ``read_head`` parses every request and reply head.
"""

from __future__ import annotations

import ipaddress
import json
import logging
import math
import select
import socket
import threading
import time
from dataclasses import dataclass, field

from wotgw import codec, http11
from wotgw.cache import NOT_JSON, CacheEntry, CacheKey, ResponseCache, parse_body
from wotgw.config import DeviceConfig, GatewayConfig, format_hostport, parse_hostport
from wotgw.guard import DosGuard
from wotgw.socks import (
    FAMILY_V4,
    FAMILY_V6,
    Candidate,
    ResolverPolicy,
    SocksError,
    SocksRelayServer,
    load_static_table,
    socks_connect,
)

log = logging.getLogger("wotgw.gateway")

HEALTH_UNKNOWN = "unknown"
HEALTH_UP = "up"
HEALTH_DOWN = "down"

_AF = {FAMILY_V4: socket.AF_INET, FAMILY_V6: socket.AF_INET6}

# Idle keep-alive connections kept per device and leg; more are closed after use.
POOL_MAX_IDLE = 2
# An idle connection older than this is closed rather than reused; well below
# the relay's idle timeout, so a pooled tunnel is never cut under a request.
POOL_IDLE_SECONDS = 10.0
# Methods retried once on a fresh connection when a reused one dies before
# answering (RFC 9112 section 9.3.1); never POST.
_RETRYABLE_METHODS = frozenset(("GET", "HEAD"))
# Methods whose device-leg request carries Content-Length even when empty.
_BODY_METHODS = frozenset(("POST", "PUT", "PATCH"))


class DuplicateDeviceError(ValueError):
    pass


class DeviceUnavailable(Exception):
    """Connect or read failure talking to the device."""


class DeviceTimeout(DeviceUnavailable):
    pass


class _Unanswered(DeviceUnavailable):
    """The connection failed before any response byte arrived."""


class DeviceProtocolError(Exception):
    """The device answered, but not with parseable HTTP/JSON."""


class _DeviceConn:
    """A device-leg connection: its socket and the bytes read past the last reply."""

    __slots__ = ("sock", "_buf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def pending(self) -> bool:
        """True when bytes past the last reply were read."""
        return bool(self._buf)

    def fill(self) -> bool:
        """Receive more bytes into the buffer; False at EOF."""
        data = self.sock.recv(65536)
        self._buf += data
        return bool(data)

    def readline(self, limit: int) -> bytes:
        """The next line, at most ``limit`` bytes of it; shorter at EOF."""
        buf = self._buf
        while True:
            end = buf.find(b"\n", 0, limit)
            if end >= 0:
                cut = end + 1
                break
            if len(buf) >= limit or not self.fill():
                cut = limit
                break
        line = bytes(buf[:cut])
        del buf[:cut]
        return line

    def read(self, n: int) -> bytes:
        """Exactly ``n`` bytes; raises EOFError when the device closes first."""
        while len(self._buf) < n:
            if not self.fill():
                raise EOFError(f"device closed {n - len(self._buf)} bytes short of the body")
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def read_to_eof(self) -> bytes:
        while self.fill():
            pass
        data = bytes(self._buf)
        self._buf.clear()
        return data

    def read_chunked(self) -> bytes:
        """A chunked body (RFC 9112 section 7.1); trailer fields are dropped."""
        parts = []
        while True:
            line = self.readline(http11.MAX_LINE + 1)
            if line[-1:] != b"\n":
                if len(line) > http11.MAX_LINE:
                    raise http11.FramingError(502, "chunk size line too long")
                raise EOFError("device closed inside a chunk size line")
            size = line.partition(b";")[0].strip()
            if not size or len(size) > 15 or size.strip(b"0123456789abcdefABCDEF"):
                raise http11.FramingError(502, "bad chunk size")
            n = int(size, 16)
            if n == 0:
                http11.read_fields(self.readline)
                return b"".join(parts)
            parts.append(self.read(n))
            if self.read(2) != b"\r\n":
                raise http11.FramingError(502, "chunk not followed by CRLF")


def _read_reply(conn: _DeviceConn, method: str) -> tuple[int, str, bytes, bool]:
    """Read one device reply: (status, content type, body, reusable).

    1xx interim replies are skipped. A reply ends at its Content-Length, at
    its last chunk, or at EOF. The connection is reusable only after an
    HTTP/1.1 reply framed by length or chunks and without Connection: close.
    """
    while True:
        head = http11.read_head(conn.readline)
        if head is None:
            raise EOFError("device closed the connection inside its reply")
        start, headers = head
        version, _, rest = start.partition(" ")
        code = rest[:3]
        if (
            not http11.VERSION.fullmatch(version)
            or not version.startswith("HTTP/1.")
            or not (code.isascii() and code.isdigit())
            or rest[3:4] not in ("", " ")
            or code < "100"
        ):
            raise http11.FramingError(502, f"bad status line {start[:80]!r}")
        status = int(code)
        if status >= 200:
            break
    connection = headers.get("connection")
    keep = version != "HTTP/1.0" and not (connection and "close" in http11.tokens(connection))
    encoding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if method == "HEAD" or status in (204, 304):
        data = b""
    elif encoding is not None and http11.tokens(encoding)[-1] == "chunked":
        data = conn.read_chunked()
        keep = keep and length is None  # both framings: RFC 9112 section 6.1 says close
    elif encoding is None and length is not None:
        if not (length.isascii() and length.isdigit()) or len(length) > 15:
            raise http11.FramingError(502, f"bad Content-Length {length[:80]!r}")
        data = conn.read(int(length))
    else:
        data, keep = conn.read_to_eof(), False
    return status, headers.get("content-type", "application/json"), data, keep


def _readable(sock: socket.socket) -> bool:
    """True when a read would not block: EOF, an error, or unread bytes."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class IdlePool:
    """Idle keep-alive connections to one device, LIFO per leg, capped.

    Nothing blocks on the pool: ``take`` returns None when no live idle
    connection is left and the caller opens a new one. Once closed, the pool
    closes whatever is handed back to it.
    """

    def __init__(self):
        self._idle: dict[tuple, list[tuple[_DeviceConn, float]]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def take(self, leg: tuple, now: float) -> tuple[_DeviceConn | None, int]:
        """Pop a live idle connection; also returns how many dead ones were closed."""
        discarded = 0
        while True:
            with self._lock:
                idle = self._idle.get(leg)
                if not idle:
                    return None, discarded
                conn, since = idle.pop()
            if now - since <= POOL_IDLE_SECONDS and not _readable(conn.sock):
                return conn, discarded
            conn.close()
            discarded += 1

    def give(self, leg: tuple, conn: _DeviceConn, now: float) -> bool:
        """Keep ``conn`` for reuse, or close it when the pool is full or closed."""
        with self._lock:
            idle = self._idle.setdefault(leg, [])
            if not self._closed and len(idle) < POOL_MAX_IDLE:
                idle.append((conn, now))
                return True
        conn.close()
        return False

    def sweep(self, now: float) -> int:
        """Close idle connections past their age limit; returns how many."""
        return self._drop(lambda since: now - since > POOL_IDLE_SECONDS)

    def close(self) -> int:
        """Close every idle connection and refuse later ones; returns how many."""
        with self._lock:
            self._closed = True
        return self._drop(lambda since: True)

    def _drop(self, expired) -> int:
        with self._lock:
            dropped = []
            for idle in self._idle.values():
                dropped += [conn for conn, since in idle if expired(since)]
                idle[:] = [(conn, since) for conn, since in idle if not expired(since)]
        for conn in dropped:
            conn.close()
        return len(dropped)


@dataclass
class DeviceRecord:
    device_id: str
    host: str
    port: int
    family: str | None  # v4 | v6 | None until resolved
    mapping: codec.MappingDictionary
    ttl: float | None = None
    health: str = HEALTH_UNKNOWN
    health_path: str = "/status"
    last_probe: float | None = None
    consecutive_failures: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    pool: IdlePool = field(default_factory=IdlePool, repr=False)

    def describe(self) -> dict:
        return {
            "device_id": self.device_id,
            "endpoint": f"[{self.host}]:{self.port}" if ":" in self.host else f"{self.host}:{self.port}",
            "family": self.family or "unknown",
            "health": self.health,
            "last_probe": self.last_probe,
            "consecutive_failures": self.consecutive_failures,
            "mapping": self.mapping.name,
        }


class DeviceRegistry:
    def __init__(self):
        self._devices: dict[str, DeviceRecord] = {}
        self._lock = threading.Lock()

    def swap(self, record: DeviceRecord, replace: bool = False) -> DeviceRecord | None:
        """Add a device; returns the record it replaced, if any."""
        with self._lock:
            previous = self._devices.get(record.device_id)
            if previous is not None and not replace:
                raise DuplicateDeviceError(record.device_id)
            self._devices[record.device_id] = record
            return previous

    def get(self, device_id: str) -> DeviceRecord | None:
        with self._lock:
            return self._devices.get(device_id)

    def all(self) -> list[DeviceRecord]:
        with self._lock:
            return list(self._devices.values())


def _normalize_client_ip(host: str) -> str:
    try:
        addr = ipaddress.ip_address(host.split("%")[0])
    except ValueError:
        return host
    mapped = getattr(addr, "ipv4_mapped", None)
    return (mapped or addr).compressed


class _Flight:
    """One in-progress forward that identical concurrent requests wait on."""

    __slots__ = ("done", "response")

    def __init__(self):
        self.done = threading.Event()
        self.response = None


class Gateway:
    """Pipeline state shared by all listeners: registry, cache, guard, relay."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.registry = DeviceRegistry()
        self.cache = ResponseCache(
            max_entries=config.cache_max_entries,
            max_bytes=config.cache_max_bytes,
            default_ttl=config.cache_default_ttl_seconds,
        )
        self.guard = DosGuard(
            rate_limit=config.dos_rate_limit,
            window_seconds=config.dos_window_seconds,
            repeat_limit=config.dos_repeat_limit,
            block_seconds=config.dos_block_seconds,
            idle_purge_seconds=config.dos_idle_purge_seconds,
        )
        self.resolver = self._build_resolver(config.socks_resolver)
        self.relay: SocksRelayServer | None = None
        if config.relay_enabled:
            self.relay = SocksRelayServer(
                listen_v4=config.socks_listen_v4,
                listen_v6=config.socks_listen_v6,
                resolver=self.resolver,
                connect_timeout=config.request_timeout_seconds,
            )
        self._servers: dict[str, _GatewayServer] = {}
        self._prober: threading.Thread | None = None
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self.requests_total = 0
        self.client_leg_bytes = 0
        self.device_leg_bytes = 0
        self.pool_counts = {"opened": 0, "reused": 0, "discarded": 0}
        self._inflight: dict[CacheKey, _Flight] = {}
        self._inflight_lock = threading.Lock()

    @staticmethod
    def _build_resolver(spec: str) -> ResolverPolicy:
        if spec == "system":
            return ResolverPolicy()
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            return ResolverPolicy(static_table=load_static_table(fh.read()))

    # -- lifecycle --

    def start(self) -> "Gateway":
        """Start the relay, the HTTP listeners and the prober; a start that
        fails stops whatever it started before raising."""
        for cfg in self.config.devices:
            self.register_device_config(cfg)
        try:
            if self.relay is not None:
                self.relay.start()
            for family, spec in ((FAMILY_V4, self.config.listen_v4), (FAMILY_V6, self.config.listen_v6)):
                if spec is None:
                    continue
                server = self._servers[family] = _GatewayServer(spec, self, family)
                server.start(f"gateway-http-{family}")
            if not self._servers:
                raise ValueError("gateway needs at least one HTTP listener")
        except BaseException:
            self.stop()
            raise
        if self.config.probe_interval_seconds > 0:
            self._prober = threading.Thread(target=self._probe_loop, name="gateway-prober", daemon=True)
            self._prober.start()
        log.info(
            "gateway ready listen_v4=%s listen_v6=%s relay=%s",
            self.listen_address(FAMILY_V4),
            self.listen_address(FAMILY_V6),
            "on" if self.relay else "off",
        )
        return self

    def stop(self) -> None:
        """Close the listeners and every client connection, the device-leg
        pools and the relay."""
        self._stop.set()
        for server in self._servers.values():
            server.stop()
        self._servers.clear()
        if self._prober:
            self._prober.join(timeout=5)
        for record in self.registry.all():
            self._count_pool("discarded", record.pool.close())
        if self.relay is not None:
            self.relay.stop()

    def listen_address(self, family: str) -> tuple[str, int] | None:
        server = self._servers.get(family)
        return server.server_address[:2] if server else None

    # -- registration --

    def register_device_config(self, cfg: DeviceConfig, replace: bool = False) -> DeviceRecord:
        host, port, family = parse_hostport(cfg.endpoint)
        if cfg.mapping_file is not None:
            mapping = codec.load_mapping_file(cfg.mapping_file, name=cfg.device_id)
        elif cfg.mapping_inline is not None:
            mapping = codec.MappingDictionary(
                tuple(cfg.mapping_inline.items()), name=cfg.device_id
            )
        else:
            mapping = codec.EMPTY_MAPPING
        record = DeviceRecord(
            device_id=cfg.device_id,
            host=host,
            port=port,
            family=family,
            mapping=mapping,
            ttl=cfg.ttl_seconds,
            health_path=cfg.health_path,
        )
        self.register_device(record, replace=replace)
        return record

    def register_device(self, record: DeviceRecord, replace: bool = False) -> None:
        previous = self.registry.swap(record, replace=replace)
        if previous is not None:
            self.cache.invalidate_device(record.device_id)
            if previous is not record:
                self._count_pool("discarded", previous.pool.close())
        log.info("registered device id=%s endpoint=%s:%s family=%s",
                 record.device_id, record.host, record.port, record.family or "unknown")

    # -- health --

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval_seconds):
            now = time.monotonic()
            for record in self.registry.all():
                try:
                    self.probe_device(record.device_id)
                except Exception:
                    log.exception("probe failed for %s", record.device_id)
                self._count_pool("discarded", record.pool.sweep(now))

    def probe_device(self, device_id: str) -> str:
        """Issue the device's health request and update its health state."""
        record = self.registry.get(device_id)
        if record is None:
            raise KeyError(device_id)
        try:
            status, _, _ = self.forward_to_device(record, "GET", record.health_path, b"", None)
            ok = 200 <= status < 300
        except (DeviceUnavailable, DeviceProtocolError):
            ok = False
        return self._note_health(record, ok, probed=True)

    def _note_health(self, record: DeviceRecord, ok: bool, probed: bool = False) -> str:
        """Apply one probe or forward outcome to the device's health state."""
        with record.lock:
            if probed:
                record.last_probe = time.monotonic()
            if ok:
                record.consecutive_failures = 0
                record.health = HEALTH_UP
            else:
                record.consecutive_failures += 1
                if record.health == HEALTH_UNKNOWN or (
                    record.health == HEALTH_UP
                    and record.consecutive_failures >= self.config.failure_threshold
                ):
                    record.health = HEALTH_DOWN
            return record.health

    # -- forwarding --

    def _candidates(self, record: DeviceRecord) -> list[Candidate]:
        if record.family is not None:
            return [Candidate(record.family, record.host, record.port)]
        from wotgw.socks import SocksConnectRequest, resolve_target

        try:
            candidates = resolve_target(
                SocksConnectRequest("domain", record.host, record.port), self.resolver
            )
        except SocksError as exc:
            raise DeviceUnavailable(str(exc))
        record.family = candidates[0].family if len({c.family for c in candidates}) == 1 else record.family
        return candidates

    def _connect_direct(self, candidates: list[Candidate], timeout: float) -> socket.socket:
        last: Exception = DeviceUnavailable("no candidates")
        for cand in candidates:
            sock = socket.socket(_AF[cand.family], socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(timeout)
            try:
                sock.connect((cand.address, cand.port))
                return sock
            except OSError as exc:
                sock.close()
                last = exc
        raise DeviceUnavailable(f"connect failed: {last}")

    def _leg(self, record: DeviceRecord, listener_family: str | None):
        """The pool key of the device leg and a function opening a new socket.

        Candidates of the listener's family (any family when it is None, as
        for health probes) are reached directly; otherwise through the relay.
        """
        candidates = self._candidates(record)
        timeout = self.config.request_timeout_seconds
        direct = [c for c in candidates if listener_family in (None, c.family)]
        if direct:
            return ("direct", listener_family), lambda: self._connect_direct(direct, timeout)
        if self.relay is None:
            raise DeviceUnavailable(
                f"device {record.device_id} is {candidates[0].family}-only, "
                f"client leg is {listener_family}, and the relay is disabled"
            )
        relay_addr = self.relay.listen_address(listener_family) or next(
            addr
            for addr in (
                self.relay.listen_address(FAMILY_V4),
                self.relay.listen_address(FAMILY_V6),
            )
            if addr is not None
        )

        def tunnel() -> socket.socket:
            try:
                return socks_connect(relay_addr, record.host, record.port, timeout)
            except (SocksError, OSError) as exc:
                raise DeviceUnavailable(f"relay connect failed: {exc}")

        return ("relay", relay_addr), tunnel

    def forward_to_device(
        self,
        record: DeviceRecord,
        method: str,
        path: str,
        body: bytes,
        listener_family: str | None,
    ) -> tuple[int, str, bytes]:
        """Send the coded request to the device, directly or through the relay.

        Uses a pooled keep-alive connection of the leg when a live one is
        idle. A GET or HEAD whose reused connection dies before any response
        byte is sent once more on a new connection. Returns (status,
        content_type, body). Raises DeviceTimeout, DeviceUnavailable, or
        DeviceProtocolError.
        """
        leg, connect = self._leg(record, listener_family)
        conn, discarded = record.pool.take(leg, time.monotonic())
        self._count_pool("discarded", discarded)
        request = self._request_bytes(record, method, path, body)
        while True:
            reused = conn is not None
            if reused:
                self._count_pool("reused")
            else:
                conn = _DeviceConn(connect())
                self._count_pool("opened")
            try:
                status, content_type, data, keep = self._exchange(conn, request, method)
            except _Unanswered:
                conn.close()
                if reused and method in _RETRYABLE_METHODS:
                    self._count_pool("discarded")
                    conn = None
                    continue
                raise
            except BaseException:
                conn.close()
                raise
            if not keep:
                conn.close()
            elif conn.pending():  # bytes past the reply: the stream is out of step
                conn.close()
                self._count_pool("discarded")
            elif not record.pool.give(leg, conn, time.monotonic()):
                self._count_pool("discarded")
            return status, content_type, data

    @staticmethod
    def _request_bytes(record: DeviceRecord, method: str, path: str, body: bytes) -> bytes:
        head = f"{method} {path} HTTP/1.1\r\nHost: {format_hostport(record.host, record.port)}\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        elif method in _BODY_METHODS:
            head += "Content-Length: 0\r\n"
        return head.encode("latin-1") + b"\r\n" + body

    @staticmethod
    def _exchange(conn: _DeviceConn, request: bytes, method: str):
        try:
            try:
                conn.sock.sendall(request)
                if not conn.fill():
                    raise _Unanswered("device closed the connection without answering")
            except ConnectionError as exc:
                raise _Unanswered(f"device connection failed: {exc}")
            return _read_reply(conn, method)
        except TimeoutError as exc:
            raise DeviceTimeout(f"device timed out: {exc}")
        except (OSError, EOFError) as exc:
            # a device that died mid-reply is unavailable, not a protocol error
            raise DeviceUnavailable(f"device connection failed: {exc}")
        except http11.FramingError as exc:
            raise DeviceProtocolError(f"malformed HTTP from device: {exc}")

    def _count_pool(self, name: str, n: int = 1) -> None:
        if n:
            with self._stats_lock:
                self.pool_counts[name] += n

    # -- the pipeline --

    def handle_client_request(
        self,
        client_ip: str,
        listener_family: str,
        method: str,
        path: str,
        headers,
        body: bytes,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        now = time.monotonic()
        with self._stats_lock:
            self.requests_total += 1

        body_digest = codec.digest_bytes(body)
        request_digest = codec.digest_bytes(
            f"{method}\n{path}\n{body_digest}".encode("utf-8")
        )
        decision = self.guard.record_and_check(client_ip, request_digest, now)
        if not decision.allowed:
            retry = max(1, math.ceil(decision.retry_after or 1))
            return self._json_response(
                429,
                {"error": "rate_limited", "reason": decision.reason},
                extra=[("Retry-After", str(retry))],
            )

        parts = path.split("/", 3)
        if len(parts) < 4 or parts[1] != "devices" or not parts[2]:
            return self._json_response(404, {"error": "not_found"})
        device_id, device_path = parts[2], "/" + parts[3]
        record = self.registry.get(device_id)
        if record is None:
            return self._json_response(404, {"error": "unknown_device", "device": device_id})

        if record.health == HEALTH_DOWN:
            return self._outage_response(record)

        doc = parse_body(body)
        cache_control = (headers.get("Cache-Control") or headers.get("Pragma") or "").lower()
        bypass = "no-cache" in cache_control
        key = None  # set only when the request is cacheable
        if self.config.cache_enabled and (
            method == "GET" or (method == "POST" and doc is not NOT_JSON)
        ):
            key = CacheKey.for_request(device_id, method, device_path, body, doc)

        flight: _Flight | None = None
        if key is not None and not bypass:
            entry = self.cache.get(key, time.monotonic())
            if entry is not None:
                return self._device_response(record, entry.status, entry.body, "hit", count_client=len(body))
            flight = self._claim_inflight(key)
            if flight is None:
                # another handler is already forwarding this key: share its answer
                shared = self._await_inflight(key)
                if shared is not None:
                    status, headers, payload = shared
                    if ("X-WoT-Cache", "miss") not in headers:
                        return shared  # an outage or protocol error, passed on as is
                    return self._device_response(record, status, payload, "hit", count_client=len(body))
        try:
            response = self._forward_pipeline(
                record, method, device_path, body, doc, listener_family, key
            )
            if flight is not None:
                flight.response = response
            return response
        finally:
            if flight is not None:
                self._release_inflight(key, flight)

    def _claim_inflight(self, key: CacheKey) -> _Flight | None:
        with self._inflight_lock:
            if key in self._inflight:
                return None
            flight = self._inflight[key] = _Flight()
            return flight

    def _await_inflight(self, key: CacheKey):
        """The response of the request filling ``key``; None if it failed or took too long."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
        if flight is None or not flight.done.wait(self.config.request_timeout_seconds + 1.0):
            return None
        return flight.response

    def _release_inflight(self, key: CacheKey, flight: _Flight) -> None:
        with self._inflight_lock:
            self._inflight.pop(key, None)
        flight.done.set()

    def _forward_pipeline(
        self,
        record: DeviceRecord,
        method: str,
        device_path: str,
        body: bytes,
        doc,
        listener_family: str,
        key: CacheKey | None,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        body_out = body
        if doc is not NOT_JSON:
            try:
                body_out = codec.canonical_bytes(codec.encode_keys(doc, record.mapping))
            except ValueError as exc:  # a key collision, a non-finite number, a lone surrogate
                return self._json_response(
                    400, {"error": "bad_body", "device": record.device_id, "detail": str(exc)},
                    device=record,
                )

        try:
            status, content_type, raw = self.forward_to_device(
                record, method, device_path, body_out, listener_family
            )
        except DeviceTimeout:
            self._note_health(record, False)
            return self._outage_response(record, status=504, label="device_timeout")
        except DeviceUnavailable:
            self._note_health(record, False)
            return self._outage_response(record)
        except DeviceProtocolError as exc:
            return self._json_response(
                502, {"error": "device_protocol_error", "device": record.device_id, "detail": str(exc)},
                device=record,
            )
        self._note_health(record, True)
        with self._stats_lock:
            self.device_leg_bytes += len(body_out) + len(raw)

        decoded = raw
        if raw:
            try:
                decoded_value = codec.decode_keys(codec.parse_json(raw), record.mapping)
                decoded = codec.canonical_bytes(decoded_value)
            except (ValueError, TypeError):
                if 200 <= status < 300:
                    return self._json_response(
                        502,
                        {"error": "device_protocol_error", "device": record.device_id,
                         "detail": "unparseable device response body"},
                        device=record,
                    )
                # non-2xx with a non-JSON body passes through untouched

        if key is not None and 200 <= status < 300:
            ttl = record.ttl if record.ttl is not None else self.cache.default_ttl
            self.cache.put(key, CacheEntry(status, decoded, time.monotonic(), ttl))

        return self._device_response(record, status, decoded, "miss", count_client=len(body))

    # -- response helpers --

    def _outage_response(self, record: DeviceRecord, status: int = 503, label: str = "device_unavailable"):
        return self._json_response(
            status, {"status": label, "device": record.device_id}, device=record
        )

    def _json_response(self, status, value, extra=None, device=None, cache_state=None):
        body = codec.canonical_bytes(value)
        headers = [("Content-Type", "application/json")]
        if device is not None:
            headers.append(("X-WoT-Device", device.device_id))
        if cache_state is not None:
            headers.append(("X-WoT-Cache", cache_state))
        if extra:
            headers.extend(extra)
        return status, headers, body

    def _device_response(self, record, status, body: bytes, cache_state: str, count_client: int = 0):
        with self._stats_lock:
            self.client_leg_bytes += count_client + len(body)
        headers = [
            ("Content-Type", "application/json"),
            ("X-WoT-Device", record.device_id),
            ("X-WoT-Cache", cache_state),
        ]
        return status, headers, body

    # -- admin --

    def admin_request(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/admin/devices":
            return self._json_response(
                200, {"devices": [r.describe() for r in self.registry.all()]}
            )
        if method == "GET" and path == "/admin/stats":
            return self._json_response(200, self.stats())
        if method == "PUT" and path.startswith("/admin/devices/"):
            device_id = path[len("/admin/devices/") :]
            if not device_id or "/" in device_id:
                return self._json_response(404, {"error": "not_found"})
            try:
                doc = json.loads(body or b"{}")
                cfg = DeviceConfig(
                    device_id=device_id,
                    endpoint=doc["endpoint"],
                    mapping_file=doc.get("mapping_file"),
                    mapping_inline=doc.get("mapping"),
                    ttl_seconds=doc.get("ttl_seconds"),
                    health_path=doc.get("health_path", "/status"),
                )
                self.register_device_config(cfg, replace=bool(doc.get("replace", False)))
            except DuplicateDeviceError:
                return self._json_response(409, {"error": "duplicate_device", "device": device_id})
            except (KeyError, TypeError, ValueError) as exc:
                return self._json_response(400, {"error": "bad_registration", "detail": str(exc)})
            return self._json_response(200, {"registered": device_id})
        return self._json_response(404, {"error": "not_found"})

    def stats(self) -> dict:
        now = time.monotonic()
        with self._stats_lock:
            totals = {
                "requests_total": self.requests_total,
                "client_leg_bytes": self.client_leg_bytes,
                "device_leg_bytes": self.device_leg_bytes,
            }
            pool = dict(self.pool_counts)
        return {
            **totals,
            "cache": self.cache.stats(),
            "guard": self.guard.stats(now),
            "relay": self.relay.stats.snapshot() if self.relay else None,
            "pool": pool,
            "devices": {r.device_id: r.health for r in self.registry.all()},
        }


class _GatewayServer(http11.Listener):
    def __init__(self, bind: tuple[str, int], gateway: Gateway, listener_family: str):
        self.gateway = gateway
        self.listener_family = listener_family
        super().__init__(bind, _AF[listener_family], _GatewayHandler)


class _GatewayHandler(http11.Handler):
    """One client connection; each request runs the admin API or the pipeline."""

    methods = frozenset(("GET", "POST", "PUT", "DELETE", "PATCH"))

    def handle(self):
        self.client_ip = _normalize_client_ip(self.client_address[0])
        super().handle()

    def respond(self, method, path, headers, body):
        gateway: Gateway = self.server.gateway
        if path == "/admin" or path.startswith("/admin/"):
            return gateway.admin_request(method, path, body)
        return gateway.handle_client_request(
            self.client_ip, self.server.listener_family, method, path, headers, body
        )
