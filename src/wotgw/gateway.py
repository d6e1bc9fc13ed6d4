"""The gateway web server: guard -> cache -> codec -> forward -> decode.

Client requests for /devices/{id}/... run the pipeline against registered
devices. The coded (short-key) JSON form exists only on the gateway-device
leg; clients always see long keys. When the client-facing listener's address
family differs from the device's, forwarding goes through the SOCKS relay;
matching families connect directly. Device-leg connections are persistent
HTTP/1.1 and pooled per device and leg, so a relay tunnel carries many
requests. Devices that stop answering are reported with a 503 outage body and
probed back to health.
"""

from __future__ import annotations

import http.client
import ipaddress
import json
import logging
import math
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from wotgw import codec
from wotgw.cache import NOT_JSON, CacheEntry, CacheKey, ResponseCache, parse_body
from wotgw.config import DeviceConfig, GatewayConfig, parse_hostport
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
# Largest client request body read; a longer declared Content-Length gets 413.
MAX_BODY_BYTES = 1024 * 1024


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
        self._idle: dict[tuple, list[tuple[http.client.HTTPConnection, float]]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def take(self, leg: tuple, now: float) -> tuple[http.client.HTTPConnection | None, int]:
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

    def give(self, leg: tuple, conn: http.client.HTTPConnection, now: float) -> bool:
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
        self._servers: list[ThreadingHTTPServer] = []
        self._threads: list[threading.Thread] = []
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
        for cfg in self.config.devices:
            self.register_device_config(cfg)
        if self.relay is not None:
            self.relay.start()
        for family, spec in ((FAMILY_V4, self.config.listen_v4), (FAMILY_V6, self.config.listen_v6)):
            if spec is None:
                continue
            server = _GatewayServer(spec, _AF[family], self, family)
            self._servers.append(server)
            t = threading.Thread(
                target=lambda srv=server: srv.serve_forever(poll_interval=0.05),
                name=f"gateway-http-{family}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        if not self._servers:
            raise ValueError("gateway needs at least one HTTP listener")
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
        self._stop.set()
        for server in self._servers:
            server.shutdown()
            server.server_close()
        self._servers.clear()
        if self._prober:
            self._prober.join(timeout=5)
        for record in self.registry.all():
            self._count_pool("discarded", record.pool.close())
        if self.relay is not None:
            self.relay.stop()

    def listen_address(self, family: str) -> tuple[str, int] | None:
        for server in self._servers:
            if server.listener_family == family:
                return server.server_address[:2]
        return None

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

        candidates = resolve_target(
            SocksConnectRequest("domain", record.host, record.port), self.resolver
        )
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
        while True:
            reused = conn is not None
            if reused:
                self._count_pool("reused")
            else:
                conn = http.client.HTTPConnection(record.host, record.port)
                conn.auto_open = 0  # never reconnect behind the relay's back
                conn.sock = connect()
                self._count_pool("opened")
            try:
                status, content_type, data = self._exchange(conn, method, path, body)
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
            if conn.sock is None:  # the device asked to close (will_close)
                conn.close()
            elif not record.pool.give(leg, conn, time.monotonic()):
                self._count_pool("discarded")
            return status, content_type, data

    @staticmethod
    def _exchange(conn: http.client.HTTPConnection, method: str, path: str, body: bytes):
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            try:
                conn.request(method, path, body=body if body else None, headers=headers)
                if not conn.sock.recv(1, socket.MSG_PEEK):
                    raise _Unanswered("device closed the connection without answering")
            except ConnectionError as exc:
                raise _Unanswered(f"device connection failed: {exc}")
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, resp.getheader("Content-Type", "application/json"), data
        except (socket.timeout, TimeoutError) as exc:
            raise DeviceTimeout(f"device timed out: {exc}")
        except OSError as exc:
            # RemoteDisconnected subclasses ConnectionResetError: a device that
            # died mid-response lands here, not in the protocol-error bucket.
            raise DeviceUnavailable(f"device connection failed: {exc}")
        except http.client.HTTPException as exc:
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
        if doc is not NOT_JSON:
            coded = codec.encode_keys(doc, record.mapping)
            body_out = codec.canonical_bytes(coded)
        else:
            body_out = body

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


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of new
    # clients, which then retry a second later
    request_queue_size = 128

    def __init__(self, bind: tuple[str, int], family: int, gateway: Gateway, listener_family: str):
        self.address_family = family
        self.gateway = gateway
        self.listener_family = listener_family
        super().__init__(bind, _GatewayHandler)


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "wotgw/0.1"
    # one buffered write per response; a bare header write followed by a small
    # body write trips Nagle + delayed-ACK stalls on loopback
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        log.debug("%s %s", self.address_string(), fmt % args)

    def _read_body(self) -> bytes | tuple:
        """The request body, or the (status, headers, payload) of an error reply."""
        json_type = ("Content-Type", "application/json")
        if self.headers.get("Transfer-Encoding", "").lower() == "chunked":
            return 411, [json_type], b'{"error":"length_required"}'
        length = self.headers.get("Content-Length", "") or "0"
        if not (length.isascii() and length.isdigit()):
            # the body's end is unknown, so the rest of the stream is unusable
            return 400, [json_type, ("Connection", "close")], b'{"error":"bad_content_length"}'
        # digit count first: int() refuses strings of more than 4300 digits
        digits = length.lstrip("0")
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits or 0) > MAX_BODY_BYTES:
            # answered before reading, so the unread body makes the stream unusable
            return 413, [json_type, ("Connection", "close")], b'{"error":"body_too_large"}'
        return self.rfile.read(int(digits)) if digits else b""

    def _dispatch(self):
        body = self._read_body()
        if isinstance(body, tuple):
            self._write_response(*body)
            return
        gateway: Gateway = self.server.gateway
        try:
            if self.path == "/admin" or self.path.startswith("/admin/"):
                status, headers, payload = gateway.admin_request(self.command, self.path, body)
            else:
                client_ip = _normalize_client_ip(self.client_address[0])
                status, headers, payload = gateway.handle_client_request(
                    client_ip,
                    self.server.listener_family,
                    self.command,
                    self.path,
                    self.headers,
                    body,
                )
        except Exception:
            log.exception("pipeline failure for %s %s", self.command, self.path)
            status, headers, payload = 500, [("Content-Type", "application/json")], b'{"error":"internal"}'
        self._write_response(status, headers, payload)

    def _write_response(self, status, headers, payload: bytes):
        try:
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:
            self.close_connection = True

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch
    do_PATCH = _dispatch
