"""The gateway web server: guard -> cache -> codec -> forward -> decode.

Client requests for /devices/{id}/... run the pipeline against registered
devices. The coded (short-key) JSON form exists only on the gateway-device
leg; clients always see long keys. When the client-facing listener's address
family differs from the device's, forwarding goes through the SOCKS relay;
matching families connect directly. Device-leg connections are persistent
HTTP/1.1 and pooled per device and leg, so a relay tunnel carries many
requests. Devices that stop answering are reported with a 503 outage body and
probed back to health. Both legs speak HTTP/1.1 through the framer of
``wotgw.http11``, whose ``check_line`` and ``parse_head`` take every request
and reply head.

One event loop on one thread serves every socket of the gateway: client
connections, pooled device-leg connections and the embedded relay's
sessions. A cache hit is answered inside the client connection's
``data_received``; a miss awaits its device connection on the same loop.
"""

from __future__ import annotations

import ipaddress
import json
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field

from wotgw import codec, http11, socks
from wotgw.cache import NOT_JSON, CacheEntry, CacheKey, ResponseCache, parse_body
from wotgw.config import ConfigError, DeviceConfig, GatewayConfig, format_hostport, parse_hostport
from wotgw.guard import DosGuard
# socks_connect is not called here; perfbench's traced run patches this name
from wotgw.socks import FAMILY_V4, FAMILY_V6, Candidate, SocksError, socks_connect  # noqa: F401

import asyncio  # noqa: E402  after the package's modules; see wotgw.http11

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


async def _line(reader: asyncio.StreamReader) -> bytes:
    """The next line of a reply, its end included; b"" at EOF."""
    try:
        line = await reader.readline()
    except ValueError:  # longer than the reader's limit, MAX_LINE
        raise http11.FramingError(502, "line too long") from None
    if line and line[-1:] != b"\n":
        raise EOFError("device closed inside a line")
    return line


async def _read_head(reader: asyncio.StreamReader) -> tuple[str, http11.Headers] | None:
    """One reply head; None when the device closed before sending a byte of it."""
    lines: list[bytes] = []
    while line := await _line(reader):
        if line not in http11.BLANK:
            http11.check_line(len(line), len(lines))
            lines.append(line)
        elif lines:
            return http11.parse_head(lines)
    if lines:
        raise EOFError("device closed inside a head")
    return None


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """A chunked body (RFC 9112 section 7.1); trailer fields are dropped."""
    parts = []
    while True:
        line = await _line(reader)
        if not line:
            raise EOFError("device closed inside a chunked body")
        size = line.partition(b";")[0].strip()
        if not size or len(size) > 15 or size.strip(b"0123456789abcdefABCDEF"):
            raise http11.FramingError(502, "bad chunk size")
        n = int(size, 16)
        if n == 0:
            break
        parts.append(await reader.readexactly(n))
        if await reader.readexactly(2) != b"\r\n":
            raise http11.FramingError(502, "chunk not followed by CRLF")
    while (line := await _line(reader)) not in http11.BLANK:
        if not line:
            raise EOFError("device closed inside the trailer")
    return b"".join(parts)


async def _read_reply(reader: asyncio.StreamReader, method: str) -> tuple[int, str, bytes, bool]:
    """Read one device reply: (status, content type, body, reusable).

    1xx interim replies are skipped. A reply ends at its Content-Length, at
    its last chunk, or at EOF. The connection is reusable only after an
    HTTP/1.1 reply framed by length or chunks and without Connection: close.
    Raises _Unanswered when the connection ends before the reply's first byte.
    """
    try:
        head = await _read_head(reader)
    except OSError:  # a reset before the reply's first byte
        head = None
    if head is None:
        raise _Unanswered("device closed the connection without answering")
    while True:
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
        head = await _read_head(reader)
        if head is None:
            raise EOFError("device closed the connection after an interim reply")
    connection = headers.get("connection")
    keep = version != "HTTP/1.0" and not (connection and "close" in http11.tokens(connection))
    encoding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if method == "HEAD" or status in (204, 304):
        data = b""
    elif encoding is not None and http11.tokens(encoding)[-1] == "chunked":
        data = await _read_chunked(reader)
        keep = keep and length is None  # both framings: RFC 9112 section 6.1 says close
    elif encoding is None and length is not None:
        if not (length.isascii() and length.isdigit()) or len(length) > 15:
            raise http11.FramingError(502, f"bad Content-Length {length[:80]!r}")
        data = await reader.readexactly(int(length))
    else:
        data, keep = await reader.read(), False
    return status, headers.get("content-type", "application/json"), data, keep


class _Upstream:
    """A device-leg connection, direct or through a relay tunnel, carrying
    one exchange at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    def reusable(self) -> bool:
        """Open, with nothing unread: no stray bytes, no EOF and no error."""
        reader = self.reader
        # a StreamReader shows no public count of its buffered bytes
        return not (reader._buffer or reader.at_eof() or reader.exception())

    def close(self) -> None:
        self.writer.close()

    async def exchange(self, message: bytes, timeout: float, method: str):
        """Send ``message`` and read the reply; see ``_read_reply``.

        Raises DeviceTimeout after ``timeout`` seconds, _Unanswered when the
        connection ends before any byte of the reply and DeviceUnavailable
        when it ends inside one.
        """
        self.writer.write(message)
        try:
            return await asyncio.wait_for(_read_reply(self.reader, method), timeout)
        except asyncio.TimeoutError:
            raise DeviceTimeout("device timed out") from None
        except (EOFError, OSError) as exc:  # a device that died mid-reply is unavailable, not a protocol error
            raise DeviceUnavailable(f"device connection failed: {exc}") from None


class IdlePool:
    """Idle keep-alive connections to one device, LIFO per leg, capped.

    Used on the loop thread only. ``take`` returns None when no reusable
    idle connection is left and the caller opens a new one. Once closed,
    the pool closes whatever is handed back to it.
    """

    def __init__(self):
        self._idle: dict[tuple, list[tuple[_Upstream, float]]] = {}
        self._closed = False

    def take(self, leg: tuple, now: float) -> tuple[_Upstream | None, int]:
        """Pop a reusable idle connection; also returns how many unfit ones were closed."""
        idle = self._idle.get(leg)
        discarded = 0
        while idle:
            conn, since = idle.pop()
            if now - since <= POOL_IDLE_SECONDS and conn.reusable():
                return conn, discarded
            conn.close()
            discarded += 1
        return None, discarded

    def give(self, leg: tuple, conn: _Upstream, now: float) -> bool:
        """Keep ``conn`` for reuse, or close it when the pool is full or closed."""
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
        self._closed = True
        return self._drop(lambda since: True)

    def _drop(self, expired) -> int:
        dropped = [conn for idle in self._idle.values() for conn, since in idle if expired(since)]
        for idle in self._idle.values():
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


async def _call(fn, *args):
    return fn(*args)


class Gateway:
    """Pipeline state shared by all listeners: registry, cache, guard, relay.

    ``start`` runs the event loop thread that serves every socket; the
    public methods that wait on the network (``handle_client_request``,
    ``forward_to_device``, ``probe_device``) are for callers off that loop.
    """

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
        self.relay: socks.SocksRelayServer | None = None
        if config.relay_enabled:
            self.relay = socks.SocksRelayServer(
                listen_v4=config.socks_listen_v4,
                listen_v6=config.socks_listen_v6,
                resolver=self.resolver,
                connect_timeout=config.request_timeout_seconds,
            )
        self._thread: http11.LoopThread | None = None
        self._servers: dict[str, asyncio.Server] = {}
        self._clients: set[_ClientLeg] = set()
        self._prober: asyncio.Task | None = None
        self._stats_lock = threading.Lock()
        self.requests_total = 0
        self.client_leg_bytes = 0
        self.device_leg_bytes = 0
        self.pool_counts = {"opened": 0, "reused": 0, "discarded": 0}
        self._inflight: dict[CacheKey, asyncio.Future] = {}

    @staticmethod
    def _build_resolver(spec: str) -> socks.ResolverPolicy:
        if spec == "system":
            return socks.ResolverPolicy()
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            return socks.ResolverPolicy(static_table=socks.load_static_table(fh.read()))

    # -- lifecycle --

    def start(self) -> "Gateway":
        """Start the loop thread, then on it the relay, the HTTP listeners
        and the prober; a start that fails stops whatever it started before
        raising."""
        for cfg in self.config.devices:
            self.register_device_config(cfg)
        self._thread = http11.LoopThread("gateway-loop")
        try:
            self._thread.run(self._open())
        except BaseException:
            self.stop()
            raise
        log.info(
            "gateway ready listen_v4=%s listen_v6=%s relay=%s",
            self.listen_address(FAMILY_V4),
            self.listen_address(FAMILY_V6),
            "on" if self.relay else "off",
        )
        return self

    async def _open(self) -> None:
        if self.relay is not None:
            await self.relay.open()
        loop = asyncio.get_running_loop()
        for family, spec in ((FAMILY_V4, self.config.listen_v4), (FAMILY_V6, self.config.listen_v6)):
            if spec is not None:
                self._servers[family] = await loop.create_server(
                    lambda family=family: _ClientLeg(self, family), *spec, family=_AF[family], backlog=128
                )
        if not self._servers:
            raise ValueError("gateway needs at least one HTTP listener")
        if self.config.probe_interval_seconds > 0:
            self._prober = loop.create_task(self._probe_loop())

    def stop(self) -> None:
        """Close the listeners, every client connection, the device-leg
        pools and the relay's sessions, so peers read EOF; then cancel the
        requests still waiting for a device and stop the loop thread."""
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.run(self._close())
            thread.stop()

    async def _close(self) -> None:
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        for conn in list(self._clients):
            conn.close()
        for record in self.registry.all():
            self._count_pool("discarded", record.pool.close())
        if self.relay is not None:
            await self.relay.close()
        await asyncio.sleep(0)  # lets the closed transports call connection_lost

    def listen_address(self, family: str) -> tuple[str, int] | None:
        server = self._servers.get(family)
        return server.sockets[0].getsockname()[:2] if server else None

    def _run(self, coro):
        """Run ``coro`` on the loop from another thread and return its result."""
        if self._thread is None:
            coro.close()
            raise RuntimeError("the gateway is not running")
        return self._thread.run(coro)

    # -- registration --

    def register_device_config(self, cfg: DeviceConfig, replace: bool = False) -> DeviceRecord:
        host, port, family = parse_hostport(cfg.endpoint)
        if not http11.valid_path(cfg.health_path):
            # pasted into the probe's request line, so it must not end that line
            raise ConfigError(f"device {cfg.device_id}: bad health_path {cfg.health_path!r}")
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
                # the pool's connections belong to the loop thread
                off_loop = self._thread is not None and threading.get_ident() != self._thread.thread.ident
                closed = self._run(_call(previous.pool.close)) if off_loop else previous.pool.close()
                self._count_pool("discarded", closed)
        log.info("registered device id=%s endpoint=%s:%s family=%s",
                 record.device_id, record.host, record.port, record.family or "unknown")

    # -- health --

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_seconds)
            now = time.monotonic()
            for record in self.registry.all():
                try:
                    await self._probe(record)
                except Exception:
                    log.exception("probe failed for %s", record.device_id)
                self._count_pool("discarded", record.pool.sweep(now))

    def probe_device(self, device_id: str) -> str:
        """Issue the device's health request and update its health state."""
        record = self.registry.get(device_id)
        if record is None:
            raise KeyError(device_id)
        return self._run(self._probe(record))

    async def _probe(self, record: DeviceRecord) -> str:
        try:
            status, _, _ = await self._forward(record, "GET", record.health_path, b"", None)
            ok = 200 <= status < 300
        except (DeviceUnavailable, DeviceProtocolError):
            ok = False
        return self._note_health(record, ok, probed=True)

    def _note_health(self, record: DeviceRecord, ok: bool, probed: bool = False) -> str:
        """Apply one probe or forward outcome to the device's health state."""
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

    async def _candidates(self, record: DeviceRecord) -> list[Candidate]:
        if record.family is not None:
            return [Candidate(record.family, record.host, record.port)]
        try:
            candidates = await socks.resolve(
                socks.SocksConnectRequest("domain", record.host, record.port), self.resolver
            )
        except SocksError as exc:
            raise DeviceUnavailable(str(exc))
        record.family = candidates[0].family if len({c.family for c in candidates}) == 1 else record.family
        return candidates

    @staticmethod
    async def _connect(addresses: list[tuple[str, int]], timeout: float) -> _Upstream:
        last: Exception = DeviceUnavailable("no candidates")
        for host, port in addresses:
            try:
                connecting = asyncio.open_connection(host, port, limit=http11.MAX_LINE)
                return _Upstream(*await asyncio.wait_for(connecting, timeout))
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
        raise DeviceUnavailable(f"connect failed: {last!r}")

    async def _leg(self, record: DeviceRecord, listener_family: str | None):
        """The pool key of the device leg and a coroutine function opening a
        new connection.

        Candidates of the listener's family (any family when it is None, as
        for health probes) are reached directly; otherwise through the relay.
        """
        candidates = await self._candidates(record)
        timeout = self.config.request_timeout_seconds
        direct = [(c.address, c.port) for c in candidates if listener_family in (None, c.family)]
        if direct:
            return ("direct", listener_family), lambda: self._connect(direct, timeout)
        if self.relay is None:
            raise DeviceUnavailable(
                f"device {record.device_id} is {candidates[0].family}-only, "
                f"client leg is {listener_family}, and the relay is disabled"
            )
        listening = self.relay.listen_address
        relay_addr = listening(listener_family) or listening(FAMILY_V4) or listening(FAMILY_V6)

        async def tunnel() -> _Upstream:
            conn = await self._connect([relay_addr], timeout)
            # the CONNECT request goes right behind the greeting
            conn.writer.write(socks.GREETING + socks.build_connect_request(record.host, record.port))
            try:
                await asyncio.wait_for(socks.read_tunnel_reply(conn.reader), timeout)
            except BaseException as exc:
                conn.close()
                if isinstance(exc, (SocksError, EOFError, OSError, asyncio.TimeoutError)):
                    raise DeviceUnavailable(f"relay connect failed: {exc!r}") from None
                raise
            return conn

        return ("relay", relay_addr), tunnel

    def forward_to_device(
        self,
        record: DeviceRecord,
        method: str,
        path: str,
        body: bytes,
        listener_family: str | None,
    ) -> tuple[int, str, bytes]:
        """Send the coded request to the device and wait for its reply; see ``_forward``."""
        return self._run(self._forward(record, method, path, body, listener_family))

    async def _forward(self, record, method, path, body, listener_family) -> tuple[int, str, bytes]:
        """Send the coded request to the device, directly or through the relay.

        Uses a pooled keep-alive connection of the leg when a live one is
        idle. A GET or HEAD whose reused connection dies before any response
        byte is sent once more on a new connection. Returns (status,
        content_type, body). Raises DeviceTimeout, DeviceUnavailable, or
        DeviceProtocolError.
        """
        leg, connect = await self._leg(record, listener_family)
        conn, discarded = record.pool.take(leg, time.monotonic())
        self._count_pool("discarded", discarded)
        request = self._request_bytes(record, method, path, body)
        while True:
            reused = conn is not None
            if reused:
                self._count_pool("reused")
            else:
                conn = await connect()
                self._count_pool("opened")
            try:
                status, content_type, data, keep = await conn.exchange(
                    request, self.config.request_timeout_seconds, method
                )
            except _Unanswered:
                conn.close()
                if reused and method in _RETRYABLE_METHODS:
                    self._count_pool("discarded")
                    conn = None
                    continue
                raise
            except http11.FramingError as exc:
                conn.close()
                raise DeviceProtocolError(f"malformed HTTP from device: {exc}")
            except BaseException:
                conn.close()
                raise
            if not keep:
                conn.close()
            elif not conn.reusable():  # bytes past the reply: the stream is out of step
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
        """The pipeline for a caller off the loop: the front half runs on the
        calling thread, a miss on the loop."""
        reply = self._front(client_ip, listener_family, method, path, headers, body)
        return reply if isinstance(reply, tuple) else self._run(reply)

    def _front(self, client_ip, listener_family, method, path, headers, body):
        """Guard, route, health, parse, key and cache lookup: the response,
        or a coroutine answering the miss on the loop."""
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

        if key is not None and not bypass:
            entry = self.cache.get(key, time.monotonic())
            if entry is not None:
                return self._device_response(record, entry.status, entry.body, "hit", count_client=len(body))
        return self._miss(record, method, device_path, body, doc, listener_family, key,
                          share=key is not None and not bypass)

    async def _miss(self, record, method, device_path, body, doc, listener_family, key, share):
        """Forward a miss; a shareable one waits for an identical miss in
        flight and takes its answer."""
        args = record, method, device_path, body, doc, listener_family, key
        flight = self._inflight.get(key) if share else None
        if flight is not None:
            try:
                wait = self.config.request_timeout_seconds + 1.0
                shared = await asyncio.wait_for(asyncio.shield(flight), wait)
            except asyncio.TimeoutError:  # not the builtin TimeoutError before Python 3.11
                shared = None
            if shared is not None:  # None: the request in flight failed or is slow, so forward anew
                status, headers, payload = shared
                if ("X-WoT-Cache", "miss") not in headers:
                    return shared  # an outage or protocol error, passed on as is
                return self._device_response(record, status, payload, "hit", count_client=len(body))
        elif share:
            flight = self._inflight[key] = asyncio.get_running_loop().create_future()
            response = None
            try:
                response = await self._forward_pipeline(*args)
                return response
            finally:
                flight.set_result(response)
                # kept one more loop turn: a miss whose front half ran before
                # this answer was cached, but whose task starts after, joins it
                asyncio.get_running_loop().call_soon(self._inflight.pop, key, None)
        return await self._forward_pipeline(*args)

    async def _forward_pipeline(
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
            status, content_type, raw = await self._forward(
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


class _ClientLeg(http11.Connection):
    """One client connection; each request runs the admin API or the pipeline."""

    methods = frozenset(("GET", "POST", "PUT", "DELETE", "PATCH"))

    def __init__(self, gateway: Gateway, family: str):
        super().__init__()
        self.gateway = gateway
        self.family = family

    def connection_made(self, transport):
        super().connection_made(transport)
        self.client_ip = _normalize_client_ip(transport.get_extra_info("peername")[0])
        self.gateway._clients.add(self)

    def connection_lost(self, exc):
        self.gateway._clients.discard(self)

    def respond(self, method, path, headers, body):
        gateway = self.gateway
        if path == "/admin" or path.startswith("/admin/"):
            return gateway.admin_request(method, path, body)
        return gateway._front(self.client_ip, self.family, method, path, headers, body)
