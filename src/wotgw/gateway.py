"""The gateway web server: guard -> cache -> codec -> forward -> decode.

Client requests for /devices/{id}/... run the pipeline against registered
devices. The coded (short-key) JSON form exists only on the gateway-device
leg; clients always see long keys. When the device has no address of the
client-facing listener's family, the device leg crosses the embedded relay
in process: the gateway dials the device's other-family address itself and
counts a relay session. Matching families connect directly. Device-leg
connections are persistent HTTP/1.1 and pooled per device: an idle one
serves the next request whatever its client's family. Devices that stop
answering are reported with a 503 outage body and probed back to health.
Both legs speak HTTP/1.1 through the framer of ``wotgw.http11``, whose
``HeadReader`` and ``parse_head`` take every request and reply head.

One event loop on one thread serves every socket of the gateway, each an
asyncio protocol: client connections, pooled device-leg connections and the
embedded relay's SOCKS sessions with outside clients. A cache hit is
answered inside the client connection's ``data_received``. A miss writes its
request to an idle pooled device connection there too, and the callback that
ends the device's reply settles the miss's flight, a future that the client
connection answers from; only a miss that must open a device connection runs
a task, which dials it.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field

from wotgw import codec, http11, socks
from wotgw.cache import NOT_JSON, UNPARSED, CacheEntry, CacheKey, ResponseCache, parse_body
from wotgw.config import ConfigError, DeviceConfig, GatewayConfig, device_config, format_hostport, parse_hostport
from wotgw.guard import DosGuard
# socks_connect is not called here; perfbench's traced run patches this name
from wotgw.socks import FAMILY_V4, FAMILY_V6, SocksError, socks_connect  # noqa: F401

import asyncio  # noqa: E402  after the package's modules; see wotgw.http11

log = logging.getLogger("wotgw.gateway")

HEALTH_UNKNOWN = "unknown"
HEALTH_UP = "up"
HEALTH_DOWN = "down"

# Idle keep-alive connections kept per device; more are closed after use.
POOL_MAX_IDLE = 2
# An idle connection older than this is closed rather than reused: a device
# may close an idle keep-alive connection at any time (RFC 9112 section 9.5),
# and an old one is the likeliest to be cut under a request.
POOL_IDLE_SECONDS = 10.0
# Methods whose device-leg request carries Content-Length even when empty.
_BODY_METHODS = frozenset(("POST", "PUT", "PATCH"))


class DuplicateDeviceError(ValueError):
    pass


class DeviceError(Exception):
    """A device-leg failure and the status the client gets for it: 503 the
    device is unavailable, 504 it timed out, 502 it answered, but not with
    parseable HTTP or JSON. ``blame`` says whether it counts against the
    device's health: never for a 502, which is an answer, nor for the
    gateway's own refusal to reach the device."""

    def __init__(self, status: int, detail: str, blame: bool = True):
        super().__init__(detail)
        self.status = status
        self.blame = blame and status != 502


class _Unanswered(DeviceError):
    """The connection failed before any response byte arrived (503)."""


def _complete(future: asyncio.Future, outcome) -> None:
    """Settle ``future`` with ``outcome``, an exception or a result, unless
    it is done already: its waiter may have cancelled it."""
    if future.done():
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


class _Upstream(asyncio.Protocol):
    """A device-leg connection, carrying one exchange at a time: the
    generator of ``_frame`` frames its reply from ``data`` as bytes arrive,
    and ``done`` hears how the exchange ended."""

    def __init__(self):
        self.data = bytearray()  # received and not yet taken
        self.eof = False
        self.frame = None  # the framer of the reply under way
        self.done = None  # called with the reply under way or its failure
        self.timer = None  # ends the reply under way with 504

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.data += data
        self._step()

    def eof_received(self, exc=None):
        self.eof = True
        self._step()

    connection_lost = eof_received  # a reset ends a reply as EOF does

    def reusable(self) -> bool:
        """Open, with nothing unread: no stray bytes and no EOF."""
        return not (self.data or self.eof)

    def close(self) -> None:
        """Close the connection; an exchange under way ends without calling back."""
        if self.frame is not None:
            self._end()
        self.transport.close()

    def send(self, message: bytes, timeout: float, done) -> None:
        """Send ``message`` and frame the reply (``_frame``), then call
        ``done`` with it, (status, content type, body, reusable), or with a
        DeviceError once the connection is closed: 504 after ``timeout``
        seconds, _Unanswered when the connection ended before any reply
        byte, 503 inside the reply, 502 for a reply the framer refuses. The
        call comes from the callback that ended the reply."""
        self.done = done
        self.frame = self._frame()
        loop = asyncio.get_running_loop()
        self.timer = loop.call_later(timeout, self._step, DeviceError(504, "device timed out"))
        self.transport.write(message)
        self._step()

    def _step(self, error: DeviceError | None = None) -> None:
        """Frame what has arrived, or end the framer with ``error``; call back
        once it ends. A framer that needs more bytes after EOF ends with
        503, _Unanswered when it yielded True: no byte of a reply came. Bytes
        or EOF when no reply is due put the stream out of step: close it."""
        if self.frame is None:
            return self.close()
        try:
            unanswered = self.frame.send(None) if error is None else self.frame.throw(error)
            if not self.eof:
                return
            raise (_Unanswered if unanswered else DeviceError)(503, "device closed the connection")
        except StopIteration as end:
            outcome = end.value
        except DeviceError as exc:
            outcome = exc
        except http11.FramingError as exc:
            outcome = DeviceError(502, f"malformed HTTP from device: {exc}")
        done = self.done
        self._end()
        if isinstance(outcome, DeviceError):
            self.transport.close()
        done(outcome)

    def _end(self) -> None:
        self.timer.cancel()
        self.frame = self.done = self.timer = None

    def _frame(self):
        """Frame one device reply: a generator that yields while it needs
        more bytes and returns (status, content type, body, reusable).

        The status code is three digits (RFC 9112 section 4), and a reply
        without Content-Type is typed application/octet-stream (RFC 9110
        section 8.3). 1xx interim replies are skipped. A reply ends at its
        Content-Length, at its last chunk, or at EOF, and its body may hold
        at most http11.MAX_BODY_BYTES. Only an HTTP/1.1 reply framed by
        length or chunks and without Connection: close leaves the connection
        reusable.
        """
        data, reader, status = self.data, http11.HeadReader(self.data), 0
        while status < 200:
            while (head := reader.take()) is None:
                yield not (status or data)
            start, headers = http11.parse_head(head)
            version, _, rest = start.partition(" ")
            code, _, _ = rest.partition(" ")
            if (
                not http11.VERSION.fullmatch(version)
                or not version.startswith("HTTP/1.")
                or not (len(code) == 3 and code.isascii() and code.isdigit())
                or code < "100"
            ):
                raise http11.FramingError(502, f"bad status line {start[:80]!r}")
            status = int(code)
        keep = version != "HTTP/1.0" and "close" not in http11.tokens(headers.get("connection", ""))
        encoding = headers.get("transfer-encoding")
        length = headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif encoding is not None and http11.tokens(encoding)[-1] == "chunked":
            body = yield from self._chunks()
            keep = keep and length is None  # both framings: RFC 9112 section 6.1 says close
        elif encoding is None and length is not None:
            n = http11.body_length(length)
            while len(data) < n:
                yield
            body = bytes(data[:n])
            del data[:n]
        else:  # to EOF, which must come within the cap
            while not self.eof and len(data) <= http11.MAX_BODY_BYTES:
                yield
            if len(data) > http11.MAX_BODY_BYTES:
                raise http11.FramingError(502, "body_too_large")
            body, keep = bytes(data), False
        return status, headers.get("content-type", "application/octet-stream"), body, keep

    def _chunks(self):
        """A chunked body (RFC 9112 section 7.1). The last-chunk line, the
        trailer fields and the blank line are taken as one head and dropped."""
        data, parts, total = self.data, [], 0
        while True:
            end = data.find(b"\n") + 1
            http11.check_line(end or len(data), 0)
            if not end:
                yield
                continue
            size = data[:end].partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http11.FramingError(502, "bad chunk size")
            n = int(size, 16)
            if n == 0:
                break
            total += n
            if total > http11.MAX_BODY_BYTES:
                raise http11.FramingError(502, "body_too_large")
            del data[:end]
            while len(data) < n + 2:
                yield
            if data[n : n + 2] != b"\r\n":
                raise http11.FramingError(502, "chunk not followed by CRLF")
            parts.append(bytes(data[:n]))
            del data[: n + 2]
        trailer = http11.HeadReader(data)
        while trailer.take() is None:
            yield
        return b"".join(parts)


class IdlePool:
    """Idle keep-alive connections to one device, LIFO, capped.

    Used on the loop thread only. ``take`` returns None when no reusable
    idle connection is left and the caller opens a new one. Once closed,
    the pool closes whatever is handed back to it. ``counts`` tallies the
    connections handed out again (``reused``) and those closed, by the pool
    or after an exchange (``discarded``); a gateway's pools share one dict.
    """

    def __init__(self):
        self._idle: list[tuple[_Upstream, float]] = []
        self._closed = False
        self.counts = {"reused": 0, "discarded": 0}

    def take(self, now: float) -> _Upstream | None:
        """Pop a reusable idle connection, closing the unfit ones above it."""
        while self._idle:
            conn, since = self._idle.pop()
            if now - since <= POOL_IDLE_SECONDS and conn.reusable():
                self.counts["reused"] += 1
                return conn
            self.discard(conn)
        return None

    def give(self, conn: _Upstream, now: float) -> None:
        """Keep ``conn`` for reuse; close it when it holds bytes past its
        reply (the stream is out of step) or the pool is full or closed."""
        if not self._closed and len(self._idle) < POOL_MAX_IDLE and conn.reusable():
            self._idle.append((conn, now))
        else:
            self.discard(conn)

    def discard(self, conn: _Upstream) -> None:
        """Close ``conn``, one of this pool's, and count it discarded."""
        conn.close()
        self.counts["discarded"] += 1

    def sweep(self, now: float) -> None:
        """Close idle connections past their age limit."""
        self._drop(lambda since: now - since > POOL_IDLE_SECONDS)

    def close(self) -> None:
        """Close every idle connection and refuse later ones."""
        self._closed = True
        self._drop(lambda since: True)

    def _drop(self, expired) -> None:
        dropped = [conn for conn, since in self._idle if expired(since)]
        self._idle = [(conn, since) for conn, since in self._idle if not expired(since)]
        for conn in dropped:
            self.discard(conn)


@dataclass
class DeviceRecord:
    device_id: str
    host: str
    port: int
    mapping: codec.MappingDictionary
    ttl: float | None = None
    # where the device is, written by Gateway._locate: its addresses, their one family or None, their _target
    candidates: tuple[socks.Candidate, ...] = ()
    family: str | None = None
    targets: frozenset[tuple[str, int]] = frozenset()
    health: str = HEALTH_UNKNOWN
    health_path: str = "/status"
    last_probe: float | None = None
    consecutive_failures: int = 0
    pool: IdlePool = field(default_factory=IdlePool, repr=False)

    def describe(self, now: float) -> dict:
        return {
            "device_id": self.device_id,
            "endpoint": format_hostport(self.host, self.port),
            "family": self.family or ("dual" if self.candidates else "unknown"),
            "health": self.health,
            "last_probe_age_s": None if self.last_probe is None else now - self.last_probe,
            "consecutive_failures": self.consecutive_failures,
            "mapping": self.mapping.name,
        }


def _normalize_client_ip(host: str) -> str:
    addr = socks.ip_literal(host)
    if addr is None:
        return host
    mapped = getattr(addr, "ipv4_mapped", None)
    return (mapped or addr).compressed


def _target(candidate: socks.Candidate) -> tuple[str, int]:  # one spelling per address, as for clients
    return _normalize_client_ip(candidate.address), candidate.port


class _DeviceRelay(socks.SocksRelayServer):
    """The gateway's embedded relay: a CONNECT may dial only the addresses
    and ports where the gateway has located its registered devices.
    Anything else, the gateway's own listeners included, gets reply 0x02."""

    def __init__(self, gateway: "Gateway", **kwargs):
        super().__init__(**kwargs)
        self.gateway = gateway

    def permit(self, candidates: list[socks.Candidate]) -> list[socks.Candidate]:
        targets = self.gateway.relay_targets()
        allowed = [c for c in candidates if _target(c) in targets]
        if not allowed:
            raise SocksError("target is not a registered device", socks.REP_NOT_ALLOWED)
        return allowed


class Gateway(http11.LoopServer):
    """Pipeline state shared by all listeners: devices, cache, guard, relay.

    ``start`` runs the event loop thread that serves every socket and alone
    writes that state; the other public methods are for callers off that
    loop and do their work on it.
    Stopping closes the listeners, every client connection, every device
    connection, idle or with an exchange under way, and the relay's
    sessions, so peers read EOF; the requests still waiting for a device
    are not answered.
    """

    thread_name = "gateway-loop"

    def __init__(self, config: GatewayConfig):
        super().__init__({FAMILY_V4: config.listen_v4, FAMILY_V6: config.listen_v6})
        self.config = config
        self.devices: dict[str, DeviceRecord] = {}
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
        self.static_table = self._static_table(config.socks_resolver)
        self.relay: socks.SocksRelayServer | None = None
        if config.relay_enabled:
            self.relay = _DeviceRelay(
                self,
                listen_v4=config.socks_listen_v4,
                listen_v6=config.socks_listen_v6,
                static_table=self.static_table,
                connect_timeout=config.request_timeout_seconds,
            )
        self._prober: asyncio.Task | None = None
        self.requests_total = 0
        self.client_leg_bytes = 0
        self.device_leg_bytes = 0
        self.pool_counts = {"opened": 0, "reused": 0, "discarded": 0}
        self._inflight: dict[CacheKey, asyncio.Future] = {}
        self._busy: set[_Upstream] = set()  # device connections with an exchange under way
        self._dials: set[asyncio.Task] = set()  # the loop keeps only weak references to tasks
        # request digest -> canonical body digest of a cacheable request; at
        # most cache.max_entries of them, the oldest dropped first
        self._keys: dict[str, str] = {}
        self._targets: set[tuple[str, int]] | None = None  # relay_targets(); None once stale

    @staticmethod
    def _static_table(spec: str) -> dict | None:
        """The table a ``static:<path>`` resolver names; None for the system resolver."""
        if spec == "system":
            return None
        try:
            with open(spec.split(":", 1)[1], encoding="utf-8") as fh:
                return socks.load_static_table(fh.read())
        except (OSError, ValueError) as exc:  # ValueError: a malformed line or undecodable bytes
            raise ConfigError(f"socks.resolver {spec!r}: {exc}") from None

    # -- lifecycle --

    def start(self) -> "Gateway":
        """Register the configured devices, then on the loop thread open
        the relay, the HTTP listeners and the prober."""
        for cfg in self.config.devices:
            self.register_device_config(cfg)
        return super().start()

    def accept(self, family: str) -> _ClientLeg:
        return _ClientLeg(self, family)

    async def open(self) -> None:
        if self.relay is not None:
            await self.relay.open()
        await super().open()
        if self.config.probe_interval_seconds > 0:
            self._prober = self.loop.create_task(self._probe_loop())

    async def close(self) -> None:
        await super().close()
        for task in self._dials:  # none may hand a new connection an exchange after this
            task.cancel()
        await asyncio.gather(*self._dials, return_exceptions=True)
        for conn in list(self._busy):  # each counted discarded: opened == discarded once stopped
            conn.close()
        self.pool_counts["discarded"] += len(self._busy)
        self._busy.clear()
        for record in self.devices.values():
            record.pool.close()
        if self.relay is not None:
            await self.relay.close()

    # -- registration --

    def register_device_config(self, cfg: DeviceConfig, replace: bool = False) -> DeviceRecord:
        host, port = parse_hostport(cfg.endpoint)
        if not cfg.device_id or "/" in cfg.device_id or not http11.valid_path("/" + cfg.device_id):
            # a request names its device as one segment of its path
            raise ConfigError(f"bad device id {cfg.device_id!r}: no request could name it")
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
            mapping=mapping,
            ttl=cfg.ttl_seconds,
            health_path=cfg.health_path,
        )
        self.register_device(record, replace=replace)
        return record

    def register_device(self, record: DeviceRecord, replace: bool = False) -> None:
        """Add a device, located first (``_locate``) on the calling thread: keep a system
        resolver's name off the loop. A taken id raises DuplicateDeviceError unless
        ``replace``, which drops the old record's cache entries, flights and pool."""
        self._locate(record)
        self.call(self._register, record, replace)

    def _register(self, record: DeviceRecord, replace: bool) -> None:
        previous = self.devices.get(record.device_id)
        if previous is not None and not replace:
            raise DuplicateDeviceError(record.device_id)
        self.devices[record.device_id] = record
        self._targets = None
        record.pool.counts = self.pool_counts
        if previous is not None:  # no later request gets the old device's answers
            self.cache.invalidate_device(record.device_id)
            self._inflight = {k: t for k, t in self._inflight.items() if k.device_id != record.device_id}
            if previous is not record:
                previous.pool.close()
        log.info("registered device id=%s endpoint=%s:%s family=%s",
                 record.device_id, record.host, record.port, record.family or "unknown")

    def _locate(self, record: DeviceRecord, candidates=None) -> None:
        """Record where the device is, ``candidates`` or else what the
        resolver gives for its host now, and the one family they share."""
        if candidates is None:
            try:
                candidates = tuple(socks.resolve_target(record.host, record.port, self.static_table))
            except SocksError:  # a name the resolver lacks gives no address
                candidates = ()
        if candidates != record.candidates:
            record.candidates = candidates
            record.targets = frozenset(map(_target, candidates))
            families = {c.family for c in candidates}
            record.family = families.pop() if len(families) == 1 else None
            if self.devices.get(record.device_id) is record:
                self._targets = None

    async def _relocate(self, record: DeviceRecord) -> None:
        """``_locate`` on the loop, where ``socks.resolve`` looks a system
        resolver's name up on the executor. Registration, each probe and a
        failed connect locate a device; a request that finds it never does."""
        try:
            candidates = tuple(await socks.resolve(record.host, record.port, self.static_table))
        except SocksError:
            candidates = ()
        self._locate(record, candidates)

    def relay_targets(self) -> set[tuple[str, int]]:
        """Every located device address and port (``_target``), rebuilt after a change."""
        if self._targets is None:
            self._targets = set().union(*(record.targets for record in self.devices.values()))
        return self._targets

    # -- health --

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_seconds)
            now = self.loop.time()
            # a copy: a registration may add a device while a probe awaits
            for record in list(self.devices.values()):
                try:
                    await self._probe(record)
                except Exception:
                    log.exception("probe failed for %s", record.device_id)
                record.pool.sweep(now)

    def probe_device(self, device_id: str) -> str:
        """Issue the device's health request and update its health state."""
        return self.run(self._probe(self.devices[device_id]))

    async def _probe(self, record: DeviceRecord) -> str:
        await self._relocate(record)
        try:
            status, _, _ = await self._forward(record, "GET", record.health_path, b"", None)
            ok = 200 <= status < 300
        except DeviceError:  # a 502 too: a probe wants a parseable answer
            ok = False
        return self._note_health(record, ok, probed=True)

    def _note_health(self, record: DeviceRecord, ok: bool, probed: bool = False) -> str:
        """Apply one probe or forward outcome to the device's health state."""
        if probed:
            record.last_probe = self.loop.time()
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

    async def _leg(self, record: DeviceRecord, listener_family: str | None) -> _Upstream:
        """A new connection to the device, counted as opened.

        The device's located addresses of the listener's family (any family
        when it is None, as for health probes) are dialled directly. With
        none, the leg crosses the relay in process: the gateway dials the
        others itself and counts a relay session, one that sends no SOCKS
        bytes. A device with no address is located first, and one whose
        connect fails after, for the next connect.
        """
        fresh = not record.candidates  # a name that gave no address may give one now
        if fresh:
            await self._relocate(record)
        direct = [c for c in record.candidates if listener_family in (None, c.family)]
        relay = None if direct else self.relay
        try:
            # no other family without a relay, should a probe relocate it after _front's check
            dialled = direct or (record.candidates if relay else ())
            _, conn = await socks.dial(dialled, self.config.request_timeout_seconds, _Upstream)
        except SocksError as exc:
            if relay is not None:
                relay.stats.sessions_failed += 1
            if not fresh:
                await self._relocate(record)
            raise DeviceError(503, f"connect failed: {exc}") from None
        if relay is not None:
            relay.stats.sessions_total += 1
        self.pool_counts["opened"] += 1
        return conn

    def forward_to_device(
        self,
        record: DeviceRecord,
        method: str,
        path: str,
        body: bytes,
        listener_family: str | None,
    ) -> tuple[int, str, bytes]:
        """Send the coded request to the device and wait for its reply; see ``_forward``."""
        return self.run(self._forward(record, method, path, body, listener_family))

    async def _forward(self, record, method, path, body, listener_family) -> tuple[int, str, bytes]:
        """``_exchange``'s reply, awaited: (status, content_type, body). Raises DeviceError."""
        reply = asyncio.get_running_loop().create_future()
        self._exchange(record, method, path, body, listener_family, functools.partial(_complete, reply))
        return await reply

    def _exchange(self, record, method, path, body, listener_family, done) -> None:
        """Send the coded request to the device, directly or across the
        relay, and call ``done`` with the reply, (status, content_type,
        body), or with the exception that ended it, a DeviceError unless the
        gateway is at fault.

        An idle pooled keep-alive connection, whatever the client's family,
        takes the request at once, and the callback that ends its reply
        calls ``done``. With none, a task opens one (``_dial``) first. A GET
        whose reused connection dies before any response byte is sent once
        more on a new connection (RFC 9112 section 9.3.1).
        """
        request = self._request_bytes(record, method, path, body)
        conn = record.pool.take(self.loop.time())
        if conn is None:
            self._dial(record, request, listener_family, done)
        else:
            self._send(record, conn, request, listener_family, done, method == "GET")

    def _dial(self, record, request: bytes, listener_family, done) -> None:
        """Open a connection to the device in a task and send ``request`` on it."""

        async def dial():
            try:
                conn = await self._leg(record, listener_family)
            except Exception as exc:
                return done(exc)
            self._send(record, conn, request, listener_family, done, False)

        task = asyncio.get_running_loop().create_task(dial())
        self._dials.add(task)
        task.add_done_callback(self._dials.discard)

    def _send(self, record, conn: _Upstream, request: bytes, listener_family, done, retry: bool) -> None:
        self._busy.add(conn)
        conn.send(request, self.config.request_timeout_seconds,
                  functools.partial(self._replied, record, conn, request, listener_family, done, retry))

    def _replied(self, record, conn, request, listener_family, done, retry, outcome) -> None:
        """Hand ``conn`` back to the pool or close it, then call ``done``,
        or dial once more when a reused connection died unanswered."""
        self._busy.discard(conn)
        if isinstance(outcome, DeviceError):  # conn is closed
            record.pool.discard(conn)
            if retry and isinstance(outcome, _Unanswered):  # it was cut while idle
                return self._dial(record, request, listener_family, done)
            return done(outcome)
        status, content_type, data, keep = outcome
        if keep:
            record.pool.give(conn, self.loop.time())
        else:
            record.pool.discard(conn)
        done((status, content_type, data))

    @staticmethod
    def _request_bytes(record: DeviceRecord, method: str, path: str, body: bytes) -> bytes:
        head = f"{method} {path} HTTP/1.1\r\nHost: {format_hostport(record.host, record.port)}\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        elif method in _BODY_METHODS:
            head += "Content-Length: 0\r\n"
        return head.encode("latin-1") + b"\r\n" + body

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
        """The pipeline for a caller off the loop, run on the loop."""

        async def on_loop():
            reply = self._front(client_ip, listener_family, method, path, headers, body)
            return reply if isinstance(reply, tuple) else await reply

        return self.run(on_loop())

    def _front(self, client_ip, listener_family, method, path, headers, body):
        """Guard, route, health, family, parse, key and cache lookup: the
        response, or an awaitable answering the miss on the loop. A miss
        starts its flight (``_miss``); one of a cacheable key, or a
        ``no-cache`` request, which skips the lookup, joins the key's flight
        in ``_inflight`` (``_join``) instead when there is one.

        One digest of the method, the path and the body bytes names the
        request. The guard counts repeats by it, and ``_keys`` maps it to
        the body digest of the cache key, so the same bytes again skip the
        parse and the key's own digest; a miss parses in its flight."""
        now = self.loop.time()
        self.requests_total += 1

        # the framer refuses control bytes in a target, so a path holds no "\n"
        digest = codec.digest_bytes(f"{method}\n{path}\n".encode() + body)
        decision = self.guard.record_and_check(client_ip, digest, now)
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
        record = self.devices.get(device_id)
        if record is None:
            return self._json_response(404, {"error": "unknown_device", "device": device_id})

        if record.health == HEALTH_DOWN:
            return self._device_error(record, DeviceError(503, "device is down"))
        if self.relay is None and record.family not in (None, listener_family):
            return self._device_error(record, DeviceError(503, "relay disabled"))

        body_digest = self._keys.get(digest)
        if body_digest is not None:
            doc, key = UNPARSED, CacheKey(device_id, method, device_path, body_digest)
        else:
            doc = parse_body(body)
            cacheable = method == "GET" or (method == "POST" and doc is not NOT_JSON)
            if not (self.config.cache_enabled and cacheable):
                return self._miss(record, method, device_path, body, doc, listener_family, None)
            key = CacheKey.for_request(device_id, method, device_path, body, doc)
            self._keys[digest] = key.body_digest
            if len(self._keys) > self.cache.max_entries:
                del self._keys[next(iter(self._keys))]
        cache_control = (headers.get("Cache-Control") or headers.get("Pragma") or "").lower()
        entry = None if "no-cache" in cache_control else self.cache.get(key, now)
        if entry is not None:
            self.client_leg_bytes += len(body) + len(entry.body)
            if entry.reply is None:  # the first hit renders the header block of every hit
                fields = http11.Prepared(self._device_fields(record, "hit"), entry.body)
                entry.reply = entry.status, fields, entry.body
            return entry.reply
        flight = self._inflight.get(key)
        if flight is not None:
            return self._join(flight, record, len(body))
        return self._miss(record, method, device_path, body, doc, listener_family, key)

    async def _join(self, flight: asyncio.Future, record: DeviceRecord, sent: int):
        """The answer of the identical miss in flight: a device answer as a
        hit, an outage or protocol error as is."""
        status, headers, payload = await asyncio.shield(flight)
        if ("X-WoT-Cache", "miss") not in headers:
            return status, headers, payload
        return self._device_response(record, status, payload, "hit", sent, dict(headers)["Content-Type"])

    def _miss(self, record: DeviceRecord, method: str, device_path: str, body: bytes, doc,
              listener_family: str, key: CacheKey | None):
        """Encode the body and send it to the device (``_exchange``): the
        flight, a future of the response, which is in ``_inflight`` under
        ``key``, unless that is None, until ``_land`` settles it."""
        if doc is UNPARSED:
            doc = parse_body(body)
        body_out = body
        if doc is not NOT_JSON:
            try:
                body_out = codec.canonical_bytes(codec.encode_keys(doc, record.mapping))
            except ValueError as exc:  # a key collision, a non-finite number, a lone surrogate
                return self._json_response(
                    400, {"error": "bad_body", "device": record.device_id, "detail": str(exc)},
                    device=record,
                )
        flight = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = flight
        self._exchange(record, method, device_path, body_out, listener_family,
                       functools.partial(self._land, flight, record, key, len(body), len(body_out)))
        return flight

    def _land(self, flight: asyncio.Future, record: DeviceRecord, key: CacheKey | None, sent: int,
              sent_out: int, outcome) -> None:
        """Settle ``flight`` with the response to the device's reply or
        failure, ``outcome``, and take it out of ``_inflight``. A fault
        settles it with its exception, which its waiter logs and answers
        500, so nothing escapes into the device connection's callback."""
        try:
            reply = self._answer(record, key, sent, sent_out, outcome)
        except Exception as exc:
            reply = exc
        if key is not None and self._inflight.get(key) is flight:
            del self._inflight[key]
        _complete(flight, reply)

    def _answer(self, record: DeviceRecord, key: CacheKey | None, sent: int, sent_out: int, outcome):
        """Decode the device's reply and store it under ``key``: the
        response, or the error response of a DeviceError."""
        try:
            if isinstance(outcome, BaseException):
                raise outcome
            status, content_type, raw = outcome
            self._note_health(record, True)
            self.device_leg_bytes += sent_out + len(raw)
            decoded, kind = raw, "application/json"
            if raw:
                try:
                    decoded = codec.canonical_bytes(codec.decode_keys(codec.parse_json(raw), record.mapping))
                except (ValueError, TypeError):
                    if 200 <= status < 300:
                        raise DeviceError(502, "unparseable device response body") from None
                    # a non-2xx non-JSON body passes through, with the device's type if printable
                    kind = content_type if content_type.isprintable() else "application/octet-stream"
        except DeviceError as exc:
            if exc.blame:
                self._note_health(record, False)
            return self._device_error(record, exc)

        if key is not None and 200 <= status < 300 and self.devices.get(record.device_id) is record:
            ttl = record.ttl if record.ttl is not None else self.cache.default_ttl
            self.cache.put(key, CacheEntry(status, decoded, self.loop.time(), ttl))

        return self._device_response(record, status, decoded, "miss", sent, kind)

    # -- response helpers --

    def _device_error(self, record: DeviceRecord, error: DeviceError):
        if error.status == 502:
            value = {"error": "device_protocol_error", "device": record.device_id, "detail": str(error)}
        else:
            label = "device_timeout" if error.status == 504 else "device_unavailable"
            value = {"status": label, "device": record.device_id}
        return self._json_response(error.status, value, device=record)

    def _json_response(self, status, value, extra=None, device=None):
        body = codec.canonical_bytes(value)
        headers = [("Content-Type", "application/json")]
        if device is not None:
            headers.append(("X-WoT-Device", device.device_id))
        if extra:
            headers.extend(extra)
        return status, headers, body

    def _device_response(self, record, status, body: bytes, cache_state: str, count_client: int = 0,
                         content_type: str = "application/json"):
        self.client_leg_bytes += count_client + len(body)
        return status, self._device_fields(record, cache_state, content_type), body

    @staticmethod
    def _device_fields(record, cache_state: str, content_type: str = "application/json"):
        return [("Content-Type", content_type), ("X-WoT-Device", record.device_id), ("X-WoT-Cache", cache_state)]

    # -- admin --

    def admin_request(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/admin/devices":
            return self._json_response(
                200, {"devices": [r.describe(self.loop.time()) for r in self.devices.values()]}
            )
        if method == "GET" and path == "/admin/stats":
            return self._json_response(200, self.stats())
        if method == "PUT" and path.startswith("/admin/devices/"):
            device_id = path[len("/admin/devices/") :]
            if not device_id or "/" in device_id:
                return self._json_response(404, {"error": "not_found"})
            return self._put_device(device_id, body)
        return self._json_response(404, {"error": "not_found"})

    async def _put_device(self, device_id: str, body: bytes):
        """Register the device of an admin PUT. ``register_device_config``
        runs on the executor, off the loop like any other caller: a name for
        the system resolver is looked up there, and a mapping file read."""
        try:
            doc = json.loads(body or b"{}")
            cfg = device_config(device_id, doc)
            replace = doc.get("replace", False)
            if not isinstance(replace, bool):
                raise ConfigError(f"replace must be true or false, not {replace!r}")
            await self.loop.run_in_executor(None, self.register_device_config, cfg, replace)
        except DuplicateDeviceError:
            return self._json_response(409, {"error": "duplicate_device", "device": device_id})
        except (ValueError, OSError) as exc:  # ConfigError, bad JSON, an unreadable mapping file
            return self._json_response(400, {"error": "bad_registration", "detail": str(exc)})
        return self._json_response(200, {"registered": device_id})

    def stats(self) -> dict:
        """The gateway's counters, taken on the loop."""
        return self.call(self._stats)

    def _stats(self) -> dict:
        return {
            "requests_total": self.requests_total,
            "client_leg_bytes": self.client_leg_bytes,
            "device_leg_bytes": self.device_leg_bytes,
            "cache": self.cache.stats(),
            "guard": self.guard.stats(self.loop.time()),
            "relay": self.relay.stats.snapshot() if self.relay else None,
            "pool": dict(self.pool_counts),
            "devices": {r.device_id: r.health for r in self.devices.values()},
        }


class _ClientLeg(http11.Connection):
    """One client connection; each request runs the admin API or the pipeline."""

    methods = frozenset(("GET", "POST", "PUT", "DELETE", "PATCH"))

    def __init__(self, gateway: Gateway, family: str):
        super().__init__(gateway)
        self.family = family

    def connection_made(self, transport):
        super().connection_made(transport)
        self.client_ip = _normalize_client_ip(transport.get_extra_info("peername")[0])

    def respond(self, method, path, headers, body):
        gateway = self.server
        if path == "/admin" or path.startswith("/admin/"):
            # registration points the gateway at any host and port
            if not socks.ip_literal(self.client_ip).is_loopback:
                return gateway._json_response(403, {"error": "forbidden"})
            return gateway.admin_request(method, path, body)
        return gateway._front(self.client_ip, self.family, method, path, headers, body)
