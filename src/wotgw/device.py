"""Miniature embedded-device web server emulating a power-sensor API.

Speaks coded JSON on the wire: POST /power takes a coded query and returns
the coded readings array; GET /status answers {"status":"ok"}. Latency,
seeded failure injection (connection reset), and a power-save idle mode are
configurable so gateway behavior is observable and reproducible. The server
is intentionally weak — one OS thread per connection, each feeding the
gateway's HTTP/1.1 ``Connection`` from a blocking socket — which is exactly
what the gateway's cache is meant to protect.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import socketserver
import struct
import threading
import time
from contextlib import suppress
from dataclasses import dataclass

from wotgw import FAMILY_V4, FAMILY_V6, codec
from wotgw.http11 import JSON_TYPE, Connection

log = logging.getLogger("wotgw.device")

# The canonical power-sensor key mapping; "KWh" deliberately has no short code
# and passes through coding untouched.
POWER_SENSOR_MAPPING = codec.MappingDictionary(
    (
        ("NoOfDevices", "ND"),
        ("deviceName", "DN"),
        ("currentWatts", "CW"),
        ("maxWattage", "MW"),
    ),
    name="power-sensor",
)


@dataclass(frozen=True)
class PowerSensorReading:
    device_name: str
    current_watts: float
    kwh: float
    max_wattage: float

    def __post_init__(self):
        if not 0 <= self.current_watts <= self.max_wattage:
            raise ValueError(
                f"currentWatts {self.current_watts} outside [0, {self.max_wattage}]"
            )
        if self.kwh < 0:
            raise ValueError(f"KWh must be nonnegative, got {self.kwh}")

    def to_value(self) -> dict:
        return {
            "deviceName": self.device_name,
            "currentWatts": self.current_watts,
            "KWh": self.kwh,
            "maxWattage": self.max_wattage,
        }

    @classmethod
    def from_value(cls, doc: dict) -> "PowerSensorReading":
        return cls(
            device_name=doc["deviceName"],
            current_watts=doc["currentWatts"],
            kwh=doc["KWh"],
            max_wattage=doc["maxWattage"],
        )


DEFAULT_READINGS = (
    PowerSensorReading("ComputerAndScreen", 50.52, 5.835, 100.56),
    PowerSensorReading("Fridge", 86.28, 4.421, 288.92),
)


def answer_power_query(coded_request, readings, mapping) -> list:
    """Build the coded readings array for a coded power query.

    The request must decode to {"values": [{"NoOfDevices": [n]}, ...]} with
    integer n >= 0; the reply holds the first min(n, available) readings,
    coded. Raises ValueError for anything else.
    """
    plain = codec.decode_keys(coded_request, mapping)
    if not isinstance(plain, dict) or not isinstance(plain.get("values"), list):
        raise ValueError("expected an object with a 'values' array")
    values = plain["values"]
    if not values or not isinstance(values[0], dict):
        raise ValueError("'values' must hold at least one object")
    count = values[0].get("NoOfDevices")
    if (
        not isinstance(count, list)
        or len(count) != 1
        or isinstance(count[0], bool)
        or not isinstance(count[0], int)
        or count[0] < 0
    ):
        raise ValueError("'NoOfDevices' must be a one-element array of a nonnegative integer")
    n = min(count[0], len(readings))
    return [codec.encode_keys(r.to_value(), mapping) for r in readings[:n]]


class _SimConnection(Connection):
    methods = frozenset(("GET", "POST"))
    server_version = "wotgw-sim/0.1"

    def __init__(self, simulator: "DeviceSimulator"):
        super().__init__()
        self.simulator = simulator

    def respond(self, method, path, headers, body):
        """Count the request, apply the injected delays and failures, answer it."""
        sim = self.simulator
        now = time.monotonic()
        with sim._lock:
            sim.request_counter += 1
            idle = now - sim._last_request_at
            sim._last_request_at = now
            fail = sim.failure_rate > 0 and sim._rng.random() < sim.failure_rate
            latency = sim.base_latency
            napping = sim.power_save_idle > 0 and idle >= sim.power_save_idle
            wake = sim.wake_latency if napping else 0.0
        if fail:
            self.transport.abort()  # reset the TCP connection without an HTTP response
            return None
        if wake or latency:
            time.sleep(wake + latency)
        if method == "GET" and path == "/status":
            return _json(200, {"status": "ok"})
        if method == "GET" or path != "/power":
            return _json(404, {"error": "not_found"})
        try:
            reply = answer_power_query(codec.parse_json(body), sim.readings, sim.mapping)
        except (ValueError, TypeError, KeyError) as exc:
            log.debug("bad power query: %s", exc)
            return _json(400, codec.encode_keys({"error": "bad_request"}, sim.mapping))
        return _json(200, reply)


def _json(status: int, value):
    return status, [JSON_TYPE], codec.canonical_bytes(value)


class _SocketTransport:
    """What a Connection calls on its transport, done on the blocking socket
    of a handler thread."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.closing = False

    def write(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError:  # the client is gone
            self.closing = True

    def write_eof(self) -> None:
        self.sock.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        self.closing = True

    def abort(self) -> None:
        with suppress(OSError):
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.sock.close()
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        pass

    resume_reading = pause_reading


class _SimServer(socketserver.ThreadingTCPServer):
    """The simulator's listener: each accepted connection is served on a
    daemon thread of its own, by the gateway's HTTP/1.1 Connection.

    A v6 listener is v6-only, so a v4 and a v6 listener can share a port
    number. Accepted connections have Nagle's algorithm off.
    """

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of new
    # clients, which then retry a second later
    request_queue_size = 128

    def __init__(self, bind: tuple[str, int], family: int, simulator: "DeviceSimulator"):
        self.address_family = family
        self.simulator = simulator
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Condition()
        self._thread: threading.Thread | None = None
        super().__init__(bind, None)

    def server_bind(self):
        if self.address_family == socket.AF_INET6:
            self.socket.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
        super().server_bind()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, name="device-sim", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Close the listener, shut down every accepted connection, idle
        keep-alive ones included, and wait up to 5 s for their threads."""
        if self._thread is not None:
            with suppress(OSError):  # wakes serve_forever from its poll
                self.socket.shutdown(socket.SHUT_RDWR)
            self.shutdown()
            self._thread.join(5)
        self.server_close()
        with self._open_lock:
            conns = list(self._open)
        for conn in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        with self._open_lock:
            self._open_lock.wait_for(lambda: not self._open, 5)

    def process_request(self, request, client_address):
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def finish_request(self, request, client_address):
        """Feed one connection's bytes to a Connection until either side ends it."""
        transport = _SocketTransport(request)
        conn = _SimConnection(self.simulator)
        conn.connection_made(transport)
        while not transport.closing:
            try:
                data = request.recv(65536)
            except OSError:  # the client reset the connection
                break
            if not data:
                conn.eof_received()
                break
            conn.data_received(data)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._open_lock:
            self._open.discard(request)
            self._open_lock.notify_all()

    def handle_error(self, request, client_address):
        log.exception("connection from %s failed", client_address)


class DeviceSimulator:
    """Runnable simulator handle: lifecycle, counters, and behavior injection."""

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        readings=DEFAULT_READINGS,
        mapping: codec.MappingDictionary = POWER_SENSOR_MAPPING,
        base_latency: float = 0.0,
        failure_rate: float = 0.0,
        seed: int = 0,
        power_save_idle: float = 30.0,
        wake_latency: float = 0.1,
    ):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        self.readings = tuple(readings)
        self.mapping = mapping
        self.base_latency = base_latency
        self.failure_rate = failure_rate
        self.power_save_idle = power_save_idle
        self.wake_latency = wake_latency
        self.request_counter = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._last_request_at = time.monotonic()
        host = bind[0]
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._server = _SimServer(bind, family, self)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def family(self) -> str:
        return FAMILY_V6 if self._server.address_family == socket.AF_INET6 else FAMILY_V4

    @property
    def request_count(self) -> int:
        with self._lock:
            return self.request_counter

    def start(self) -> "DeviceSimulator":
        self._server.start()
        log.info("simulator listening addr=%s family=%s", self.address, self.family)
        return self

    def stop(self) -> None:
        """Stop listening and drop open connections, so peers see EOF."""
        self._server.stop()

    def inject_behavior(self, latency: float | None = None, failure_rate: float | None = None) -> None:
        """Adjust response latency and per-request failure probability at runtime."""
        with self._lock:
            if latency is not None:
                self.base_latency = latency
            if failure_rate is not None:
                if not 0.0 <= failure_rate <= 1.0:
                    raise ValueError("failure_rate must be within [0, 1]")
                self.failure_rate = failure_rate


def serve(**kwargs) -> DeviceSimulator:
    """Build and start a simulator; returns the running handle."""
    return DeviceSimulator(**kwargs).start()


def load_readings(text: str) -> tuple[PowerSensorReading, ...]:
    """Parse a readings file: a JSON array of long-key reading objects."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("readings file must hold a JSON array")
    return tuple(PowerSensorReading.from_value(item) for item in doc)
