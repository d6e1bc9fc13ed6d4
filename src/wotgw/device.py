"""Miniature embedded-device web server emulating a power-sensor API.

Speaks coded JSON on the wire: POST /power takes a coded query and returns
the coded readings array; GET /status answers {"status":"ok"}. Latency,
seeded failure injection (connection reset), and a power-save idle mode are
configurable so gateway behavior is observable and reproducible. The server
is intentionally weak — every connection is served by the gateway's HTTP/1.1
``Connection`` on one event loop thread, and a delayed reply holds its
connection until it is sent — which is exactly what the gateway's cache is
meant to protect.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import struct
from dataclasses import dataclass

from wotgw import _AF, FAMILY_V4, FAMILY_V6, codec
from wotgw.http11 import JSON_TYPE, Connection, LoopServer

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

    def respond(self, method, path, headers, body):
        """Count the request, apply the injected delays and failures, answer it."""
        sim = self.server
        now = sim.loop.time()
        sim.request_count += 1
        idle = now - sim._last_request_at
        sim._last_request_at = now
        latency = sim.base_latency
        napping = sim.power_save_idle > 0 and idle >= sim.power_save_idle
        wake = sim.wake_latency if napping else 0.0
        if sim.failure_rate > 0 and sim._rng.random() < sim.failure_rate:
            # reset the TCP connection without an HTTP response
            sock = self.transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.transport.abort()
            return None
        reply = _answer(sim, method, path, body)
        return _delayed(wake + latency, reply) if wake or latency else reply


def _answer(sim: "DeviceSimulator", method: str, path: str, body: bytes):
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


async def _delayed(delay: float, reply):
    import asyncio

    await asyncio.sleep(delay)
    return reply


def _json(status: int, value):
    return status, [JSON_TYPE], codec.canonical_bytes(value)


def _check_delay(name: str, value: float) -> None:
    if not value >= 0:  # NaN too
        raise ValueError(f"{name} must be nonnegative")


def _check_rate(value: float) -> None:
    if not 0.0 <= value <= 1.0:  # NaN too
        raise ValueError("failure_rate must be within [0, 1]")


class DeviceSimulator(LoopServer):
    """Runnable simulator handle: lifecycle, counters, and behavior injection.

    The listener is bound on construction, so ``address`` holds before
    ``start``. A v6 listener is v6-only, so a v4 and a v6 simulator can share
    a port number.
    """

    thread_name = "device-sim"

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
        _check_rate(failure_rate)
        _check_delay("base_latency", base_latency)
        _check_delay("wake_latency", wake_latency)
        self.readings = tuple(readings)
        self.mapping = mapping
        self.base_latency = base_latency
        self.failure_rate = failure_rate
        self.power_save_idle = power_save_idle
        self.wake_latency = wake_latency
        self.request_count = 0
        self._rng = random.Random(seed)
        self.family = FAMILY_V6 if ":" in bind[0] else FAMILY_V4
        self._sock = socket.create_server(bind, family=_AF[self.family], backlog=128)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        super().__init__({self.family: self._sock})

    def accept(self, family: str) -> _SimConnection:
        return _SimConnection(self)

    async def open(self) -> None:
        await super().open()
        self._last_request_at = self.loop.time()  # idle from the moment it listens

    def stop(self) -> None:
        """Stop listening and drop open connections, so peers see EOF; the
        socket bound on construction is closed even without a start."""
        super().stop()
        self._sock.close()

    def inject_behavior(self, latency: float | None = None, failure_rate: float | None = None) -> None:
        """Adjust response latency and per-request failure probability at
        runtime; both are checked before either is applied, on the loop."""
        changes = {}
        if latency is not None:
            _check_delay("latency", latency)
            changes["base_latency"] = latency
        if failure_rate is not None:
            _check_rate(failure_rate)
            changes["failure_rate"] = failure_rate
        self.call(vars(self).update, changes)


def serve(**kwargs) -> DeviceSimulator:
    """Build and start a simulator; returns the running handle."""
    return DeviceSimulator(**kwargs).start()


def load_readings(text: str) -> tuple[PowerSensorReading, ...]:
    """Parse a readings file: a JSON array of long-key reading objects."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("readings file must hold a JSON array")
    return tuple(PowerSensorReading.from_value(item) for item in doc)
