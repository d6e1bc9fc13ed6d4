"""Benchmark harness: an in-process device + gateway stack under load.

A scenario describes the client mix; the runner stands up a simulated device
on one address family, a gateway listening on the other, drives the client
threads, and reports throughput and latency percentiles plus the
device/client leg byte and request counters. Counters are deltas over the
measured phase only, so warmup traffic (cache filling, connection setup) is
excluded.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import statistics
import threading
import time
from dataclasses import asdict, dataclass, fields

from wotgw.config import DeviceConfig, GatewayConfig, format_hostport
from wotgw.device import DEFAULT_READINGS, POWER_SENSOR_MAPPING, DeviceSimulator
from wotgw.gateway import Gateway

DEFAULT_QUERY_BODY = '{"values":[{"NoOfDevices":[2]}]}'

# Long enough that nothing stored during a run expires before it ends; the
# runner pins the gateway's default TTL to this so repeat counts stay stable.
BENCH_TTL_SECONDS = 60.0


@dataclass(frozen=True)
class BenchScenario:
    name: str
    clients: int = 4
    requests_per_client: int = 50
    request_body: str | None = DEFAULT_QUERY_BODY
    codec_enabled: bool = True
    cache_enabled: bool = True
    device_latency: float = 0.0
    warmup_requests: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.clients < 1 or self.requests_per_client < 1:
            raise ValueError("clients and requests_per_client must be at least 1")
        if self.device_latency < 0 or self.warmup_requests < 0:
            raise ValueError("device_latency and warmup_requests must be non-negative")


@dataclass(frozen=True)
class BenchReport:
    scenario: str
    mean_response_ms: float
    p50_response_ms: float
    p95_response_ms: float
    p99_response_ms: float
    device_requests_observed: int
    cache_hit_ratio: float
    bytes_on_device_leg: int
    bytes_on_client_leg: int
    errors: int
    # responses received in the measured phase per second of its wall time,
    # from the start gate to the last client's end; 0.0 in older reports
    throughput_rps: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


BUILTIN_SCENARIOS = {
    "smoke": BenchScenario(name="smoke", clients=2, requests_per_client=10, warmup_requests=2),
    "cached-query": BenchScenario(
        name="cached-query", clients=4, requests_per_client=125, warmup_requests=0
    ),
    "uncached-query": BenchScenario(
        name="uncached-query", clients=4, requests_per_client=25, cache_enabled=False
    ),
    "plain-keys": BenchScenario(
        name="plain-keys", clients=2, requests_per_client=25, codec_enabled=False,
        cache_enabled=False,
    ),
}

_SCENARIO_FIELDS = {f.name for f in fields(BenchScenario)}


def scenario_from_dict(doc: dict) -> BenchScenario:
    unknown = set(doc) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    if "name" not in doc:
        raise ValueError("scenario needs a name")
    return BenchScenario(**doc)


def load_scenario(name_or_path: str) -> BenchScenario:
    """Resolve a builtin scenario name, falling back to a JSON file path."""
    builtin = BUILTIN_SCENARIOS.get(name_or_path)
    if builtin is not None:
        return builtin
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"no such scenario: {name_or_path!r} (builtins: {known})")
    if not isinstance(doc, dict):
        raise ValueError("scenario file must hold a JSON object")
    return scenario_from_dict(doc)


def _percentile(sorted_ms: list[float], q: float) -> float:
    # nearest-rank on the sorted samples
    idx = max(0, math.ceil(q / 100.0 * len(sorted_ms)) - 1)
    return sorted_ms[idx]


class _BenchClient(threading.Thread):
    def __init__(self, addr, method, path, body, count, start_gate, delay):
        super().__init__(daemon=True)
        self.addr = addr
        self.method = method
        self.path = path
        self.body = body
        self.count = count
        self.start_gate = start_gate
        self.delay = delay
        self.latencies_ms: list[float] = []
        self.errors = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.addr[0], self.addr[1], timeout=30)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def run(self):
        self.start_gate.wait()
        if self.delay:
            time.sleep(self.delay)
        conn = self._connect()
        try:
            for _ in range(self.count):
                t0 = time.perf_counter()
                try:
                    conn.request(self.method, self.path, body=self.body)
                    resp = conn.getresponse()
                    resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    self.errors += 1
                    conn.close()
                    conn = self._connect()
                    continue
                self.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
                if not 200 <= status < 300:
                    self.errors += 1
        finally:
            conn.close()


def run_scenario(
    scenario: BenchScenario,
    *,
    client_family: str = "v4",
    device_family: str = "v6",
) -> BenchReport:
    """Run one scenario against a fresh in-process stack and report on it."""
    import random

    from wotgw.codec import EMPTY_MAPPING

    mapping_inline = dict(POWER_SENSOR_MAPPING.entries) if scenario.codec_enabled else None
    device_mapping = POWER_SENSOR_MAPPING if scenario.codec_enabled else EMPTY_MAPPING
    device_host = "::1" if device_family == "v6" else "127.0.0.1"

    sim = DeviceSimulator(
        bind=(device_host, 0),
        mapping=device_mapping,
        readings=DEFAULT_READINGS,
        base_latency=scenario.device_latency,
        power_save_idle=0.0,
    )
    sim.start()
    endpoint = format_hostport(*sim.address)
    config = GatewayConfig(
        listen_v4=("127.0.0.1", 0),
        listen_v6=("::1", 0),
        socks_listen_v4=("127.0.0.1", 0),
        socks_listen_v6=("::1", 0),
        cache_enabled=scenario.cache_enabled,
        cache_default_ttl_seconds=BENCH_TTL_SECONDS,
        request_timeout_seconds=max(5.0, scenario.device_latency * 4 + 2.0),
        probe_interval_seconds=0.0,  # no prober; the run should see only client traffic
        # every load client shares the loopback source IP; the guard would read
        # the run itself as a flood, so it gets thresholds it cannot hit
        dos_rate_limit=10**9,
        dos_repeat_limit=10**9,
        devices=[
            DeviceConfig(
                device_id="bench-device", endpoint=endpoint, mapping_inline=mapping_inline
            )
        ],
    )
    gateway = Gateway(config)
    gateway.start()
    try:
        addr = gateway.listen_address(client_family)
        if scenario.request_body is None:
            method, path, body = "GET", "/devices/bench-device/status", None
        else:
            method, path, body = "POST", "/devices/bench-device/power", scenario.request_body

        if scenario.warmup_requests:
            warm = _BenchClient(addr, method, path, body, scenario.warmup_requests,
                                threading.Event(), 0.0)
            warm.start_gate.set()
            warm.run()

        before_device = sim.request_count
        before = gateway.stats()

        rng = random.Random(scenario.seed)
        gate = threading.Event()
        clients = [
            _BenchClient(addr, method, path, body, scenario.requests_per_client,
                         gate, rng.uniform(0.0, 0.001))
            for _ in range(scenario.clients)
        ]
        for c in clients:
            c.start()
        started = time.perf_counter()
        gate.set()
        for c in clients:
            c.join()
        wall = time.perf_counter() - started

        latencies = sorted(ms for c in clients for ms in c.latencies_ms)
        throughput = len(latencies) / wall
        errors = sum(c.errors for c in clients)
        total = scenario.clients * scenario.requests_per_client
        device_requests = sim.request_count - before_device
        after = gateway.stats()
        dev_bytes = after["device_leg_bytes"] - before["device_leg_bytes"]
        cli_bytes = after["client_leg_bytes"] - before["client_leg_bytes"]
        hit_ratio = 0.0 if total == 0 else max(0.0, 1.0 - device_requests / total)
        if not latencies:
            latencies = [0.0]
        return BenchReport(
            scenario=scenario.name,
            mean_response_ms=statistics.fmean(latencies),
            p50_response_ms=_percentile(latencies, 50),
            p95_response_ms=_percentile(latencies, 95),
            p99_response_ms=_percentile(latencies, 99),
            device_requests_observed=device_requests,
            cache_hit_ratio=hit_ratio,
            bytes_on_device_leg=dev_bytes,
            bytes_on_client_leg=cli_bytes,
            errors=errors,
            throughput_rps=throughput,
        )
    finally:
        gateway.stop()
        sim.stop()


def write_report(report: BenchReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> BenchReport:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = {f.name for f in fields(BenchReport)}
    missing = names - set(doc) - {"throughput_rps"}
    if missing:
        raise ValueError(f"report missing fields: {sorted(missing)}")
    return BenchReport(**{k: doc[k] for k in names if k in doc})


_COMPARE_METRICS = tuple(f.name for f in fields(BenchReport) if f.name != "scenario")


def compare_reports(a: BenchReport, b: BenchReport) -> list[tuple[str, float, float, float]]:
    """Rows of (metric, a, b, delta) for every reported metric."""
    rows = []
    for name in _COMPARE_METRICS:
        va, vb = float(getattr(a, name)), float(getattr(b, name))
        rows.append((name, va, vb, vb - va))
    return rows


def format_comparison(a: BenchReport, b: BenchReport) -> str:
    rows = compare_reports(a, b)
    width = max(len(r[0]) for r in rows)
    lines = [f"{'metric':<{width}}  {a.scenario:>14}  {b.scenario:>14}  {'delta':>12}"]
    for name, va, vb, delta in rows:
        lines.append(f"{name:<{width}}  {va:>14.3f}  {vb:>14.3f}  {delta:>+12.3f}")
    return "\n".join(lines)
