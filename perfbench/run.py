"""End-to-end benchmark of the wotgw gateway over loopback.

    python3 perfbench/run.py --workload hot-read|relay-miss|flood-shield|all \
        [--seed N] [--seconds S] [--trace 0|1]

The device simulator and the gateway each run in a fresh interpreter
(perfbench/serve.py); the load comes from this process. Every response is
checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Span files and a full result document go to .perfbench_out/<workload>/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from load import (  # noqa: E402
    DEVICE_ID, Generator, HttpConn, STATUS_BODY, power_query, run_phase, spellings,
    status_query, unique_query,
)
import spans as spanlib  # noqa: E402

SETUPS = 5  # stacks set up per run; setup_s is their median
WARM_SECONDS = 0.5
TIME_WAIT_LIMIT = 4000
TIME_WAIT_MAX_WAIT_S = 70.0
WINDOW_S = 1.0
# Every client of hot-read and relay-miss shares one loopback address, so the
# guard gets thresholds that traffic cannot reach.
GUARD_OFF = {"rate_limit": 10**9, "window_seconds": 10.0, "repeat_limit": 10**9, "block_seconds": 60.0}
# flood-shield: the polite client sends POLITE_RATE req/s, under the rate
# limit; the offender repeats one request, past the repeat limit, and is
# blocked for less than a run.
POLITE_RATE = 200.0
POLITE_MISS_SHARE = 0.25
# The offender pauses this long between requests: still well past the guard's
# thresholds, without saturating a 2-core machine on its own, which would
# measure CPU starvation rather than the guard.
OFFENDER_THINK_S = 0.002
FLOOD_GUARD = {"rate_limit": 600, "window_seconds": 2.0, "repeat_limit": 50, "block_seconds": 2.0}

END_TO_END = {  # name -> unit; the JSON line with --trace 0 carries these
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "gateway_cpu_ms_per_req": "ms",
    "gateway_rss_mb": "MB",
    "setup_s": "s",
}
# End-to-end metrics printed with every run but left out of that JSON line:
# the tail latency swings with the CPU time neighbours steal (README.md,
# "Noise"), and the rest can read 0. The last three are carried as
# per-layer metrics by the traced run.
PRINTED = {
    "latency_p99_ms": "ms",
    "error_rate": "ratio",
    "device_calls_per_req": "ratio",
    "device_leg_bytes_per_req": "B",
    "offender_refused_share": "ratio",
}
CARRIED = ("device_calls_per_req", "device_leg_bytes_per_req", "offender_refused_share")


def layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, in the order they are printed."""
    units = {}
    for timing, calls in spanlib.TIMED.values():
        units[timing] = units[timing + "_p99"] = "us"
        units[calls] = "calls/req"
    for base in ("gateway.pipeline_us", "gateway.self_us", "gateway.outside_us"):
        units[base] = units[base + "_p99"] = "us"
    units.update({
        "codec.self_us_per_req": "us",
        "guard.refused_per_req": "ratio",
        "socks.failed_per_req": "ratio",
        "gateway.threads_started_per_req": "calls/req",
        "gateway.threads_peak": "count",
        "cache.hit_ratio": "ratio",
        "cache.evictions_per_req": "ratio",
        "trace.overhead_share": "ratio",
    })
    units.update({k: PRINTED[k] for k in CARRIED})
    return units


# --- workloads -----------------------------------------------------------------


class HotRead:
    """Closed loop, one keep-alive connection per listener family, warm cache."""

    name = "hot-read"
    guard = GUARD_OFF
    cache_max_entries = 1024

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.templates = [status_query()]
        for _ in range(6):
            count, window = rng.randrange(4), rng.randrange(1, 100)
            self.templates += [power_query(body, count) for body in spellings(count, window)]
        self.orders = [[rng.randrange(len(self.templates)) for _ in range(4096)] for _ in range(2)]

    def generators(self, ports):
        def pick(order):
            return lambda i: self.templates[order[i % len(order)]]
        return [Generator(family, family, ports[family], pick(order))
                for family, order in zip(("v4", "v6"), self.orders)]

    def warm(self, gens):
        gens[0].send_each(self.templates)
        run_phase(gens, WARM_SECONDS)

    def device_calls_expected(self, gens, before):
        return 0


class RelayMiss:
    """Closed loop, two keep-alive v4 connections to a v6-only device; every
    body is unique, so every request misses and crosses the SOCKS relay."""

    name = "relay-miss"
    guard = GUARD_OFF
    cache_max_entries = 256  # warm-up fills it; from then on every write evicts

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.counts = [[rng.randrange(4) for _ in range(4096)] for _ in range(2)]

    def generators(self, ports):
        def pick(c):
            counts = self.counts[c]
            return lambda i: unique_query(counts[i % len(counts)], f"{self.seed}-{c}-{i}")
        return [Generator(f"v4.{c}", "v4", ports["v4"], pick(c)) for c in range(2)]

    def warm(self, gens):
        for g in gens:
            g.send_each([g.pick(g.sent + k) for k in range(self.cache_max_entries // 2 + 16)])
        run_phase(gens, WARM_SECONDS)

    def device_calls_expected(self, gens, before):
        return sum(g.attempted for g in gens)


class FloodShield:
    """Open-loop polite v6 client (hits and direct unique misses) beside a v4
    offender repeating one request in a closed loop."""

    name = "flood-shield"
    guard = FLOOD_GUARD
    cache_max_entries = 1024

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.hot = []
        for _ in range(4):
            count, window = rng.randrange(4), rng.randrange(1, 100)
            self.hot += [power_query(body, count) for body in spellings(count, window)]
        self.hot.append(status_query())
        self.offender = power_query('{"values":[{"NoOfDevices":[2]}],"unit":"kW"}', 2)
        # True: a unique miss. A quarter keeps the median inside the hit mode;
        # at half, the median would sit between the two modes and jump.
        self.plan = [rng.random() < POLITE_MISS_SHARE for _ in range(4096)]
        self.hot_order = [rng.randrange(len(self.hot)) for _ in range(4096)]
        self.miss_counts = [rng.randrange(4) for _ in range(4096)]

    def _is_miss(self, i: int) -> bool:
        return self.plan[i % len(self.plan)]

    def _polite(self, i: int):
        j = i % len(self.plan)
        if self.plan[j]:
            return unique_query(self.miss_counts[j], f"{self.seed}-p-{i}")
        return self.hot[self.hot_order[j]]

    def generators(self, ports):
        return [
            Generator("polite", "v6", ports["v6"], self._polite, rate=POLITE_RATE),
            Generator("offender", "v4", ports["v4"], lambda i: self.offender, may_refuse=True,
                      think=OFFENDER_THINK_S),
        ]

    def warm(self, gens):
        gens[0].send_each(self.hot + [self.offender])
        run_phase(gens[:1], WARM_SECONDS)

    def device_calls_expected(self, gens, before):
        polite = gens[0]
        return sum(self._is_miss(i) for i in range(before, before + polite.attempted))


WORKLOADS = {w.name: w for w in (HotRead, RelayMiss, FloodShield)}


# --- processes -----------------------------------------------------------------


class Server:
    """A serve.py child process and its line-oriented control channel."""

    def __init__(self, role: str, trace: bool):
        self.role = role
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), role] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        self._buf = b""

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def read(self, timeout: float = 60.0) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"{self.role} process did not answer")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"{self.role} process exited (code {self.proc.wait()})")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, line: str) -> dict:
        self.send(line)
        return self.read()

    def close(self) -> None:
        try:
            self.send("quit")
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Stack:
    """A device process and a gateway process, set up until the first correct answer."""

    def __init__(self, workload, trace: bool):
        self.servers: list[Server] = []
        self.admin: HttpConn | None = None
        t0 = perf_counter()
        try:
            self.device = self._spawn("device", trace)
            self.gateway = self._spawn("gateway", trace)
            self.device.send("{}")
            port = self.device.read()["port"]
            self.gateway.send(json.dumps({
                "device_id": DEVICE_ID,
                "device_endpoint": f"[::1]:{port}",
                "cache_max_entries": workload.cache_max_entries,
                "guard": workload.guard,
            }))
            self.ports = self.gateway.read()
            probe = HttpConn("v6", self.ports["v6"])
            try:
                status, _, body = probe.exchange(status_query().raw)
            finally:
                probe.close()
            if status != 200 or body != STATUS_BODY:
                raise RuntimeError(f"first response was {status} {body!r}")
            self.setup_s = perf_counter() - t0
            self.admin = HttpConn("v4", self.ports["v4"])
        except BaseException:
            self.close()
            raise

    def _spawn(self, role: str, trace: bool) -> Server:
        server = Server(role, trace)
        self.servers.append(server)
        return server

    def gateway_stats(self) -> dict:
        status, _, body = self.admin.exchange(b"GET /admin/stats HTTP/1.1\r\nHost: wotgw\r\n\r\n")
        if status != 200:
            raise RuntimeError(f"/admin/stats answered {status}")
        return json.loads(body)

    def snapshot(self) -> dict:
        gw = self.gateway_stats()
        return {
            "device_calls": self.device.ask("stats")["request_count"],
            "device_leg_bytes": gw["device_leg_bytes"],
            "cache": gw["cache"],
            "cpu_s": proc_cpu_seconds(self.gateway.proc.pid),
        }

    def tracing(self, on: bool) -> None:
        for server in (self.device, self.gateway):
            server.ask("trace on" if on else "trace off")

    def close(self) -> None:
        if self.admin is not None:
            self.admin.close()
        for server in self.servers:
            server.close()


# --- /proc readings ------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def read_cpu_jiffies() -> list[int]:
    """The machine-wide cpu line of /proc/stat: user ... steal."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


class StealSampler:
    """Samples /proc/stat on a thread, to tell the CPU steal share of any interval.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work: it comes from neighbours, not from the program.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[tuple[float, list[int]]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "StealSampler":
        self.samples.append((perf_counter(), read_cpu_jiffies()))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((perf_counter(), read_cpu_jiffies()))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append((perf_counter(), read_cpu_jiffies()))

    def share(self, t0: float, t1: float) -> float:
        """Steal share between the last sample at or before t0 and the first at or after t1."""
        first = max((s for s in self.samples if s[0] <= t0), default=self.samples[0], key=lambda s: s[0])
        last = min((s for s in self.samples if s[0] >= t1), default=self.samples[-1], key=lambda s: s[0])
        delta = [b - a for a, b in zip(first[1], last[1])]
        return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def drain_time_wait() -> tuple[int, float]:
    """Wait until fewer than TIME_WAIT_LIMIT sockets are in TIME_WAIT.

    A relay-miss run leaves tens of thousands behind, for 60 s each, and a
    full table makes every connect() of the next run dearer. Returns the
    count before waiting and the seconds waited (at most TIME_WAIT_MAX_WAIT_S).
    """
    start = time.monotonic()
    first = count = time_wait_sockets()
    while count >= TIME_WAIT_LIMIT and time.monotonic() - start < TIME_WAIT_MAX_WAIT_S:
        time.sleep(1.0)
        count = time_wait_sockets()
    return first, time.monotonic() - start


def time_wait_sockets() -> int:
    count = 0
    for name in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(name) as fh:
                next(fh)
                count += sum(1 for line in fh if line.split()[3] == "06")
        except OSError:
            pass
    return count


def source_facts() -> dict:
    """Commit when the tree is a git checkout, else null; Python, kernel, cores."""
    from wotgw import codec

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "codec_kernel": codec.active_kernel(),
        "nproc": os.cpu_count(),
    }


# --- one run -------------------------------------------------------------------


def ms(seconds: list[float], q: float) -> float:
    return spanlib.percentile(seconds, q) * 1e3


def windows(served, start: float, seconds: float) -> tuple[float, list[list[float]]]:
    """Cut the phase into windows of about WINDOW_S.

    Returns the window width and, per window, the latencies of the correct
    answers that ended in it.
    """
    count = max(1, round(seconds / WINDOW_S))
    width = seconds / count
    buckets: list[list[float]] = [[] for _ in range(count)]
    for g in served:
        for done, latency in zip(g.done, g.latencies):
            k = int((done - start) / width)
            if 0 <= k < count:
                buckets[k].append(latency)
    return width, buckets


def measure_phase(stack: Stack, workload, gens, seconds: float, trace: bool,
                  record: bool = False) -> dict:
    """Run one timed phase; with ``record`` the servers record spans during it."""
    sent_before = [g.sent for g in gens]
    before = stack.snapshot()
    if record:
        stack.tracing(True)
    with StealSampler() as steal:
        start, elapsed = run_phase(gens, seconds, trace)
    if record:
        time.sleep(0.2)  # relay sessions close just after their response
        stack.tracing(False)
    after = stack.snapshot()
    requests = sum(g.attempted for g in gens)
    served = gens[:1] if isinstance(workload, FloodShield) else gens
    width, buckets = windows(served, start, seconds)
    window_steal = [steal.share(start + k * width, start + (k + 1) * width)
                    for k in range(len(buckets))]
    # The least-stolen half of the windows; see README.md, "Noise".
    quiet = sorted(range(len(buckets)), key=window_steal.__getitem__)[: (len(buckets) + 1) // 2]
    latencies = [x for k in quiet for x in buckets[k]]
    device_calls = after["device_calls"] - before["device_calls"]
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses", "evictions")}
    result = {
        "elapsed_s": elapsed,
        "requests": requests,
        "failed": sum(g.failed for g in gens),
        "reasons": [r for g in gens for r in g.reasons],
        "device_calls": device_calls,
        "device_calls_expected": workload.device_calls_expected(gens, sent_before[0]),
        "cache": cache,
        "steal_share": steal.share(start, start + elapsed),
        "windows": {
            "steal_share": window_steal,
            "quiet": sorted(quiet),
            "throughput_rps": [len(b) / width for b in buckets],
            "latency_p50_ms": [ms(b, 50) for b in buckets],
            "latency_p99_ms": [ms(b, 99) for b in buckets],
        },
        "metrics": {
            # An open loop's rate is set by its schedule; the whole phase
            # shows whether the gateway kept up with it.
            "throughput_rps": (sum(g.ok for g in served) / elapsed if served[0].rate
                               else len(latencies) / (len(quiet) * width)),
            "latency_p50_ms": ms(latencies, 50),
            "latency_p99_ms": ms(latencies, 99),
            "gateway_cpu_ms_per_req": (after["cpu_s"] - before["cpu_s"]) * 1e3 / requests,
            "error_rate": sum(g.failed for g in gens) / requests,
            "device_calls_per_req": device_calls / requests,
            "device_leg_bytes_per_req":
                (after["device_leg_bytes"] - before["device_leg_bytes"]) / requests,
        },
    }
    if isinstance(workload, FloodShield):
        offender, polite = gens[1], gens[0]
        result["metrics"]["offender_refused_share"] = offender.refused / max(1, offender.attempted)
        result["generator_late_ms"] = {
            "p50": ms(polite.lateness, 50), "p99": ms(polite.lateness, 99),
            "max": max(polite.lateness, default=0.0) * 1e3,
        }
    else:
        result["metrics"]["offender_refused_share"] = 0.0
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int = SETUPS) -> dict:
    workload = WORKLOADS[name](seed)
    time_wait, waited = drain_time_wait()
    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **source_facts(),
           "time_wait_at_start": time_wait, "time_wait_waited_s": waited,
           "time_wait_after_wait": time_wait_sockets()}
    setup_times = []
    stack = gens = None
    try:
        for _ in range(setups):
            if stack is not None:
                stack.close()
            stack = Stack(workload, trace)
            setup_times.append(stack.setup_s)
        gens = workload.generators(stack.ports)
        workload.warm(gens)
        if trace:
            reference = measure_phase(stack, workload, gens, seconds / 2, True)
            phase = measure_phase(stack, workload, gens, seconds / 2, True, record=True)
            layers = trace_layers(stack, workload, gens, phase)
            layers["trace.overhead_share"] = (
                phase["metrics"]["gateway_cpu_ms_per_req"]
                / reference["metrics"]["gateway_cpu_ms_per_req"] - 1.0
            )
            phases = [reference, phase]
        else:
            phase = measure_phase(stack, workload, gens, seconds, False)
            phases = [phase]
        rss_mb = proc_status_kb(stack.gateway.proc.pid, "VmHWM") / 1024
    finally:
        for g in gens or ():
            g.close()
        if stack is not None:
            stack.close()

    # End-to-end figures come from the phase without span recording.
    metrics = dict(phases[0]["metrics"])
    metrics["gateway_rss_mb"] = rss_mb
    metrics["setup_s"] = statistics.median(setup_times)
    failures = [r for p in phases for r in p["reasons"]]
    problems = []
    for p in phases:
        if p["device_calls"] != p["device_calls_expected"]:
            problems.append(
                f"device calls {p['device_calls']}, expected {p['device_calls_expected']}"
            )
    if name == "flood-shield" and metrics["offender_refused_share"] <= 0:
        problems.append("the guard refused none of the offender's requests")
    env["time_wait_at_end"] = time_wait_sockets()
    env["steal_share"] = phases[0]["steal_share"]
    if "generator_late_ms" in phases[0]:
        env["generator_late_ms"] = phases[0]["generator_late_ms"]
    attempted = sum(p["requests"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    return {
        "env": env,
        "setup_times_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems + failures,
        "metrics": metrics,
        "layers": layers if trace else None,
        "phases": phases,
    }


def trace_layers(stack: Stack, workload, gens, phase: dict) -> dict:
    out = os.path.join(OUT, workload.name)
    os.makedirs(out, exist_ok=True)
    files = {}
    for server in (stack.gateway, stack.device):
        files[server.role] = os.path.join(out, f"{server.role}.spans.jsonl")
        server.ask(f"dump {files[server.role]}")
    records = [r for g in gens for r in g.records]
    with open(os.path.join(out, "client.records.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    gw_header, gw_spans = spanlib.load(files["gateway"])
    _, dev_spans = spanlib.load(files["device"])
    layers = spanlib.layer_metrics(
        gw_spans, dev_spans, records, phase["requests"], phase["cache"], gw_header["active_threads"]
    )
    for key in CARRIED:
        layers[key] = phase["metrics"][key]
    return layers


# --- output --------------------------------------------------------------------


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the JSON line's object."""
    name = result["env"]["workload"]
    units = layer_units() if trace else END_TO_END
    values = result["layers"] if trace else result["metrics"]
    for metric, unit in {**END_TO_END, **PRINTED}.items():
        if metric == "offender_refused_share" and name != "flood-shield":
            continue
        print(f"{name:<13} {metric:<34} {result['metrics'][metric]:>14.4f} {unit}")
    if trace:
        for metric, unit in units.items():
            print(f"{name:<13} {metric:<34} {values[metric]:>14.4f} {unit}")
    for problem in result["problems"]:
        print(f"{name:<13} problem: {problem}")
    print(f"{name:<13} env {json.dumps(result['env'], sort_keys=True)}")
    os.makedirs(os.path.join(OUT, name), exist_ok=True)
    with open(os.path.join(OUT, name, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = [report(run_workload(n, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
             for n in names]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines),
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "metrics": {f"{n}.{m}": v for n, l in zip(names, lines) for m, v in l["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
