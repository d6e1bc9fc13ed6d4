"""One server process of the benchmark: the device simulator or the gateway.

    python3 perfbench/serve.py device|gateway [--trace]

The process reads one JSON config line on stdin, starts the server, prints
one JSON "ready" line and then answers control lines on stdin, one JSON
line each:

    stats          counters the public API exposes in this process
    trace on|off   start or stop recording spans (needs --trace)
    dump <path>    write the recorded spans as JSON lines to <path>
    quit           stop the server and exit

With --trace, public wotgw functions are wrapped before the server starts.
Each wrapper records a span (id, parent id, name, start, end, request id,
ok, note) on a thread-local stack. Names are patched where the callers look
them up, so ``socks_connect`` is patched as ``wotgw.gateway.socks_connect``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Header carrying the benchmark's request id; read by the pipeline wrapper only.
REQUEST_ID_HEADER = "X-Bench-Request-Id"

# Effectively "never expires" for the length of one benchmark run.
CACHE_TTL_SECONDS = 3600.0


class Tracer:
    """Records spans around wrapped callables while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, request_id=None, note=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``request_id(args)`` gives the id for a span with no parent on its
        thread; child spans inherit their parent's. ``note(result)`` stores
        one value about the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = 0, request_id(args) if request_id else None
            sid = next(tracer._ids)
            stack.append((sid, rid))
            ok, noted = False, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if note is not None:
                    noted = note(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, rid, ok, noted))

        return traced

    def dump(self, path: str, header: dict) -> int:
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        return len(spans)


def trace_gateway(tracer: Tracer) -> None:
    from wotgw import cache, codec, gateway, guard, socks

    wrap = tracer.wrap
    guard.DosGuard.record_and_check = wrap(
        "guard.check", guard.DosGuard.record_and_check, note=lambda d: d.allowed
    )
    cache.CacheKey.for_request = classmethod(
        wrap("cache.key", cache.CacheKey.for_request.__func__)
    )
    cache.ResponseCache.get = wrap("cache.get", cache.ResponseCache.get)
    cache.ResponseCache.put = wrap("cache.put", cache.ResponseCache.put)
    for name, attr in (
        ("codec.parse", "parse_json"),
        ("codec.encode", "encode_keys"),
        ("codec.decode", "decode_keys"),
        ("codec.dump", "canonical_bytes"),
        ("codec.digest", "digest_value"),
        ("codec.digest", "digest_bytes"),
    ):
        setattr(codec, attr, wrap(name, getattr(codec, attr)))
    # handle_client_request(self, client_ip, family, method, path, headers, body)
    gateway.Gateway.handle_client_request = wrap(
        "gateway.pipeline",
        gateway.Gateway.handle_client_request,
        request_id=lambda args: args[5].get(REQUEST_ID_HEADER),
    )
    gateway.Gateway.forward_to_device = wrap("gateway.forward", gateway.Gateway.forward_to_device)
    gateway.socks_connect = wrap("socks.connect", gateway.socks_connect)
    socks.SocksRelayServer.establish_and_pump = wrap(
        "socks.session", socks.SocksRelayServer.establish_and_pump
    )
    threading.Thread.start = wrap(
        "thread.start", threading.Thread.start, note=lambda _: threading.active_count()
    )


def trace_device(tracer: Tracer) -> None:
    from wotgw import device

    device.answer_power_query = tracer.wrap("device.answer", device.answer_power_query)


def start_device(_doc: dict):
    from wotgw.device import DeviceSimulator

    sim = DeviceSimulator(bind=("::1", 0), power_save_idle=0.0).start()
    return {"port": sim.address[1]}, lambda: {"request_count": sim.request_count}, sim.stop


def start_gateway(doc: dict):
    from wotgw.config import DeviceConfig, GatewayConfig
    from wotgw.device import POWER_SENSOR_MAPPING
    from wotgw.gateway import Gateway
    from wotgw.socks import FAMILY_V4, FAMILY_V6

    guard = doc["guard"]
    config = GatewayConfig(
        listen_v4=("127.0.0.1", 0),
        listen_v6=("::1", 0),
        socks_listen_v4=("127.0.0.1", 0),
        socks_listen_v6=("::1", 0),
        probe_interval_seconds=0.0,
        request_timeout_seconds=5.0,
        cache_max_entries=doc["cache_max_entries"],
        cache_default_ttl_seconds=CACHE_TTL_SECONDS,
        dos_rate_limit=guard["rate_limit"],
        dos_window_seconds=guard["window_seconds"],
        dos_repeat_limit=guard["repeat_limit"],
        dos_block_seconds=guard["block_seconds"],
        devices=[
            DeviceConfig(
                device_id=doc["device_id"],
                endpoint=doc["device_endpoint"],
                mapping_inline=dict(POWER_SENSOR_MAPPING.entries),
            )
        ],
    )
    gw = Gateway(config).start()
    ready = {
        "v4": gw.listen_address(FAMILY_V4)[1],
        "v6": gw.listen_address(FAMILY_V6)[1],
    }
    return ready, lambda: {"active_threads": threading.active_count()}, gw.stop


def main(argv: list[str]) -> int:
    role, trace = argv[0], "--trace" in argv[1:]
    tracer = Tracer()
    if trace:
        (trace_gateway if role == "gateway" else trace_device)(tracer)
    start = {"device": start_device, "gateway": start_gateway}[role]
    ready, stats, stop = start(json.loads(sys.stdin.readline()))

    def reply(doc: dict) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    reply(ready)
    try:
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if cmd == "stats":
                reply(stats())
            elif cmd == "trace":
                tracer.enabled = trace and arg == "on"
                reply({"tracing": tracer.enabled})
            elif cmd == "dump":
                reply({"spans": tracer.dump(arg, {"process": role, **stats()})})
            elif cmd == "quit":
                break
            else:
                reply({"error": f"unknown command {cmd!r}"})
    finally:
        stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
