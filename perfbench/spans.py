"""Per-layer metrics from the spans a traced run writes out.

A span is ``(id, parent id, name, start, end, request id, ok, note)``;
parent id 0 means the span has no parent on its thread. A span's self time
is its duration minus the durations of its children, which run on the same
thread and so never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict

# span name -> (self-time metric, calls-per-request metric)
TIMED = {
    "guard.check": ("guard.check_us", "guard.check_calls_per_req"),
    "cache.key": ("cache.key_us", "cache.key_calls_per_req"),
    "cache.get": ("cache.get_us", "cache.get_calls_per_req"),
    "cache.put": ("cache.put_us", "cache.put_calls_per_req"),
    "codec.parse": ("codec.parse_us", "codec.parse_calls_per_req"),
    "codec.encode": ("codec.encode_us", "codec.encode_calls_per_req"),
    "codec.decode": ("codec.decode_us", "codec.decode_calls_per_req"),
    "codec.dump": ("codec.dump_us", "codec.dump_calls_per_req"),
    "codec.digest": ("codec.digest_us", "codec.digest_calls_per_req"),
    "socks.connect": ("socks.connect_us", "socks.connect_calls_per_req"),
    "socks.session": ("socks.session_us", "socks.sessions_per_req"),
    "gateway.forward": ("gateway.forward_us", "gateway.forward_calls_per_req"),
    "device.answer": ("device.answer_us", "device.calls_per_req"),
}


def load(path: str) -> tuple[dict, list[tuple]]:
    """Read a span file: a JSON header line, then one span per line."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [tuple(json.loads(line)) for line in fh]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Map span id -> self time in seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1, *_ in spans:
        if parent:
            child_time[parent] += t1 - t0
    return {sid: (t1 - t0) - child_time[sid] for sid, _, _, t0, t1, *_ in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _timing(metrics: dict, base: str, seconds: list[float]) -> None:
    us = [s * 1e6 for s in seconds]
    metrics[base] = percentile(us, 50)
    metrics[base + "_p99"] = percentile(us, 99)


def layer_metrics(gateway_spans, device_spans, records, requests, stats, threads_now) -> dict:
    """Per-layer metrics for one traced phase.

    ``records`` are the client's (request id, send, receive) times,
    ``requests`` the number of client requests in the phase, ``stats`` the
    phase's deltas of the gateway's cache counters, and ``threads_now`` the
    gateway's thread count when the phase ended.
    """
    spans = list(gateway_spans) + list(device_spans)
    own = self_times(gateway_spans)
    own.update(self_times(device_spans))
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    metrics: dict[str, float] = {}
    for name, (timing, calls) in TIMED.items():
        group = by_name.get(name, [])
        _timing(metrics, timing, [own[s[0]] for s in group])
        metrics[calls] = len(group) / requests

    pipeline = by_name.get("gateway.pipeline", [])
    _timing(metrics, "gateway.pipeline_us", [t1 - t0 for _, _, _, t0, t1, *_ in pipeline])
    _timing(metrics, "gateway.self_us", [own[s[0]] for s in pipeline])
    pipeline_by_rid = {s[5]: s[4] - s[3] for s in pipeline if s[5] is not None}
    _timing(metrics, "gateway.outside_us", [
        (t1 - t0) - pipeline_by_rid[rid] for rid, t0, t1 in records if rid in pipeline_by_rid
    ])

    metrics["codec.self_us_per_req"] = sum(
        own[s[0]] for name in by_name if name.startswith("codec.") for s in by_name[name]
    ) * 1e6 / requests
    metrics["guard.refused_per_req"] = sum(
        1 for s in by_name.get("guard.check", []) if s[7] is False
    ) / requests
    metrics["socks.failed_per_req"] = sum(
        1 for s in by_name.get("socks.session", []) if not s[6]
    ) / requests
    starts = by_name.get("thread.start", [])
    metrics["gateway.threads_started_per_req"] = len(starts) / requests
    metrics["gateway.threads_peak"] = max([threads_now] + [s[7] for s in starts if s[7]])
    lookups = stats["hits"] + stats["misses"]
    metrics["cache.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    metrics["cache.evictions_per_req"] = stats["evictions"] / requests
    return metrics
