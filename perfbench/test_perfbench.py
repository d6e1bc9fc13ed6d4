"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts the wotgw sources on sys.path)
import load  # noqa: E402
import spans as spanlib  # noqa: E402

QUICK = {"seconds": 1.0, "setups": 1}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_quick_run_has_no_failures(name):
    result = run.run_workload(name, seed=7, trace=False, **QUICK)
    assert result["failed"] == 0, result["problems"]
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0
    assert set(run.END_TO_END) <= set(result["metrics"])
    assert all(result["metrics"][m] > 0 for m in run.END_TO_END)


def test_wrong_body_is_a_failure():
    expected = load.readings_body(2)
    wrong = expected.replace(b"50.52", b"50.53")
    head = b"http/1.1 200 ok\r\ncontent-type: application/json"
    assert load.judge(200, head, expected, expected, may_refuse=False) is None
    assert load.judge(200, head, wrong, expected, may_refuse=False).startswith("wrong body")


def test_refusals_are_judged():
    with_retry = b"http/1.1 429 too many requests\r\nretry-after: 2"
    without = b"http/1.1 429 too many requests\r\ncontent-type: application/json"
    assert load.judge(429, with_retry, b"", b"", may_refuse=True) == "refused"
    assert load.judge(429, without, b"", b"", may_refuse=True) == "429 without Retry-After"
    assert load.judge(429, with_retry, b"", b"", may_refuse=False).startswith("429 to a client")


def test_run_counts_wrong_bodies(monkeypatch):
    # The gateway answers correctly; once the expectation is wrong after
    # warm-up, every answer of the timed phase must count as failed.
    measure = run.measure_phase

    def tampered(*args, **kwargs):
        monkeypatch.setattr(load, "EXPECTED", [b"[0]"] * len(load.EXPECTED))
        return measure(*args, **kwargs)

    monkeypatch.setattr(run, "measure_phase", tampered)
    result = run.run_workload("relay-miss", seed=3, trace=False, seconds=0.5, setups=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_spellings_are_json_of_one_query():
    bodies = load.spellings(2, 17)
    assert len(set(bodies)) == 4
    assert all(json.loads(b) == {"values": [{"NoOfDevices": [2], "window": 17}], "unit": "W"}
               for b in bodies)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    result = run.run_workload("relay-miss", seed=5, trace=True, **QUICK)
    assert result["correct"], result["problems"]
    out = os.path.join(run.OUT, "relay-miss")
    return result, [spanlib.load(os.path.join(out, f"{p}.spans.jsonl"))[1] for p in ("gateway", "device")]


def test_traced_spans_nest_and_self_times_are_not_negative(traced):
    _, files = traced
    for spans in files:
        assert spans
        by_id = {s[0]: s for s in spans}
        for sid, parent, _, t0, t1, *_ in spans:
            assert t0 <= t1
            if parent:
                p = by_id[parent]
                assert p[3] <= t0 and t1 <= p[4]
        assert all(v >= 0 for v in spanlib.self_times(spans).values())


def test_traced_run_reports_every_layer_metric(traced):
    result, _ = traced
    layers = result["layers"]
    assert set(layers) == set(run.layer_units())
    assert layers["codec.parse_calls_per_req"] == pytest.approx(3.0)
    assert layers["socks.sessions_per_req"] == pytest.approx(1.0)
    assert layers["socks.connect_us"] > 0


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
