import json

import pytest

from wotgw.bench import (
    BUILTIN_SCENARIOS,
    DEFAULT_QUERY_BODY,
    BenchReport,
    BenchScenario,
    _percentile,
    compare_reports,
    format_comparison,
    load_report,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    write_report,
)


class TestScenario:
    def test_defaults(self):
        s = BenchScenario(name="x")
        assert s.clients == 4
        assert s.requests_per_client == 50
        assert s.request_body == DEFAULT_QUERY_BODY
        assert s.codec_enabled and s.cache_enabled
        assert s.seed == 0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(clients=0),
            dict(requests_per_client=0),
            dict(device_latency=-0.1),
            dict(warmup_requests=-1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            BenchScenario(name="x", **bad)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError) as err:
            scenario_from_dict({"name": "x", "turbo": True})
        assert "turbo" in str(err.value)

    def test_from_dict_requires_name(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"clients": 2})

    def test_builtins_resolve(self):
        for name in ["smoke", "cached-query", "uncached-query", "plain-keys"]:
            assert load_scenario(name) is BUILTIN_SCENARIOS[name]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text('{"name": "custom", "clients": 1, "requests_per_client": 3}')
        s = load_scenario(str(path))
        assert s.name == "custom"
        assert s.clients == 1

    def test_missing_scenario_lists_builtins(self):
        with pytest.raises(ValueError) as err:
            load_scenario("no-such-thing")
        assert "smoke" in str(err.value)

    def test_file_must_hold_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_scenario(str(path))


class TestPercentile:
    def test_single_sample(self):
        assert _percentile([4.0], 50) == 4.0
        assert _percentile([4.0], 99) == 4.0

    def test_nearest_rank(self):
        xs = [float(i) for i in range(1, 11)]  # 1..10
        assert _percentile(xs, 50) == 5.0
        assert _percentile(xs, 95) == 10.0
        assert _percentile(xs, 10) == 1.0

    def test_known_percentile_values(self):
        xs = [float(i) for i in range(1, 101)]
        assert _percentile(xs, 99) == 99.0
        assert _percentile(xs, 100) == 100.0


def _tiny(name="tiny", **over):
    base = dict(clients=2, requests_per_client=5, warmup_requests=1, seed=7)
    base.update(over)
    return BenchScenario(name=name, **base)


class TestRunScenario:
    def test_small_cached_run(self):
        # warmup fills the cache, so the measured phase never reaches the device
        report = run_scenario(_tiny())
        assert report.scenario == "tiny"
        assert report.errors == 0
        assert report.device_requests_observed == 0
        assert report.cache_hit_ratio == 1.0
        assert report.bytes_on_device_leg == 0
        assert report.bytes_on_client_leg > 0
        assert report.mean_response_ms > 0
        assert report.p50_response_ms <= report.p95_response_ms <= report.p99_response_ms

    def test_throughput_counts_the_measured_phase_over_its_wall_time(self):
        report = run_scenario(_tiny())
        wall = 10 / report.throughput_rps
        # each client sends its 5 requests one after another, inside the wall time
        assert wall >= report.mean_response_ms * 5 / 1000.0

    def test_cold_cache_coalesces_to_one_device_request(self):
        report = run_scenario(_tiny(warmup_requests=0))
        assert report.errors == 0
        assert report.device_requests_observed == 1
        assert report.cache_hit_ratio == 1.0 - 1 / 10

    def test_cache_off_hits_device_every_time(self):
        report = run_scenario(_tiny(cache_enabled=False))
        assert report.device_requests_observed == 10
        assert report.cache_hit_ratio == 0.0
        assert report.errors == 0

    def test_same_seed_reproduces_counters(self):
        a = run_scenario(_tiny())
        b = run_scenario(_tiny())
        assert a.device_requests_observed == b.device_requests_observed
        assert a.cache_hit_ratio == b.cache_hit_ratio
        assert a.bytes_on_device_leg == b.bytes_on_device_leg
        assert a.bytes_on_client_leg == b.bytes_on_client_leg
        assert a.errors == b.errors == 0

    def test_codec_shrinks_device_leg_only(self):
        on = run_scenario(_tiny(cache_enabled=False))
        off = run_scenario(_tiny(cache_enabled=False, codec_enabled=False))
        assert on.bytes_on_device_leg < off.bytes_on_device_leg
        assert on.bytes_on_client_leg == off.bytes_on_client_leg

    def test_get_scenario_uses_status_path(self):
        # zero errors means every GET /status answered 200 through the stack
        report = run_scenario(_tiny(request_body=None, warmup_requests=0))
        assert report.errors == 0
        assert report.device_requests_observed == 1


class TestReports:
    def _report(self, name="a", **over):
        base = dict(
            scenario=name,
            mean_response_ms=1.5,
            p50_response_ms=1.0,
            p95_response_ms=2.0,
            p99_response_ms=3.0,
            device_requests_observed=1,
            cache_hit_ratio=0.9,
            bytes_on_device_leg=137,
            bytes_on_client_leg=198,
            errors=0,
        )
        base.update(over)
        return BenchReport(**base)

    def test_write_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "report.json")
        report = self._report()
        write_report(report, path)
        assert load_report(path) == report

    def test_a_report_without_throughput_loads_it_as_zero(self, tmp_path):
        path = tmp_path / "older.json"
        doc = self._report(throughput_rps=123.0).to_dict()
        del doc["throughput_rps"]
        path.write_text(json.dumps(doc))
        assert load_report(str(path)) == self._report()
        assert load_report(str(path)).throughput_rps == 0.0

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        doc = self._report().to_dict()
        del doc["cache_hit_ratio"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_report(str(path))
        assert "cache_hit_ratio" in str(err.value)

    def test_compare_identity_has_zero_deltas(self):
        r = self._report()
        rows = compare_reports(r, r)
        assert len(rows) == 10
        assert all(delta == 0.0 for _, _, _, delta in rows)

    def test_compare_reports_deltas(self):
        a = self._report()
        b = self._report(name="b", mean_response_ms=2.5, errors=3)
        rows = {name: delta for name, _, _, delta in compare_reports(a, b)}
        assert rows["mean_response_ms"] == 1.0
        assert rows["errors"] == 3.0

    def test_format_comparison_is_a_table(self):
        a, b = self._report(), self._report(name="b")
        text = format_comparison(a, b)
        lines = text.splitlines()
        assert len(lines) == 11
        assert "metric" in lines[0]
        assert all(name in text for name in ["mean_response_ms", "cache_hit_ratio", "errors"])
