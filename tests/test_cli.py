import json
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

CMD = [sys.executable, "-m", "wotgw.cli"]

REPORT_FIELDS = {
    "scenario", "mean_response_ms", "p50_response_ms", "p95_response_ms",
    "p99_response_ms", "device_requests_observed", "cache_hit_ratio",
    "bytes_on_device_leg", "bytes_on_client_leg", "errors", "throughput_rps",
}


def run_cli(*args, timeout=90):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=timeout
    )


class _LineReader:
    """Collect a pipe's lines on a background thread so reads cannot hang."""

    def __init__(self, pipe):
        self.lines = []
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._drain, args=(pipe,), daemon=True)
        self._thread.start()

    def _drain(self, pipe):
        with pipe:  # closed at EOF, once the process has exited
            for line in pipe:
                with self._lock:
                    self.lines.append(line.rstrip("\n"))

    def wait_for(self, needle, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if any(needle in line for line in self.lines):
                    return True
            time.sleep(0.02)
        return False

    def snapshot(self):
        with self._lock:
            return list(self.lines)


def spawn(*args):
    return subprocess.Popen(
        CMD + list(args),
        stdout=subprocess.DEVNULL,  # nothing reads it, so no pipe to leave open
        stderr=subprocess.PIPE,
        text=True,
    )


def interrupt_and_wait(proc, timeout=15):
    proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail("process ignored SIGINT")


class TestUsage:
    def test_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for word in ["gateway", "sim", "bench", "compare"]:
            assert word in result.stdout

    def test_no_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_bad_log_level(self):
        result = run_cli("--log-level", "shouty", "bench", "--scenario", "smoke")
        assert result.returncode == 2


class TestGatewayCommand:
    def _config(self, tmp_path, **over):
        doc = {
            "gateway": {"listen_v4": "127.0.0.1:0", "listen_v6": "[::1]:0"},
            "socks": {"listen_v4": "127.0.0.1:0", "listen_v6": "[::1]:0"},
        }
        for key, value in over.items():
            doc[key] = value
        path = tmp_path / "gw.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_config_file(self, tmp_path):
        result = run_cli("gateway", "--config", str(tmp_path / "absent.json"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_invalid_config_rejected(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('{"gateway": {"listen_v9": "127.0.0.1:0"}}')
        result = run_cli("gateway", "--config", str(path))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_missing_device_mapping_rejected(self, tmp_path):
        config = self._config(
            tmp_path,
            devices=[{"id": "d1", "endpoint": "127.0.0.1:1",
                      "mapping_file": "no-such.map"}],
        )
        result = run_cli("gateway", "--config", config)
        assert result.returncode == 2
        assert "mapping file not found" in result.stderr

    def test_device_id_no_request_can_name_is_a_config_error(self, tmp_path):
        config = self._config(tmp_path, devices=[{"id": "a b", "endpoint": "127.0.0.1:1"}])
        result = run_cli("gateway", "--config", config)
        assert result.returncode == 2
        assert result.stderr.startswith("wotgw: config error: bad device id 'a b'")

    @pytest.mark.parametrize("table", [None, "dev v9 127.0.0.1\n"], ids=["missing", "malformed"])
    def test_bad_static_resolver_table_is_a_config_error(self, tmp_path, table):
        path = tmp_path / "hosts"
        if table is not None:
            path.write_text(table)
        socks = {"listen_v4": "127.0.0.1:0", "listen_v6": "[::1]:0", "resolver": f"static:{path}"}
        result = run_cli("gateway", "--config", self._config(tmp_path, socks=socks))
        assert result.returncode == 2
        assert result.stderr.startswith("wotgw: config error: socks.resolver")
        assert "Traceback" not in result.stderr

    def test_starts_and_stops_cleanly(self, tmp_path):
        proc = spawn("gateway", "--config", self._config(tmp_path))
        reader = _LineReader(proc.stderr)
        try:
            assert reader.wait_for("gateway ready")
            lines = reader.snapshot()
            assert any(line.startswith("listening v4 on 127.0.0.1:") for line in lines)
            assert any(line.startswith("listening v6 on [::1]:") for line in lines)
        finally:
            assert interrupt_and_wait(proc) == 0

    def test_port_in_use(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            config = self._config(tmp_path)
            with open(config) as fh:
                doc = json.load(fh)
            doc["gateway"]["listen_v4"] = f"127.0.0.1:{port}"
            with open(config, "w") as fh:
                json.dump(doc, fh)
            result = run_cli("gateway", "--config", config)
            assert result.returncode == 2
            assert "cannot bind" in result.stderr
            assert f"127.0.0.1:{port}" in result.stderr
        finally:
            blocker.close()


class TestSimCommand:
    def test_starts_and_stops_cleanly(self):
        proc = spawn("sim", "--bind", "127.0.0.1:0", "--power-save-idle-s", "0")
        reader = _LineReader(proc.stderr)
        try:
            assert reader.wait_for("device listening on 127.0.0.1:")
            assert reader.wait_for("sim ready")
        finally:
            assert interrupt_and_wait(proc) == 0

    def test_bind_in_use(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            result = run_cli("sim", "--bind", f"127.0.0.1:{port}")
            assert result.returncode == 2
        finally:
            blocker.close()

    def test_bad_bind_text(self):
        result = run_cli("sim", "--bind", "nonsense")
        assert result.returncode == 2
        assert "sim setup error" in result.stderr

    def test_negative_latency(self):
        result = run_cli("sim", "--latency-ms", "-5")
        assert result.returncode == 2
        assert "sim setup error" in result.stderr

    def test_missing_mapping_file(self, tmp_path):
        result = run_cli("sim", "--mapping", str(tmp_path / "no.map"))
        assert result.returncode == 2

    def test_bad_readings_file(self, tmp_path):
        path = tmp_path / "readings.json"
        path.write_text('{"not": "an array"}')
        result = run_cli("sim", "--readings", str(path))
        assert result.returncode == 2


class TestBenchCommand:
    def _scenario(self, tmp_path, **over):
        doc = {"name": "cli-tiny", "clients": 1, "requests_per_client": 3,
               "warmup_requests": 0}
        doc.update(over)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_and_write_report(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("bench", "--scenario", self._scenario(tmp_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        printed_keys = {
            line.split(":", 1)[0] for line in result.stdout.splitlines() if ":" in line
        }
        assert printed_keys == REPORT_FIELDS
        saved = json.loads(out.read_text())
        assert set(saved) == REPORT_FIELDS
        assert saved["scenario"] == "cli-tiny"
        assert saved["errors"] == 0

    def test_unknown_scenario(self):
        result = run_cli("bench", "--scenario", "definitely-not-real")
        assert result.returncode == 2
        assert "smoke" in result.stderr  # error names the builtins

    def test_bad_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"name": "x", "clients": 0}')
        result = run_cli("bench", "--scenario", str(path))
        assert result.returncode == 2


class TestCompareCommand:
    def _make_report(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        doc = {"name": name, "clients": 1, "requests_per_client": 2, "warmup_requests": 0}
        scenario = tmp_path / f"{name}-scenario.json"
        scenario.write_text(json.dumps(doc))
        result = run_cli("bench", "--scenario", str(scenario), "--out", str(out))
        assert result.returncode == 0, result.stderr
        return str(out)

    def test_compare_two_runs(self, tmp_path):
        a = self._make_report(tmp_path, "a")
        b = self._make_report(tmp_path, "b")
        result = run_cli("compare", a, b)
        assert result.returncode == 0
        assert "metric" in result.stdout
        assert "mean_response_ms" in result.stdout
        assert "delta" in result.stdout

    def test_missing_report(self, tmp_path):
        a = self._make_report(tmp_path, "only")
        result = run_cli("compare", a, str(tmp_path / "absent.json"))
        assert result.returncode == 2
        assert "cannot load reports" in result.stderr

    def test_malformed_report(self, tmp_path):
        a = self._make_report(tmp_path, "good")
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "x"}')
        result = run_cli("compare", a, str(bad))
        assert result.returncode == 2
