import http.client
import random
import socket
import threading
import time

import pytest

from wotgw import codec
from wotgw.device import (
    DEFAULT_READINGS,
    POWER_SENSOR_MAPPING,
    DeviceSimulator,
    PowerSensorReading,
    answer_power_query,
    load_readings,
    serve,
)

CODED_QUERY = {"values": [{"ND": [2]}]}

TWO_DEVICE_CODED = (
    '[{"DN":"ComputerAndScreen","CW":50.52,"KWh":5.835,"MW":100.56},'
    '{"DN":"Fridge","CW":86.28,"KWh":4.421,"MW":288.92}]'
)


def _request(addr, method, path, body=None, timeout=5.0):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestPowerSensorReading:
    def test_valid_reading(self):
        r = PowerSensorReading("Lamp", 10.0, 0.5, 60.0)
        assert r.to_value() == {
            "deviceName": "Lamp",
            "currentWatts": 10.0,
            "KWh": 0.5,
            "maxWattage": 60.0,
        }

    def test_watts_above_max_rejected(self):
        with pytest.raises(ValueError):
            PowerSensorReading("Lamp", 61.0, 0.5, 60.0)

    def test_negative_watts_rejected(self):
        with pytest.raises(ValueError):
            PowerSensorReading("Lamp", -1.0, 0.5, 60.0)

    def test_negative_kwh_rejected(self):
        with pytest.raises(ValueError):
            PowerSensorReading("Lamp", 10.0, -0.1, 60.0)

    def test_from_value_roundtrip(self):
        for r in DEFAULT_READINGS:
            assert PowerSensorReading.from_value(r.to_value()) == r

    def test_default_readings(self):
        names = [r.device_name for r in DEFAULT_READINGS]
        assert names == ["ComputerAndScreen", "Fridge"]
        assert DEFAULT_READINGS[0].current_watts == 50.52
        assert DEFAULT_READINGS[1].max_wattage == 288.92


class TestAnswerPowerQuery:
    def test_two_devices(self):
        reply = answer_power_query(CODED_QUERY, DEFAULT_READINGS, POWER_SENSOR_MAPPING)
        assert codec.canonical_bytes(reply).decode() == TWO_DEVICE_CODED
        plain = codec.decode_keys(reply, POWER_SENSOR_MAPPING)
        assert plain[0]["deviceName"] == "ComputerAndScreen"
        assert plain[1]["currentWatts"] == 86.28

    def test_zero_devices(self):
        q = {"values": [{"ND": [0]}]}
        assert answer_power_query(q, DEFAULT_READINGS, POWER_SENSOR_MAPPING) == []

    def test_count_clamped_to_available(self):
        q = {"values": [{"ND": [5]}]}
        reply = answer_power_query(q, DEFAULT_READINGS, POWER_SENSOR_MAPPING)
        assert len(reply) == 2

    def test_single_device(self):
        q = {"values": [{"ND": [1]}]}
        reply = answer_power_query(q, DEFAULT_READINGS, POWER_SENSOR_MAPPING)
        assert len(reply) == 1
        assert reply[0]["DN"] == "ComputerAndScreen"

    def test_long_key_query_also_accepted(self):
        # decoding leaves unmapped long keys alone, so a plain query works too
        q = {"values": [{"NoOfDevices": [2]}]}
        reply = answer_power_query(q, DEFAULT_READINGS, POWER_SENSOR_MAPPING)
        assert len(reply) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"values": "nope"},
            {"values": []},
            {"values": [[]]},
            {"values": [{}]},
            {"values": [{"ND": 2}]},
            {"values": [{"ND": [2, 3]}]},
            {"values": [{"ND": [-1]}]},
            {"values": [{"ND": [True]}]},
            {"values": [{"ND": [2.0]}]},
            {"other": 1},
            [],
        ],
    )
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(ValueError):
            answer_power_query(bad, DEFAULT_READINGS, POWER_SENSOR_MAPPING)


class TestLoadReadings:
    def test_valid_array(self):
        text = '[{"deviceName":"A","currentWatts":1.0,"KWh":0.1,"maxWattage":2.0}]'
        readings = load_readings(text)
        assert readings == (PowerSensorReading("A", 1.0, 0.1, 2.0),)

    def test_non_array_rejected(self):
        with pytest.raises(ValueError):
            load_readings('{"deviceName":"A"}')

    def test_invariant_violation_rejected(self):
        text = '[{"deviceName":"A","currentWatts":3.0,"KWh":0.1,"maxWattage":2.0}]'
        with pytest.raises(ValueError):
            load_readings(text)


@pytest.fixture
def sim():
    s = DeviceSimulator(power_save_idle=0.0)
    s.start()
    yield s
    s.stop()


class TestLiveSimulator:
    def test_status_endpoint(self, sim):
        status, body = _request(sim.address, "GET", "/status")
        assert status == 200
        assert body == b'{"status":"ok"}'
        assert sim.request_count == 1

    def test_head_gets_the_get_reply_without_content(self, sim):
        conn = http.client.HTTPConnection(*sim.address, timeout=5.0)
        try:
            conn.request("HEAD", "/status")
            resp = conn.getresponse()
            assert (resp.status, resp.getheader("Content-Length"), resp.read()) == (200, "15", b"")
            conn.request("GET", "/status")  # the same connection, still in step
            assert conn.getresponse().read() == b'{"status":"ok"}'
        finally:
            conn.close()
        assert sim.request_count == 2

    def test_power_query_coded_reply(self, sim):
        status, body = _request(
            sim.address, "POST", "/power", body=codec.canonical_bytes(CODED_QUERY)
        )
        assert status == 200
        assert body.decode() == TWO_DEVICE_CODED

    def test_unknown_path_404(self, sim):
        status, body = _request(sim.address, "GET", "/nowhere")
        assert status == 404
        assert codec.parse_json(body) == {"error": "not_found"}

    def test_bad_power_query_400(self, sim):
        status, body = _request(sim.address, "POST", "/power", body=b'{"values":[]}')
        assert status == 400
        assert codec.parse_json(body) == {"error": "bad_request"}

    def test_unparseable_body_400(self, sim):
        status, _ = _request(sim.address, "POST", "/power", body=b"not json")
        assert status == 400

    def test_counter_counts_every_request(self, sim):
        for _ in range(3):
            _request(sim.address, "GET", "/status")
        _request(sim.address, "GET", "/other")
        assert sim.request_count == 4

    def test_latency_injection(self, sim):
        sim.inject_behavior(latency=0.08)
        start = time.monotonic()
        status, _ = _request(sim.address, "GET", "/status")
        elapsed = time.monotonic() - start
        assert status == 200
        assert elapsed >= 0.08

    def test_delayed_requests_wait_together_on_no_new_threads(self, sim):
        sim.inject_behavior(latency=0.3)
        threads = threading.active_count()
        socks = [socket.create_connection(sim.address, timeout=5.0) for _ in range(8)]
        try:
            start = time.monotonic()
            for sock in socks:
                sock.sendall(b"GET /status HTTP/1.1\r\nHost: sim\r\n\r\n")
            deadline = start + 5.0
            while sim.request_count < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() == threads  # while all 8 wait
            replies = []
            for sock in socks:
                reply = b""
                while not reply.endswith(b'{"status":"ok"}') and (chunk := sock.recv(4096)):
                    reply += chunk
                replies.append(reply)
            elapsed = time.monotonic() - start
        finally:
            for sock in socks:
                sock.close()
        assert all(reply.startswith(b"HTTP/1.1 200 ") for reply in replies)
        assert all(reply.endswith(b'{"status":"ok"}') for reply in replies)
        assert elapsed < 1.2  # one after another would take 2.4 s

    def test_certain_failure_resets_connection(self, sim):
        sim.inject_behavior(failure_rate=1.0)
        with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
            _request(sim.address, "GET", "/status")
        assert sim.request_count == 1  # failed requests still count
        sim.inject_behavior(failure_rate=0.0)
        status, _ = _request(sim.address, "GET", "/status")
        assert status == 200

    def test_stop_drops_idle_keep_alive_connections(self):
        sim = DeviceSimulator(power_save_idle=0.0).start()
        sock = socket.create_connection(sim.address, timeout=5.0)
        try:
            sock.sendall(b"GET /status HTTP/1.1\r\nHost: sim\r\n\r\n")
            reply = b""
            while not reply.endswith(b'{"status":"ok"}'):
                reply += sock.recv(4096)
            sim.stop()
            assert sock.recv(4096) == b""  # EOF, not a handler left serving
        finally:
            sock.close()

    def test_stop_mid_response_prints_no_traceback(self, capfd):
        sim = DeviceSimulator(power_save_idle=0.0, base_latency=0.3).start()
        sock = socket.create_connection(sim.address, timeout=5.0)
        try:
            sock.sendall(b"GET /status HTTP/1.1\r\nHost: sim\r\n\r\n")
            deadline = time.monotonic() + 5.0
            while sim.request_count == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            sim.stop()  # the handler is still sleeping; its write then fails
        finally:
            sock.close()
        assert "Traceback" not in capfd.readouterr().err

    def test_invalid_failure_rate_rejected(self, sim):
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                sim.inject_behavior(failure_rate=rate)
            with pytest.raises(ValueError):
                DeviceSimulator(failure_rate=rate)
        assert sim.failure_rate == 0.0

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.inject_behavior(latency=-0.01)
        assert sim.base_latency == 0.0

    @pytest.mark.parametrize("delay", ["base_latency", "wake_latency"])
    def test_negative_delay_rejected_on_construction(self, delay):
        with pytest.raises(ValueError):
            DeviceSimulator(**{delay: -0.01})


def test_seeded_failures_replay_exactly():
    seed, rate, n = 7, 0.5, 20
    ref = random.Random(seed)
    expected = [ref.random() < rate for _ in range(n)]

    sim = DeviceSimulator(failure_rate=rate, seed=seed, power_save_idle=0.0)
    sim.start()
    try:
        observed = []
        for _ in range(n):
            try:
                status, _ = _request(sim.address, "GET", "/status")
                observed.append(status != 200)
            except (ConnectionError, http.client.HTTPException, OSError):
                observed.append(True)
        assert observed == expected
        assert sim.request_count == n
    finally:
        sim.stop()


def test_power_save_wake_delay():
    sim = DeviceSimulator(power_save_idle=0.2, wake_latency=0.15)
    sim.start()
    try:
        time.sleep(0.35)  # let the device drift into power save
        start = time.monotonic()
        _request(sim.address, "GET", "/status")
        first = time.monotonic() - start
        start = time.monotonic()
        _request(sim.address, "GET", "/status")
        second = time.monotonic() - start
        assert first >= 0.12
        assert second < 0.12
    finally:
        sim.stop()


def test_power_save_disabled_never_delays():
    sim = DeviceSimulator(power_save_idle=0.0, wake_latency=0.5)
    sim.start()
    try:
        time.sleep(0.25)
        start = time.monotonic()
        _request(sim.address, "GET", "/status")
        assert time.monotonic() - start < 0.2
    finally:
        sim.stop()


def test_ipv6_binding():
    sim = DeviceSimulator(bind=("::1", 0), power_save_idle=0.0)
    sim.start()
    try:
        assert sim.family == "v6"
        assert sim.address[0] == "::1"
        status, _ = _request(sim.address, "GET", "/status")
        assert status == 200
    finally:
        sim.stop()


def test_serve_helper_returns_running_handle():
    sim = serve(power_save_idle=0.0)
    try:
        status, _ = _request(sim.address, "GET", "/status")
        assert status == 200
    finally:
        sim.stop()


def test_custom_readings_and_empty_mapping():
    readings = (PowerSensorReading("Heater", 900.0, 12.5, 2000.0),)
    sim = DeviceSimulator(readings=readings, mapping=codec.EMPTY_MAPPING, power_save_idle=0.0)
    sim.start()
    try:
        body = codec.canonical_bytes({"values": [{"NoOfDevices": [1]}]})
        status, reply = _request(sim.address, "POST", "/power", body=body)
        assert status == 200
        # empty mapping: reply keeps long keys on the wire
        assert codec.parse_json(reply) == [
            {"deviceName": "Heater", "currentWatts": 900.0, "KWh": 12.5, "maxWattage": 2000.0}
        ]
    finally:
        sim.stop()


def test_wildcard_v4_and_v6_simulators_share_a_port():
    v4 = DeviceSimulator(bind=("0.0.0.0", 0), power_save_idle=0.0).start()
    try:
        port = v4.address[1]
        v6 = DeviceSimulator(bind=("::", port), power_save_idle=0.0).start()
        try:
            for host in ("127.0.0.1", "::1"):
                assert _request((host, port), "GET", "/status") == (200, b'{"status":"ok"}')
            assert (v4.request_count, v6.request_count) == (1, 1)
        finally:
            v6.stop()
    finally:
        v4.stop()


@pytest.mark.parametrize("request_bytes, status, error", [
    (b"PUT /power HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501, "not_implemented"),
    (b"GET /status HTTP/1.1\r\nX-A : one\r\n\r\n", 400, "bad_header"),
    (b"POST /power HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400, "bad_content_length"),
], ids=["put", "space-before-colon", "bad-length"])
def test_refused_requests_get_json_errors(sim, request_bytes, status, error):
    with socket.create_connection(sim.address, timeout=5.0) as sock:
        sock.sendall(request_bytes)
        reply = b""
        while chunk := sock.recv(4096):  # the simulator closes after a refusal
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert codec.parse_json(body) == {"error": error}
    assert sim.request_count == 0
