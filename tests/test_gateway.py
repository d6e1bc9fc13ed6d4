import asyncio
import contextlib
import email.utils
import http.client
import json
import socket
import struct
import sys
import threading
import time

import pytest

from wotgw import codec
from wotgw.cache import CacheEntry, CacheKey
from wotgw.config import ConfigError, DeviceConfig, GatewayConfig, format_hostport, load_config
from wotgw.device import DeviceSimulator
from wotgw.http11 import http_date
from wotgw.socks import socks_connect
from wotgw.gateway import (
    DeviceRecord,
    DeviceRegistry,
    DuplicateDeviceError,
    POOL_IDLE_SECONDS,
    POOL_MAX_IDLE,
    Gateway,
    IdlePool,
    _normalize_client_ip,
    _read_reply,
    _Upstream,
)

POWER_MAP = {
    "NoOfDevices": "ND",
    "deviceName": "DN",
    "currentWatts": "CW",
    "maxWattage": "MW",
}

QUERY_LONG = b'{"values":[{"NoOfDevices":[2]}]}'

TWO_DEVICE_LONG = (
    '[{"deviceName":"ComputerAndScreen","currentWatts":50.52,"KWh":5.835,'
    '"maxWattage":100.56},{"deviceName":"Fridge","currentWatts":86.28,'
    '"KWh":4.421,"maxWattage":288.92}]'
).encode()


def _request(addr, method, path, body=None, headers=None, timeout=5.0):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        hdrs = {"Connection": "close"}
        if body is not None:
            hdrs["Content-Type"] = "application/json"
        if headers:
            hdrs.update(headers)
        conn.request(method, path, body=body, headers=hdrs)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def make_config(devices, **over):
    base = dict(
        listen_v4=("127.0.0.1", 0),
        listen_v6=("::1", 0),
        socks_listen_v4=("127.0.0.1", 0),
        socks_listen_v6=("::1", 0),
        probe_interval_seconds=0.0,
        request_timeout_seconds=2.0,
        dos_rate_limit=10**6,
        dos_repeat_limit=10**6,
        devices=list(devices),
    )
    base.update(over)
    return GatewayConfig(**base)


def power_device(sim, device_id="power", **extra):
    return DeviceConfig(
        device_id=device_id,
        endpoint=format_hostport(*sim.address),
        mapping_inline=dict(POWER_MAP),
        **extra,
    )


@contextlib.contextmanager
def running(config):
    gw = Gateway(config)
    gw.start()
    try:
        yield gw
    finally:
        gw.stop()


@pytest.fixture
def sim_v6():
    s = DeviceSimulator(bind=("::1", 0), power_save_idle=0.0).start()
    yield s
    s.stop()


@pytest.fixture
def sim_v4():
    s = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
    yield s
    s.stop()


class TestRegistry:
    def _record(self, device_id="d1"):
        return DeviceRecord(
            device_id=device_id, host="127.0.0.1", port=1, family="v4",
            mapping=codec.EMPTY_MAPPING,
        )

    def test_duplicate_rejected(self):
        reg = DeviceRegistry()
        reg.swap(self._record())
        with pytest.raises(DuplicateDeviceError):
            reg.swap(self._record())

    def test_replace_reports_existing(self):
        reg = DeviceRegistry()
        first = self._record()
        assert reg.swap(first) is None
        assert reg.swap(self._record(), replace=True) is first

    def test_replacement_invalidates_cached_responses(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            key = CacheKey.for_request("power", "GET", "/status", b"")
            gw.cache.put(key, CacheEntry(200, b"{}", time.monotonic(), 60.0))
            assert gw.cache.get(key, time.monotonic()) is not None
            gw.register_device_config(power_device(sim_v4), replace=True)
            assert gw.cache.get(key, time.monotonic()) is None


class _IdleConn:
    """Stands in for a pooled device connection."""

    def __init__(self):
        self.closed = False
        self.unread = False  # stray bytes or EOF arrived while it was idle

    def reusable(self):
        return not (self.closed or self.unread)

    def close(self):
        self.closed = True


class TestIdlePool:
    def test_lifo_and_cap(self):
        assert POOL_MAX_IDLE == 2
        pool = IdlePool()
        conns = [_IdleConn() for _ in range(3)]
        assert [pool.give("leg", c, 0.0) for c in conns] == [True, True, False]
        assert conns[2].closed
        assert pool.take("leg", 1.0) == (conns[1], 0)
        assert pool.take("other", 1.0) == (None, 0)
        conns[1].close()
        assert pool.close() == 1

    def test_expired_and_unquiet_connections_are_discarded(self):
        pool = IdlePool()
        old, chatty = _IdleConn(), _IdleConn()
        pool.give("leg", old, 0.0)
        pool.give("leg", chatty, 1.0)
        chatty.unread = True
        assert pool.take("leg", POOL_IDLE_SECONDS + 0.5) == (None, 2)
        assert old.closed and chatty.closed

    @pytest.mark.parametrize("arrival", ["stray", "eof"])
    def test_bytes_or_eof_while_idle_make_a_connection_unfit(self, arrival):
        async def fitness():
            reader = asyncio.StreamReader()
            conn = _Upstream(reader, None)
            before = conn.reusable()
            if arrival == "stray":
                reader.feed_data(b"stray")
            else:
                reader.feed_eof()
            return before, conn.reusable()

        assert asyncio.run(fitness()) == (True, False)

    def test_sweep_and_close(self):
        pool = IdlePool()
        old, fresh = _IdleConn(), _IdleConn()
        pool.give("leg", old, 0.0)
        pool.give("leg", fresh, 1.0)
        assert pool.sweep(POOL_IDLE_SECONDS + 0.5) == 1
        assert old.closed and not fresh.closed
        assert pool.close() == 1
        late = _IdleConn()
        assert pool.give("leg", late, 2.0) is False  # handed back after close
        assert fresh.closed and late.closed


class TestNormalizeClientIp:
    def test_mapped_v4_unwrapped(self):
        assert _normalize_client_ip("::ffff:127.0.0.1") == "127.0.0.1"

    def test_scope_id_stripped(self):
        assert _normalize_client_ip("fe80::1%eth0") == "fe80::1"

    def test_compression(self):
        assert _normalize_client_ip("0:0:0:0:0:0:0:1") == "::1"

    def test_non_ip_passthrough(self):
        assert _normalize_client_ip("weird-host") == "weird-host"


class TestEndToEnd:
    def test_cross_family_power_query(self, sim_v6):
        cfg = make_config([power_device(sim_v6)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, headers, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert status == 200
            assert body == TWO_DEVICE_LONG
            assert headers["X-WoT-Device"] == "power"
            assert headers["X-WoT-Cache"] == "miss"
            assert headers["Content-Type"] == "application/json"

    def test_second_request_is_cache_hit(self, sim_v6):
        cfg = make_config([power_device(sim_v6)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            status, headers, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert status == 200
            assert body == TWO_DEVICE_LONG
            assert headers["X-WoT-Cache"] == "hit"
            assert sim_v6.request_count == 1

    def test_v6_client_leg_to_v4_device(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v6")
            status, _, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert status == 200
            assert body == TWO_DEVICE_LONG

    def test_byte_counters_show_coding_gain(self, sim_v6):
        cfg = make_config([power_device(sim_v6)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            # device leg carries the short-key forms, client leg the long forms
            assert gw.device_leg_bytes == 23 + 114
            assert gw.client_leg_bytes == 32 + 166
            assert gw.device_leg_bytes < gw.client_leg_bytes

    def test_relay_session_only_for_cross_family(self, sim_v6, sim_v4):
        cfg = make_config([power_device(sim_v6, "six"), power_device(sim_v4, "four")])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/four/status")
            assert gw.relay.stats.snapshot()["sessions_total"] == 0  # direct path
            _request(addr, "GET", "/devices/six/status")
            assert _wait_for(lambda: gw.relay.stats.snapshot()["sessions_total"] == 1)

    def test_relay_disabled_cross_family_fails(self, sim_v6):
        cfg = make_config([power_device(sim_v6)], relay_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, headers, body = _request(addr, "GET", "/devices/power/status")
            assert status == 503
            assert codec.parse_json(body) == {"status": "device_unavailable", "device": "power"}
            assert gw.stats()["relay"] is None

    def test_relay_disabled_same_family_still_works(self, sim_v4):
        cfg = make_config([power_device(sim_v4)], relay_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/devices/power/status")
            assert status == 200
            assert body == b'{"status":"ok"}'


class TestRouting:
    def test_unknown_device(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/devices/ghost/status")
            assert status == 404
            assert codec.parse_json(body) == {"error": "unknown_device", "device": "ghost"}

    def test_non_device_paths(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for path in ["/", "/nope", "/devices", "/devices/power"]:
                status, _, body = _request(addr, "GET", path)
                assert status == 404
                assert codec.parse_json(body) == {"error": "not_found"}
            assert sim_v4.request_count == 0

    def test_non_2xx_device_response_passes_through(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/devices/power/nowhere")
            assert status == 404
            assert codec.parse_json(body) == {"error": "not_found"}
            _request(addr, "GET", "/devices/power/nowhere")
            assert sim_v4.request_count == 2  # errors are never cached

    def test_chunked_body_rejected(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            host, port = gw.listen_address("v4")
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                sock.sendall(
                    b"POST /devices/power/power HTTP/1.1\r\n"
                    b"Host: gw\r\nTransfer-Encoding: chunked\r\n\r\n"
                )
                reply = sock.recv(4096).decode()
                assert " 411 " in reply.splitlines()[0]
            finally:
                sock.close()


    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_malformed_content_length_is_400(self, sim_v4, length):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            sock = socket.create_connection(gw.listen_address("v4"), timeout=5.0)
            try:
                sock.sendall(
                    b"POST /devices/power/power HTTP/1.1\r\n"
                    b"Host: gw\r\nContent-Length: " + length + b"\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(4096):  # the gateway closes after replying
                    reply += chunk
            finally:
                sock.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert b" 400 " in head.splitlines()[0]
            assert body == b'{"error":"bad_content_length"}'
            assert sim_v4.request_count == 0

    @pytest.mark.parametrize("length", [b"1000000000000000", b"9" * 5000], ids=["1e15", "5000-digits"])
    def test_oversized_content_length_is_413_before_reading(self, sim_v4, length):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            sock = socket.create_connection(gw.listen_address("v4"), timeout=5.0)
            try:
                sock.sendall(
                    b"POST /devices/power/power HTTP/1.1\r\n"
                    b"Host: gw\r\nContent-Length: " + length + b"\r\n\r\n" + QUERY_LONG
                )
                reply = b""
                while chunk := sock.recv(4096):  # the gateway closes after replying
                    reply += chunk
            finally:
                sock.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert b" 413 " in head.splitlines()[0]
            assert b"connection: close" in head.lower()
            assert body == b'{"error":"body_too_large"}'
            assert sim_v4.request_count == 0

    @pytest.mark.parametrize("body", [
        b'{"DN":1}',  # a key equal to a short code
        b'{"x":NaN}',
        b'{"x":1e400}',  # parses to infinity
        b'{"x":"\\ud800"}',  # a lone surrogate has no UTF-8 form
        b'{"\\ud800":{"DN":1}}',  # a collision under a key with no UTF-8 form
    ], ids=["collision", "nan", "overflow", "surrogate", "surrogate-path"])
    def test_body_the_codec_cannot_code_is_400(self, sim_v4, body):
        with running(make_config([power_device(sim_v4)])) as gw:
            status, headers, reply = _request(gw.listen_address("v4"), "POST", "/devices/power/power", body)
            assert status == 400
            assert codec.parse_json(reply)["error"] == "bad_body"
            assert headers["X-WoT-Device"] == "power"
            assert sim_v4.request_count == 0


class TestCachePolicy:
    def test_no_cache_header_bypasses_and_refreshes(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/power/status")
            _request(addr, "GET", "/devices/power/status")
            assert sim_v4.request_count == 1
            status, headers, _ = _request(
                addr, "GET", "/devices/power/status", headers={"Cache-Control": "no-cache"}
            )
            assert status == 200
            assert headers["X-WoT-Cache"] == "miss"
            assert sim_v4.request_count == 2
            _request(addr, "GET", "/devices/power/status")  # refreshed entry serves this
            assert sim_v4.request_count == 2

    def test_pragma_no_cache_also_bypasses(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/power/status")
            _request(addr, "GET", "/devices/power/status", headers={"Pragma": "no-cache"})
            assert sim_v4.request_count == 2

    def test_non_json_post_not_cached(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for _ in range(2):
                status, _, _ = _request(addr, "POST", "/devices/power/power", b"not json")
                assert status == 400
            assert sim_v4.request_count == 2

    def test_device_ttl_expiry(self, sim_v4):
        cfg = make_config([power_device(sim_v4, ttl_seconds=0.2)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/power/status")
            _request(addr, "GET", "/devices/power/status")
            assert sim_v4.request_count == 1
            time.sleep(0.3)
            _request(addr, "GET", "/devices/power/status")
            assert sim_v4.request_count == 2

    def test_cache_disabled_every_request_forwards(self, sim_v4):
        cfg = make_config([power_device(sim_v4)], cache_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for _ in range(3):
                _request(addr, "GET", "/devices/power/status")
            assert sim_v4.request_count == 3

    def test_json_body_is_parsed_once_per_request(self, sim_v4, monkeypatch):
        parse = codec.parse_json
        calls = []

        def counting(data):
            if sys._getframe(1).f_globals["__name__"] != "wotgw.device":  # the simulator's own
                calls.append(data)
            return parse(data)

        monkeypatch.setattr(codec, "parse_json", counting)
        with running(make_config([power_device(sim_v4)])) as gw:
            addr = gw.listen_address("v4")
            status, headers, _ = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert (status, headers["X-WoT-Cache"]) == (200, "miss")
            assert len(calls) == 2  # the request, then the device's reply
            del calls[:]
            status, headers, _ = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert (status, headers["X-WoT-Cache"]) == (200, "hit")
            assert len(calls) == 1

    def test_equivalent_json_bodies_share_entry(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            spaced = b'{ "values" : [ { "NoOfDevices" : [2] } ] }'
            status, headers, _ = _request(addr, "POST", "/devices/power/power", spaced)
            assert status == 200
            assert headers["X-WoT-Cache"] == "hit"
            assert sim_v4.request_count == 1

    def test_equal_numbers_in_other_spellings_share_entry(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            addr = gw.listen_address("v4")
            for spelling in (b"1.50", b"1.5"):
                body = b'{"values":[{"NoOfDevices":[2]}],"x":' + spelling + b"}"
                assert _request(addr, "POST", "/devices/power/power", body)[0] == 200
            assert sim_v4.request_count == 1

    def test_single_flight_coalesces_concurrent_misses(self, sim_v4):
        sim_v4.inject_behavior(latency=0.2)
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            results = []
            lock = threading.Lock()

            def worker():
                got = _request(addr, "GET", "/devices/power/status")
                with lock:
                    results.append(got)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 8
            assert all(status == 200 for status, _, _ in results)
            assert all(body == b'{"status":"ok"}' for _, _, body in results)
            assert sim_v4.request_count == 1


    def test_a_miss_whose_task_starts_after_the_flight_ended_joins_it(self):
        gw = Gateway(make_config([DeviceConfig(device_id="d", endpoint="127.0.0.1:9")]))
        gw.register_device_config(gw.config.devices[0])
        forwarded = []

        async def scenario():
            release = asyncio.get_running_loop().create_future()

            async def pipeline(record, method, path, body, doc, family, key):
                forwarded.append(key)
                await release
                gw.cache.put(key, CacheEntry(200, b"{}", time.monotonic(), 60.0))
                return gw._device_response(record, 200, b"{}", "miss")

            gw._forward_pipeline = pipeline
            args = ("10.0.0.1", "v4", "GET", "/devices/d/x", {}, b"")
            first = asyncio.ensure_future(gw._front(*args))
            await asyncio.sleep(0)  # the first miss is in flight
            second = gw._front(*args)  # a miss too: nothing is cached yet
            release.set_result(None)  # the flight ends before the second task starts
            second = asyncio.ensure_future(second)
            return await first, await second

        _, second = asyncio.run(scenario())
        assert len(forwarded) == 1
        assert ("X-WoT-Cache", "hit") in second[1]

    def test_concurrent_errors_coalesce_to_one_device_request(self, sim_v4):
        # errors are not cached, so a request arriving after the first one
        # finished would reach the device again: start all ten together and
        # keep the device slow enough that they overlap
        sim_v4.inject_behavior(latency=1.0)
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            results = []
            lock = threading.Lock()
            start = threading.Barrier(10)

            def worker():
                start.wait(timeout=10)
                got = _request(addr, "GET", "/devices/power/nowhere")
                with lock:
                    results.append(got)

            threads = [threading.Thread(target=worker) for _ in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert [status for status, _, _ in results] == [404] * 10
            assert all(codec.parse_json(body) == {"error": "not_found"} for _, _, body in results)
            assert sim_v4.request_count == 1


class TestGuardIntegration:
    def test_429_with_retry_after(self, sim_v4):
        cfg = make_config(
            [power_device(sim_v4)],
            dos_rate_limit=2, dos_window_seconds=10.0, dos_block_seconds=2.0,
        )
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            assert _request(addr, "GET", "/devices/power/a")[0] == 404
            assert _request(addr, "GET", "/devices/power/b")[0] == 404
            status, headers, body = _request(addr, "GET", "/devices/power/c")
            assert status == 429
            assert headers["Retry-After"] == "2"
            assert codec.parse_json(body) == {"error": "rate_limited", "reason": "rate_exceeded"}
            status, _, body = _request(addr, "GET", "/devices/power/d")
            assert status == 429
            assert codec.parse_json(body)["reason"] == "still_blocked"

    def test_block_happens_before_device_contact(self, sim_v4):
        cfg = make_config(
            [power_device(sim_v4)],
            dos_rate_limit=1, dos_window_seconds=10.0, dos_block_seconds=60.0,
        )
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/power/status")
            status, _, _ = _request(addr, "GET", "/devices/power/status?x=1")
            assert status == 429
            assert sim_v4.request_count == 1

    def test_clients_judged_independently(self, sim_v4):
        cfg = make_config(
            [power_device(sim_v4)],
            dos_rate_limit=1, dos_window_seconds=10.0, dos_block_seconds=60.0,
        )
        with running(cfg) as gw:
            now = time.monotonic()
            plain_headers = {}
            args = ("v4", "GET", "/devices/power/status", plain_headers, b"")
            assert gw.handle_client_request("10.0.0.1", *args)[0] == 200
            assert gw.handle_client_request("10.0.0.1", *args)[0] == 429
            assert gw.handle_client_request("10.0.0.2", *args)[0] == 200

    def test_repeat_burst_blocked_over_http(self, sim_v4):
        cfg = make_config(
            [power_device(sim_v4)],
            dos_rate_limit=10**6, dos_repeat_limit=3, dos_block_seconds=60.0,
        )
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for _ in range(3):
                assert _request(addr, "POST", "/devices/power/power", QUERY_LONG)[0] == 200
            status, _, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert status == 429
            assert codec.parse_json(body)["reason"] == "repeat_burst"


class TestHealthAndOutage:
    def test_outage_then_recovery_with_manual_probe(self):
        sim = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        port = sim.address[1]
        cfg = make_config([power_device(sim)], failure_threshold=2,
                          request_timeout_seconds=0.5)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            assert _request(addr, "GET", "/devices/power/status")[0] == 200
            sim.stop()

            for _ in range(2):  # drive consecutive failures past the threshold
                status, _, body = _request(
                    addr, "GET", "/devices/power/status",
                    headers={"Cache-Control": "no-cache"},
                )
                assert status == 503
                assert codec.parse_json(body) == {
                    "status": "device_unavailable", "device": "power",
                }
            assert gw.registry.get("power").health == "down"

            # while down, the gateway answers without touching the network
            status, _, _ = _request(addr, "GET", "/devices/power/power")
            assert status == 503

            sim2 = DeviceSimulator(bind=("127.0.0.1", port), power_save_idle=0.0).start()
            try:
                # still marked down until a probe succeeds
                status, _, _ = _request(
                    addr, "GET", "/devices/power/status",
                    headers={"Cache-Control": "no-cache"},
                )
                assert status == 503
                assert gw.probe_device("power") == "up"
                status, _, body = _request(
                    addr, "GET", "/devices/power/status",
                    headers={"Cache-Control": "no-cache"},
                )
                assert status == 200
                assert body == b'{"status":"ok"}'
            finally:
                sim2.stop()

    def test_background_prober_marks_down_and_up(self):
        sim = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        port = sim.address[1]
        cfg = make_config(
            [power_device(sim)],
            probe_interval_seconds=0.1, failure_threshold=1,
            request_timeout_seconds=0.5,
        )
        with running(cfg) as gw:
            record = gw.registry.get("power")
            assert _wait_for(lambda: record.health == "up")
            sim.stop()
            assert _wait_for(lambda: record.health == "down")
            sim2 = DeviceSimulator(bind=("127.0.0.1", port), power_save_idle=0.0).start()
            try:
                assert _wait_for(lambda: record.health == "up")
                addr = gw.listen_address("v4")
                assert _request(addr, "GET", "/devices/power/status")[0] == 200
            finally:
                sim2.stop()

    def test_device_name_the_resolver_lacks_is_unavailable(self, tmp_path):
        table = tmp_path / "hosts"
        table.write_text("other.device v4 127.0.0.1\n")
        device = DeviceConfig(device_id="power", endpoint="unlisted.device:80",
                              mapping_inline=dict(POWER_MAP))
        with running(make_config([device], socks_resolver=f"static:{table}")) as gw:
            status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/power/status")
            assert (status, codec.parse_json(body)) == (503, {"status": "device_unavailable", "device": "power"})
            assert gw.probe_device("power") == "down"

    def test_timeout_maps_to_504(self, sim_v4):
        sim_v4.inject_behavior(latency=1.0)
        cfg = make_config([power_device(sim_v4)], request_timeout_seconds=0.3)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, headers, body = _request(addr, "GET", "/devices/power/status")
            assert status == 504
            assert codec.parse_json(body) == {"status": "device_timeout", "device": "power"}
            assert headers["X-WoT-Device"] == "power"

    def test_connect_timeout_maps_to_503(self):
        with _unaccepting_listener() as addr:
            device = DeviceConfig(device_id="slow", endpoint=format_hostport(*addr),
                                  mapping_inline=dict(POWER_MAP))
            with running(make_config([device], request_timeout_seconds=0.3)) as gw:
                status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/slow/status")
        assert (status, codec.parse_json(body)) == (503, {"status": "device_unavailable", "device": "slow"})

    def test_reset_midstream_maps_to_503(self, sim_v4):
        sim_v4.inject_behavior(failure_rate=1.0)
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/devices/power/status")
            assert status == 503
            assert codec.parse_json(body)["status"] == "device_unavailable"


@contextlib.contextmanager
def _unaccepting_listener():
    """A v4 listener whose accept queue is full, so a connect to it waits
    until its own timeout."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    filler = socket.create_connection(listener.getsockname(), timeout=5.0)
    with listener, filler:
        yield listener.getsockname()


class _AnswerOnceServer:
    """Answers the first request on each connection, then closes it unanswered.

    Keeps the connection open after the first answer, like a keep-alive
    device that dies while the gateway holds it idle.
    """

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.connections = 0
        threading.Thread(target=self._loop, daemon=True).start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    @staticmethod
    def _serve(conn):
        with conn, contextlib.suppress(OSError):
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            head, _, body = data.partition(b"\r\n\r\n")
            length = [int(line.split(b":")[1]) for line in head.lower().splitlines()
                      if line.startswith(b"content-length:")]
            while len(body) < sum(length):
                body += conn.recv(4096)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: 15\r\n\r\n" + b'{"status":"ok"}')
            conn.recv(4096)  # the second request, never answered

    def close(self):
        with contextlib.suppress(OSError):
            self.sock.close()


class TestDeviceLegPool:
    def test_cross_family_posts_share_a_tunnel(self, sim_v6):
        cfg = make_config([power_device(sim_v6)], cache_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for _ in range(20):
                status, _, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
                assert status == 200
                assert body == TWO_DEVICE_LONG
            assert sim_v6.request_count == 20
            assert gw.relay.stats.snapshot()["sessions_total"] <= 2
            status, _, body = _request(addr, "GET", "/admin/stats")
            pool = codec.parse_json(body)["pool"]
            assert set(pool) == {"opened", "reused", "discarded"}
            assert pool["reused"] >= 18
            assert pool["opened"] + pool["reused"] == 20

    def test_concurrent_forwards_keep_pool_counts_and_cap(self, sim_v4, sim_v6):
        cfg = make_config([power_device(sim_v4, "four"), power_device(sim_v6, "six")],
                          cache_enabled=False)
        workers, each = 8, 10
        statuses = []
        lock = threading.Lock()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running(cfg) as gw:
                addr = gw.listen_address("v4")

                def worker(device):
                    got = [_request(addr, "GET", f"/devices/{device}/status")[0]
                           for _ in range(each)]
                    with lock:
                        statuses.extend(got)

                threads = [threading.Thread(target=worker, args=("four" if i % 2 else "six",))
                           for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                pool = gw.stats()["pool"]
                idle = [len(conns) for record in gw.registry.all()
                        for conns in record.pool._idle.values()]
        finally:
            sys.setswitchinterval(switch)
        assert statuses == [200] * workers * each
        assert sim_v4.request_count + sim_v6.request_count == workers * each
        assert pool["opened"] + pool["reused"] == workers * each
        assert pool["opened"] - pool["discarded"] == sum(idle)
        assert all(n <= 2 for n in idle)

    def test_stop_and_replace_close_pooled_connections(self, sim_v4, sim_v6):
        cfg = make_config([power_device(sim_v4, "four"), power_device(sim_v6, "six")],
                          cache_enabled=False)
        before_gateway = threading.active_count()
        gw = Gateway(cfg).start()
        try:
            baseline = threading.active_count()
            addr = gw.listen_address("v4")

            def pooled_sockets():
                return [conn.writer.get_extra_info("socket") for record in gw.registry.all()
                        for idle in record.pool._idle.values() for conn, _ in idle]

            def fill():
                for device in ("four", "six"):  # one direct leg, one relay tunnel
                    assert _request(addr, "GET", f"/devices/{device}/status")[0] == 200
                socks = pooled_sockets()
                assert len(socks) == 2
                # the simulators' handler threads, one per pooled connection;
                # the gateway starts none
                assert threading.active_count() == baseline + 2
                return socks

            socks = fill()
            for device, sim in (("four", sim_v4), ("six", sim_v6)):
                gw.register_device_config(power_device(sim, device), replace=True)
            assert all(sock.fileno() == -1 for sock in socks)
            assert _wait_for(lambda: threading.active_count() == baseline)

            socks = fill()
        finally:
            gw.stop()
        assert all(sock.fileno() == -1 for sock in socks)
        assert _wait_for(lambda: threading.active_count() == before_gateway)

    def test_connection_closed_while_idle_is_not_reused(self):
        sim = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        port = sim.address[1]
        cfg = make_config([power_device(sim)], cache_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            assert _request(addr, "GET", "/devices/power/status")[0] == 200
            sim.stop()  # drops the connection the gateway holds idle
            sim = DeviceSimulator(bind=("127.0.0.1", port), power_save_idle=0.0).start()
            try:
                assert _request(addr, "GET", "/devices/power/status")[0] == 200
                assert sim.request_count == 1
            finally:
                sim.stop()
            assert gw.stats()["pool"] == {"opened": 2, "reused": 0, "discarded": 1}

    def test_reused_get_is_retried_once_on_a_new_connection(self):
        device = _AnswerOnceServer()
        cfg = make_config([DeviceConfig(device_id="d", endpoint=format_hostport(*device.address))],
                          cache_enabled=False)
        try:
            with running(cfg) as gw:
                addr = gw.listen_address("v4")
                assert _request(addr, "GET", "/devices/d/status")[0] == 200
                assert _request(addr, "GET", "/devices/d/status")[0] == 200
                assert device.connections == 2
                assert gw.stats()["pool"] == {"opened": 2, "reused": 1, "discarded": 1}
        finally:
            device.close()

    def test_reused_post_is_never_retried(self):
        device = _AnswerOnceServer()
        cfg = make_config([DeviceConfig(device_id="d", endpoint=format_hostport(*device.address))],
                          cache_enabled=False)
        try:
            with running(cfg) as gw:
                addr = gw.listen_address("v4")
                assert _request(addr, "POST", "/devices/d/status", b"{}")[0] == 200
                status, _, body = _request(addr, "POST", "/devices/d/status", b"{}")
                assert status == 503
                assert codec.parse_json(body)["status"] == "device_unavailable"
                assert device.connections == 1
        finally:
            device.close()


class _CannedServer:
    """Answers every connection with one fixed byte string."""

    def __init__(self, payload: bytes):
        self.payload = payload
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        threading.Thread(target=self._loop, daemon=True).start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with contextlib.suppress(OSError):
                conn.recv(65536)
                conn.sendall(self.payload)
            conn.close()

    def close(self):
        with contextlib.suppress(OSError):
            self.sock.close()


class TestBadDevices:
    def test_unparseable_2xx_body_becomes_502(self):
        canned = _CannedServer(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 8\r\n"
            b"Connection: close\r\n\r\nnot-json"
        )
        cfg = make_config(
            [DeviceConfig(device_id="junk", endpoint=format_hostport(*canned.address))]
        )
        try:
            with running(cfg) as gw:
                addr = gw.listen_address("v4")
                status, _, body = _request(addr, "GET", "/devices/junk/anything")
                assert status == 502
                doc = codec.parse_json(body)
                assert doc["error"] == "device_protocol_error"
                assert doc["device"] == "junk"
                assert "unparseable" in doc["detail"]
        finally:
            canned.close()

    def test_non_http_reply_becomes_502(self):
        canned = _CannedServer(b"garbage that is not an http status line\r\n\r\n")
        cfg = make_config(
            [DeviceConfig(device_id="junk", endpoint=format_hostport(*canned.address))]
        )
        try:
            with running(cfg) as gw:
                addr = gw.listen_address("v4")
                status, _, body = _request(addr, "GET", "/devices/junk/anything")
                assert status == 502
                assert codec.parse_json(body)["error"] == "device_protocol_error"
        finally:
            canned.close()


class TestAdmin:
    def test_device_listing(self, sim_v6):
        cfg = make_config([power_device(sim_v6)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/admin/devices")
            assert status == 200
            listing = codec.parse_json(body)["devices"]
            assert len(listing) == 1
            entry = listing[0]
            assert entry["device_id"] == "power"
            assert entry["family"] == "v6"
            assert entry["health"] == "unknown"
            assert entry["mapping"] == "power"

    def test_stats_shape(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            _request(addr, "GET", "/devices/power/status")
            status, _, body = _request(addr, "GET", "/admin/stats")
            assert status == 200
            stats = codec.parse_json(body)
            assert stats["requests_total"] == 1  # admin calls are not pipeline requests
            assert stats["devices"] == {"power": "up"}
            assert set(stats["cache"]) >= {"hits", "misses", "hit_ratio", "entries", "bytes"}
            assert set(stats["guard"]) == {"blocked_total", "active_blocks", "clients_tracked"}
            assert set(stats["relay"]) == {
                "sessions_total", "sessions_failed", "active_sessions", "bytes_up", "bytes_down",
            }

    def test_runtime_registration_flow(self, sim_v4, sim_v6):
        cfg = make_config([power_device(sim_v4, "first")])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            doc = {"endpoint": format_hostport(*sim_v6.address), "mapping": POWER_MAP}
            status, _, body = _request(
                addr, "PUT", "/admin/devices/second", json.dumps(doc).encode()
            )
            assert status == 200
            assert codec.parse_json(body) == {"registered": "second"}
            status, _, body = _request(addr, "POST", "/devices/second/power", QUERY_LONG)
            assert status == 200
            assert body == TWO_DEVICE_LONG

    def test_duplicate_registration_conflict(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            doc = {"endpoint": format_hostport(*sim_v4.address)}
            status, _, body = _request(
                addr, "PUT", "/admin/devices/power", json.dumps(doc).encode()
            )
            assert status == 409
            assert codec.parse_json(body) == {"error": "duplicate_device", "device": "power"}
            doc["replace"] = True
            status, _, _ = _request(
                addr, "PUT", "/admin/devices/power", json.dumps(doc).encode()
            )
            assert status == 200

    def test_replace_routes_to_new_endpoint(self, sim_v4):
        other = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        try:
            cfg = make_config([power_device(sim_v4)])
            with running(cfg) as gw:
                addr = gw.listen_address("v4")
                _request(addr, "GET", "/devices/power/status")
                assert sim_v4.request_count == 1
                doc = {"endpoint": format_hostport(*other.address), "replace": True}
                status, _, _ = _request(
                    addr, "PUT", "/admin/devices/power", json.dumps(doc).encode()
                )
                assert status == 200
                # cache was invalidated with the replacement, so this forwards
                _request(addr, "GET", "/devices/power/status")
                assert other.request_count == 1
                assert sim_v4.request_count == 1
        finally:
            other.stop()

    def test_bad_registration(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "PUT", "/admin/devices/x", b'{"nope": 1}')
            assert status == 400
            assert codec.parse_json(body)["error"] == "bad_registration"
            status, _, _ = _request(addr, "PUT", "/admin/devices/x", b"not json")
            assert status == 400

    @pytest.mark.parametrize("health_path", [
        "/status HTTP/1.1\r\nHost: x\r\n\r\nDELETE /all",
        "status",
        "/st atus",
        "/\u0100",
        5,
    ], ids=["smuggled-request", "relative", "space", "not-latin-1", "number"])
    def test_health_path_that_is_no_request_target_is_refused(self, health_path):
        device = socket.socket()
        device.bind(("127.0.0.1", 0))
        device.listen(1)
        device.settimeout(0.3)
        with device, running(make_config([])) as gw:
            doc = {"endpoint": format_hostport(*device.getsockname()), "health_path": health_path}
            status, _, body = _request(gw.listen_address("v4"), "PUT", "/admin/devices/evil",
                                       json.dumps(doc).encode())
            assert (status, codec.parse_json(body)["error"]) == (400, "bad_registration")
            with pytest.raises(KeyError):
                gw.probe_device("evil")
            with pytest.raises(socket.timeout):
                device.accept()  # nothing ever reached the device

    def test_unknown_admin_path(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/admin/everything")
            assert status == 404
            assert codec.parse_json(body) == {"error": "not_found"}


def _send_raw(addr, data: bytes) -> bytes:
    """Send ``data`` on a new connection; read until the gateway closes it."""
    with socket.create_connection(addr, timeout=5.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def _replies(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """Split concatenated responses into (status, lower-cased head, body)."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        head = head.lower()
        length = int(head.split(b"content-length: ")[1].split(b"\r\n")[0])
        out.append((int(head[9:12]), head, rest[:length]))
        data = rest[length:]
    return out


STATUS_GET = b"GET /devices/power/status HTTP/1.1\r\nHost: gw\r\n"


class TestClientLeg:
    def test_pipelined_requests_are_answered_in_order(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            reply = _send_raw(
                gw.listen_address("v4"),
                STATUS_GET + b"\r\n"
                + b"POST /devices/power/power HTTP/1.1\r\nContent-Length: 32\r\n\r\n" + QUERY_LONG
                + b"GET /devices/ghost/status HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
        assert [(status, body) for status, _, body in _replies(reply)] == [
            (200, b'{"status":"ok"}'),
            (200, TWO_DEVICE_LONG),
            (404, b'{"error":"unknown_device","device":"ghost"}'),
        ]

    @pytest.mark.parametrize("request_bytes", [
        b"GET /devices/power/status HTTP/1.0\r\n\r\n",
        STATUS_GET + b"Connection: close\r\n\r\n",
    ], ids=["http10", "connection-close"])
    def test_reply_closes_when_asked(self, sim_v4, request_bytes):
        with running(make_config([power_device(sim_v4)])) as gw:
            [(status, head, _)] = _replies(_send_raw(gw.listen_address("v4"), request_bytes))
        assert status == 200
        assert b"\r\nconnection: close" in head

    def test_http11_keeps_the_connection_open(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            with socket.create_connection(gw.listen_address("v4"), timeout=5.0) as sock:
                for _ in range(2):
                    sock.sendall(STATUS_GET + b"\r\n")
                    reply = b""
                    while not reply.endswith(b'{"status":"ok"}'):
                        reply += sock.recv(4096)
                    assert b"connection:" not in reply.lower()
            assert gw.stats()["requests_total"] == 2

    def test_server_and_date_headers(self, sim_v4, monkeypatch):
        formatted = []

        def counting(second):
            formatted.append(second)
            return http_date(second)

        monkeypatch.setattr("wotgw.http11.http_date", counting)
        with running(make_config([power_device(sim_v4)])) as gw:
            started = time.time()
            reply = _send_raw(gw.listen_address("v4"), (STATUS_GET + b"\r\n") * 5
                              + STATUS_GET + b"Connection: close\r\n\r\n")
            seconds = int(time.time()) - int(started) + 1
        heads = [head for _, head, _ in _replies(reply)]
        assert len(heads) == 6
        assert all(b"\r\nserver: wotgw/0.1\r\n" in head for head in heads)
        date = heads[0].split(b"\r\ndate: ")[1].split(b"\r\n")[0].decode()
        assert abs(email.utils.parsedate_to_datetime(date).timestamp() - started) < 2
        assert len(formatted) <= seconds  # formatted at most once a second

    def test_double_slash_path_collapses(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            reply = _send_raw(gw.listen_address("v4"),
                              b"GET //devices/power/status HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _replies(reply)[0][::2] == (200, b'{"status":"ok"}')

    def test_unknown_method_is_501(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            reply = _send_raw(gw.listen_address("v4"),
                              b"OPTIONS /devices/power/status HTTP/1.1\r\n\r\n")
        assert _replies(reply)[0][::2] == (501, b'{"error":"not_implemented"}')
        assert sim_v4.request_count == 0

    def test_expect_100_continue_follows_the_length_check(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            addr = gw.listen_address("v4")
            head = b"POST /devices/power/power HTTP/1.1\r\nExpect: 100-continue\r\n"
            too_big = _send_raw(addr, head + b"Content-Length: 2000000\r\n\r\n")
            assert too_big.startswith(b"HTTP/1.1 413 ")
            with socket.create_connection(addr, timeout=5.0) as sock:
                sock.sendall(head + b"Content-Length: 32\r\nConnection: close\r\n\r\n")
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(1)
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(QUERY_LONG)
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            assert _replies(reply)[0][::2] == (200, TWO_DEVICE_LONG)

    @pytest.mark.parametrize("request_bytes, status, error", [
        (b"POST /devices/power/power HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
         400, "bad_content_length"),
        (STATUS_GET + b"X-A: one\r\n two\r\n\r\n", 400, "bad_header"),
        (STATUS_GET + b"X-A : one\r\n\r\n", 400, "bad_header"),
        (STATUS_GET + b"X-A: " + b"a" * (64 * 1024) + b"\r\n\r\n", 431, "line_too_long"),
        (STATUS_GET + b"".join(b"X-%d: v\r\n" % i for i in range(100)) + b"\r\n", 431, "too_many_headers"),
        (b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n\r\n", 414, "line_too_long"),
        (b"GET /devices/power/status HTTP/2.0\r\nHost: gw\r\n\r\n", 505, "http_version_not_supported"),
    ], ids=["two-lengths", "obs-fold", "space-before-colon", "long-field-line",
            "101-fields", "long-request-line", "http2"])
    def test_bad_heads_get_json_errors(self, sim_v4, request_bytes, status, error):
        with running(make_config([power_device(sim_v4)])) as gw:
            [(got, head, body)] = _replies(_send_raw(gw.listen_address("v4"), request_bytes))
        assert (got, codec.parse_json(body)) == (status, {"error": error})
        assert b"\r\nconnection: close" in head
        assert sim_v4.request_count == 0

    def test_a_head_longer_than_one_line_cap_is_served_when_it_arrives_slowly(self, sim_v4):
        fields = b"".join(b"X-%d: %s\r\n" % (i, b"a" * 30000) for i in range(4))
        request = STATUS_GET + fields + b"Connection: close\r\n\r\n"
        with running(make_config([power_device(sim_v4)])) as gw:
            with socket.create_connection(gw.listen_address("v4"), timeout=5.0) as sock:
                for i in range(0, len(request), 4096):
                    sock.sendall(request[i : i + 4096])
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        assert _replies(reply)[0][::2] == (200, OK_BODY)

    def test_a_head_of_100_fields_is_served(self, sim_v4):
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(98))  # with Host and Connection
        with running(make_config([power_device(sim_v4)])) as gw:
            reply = _send_raw(gw.listen_address("v4"), STATUS_GET + fields + b"Connection: close\r\n\r\n")
        assert _replies(reply)[0][0] == 200

    def test_client_reset_while_device_answers_escapes_no_error(self, sim_v4):
        # an error escaping on the gateway's loop fails the test (conftest.py)
        sim_v4.inject_behavior(latency=0.3)
        with running(make_config([power_device(sim_v4)])) as gw:
            addr = gw.listen_address("v4")
            sock = socket.create_connection(addr, timeout=5.0)
            sock.sendall(STATUS_GET + b"\r\n")
            assert _wait_for(lambda: sim_v4.request_count == 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, while the device is still answering
            sim_v4.inject_behavior(latency=0.0)
            assert _request(addr, "GET", "/devices/power/status")[0] == 200


class _ScriptedDevice:
    """Answers each request head with one fixed byte string, like _CannedServer,
    but keeps the connection open afterwards unless ``close`` is set."""

    def __init__(self, payload: bytes, close: bool = False):
        self.payload, self.close_after = payload, close
        self.connections = 0
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self._open = []
        threading.Thread(target=self._loop, daemon=True).start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            self._open.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with contextlib.suppress(OSError):
            data = b""
            while True:
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    data += chunk
                data = data.partition(b"\r\n\r\n")[2]
                conn.sendall(self.payload)
                if self.close_after:
                    conn.close()
                    return

    def close(self):
        for conn in [self.sock, *self._open]:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            conn.close()


@contextlib.contextmanager
def _scripted_gateway(payload: bytes, close: bool = False):
    device = _ScriptedDevice(payload, close)
    cfg = make_config([DeviceConfig(device_id="d", endpoint=format_hostport(*device.address))],
                      cache_enabled=False)
    try:
        with running(cfg) as gw:
            yield gw, device
    finally:
        device.close()


def _idle(gw) -> int:
    return sum(len(idle) for record in gw.registry.all() for idle in record.pool._idle.values())


OK_BODY = b'{"status":"ok"}'


class TestDeviceLegFraming:
    @pytest.mark.parametrize("payload, close, pooled", [
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b'6\r\n{"stat\r\n9;ext=1\r\nus":"ok"}\r\n0\r\nX-Trailer: t\r\n\r\n', False, 1),
        (b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + OK_BODY, True, 0),
        (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n" + OK_BODY,
         False, 1),
        (b"HTTP/1.0 200 OK\r\nContent-Length: 15\r\n\r\n" + OK_BODY, False, 0),
    ], ids=["chunked", "read-to-eof", "interim-100", "http10"])
    def test_reply_framings(self, payload, close, pooled):
        with _scripted_gateway(payload, close) as (gw, device):
            addr = gw.listen_address("v4")
            for _ in range(2):
                status, _, body = _request(addr, "GET", "/devices/d/status")
                assert (status, body) == (200, OK_BODY)
            assert _idle(gw) == pooled
            assert device.connections == 2 - pooled
            assert gw.stats()["pool"]["discarded"] == 0

    def test_a_body_read_to_eof_that_stalls_times_out(self):
        device = _ScriptedDevice(b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{"sta')
        cfg = make_config([DeviceConfig(device_id="d", endpoint=format_hostport(*device.address))],
                          cache_enabled=False, request_timeout_seconds=0.3)
        try:
            with running(cfg) as gw:
                status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/d/status")
        finally:
            device.close()
        assert (status, codec.parse_json(body)) == (504, {"status": "device_timeout", "device": "d"})

    def test_a_reply_arriving_a_byte_at_a_time_is_read(self):
        payload = (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   b'6\r\n{"stat\r\n9;ext=1\r\nus":"ok"}\r\n0\r\nX-Trailer: t\r\n\r\n')

        async def exchange():
            reader = asyncio.StreamReader()
            reply = asyncio.ensure_future(_read_reply(reader, "GET"))
            for i in range(len(payload)):
                await asyncio.sleep(0)
                reader.feed_data(payload[i : i + 1])
            return await reply, _Upstream(reader, None).reusable()

        assert asyncio.run(exchange()) == ((200, "application/json", OK_BODY, True), True)

    def test_bytes_past_the_reply_discard_the_connection(self):
        payload = b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n" + OK_BODY + b"EXTRA"
        with _scripted_gateway(payload) as (gw, device):
            addr = gw.listen_address("v4")
            for _ in range(2):
                assert _request(addr, "GET", "/devices/d/status")[::2] == (200, OK_BODY)
            assert _idle(gw) == 0
            assert device.connections == 2
            assert gw.stats()["pool"] == {"opened": 2, "reused": 0, "discarded": 2}

    def test_truncated_body_is_an_outage(self):
        payload = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + OK_BODY
        with _scripted_gateway(payload, close=True) as (gw, _):
            status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/d/status")
        assert (status, codec.parse_json(body)) == (503, {"status": "device_unavailable", "device": "d"})

    def test_over_100_header_lines_are_a_protocol_error(self):
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(101))
        payload = b"HTTP/1.1 200 OK\r\n" + fields + b"Content-Length: 15\r\n\r\n" + OK_BODY
        with _scripted_gateway(payload) as (gw, _):
            status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/d/status")
        assert status == 502
        assert codec.parse_json(body)["error"] == "device_protocol_error"


def _free_ports(host: str, n: int) -> list[int]:
    """``n`` distinct ports that are free on ``host`` right now."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    socks = [socket.socket(family) for _ in range(n)]
    try:
        for sock in socks:
            sock.bind((host, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class TestLifecycle:
    def test_stop_closes_keep_alive_client_connections(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            with socket.create_connection(gw.listen_address("v4"), timeout=5.0) as sock:
                for _ in range(2):  # a miss, then a cache hit
                    sock.sendall(STATUS_GET + b"\r\n")
                    reply = b""
                    while not reply.endswith(OK_BODY):
                        chunk = sock.recv(4096)
                        assert chunk, "gateway closed before the reply"
                        reply += chunk
                gw.stop()
                assert sock.recv(4096) == b""  # EOF, not a handler left serving

    def test_stop_cancels_a_request_waiting_for_the_device(self, sim_v4):
        sim_v4.inject_behavior(latency=2.0)
        gw = Gateway(make_config([power_device(sim_v4)])).start()
        try:
            sock = socket.create_connection(gw.listen_address("v4"), timeout=5.0)
            sock.sendall(STATUS_GET + b"\r\n")
            assert _wait_for(lambda: sim_v4.request_count == 1)
        finally:
            started = time.monotonic()
            gw.stop()
        with sock:
            assert time.monotonic() - started < 1.0  # the device's answer is not awaited
            assert sock.recv(4096) == b""  # closed unanswered

    def test_wildcard_v4_and_v6_listeners_share_a_port(self, sim_v4):
        [port] = _free_ports("0.0.0.0", 1)
        cfg = make_config([power_device(sim_v4)], listen_v4=("0.0.0.0", port), listen_v6=("::", port))
        with running(cfg):
            for host in ("127.0.0.1", "::1"):
                assert _request((host, port), "GET", "/devices/power/status")[::2] == (200, OK_BODY)

    def test_bad_health_path_in_a_config_file_fails_start(self, tmp_path):
        conf = tmp_path / "gateway.conf"
        conf.write_text("gateway.listen_v4 = 127.0.0.1:0\n"
                        "device.d.endpoint = 127.0.0.1:9\n"
                        "device.d.health_path = status\n")
        with pytest.raises(ConfigError, match="health_path"):
            Gateway(load_config(conf)).start()

    def test_threads_do_not_grow_with_connections_or_relay_sessions(self):
        target = socket.socket()  # completes TCP handshakes from its backlog, never accepts
        target.bind(("127.0.0.1", 0))
        target.listen(32)
        conns = []
        try:
            with running(make_config([])) as gw:
                baseline = threading.active_count()
                for _ in range(20):  # idle keep-alive client connections
                    conns.append(socket.create_connection(gw.listen_address("v4"), timeout=5.0))
                    conns[-1].sendall(b"GET /devices/ghost/status HTTP/1.1\r\nHost: gw\r\n\r\n")
                    assert conns[-1].recv(4096).startswith(b"HTTP/1.1 404 ")
                for _ in range(20):  # live relay sessions
                    conns.append(socks_connect(gw.relay.listen_address("v6"),
                                               *target.getsockname(), timeout=5.0))
                assert _wait_for(lambda: gw.relay.stats.snapshot()["active_sessions"] == 20)
                assert threading.active_count() == baseline
        finally:
            for conn in conns:
                conn.close()
            target.close()

    def test_failed_start_stops_what_it_started(self, sim_v4):
        baseline = threading.active_count()
        v4, socks_v4 = _free_ports("127.0.0.1", 2)
        [socks_v6] = _free_ports("::1", 1)
        with socket.socket(socket.AF_INET6) as taken:
            taken.bind(("::1", 0))
            taken.listen(1)
            cfg = make_config(
                [power_device(sim_v4)],
                listen_v4=("127.0.0.1", v4),
                listen_v6=("::1", taken.getsockname()[1]),
                socks_listen_v4=("127.0.0.1", socks_v4),
                socks_listen_v6=("::1", socks_v6),
            )
            with pytest.raises(OSError):
                Gateway(cfg).start()
        for family, addr in ((socket.AF_INET, ("127.0.0.1", v4)),
                             (socket.AF_INET, ("127.0.0.1", socks_v4)),
                             (socket.AF_INET6, ("::1", socks_v6))):
            with socket.socket(family) as probe:
                probe.bind(addr)  # EADDRINUSE while a listener is left open
        assert _wait_for(lambda: threading.active_count() == baseline)
