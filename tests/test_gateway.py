import asyncio
import collections
import contextlib
import email.utils
import functools
import gc
import http.client
import json
import logging
import math
import random
import re
import socket
import struct
import sys
import threading
import time

import pytest

from _gen import in_pieces, mutated_reply, mutated_request
from wotgw import codec, http11, socks
from wotgw import gateway as gateway_module
from wotgw.cache import CacheEntry, CacheKey
from wotgw.config import ConfigError, DeviceConfig, GatewayConfig, config_from_dict, format_hostport, load_config
from wotgw.device import DEFAULT_READINGS, DeviceSimulator
from wotgw.http11 import CONTINUE, MAX_BODY_BYTES, MAX_LINE, MEMO_HEADS, Headers, http_date
from wotgw.socks import SocksReplyError, socks_connect
from wotgw.gateway import (
    DeviceError,
    DeviceRecord,
    DuplicateDeviceError,
    POOL_IDLE_SECONDS,
    POOL_MAX_IDLE,
    Gateway,
    IdlePool,
    _complete,
    _normalize_client_ip,
    _Unanswered,
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


async def _settle(reply):
    """``Gateway._front``'s reply, awaited when it is an awaitable."""
    return reply if isinstance(reply, tuple) else await reply


def _front_all(gw, *requests):
    """The replies of ``Gateway._front`` to ``requests``, each (family,
    method, path, headers, body), all sent in one turn of the gateway's loop."""
    async def send():
        replies = [gw._front("127.0.0.1", *request) for request in requests]
        return await asyncio.gather(*map(_settle, replies))

    return gw.run(send())


UNAVAILABLE = {"status": "device_unavailable", "device": "power"}
GET_STATUS = ("GET", "/devices/power/status", Headers(), b"")


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
        gw = Gateway(make_config([]))
        gw.register_device(self._record())
        with pytest.raises(DuplicateDeviceError):
            gw.register_device(self._record())

    def test_replace_swaps_in_new_record(self):
        gw = Gateway(make_config([]))
        first, second = self._record(), self._record()
        gw.register_device(first)
        gw.register_device(second, replace=True)
        assert gw.devices == {"d1": second}

    def test_replacement_invalidates_cached_responses(self, sim_v4):
        cfg = make_config([power_device(sim_v4)])
        with running(cfg) as gw:
            key = CacheKey.for_request("power", "GET", "/status", b"")
            gw.cache.put(key, CacheEntry(200, b"{}", time.monotonic(), 60.0))
            assert gw.cache.get(key, time.monotonic()) is not None
            gw.register_device_config(power_device(sim_v4), replace=True)
            assert gw.cache.get(key, time.monotonic()) is None

    def test_replacing_a_device_drops_its_answers_in_flight(self):
        old = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0, base_latency=0.3).start()
        new = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0, base_latency=0.5,
                              readings=DEFAULT_READINGS[:1]).start()
        query = ("v4", "POST", "/devices/power/power", Headers(), QUERY_LONG)
        try:
            with running(make_config([power_device(old)])) as gw:
                async def replace_in_flight():
                    first = gw._front("127.0.0.1", *query)  # the old device answers at 0.3 s
                    await asyncio.sleep(0.05)
                    gw.register_device_config(power_device(new), replace=True)
                    second = gw._front("127.0.0.1", *query)  # the new one at 0.55 s
                    await first
                    third = gw._front("127.0.0.1", *query)  # joins the second's flight
                    return await first, await second, await _settle(third)

                first, *later = [*gw.run(replace_in_flight()), *_front_all(gw, query)]
        finally:
            old.stop()
            new.stop()
        readings = codec.parse_json(TWO_DEVICE_LONG)
        assert first[::2] == (200, TWO_DEVICE_LONG)  # asked before the replace
        assert [(status, codec.parse_json(body)) for status, _, body in later] == [(200, readings[:1])] * 3
        assert [dict(headers)["X-WoT-Cache"] for _, headers, _ in later] == ["miss", "hit", "hit"]
        assert (old.request_count, new.request_count) == (1, 1)


class TestLoopOwnership:
    def test_off_loop_entry_points_touch_state_on_the_loop(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            calls = []

            def record(obj, name):
                method = getattr(obj, name)

                def recorded(*args, **kwargs):
                    calls.append((name, threading.get_ident()))
                    return method(*args, **kwargs)

                setattr(obj, name, recorded)

            record(gw.guard, "record_and_check")
            for name in ("get", "invalidate_device", "stats"):
                record(gw.cache, name)
            reply = gw.handle_client_request(
                "127.0.0.1", "v4", "POST", "/devices/power/power", Headers(), QUERY_LONG
            )
            assert reply[0] == 200
            gw.register_device_config(power_device(sim_v4), replace=True)
            gw.stats()
            assert {name for name, _ in calls} == {"record_and_check", "get", "invalidate_device", "stats"}
            assert {ident for _, ident in calls} == {gw.thread.ident}


class _FakeTransport:
    """Enough of a transport for a bare _Upstream or _ClientLeg: it keeps
    each message written, whether reading is paused, and the order of its
    writes, pauses and resumes in ``calls``."""

    def __init__(self):
        self.writes = []
        self.calls = []
        self.paused = self.closed = False

    def get_extra_info(self, name):
        return ("127.0.0.1", 50000)

    def write(self, data):
        self.writes.append(bytes(data))
        self.calls.append("write")

    def write_eof(self):
        pass

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.paused = True
        self.calls.append("pause")

    def resume_reading(self):
        self.paused = False
        self.calls.append("resume")


def _bare_gateway(device: DeviceConfig, **over) -> Gateway:
    """An unstarted gateway with ``device``, whose device leg answers every
    request at once with 200 and the JSON ``{"ND":2}``."""
    gw = Gateway(make_config([device], **over))
    gw.register_device_config(device)

    def exchange(record, method, path, body, family, done):
        done((200, "application/json", b'{"ND":2}'))

    gw._exchange = exchange
    return gw


async def _feed(pieces, eof=False):
    """Start an exchange on a bare _Upstream, feed it ``pieces`` of a reply,
    then EOF if ``eof``: (a future of how the exchange ended, the connection)."""
    conn = _Upstream()
    conn.connection_made(_FakeTransport())
    reply = asyncio.get_running_loop().create_future()
    conn.send(b"GET / HTTP/1.1\r\n\r\n", 60, functools.partial(_complete, reply))
    for piece in pieces:
        conn.data_received(piece)
    if eof:
        conn.eof_received()
    return reply, conn


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
        for conn in conns:
            pool.give(conn, 0.0)
        assert [conn.closed for conn in conns] == [False, False, True]
        assert pool.counts == {"reused": 0, "discarded": 1}
        assert pool.take(1.0) is conns[1]
        assert pool.take(1.0) is conns[0]
        assert pool.take(1.0) is None
        assert pool.counts == {"reused": 2, "discarded": 1}
        pool.give(conns[0], 1.0)
        pool.close()
        assert conns[0].closed
        assert pool.counts == {"reused": 2, "discarded": 2}

    def test_expired_and_unquiet_connections_are_discarded(self):
        pool = IdlePool()
        old, chatty = _IdleConn(), _IdleConn()
        pool.give(old, 0.0)
        pool.give(chatty, 1.0)
        chatty.unread = True
        assert pool.take(POOL_IDLE_SECONDS + 0.5) is None
        assert old.closed and chatty.closed
        assert pool.counts == {"reused": 0, "discarded": 2}

    def test_a_connection_handed_back_unquiet_or_dead_is_discarded(self):
        pool = IdlePool()
        chatty, dead = _IdleConn(), _IdleConn()
        chatty.unread = True  # bytes past its reply: the stream is out of step
        pool.give(chatty, 0.0)
        pool.discard(dead)  # one that died under a request
        assert chatty.closed and dead.closed
        assert pool.take(0.0) is None
        assert pool.counts == {"reused": 0, "discarded": 2}

    @pytest.mark.parametrize("arrival", ["stray", "eof"])
    def test_bytes_or_eof_while_idle_make_a_connection_unfit(self, arrival):
        conn = _Upstream()
        conn.connection_made(_FakeTransport())
        before = conn.reusable()
        if arrival == "stray":
            conn.data_received(b"stray")
        else:
            conn.eof_received()
        assert (before, conn.reusable()) == (True, False)

    def test_sweep_and_close(self):
        pool = IdlePool()
        old, fresh = _IdleConn(), _IdleConn()
        pool.give(old, 0.0)
        pool.give(fresh, 1.0)
        pool.sweep(POOL_IDLE_SECONDS + 0.5)
        assert old.closed and not fresh.closed
        assert pool.counts == {"reused": 0, "discarded": 1}
        pool.close()
        assert fresh.closed
        late = _IdleConn()
        pool.give(late, 2.0)  # handed back after close
        assert late.closed
        assert pool.counts == {"reused": 0, "discarded": 3}


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

    def test_cross_family_miss_crosses_the_relay_in_process(self, sim_v6):
        cfg = make_config([power_device(sim_v6)], cache_enabled=False)
        with running(cfg) as gw:
            status, _, body = _request(gw.listen_address("v4"), "POST", "/devices/power/power", QUERY_LONG)
            assert (status, body) == (200, TWO_DEVICE_LONG)
            assert _idle(gw) == 1  # the relay leg's connection, pooled and live
            assert len(sim_v6._connections) == 1
            assert gw.relay._connections == set()  # no SOCKS session with the gateway's own relay
            relay = gw.relay.stats.snapshot()
            assert (relay["sessions_total"], relay["sessions_failed"], relay["active_sessions"]) == (1, 0, 0)

    def test_refused_relay_leg_is_an_outage_and_a_failed_session(self):
        [port] = _free_ports("::1", 1)
        device = DeviceConfig(device_id="power", endpoint=f"[::1]:{port}", mapping_inline=dict(POWER_MAP))
        with running(make_config([device])) as gw:
            status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/power/status")
            assert (status, codec.parse_json(body)) == (503, {"status": "device_unavailable", "device": "power"})
            relay = gw.relay.stats.snapshot()
            assert (relay["sessions_total"], relay["sessions_failed"]) == (0, 1)

    def test_relay_disabled_cross_family_fails(self, sim_v6):
        cfg = make_config([power_device(sim_v6)], relay_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, headers, body = _request(addr, "GET", "/devices/power/status")
            assert status == 503
            assert codec.parse_json(body) == {"status": "device_unavailable", "device": "power"}
            assert gw.stats()["relay"] is None

    def test_relay_disabled_cross_family_fails_with_a_pooled_connection(self, sim_v6):
        cfg = make_config([power_device(sim_v6)], relay_enabled=False, cache_enabled=False)
        with running(cfg) as gw:
            v4, v6 = gw.listen_address("v4"), gw.listen_address("v6")
            unavailable = {"status": "device_unavailable", "device": "power"}
            assert gw.probe_device("power") == "up"
            assert _idle(gw) == 1  # the probe's v6 connection
            status, _, body = _request(v4, "GET", "/devices/power/status")
            assert (status, codec.parse_json(body)) == (503, unavailable)
            assert _request(v6, "GET", "/devices/power/status")[0] == 200
            assert _idle(gw) == 1
            status, _, body = _request(v4, "POST", "/devices/power/power", QUERY_LONG)
            assert (status, codec.parse_json(body)) == (503, unavailable)
            assert gw.pool_counts["opened"] == 1
            assert sim_v6.request_count == 2

    @pytest.mark.parametrize("health", ["unknown", "up"])
    def test_relay_disabled_refusal_leaves_the_device_healthy(self, sim_v4, health):
        # the gateway, not the device, refuses a v6 client here
        cfg = make_config([power_device(sim_v4)], relay_enabled=False, cache_enabled=False)
        with running(cfg) as gw:
            v4, v6 = gw.listen_address("v4"), gw.listen_address("v6")
            refusals = 1
            if health == "up":
                assert _request(v4, "GET", "/devices/power/status")[0] == 200
                refusals = cfg.failure_threshold
            for _ in range(refusals):
                status, _, body = _request(v6, "GET", "/devices/power/status")
                assert (status, codec.parse_json(body)) == (503, {"status": "device_unavailable", "device": "power"})
            assert gw.stats()["devices"] == {"power": health}
            assert _request(v4, "GET", "/devices/power/status")[::2] == (200, b'{"status":"ok"}')
            assert gw.stats()["devices"] == {"power": "up"}

    def test_relay_disabled_same_family_still_works(self, sim_v4):
        cfg = make_config([power_device(sim_v4)], relay_enabled=False)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            status, _, body = _request(addr, "GET", "/devices/power/status")
            assert status == 200
            assert body == b'{"status":"ok"}'

    def test_relay_disabled_refusal_starts_no_flight(self, sim_v4):
        # the v4 miss right behind a refused v6 one is served, not refused with it
        with running(make_config([power_device(sim_v4)], relay_enabled=False)) as gw:
            (v6_status, _, v6_body), v4 = _front_all(gw, ("v6", *GET_STATUS), ("v4", *GET_STATUS))
            assert (v6_status, codec.parse_json(v6_body)) == (503, UNAVAILABLE)
            assert v4[::2] == (200, OK_BODY)
            assert sim_v4.request_count == 1

    def test_relay_disabled_refusal_comes_before_the_cache(self, sim_v4):
        with running(make_config([power_device(sim_v4)], relay_enabled=False)) as gw:
            [v4] = _front_all(gw, ("v4", *GET_STATUS))
            assert v4[::2] == (200, OK_BODY)
            [(status, _, body)] = _front_all(gw, ("v6", *GET_STATUS))
            assert (status, codec.parse_json(body)) == (503, UNAVAILABLE)

    def test_relay_disabled_a_name_that_gains_a_family_serves_it(self, tmp_path):
        table = tmp_path / "hosts"
        table.write_text("dual.device v4 127.0.0.1\n")
        with contextlib.ExitStack() as stack:
            # a v4 and a v6 simulator on one port stand for a dual-stack device
            sim4 = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
            stack.callback(sim4.stop)
            stack.callback(DeviceSimulator(bind=("::1", sim4.address[1]), power_save_idle=0.0).start().stop)
            device = DeviceConfig(device_id="power", endpoint=f"dual.device:{sim4.address[1]}")
            gw = stack.enter_context(running(make_config(
                [device], socks_resolver=f"static:{table}", relay_enabled=False, cache_enabled=False)))
            assert _front_all(gw, ("v4", *GET_STATUS))[0][0] == 200  # the name resolves to v4 only
            assert _front_all(gw, ("v6", *GET_STATUS))[0][0] == 503
            gw.call(gw.static_table.__setitem__, "dual.device", (("v4", "127.0.0.1"), ("v6", "::1")))
            assert gw.probe_device("power") == "up"  # a probe locates the device anew
            assert _front_all(gw, ("v4", *GET_STATUS))[0][0] == 200
            assert _front_all(gw, ("v6", *GET_STATUS))[0][::2] == (200, OK_BODY)


class TestRelayTargets:
    def test_a_rebuild_parses_no_address(self, sim_v4, sim_v6, monkeypatch):
        with running(make_config([power_device(sim_v4, "four"), power_device(sim_v6, "six")])) as gw:
            parsed, normalize = [], gateway_module._normalize_client_ip
            monkeypatch.setattr(gateway_module, "_normalize_client_ip",
                                lambda host: parsed.append(host) or normalize(host))
            gw.call(setattr, gw, "_targets", None)  # stale, as after a registration
            assert gw.call(gw.relay_targets) == {sim_v4.address, sim_v6.address}
            assert parsed == []  # each address was normalised once, where _locate recorded it

    def test_a_connect_to_the_gateways_own_listener_is_not_allowed(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            with pytest.raises(SocksReplyError) as refused:
                socks_connect(gw.relay.listen_address("v6"), *gw.listen_address("v4"), timeout=5.0).close()
            assert refused.value.reply_code == 0x02  # connection not allowed by ruleset
            assert _wait_for(lambda: gw.relay.stats.snapshot()["sessions_failed"] == 1)
            assert gw.relay.stats.snapshot()["sessions_total"] == 0

    def test_a_connect_to_a_registered_device_relays(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            with socks_connect(gw.relay.listen_address("v6"), *sim_v4.address, timeout=5.0) as sock:
                sock.sendall(b"GET /status HTTP/1.1\r\nHost: d\r\nConnection: close\r\n\r\n")
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(OK_BODY)
            assert sim_v4.request_count == 1


def _count_lookups(monkeypatch) -> list:
    """The (host, port) of every ``socks.resolve_target`` call from now on."""
    calls, lookup = [], socks.resolve_target

    def counting(host, port, static_table=None):
        calls.append((host, port))
        return lookup(host, port, static_table)

    monkeypatch.setattr(socks, "resolve_target", counting)
    return calls


def _relayed_status(gw, target) -> bytes:
    """The status line of ``GET /status`` sent through the embedded relay to ``target``."""
    with socks_connect(gw.relay.listen_address("v6"), *target, timeout=5.0) as sock:
        sock.sendall(b"GET /status HTTP/1.1\r\nHost: d\r\nConnection: close\r\n\r\n")
        with sock.makefile("rb") as reply:
            return reply.readline()


class TestDeviceLocation:
    """A device is located when it is registered, by each probe and after a
    failed connect; requests and relay CONNECTs read where it is."""

    def test_a_connect_among_many_devices_resolves_only_its_own_target(self, sim_v4, monkeypatch):
        ports = _free_ports("127.0.0.1", 199)
        devices = [DeviceConfig(device_id=f"d{port}", endpoint=f"127.0.0.1:{port}") for port in ports]
        with running(make_config([*devices, power_device(sim_v4)])) as gw:
            calls = _count_lookups(monkeypatch)
            started = time.perf_counter()
            assert _relayed_status(gw, sim_v4.address).startswith(b"HTTP/1.1 200 ")
            elapsed = time.perf_counter() - started
            assert calls == [sim_v4.address]  # the CONNECT's target, not the 200 devices
            print(f"CONNECT and one relayed request with 200 devices registered: {elapsed * 1e3:.2f} ms")

    @pytest.mark.parametrize("resolver", ["literal", "static"])
    def test_a_new_device_connection_resolves_nothing(self, sim_v4, resolver, tmp_path, monkeypatch):
        port = sim_v4.address[1]
        endpoint, over = f"127.0.0.1:{port}", {}
        if resolver == "static":
            (tmp_path / "hosts").write_text("power.device v4 127.0.0.1\n")
            endpoint, over = f"power.device:{port}", {"socks_resolver": f"static:{tmp_path / 'hosts'}"}
        device = DeviceConfig(device_id="power", endpoint=endpoint)
        with running(make_config([device], cache_enabled=False, **over)) as gw:
            calls = _count_lookups(monkeypatch)
            for family in ("v4", "v6", "v4"):  # directly, across the relay, directly
                assert _front_all(gw, (family, *GET_STATUS))[0][::2] == (200, OK_BODY)
                gw.call(gw.devices["power"].pool.sweep, math.inf)  # the next request opens a connection
            assert gw.pool_counts["opened"] == 3
            assert calls == []

    def test_relay_disabled_refuses_a_named_devices_first_cross_family_request_in_front(
            self, sim_v4, tmp_path, monkeypatch):
        (tmp_path / "hosts").write_text("power.device v4 127.0.0.1\n")
        device = DeviceConfig(device_id="power", endpoint=f"power.device:{sim_v4.address[1]}")
        cfg = make_config([device], socks_resolver=f"static:{tmp_path / 'hosts'}", relay_enabled=False)
        with running(cfg) as gw:
            calls = _count_lookups(monkeypatch)

            async def first_request():
                return gw._front("127.0.0.1", "v6", *GET_STATUS)

            reply = gw.run(first_request())
            assert isinstance(reply, tuple)  # answered at once: no flight
            assert (reply[0], codec.parse_json(reply[2])) == (503, UNAVAILABLE)
            assert gw.devices["power"].health == "unknown"  # the device is not blamed
            assert (calls, gw.pool_counts["opened"], sim_v4.request_count) == ([], 0, 0)

    def test_admin_lists_a_named_devices_family_before_any_request(self, sim_v4, tmp_path):
        (tmp_path / "hosts").write_text("power.device v4 127.0.0.1\n")
        device = DeviceConfig(device_id="power", endpoint=f"power.device:{sim_v4.address[1]}")
        with running(make_config([device], socks_resolver=f"static:{tmp_path / 'hosts'}")) as gw:
            status, _, body = _request(gw.listen_address("v4"), "GET", "/admin/devices")
            assert (status, codec.parse_json(body)["devices"][0]["family"]) == (200, "v4")
            assert sim_v4.request_count == 0

    def test_a_system_resolver_name_is_looked_up_off_the_loop(self, monkeypatch):
        lookups, getaddrinfo = [], socket.getaddrinfo

        def recording(host, *args, **kwargs):
            if host == "localhost":
                lookups.append(threading.current_thread().name)
            return getaddrinfo(host, *args, **kwargs)

        with contextlib.ExitStack() as stack:
            # a v4 and a v6 simulator on one port answer whatever localhost gives
            sim4 = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
            stack.callback(sim4.stop)
            port = sim4.address[1]
            stack.callback(DeviceSimulator(bind=("::1", port), power_save_idle=0.0).start().stop)
            infos = getaddrinfo("localhost", port, socket.AF_UNSPEC, socket.SOCK_STREAM)
            families = {"v4" if af == socket.AF_INET else "v6" for af, *_ in infos}
            family = families.pop() if len(families) == 1 else "dual"
            monkeypatch.setattr(socket, "getaddrinfo", recording)
            device = DeviceConfig(device_id="config", endpoint=f"localhost:{port}")
            gw = stack.enter_context(running(make_config([device], socks_resolver="system")))
            addr = gw.listen_address("v4")
            doc = json.dumps({"endpoint": f"localhost:{port}"}).encode()
            assert _request(addr, "PUT", "/admin/devices/admin", doc)[0] == 200
            for device_id in ("config", "admin"):
                status, _, body = _request(addr, "GET", f"/devices/{device_id}/status")
                assert (device_id, status, body) == (device_id, 200, OK_BODY)
            listing = codec.parse_json(_request(addr, "GET", "/admin/devices")[2])["devices"]
            assert {entry["device_id"]: entry["family"] for entry in listing} == {"config": family, "admin": family}
        assert len(lookups) == 2  # one per registration, none per request
        assert "gateway-loop" not in lookups
        assert lookups[0] == threading.current_thread().name  # the config's, on the registering thread

    def test_a_name_that_resolves_to_nothing_is_registered_and_unavailable_until_it_resolves(
            self, sim_v4, tmp_path):
        table = tmp_path / "hosts"
        table.write_text("other.device v4 127.0.0.1\n")
        device = DeviceConfig(device_id="power", endpoint=f"late.device:{sim_v4.address[1]}")
        with running(make_config([device], socks_resolver=f"static:{table}")) as gw:
            [(status, _, body)] = _front_all(gw, ("v4", *GET_STATUS))
            assert (status, codec.parse_json(body)) == (503, UNAVAILABLE)
            gw.call(gw.static_table.__setitem__, "late.device", (("v4", "127.0.0.1"),))
            assert gw.probe_device("power") == "up"  # the probe locates it
            assert _front_all(gw, ("v6", *GET_STATUS))[0][::2] == (200, OK_BODY)

    def test_the_relay_follows_a_replaced_device(self, sim_v4):
        other = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        try:
            with running(make_config([power_device(sim_v4)])) as gw:
                with pytest.raises(SocksReplyError) as refused:
                    _relayed_status(gw, other.address)
                assert refused.value.reply_code == 0x02
                gw.register_device_config(power_device(other), replace=True)
                assert _relayed_status(gw, other.address).startswith(b"HTTP/1.1 200 ")
                with pytest.raises(SocksReplyError) as refused:
                    _relayed_status(gw, sim_v4.address)
                assert refused.value.reply_code == 0x02
        finally:
            other.stop()


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


    @pytest.mark.parametrize("length", [b"abc", b"-1", b""], ids=["abc", "-1", "empty"])
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

    def test_identical_no_cache_requests_share_one_device_request(self, sim_v4):
        sim_v4.inject_behavior(latency=0.1)
        with running(make_config([power_device(sim_v4)])) as gw:
            no_cache = ("v4", "GET", "/devices/power/status", Headers({"cache-control": "no-cache"}), b"")
            replies = _front_all(gw, *[no_cache] * 10)
            assert [reply[::2] for reply in replies] == [(200, OK_BODY)] * 10
            assert [dict(reply[1])["X-WoT-Cache"] for reply in replies] == ["miss"] + ["hit"] * 9
            assert sim_v4.request_count == 1
            assert gw.stats()["pool"]["opened"] == 1

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
            assert len(calls) == 0  # the same bytes again: their key is remembered

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
            gw.loop = asyncio.get_running_loop()  # an unopened gateway's clock: the loop it is driven on
            release = gw.loop.create_future()

            def exchange(record, method, path, body, family, done):
                forwarded.append(path)
                release.add_done_callback(lambda _: done((200, "application/json", b"{}")))

            gw._exchange = exchange
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

    def test_a_follower_waits_for_a_miss_slower_than_the_request_timeout(self):
        gw = Gateway(make_config([DeviceConfig(device_id="d", endpoint="127.0.0.1:9")],
                                 request_timeout_seconds=0.05))
        gw.register_device_config(gw.config.devices[0])
        forwarded = []

        def exchange(record, method, path, body, family, done):
            forwarded.append(path)
            asyncio.get_running_loop().call_later(gw.config.request_timeout_seconds + 1.1,
                                                  done, (200, "application/json", b"{}"))

        async def scenario():
            gw.loop = asyncio.get_running_loop()  # an unopened gateway's clock: the loop it is driven on
            gw._exchange = exchange
            args = ("10.0.0.1", "v4", "GET", "/devices/d/x", {}, b"")
            return await asyncio.gather(gw._front(*args), gw._front(*args))

        first, second = asyncio.run(scenario())
        assert len(forwarded) == 1
        assert ("X-WoT-Cache", "miss") in first[1]
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


class TestKeyMemo:
    """``Gateway._keys`` remembers the cache key of a cacheable request's bytes."""

    @staticmethod
    def _gateway():
        return _bare_gateway(DeviceConfig(device_id="d", endpoint="127.0.0.1:9"), cache_max_entries=16)

    @staticmethod
    async def _send(gw, method, path, body=b""):
        gw.loop = asyncio.get_running_loop()  # an unopened gateway's clock: the loop it is driven on
        return await _settle(gw._front("10.0.0.1", "v4", method, path, Headers(), body))

    def test_the_memo_keeps_the_newest_cache_max_entries(self, monkeypatch):
        gw = self._gateway()
        parse, parsed = codec.parse_json, []
        monkeypatch.setattr(codec, "parse_json", lambda data: parsed.append(data) or parse(data))
        bodies = [b'{"n":%d}' % i for i in range(gw.cache.max_entries + 50)]

        async def scenario():
            for body in bodies:
                await self._send(gw, "POST", "/devices/d/q", body)
            assert len(gw._keys) == gw.cache.max_entries
            del parsed[:]
            hit = await self._send(gw, "POST", "/devices/d/q", bodies[-1])
            assert ("X-WoT-Cache", "hit") in hit[1]
            assert parsed == []  # remembered: neither the request nor a reply is parsed
            await self._send(gw, "POST", "/devices/d/q", bodies[0])
            assert parsed == [bodies[0], b'{"ND":2}']  # forgotten: the request, then the device's reply
            assert len(gw._keys) == gw.cache.max_entries

        asyncio.run(scenario())

    def test_a_memo_entry_holds_two_digests_however_long_the_path(self):
        gw = self._gateway()

        async def scenario():
            for i in range(gw.cache.max_entries + 50):
                await self._send(gw, "GET", "/devices/d/%d/%s" % (i, "a" * 60000))

        asyncio.run(scenario())
        assert len(gw._keys) == gw.cache.max_entries
        assert {(len(request), len(body)) for request, body in gw._keys.items()} == {(64, 64)}

    def test_a_remembered_request_reaches_a_replaced_device(self, sim_v4):
        other = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0).start()
        try:
            with running(make_config([power_device(sim_v4)])) as gw:
                addr = gw.listen_address("v4")
                for state in ("miss", "hit"):
                    status, headers, _ = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
                    assert (status, headers["X-WoT-Cache"]) == (200, state)
                remembered = dict(gw._keys)
                assert len(remembered) == 1
                doc = {"endpoint": format_hostport(*other.address), "mapping": POWER_MAP, "replace": True}
                assert _request(addr, "PUT", "/admin/devices/power", json.dumps(doc).encode())[0] == 200
                status, headers, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
                assert (status, headers["X-WoT-Cache"], body) == (200, "miss", TWO_DEVICE_LONG)
                assert gw._keys == remembered
            assert (sim_v4.request_count, other.request_count) == (1, 1)
        finally:
            other.stop()


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

    def test_a_repeat_is_the_same_bytes_not_the_same_query(self, sim_v4):
        spellings = [
            QUERY_LONG,
            b'{ "values" : [ { "NoOfDevices" : [2] } ] }',
            b'{"values":[{"NoOfDevices":[ 2 ]}]}',
            b'\n{"values": [{"NoOfDevices": [2]}]}\n',
        ]
        cfg = make_config([power_device(sim_v4)], dos_repeat_limit=3, dos_block_seconds=60.0)
        with running(cfg) as gw:
            addr = gw.listen_address("v4")
            for body in spellings * 2:
                assert _request(addr, "POST", "/devices/power/power", body)[0] == 200
            assert gw.stats()["cache"]["entries"] == 1
            assert sim_v4.request_count == 1
            for _ in range(3):
                assert _request(addr, "POST", "/devices/power/power", QUERY_LONG)[0] == 200
            status, _, body = _request(addr, "POST", "/devices/power/power", QUERY_LONG)
            assert (status, codec.parse_json(body)["reason"]) == (429, "repeat_burst")

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
            assert gw.devices["power"].health == "down"

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
            record = gw.devices["power"]
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

    def test_named_device_is_dialled_at_the_address_its_table_gives(self, tmp_path):
        # the system resolver knows this name as 127.0.0.1, where nothing
        # listens; the gateway's static table says 127.0.0.2
        sim = DeviceSimulator(bind=("127.0.0.2", 0), power_save_idle=0.0).start()
        table = tmp_path / "hosts"
        table.write_text("localhost v4 127.0.0.2\n")
        device = DeviceConfig(device_id="power", endpoint=f"localhost:{sim.address[1]}",
                              mapping_inline=dict(POWER_MAP))
        cfg = make_config([device], socks_resolver=f"static:{table}", cache_enabled=False)
        try:
            with running(cfg) as gw:
                record = gw.devices["power"]

                def unpooled(answer):  # so the next request opens a connection anew
                    gw.call(record.pool.sweep, math.inf)
                    return answer

                assert [unpooled(gw.probe_device("power")) for _ in range(2)] == ["up", "up"]
                for family in ("v6", "v4"):  # across the relay, then directly
                    status, _, body = unpooled(
                        _request(gw.listen_address(family), "GET", "/devices/power/status"))
                    assert (family, status, body) == (family, 200, b'{"status":"ok"}')
                assert gw.stats()["pool"]["opened"] == 4
                assert gw.relay.stats.snapshot()["sessions_total"] == 1
        finally:
            sim.stop()

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
                idle = [len(record.pool._idle) for record in gw.devices.values()]
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
                return [conn.transport.get_extra_info("socket") for record in gw.devices.values()
                        for conn, _ in record.pool._idle]

            def open_at_devices():
                return len(sim_v4._connections) + len(sim_v6._connections)

            def fill():
                for device in ("four", "six"):  # one direct leg, one relay tunnel
                    assert _request(addr, "GET", f"/devices/{device}/status")[0] == 200
                socks = pooled_sockets()
                assert len(socks) == 2
                # the simulators serve one connection per pooled one;
                # the gateway starts no thread
                assert open_at_devices() == 2
                assert threading.active_count() == baseline
                return socks

            socks = fill()
            for device, sim in (("four", sim_v4), ("six", sim_v6)):
                gw.register_device_config(power_device(sim, device), replace=True)
            assert all(sock.fileno() == -1 for sock in socks)
            assert _wait_for(lambda: open_at_devices() == 0)

            socks = fill()
        finally:
            gw.stop()
        assert all(sock.fileno() == -1 for sock in socks)
        assert _wait_for(lambda: open_at_devices() == 0)
        assert _wait_for(lambda: threading.active_count() == before_gateway)

    def test_concurrent_requests_of_both_families_and_probes_share_one_pool(self, sim_v4):
        sim_v4.inject_behavior(latency=0.2)
        cfg = make_config([power_device(sim_v4)], cache_enabled=False)
        with running(cfg) as gw:
            results = []

            def call(family):  # None: a probe
                if family is None:
                    results.append(gw.probe_device("power"))
                else:
                    results.append(_request(gw.listen_address(family), "GET", "/devices/power/status")[0])

            threads = [threading.Thread(target=call, args=(family,))
                       for family in ("v4", "v4", "v6", "v6", None, None)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert sorted(results, key=str) == [200] * 4 + ["up"] * 2
            assert _idle(gw) <= POOL_MAX_IDLE
            assert _wait_for(lambda: len(sim_v4._connections) <= POOL_MAX_IDLE)

    def test_requests_of_both_families_and_a_probe_share_one_connection(self, sim_v4):
        cfg = make_config([power_device(sim_v4)], cache_enabled=False)
        with running(cfg) as gw:
            for family in ("v4", "v6"):
                assert _request(gw.listen_address(family), "GET", "/devices/power/status")[0] == 200
            assert gw.probe_device("power") == "up"
            assert gw.stats()["pool"] == {"opened": 1, "reused": 2, "discarded": 0}
            assert len(sim_v4._connections) == 1
            # the v6 request took the idle v4 connection, so no relay session
            assert gw.relay.stats.snapshot()["sessions_total"] == 0

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

    @pytest.mark.parametrize("device", ["reset", "closing-reply"])
    def test_every_connection_opened_is_idle_busy_or_discarded(self, device):
        if device == "reset":
            sim = DeviceSimulator(bind=("127.0.0.1", 0), power_save_idle=0.0, failure_rate=1.0).start()
            # the first reset takes the device down, so only one request reaches it
            endpoint, stop, expected, opened = format_hostport(*sim.address), sim.stop, 503, 1
        else:
            scripted = _ScriptedDevice(b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\nConnection: close\r\n\r\n"
                                       + OK_BODY, close=True)
            endpoint, stop, expected, opened = format_hostport(*scripted.address), scripted.close, 200, 3
        cfg = make_config([DeviceConfig(device_id="d", endpoint=endpoint)], cache_enabled=False)
        try:
            with running(cfg) as gw:
                for _ in range(3):
                    assert _request(gw.listen_address("v4"), "GET", "/devices/d/status")[0] == expected
                pool = gw.stats()["pool"]
                busy = gw.call(len, gw._busy)
                assert (pool["opened"], pool["reused"]) == (opened, 0)
                assert pool["opened"] == pool["discarded"] + _idle(gw) + busy
        finally:
            stop()

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

    @pytest.mark.parametrize("device_type, client_type", [
        (b"text/html", "text/html"),
        (b"text/html\rX-Injected: 1", "application/octet-stream"),
    ], ids=["printable", "bare-cr"])
    def test_a_body_passed_through_keeps_the_devices_type(self, device_type, client_type):
        canned = _CannedServer(
            b"HTTP/1.1 404 Not Found\r\nContent-Type: " + device_type + b"\r\nContent-Length: 13\r\n"
            b"Connection: close\r\n\r\n<h1>nope</h1>"
        )
        cfg = make_config([DeviceConfig(device_id="junk", endpoint=format_hostport(*canned.address))])
        try:
            with running(cfg) as gw:
                status, headers, body = _request(gw.listen_address("v4"), "GET", "/devices/junk/page")
                assert (status, headers["Content-Type"], body) == (404, client_type, b"<h1>nope</h1>")
                assert "X-Injected" not in headers
                # a miss that joins one in flight is answered with the same type
                replies = _front_all(gw, *[("v4", "GET", "/devices/junk/other", Headers(), b"")] * 2)
                assert [dict(headers)["Content-Type"] for _, headers, _ in replies] == [client_type] * 2
                assert [dict(headers)["X-WoT-Cache"] for _, headers, _ in replies] == ["miss", "hit"]
        finally:
            canned.close()

    def test_a_body_passed_through_without_a_type_is_octet_stream(self):
        canned = _CannedServer(
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 11\r\nConnection: close\r\n\r\nplain words"
        )
        cfg = make_config([DeviceConfig(device_id="junk", endpoint=format_hostport(*canned.address))])
        try:
            with running(cfg) as gw:
                status, headers, body = _request(gw.listen_address("v4"), "GET", "/devices/junk/page")
        finally:
            canned.close()
        assert (status, headers["Content-Type"], body) == (404, "application/octet-stream", b"plain words")

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

    @pytest.mark.parametrize("doc", [
        {"endpoint": 5},
        {"endpoint": "127.0.0.1:9", "mapping": [1, 2]},
        {"endpoint": "127.0.0.1:9", "mapping": {"a": 1}},
        {"endpoint": "127.0.0.1:9", "mapping_file": "/nonexistent"},
        {"endpoint": "127.0.0.1:9", "ttl_seconds": "soon"},
        {"endpoint": "127.0.0.1:9", "replace": "false"},
        {"endpoint": "127.0.0.1:9", "replace": 0},
        {"endpoint": "127.0.0.1:9", "replace": None},
    ], ids=["endpoint-number", "mapping-list", "mapping-number-code", "mapping-file-missing", "ttl-word",
            "replace-string", "replace-number", "replace-null"])
    def test_malformed_registration_refused(self, doc):
        with running(make_config([])) as gw:
            status, _, body = _request(gw.listen_address("v4"), "PUT", "/admin/devices/x",
                                       json.dumps(doc).encode())
            assert (status, codec.parse_json(body)["error"]) == (400, "bad_registration")
            assert gw.devices == {}

    def test_mapping_file_number_is_no_file_descriptor(self):
        with running(make_config([])) as gw:
            addr = gw.listen_address("v4")
            listener_fd = gw._servers["v4"].sockets[0].fileno()
            doc = {"endpoint": "127.0.0.1:9", "mapping_file": listener_fd}
            status, _, body = _request(addr, "PUT", "/admin/devices/x", json.dumps(doc).encode())
            assert (status, codec.parse_json(body)["error"]) == (400, "bad_registration")
            assert _request(addr, "GET", "/admin/stats")[0] == 200  # the gateway still listens

    def test_admin_only_from_loopback(self):
        with running(make_config([])) as gw:
            leg = gw.accept("v4")
            leg.client_ip = "192.0.2.7"
            assert leg.respond("GET", "/admin/stats", Headers(), b"") == (
                403, [("Content-Type", "application/json")], b'{"error":"forbidden"}'
            )
            doc = json.dumps({"endpoint": "127.0.0.1:9"}).encode()
            assert leg.respond("PUT", "/admin/devices/x", Headers(), doc)[0] == 403
            assert gw.devices == {}
            for loopback in ("127.0.0.1", "::1", _normalize_client_ip("::ffff:127.0.0.1")):
                leg.client_ip = loopback
                assert leg.respond("GET", "/admin/stats", Headers(), b"")[0] == 200

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

    def test_head_is_answered_as_a_get_without_content(self, sim_v4):
        with running(make_config([power_device(sim_v4)])) as gw:
            reply = _send_raw(gw.listen_address("v4"),
                              b"HEAD /devices/power/status HTTP/1.1\r\nHost: gw\r\n\r\n"
                              + STATUS_GET + b"Connection: close\r\n\r\n")
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nContent-Length: 15" in head
        assert b"\r\nX-WoT-Cache: miss" in head
        # the GET's reply follows the HEAD's head at once, and takes its cache entry
        [(status, get_head, body)] = _replies(rest)
        assert (status, body) == (200, b'{"status":"ok"}')
        assert b"x-wot-cache: hit" in get_head
        assert sim_v4.request_count == 1

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


async def _client_leg_writes(gw, pieces):
    """What a bare _ClientLeg of ``gw`` writes for a request fed as
    ``pieces``, then EOF, each once reading is not paused: one message per
    write, its Date line blanked."""
    gw.loop = asyncio.get_running_loop()  # an unopened gateway's clock: the loop it is driven on
    leg = gw.accept("v4")
    transport = _FakeTransport()
    leg.connection_made(transport)
    for piece in [*pieces, None]:
        while transport.paused:
            await asyncio.sleep(0)
        if transport.closed:
            break
        if piece is None:
            leg.eof_received()
        else:
            leg.data_received(piece)
    while leg.waiting:
        await asyncio.sleep(0)
    leg.connection_lost(None)
    return [re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", message) for message in transport.writes]


RESPONSE_HEAD = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n((?:[^\r\n:]+: [^\r\n]*\r\n)*)\r\n")
FRAMER_STATUSES = {400, 411, 413, 414, 431, 501, 505}


def _status_of(message: bytes, head: bool) -> int:
    """The status of one well-formed response message; a reply to a HEAD
    request (``head``) may omit its content."""
    if message == CONTINUE:
        return 100
    match = RESPONSE_HEAD.match(message)
    assert match, message
    fields = dict(line.split(b": ", 1) for line in match[2].splitlines())
    content = message[match.end() :]
    assert len(content) == int(fields[b"Content-Length"]) or (head and not content), message
    return int(match[1])


class TestRequestFramer:
    def test_mutated_requests_are_answered_alike_however_they_arrive(self):
        device = DeviceConfig(device_id="power", endpoint="127.0.0.1:9", mapping_inline=dict(POWER_MAP))
        gw = _bare_gateway(device, relay_enabled=False)
        rng = random.Random(26)
        seen = collections.Counter()
        checked = []  # the heads the server checked for one delivery, each with whether it passed
        check_head = gw.heads.check

        def recording(head, methods):
            checked.append([head, False])
            answer = check_head(head, methods)
            checked[-1][1] = True
            return answer

        gw.heads.check = recording
        remembered = 0

        async def check(request):
            nonlocal remembered
            pieces = in_pieces(rng, request)
            # whole three times: on the second sighting a head that passed is
            # kept, so the third is answered from the server's CheckedHeads
            deliveries = []
            for _ in range(3):
                gw.cache.clear()  # so that every delivery misses alike
                checked.clear()
                deliveries.append(await _client_leg_writes(gw, [request]))
            if len(checked) == 1 and checked[0][1]:  # alone, so no other head took its sighting slot
                assert checked[0][0] in gw.heads.heads, request
                remembered += 1
            gw.cache.clear()
            deliveries.append(await _client_leg_writes(gw, pieces))
            whole = deliveries[0]
            assert deliveries == [whole] * 4, request
            statuses = [_status_of(message, b"HEAD" in request) for message in whole]
            assert set(statuses) <= FRAMER_STATUSES | {100, 200, 404}, (request, whole)
            seen.update(statuses)

        async def run():
            for _ in range(2000):
                await check(mutated_request(rng))

        asyncio.run(run(), debug=False)  # see TestReplyFramer
        # the statuses of the framer that took each head line by line; 414 and
        # 431 take 64 KiB lines
        assert seen == {100: 134, 200: 838, 400: 474, 404: 117, 411: 5, 413: 1, 501: 34, 505: 3}
        assert remembered > 1000
        assert len(gw.heads.heads) <= MEMO_HEADS


class TestCheckedHeadsOnTheClientLeg:
    @staticmethod
    def _gateway():
        device = DeviceConfig(device_id="power", endpoint="127.0.0.1:9", mapping_inline=dict(POWER_MAP))
        return _bare_gateway(device, relay_enabled=False)

    def test_a_remembered_expect_head_gets_100_continue_on_every_request(self):
        gw = self._gateway()
        head = (b"POST /devices/power/power HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(QUERY_LONG))
        writes = asyncio.run(_client_leg_writes(gw, [head, QUERY_LONG] * 3))
        assert [_status_of(message, False) for message in writes] == [100, 200] * 3
        assert head in gw.heads.heads

    def test_two_pipelined_requests_in_one_buffer(self):
        gw = self._gateway()
        post = b"POST /devices/power/power HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(QUERY_LONG)
        writes = asyncio.run(_client_leg_writes(gw, [post + QUERY_LONG + STATUS_GET + b"\r\n"]))
        assert [_status_of(message, False) for message in writes] == [200, 200]
        assert gw.cache.stats()["misses"] == 2

    def test_a_head_of_100_fields_is_served_whatever_the_pieces(self):
        # the framer that took heads line by line refused this one with 431
        # when a piece ended just after the 100th field's line end
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(99))  # and Host
        request = STATUS_GET + fields + b"\r\n"
        cut = len(request) - 2
        writes = asyncio.run(_client_leg_writes(self._gateway(), [request[:cut], request[cut:]]))
        assert [_status_of(message, False) for message in writes] == [200]


class TestMissOnTheLoop:
    """A miss that finds an idle pooled device connection runs as callbacks
    on the loop: no task, and no pause while a closed-loop client waits."""

    REPLY = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{"status":"ok"}'
    NO_CACHE_GET = STATUS_GET + b"Cache-Control: no-cache\r\n\r\n"  # a miss every time

    @staticmethod
    def _legs():
        """An unstarted gateway, a client leg of it and the device connection
        idle in its pool, each leg on a _FakeTransport."""
        gw = Gateway(make_config([DeviceConfig(device_id="power", endpoint="127.0.0.1:9")]))
        gw.register_device_config(gw.config.devices[0])
        gw.loop = asyncio.get_running_loop()  # an unopened gateway's clock: the loop it is driven on
        device = _Upstream()
        device.connection_made(_FakeTransport())
        gw.devices["power"].pool.give(device, gw.loop.time())
        client = gw.accept("v4")
        client.connection_made(_FakeTransport())
        return gw, client, device

    def test_a_miss_on_an_idle_pooled_connection_starts_no_task(self):
        async def scenario():
            gw, client, device = self._legs()
            client.data_received(STATUS_GET + b"\r\n")
            assert client.waiting and len(gw._inflight) == 1
            assert device.transport.writes[0].startswith(b"GET /status HTTP/1.1\r\n")
            assert asyncio.all_tasks() == {asyncio.current_task()}
            device.data_received(self.REPLY)
            assert not gw._inflight
            await asyncio.sleep(0)
            return gw, client.transport.writes

        gw, writes = asyncio.run(scenario())
        assert [_status_of(message, False) for message in writes] == [200]
        assert writes[0].endswith(OK_BODY)
        assert gw.pool_counts == {"opened": 0, "reused": 1, "discarded": 0}

    def test_a_closed_loop_miss_neither_pauses_nor_resumes_reading(self):
        async def scenario():
            _, client, device = self._legs()
            for _ in range(2):
                client.data_received(self.NO_CACHE_GET)
                assert client.waiting
                device.data_received(self.REPLY)
                await asyncio.sleep(0)
                assert not client.waiting
            return client.transport.calls

        assert asyncio.run(scenario()) == ["write", "write"]

    def test_a_request_pipelined_during_the_wait_pauses_reading_until_the_reply_is_written(self):
        async def scenario():
            _, client, device = self._legs()
            client.data_received(self.NO_CACHE_GET)
            assert client.transport.calls == []
            client.data_received(self.NO_CACHE_GET)  # arrives while the first waits
            assert client.transport.calls == ["pause"]
            device.data_received(self.REPLY)
            await asyncio.sleep(0)
            # the first reply is written, then the second request is taken and waits
            assert client.transport.calls == ["pause", "write", "resume"]
            assert client.waiting and len(device.transport.writes) == 2
            device.data_received(self.REPLY)
            await asyncio.sleep(0)
            return client.transport

        transport = asyncio.run(scenario())
        assert transport.calls == ["pause", "write", "resume", "write"]
        assert [_status_of(message, False) for message in transport.writes] == [200, 200]

    def test_pause_writing_still_pauses_reading_at_once(self):
        async def scenario():
            _, client, device = self._legs()
            client.data_received(STATUS_GET + b"\r\n")
            client.pause_writing()  # while the miss waits, with nothing unread
            assert client.transport.calls == ["pause"]
            device.data_received(self.REPLY)
            await asyncio.sleep(0)
            assert client.transport.calls == ["pause", "write"]  # the reply, and reading stays paused
            client.resume_writing()
            return client.transport.calls

        assert asyncio.run(scenario()) == ["pause", "write", "resume"]

    def test_a_fault_after_the_device_answered_is_answered_500(self, sim_v4, monkeypatch):
        # the one expected handler failure goes to a logger outside the wotgw
        # tree, so conftest's check still fails the test on any other error
        records = []
        caught = logging.getLogger("tests.gateway.http11")
        handler = logging.Handler()
        handler.emit = records.append
        caught.addHandler(handler)
        monkeypatch.setattr(http11, "log", caught)

        def broken(key, entry):
            raise RuntimeError("the store failed")

        try:
            with running(make_config([power_device(sim_v4)])) as gw:
                addr = gw.listen_address("v4")
                gw.cache.put = broken
                status, _, body = _request(addr, "GET", "/devices/power/status")
                assert (status, body) == (500, b'{"error":"internal"}')
                assert gw.call(lambda: dict(gw._inflight)) == {}
                del gw.cache.put  # the class's again
                status, headers, body = _request(addr, "GET", "/devices/power/status")
                assert (status, headers["X-WoT-Cache"], body) == (200, "miss", OK_BODY)
                assert sim_v4.request_count == 2  # a new flight, not the failed one
        finally:
            caught.removeHandler(handler)
        assert [record.getMessage() for record in records] == ["handler failure for GET /devices/power/status"]


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
    return sum(len(record.pool._idle) for record in gw.devices.values())


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
            # a connection the reply does not keep is counted when the gateway closes it
            assert gw.stats()["pool"]["discarded"] == device.connections - pooled

    @pytest.mark.parametrize("payload, status, error", [
        (b"HTTP/1.1 200 OK\r\nX-A: " + b"a" * (64 * 1024) + b"\r\n\r\n", 502, "device_protocol_error"),
        (b"HTTP/1.1 200 OK\r\nX-A: cut", 503, "device_unavailable"),
        (b"HTTP/1.1 200 OK\r\n", 503, "device_unavailable"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", 503, "device_unavailable"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", 502, "device_protocol_error"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX", 502, "device_protocol_error"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX-T: t\r\n", 503, "device_unavailable"),
        (b"HTTP/1.1 100 Continue\r\n\r\n", 503, "device_unavailable"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", 502, "device_protocol_error"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n", 502, "device_protocol_error"),
    ], ids=["line-too-long", "eof-in-line", "eof-in-head", "eof-in-chunks", "bad-chunk-size",
            "chunk-without-crlf", "eof-in-trailer", "eof-after-interim", "bad-length", "empty-length"])
    def test_failed_replies(self, payload, status, error):
        with _scripted_gateway(payload, close=True) as (gw, _):
            got, _, body = _request(gw.listen_address("v4"), "GET", "/devices/d/status")
        doc = codec.parse_json(body)
        assert (got, doc.get("error", doc.get("status"))) == (status, error)

    @pytest.mark.parametrize("payload, close", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), False),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         + b"%x\r\n%s\r\n" % (MAX_BODY_BYTES // 2, b"1" * (MAX_BODY_BYTES // 2)) * 3 + b"0\r\n\r\n", False),
        (b"HTTP/1.1 200 OK\r\n\r\n" + b"1" * (MAX_BODY_BYTES + 1), True),
    ], ids=["declared", "chunked", "read-to-eof"])
    def test_a_reply_body_over_the_cap_is_a_protocol_error(self, payload, close):
        with _scripted_gateway(payload, close) as (gw, device):
            status, _, body = _request(gw.listen_address("v4"), "GET", "/devices/d/status")
            assert (status, codec.parse_json(body)["error"]) == (502, "device_protocol_error")
            assert "body_too_large" in codec.parse_json(body)["detail"]
            assert _idle(gw) == 0
            assert gw.stats()["pool"]["opened"] == 1

    @pytest.mark.parametrize("payload", [
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 304 Not Modified\r\nContent-Length: 15\r\n\r\n",
    ], ids=["204", "304"])
    def test_replies_without_a_body_read_none(self, payload):
        async def exchange():
            reply, conn = await _feed([payload])
            return await reply, conn.reusable()

        status = int(payload[9:12])
        assert asyncio.run(exchange()) == ((status, "application/octet-stream", b"", True), True)

    def test_concurrent_misses_share_an_outage_as_is(self):
        device = _ScriptedDevice(b"")  # accepts, reads and never answers
        cfg = make_config([DeviceConfig(device_id="d", endpoint=format_hostport(*device.address))],
                          request_timeout_seconds=0.3)
        try:
            with running(cfg) as gw:
                async def both():
                    misses = [gw._front("127.0.0.1", "v4", "GET", "/devices/d/status", Headers(), b"")
                              for _ in range(2)]
                    return await asyncio.gather(*misses)

                first, second = gw.run(both())
        finally:
            device.close()
        assert first == second
        assert (first[0], codec.parse_json(first[2])) == (504, {"status": "device_timeout", "device": "d"})
        assert device.connections == 1

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
            reply, conn = await _feed([payload[i : i + 1] for i in range(len(payload))])
            return await reply, conn.reusable()

        assert asyncio.run(exchange()) == ((200, "application/octet-stream", OK_BODY, True), True)

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


async def _outcome(pieces, eof):
    """What a bare _Upstream makes of a reply fed as ``pieces``, then EOF if
    ``eof``: (the reply, reusable), the failure's status ("unanswered" for
    _Unanswered), or None while the reply is incomplete."""
    reply, conn = await _feed(pieces, eof)
    if not reply.done():
        conn.close()
        return None
    try:
        return await reply, conn.reusable()
    except _Unanswered:
        return "unanswered"
    except DeviceError as exc:
        return exc.status


class TestReplyFramer:
    def test_mutated_replies_are_framed_alike_however_they_arrive(self):
        rng = random.Random(24)
        kinds = set()
        statuses = collections.Counter()

        async def check(payload):
            pieces = in_pieces(rng, payload)
            whole = [payload] if payload else []
            at_eof = await _outcome(whole, True)
            assert await _outcome(pieces, True) == at_eof, payload
            cut_short = await _outcome(whole, False)
            assert await _outcome(pieces, False) == cut_short, payload
            # short of EOF a reply is framed as at EOF, reusable or not, or not yet
            assert cut_short in (None, at_eof) or (isinstance(cut_short, tuple) and cut_short[0] == at_eof[0])
            kinds.add(type(at_eof).__name__ if isinstance(at_eof, tuple) else at_eof)
            statuses[at_eof[0][0] if isinstance(at_eof, tuple) else at_eof] += 1

        async def run():
            for _ in range(2000):
                await check(mutated_reply(rng))

        # one thread, so debug mode's thread check has nothing to catch, and its
        # records of where each task and handle was made take ten times as long
        asyncio.run(run(), debug=False)
        assert kinds == {"tuple", 502, 503, "unanswered"}
        # the outcomes of the framer that took each head line by line
        assert statuses == {200: 687, 204: 114, 210: 1, 224: 1, 244: 1, 404: 152, 502: 605, 503: 428,
                            600: 1, "unanswered": 10}

    @pytest.mark.parametrize("code", [b"20", b"5"])
    def test_a_status_code_of_fewer_than_three_digits_is_a_protocol_error(self, code):
        async def exchange():
            reply, _ = await _feed([b"HTTP/1.1 " + code + b"\r\nContent-Length: 2\r\n\r\n{}"], eof=True)
            with pytest.raises(DeviceError) as failed:
                await reply
            return failed.value

        error = asyncio.run(exchange())
        assert (error.status, error.blame) == (502, False)

    def test_eof_right_after_an_interim_reply_is_no_unanswered_request(self):
        # a reply has begun, so a GET on a reused connection is not sent again
        assert asyncio.run(_outcome([b"HTTP/1.1 100 Continue\r\n\r\n"], True)) == 503

    def test_a_chunk_size_line_over_the_line_cap_is_refused(self):
        payload = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   b"2;" + b"x" * MAX_LINE + b"\r\n{}\r\n0\r\n\r\n")
        assert asyncio.run(_outcome([payload], False)) == 502

    @pytest.mark.parametrize("fields", [100, 101])
    def test_a_trailer_of_over_100_fields_is_refused(self, fields):
        trailer = b"".join(b"X-%d: t\r\n" % i for i in range(fields))
        payload = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n" + trailer + b"\r\n"
        ok = ((200, "application/octet-stream", b"{}", True), True)
        assert asyncio.run(_outcome([payload], False)) == (ok if fields == 100 else 502)


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

    def test_stop_during_a_miss_with_no_task_behind_it_closes_both_legs(self, sim_v4):
        gw = Gateway(make_config([power_device(sim_v4)])).start()
        try:
            sock = socket.create_connection(gw.listen_address("v4"), timeout=5.0)
            sock.sendall(STATUS_GET + b"\r\n")  # a miss that leaves its device connection pooled
            reply = b""
            while not reply.endswith(OK_BODY):
                reply += sock.recv(4096)
            sim_v4.inject_behavior(latency=2.0)
            sock.sendall(STATUS_GET + b"Cache-Control: no-cache\r\n\r\n")  # a miss on it
            assert _wait_for(lambda: sim_v4.request_count == 2)
            [device] = gw.call(lambda: list(gw._busy))
            assert gw.call(lambda: set(gw._dials)) == set()
            assert gw.stats()["pool"]["reused"] == 1
        finally:
            started = time.monotonic()
            gw.stop()
        with sock:
            assert time.monotonic() - started < 1.0  # the device's answer is not awaited
            assert sock.recv(4096) == b""  # closed unanswered
        assert device.transport.get_extra_info("socket").fileno() == -1
        assert _wait_for(lambda: [conn.eof for conn in list(sim_v4._connections)] == [True], timeout=1.0)
        gc.collect()  # an unclosed transport would warn here

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

    @pytest.mark.parametrize("device_id", ["", "a/b", "a b", "x\r\ny"], ids=["empty", "slash", "space", "crlf"])
    def test_device_id_no_request_can_name_fails_start(self, device_id):
        # a request names its device as one path segment of its request line
        loaded = config_from_dict({"gateway": {"listen_v4": "127.0.0.1:0", "listen_v6": None},
                                   "socks": {"listen_v4": "127.0.0.1:0", "listen_v6": None},
                                   "devices": [{"id": device_id, "endpoint": "127.0.0.1:9"}]})
        built = make_config([DeviceConfig(device_id=device_id, endpoint="127.0.0.1:9")])
        for cfg in (loaded, built):
            with pytest.raises(ConfigError, match="device id"):
                Gateway(cfg).start()

    def test_threads_do_not_grow_with_connections_or_relay_sessions(self):
        target = socket.socket()  # completes TCP handshakes from its backlog, never accepts
        target.bind(("127.0.0.1", 0))
        target.listen(32)
        conns = []
        device = DeviceConfig(device_id="target", endpoint=format_hostport(*target.getsockname()))
        try:
            with running(make_config([device])) as gw:  # the relay dials registered devices only
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

    def test_stop_right_after_connects_closes_every_accepted_socket(self):
        # connections the kernel accepted just before stop() get their
        # transports only afterwards; each must be attached and closed
        for _ in range(15):
            gw = Gateway(make_config([])).start()
            addresses = [gw.listen_address("v4"), gw.listen_address("v6"),
                         gw.relay.listen_address("v4"), gw.relay.listen_address("v6")]
            socks = [socket.create_connection(addr, timeout=5.0) for addr in addresses for _ in range(2)]
            try:
                gw.stop()
                for sock in socks:
                    assert sock.recv(1) == b""  # EOF: the gateway closed its end
            finally:
                for sock in socks:
                    sock.close()
