"""Rules in time, checked at exactly their virtual time.

Each test runs the gateway, its embedded relay and a device simulator on
one ``_virtual.VirtualLoop`` over real loopback sockets, so a TTL, a request
timeout or the relay's idle timeout is waited out in no wall time, and each
happens at the instant its rule names. Times here are sums of powers of
two, so the clock's float arithmetic is exact.
"""

import asyncio

from _virtual import Client, run, serving, until
from wotgw import codec, socks
from wotgw.config import DeviceConfig, GatewayConfig, format_hostport
from wotgw.device import DeviceSimulator
from wotgw.gateway import Gateway

OK_BODY = b'{"status":"ok"}'


def _stack(latency: float = 0.0, **over):
    """An unopened gateway in front of a v4 device simulator answering after ``latency``."""
    sim = DeviceSimulator(bind=("127.0.0.1", 0), base_latency=latency, power_save_idle=0.0)
    config = dict(
        listen_v4=("127.0.0.1", 0), listen_v6=("::1", 0),
        socks_listen_v4=("127.0.0.1", 0), socks_listen_v6=("::1", 0),
        probe_interval_seconds=0.0, request_timeout_seconds=1.0,
        devices=[DeviceConfig(device_id="d", endpoint=format_hostport(*sim.address), ttl_seconds=2.0)],
    )
    config.update(over)
    return Gateway(GatewayConfig(**config)), sim


def _pool_balance(gw):
    """(opened, discarded + idle + busy): equal whenever the loop is quiet."""
    counts = gw.pool_counts
    idle = sum(len(record.pool._idle) for record in gw.devices.values())
    return counts["opened"], counts["discarded"] + idle + len(gw._busy)


def test_a_cached_entry_expires_at_its_ttl():
    gw, sim = _stack(latency=0.25)

    async def main():
        loop = asyncio.get_running_loop()
        async with serving(sim, gw):
            client = await Client.connect(gw.listen_address("v4"))
            seen = []
            for moment in (0.0, 2.25 - 1 / 64, 2.25):  # stored at 0.25, with a TTL of 2 s
                await until(moment)
                status, fields, body = await client.request("GET", "/devices/d/status")
                seen.append((loop.time(), status, fields["x-wot-cache"], body, sim.request_count))
            await client.close()
            return seen

    assert run(main()) == [
        (0.25, 200, "miss", OK_BODY, 1),
        (2.25 - 1 / 64, 200, "hit", OK_BODY, 1),  # one tick before the TTL ends
        (2.5, 200, "miss", OK_BODY, 2),  # at the TTL the entry is gone, and the device is asked again
    ]


async def _socks_session(relay_address, target):
    """A client connection through the relay to ``target``, its CONNECT answered."""
    reader, writer = await asyncio.open_connection(*relay_address)
    writer.write(bytes((socks.SOCKS_VERSION, 1, socks.METHOD_NO_AUTH)))
    assert await reader.readexactly(2) == bytes((socks.SOCKS_VERSION, socks.METHOD_NO_AUTH))
    writer.write(socks.build_connect_request(*target))
    reply = await reader.readexactly(10)  # a v4 bound address
    assert reply[1] == socks.REP_SUCCESS
    return reader, writer


def test_an_untouched_relay_session_ends_at_the_idle_timeout():
    gw, sim = _stack()

    async def main():
        loop = asyncio.get_running_loop()
        async with serving(sim, gw):
            reader, writer = await _socks_session(gw.relay.listen_address("v4"), sim.address)
            # a bound past the timeout: a timer that never sees the session idle would re-arm for ever
            tail = await asyncio.wait_for(reader.read(), socks.IDLE_TIMEOUT + 1)
            ended = loop.time()
            writer.close()
            await writer.wait_closed()
            return tail, ended, gw.relay.stats.snapshot()

    tail, ended, stats = run(main())
    assert (tail, ended) == (b"", socks.IDLE_TIMEOUT)
    assert (stats["sessions_total"], stats["active_sessions"]) == (1, 0)


def test_a_relayed_byte_restarts_the_idle_timeout():
    gw, sim = _stack()
    touched = 64.0

    async def main():
        loop = asyncio.get_running_loop()
        async with serving(sim, gw):
            reader, writer = await _socks_session(gw.relay.listen_address("v4"), sim.address)
            await until(touched)
            writer.write(b"GET /status HTTP/1.1\r\nHost: d\r\n\r\n")
            reply = await reader.readuntil(b"\r\n\r\n") + await reader.readexactly(len(OK_BODY))
            tail = await asyncio.wait_for(reader.read(), socks.IDLE_TIMEOUT + 1)
            ended = loop.time()
            writer.close()
            await writer.wait_closed()
            return reply, tail, ended

    reply, tail, ended = run(main())
    assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(OK_BODY)
    assert (tail, ended) == (b"", touched + socks.IDLE_TIMEOUT)


def test_a_device_slower_than_the_request_timeout_gets_504_at_the_timeout():
    gw, sim = _stack(latency=1.5, request_timeout_seconds=1.0)

    async def main():
        loop = asyncio.get_running_loop()
        async with serving(sim, gw):
            client = await Client.connect(gw.listen_address("v4"))
            status, _, body = await client.request("GET", "/devices/d/status")
            answered = loop.time()
            await until(2.0)  # past the device's late reply to the connection the gateway closed
            await client.close()
            return status, codec.parse_json(body), answered, gw.devices["d"].health, _pool_balance(gw)

    status, body, answered, health, (opened, accounted) = run(main())
    assert (status, body, answered) == (504, {"status": "device_timeout", "device": "d"}, 1.0)
    assert health == "down"  # a first failure takes an unknown device down
    assert (opened, accounted) == (1, 1)  # the timed-out connection is counted discarded
    assert sim.request_count == 1
