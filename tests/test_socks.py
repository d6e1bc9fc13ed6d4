import asyncio
import collections
import hashlib
import random
import re
import socket
import struct
import threading
import time

import pytest

from _gen import in_pieces, mutated_socks
from wotgw.socks import (
    ATYP_DOMAIN,
    CMD_BIND,
    CMD_UDP_ASSOCIATE,
    REP_ADDRESS_TYPE_NOT_SUPPORTED,
    REP_COMMAND_NOT_SUPPORTED,
    REP_CONNECTION_REFUSED,
    REP_GENERAL_FAILURE,
    REP_HOST_UNREACHABLE,
    REP_SUCCESS,
    SOCKS_VERSION,
    Candidate,
    SocksConnectRequest,
    SocksError,
    SocksRelayServer,
    SocksReplyError,
    _Pipe,
    build_connect_request,
    encode_reply,
    load_static_table,
    negotiate,
    parse_connect,
    resolve_target,
    socks_connect,
)


# --- wire-format vectors -------------------------------------------------------


class TestNegotiate:
    def test_no_auth_selected(self):
        assert negotiate(b"\x05\x01\x00") == b"\x05\x00"

    def test_no_auth_among_others(self):
        assert negotiate(b"\x05\x03\x02\x00\x01") == b"\x05\x00"

    def test_no_acceptable_method(self):
        assert negotiate(b"\x05\x01\x02") == b"\x05\xff"

    def test_wrong_version_raises(self):
        with pytest.raises(SocksError):
            negotiate(b"\x04\x01\x00")

    def test_short_greeting_raises(self):
        with pytest.raises(SocksError):
            negotiate(b"\x05")

    def test_method_count_mismatch_raises(self):
        with pytest.raises(SocksError):
            negotiate(b"\x05\x02\x00")


class TestParseConnect:
    def test_domain_request(self):
        name = b"device7.local"
        msg = b"\x05\x01\x00\x03" + bytes((len(name),)) + name + struct.pack("!H", 8080)
        req = parse_connect(msg)
        assert req == SocksConnectRequest("domain", "device7.local", 8080)

    def test_ipv4_request(self):
        msg = b"\x05\x01\x00\x01\x7f\x00\x00\x01\x00\x50"
        assert parse_connect(msg) == SocksConnectRequest("v4", "127.0.0.1", 80)

    def test_ipv6_request(self):
        addr = socket.inet_pton(socket.AF_INET6, "::1")
        msg = b"\x05\x01\x00\x04" + addr + struct.pack("!H", 9090)
        assert parse_connect(msg) == SocksConnectRequest("v6", "::1", 9090)

    def test_bind_rejected_with_command_code(self):
        msg = bytes((SOCKS_VERSION, CMD_BIND, 0, 1)) + b"\x7f\x00\x00\x01\x00\x50"
        with pytest.raises(SocksError) as err:
            parse_connect(msg)
        assert err.value.reply_code == REP_COMMAND_NOT_SUPPORTED

    def test_udp_associate_rejected(self):
        msg = bytes((SOCKS_VERSION, CMD_UDP_ASSOCIATE, 0, 1)) + b"\x7f\x00\x00\x01\x00\x50"
        with pytest.raises(SocksError) as err:
            parse_connect(msg)
        assert err.value.reply_code == REP_COMMAND_NOT_SUPPORTED

    def test_unknown_atyp_rejected_with_atyp_code(self):
        msg = b"\x05\x01\x00\x02\x7f\x00\x00\x01\x00\x50"
        with pytest.raises(SocksError) as err:
            parse_connect(msg)
        assert err.value.reply_code == REP_ADDRESS_TYPE_NOT_SUPPORTED

    def test_short_request(self):
        with pytest.raises(SocksError) as err:
            parse_connect(b"\x05\x01\x00")
        assert err.value.reply_code == REP_GENERAL_FAILURE

    def test_wrong_version(self):
        with pytest.raises(SocksError) as err:
            parse_connect(b"\x04\x01\x00\x01\x7f\x00\x00\x01\x00\x50")
        assert err.value.reply_code == REP_GENERAL_FAILURE

    def test_truncated_ipv4_body(self):
        with pytest.raises(SocksError) as err:
            parse_connect(b"\x05\x01\x00\x01\x7f\x00\x00\x01\x00")
        assert err.value.reply_code == REP_GENERAL_FAILURE

    def test_domain_length_mismatch(self):
        msg = b"\x05\x01\x00\x03\x0ashort\x00\x50"  # claims 10, carries 5
        with pytest.raises(SocksError) as err:
            parse_connect(msg)
        assert err.value.reply_code == REP_GENERAL_FAILURE


class TestBuildConnectRequest:
    def test_ipv4_literal(self):
        msg = build_connect_request("127.0.0.1", 80)
        assert msg == b"\x05\x01\x00\x01\x7f\x00\x00\x01\x00\x50"

    def test_ipv6_literal(self):
        msg = build_connect_request("::1", 8080)
        expected = b"\x05\x01\x00\x04" + socket.inet_pton(socket.AF_INET6, "::1")
        assert msg == expected + struct.pack("!H", 8080)

    def test_domain(self):
        msg = build_connect_request("device7.local", 8080)
        assert msg[3] == ATYP_DOMAIN
        assert msg[4] == len(b"device7.local")
        assert parse_connect(msg) == SocksConnectRequest("domain", "device7.local", 8080)

    def test_roundtrip_through_parse(self):
        for host, port in [("10.0.0.7", 1), ("fe80::2", 65535), ("gw.example", 443)]:
            req = parse_connect(build_connect_request(host, port))
            assert req.address == host
            assert req.port == port

    def test_overlong_domain_rejected(self):
        with pytest.raises(SocksError):
            build_connect_request("x" * 256, 80)


class TestEncodeReply:
    def test_success_with_ipv4_bound(self):
        reply = encode_reply(REP_SUCCESS, ("127.0.0.1", 8080))
        assert reply == b"\x05\x00\x00\x01\x7f\x00\x00\x01\x1f\x90"

    def test_failure_defaults_to_zero_address(self):
        reply = encode_reply(REP_HOST_UNREACHABLE)
        assert reply == b"\x05\x04\x00\x01\x00\x00\x00\x00\x00\x00"

    def test_ipv6_bound(self):
        reply = encode_reply(REP_SUCCESS, ("::1", 1080))
        packed = socket.inet_pton(socket.AF_INET6, "::1")
        assert reply == b"\x05\x00\x00\x04" + packed + struct.pack("!H", 1080)

    def test_scope_id_stripped(self):
        reply = encode_reply(REP_SUCCESS, ("fe80::1%lo", 9))
        assert reply[3] == 0x04  # still parses as a v6 literal


# --- resolution ----------------------------------------------------------------


class TestStaticTable:
    def test_parse_lines(self):
        table = load_static_table(
            "# comment\n"
            "sensor1 v4 192.168.1.10\n"
            "\n"
            "sensor1 v6 fd00::10\n"
            "sensor2 v4 192.168.1.11\n"
        )
        assert table["sensor1"] == (("v4", "192.168.1.10"), ("v6", "fd00::10"))
        assert table["sensor2"] == (("v4", "192.168.1.11"),)

    def test_bad_family_reports_line(self):
        with pytest.raises(ValueError) as err:
            load_static_table("ok v4 1.2.3.4\nbad ipv4 1.2.3.5\n")
        assert "line 2" in str(err.value)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ValueError) as err:
            load_static_table("name-only\n")
        assert "line 1" in str(err.value)


class TestResolveTarget:
    def test_literal_request_passes_through(self):
        assert resolve_target("10.1.2.3", 80) == [Candidate("v4", "10.1.2.3", 80)]

    def test_domain_field_holding_literal(self):
        assert resolve_target("::1", 99, static_table={}) == [Candidate("v6", "::1", 99)]

    def test_static_hit_ordered_by_preference(self):
        for text in ("dev v4 192.0.2.1\ndev v6 2001:db8::1\n", "dev v6 2001:db8::1\ndev v4 192.0.2.1\n"):
            candidates = resolve_target("dev", 8080, load_static_table(text))
            assert [c.family for c in candidates] == ["v6", "v4"]
            assert all(c.port == 8080 for c in candidates)

    def test_static_miss_is_host_unreachable(self):
        with pytest.raises(SocksError) as err:
            resolve_target("nosuch", 80, static_table={})
        assert err.value.reply_code == REP_HOST_UNREACHABLE

    def test_system_resolver_handles_localhost(self):
        candidates = resolve_target("localhost", 80)
        assert candidates
        assert all(c.port == 80 for c in candidates)
        assert {c.family for c in candidates} <= {"v4", "v6"}


# --- live relay ----------------------------------------------------------------


class EchoServer:
    """Accepts connections and echoes bytes until the peer half-closes."""

    def __init__(self, host="127.0.0.1", family=socket.AF_INET):
        self.sock = socket.socket(family, socket.SOCK_STREAM)
        self.sock.bind((host, 0))
        self.sock.listen(8)
        self.accepted = 0
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def _loop(self):
        while self._running:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._running = False
        try:
            self.sock.close()
        except OSError:
            pass


def _recv_all(sock):
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


@pytest.fixture
def relay():
    server = SocksRelayServer(
        listen_v4=("127.0.0.1", 0),
        listen_v6=("::1", 0),
        connect_timeout=2.0,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def echo_v4():
    server = EchoServer()
    yield server
    server.close()


def _unused_port() -> int:
    """A v4 loopback port with no listener."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestLiveRelay:
    def test_same_family_echo(self, relay, echo_v4):
        host, port = echo_v4.address
        sock = socks_connect(relay.listen_address("v4"), host, port, timeout=2.0)
        try:
            sock.sendall(b"ping")
            sock.shutdown(socket.SHUT_WR)
            assert _recv_all(sock) == b"ping"
        finally:
            sock.close()

    def test_cross_family_v6_client_to_v4_only_target(self, relay, echo_v4):
        # target listens on 127.0.0.1 only; the client leg runs over ::1
        host, port = echo_v4.address
        sock = socks_connect(relay.listen_address("v6"), host, port, timeout=2.0)
        try:
            sock.sendall(b"cross-family")
            sock.shutdown(socket.SHUT_WR)
            assert _recv_all(sock) == b"cross-family"
        finally:
            sock.close()

    def test_large_payload_digest(self, relay, echo_v4):
        rng = random.Random(2024)
        payload = bytes(rng.getrandbits(8) for _ in range(256 * 1024))
        host, port = echo_v4.address
        sock = socks_connect(relay.listen_address("v4"), host, port, timeout=2.0)
        try:
            sender = threading.Thread(
                target=lambda: (sock.sendall(payload), sock.shutdown(socket.SHUT_WR)),
                daemon=True,
            )
            sender.start()
            echoed = _recv_all(sock)
            sender.join()
        finally:
            sock.close()
        assert hashlib.sha256(echoed).hexdigest() == hashlib.sha256(payload).hexdigest()

    def test_bytes_sent_behind_the_connect_request_are_relayed(self, relay, echo_v4):
        with socket.create_connection(relay.listen_address("v4"), timeout=2.0) as sock:
            # greeting, CONNECT and payload in one segment, without waiting for a reply
            sock.sendall(b"\x05\x01\x00" + build_connect_request(*echo_v4.address) + b"early")
            sock.shutdown(socket.SHUT_WR)
            data = _recv_all(sock)
        assert data[:2] == bytes((SOCKS_VERSION, 0x00))
        assert data[2:4] == bytes((SOCKS_VERSION, REP_SUCCESS))
        assert data[12:] == b"early"  # after the 10-byte IPv4 reply

    def test_connection_refused_reply(self, relay):
        with pytest.raises(SocksReplyError) as err:
            socks_connect(relay.listen_address("v4"), "127.0.0.1", _unused_port(), timeout=2.0)
        assert err.value.reply_code == REP_CONNECTION_REFUSED

    def test_every_session_ending_unrelayed_counts_failed(self):
        server = SocksRelayServer(
            listen_v4=("127.0.0.1", 0),
            listen_v6=None,
            static_table={},
            connect_timeout=2.0,
        )
        server.start()
        try:
            address = server.listen_address("v4")
            with pytest.raises(SocksReplyError) as err:
                socks_connect(address, "ghost.device", 80, timeout=2.0)
            assert err.value.reply_code == REP_HOST_UNREACHABLE
            with socket.create_connection(address, timeout=2.0) as sock:
                sock.sendall(b"\x05\x01\x00")
                assert sock.recv(2) == b"\x05\x00"
                sock.sendall(bytes((SOCKS_VERSION, CMD_BIND, 0, 1)) + b"\x7f\x00\x00\x01\x00\x50")
                assert sock.recv(10)[1] == REP_COMMAND_NOT_SUPPORTED
            with pytest.raises(SocksReplyError) as err:
                socks_connect(address, "127.0.0.1", _unused_port(), timeout=2.0)
            assert err.value.reply_code == REP_CONNECTION_REFUSED
            assert _wait_for(lambda: server.stats.snapshot()["sessions_failed"] == 3)
            assert server.stats.snapshot()["sessions_total"] == 0
        finally:
            server.stop()

    def test_failed_start_stops_what_it_started(self):
        v4 = _unused_port()
        with socket.socket(socket.AF_INET6) as taken:
            taken.bind(("::1", 0))
            taken.listen(1)
            server = SocksRelayServer(listen_v4=("127.0.0.1", v4), listen_v6=taken.getsockname()[:2])
            with pytest.raises(OSError):
                server.start()
        assert _wait_for(lambda: not any(t.name == "socks-relay" for t in threading.enumerate()))
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", v4))  # EADDRINUSE while the v4 listener is left open

    def test_static_miss_reply(self):
        server = SocksRelayServer(
            listen_v4=("127.0.0.1", 0),
            listen_v6=None,
            static_table={},
            connect_timeout=2.0,
        )
        server.start()
        try:
            with pytest.raises(SocksReplyError) as err:
                socks_connect(server.listen_address("v4"), "ghost.device", 80, timeout=2.0)
            assert err.value.reply_code == REP_HOST_UNREACHABLE
        finally:
            server.stop()

    def test_connect_timeout_reply(self):
        target = socket.socket()  # its accept queue is full: a connect to it waits
        target.bind(("127.0.0.1", 0))
        target.listen(0)
        filler = socket.create_connection(target.getsockname(), timeout=5.0)
        server = SocksRelayServer(listen_v4=("127.0.0.1", 0), listen_v6=None, connect_timeout=0.3)
        server.start()
        try:
            with pytest.raises(SocksReplyError) as err:
                socks_connect(server.listen_address("v4"), *target.getsockname(), timeout=5.0)
            assert err.value.reply_code == REP_HOST_UNREACHABLE
        finally:
            server.stop()
            filler.close()
            target.close()

    def test_static_table_name_resolution(self, echo_v4):
        host, port = echo_v4.address
        table = load_static_table(f"echo-device v4 {host}\n")
        server = SocksRelayServer(
            listen_v4=("127.0.0.1", 0),
            listen_v6=None,
            static_table=table,
            connect_timeout=2.0,
        )
        server.start()
        try:
            sock = socks_connect(server.listen_address("v4"), "echo-device", port, timeout=2.0)
            try:
                sock.sendall(b"by-name")
                sock.shutdown(socket.SHUT_WR)
                assert _recv_all(sock) == b"by-name"
            finally:
                sock.close()
        finally:
            server.stop()

    def test_bind_rejected_over_wire(self, relay):
        sock = socket.create_connection(relay.listen_address("v4"), timeout=2.0)
        try:
            sock.sendall(b"\x05\x01\x00")
            assert sock.recv(2) == b"\x05\x00"
            sock.sendall(bytes((SOCKS_VERSION, CMD_BIND, 0, 1)) + b"\x7f\x00\x00\x01\x00\x50")
            reply = sock.recv(10)
            assert reply[1] == REP_COMMAND_NOT_SUPPORTED
        finally:
            sock.close()

    def test_unknown_atyp_rejected_over_wire(self, relay):
        sock = socket.create_connection(relay.listen_address("v4"), timeout=2.0)
        try:
            sock.sendall(b"\x05\x01\x00")
            assert sock.recv(2) == b"\x05\x00"
            sock.sendall(b"\x05\x01\x00\x02\x7f\x00\x00\x01\x00\x50")
            reply = sock.recv(10)
            assert reply[1] == REP_ADDRESS_TYPE_NOT_SUPPORTED
        finally:
            sock.close()

    def test_name_idna_refuses_is_host_unreachable(self, relay):
        # a label over 63 bytes fails IDNA encoding before any lookup
        sock = socket.create_connection(relay.listen_address("v4"), timeout=2.0)
        try:
            sock.sendall(b"\x05\x01\x00")
            assert sock.recv(2) == b"\x05\x00"
            sock.sendall(build_connect_request("a" * 64 + ".x", 80))
            assert sock.recv(10)[:2] == bytes((SOCKS_VERSION, REP_HOST_UNREACHABLE))
        finally:
            sock.close()

    def test_no_acceptable_method_terminates(self, relay):
        sock = socket.create_connection(relay.listen_address("v4"), timeout=2.0)
        try:
            sock.sendall(b"\x05\x01\x02")  # offers only username/password
            assert sock.recv(2) == b"\x05\xff"
            assert sock.recv(1) == b""  # server hangs up
        finally:
            sock.close()

    def test_stats_and_byte_counts(self, relay, echo_v4):
        host, port = echo_v4.address
        before = relay.stats.snapshot()
        sock = socks_connect(relay.listen_address("v4"), host, port, timeout=2.0)
        try:
            sock.sendall(b"x" * 1000)
            sock.shutdown(socket.SHUT_WR)
            assert _recv_all(sock) == b"x" * 1000
        finally:
            sock.close()
        assert _wait_for(
            lambda: relay.stats.snapshot()["sessions_total"] == before["sessions_total"] + 1
        )
        assert _wait_for(lambda: relay.stats.snapshot()["active_sessions"] == 0)
        after = relay.stats.snapshot()
        assert after["bytes_up"] >= before["bytes_up"] + 1000
        assert after["bytes_down"] >= before["bytes_down"] + 1000

    def test_zero_byte_session(self, relay, echo_v4):
        host, port = echo_v4.address
        before = relay.stats.snapshot()["sessions_total"]
        sock = socks_connect(relay.listen_address("v4"), host, port, timeout=2.0)
        sock.close()
        assert _wait_for(lambda: relay.stats.snapshot()["sessions_total"] == before + 1)
        assert _wait_for(lambda: relay.stats.snapshot()["active_sessions"] == 0)

    def test_half_close_still_delivers_response(self, relay, echo_v4):
        # client finishes sending before reading anything; echo must survive
        host, port = echo_v4.address
        sock = socks_connect(relay.listen_address("v4"), host, port, timeout=2.0)
        try:
            sock.sendall(b"late read")
            sock.shutdown(socket.SHUT_WR)
            time.sleep(0.1)
            assert _recv_all(sock) == b"late read"
        finally:
            sock.close()

    def test_stop_ends_live_sessions(self, relay, echo_v4):
        host, port = echo_v4.address
        with socks_connect(relay.listen_address("v4"), host, port, timeout=5.0) as sock:
            sock.sendall(b"ping")
            echoed = b""
            while len(echoed) < 4:
                chunk = sock.recv(4)
                assert chunk, "relay closed before the echo"
                echoed += chunk
            assert echoed == b"ping"
            relay.stop()
            assert sock.recv(4096) == b""  # EOF, not a session left relaying
        assert relay.stats.snapshot()["active_sessions"] == 0

    def test_listen_address_reports_bound_ports(self, relay):
        v4 = relay.listen_address("v4")
        v6 = relay.listen_address("v6")
        assert v4[0] == "127.0.0.1" and v4[1] > 0
        assert v6[0] == "::1" and v6[1] > 0


# --- the wire, seeded -------------------------------------------------------------


class _PipeTransport:
    """Enough of a transport for a bare _Pipe: it keeps what is written and
    whether reading is paused or the connection closed."""

    def __init__(self):
        self.writes = []
        self.paused = self.closed = False

    def get_extra_info(self, name):
        return ("127.0.0.1", 50000)

    def write(self, data):
        assert not self.closed
        self.writes.append(bytes(data))

    def write_eof(self):
        pass

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False


class _NoDialRelay(SocksRelayServer):
    """A relay that answers a CONNECT it would dial with success, and ends
    the session instead of dialling."""

    async def establish_and_pump(self, client, candidates):
        client.transport.write(encode_reply(REP_SUCCESS, ("127.0.0.1", 1)))
        client.end()


# no bytes, a method selection, or one followed by a reply with an IPv4 or IPv6 address
SOCKS_ANSWER = re.compile(rb"(?:\x05\xff|\x05\x00(?:\x05([\x00-\x08])\x00(?:\x01.{6}|\x04.{18}))?)?", re.S)


class TestSocksWire:
    def test_mutated_openings_end_in_a_reply_or_a_close(self):
        rng = random.Random(28)
        relay = _NoDialRelay(listen_v4=None, listen_v6=None, static_table={"device": (("v4", "127.0.0.1"),)})
        answers = collections.Counter()

        async def check(opening):
            transport, pipe = _PipeTransport(), _Pipe(relay)
            pipe.connection_made(transport)
            for piece in in_pieces(rng, opening):
                if transport.paused:  # a request was read; its target is being dialled
                    await pipe.task
                if transport.closed:
                    break
                pipe.data_received(piece)
            if pipe.task is not None:
                await pipe.task
            if not transport.closed:
                pipe.eof_received()
            pipe.connection_lost(None)
            assert transport.closed, opening
            answer = SOCKS_ANSWER.fullmatch(b"".join(transport.writes))
            assert answer, (opening, transport.writes)
            answers[answer[1][0] if answer[1] else b"".join(transport.writes)[:2]] += 1

        async def run():
            relay.loop = asyncio.get_running_loop()
            for _ in range(2000):
                await check(mutated_socks(rng))

        asyncio.run(run(), debug=False)  # one thread; see TestReplyFramer in test_gateway.py
        assert relay._connections == set()
        # success, general failure, host unreachable, command and address type not supported
        assert {0, 1, 4, 7, 8, b"\x05\xff", b"\x05\x00", b""} <= set(answers), answers
