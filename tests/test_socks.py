import hashlib
import random
import socket
import struct
import threading
import time

import pytest

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
    RelaySession,
    ResolverPolicy,
    SocksConnectRequest,
    SocksError,
    SocksRelayServer,
    SocksReplyError,
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
        req = SocksConnectRequest("v4", "10.1.2.3", 80)
        assert resolve_target(req, ResolverPolicy()) == [Candidate("v4", "10.1.2.3", 80)]

    def test_domain_field_holding_literal(self):
        req = SocksConnectRequest("domain", "::1", 99)
        assert resolve_target(req, ResolverPolicy()) == [Candidate("v6", "::1", 99)]

    def test_static_hit_ordered_by_preference(self):
        table = load_static_table("dev v4 192.0.2.1\ndev v6 2001:db8::1\n")
        req = SocksConnectRequest("domain", "dev", 8080)
        v6_first = resolve_target(req, ResolverPolicy(table, preference=("v6", "v4")))
        assert [c.family for c in v6_first] == ["v6", "v4"]
        v4_first = resolve_target(req, ResolverPolicy(table, preference=("v4", "v6")))
        assert [c.family for c in v4_first] == ["v4", "v6"]
        assert all(c.port == 8080 for c in v6_first)

    def test_static_miss_is_host_unreachable(self):
        req = SocksConnectRequest("domain", "nosuch", 80)
        with pytest.raises(SocksError) as err:
            resolve_target(req, ResolverPolicy(static_table={}))
        assert err.value.reply_code == REP_HOST_UNREACHABLE

    def test_system_resolver_handles_localhost(self):
        req = SocksConnectRequest("domain", "localhost", 80)
        candidates = resolve_target(req, ResolverPolicy())
        assert candidates
        assert all(c.port == 80 for c in candidates)
        assert {c.family for c in candidates} <= {"v4", "v6"}


class TestRelaySession:
    def test_advance_forward(self):
        s = RelaySession(client_address=("127.0.0.1", 1), client_family="v4")
        s.advance("connecting")
        s.advance("relaying")
        s.advance("closed")
        assert s.state == "closed"

    def test_advance_backward_rejected(self):
        s = RelaySession(client_address=("127.0.0.1", 1), client_family="v4", state="relaying")
        with pytest.raises(ValueError):
            s.advance("connecting")


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
        idle_timeout=10.0,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def echo_v4():
    server = EchoServer()
    yield server
    server.close()


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

    def test_connection_refused_reply(self, relay):
        # grab a port with no listener
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(SocksReplyError) as err:
            socks_connect(relay.listen_address("v4"), "127.0.0.1", dead_port, timeout=2.0)
        assert err.value.reply_code == REP_CONNECTION_REFUSED

    def test_static_miss_reply(self):
        server = SocksRelayServer(
            listen_v4=("127.0.0.1", 0),
            listen_v6=None,
            resolver=ResolverPolicy(static_table={}),
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
            resolver=ResolverPolicy(static_table=table),
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
