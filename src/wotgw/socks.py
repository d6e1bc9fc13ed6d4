"""SOCKS5 cross-family relay: the IPv6/IPv4 gatewaying mechanism.

Implements the minimal SOCKS5 subset the gateway needs: no-authentication
CONNECT with IPv4, DOMAIN, and IPv6 address types. A CONNECT accepted on
one address family may be satisfied by an outbound connection on the other;
the two terminated connections are spliced byte-for-byte in both directions
with half-close propagation.

BIND and UDP ASSOCIATE are rejected with the proper reply code.
"""

from __future__ import annotations

import errno
import ipaddress
import logging
import socket
import struct
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

from wotgw.http11 import Listener

log = logging.getLogger("wotgw.socks")

SOCKS_VERSION = 0x05

CMD_CONNECT = 0x01
CMD_BIND = 0x02
CMD_UDP_ASSOCIATE = 0x03

ATYP_IPV4 = 0x01
ATYP_DOMAIN = 0x03
ATYP_IPV6 = 0x04

METHOD_NO_AUTH = 0x00
METHOD_NO_ACCEPTABLE = 0xFF

REP_SUCCESS = 0x00
REP_GENERAL_FAILURE = 0x01
REP_NETWORK_UNREACHABLE = 0x03
REP_HOST_UNREACHABLE = 0x04
REP_CONNECTION_REFUSED = 0x05
REP_TTL_EXPIRED = 0x06
REP_COMMAND_NOT_SUPPORTED = 0x07
REP_ADDRESS_TYPE_NOT_SUPPORTED = 0x08

FAMILY_V4 = "v4"
FAMILY_V6 = "v6"

_AF = {FAMILY_V4: socket.AF_INET, FAMILY_V6: socket.AF_INET6}

DEFAULT_BUFFER_SIZE = 16 * 1024
DEFAULT_IDLE_TIMEOUT = 300.0
DEFAULT_CONNECT_TIMEOUT = 10.0

STATE_NEGOTIATING = "negotiating"
STATE_CONNECTING = "connecting"
STATE_RELAYING = "relaying"
STATE_CLOSED = "closed"
_STATE_ORDER = (STATE_NEGOTIATING, STATE_CONNECTING, STATE_RELAYING, STATE_CLOSED)


class SocksError(Exception):
    """Protocol violation or connect failure; carries the RFC reply code to send."""

    def __init__(self, message: str, reply_code: int | None = None):
        super().__init__(message)
        self.reply_code = reply_code


class SocksReplyError(SocksError):
    """The relay answered a client CONNECT with a non-success reply."""


@dataclass(frozen=True)
class SocksConnectRequest:
    address_type: str  # "v4" | "v6" | "domain"
    address: str
    port: int


class Candidate(NamedTuple):
    family: str
    address: str
    port: int


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise SocksError("connection closed mid-message")
        buf += chunk
    return buf


def _recv_message(sock: socket.socket) -> bytes:
    """One SOCKS5 request or reply: its four head bytes, address and port."""
    head = _recv_exact(sock, 4)
    atyp = head[3]
    if atyp == ATYP_IPV4:
        rest = _recv_exact(sock, 6)
    elif atyp == ATYP_IPV6:
        rest = _recv_exact(sock, 18)
    elif atyp == ATYP_DOMAIN:
        length = _recv_exact(sock, 1)
        rest = length + _recv_exact(sock, length[0] + 2)
    else:
        raise SocksError(f"address type {atyp} not supported", REP_ADDRESS_TYPE_NOT_SUPPORTED)
    return head + rest


def negotiate(greeting: bytes) -> bytes:
    """Answer the client's version/method message.

    Selects no-authentication when offered, otherwise answers
    'no acceptable methods' (the session then terminates). Malformed
    greetings raise SocksError with no reply code.
    """
    if len(greeting) < 2:
        raise SocksError("short greeting")
    version, nmethods = greeting[0], greeting[1]
    if version != SOCKS_VERSION:
        raise SocksError(f"unsupported SOCKS version {version}")
    methods = greeting[2:]
    if len(methods) != nmethods:
        raise SocksError("greeting method list length mismatch")
    if METHOD_NO_AUTH in methods:
        return bytes((SOCKS_VERSION, METHOD_NO_AUTH))
    return bytes((SOCKS_VERSION, METHOD_NO_ACCEPTABLE))


def parse_connect(data: bytes) -> SocksConnectRequest:
    """Decode a complete SOCKS5 request message; only CONNECT is accepted."""
    if len(data) < 4:
        raise SocksError("short request", REP_GENERAL_FAILURE)
    version, cmd, _, atyp = data[0], data[1], data[2], data[3]
    if version != SOCKS_VERSION:
        raise SocksError(f"unsupported SOCKS version {version}", REP_GENERAL_FAILURE)
    if cmd != CMD_CONNECT:
        raise SocksError(f"command {cmd} not supported", REP_COMMAND_NOT_SUPPORTED)
    body = data[4:]
    if atyp == ATYP_IPV4:
        if len(body) != 6:
            raise SocksError("bad IPv4 request length", REP_GENERAL_FAILURE)
        address = socket.inet_ntop(socket.AF_INET, body[:4])
        kind, addr_end = FAMILY_V4, 4
    elif atyp == ATYP_IPV6:
        if len(body) != 18:
            raise SocksError("bad IPv6 request length", REP_GENERAL_FAILURE)
        address = socket.inet_ntop(socket.AF_INET6, body[:16])
        kind, addr_end = FAMILY_V6, 16
    elif atyp == ATYP_DOMAIN:
        if len(body) < 1 or len(body) != 1 + body[0] + 2:
            raise SocksError("bad domain request length", REP_GENERAL_FAILURE)
        try:
            address = body[1 : 1 + body[0]].decode("utf-8")
        except UnicodeDecodeError:
            raise SocksError("undecodable domain name", REP_GENERAL_FAILURE)
        kind, addr_end = "domain", 1 + body[0]
    else:
        raise SocksError(f"address type {atyp} not supported", REP_ADDRESS_TYPE_NOT_SUPPORTED)
    port = struct.unpack("!H", body[addr_end : addr_end + 2])[0]
    return SocksConnectRequest(kind, address, port)


def build_connect_request(host: str, port: int) -> bytes:
    """Client-side CONNECT message for a literal or domain target."""
    try:
        addr = ipaddress.ip_address(host)
    except ValueError:
        raw = host.encode("utf-8")
        if len(raw) > 255:
            raise SocksError("domain name too long")
        body = bytes((ATYP_DOMAIN, len(raw))) + raw
    else:
        if addr.version == 4:
            body = bytes((ATYP_IPV4,)) + addr.packed
        else:
            body = bytes((ATYP_IPV6,)) + addr.packed
    return bytes((SOCKS_VERSION, CMD_CONNECT, 0x00)) + body + struct.pack("!H", port)


def encode_reply(code: int, bound: tuple[str, int] | None = None) -> bytes:
    """Server reply; failure replies carry the all-zero IPv4 bound address."""
    if bound is None:
        bound = ("0.0.0.0", 0)
    host, port = bound[0], bound[1]
    addr = ipaddress.ip_address(host.split("%")[0])
    atyp = ATYP_IPV4 if addr.version == 4 else ATYP_IPV6
    return (
        bytes((SOCKS_VERSION, code, 0x00, atyp)) + addr.packed + struct.pack("!H", port)
    )


# --- target resolution --------------------------------------------------------


@dataclass(frozen=True)
class ResolverPolicy:
    """Name resolution source plus family preference when both families resolve.

    ``static_table`` maps name -> ((family, address), ...); None selects the
    system resolver. Static-table resolution is deterministic by construction.
    """

    static_table: dict | None = None
    preference: tuple[str, ...] = (FAMILY_V6, FAMILY_V4)

    def order(self, candidates: list[Candidate]) -> list[Candidate]:
        pref = {fam: i for i, fam in enumerate(self.preference)}
        return sorted(candidates, key=lambda c: pref.get(c.family, len(pref)))


def load_static_table(text: str) -> dict:
    """Parse a static resolver table: lines of ``name family address``."""
    table: dict[str, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3 or parts[1] not in (FAMILY_V4, FAMILY_V6):
            raise ValueError(f"line {lineno}: expected 'name family address', got {stripped!r}")
        name, family, address = parts
        table[name] = table.get(name, ()) + ((family, address),)
    return table


def resolve_target(request: SocksConnectRequest, policy: ResolverPolicy) -> list[Candidate]:
    """Candidate addresses for a CONNECT target, ordered by family preference.

    Literal addresses yield themselves; domain names resolve through the
    policy's table or the system resolver. The result may contain a family
    different from the client side's — that is the gatewaying case.
    """
    if request.address_type in (FAMILY_V4, FAMILY_V6):
        return [Candidate(request.address_type, request.address, request.port)]
    try:
        literal = ipaddress.ip_address(request.address)
    except ValueError:
        pass
    else:
        family = FAMILY_V4 if literal.version == 4 else FAMILY_V6
        return [Candidate(family, request.address, request.port)]

    if policy.static_table is not None:
        entries = policy.static_table.get(request.address)
        if not entries:
            raise SocksError(f"unknown host {request.address!r}", REP_HOST_UNREACHABLE)
        return policy.order([Candidate(f, a, request.port) for f, a in entries])

    try:
        infos = socket.getaddrinfo(
            request.address, request.port, socket.AF_UNSPEC, socket.SOCK_STREAM
        )
    except (socket.gaierror, UnicodeError) as exc:  # UnicodeError: IDNA refuses the name
        raise SocksError(f"cannot resolve {request.address!r}: {exc}", REP_HOST_UNREACHABLE)
    seen = set()
    candidates = []
    for af, _, _, _, sockaddr in infos:
        family = FAMILY_V4 if af == socket.AF_INET else FAMILY_V6
        key = (family, sockaddr[0])
        if af in (socket.AF_INET, socket.AF_INET6) and key not in seen:
            seen.add(key)
            candidates.append(Candidate(family, sockaddr[0], request.port))
    if not candidates:
        raise SocksError(f"no addresses for {request.address!r}", REP_HOST_UNREACHABLE)
    return policy.order(candidates)


# --- sessions and the relay server ---------------------------------------------


@dataclass
class RelaySession:
    client_address: tuple
    client_family: str
    target_family: str | None = None
    bytes_up: int = 0  # client -> target
    bytes_down: int = 0  # target -> client
    state: str = STATE_NEGOTIATING
    error: bool = False

    def advance(self, state: str) -> None:
        # transitions only move forward in _STATE_ORDER
        if _STATE_ORDER.index(state) < _STATE_ORDER.index(self.state):
            raise ValueError(f"illegal transition {self.state} -> {state}")
        self.state = state


@dataclass
class RelayStats:
    sessions_total: int = 0
    sessions_failed: int = 0
    active_sessions: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "sessions_total": self.sessions_total,
                "sessions_failed": self.sessions_failed,
                "active_sessions": self.active_sessions,
                "bytes_up": self.bytes_up,
                "bytes_down": self.bytes_down,
            }


class SocksRelayServer:
    """SOCKS5 listener(s) splicing accepted connections to resolved targets.

    Many sessions run concurrently; within a session the two pump directions
    progress independently on separate threads.
    """

    def __init__(
        self,
        listen_v4: tuple[str, int] | None = ("127.0.0.1", 1080),
        listen_v6: tuple[str, int] | None = ("::1", 1080),
        resolver: ResolverPolicy | None = None,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        self.resolver = resolver or ResolverPolicy()
        self.buffer_size = buffer_size
        self.idle_timeout = idle_timeout
        self.connect_timeout = connect_timeout
        self._listen_spec = {FAMILY_V4: listen_v4, FAMILY_V6: listen_v6}
        self._servers: dict[str, Listener] = {}
        self.stats = RelayStats()

    # -- lifecycle --

    def start(self) -> None:
        if not any(self._listen_spec.values()):
            raise ValueError("relay needs at least one listener")
        for family, spec in self._listen_spec.items():
            if spec is None:
                continue
            server = self._servers[family] = Listener(
                spec, _AF[family], lambda conn, addr, _server: self._handle_connection(conn, addr)
            )
            server.start(f"socks-{family}")
            log.info("socks listening family=%s addr=%s", family, server.server_address[:2])

    def stop(self) -> None:
        """Close the listeners and every client connection, so live sessions end."""
        for server in self._servers.values():
            server.stop()
        self._servers.clear()

    def listen_address(self, family: str) -> tuple[str, int] | None:
        server = self._servers.get(family)
        return server.server_address[:2] if server else None

    # -- connection handling --

    def _handle_connection(self, conn: socket.socket, addr: tuple) -> None:
        client_family = FAMILY_V4 if conn.family == socket.AF_INET else FAMILY_V6
        session = RelaySession(client_address=addr, client_family=client_family)
        try:
            conn.settimeout(self.idle_timeout)
            head = _recv_exact(conn, 2)
            methods = _recv_exact(conn, head[1])
            reply = negotiate(head + methods)
            conn.sendall(reply)
            if reply[1] == METHOD_NO_ACCEPTABLE:
                return
            request = parse_connect(_recv_message(conn))
            session.advance(STATE_CONNECTING)
            candidates = resolve_target(request, self.resolver)
            self.establish_and_pump(conn, candidates, session)
        except SocksError as exc:
            if exc.reply_code is not None:
                with suppress(OSError):
                    conn.sendall(encode_reply(exc.reply_code))
            log.debug("session from %s failed: %s", addr, exc)
        except OSError as exc:
            log.debug("session from %s I/O error: %s", addr, exc)
        finally:
            session.state = STATE_CLOSED

    def establish_and_pump(
        self,
        client: socket.socket,
        candidates: list[Candidate],
        session: RelaySession,
    ) -> RelaySession:
        """Connect to the first reachable candidate, reply, and splice until EOF.

        On success both streams are pumped concurrently until each direction
        reaches end-of-stream (half-close propagated) or either side errors;
        both sockets are closed on return. On failure the RFC failure reply
        is sent and the session is closed with zero byte counts.
        """
        if not candidates:
            raise SocksError("no candidates", REP_HOST_UNREACHABLE)

        target = None
        last_code = REP_HOST_UNREACHABLE
        for cand in candidates:
            sock = socket.socket(_AF[cand.family], socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.connect_timeout)
            try:
                sock.connect((cand.address, cand.port))
            except ConnectionRefusedError:
                last_code = REP_CONNECTION_REFUSED
                sock.close()
            except (socket.timeout, TimeoutError):
                last_code = REP_HOST_UNREACHABLE
                sock.close()
            except OSError as exc:
                last_code = (
                    REP_NETWORK_UNREACHABLE
                    if exc.errno in (errno.ENETUNREACH, errno.EHOSTUNREACH)
                    else REP_GENERAL_FAILURE
                )
                sock.close()
            else:
                target = sock
                session.target_family = cand.family
                break
        if target is None:
            with self.stats.lock:
                self.stats.sessions_failed += 1
            session.state = STATE_CLOSED
            raise SocksError("all candidates unreachable", last_code)

        client.sendall(encode_reply(REP_SUCCESS, target.getsockname()[:2]))
        session.advance(STATE_RELAYING)
        with self.stats.lock:
            self.stats.sessions_total += 1
            self.stats.active_sessions += 1

        client.settimeout(self.idle_timeout)
        target.settimeout(self.idle_timeout)
        try:
            down = threading.Thread(
                target=self._pump, args=(target, client, session, "down"), daemon=True
            )
            down.start()
            self._pump(client, target, session, "up")
            down.join()
        finally:
            for sock in (client, target):
                with suppress(OSError):
                    sock.close()
            session.state = STATE_CLOSED
            with self.stats.lock:
                self.stats.active_sessions -= 1
                self.stats.bytes_up += session.bytes_up
                self.stats.bytes_down += session.bytes_down
        return session

    def _pump(self, src: socket.socket, dst: socket.socket, session: RelaySession, direction: str) -> None:
        """Copy one direction until EOF, then propagate half-close to the peer."""
        try:
            while True:
                data = src.recv(self.buffer_size)
                if not data:
                    break
                dst.sendall(data)
                if direction == "up":
                    session.bytes_up += len(data)
                else:
                    session.bytes_down += len(data)
        except OSError:
            session.error = True
            # hard-close both ends so the opposite direction unblocks
            for sock in (src, dst):
                with suppress(OSError):
                    sock.close()
            return
        with suppress(OSError):
            dst.shutdown(socket.SHUT_WR)


def socks_connect(
    relay_addr: tuple[str, int],
    target_host: str,
    target_port: int,
    timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
) -> socket.socket:
    """Open a connection to ``target`` through a SOCKS5 relay (client side).

    Returns the connected socket ready to carry application bytes. Raises
    SocksReplyError when the relay reports a non-success reply code.
    """
    sock = socket.create_connection(relay_addr, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.sendall(bytes((SOCKS_VERSION, 1, METHOD_NO_AUTH)))
        resp = _recv_exact(sock, 2)
        if resp[0] != SOCKS_VERSION or resp[1] != METHOD_NO_AUTH:
            raise SocksError("relay refused the no-auth method")
        sock.sendall(build_connect_request(target_host, target_port))
        reply = _recv_message(sock)
        if reply[0] != SOCKS_VERSION:
            raise SocksError("bad reply version")
        if reply[1] != REP_SUCCESS:
            raise SocksReplyError(f"relay reply code {reply[1]}", reply[1])
        return sock
    except BaseException:
        sock.close()
        raise
