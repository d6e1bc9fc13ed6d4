"""SOCKS5 cross-family relay: the IPv6/IPv4 gatewaying mechanism.

Implements the minimal SOCKS5 subset the gateway needs: no-authentication
CONNECT with IPv4, DOMAIN, and IPv6 address types. A CONNECT accepted on
one address family may be satisfied by an outbound connection on the other;
the two terminated connections are spliced byte-for-byte in both directions
with half-close propagation. Sessions run on an event loop, two transports
writing to each other, with no thread of their own.

BIND and UDP ASSOCIATE are rejected with the proper reply code.
"""

from __future__ import annotations

import errno
import ipaddress
import logging
import socket
import struct
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, NamedTuple

from wotgw import FAMILY_V4, FAMILY_V6
from wotgw.http11 import LoopServer

if TYPE_CHECKING:  # imported where it is used; see wotgw.http11
    import asyncio

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
REP_NOT_ALLOWED = 0x02
REP_NETWORK_UNREACHABLE = 0x03
REP_HOST_UNREACHABLE = 0x04
REP_CONNECTION_REFUSED = 0x05
REP_TTL_EXPIRED = 0x06
REP_COMMAND_NOT_SUPPORTED = 0x07
REP_ADDRESS_TYPE_NOT_SUPPORTED = 0x08


# Seconds without a byte relayed after which a session ends.
IDLE_TIMEOUT = 300.0
DEFAULT_CONNECT_TIMEOUT = 10.0
# The order of a name's candidates when it resolves to both families.
FAMILY_PREFERENCE = (FAMILY_V6, FAMILY_V4)


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


def message_length(data: bytes) -> int | None:
    """The length of the SOCKS5 request or reply that ``data`` starts with,
    or None until the bytes that tell it are in."""
    if len(data) < 4:
        return None
    atyp = data[3]
    if atyp == ATYP_IPV4:
        return 10
    if atyp == ATYP_IPV6:
        return 22
    if atyp == ATYP_DOMAIN:
        return 7 + data[4] if len(data) > 4 else None
    raise SocksError(f"address type {atyp} not supported", REP_ADDRESS_TYPE_NOT_SUPPORTED)


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


def literal_family(host: str) -> str | None:
    """The family of a literal address; None for a name."""
    try:
        return FAMILY_V4 if ipaddress.ip_address(host).version == 4 else FAMILY_V6
    except ValueError:
        return None


def resolve_target(host: str, port: int, static_table: dict | None = None) -> list[Candidate]:
    """Candidate addresses for a target, ordered by FAMILY_PREFERENCE.

    A literal address yields itself. A name resolves through
    ``static_table`` (name -> ((family, address), ...), see
    ``load_static_table``) or, when that is None, the system resolver. The
    result may hold a family other than the client's: that is the
    gatewaying case.
    """
    family = literal_family(host)
    if family is not None:
        return [Candidate(family, host, port)]
    if static_table is not None:
        entries = static_table.get(host)
        if not entries:
            raise SocksError(f"unknown host {host!r}", REP_HOST_UNREACHABLE)
        candidates = [Candidate(f, a, port) for f, a in entries]
    else:
        try:
            infos = socket.getaddrinfo(host, port, socket.AF_UNSPEC, socket.SOCK_STREAM)
        except (socket.gaierror, UnicodeError) as exc:  # UnicodeError: IDNA refuses the name
            raise SocksError(f"cannot resolve {host!r}: {exc}", REP_HOST_UNREACHABLE)
        candidates = list(dict.fromkeys(
            Candidate(FAMILY_V4 if af == socket.AF_INET else FAMILY_V6, sockaddr[0], port)
            for af, _, _, _, sockaddr in infos
            if af in (socket.AF_INET, socket.AF_INET6)
        ))
        if not candidates:
            raise SocksError(f"no addresses for {host!r}", REP_HOST_UNREACHABLE)
    return sorted(candidates, key=lambda c: FAMILY_PREFERENCE.index(c.family))


async def resolve(host: str, port: int, static_table: dict | None) -> list[Candidate]:
    """``resolve_target`` without blocking the running loop: a name for the
    system resolver is looked up on the loop's executor."""
    import asyncio

    if static_table is None and not literal_family(host):
        return await asyncio.get_running_loop().run_in_executor(None, resolve_target, host, port)
    return resolve_target(host, port, static_table)


async def dial(candidates: list[Candidate], timeout: float, protocol_factory):
    """The (transport, protocol) of a connection made with
    ``protocol_factory`` to the first candidate that connects, trying them
    in order, each for ``timeout`` seconds.

    When none connects, raises SocksError with the reply of the last
    failure: 0x05 for a refusal, 0x04 for a timeout or no candidates, 0x03
    for an unreachable network or host, 0x01 for any other OSError.
    """
    import asyncio

    connect = asyncio.get_running_loop().create_connection
    code = REP_HOST_UNREACHABLE
    for candidate in candidates:
        try:
            return await asyncio.wait_for(connect(protocol_factory, candidate.address, candidate.port), timeout)
        except ConnectionRefusedError:
            code = REP_CONNECTION_REFUSED
        except asyncio.TimeoutError:  # not an OSError before Python 3.11
            code = REP_HOST_UNREACHABLE
        except OSError as exc:
            unreachable = exc.errno in (errno.ENETUNREACH, errno.EHOSTUNREACH)
            code = REP_NETWORK_UNREACHABLE if unreachable else REP_GENERAL_FAILURE
    raise SocksError("all candidates unreachable" if candidates else "no candidates", code)


# --- sessions and the relay server ---------------------------------------------


@dataclass
class RelayStats:
    sessions_total: int = 0
    sessions_failed: int = 0  # ended without relaying: refused, unreachable or left
    active_sessions: int = 0
    bytes_up: int = 0
    bytes_down: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class _Pipe:
    """One connection of a relay session, an asyncio protocol; the client's
    is the session.

    The client's pipe reads the SOCKS5 negotiation into its buffer. Once the
    session relays, what a pipe reads its peer writes, a pipe reads nothing
    while its peer's write buffer is full, and its EOF half-closes the peer.
    A session ends after IDLE_TIMEOUT seconds without a byte relayed. The
    client's pipe counts the session's bytes and is in its relay's
    ``_connections`` while connected.
    """

    peer: "_Pipe | None" = None
    task: asyncio.Task | None = None  # resolving and dialling the target

    def __init__(self, relay: "SocksRelayServer", client: "_Pipe | None" = None):
        self.relay = relay
        self.client = client or self
        self.data = bytearray()  # the negotiation's bytes not yet taken
        self.eof = self.greeted = self.relaying = self.ended = False
        self.bytes_up = self.bytes_down = 0  # client -> target, target -> client
        self.last = relay.loop.time()

    def connection_made(self, transport):
        self.transport = transport
        if self.client is not self:
            return transport.pause_reading()  # until the splice starts
        self.relay._connections.add(self)
        self.timer = self.relay.loop.call_later(IDLE_TIMEOUT, self._check_idle)

    def data_received(self, data):
        client = self.client
        if self.peer is None:
            self.data += data
            try:
                self._negotiate()
            except SocksError as exc:
                self.refuse(exc)
            return
        client.last = self.relay.loop.time()
        if self is client:
            client.bytes_up += len(data)
        else:
            client.bytes_down += len(data)
        self.peer.transport.write(data)

    def eof_received(self):
        self.eof = True
        if self.peer is None or self.peer.eof:
            self.client.end()
        else:
            with suppress(OSError):
                self.peer.transport.write_eof()
        return True

    def connection_lost(self, exc):
        self.relay._connections.discard(self)
        self.client.end()

    def pause_writing(self):
        self.peer.transport.pause_reading()

    def resume_writing(self):
        self.peer.transport.resume_reading()

    def _negotiate(self) -> None:
        data = self.data
        if not self.greeted:
            if len(data) < 2 or len(data) < 2 + data[1]:
                return
            reply = negotiate(bytes(data[: 2 + data[1]]))
            del data[: 2 + data[1]]
            self.transport.write(reply)
            if reply[1] == METHOD_NO_ACCEPTABLE:
                return self.end()
            self.greeted = True
        length = message_length(data)
        if length is not None and len(data) >= length:
            request = parse_connect(bytes(data[:length]))
            del data[:length]
            self.transport.pause_reading()
            self.task = self.relay.loop.create_task(self._connect(request))

    async def _connect(self, request: SocksConnectRequest) -> None:
        try:
            candidates = await resolve(request.address, request.port, self.relay.static_table)
            await self.relay.establish_and_pump(self, self.relay.permit(candidates))
        except SocksError as exc:
            self.refuse(exc)

    def refuse(self, exc: SocksError) -> None:
        """Send the failure reply the error carries, if any, and end."""
        if exc.reply_code is not None:
            self.transport.write(encode_reply(exc.reply_code))
        log.debug("session from %s failed: %s", self.transport.get_extra_info("peername"), exc)
        self.end()

    def _check_idle(self) -> None:
        idle = self.relay.loop.time() - self.last
        if idle >= IDLE_TIMEOUT:
            return self.end()
        self.timer = self.relay.loop.call_later(IDLE_TIMEOUT - idle, self._check_idle)

    def close(self) -> None:
        """Stop dialling the target and end the session."""
        if self.task is not None:
            self.task.cancel()
        self.end()

    def end(self) -> None:
        """Close both connections of the session, once, and count it."""
        if self.ended:
            return
        self.ended = True
        self.timer.cancel()
        for pipe in (self, self.peer):
            if pipe is not None:
                pipe.transport.close()
        stats = self.relay.stats
        if self.relaying:
            # bytes first: a reader that sees the session ended sees its bytes
            stats.bytes_up += self.bytes_up
            stats.bytes_down += self.bytes_down
            stats.active_sessions -= 1
        else:
            stats.sessions_failed += 1


class SocksRelayServer(LoopServer):
    """SOCKS5 listener(s) splicing accepted connections to resolved targets.

    Every session runs on one event loop: the gateway's when the relay is
    embedded in it (``open`` and ``close``), or after ``start`` a loop thread
    of the relay's own.
    """

    thread_name = "socks-relay"

    def __init__(
        self,
        listen_v4: tuple[str, int] | None = ("127.0.0.1", 1080),
        listen_v6: tuple[str, int] | None = ("::1", 1080),
        static_table: dict | None = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        super().__init__({FAMILY_V4: listen_v4, FAMILY_V6: listen_v6})
        self.static_table = static_table  # None: the system resolver
        self.connect_timeout = connect_timeout
        self.stats = RelayStats()

    def accept(self, family: str) -> _Pipe:
        return _Pipe(self)

    def permit(self, candidates: list[Candidate]) -> list[Candidate]:
        """The candidates of a CONNECT's target that the relay may dial: all
        of them here. Raises SocksError with the reply to send for none."""
        return candidates

    async def establish_and_pump(self, client: _Pipe, candidates: list[Candidate]) -> None:
        """Connect to the first reachable candidate, reply, and start the splice.

        The two connections then relay until each direction reaches
        end-of-stream (half-close propagated) or either side fails, and close
        together. On failure a SocksError carries the RFC failure reply; see
        ``dial``.
        """
        transport, target = await dial(candidates, self.connect_timeout, lambda: _Pipe(self, client))
        if client.ended:  # the client left while the target was dialled
            transport.close()
            return
        client.transport.write(encode_reply(REP_SUCCESS, transport.get_extra_info("sockname")[:2]))
        client.relaying = True
        self.stats.sessions_total += 1
        self.stats.active_sessions += 1
        client.peer, target.peer = target, client
        if client.data:  # bytes the client sent behind its CONNECT request
            client.data_received(bytes(client.data))
        client.transport.resume_reading()
        transport.resume_reading()


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
        reply = _recv_exact(sock, 5)
        reply += _recv_exact(sock, message_length(reply) - len(reply))
        if reply[0] != SOCKS_VERSION:
            raise SocksError("bad reply version")
        if reply[1] != REP_SUCCESS:
            raise SocksReplyError(f"relay reply code {reply[1]}", reply[1])
        return sock
    except BaseException:
        sock.close()
        raise

