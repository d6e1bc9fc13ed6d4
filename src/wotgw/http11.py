"""What the gateway, the relay and the device simulator share: ``Listener``,
the TCP listener all three run; ``Handler``, the HTTP/1.1 request loop of the
gateway and the simulator; and the framer, whose ``read_head`` parses every
request and reply head on both gateway legs.
"""

from __future__ import annotations

import functools
import logging
import re
import socket
import socketserver
import threading
import time
from contextlib import suppress
from email.utils import formatdate
from http import HTTPStatus

log = logging.getLogger("wotgw.http11")

# Largest request body read; a longer declared Content-Length gets 413.
MAX_BODY_BYTES = 1024 * 1024
# Longest start or header line, its line ending included, and most header
# fields in one head; the standard library's HTTP modules use the same caps.
MAX_LINE = 64 * 1024
MAX_HEADERS = 100
VERSION = re.compile(r"HTTP/(\d)\.(\d)")
# Spaces and control bytes never belong to a request target.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")
_BLANK = (b"\r\n", b"\n")
JSON_TYPE = ("Content-Type", "application/json")
_STATUS_LINES = {int(s): b"HTTP/1.1 %d %s\r\n" % (s, s.phrase.encode()) for s in HTTPStatus}


class FramingError(ValueError):
    """A message the framer refuses. ``status`` is the answer to a client;
    the exception's message is the error name of its JSON body."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


class Headers(dict):
    """Header fields by lower-cased name; ``get`` takes any spelling."""

    __slots__ = ()

    def get(self, name, default=None):
        return dict.get(self, name.lower(), default)


def read_fields(readline) -> Headers:
    """Read header fields up to the blank line that ends them (RFC 9112 section 5).

    ``readline(limit)`` returns the next line, at most ``limit`` bytes of it,
    as ``io.BufferedReader.readline`` does. Raises EOFError when the peer
    closes first and FramingError for an over-long line, more than
    MAX_HEADERS fields, obs-fold, whitespace before a colon, or two
    different Content-Length values. Repeated fields are joined with ", ".
    """
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, "line_too_long")
        if line in _BLANK:
            return headers
        if line[-1:] != b"\n":
            raise EOFError("peer closed inside a head")
        name, colon, value = line.decode("latin-1").partition(":")
        # a leading space or tab is obs-fold; one before the colon is also refused
        if not colon or not name or " " in name or "\t" in name:
            raise FramingError(400, "bad_header")
        name = name.lower()
        value = value.strip(" \t\r\n")
        if name in headers:
            if name == "content-length":
                if headers[name] != value:
                    raise FramingError(400, "bad_content_length")
                continue
            value = f"{headers[name]}, {value}"
        headers[name] = value
    raise FramingError(431, "too_many_headers")


def read_head(readline) -> tuple[str, Headers] | None:
    """Read one message head: its start line and its header fields.

    Returns None when the peer closed before the start line. Blank lines
    before it are skipped (RFC 9112 section 2.2). Raises like read_fields.
    """
    line = readline(MAX_LINE + 1)
    while line in _BLANK:
        line = readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(414, "line_too_long")
    if line[-1:] != b"\n":
        raise EOFError("peer closed inside a start line")
    return line.rstrip(b"\r\n").decode("latin-1"), read_fields(readline)


def tokens(value: str) -> list[str]:
    """The lower-cased items of a comma-separated header value."""
    return [item.strip().lower() for item in value.split(",")]


def body_length(value: str | None) -> int:
    """A request's declared Content-Length; raises FramingError 400 or 413."""
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise FramingError(400, "bad_content_length")
    # digit count first: int() refuses strings of more than 4300 digits
    digits = value.lstrip("0")
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits or 0) > MAX_BODY_BYTES:
        raise FramingError(413, "body_too_large")
    return int(digits or 0)


class Listener(socketserver.ThreadingTCPServer):
    """A TCP listener serving each accepted connection on a daemon thread.

    A v6 listener is v6-only, so a v4 and a v6 listener can share a port
    number. Accepted connections have Nagle's algorithm off.
    ``handler(request, client_address, server)`` serves one connection, as a
    ``socketserver`` request handler class does.
    """

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of new
    # clients, which then retry a second later
    request_queue_size = 128
    server_version = "wotgw/0.1"

    def __init__(self, bind: tuple[str, int], family: int, handler):
        self.address_family = family
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Condition()
        self._thread: threading.Thread | None = None
        super().__init__(bind, handler)

    def server_bind(self):
        if self.address_family == socket.AF_INET6:
            self.socket.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
        super().server_bind()

    def start(self, name: str) -> None:
        """Accept connections on a daemon thread called ``name``."""
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, name=name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Close the listener, shut down every accepted connection, idle
        keep-alive ones included, and wait up to 5 s for their handler
        threads to finish."""
        if self._thread is not None:
            with suppress(OSError):  # wakes serve_forever from its poll
                self.socket.shutdown(socket.SHUT_RDWR)
            self.shutdown()
            self._thread.join(5)
        self.server_close()
        with self._open_lock:
            conns = list(self._open)
        for conn in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        with self._open_lock:
            self._open_lock.wait_for(lambda: not self._open, 5)

    def process_request(self, request, client_address):
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._open_lock:
            self._open.discard(request)
            self._open_lock.notify_all()

    def stamp(self) -> bytes:
        """The Server and Date header lines."""
        return b"Server: %s\r\n%s" % (self.server_version.encode(), _date_line(int(time.time())))


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> bytes:
    """The Date header line; every listener shares one formatting a second."""
    return b"Date: %s\r\n" % formatdate(second, usegmt=True).encode()


class Handler(socketserver.StreamRequestHandler):
    """One HTTP/1.1 connection: requests answered in order until one closes it.

    HTTP/1.1 keeps the connection open unless the request says
    ``Connection: close``; HTTP/1.0 closes after the reply. Bytes of a
    pipelined next request stay in ``rfile``'s buffer. A request with a
    method outside ``methods`` gets 501.
    """

    methods: frozenset[str]

    def respond(self, method: str, path: str, headers: Headers, body: bytes):
        """The answer to one request as (status, [(name, value)], body), or
        None to close the connection without an answer."""
        raise NotImplementedError

    def handle(self):
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Read and answer one request; False when the connection is done."""
        try:
            request = self._read_request()
        except FramingError as exc:
            # the message's end is unknown, so the rest of the stream is unusable
            self._send(exc.status, [JSON_TYPE], b'{"error":"%s"}' % str(exc).encode(), keep=False)
            return False
        except (OSError, EOFError):  # the client reset or left mid-request
            return False
        if request is None:
            return False
        method, path, headers, body, keep = request
        try:
            reply = self.respond(method, path, headers, body)
        except Exception:
            log.exception("handler failure for %s %s", method, path)
            reply = 500, [JSON_TYPE], b'{"error":"internal"}'
        if reply is None:
            return False
        status, out, payload = reply
        log.debug('%s "%s %s" %d %d', self.client_address[0], method, path, status, len(payload))
        return self._send(status, out, payload, keep) and keep

    def _read_request(self):
        """The next request as (method, path, headers, body, keep_alive), or
        None at EOF. Raises FramingError before reading a body it refuses."""
        head = read_head(self.rfile.readline)
        if head is None:
            return None
        start, headers = head
        parts = start.split(" ")
        version = VERSION.fullmatch(parts[-1])
        if len(parts) != 3 or version is None or _BAD_TARGET.search(parts[1]):
            raise FramingError(400, "bad_request")
        method, target, _ = parts
        if version[1] >= "2":
            raise FramingError(505, "http_version_not_supported")
        if method not in self.methods:
            raise FramingError(501, "not_implemented")
        if "transfer-encoding" in headers:
            raise FramingError(411, "length_required")
        length = body_length(headers.get("content-length"))
        http11 = (version[1], version[2]) >= ("1", "1")
        connection = headers.get("connection")
        keep = http11 and not (connection and "close" in tokens(connection))
        if length and http11 and headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise EOFError("client closed inside the body")
        if target.startswith("//"):
            # a path starting with // reads as a network-path reference to
            # another host; collapse it against open redirects (CPython gh-87389)
            target = "/" + target.lstrip("/")
        return method, target, headers, body, keep

    def _send(self, status: int, headers, payload: bytes, keep: bool) -> bool:
        """Send one response with a single write; False when the client is gone."""
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers)
        reply = b"".join((
            _STATUS_LINES.get(status) or b"HTTP/1.1 %d \r\n" % status,
            self.server.stamp(),
            fields.encode("latin-1"),
            b"Content-Length: %d\r\n" % len(payload),
            b"\r\n" if keep else b"Connection: close\r\n\r\n",
            payload,
        ))
        try:
            self.request.sendall(reply)
        except OSError:
            return False
        return True
