"""What the gateway, the relay and the device simulator share: the framer,
whose ``take_head`` and ``parse_head`` take every request and reply head on
both gateway legs; ``Connection``, the HTTP/1.1 server connection, an asyncio
protocol that all three serve; and ``LoopServer``, the base of all three:
how a server listens, tracks and closes its connections, and runs on its
loop thread.
"""

from __future__ import annotations

import functools
import logging
import re
import threading
import time
from contextlib import suppress
from http import HTTPStatus

from wotgw import _AF

log = logging.getLogger("wotgw.http11")

# asyncio is imported where it is used. This package is compiled from source
# when no bytecode is written, and compiling it after asyncio and ssl are
# loaded leaves the gateway process about 1.5 MB larger, so wotgw.gateway
# imports asyncio only after the package's own modules.

# Largest request body read; a longer declared Content-Length gets 413.
MAX_BODY_BYTES = 1024 * 1024
# Longest start or header line, its line ending included, and most header
# fields in one head; the standard library's HTTP modules use the same caps.
MAX_LINE = 64 * 1024
MAX_HEADERS = 100
VERSION = re.compile(r"HTTP/(\d)\.(\d)")
# Spaces and control bytes never belong to a request target.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")
BLANK = (b"\r\n", b"\n")
JSON_TYPE = ("Content-Type", "application/json")
INTERNAL = 500, [JSON_TYPE], b'{"error":"internal"}'
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_STATUS_LINES = {int(s): b"HTTP/1.1 %d %s\r\n" % (s, s.phrase.encode()) for s in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


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


def check_line(length: int, index: int) -> None:
    """Refuse line ``index`` of a head (0 is the start line) when it is, or
    already as far as received, longer than MAX_LINE, or when it is one
    line past MAX_HEADERS fields."""
    if length > MAX_LINE:
        raise FramingError(431 if index else 414, "line_too_long")
    if index > MAX_HEADERS:
        raise FramingError(431, "too_many_headers")


def take_head(data: bytearray, lines: list[bytes]) -> bool:
    """Move the received lines of a head from ``data`` to ``lines``, each
    passed by check_line; True once its blank line is in. Blank lines
    before a start line are skipped (RFC 9112 section 2.2)."""
    pos = 0
    try:
        while True:
            end = data.find(b"\n", pos) + 1
            if not end:
                check_line(len(data) - pos, len(lines))
                return False
            line, pos = bytes(data[pos:end]), end
            if line not in BLANK:
                check_line(len(line), len(lines))
                lines.append(line)
            elif lines:
                return True
    finally:
        del data[:pos]


def parse_head(lines: list[bytes]) -> tuple[str, Headers]:
    """A message head from its lines, each passed by check_line: the start
    line and the header fields (RFC 9112 section 5).

    Raises FramingError 400 for obs-fold, whitespace before a colon, or two
    different Content-Length values. Repeated fields are joined with ", ".
    """
    headers = Headers()
    for line in lines[1:]:
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
    return lines[0].rstrip(b"\r\n").decode("latin-1"), headers


def check_request(start: str, headers: Headers, methods) -> tuple:
    """Check a request head: (method, target, headers, body length,
    keep-alive, whether to send 100 Continue).

    Raises FramingError 400, 411, 413, 501 or 505, all before any body byte
    is read. HEAD is allowed wherever GET is. HTTP/1.1 keeps the connection
    open unless the request says ``Connection: close``; HTTP/1.0 closes
    after the reply.
    """
    parts = start.split(" ")
    version = VERSION.fullmatch(parts[-1])
    if len(parts) != 3 or version is None or _BAD_TARGET.search(parts[1]):
        raise FramingError(400, "bad_request")
    method, target, _ = parts
    if version[1] >= "2":
        raise FramingError(505, "http_version_not_supported")
    if method not in methods and not (method == "HEAD" and "GET" in methods):
        raise FramingError(501, "not_implemented")
    if "transfer-encoding" in headers:
        raise FramingError(411, "length_required")
    length = body_length(headers.get("content-length"))
    http11 = (version[1], version[2]) >= ("1", "1")
    connection = headers.get("connection")
    keep = http11 and not (connection and "close" in tokens(connection))
    expect = bool(length) and http11 and headers.get("expect", "").lower() == "100-continue"
    if target.startswith("//"):
        # a path starting with // reads as a network-path reference to
        # another host; collapse it against open redirects (CPython gh-87389)
        target = "/" + target.lstrip("/")
    return method, target, headers, length, keep, expect


def valid_path(path) -> bool:
    """True for a path that can stand as the target of a request line."""
    try:
        path.encode("latin-1")
    except (AttributeError, UnicodeEncodeError):
        return False
    return path.startswith("/") and not _BAD_TARGET.search(path)


def tokens(value: str) -> list[str]:
    """The lower-cased items of a comma-separated header value."""
    return [item.strip().lower() for item in value.split(",")]


def body_length(value: str | None) -> int:
    """A message's declared Content-Length, 0 when it has none; raises
    FramingError 400, or 413 past MAX_BODY_BYTES."""
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise FramingError(400, "bad_content_length")
    # digit count first: int() refuses strings of more than 4300 digits
    digits = value.lstrip("0")
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits or 0) > MAX_BODY_BYTES:
        raise FramingError(413, "body_too_large")
    return int(digits or 0)


def http_date(second: int) -> str:
    """The IMF-fixdate of a Unix time (RFC 9110 section 5.6.7), spelled in
    English whatever the locale."""
    t = time.gmtime(second)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec
    )


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> bytes:
    """The Date header line; every server shares one formatting a second."""
    return b"Date: %s\r\n" % http_date(second).encode()


def render(status: int, headers, payload: bytes, keep: bool, server: str) -> bytes:
    """One response, with Server, Date and Content-Length, as one string."""
    fields = "".join(f"{name}: {value}\r\n" for name, value in headers)
    return b"".join((
        _STATUS_LINES.get(status) or b"HTTP/1.1 %d \r\n" % status,
        b"Server: %s\r\n" % server.encode(),
        _date_line(int(time.time())),
        fields.encode("latin-1"),
        b"Content-Length: %d\r\n" % len(payload),
        b"\r\n" if keep else b"Connection: close\r\n\r\n",
        payload,
    ))


class Connection:
    """One HTTP/1.1 server connection, an asyncio protocol on an event
    loop's transport: requests answered in order until one closes it.

    ``respond`` returns the reply as (status, [(name, value)], body), an
    awaitable of it, or None after closing the connection itself. While a
    reply is awaited, and while the peer does not read its replies, the
    connection reads nothing more, so pipelined requests are answered in
    order. A ``respond`` that raised is logged and answered 500. A HEAD
    request is answered as a GET whose reply is sent without its content
    (RFC 9110 section 9.3.2). The connection is in its server's
    ``_connections`` while connected.
    """

    methods: frozenset[str]
    server_version = "wotgw/0.1"
    pending = None  # the task of the awaited reply

    def __init__(self, server: LoopServer):
        self.server = server
        self.data = bytearray()  # received and not yet taken
        self.lines: list[bytes] = []  # the lines of a head still arriving
        self.head = None  # a checked head whose body is still arriving
        self.waiting = False  # an awaited reply is outstanding
        self.writable = True
        self.eof = False

    def respond(self, method: str, path: str, headers: Headers, body: bytes):
        raise NotImplementedError

    def connection_made(self, transport):
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc):
        self.server._connections.discard(self)

    def data_received(self, data):
        self.data += data
        self._serve()

    def eof_received(self):
        self.eof = True
        self._serve()
        return True  # the answers still owed are written before closing

    def pause_writing(self):
        self.writable = False
        self._serve()

    def resume_writing(self):
        self.writable = True
        self._serve()

    def close(self) -> None:
        """Close once the written bytes are sent; the peer reads EOF."""
        with suppress(OSError):
            self.transport.write_eof()
        self.transport.close()

    def _serve(self) -> None:
        while not self.waiting and self.writable and not self.transport.is_closing():
            try:
                request = self._next_request()
            except FramingError as exc:
                # the message's end is unknown, so the rest of the stream is unusable
                self._send(exc.status, [JSON_TYPE], b'{"error":"%s"}' % str(exc).encode(), False)
                break
            if request is None:
                if self.eof:
                    self.close()
                break
            method, path, headers, body, keep = request
            try:
                reply = self.respond("GET" if method == "HEAD" else method, path, headers, body)
            except Exception:
                log.exception("handler failure for %s %s", method, path)
                reply = INTERNAL
            if isinstance(reply, tuple):
                self._send(*reply, keep, method)
            elif reply is not None:
                import asyncio

                self.waiting = True
                self.pending = asyncio.ensure_future(reply)
                self.pending.add_done_callback(functools.partial(self._answered, method, path, keep))
        if self.waiting or not self.writable:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def _next_request(self):
        """The next whole request as (method, path, headers, body, keep), or None."""
        if self.head is None:
            if not take_head(self.data, self.lines):
                return None
            self.head = check_request(*parse_head(self.lines), self.methods)
            self.lines = []
            if self.head[5]:
                self.transport.write(CONTINUE)
        method, target, headers, length, keep, _ = self.head
        data = self.data
        if len(data) < length:
            return None
        body = bytes(data[:length])
        del data[:length]
        self.head = None
        return method, target, headers, body, keep

    def _answered(self, method, path, keep, task) -> None:
        self.waiting = False
        if task.cancelled():
            return self.close()
        try:
            reply = task.result()
        except Exception:
            log.exception("handler failure for %s %s", method, path)
            reply = INTERNAL
        if not self.transport.is_closing():
            self._send(*reply, keep, method)
            self._serve()

    def _send(self, status: int, headers, payload: bytes, keep: bool, method: str = "GET") -> None:
        message = render(status, headers, payload, keep, self.server_version)
        self.transport.write(message[: len(message) - len(payload)] if method == "HEAD" else message)
        if not keep:
            self.close()


def _loop_error(loop, context) -> None:
    """Log what escaped a callback or task on the loop, as a handler failure."""
    log.error("event loop error: %s", context.get("message"), exc_info=context.get("exception"))


class LoopServer:
    """A server on an event loop: one listener per address family and the
    connections they accepted.

    ``listen`` maps a family to a (host, port), an already bound socket, or
    None for no listener. ``open`` listens on the running loop and ``close``
    closes the listeners and every connection, so peers read EOF;
    subclasses supply ``accept(family)``, the protocol of a connection
    accepted on that family, and may extend both. ``start`` runs a loop on
    a daemon thread of the server's own and ``open`` on it; a start whose
    ``open`` raises stops everything before raising. A server can also be
    opened on a loop another server runs, as the gateway does its relay.

    A server's state is written on its loop thread only, so it needs no
    lock: a caller on another thread goes through ``run`` or ``call``,
    which hand the work to the loop and wait for it. It may still read one
    value directly, such as a counter or a registered device.
    """

    thread_name = "wotgw-loop"
    thread = None  # the loop's thread, from start to stop

    def __init__(self, listen: dict):
        self._listen = listen
        self._servers = {}
        self._connections = set()  # what accept returned, while connected

    def accept(self, family: str):
        raise NotImplementedError

    async def open(self) -> None:
        """Listen on the running loop."""
        import asyncio

        if not any(self._listen.values()):
            raise ValueError(f"{type(self).__name__} needs at least one listener")
        self.loop = asyncio.get_running_loop()
        for family, where in self._listen.items():
            if where is None:
                continue
            host, port, sock = (*where, None) if isinstance(where, tuple) else (None, None, where)
            self._servers[family] = await self.loop.create_server(
                functools.partial(self.accept, family), host, port, family=_AF[family], sock=sock, backlog=128
            )
            log.info("%s listening family=%s addr=%s", self.thread_name, family, self.listen_address(family))

    async def close(self) -> None:
        """Close the listeners and every connection. The listeners stop
        accepting first and close a few loop turns later: asyncio cannot
        attach to a closed listener the transport of a connection accepted
        just before."""
        import asyncio

        for server in self._servers.values():
            for sock in server.sockets:
                self.loop.remove_reader(sock.fileno())
        for _ in range(3):  # an accept already queued, its transport, connection_made
            await asyncio.sleep(0)
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        for conn in list(self._connections):
            conn.close()

    def listen_address(self, family: str) -> tuple[str, int] | None:
        server = self._servers.get(family)
        return server.sockets[0].getsockname()[:2] if server else None

    def start(self):
        """Run ``open`` on a loop thread of the server's own; returns the server."""
        import asyncio

        self.loop = asyncio.new_event_loop()
        self.loop.set_exception_handler(_loop_error)
        self.thread = threading.Thread(target=self.loop.run_forever, name=self.thread_name, daemon=True)
        self.thread.start()
        try:
            self.run(self.open())
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Run ``close`` on the loop, cancel the loop's tasks and wait for
        them and its executor, then stop the loop and its thread."""
        if self.thread is None:
            return
        self.run(self._drain())
        thread, self.thread = self.thread, None
        self.loop.call_soon_threadsafe(self.loop.stop)
        thread.join(5)
        self.loop.close()

    def run(self, coro):
        """Run ``coro`` on the loop thread from another thread and return its result."""
        if self.thread is None or threading.get_ident() == self.thread.ident:
            coro.close()
            raise RuntimeError("a blocking call needs a started server, off its loop thread")
        import asyncio

        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def call(self, fn, *args):
        """``fn(*args)``, on the loop thread when the server runs one and
        this is another thread."""
        if self.thread is None or threading.get_ident() == self.thread.ident:
            return fn(*args)

        async def on_loop():
            return fn(*args)

        return self.run(on_loop())

    async def _drain(self) -> None:
        import asyncio

        await self.close()
        await asyncio.sleep(0)  # lets the closed transports call connection_lost
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self.loop.shutdown_default_executor()
