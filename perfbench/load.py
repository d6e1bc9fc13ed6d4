"""Load side of the benchmark: a minimal HTTP/1.1 client, request templates
with their expected bodies, and closed- and open-loop generators.

Expected bodies are built from ``wotgw.device.DEFAULT_READINGS`` with the
standard ``json`` module, never through ``wotgw.codec``, so a codec fault
shows up as a wrong body rather than being reproduced on both sides.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

from wotgw.device import DEFAULT_READINGS

DEVICE_ID = "bench-device"
REQUEST_ID_HEADER = "X-Bench-Request-Id"
HOSTS = {"v4": "127.0.0.1", "v6": "::1"}

STATUS_BODY = b'{"status":"ok"}'


def readings_body(count: int) -> bytes:
    """The gateway's answer to a power query for ``count`` devices."""
    readings = [r.to_value() for r in DEFAULT_READINGS[:count]]
    return json.dumps(readings, separators=(",", ":")).encode()


# EXPECTED[n]: the answer to a query for n devices; larger n gets every reading.
EXPECTED = [readings_body(n) for n in range(len(DEFAULT_READINGS) + 1)]


@dataclass(frozen=True)
class Template:
    method: str
    path: str
    body: bytes
    expected: bytes
    raw: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "raw", self.encode(None))

    def encode(self, request_id: str | None) -> bytes:
        head = f"{self.method} {self.path} HTTP/1.1\r\nHost: wotgw\r\n"
        if self.body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(self.body)}\r\n"
        if request_id is not None:
            head += f"{REQUEST_ID_HEADER}: {request_id}\r\n"
        return head.encode() + b"\r\n" + self.body


def status_query() -> Template:
    return Template("GET", f"/devices/{DEVICE_ID}/status", b"", STATUS_BODY)


def power_query(body: str, count: int) -> Template:
    """A power query whose body asks for ``count`` devices."""
    return Template(
        "POST", f"/devices/{DEVICE_ID}/power", body.encode(), EXPECTED[min(count, len(EXPECTED) - 1)]
    )


def spellings(count: int, window: int) -> list[str]:
    """One power query written four ways: key order and whitespace differ."""
    inner = [f'"NoOfDevices":[{count}]', f'"window":{window}']
    outer_tail = '"unit":"W"'
    out = []
    for swap in (False, True):
        pair = inner[::-1] if swap else inner
        obj = "{" + ",".join(pair) + "}"
        out.append('{"values":[' + obj + "]," + outer_tail + "}")
        spaced = "{ " + ", ".join(p.replace(":", ": ", 1) for p in pair) + " }"
        out.append("{\n  " + outer_tail.replace(":", ": ") + ",\n  \"values\": [ " + spaced + " ]\n}")
    return out


def unique_query(count: int, nonce: str) -> Template:
    """A power query no other request shares, so it always misses the cache."""
    return power_query(f'{{"values":[{{"NoOfDevices":[{count}]}}],"nonce":"{nonce}"}}', count)


class HttpConn:
    """One keep-alive connection; parses just enough HTTP to frame replies."""

    def __init__(self, family: str, port: int):
        self.sock = socket.create_connection((HOSTS[family], port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def _fill(self, buf: bytes) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed by the gateway")
        return buf + chunk

    def exchange(self, request: bytes) -> tuple[int, bytes, bytes]:
        """Send one request; return (status, header block, body)."""
        self.sock.sendall(request)
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            buf = self._fill(buf)
        head = buf[:end].lower()
        length = 0
        at = head.find(b"\r\ncontent-length:")
        if at >= 0:
            eol = head.find(b"\r\n", at + 2)
            length = int(head[at + 17 : eol if eol >= 0 else len(head)])
        stop = end + 4 + length
        while len(buf) < stop:
            buf = self._fill(buf)
        self._buf = buf[stop:]
        return int(head[9:12]), head, buf[end + 4 : stop]

    def close(self) -> None:
        self.sock.close()


def judge(status: int, head: bytes, body: bytes, expected: bytes, may_refuse: bool) -> str | None:
    """Return None for a correct answer, "refused" for a valid 429, else a reason."""
    if status == 429:
        if not may_refuse:
            return "429 to a client that should be served"
        return "refused" if b"\r\nretry-after:" in head else "429 without Retry-After"
    if not 200 <= status < 300:
        return f"status {status}"
    if body != expected:
        return f"wrong body {body[:80]!r}"
    return None


class Generator:
    """Sends requests on one keep-alive connection and checks each answer.

    ``pick(i)`` gives the i-th template. With ``rate`` set the loop is open:
    request i of a phase is due at ``start + i / rate`` and its latency runs
    from that due time, so a stall is charged to every request it delays.
    Without ``rate`` the loop is closed: the next request goes ``think``
    seconds after the last one returns.
    """

    def __init__(self, name, family, port, pick, may_refuse=False, rate=None, think=0.0):
        self.name, self.family, self.port, self.pick = name, family, port, pick
        self.may_refuse, self.rate, self.think = may_refuse, rate, think
        self.conn = HttpConn(family, port)
        self.sent = 0  # runs on across phases, so unique bodies stay unique
        self.reset(trace=False)

    def reset(self, trace: bool) -> None:
        self.trace = trace
        self.latencies: list[float] = []
        self.done: list[float] = []  # receive time of each correct answer
        self.lateness: list[float] = []
        self.records: list[tuple] = []  # (request id, send, receive) when tracing
        self.attempted = self.ok = self.refused = self.failed = 0
        self.reasons: list[str] = []
        self.finished_at = 0.0

    def run(self, start: float, deadline: float) -> None:
        interval = 1.0 / self.rate if self.rate else 0.0
        i = 0
        while True:
            if interval:
                due = start + i * interval
                if due >= deadline:
                    break
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
            elif perf_counter() >= deadline:
                break
            elif self.think and i:
                time.sleep(self.think)
            i += 1
            self._one(self.pick(self.sent), due if interval else None)
        self.finished_at = perf_counter()

    def send_each(self, templates) -> None:
        """Send each template once, in order; raise if any answer is wrong."""
        for template in templates:
            self._one(template, None)
        if self.failed:
            raise RuntimeError(f"warm-up failed on {self.name}: {self.reasons}")
        self.reset(self.trace)

    def _one(self, template: Template, due: float | None) -> None:
        rid = f"{self.name}-{self.sent}" if self.trace else None
        request = template.raw if rid is None else template.encode(rid)
        self.sent += 1
        self.attempted += 1
        t0 = perf_counter()
        try:
            status, head, body = self.conn.exchange(request)
        except (OSError, ValueError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            self.conn.close()
            # If this fails too, the closed socket fails the next request,
            # which tries again.
            with contextlib.suppress(OSError):
                self.conn = HttpConn(self.family, self.port)
            return
        t1 = perf_counter()
        verdict = judge(status, head, body, template.expected, self.may_refuse)
        if verdict is None:
            self.ok += 1
            self.latencies.append(t1 - (t0 if due is None else due))
            self.done.append(t1)
        elif verdict == "refused":
            self.refused += 1
        else:
            self._fail(verdict)
        if due is not None:
            self.lateness.append(t0 - due)
        if rid is not None:
            self.records.append((rid, t0, t1))

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def close(self) -> None:
        self.conn.close()


def run_phase(generators: list[Generator], seconds: float, trace: bool = False) -> tuple[float, float]:
    """Run every generator on its own thread for ``seconds``.

    Returns the phase's start time and its elapsed time.
    """
    for g in generators:
        g.reset(trace)
    start = perf_counter() + 0.005
    deadline = start + seconds
    threads = [threading.Thread(target=g.run, args=(start, deadline), daemon=True) for g in generators]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 60.0)
        if t.is_alive():
            raise RuntimeError("a load generator did not finish")
    return start, max(g.finished_at for g in generators) - start
