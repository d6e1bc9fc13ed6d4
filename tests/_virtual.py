"""An event loop on a virtual clock, for tests of the gateway's rules in time.

Every rule of the gateway, the relay and the device simulator reads the
clock of its server's loop (``loop.time()``), and every timer runs on that
loop. On a ``VirtualLoop`` the clock starts at 0 and moves only when the
loop has nothing to do: when no socket is ready and no callback is due, it
jumps to the next timer instead of waiting for it. Sockets stay real
loopback sockets; on Linux, loopback delivers a write to its peer before
the call returns, so the loop never jumps past bytes in flight. A test that
waits out a 300 s timeout takes only the time its I/O takes, and every event
happens at exactly its virtual time.

Run a test's coroutine with ``run``. Open servers with ``serving``, on the
loop that runs the test, instead of ``start``, which runs a loop thread of
the server's own.
"""

from __future__ import annotations

import asyncio
import contextlib
import selectors

from wotgw.gateway import Gateway


class _JumpingSelector(selectors.DefaultSelector):
    def __init__(self, loop: "VirtualLoop"):
        super().__init__()
        self.loop = loop

    def select(self, timeout=None):
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:  # no timer: only a socket can wake the loop
            return super().select()
        self.loop.now += timeout  # asyncio's timeout ends at the next timer
        return []


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose ``time()`` is the virtual clock ``now``."""

    def __init__(self):
        self.now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self) -> float:
        return self.now


def run(main):
    """Run the coroutine ``main`` on a new VirtualLoop and return its result;
    then cancel what it left running, as ``asyncio.run`` does."""
    loop = VirtualLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        left = asyncio.all_tasks(loop)
        for task in left:
            task.cancel()
        if left:
            loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


async def until(moment: float) -> None:
    """Sleep until the running loop's clock reads ``moment``."""
    loop = asyncio.get_running_loop()
    await asyncio.sleep(moment - loop.time())


class Client:
    """One keep-alive HTTP/1.1 client connection on the running loop, one
    request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, address) -> "Client":
        return cls(*await asyncio.open_connection(*address))

    async def request(self, method: str, path: str, body: bytes = b"", headers: str = ""):
        """Send a request and read its response: (status, header fields by
        lower-cased name, body)."""
        head = f"{method} {path} HTTP/1.1\r\nHost: wotgw\r\n{headers}Content-Length: {len(body)}\r\n\r\n"
        self.writer.write(head.encode() + body)
        lines = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        fields = {name.lower(): value for name, value in (line.split(": ", 1) for line in lines[1:-2])}
        payload = await self.reader.readexactly(int(fields["content-length"]))
        return int(lines[0].split(" ")[1]), fields, payload

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@contextlib.asynccontextmanager
async def serving(*servers):
    """Open each ``http11.LoopServer`` on the running loop, in order, and
    close them in reverse order. A gateway's configured devices are
    registered first, as ``Gateway.start`` does."""
    opened = []
    try:
        for server in servers:
            if isinstance(server, Gateway):
                for cfg in server.config.devices:
                    server.register_device_config(cfg)
            await server.open()
            opened.append(server)
        yield servers
    finally:
        for server in reversed(opened):
            await server.close()
