"""Suite-wide checks.

ROADMAP aim 3: malformed or hostile input never gets a traceback. A handler
thread of the gateway, the relay or the device simulator that ends with an
exception reaches ``Listener.handle_error``; a request whose answer raised
is logged by ``http11.Handler`` and answered 500. Every test fails if either
happened during it.
"""

import logging
import sys
import traceback

import pytest

from wotgw import http11


class _Recorder(logging.Handler):
    def __init__(self, escaped):
        super().__init__(logging.ERROR)
        self.escaped = escaped

    def emit(self, record):
        self.escaped.append(self.format(record))


@pytest.fixture(autouse=True)
def no_escaped_handler_errors(monkeypatch):
    escaped = []
    original = http11.Listener.handle_error

    def record(self, request, client_address):
        escaped.append("".join(traceback.format_exception(*sys.exc_info())))
        original(self, request, client_address)

    monkeypatch.setattr(http11.Listener, "handle_error", record)
    recorder = _Recorder(escaped)
    http11.log.addHandler(recorder)
    yield
    http11.log.removeHandler(recorder)
    if escaped:
        pytest.fail("a handler thread raised:\n" + "\n".join(escaped), pytrace=False)
