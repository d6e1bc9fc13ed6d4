"""Suite-wide checks.

ROADMAP aim 3: malformed or hostile input never gets a traceback. A handler
thread of the gateway, the relay or the device simulator that ends with an
exception reaches ``Listener.handle_error``; every test fails if that ran
during it.
"""

import sys
import traceback

import pytest

from wotgw.http11 import Listener


@pytest.fixture(autouse=True)
def no_escaped_handler_errors(monkeypatch):
    escaped = []
    original = Listener.handle_error

    def record(self, request, client_address):
        escaped.append("".join(traceback.format_exception(*sys.exc_info())))
        original(self, request, client_address)

    monkeypatch.setattr(Listener, "handle_error", record)
    yield
    if escaped:
        pytest.fail("a handler thread raised:\n" + "\n".join(escaped), pytrace=False)
