"""Suite-wide checks.

ROADMAP aim 3: malformed or hostile input never gets a traceback. A gateway
handler thread that ends with an exception reaches
``_GatewayServer.handle_error``; every test fails if that ran during it.
"""

import sys
import traceback

import pytest

from wotgw.gateway import _GatewayServer


@pytest.fixture(autouse=True)
def no_escaped_handler_errors(monkeypatch):
    escaped = []
    original = _GatewayServer.handle_error

    def record(self, request, client_address):
        escaped.append("".join(traceback.format_exception(*sys.exc_info())))
        original(self, request, client_address)

    monkeypatch.setattr(_GatewayServer, "handle_error", record)
    yield
    if escaped:
        pytest.fail("a gateway handler thread raised:\n" + "\n".join(escaped), pytrace=False)
