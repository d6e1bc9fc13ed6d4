"""Suite-wide checks.

ROADMAP aim 3: malformed or hostile input never gets a traceback. A request
whose answer raised is logged by ``http11.Connection`` and answered 500; an
exception that escapes a callback or task on the event loop of the gateway
or the relay reaches the loop's exception handler, which logs it; a handler
thread of the device simulator that ends with an exception is logged by its
server. All of them log at ERROR under the ``wotgw`` logger, and every test
fails if one did during it.
"""

import logging

import pytest


class _Recorder(logging.Handler):
    def __init__(self, escaped):
        super().__init__(logging.ERROR)
        self.escaped = escaped

    def emit(self, record):
        self.escaped.append(self.format(record))


@pytest.fixture(autouse=True)
def no_escaped_handler_errors():
    escaped = []
    recorder = _Recorder(escaped)
    logger = logging.getLogger("wotgw")
    logger.addHandler(recorder)
    yield
    logger.removeHandler(recorder)
    if escaped:
        pytest.fail("a handler raised:\n" + "\n".join(escaped), pytrace=False)
