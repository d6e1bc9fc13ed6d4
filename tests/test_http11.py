import os
import subprocess
import sys

import wotgw


def test_servers_load_no_stdlib_http_modules():
    code = (
        "import sys, wotgw.gateway, wotgw.device, wotgw.socks\n"
        "print(sorted(m for m in ('http.server', 'http.client') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(wotgw.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
