"""wotgw: a Web-of-Things gateway fronting embedded device web APIs.

Rate-limits and screens clients, caches device responses, shortens JSON
payloads via dictionary key coding, reports device outages, and bridges
IPv4/IPv6 clients and devices through a SOCKS5-based relay of two
terminated connections.
"""

__version__ = "0.1.0"

import socket

# Address-family names used across the package, and their socket families;
# defined here so that the device simulator does not import the SOCKS relay
# module to know them.
FAMILY_V4 = "v4"
FAMILY_V6 = "v6"
_AF = {FAMILY_V4: socket.AF_INET, FAMILY_V6: socket.AF_INET6}
