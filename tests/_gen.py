"""Seeded generators shared by the randomized tests."""

from __future__ import annotations

import random
import socket

from wotgw import codec

# key pool mixing mapped long names with bystander keys
DEFAULT_KEYS = [
    "NoOfDevices", "deviceName", "currentWatts", "maxWattage", "KWh",
    "values", "status", "reading", "unit", "ts", "label", "nested",
]


def random_doc(rng: random.Random, depth: int, keys=None, forbidden=frozenset()):
    """A random JSON tree whose object keys avoid ``forbidden`` (the encode precondition)."""
    keys = keys or DEFAULT_KEYS
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.3:
            return rng.random() < 0.5
        if roll < 0.5:
            return rng.randint(-10**6, 10**6)
        if roll < 0.7:
            return rng.uniform(-1000.0, 1000.0)
        return "v" + str(rng.randint(0, 10**6))
    if rng.random() < 0.5:
        return [random_doc(rng, depth - 1, keys, forbidden) for _ in range(rng.randint(0, 4))]
    doc = {}
    for _ in range(rng.randint(1, 5)):
        key = rng.choice(keys)
        if rng.random() < 0.4:
            key = key + str(rng.randint(0, 99))
        if key in forbidden:
            continue
        doc[key] = random_doc(rng, depth - 1, keys, forbidden)
    return doc


def random_mapping(rng: random.Random, size: int = None) -> codec.MappingDictionary:
    """A random valid dictionary whose short codes are strictly shorter than the long names."""
    size = size if size is not None else rng.randint(1, 8)
    entries = []
    longs, shorts = set(), set()
    while len(entries) < size:
        long = "field" + str(rng.randint(0, 10**4)) + "Name"
        short = "f" + str(rng.randint(0, 999))
        if long in longs or short in shorts or short in longs or long in shorts:
            continue
        longs.add(long)
        shorts.add(short)
        entries.append((long, short))
    return codec.MappingDictionary(entries, name=f"random-{size}")


def leaf_values(value, out=None) -> list:
    """Multiset (as a list) of non-key leaf values in document order."""
    if out is None:
        out = []
    if isinstance(value, dict):
        for sub in value.values():
            leaf_values(sub, out)
    elif isinstance(value, list):
        for item in value:
            leaf_values(item, out)
    else:
        out.append(value)
    return out


# Valid device replies, one per framing the device leg reads.
REPLIES = (
    b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{"status":"ok"}',
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b'6;ext=1\r\n{"stat\r\n9\r\nus":"ok"}\r\n0\r\nX-Trailer: t\r\n\r\n',
    b'HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{"status":"ok"}',
    b'HTTP/1.0 200 OK\r\nContent-Length: 15\r\n\r\n{"status":"ok"}',
    b'HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{"status":"ok"}',
    b"HTTP/1.1 204 No Content\r\n\r\n",
    b"HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nContent-Length: 13\r\n\r\n<h1>nope</h1>",
)
# Bytes that change how a reply is framed when inserted into it.
FRAMING_TOKENS = (
    b"\r\n", b"\n", b"\r\n\r\n", b"0\r\n", b"5\r\n", b";", b":", b" ", b"chunked", b"close",
    b"Content-Length: 3\r\n", b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
    b"HTTP/1.1 100 Continue\r\n\r\n",
)


# Valid client requests: hot-read's power query in four spellings, a GET, a
# HEAD, a POST that expects 100 Continue, and an HTTP/1.0 GET.
POWER_SPELLINGS = (
    b'{"values":[{"NoOfDevices":[2],"window":5}],"unit":"W"}',
    b'{\n  "unit": "W",\n  "values": [ { "NoOfDevices": [2], "window": 5 } ]\n}',
    b'{"values":[{"window":5,"NoOfDevices":[2]}],"unit":"W"}',
    b'{\n  "unit": "W",\n  "values": [ { "window": 5, "NoOfDevices": [2] } ]\n}',
)
REQUESTS = tuple(
    b"POST /devices/power/power HTTP/1.1\r\nHost: gw\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    for body in POWER_SPELLINGS
) + (
    b"GET /devices/power/status HTTP/1.1\r\nHost: gw\r\n\r\n",
    b"HEAD /devices/power/status HTTP/1.1\r\nHost: gw\r\n\r\n",
    b"POST /devices/power/power HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n%s"
    % (len(POWER_SPELLINGS[0]), POWER_SPELLINGS[0]),
    b"GET /devices/power/status HTTP/1.0\r\n\r\n",
)
# Bytes that change how a request is framed when inserted into it.
REQUEST_TOKENS = (
    b"\r\n", b"\n", b"\r\n\r\n", b" ", b"\t", b":", b"/", b"\x00", b"HTTP/1.0", b"HTTP/2.0",
    b"\r\nContent-Length: 3", b"\r\nContent-Length: 2000000", b"\r\nTransfer-Encoding: chunked",
    b"\r\nConnection: close", b"\r\nExpect: 100-continue", b"\r\nCache-Control: no-cache",
)


# Valid SOCKS5 client openings, a greeting and a request each: CONNECT to an
# IPv4, an IPv6 and a named target, a name the resolver lacks, a greeting
# offering no usable method, BIND and UDP ASSOCIATE.
SOCKS_OPENINGS = (
    b"\x05\x01\x00" + b"\x05\x01\x00\x01\x7f\x00\x00\x01\x00\x50",
    b"\x05\x02\x02\x00" + b"\x05\x01\x00\x04" + b"\x00" * 15 + b"\x01\x1f\x90",
    b"\x05\x01\x00" + b"\x05\x01\x00\x03\x06device\x00\x50",
    b"\x05\x01\x00" + b"\x05\x01\x00\x03\x05ghost\x00\x50",
    b"\x05\x01\x02" + b"\x05\x01\x00\x01\x7f\x00\x00\x01\x00\x50",
    b"\x05\x01\x00" + b"\x05\x02\x00\x01\x7f\x00\x00\x01\x00\x50",
    b"\x05\x01\x00" + b"\x05\x03\x00\x01\x7f\x00\x00\x01\x00\x50",
)
# Bytes that change how a SOCKS5 message is read when inserted into it: versions,
# method counts, commands, address types and lengths.
SOCKS_TOKENS = (
    b"\x05", b"\x04", b"\x00", b"\x01", b"\x02", b"\x03", b"\xff", b"\x05\x01\x00",
    b"\x05\x01\x00\x03", b"\x00\x00", b"\xff" * 4,
)


# Characters of a generated name; the first is always a letter, so no name is an IP literal.
NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-.\u00e4\u00e9\u4e2d"


def socks_target(rng: random.Random) -> str:
    """A CONNECT target: an IPv4 literal, an IPv6 literal (with runs of zero
    groups, and a scope id one time in two), or a name of 1 to 255 UTF-8
    bytes. Literals are spelled as ``socket.inet_ntop`` spells them."""
    roll = rng.random()
    if roll < 0.25:
        return socket.inet_ntop(socket.AF_INET, rng.randbytes(4))
    if roll < 0.65:
        groups = b"".join(rng.randbytes(2) if rng.random() < 0.5 else b"\0\0" for _ in range(8))
        v6 = socket.inet_ntop(socket.AF_INET6, groups)
        return v6 + "%" + rng.choice(("lo", "eth0", "7")) if rng.random() < 0.5 else v6
    if roll < 0.7:
        return "n" * 255
    name = rng.choice("abcdefghijklmnopqrstuvwxyz")
    while rng.random() < 0.9 and len(name) < 60:
        name += rng.choice(NAME_CHARS)
    return name


def mutated_socks(rng: random.Random) -> bytes:
    """A valid SOCKS5 opening after up to 3 mutations, as in mutated_reply."""
    return _mutated(rng, SOCKS_OPENINGS, SOCKS_TOKENS)


def mutated_reply(rng: random.Random) -> bytes:
    """A valid device reply of a random framing after up to 3 mutations:
    a deletion, an inserted framing token, a flipped bit or a truncation."""
    return _mutated(rng, REPLIES, FRAMING_TOKENS)


def mutated_request(rng: random.Random) -> bytes:
    """A valid client request after up to 3 mutations, as in mutated_reply."""
    return _mutated(rng, REQUESTS, REQUEST_TOKENS)


def in_pieces(rng: random.Random, data: bytes) -> list[bytes]:
    """``data`` cut into pieces of 1 to 7 bytes."""
    cuts = [0]
    while cuts[-1] < len(data):
        cuts.append(cuts[-1] + rng.randint(1, 7))
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def _mutated(rng: random.Random, messages, tokens) -> bytes:
    data = bytearray(rng.choice(messages))
    for _ in range(rng.randint(0, 3)):
        roll, at = rng.random(), rng.randint(0, len(data))
        if roll < 0.3:
            del data[at : at + rng.randint(1, 4)]
        elif roll < 0.6:
            data[at:at] = rng.choice(tokens)
        elif roll < 0.85 and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        else:
            del data[at:]
    return bytes(data)
