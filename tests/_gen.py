"""Seeded generators shared by the randomized tests."""

from __future__ import annotations

import random

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


def mutated_reply(rng: random.Random) -> bytes:
    """A valid device reply of a random framing after up to 3 mutations:
    a deletion, an inserted framing token, a flipped bit or a truncation."""
    data = bytearray(rng.choice(REPLIES))
    for _ in range(rng.randint(0, 3)):
        roll, at = rng.random(), rng.randint(0, len(data))
        if roll < 0.3:
            del data[at : at + rng.randint(1, 4)]
        elif roll < 0.6:
            data[at:at] = rng.choice(FRAMING_TOKENS)
        elif roll < 0.85 and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        else:
            del data[at:]
    return bytes(data)
