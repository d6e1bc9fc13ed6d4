import random

from wotgw.cache import CacheEntry, CacheKey, ResponseCache


def key(n: str, device: str = "dev") -> CacheKey:
    return CacheKey(device, "GET", f"/{n}", "digest-" + n)


def entry(body: bytes, now: float = 0.0, ttl: float = 10.0, status: int = 200) -> CacheEntry:
    return CacheEntry(status, body, now, ttl)


class TestCacheKey:
    def test_whitespace_and_key_order_do_not_split_keys(self):
        a = CacheKey.for_request("d", "POST", "/power", b'{"b":1,"a":2}')
        b = CacheKey.for_request("d", "POST", "/power", b' { "a" : 2 , "b" : 1 } ')
        assert a == b

    def test_different_bodies_differ(self):
        a = CacheKey.for_request("d", "POST", "/power", b'{"a":1}')
        b = CacheKey.for_request("d", "POST", "/power", b'{"a":2}')
        assert a != b

    def test_method_case_normalized(self):
        assert CacheKey.for_request("d", "get", "/p", b"") == CacheKey.for_request(
            "d", "GET", "/p", b""
        )

    def test_non_json_body_digested_raw(self):
        a = CacheKey.for_request("d", "POST", "/p", b"not json")
        b = CacheKey.for_request("d", "POST", "/p", b"not json")
        assert a == b


class TestTtl:
    def test_hit_within_ttl(self):
        c = ResponseCache()
        e = entry(b"x", now=100.0, ttl=10.0)
        assert c.put(key("a"), e)
        assert c.get(key("a"), 105.0) is e

    def test_miss_past_ttl_removes_entry(self):
        c = ResponseCache()
        c.put(key("a"), entry(b"x", now=100.0, ttl=10.0))
        assert c.get(key("a"), 111.0) is None
        assert c.entry_count == 0
        assert c.stats()["expirations"] == 1

    def test_boundary_is_exclusive(self):
        c = ResponseCache()
        c.put(key("a"), entry(b"x", now=0.0, ttl=10.0))
        assert c.get(key("a"), 10.0) is None  # now < stored_at + ttl fails at equality


class TestCapacity:
    def test_lru_eviction_order(self):
        c = ResponseCache(max_entries=2)
        c.put(key("k1"), entry(b"1"))
        c.put(key("k2"), entry(b"2"))
        assert c.get(key("k1"), 1.0) is not None  # refresh k1's recency
        c.put(key("k3"), entry(b"3"))
        assert c.get(key("k2"), 1.0) is None
        assert c.get(key("k1"), 1.0) is not None
        assert c.get(key("k3"), 1.0) is not None

    def test_non_success_rejected(self):
        c = ResponseCache()
        assert not c.put(key("a"), entry(b"x", status=404))
        assert not c.put(key("a"), entry(b"x", status=500))
        assert c.entry_count == 0

    def test_oversize_entry_rejected(self):
        c = ResponseCache(max_bytes=6)  # each key's path, "/a" or "/b", counts 2
        assert not c.put(key("a"), entry(b"12345"))
        assert c.put(key("b"), entry(b"1234"))

    def test_byte_cap_evicts_lru(self):
        c = ResponseCache(max_bytes=16)
        c.put(key("a"), entry(b"aaaa"))  # 4 bytes of body and 2 of path
        c.put(key("b"), entry(b"bbbb"))
        c.put(key("c"), entry(b"cccc"))  # 18 bytes > 16: a evicted
        assert c.get(key("a"), 0.0) is None
        assert c.byte_count == 12

    def test_replace_same_key_accounts_bytes(self):
        c = ResponseCache(max_bytes=10)
        c.put(key("a"), entry(b"aaaa"))
        c.put(key("a"), entry(b"aaaaaa"))
        assert c.byte_count == 8
        assert c.entry_count == 1

    def test_a_keys_path_counts_against_the_byte_cap(self):
        # a client chooses the path, up to a 64 KiB request line
        c = ResponseCache(max_bytes=1000)
        paths = ["/" + "p" * 400 + str(n) for n in range(3)]
        for path in paths:
            assert c.put(CacheKey("dev", "GET", path, "digest"), entry(b"{}"))
        assert c.entry_count == 2 and c.byte_count == 2 * (2 + 402)
        assert c.get(CacheKey("dev", "GET", paths[0], "digest"), 0.0) is None
        c.invalidate_device("dev")
        assert c.byte_count == 0
        assert not c.put(CacheKey("dev", "GET", "/" + "p" * 1000, "digest"), entry(b""))

    def test_an_expired_entry_gives_back_its_path_bytes(self):
        c = ResponseCache()
        c.put(CacheKey("dev", "GET", "/" + "p" * 99, "digest"), entry(b"{}", now=0.0, ttl=1.0))
        assert c.byte_count == 102
        assert c.get(CacheKey("dev", "GET", "/" + "p" * 99, "digest"), 2.0) is None
        assert c.byte_count == 0


class TestInvalidate:
    def test_invalidate_device_counts(self):
        c = ResponseCache()
        for n in ("x", "y", "z"):
            c.put(key(n, device="A"), entry(b"1"))
        for n in ("p", "q"):
            c.put(key(n, device="B"), entry(b"1"))
        assert c.invalidate_device("A") == 3
        assert c.get(key("x", device="A"), 0.0) is None
        assert c.get(key("p", device="B"), 0.0) is not None

    def test_invalidate_unknown_device(self):
        c = ResponseCache()
        assert c.invalidate_device("ghost") == 0

    def test_clear(self):
        c = ResponseCache()
        c.put(key("a"), entry(b"abc"))
        c.clear()
        assert c.entry_count == 0 and c.byte_count == 0


class ReferenceCache:
    """Naive model: plain dict plus recency list, replayed step by step."""

    def __init__(self, max_entries, max_bytes):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.entries = {}  # key -> (stored_at, ttl, size)
        self.recency = []  # least-recent first

    def total(self):
        return sum(size for _, _, size in self.entries.values())

    def get(self, k, now):
        if k not in self.entries:
            return False
        stored_at, ttl, _ = self.entries[k]
        if not now < stored_at + ttl:
            del self.entries[k]
            self.recency.remove(k)
            return False
        self.recency.remove(k)
        self.recency.append(k)
        return True

    def put(self, k, now, ttl, size, status):
        if not 200 <= status < 300 or size > self.max_bytes:
            return False
        if k in self.entries:
            del self.entries[k]
            self.recency.remove(k)
        self.entries[k] = (now, ttl, size)
        self.recency.append(k)
        while len(self.entries) > self.max_entries or self.total() > self.max_bytes:
            victim = self.recency.pop(0)
            del self.entries[victim]
        return True


def test_randomized_against_reference_model():
    rng = random.Random(2024)
    cache = ResponseCache(max_entries=6, max_bytes=64)
    model = ReferenceCache(max_entries=6, max_bytes=64)
    keys = [key(f"k{i}") for i in range(12)]
    now = 0.0
    for step in range(4000):
        now += rng.random() * 2.0
        k = rng.choice(keys)
        if rng.random() < 0.5:
            got = cache.get(k, now)
            expect = model.get(k, now)
            assert (got is not None) == expect, f"get mismatch at step {step}"
        else:
            size = rng.randint(0, 20)
            ttl = rng.choice([0.5, 2.0, 8.0])
            status = rng.choice([200, 200, 200, 404])
            stored = cache.put(k, CacheEntry(status, b"x" * size, now, ttl))
            expect = model.put(k, now, ttl, size + len(k.path), status)
            assert stored == expect, f"put mismatch at step {step}"
        assert cache.entry_count == len(model.entries)
        assert cache.byte_count == model.total()
        assert cache.entry_count <= 6 and cache.byte_count <= 64
