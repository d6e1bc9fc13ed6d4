import random
import tracemalloc

from wotgw.guard import (
    REASON_RATE,
    REASON_REPEAT,
    REASON_STILL_BLOCKED,
    DosGuard,
)


class TestRateWindow:
    def test_sixth_request_in_window_blocked(self):
        g = DosGuard(rate_limit=5, window_seconds=1.0, block_seconds=2.0)
        times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        verdicts = [g.record_and_check("c", f"d{i}", t) for i, t in enumerate(times)]
        assert all(v.allowed for v in verdicts[:5])
        assert not verdicts[5].allowed
        assert verdicts[5].reason == REASON_RATE
        assert verdicts[5].retry_after == 2.0

    def test_requests_spread_over_window_allowed(self):
        g = DosGuard(rate_limit=5, window_seconds=1.0)
        for i in range(20):
            v = g.record_and_check("c", "d", i * 0.25)  # 5 per window, never above
            assert v.allowed, f"request {i} blocked"

    def test_still_blocked_until_expiry(self):
        g = DosGuard(rate_limit=1, window_seconds=1.0, block_seconds=5.0)
        g.record_and_check("c", "a", 0.0)
        blocked = g.record_and_check("c", "b", 0.1)
        assert blocked.reason == REASON_RATE
        again = g.record_and_check("c", "c", 2.0)
        assert again.reason == REASON_STILL_BLOCKED
        assert abs(again.retry_after - 3.1) < 1e-9

    def test_reset_after_expiry(self):
        g = DosGuard(rate_limit=1, window_seconds=1.0, block_seconds=5.0)
        g.record_and_check("c", "a", 0.0)
        g.record_and_check("c", "b", 0.1)  # blocked until 5.1
        v = g.record_and_check("c", "c", 5.11)
        assert v.allowed

    def test_clients_are_independent(self):
        g = DosGuard(rate_limit=2, window_seconds=1.0)
        g.record_and_check("a", "x", 0.0)
        g.record_and_check("a", "x", 0.01)
        assert not g.record_and_check("a", "x", 0.02).allowed
        assert g.record_and_check("b", "x", 0.03).allowed


class TestRepeatBurst:
    def test_identical_burst_blocked(self):
        g = DosGuard(rate_limit=100, window_seconds=10.0, repeat_limit=3, block_seconds=2.0)
        verdicts = [g.record_and_check("c", "same", t / 10) for t in range(5)]
        assert [v.allowed for v in verdicts] == [True, True, True, False, False]
        assert verdicts[3].reason == REASON_REPEAT
        assert verdicts[4].reason == REASON_STILL_BLOCKED

    def test_alternating_digests_never_blocked(self):
        g = DosGuard(rate_limit=100, window_seconds=10.0, repeat_limit=3)
        for i in range(50):
            v = g.record_and_check("c", f"d{i % 2}", i * 0.01)
            assert v.allowed

    def test_repeat_count_resets_when_previous_slid_out(self):
        g = DosGuard(rate_limit=100, window_seconds=1.0, repeat_limit=2)
        assert g.record_and_check("c", "same", 0.0).allowed
        assert g.record_and_check("c", "same", 0.5).allowed
        # gap larger than the window: counting restarts
        assert g.record_and_check("c", "same", 2.0).allowed
        assert g.record_and_check("c", "same", 2.1).allowed
        assert not g.record_and_check("c", "same", 2.2).allowed


class TestPurge:
    def test_idle_removed_active_kept(self):
        g = DosGuard()
        g.record_and_check("idle", "d", 0.0)
        g.record_and_check("busy", "d", 90.0)
        assert g.purge_idle(100.0, idle_horizon=50.0) == 1
        assert g.client_count == 1

    def test_blocked_idle_client_retained(self):
        g = DosGuard(rate_limit=1, window_seconds=1.0, block_seconds=1000.0)
        g.record_and_check("c", "a", 0.0)
        g.record_and_check("c", "b", 0.1)  # blocked until 1000.1
        assert g.purge_idle(500.0, idle_horizon=50.0) == 0
        assert g.purge_idle(2000.0, idle_horizon=50.0) == 1

    def test_empty_table(self):
        assert DosGuard().purge_idle(0.0, 1.0) == 0

    def test_request_path_purges_idle_clients(self):
        g = DosGuard(idle_purge_seconds=50.0)
        g.record_and_check("a", "d", 0.0)
        g.record_and_check("b", "d", 100.0)
        assert g.client_count == 1


class ReferenceGuard:
    """Stores every event and recomputes window counts per decision."""

    def __init__(self, rate, window, repeat, block):
        self.rate, self.window, self.repeat, self.block = rate, window, repeat, block
        self.state = {}

    def decide(self, client, digest, now):
        st = self.state.setdefault(
            client,
            {"times": [], "blocked": None, "digest": None, "count": 0, "last_rep": 0.0},
        )
        if st["blocked"] is not None:
            if now < st["blocked"]:
                return "still_blocked"
            st.update(times=[], blocked=None, digest=None, count=0, last_rep=0.0)
        st["times"].append(now)
        in_window = [t for t in st["times"] if t >= now - self.window]
        st["times"] = in_window
        if len(in_window) > self.rate:
            st["blocked"] = now + self.block
            return "rate_exceeded"
        if digest == st["digest"] and now - st["last_rep"] <= self.window:
            st["count"] += 1
        else:
            st["digest"] = digest
            st["count"] = 1
        st["last_rep"] = now
        if st["count"] > self.repeat:
            st["blocked"] = now + self.block
            return "repeat_burst"
        return "allow"


def test_randomized_against_reference_model():
    rng = random.Random(99)
    params = dict(rate=6, window=2.0, repeat=4, block=3.0)
    guard = DosGuard(
        rate_limit=params["rate"],
        window_seconds=params["window"],
        repeat_limit=params["repeat"],
        block_seconds=params["block"],
    )
    model = ReferenceGuard(**params)
    clients = ["a", "b", "c"]
    digests = ["q1", "q2"]
    now = 0.0
    for step in range(3000):
        now += rng.random() * 0.4
        client = rng.choice(clients)
        digest = rng.choice(digests)
        got = guard.record_and_check(client, digest, now)
        expect = model.decide(client, digest, now)
        got_label = "allow" if got.allowed else got.reason
        assert got_label == expect, f"divergence at step {step} t={now:.3f}"


def test_replay_determinism():
    rng = random.Random(7)
    events = [
        (rng.choice("ab"), rng.choice("xy"), i * 0.05 + rng.random() * 0.01)
        for i in range(500)
    ]
    runs = []
    for _ in range(2):
        g = DosGuard(rate_limit=4, window_seconds=1.0, repeat_limit=3, block_seconds=2.0)
        runs.append([g.record_and_check(c, d, t).reason for c, d, t in events])
    assert runs[0] == runs[1]


def test_allow_bound_property():
    # Never more than rate_limit allows within any sliding window.  Holds
    # whenever block_seconds >= window_seconds (the defaults satisfy this):
    # block expiry wipes the client state, so a shorter block would readmit
    # requests while old allows are still inside the window.
    rng = random.Random(13)
    R, W = 5, 1.0
    g = DosGuard(rate_limit=R, window_seconds=W, repeat_limit=10**9, block_seconds=2.0)
    allowed_times = []
    now = 0.0
    for _ in range(2000):
        now += rng.random() * 0.1
        if g.record_and_check("c", f"d{rng.randint(0, 9)}", now).allowed:
            allowed_times.append(now)
    for i, t in enumerate(allowed_times):
        in_window = [u for u in allowed_times[: i + 1] if u >= t - W]
        assert len(in_window) <= R


def test_window_memory_is_bounded_for_50k_requests():
    # a rate limit of 10**9, as the benchmark's GUARD_OFF sets, keeps every
    # request of the window: 50k of them in 5 s
    g = DosGuard(rate_limit=10**9, window_seconds=10.0, repeat_limit=10**9)
    tracemalloc.start()
    try:
        for i in range(50_000):
            assert g.record_and_check("c", "d", i * 1e-4).allowed
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * 1024 * 1024
