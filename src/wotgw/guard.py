"""Request screening: block clients whose request pattern looks suspicious.

Two detectors, both configurable: a sliding-window rate limit (more than
``rate_limit`` requests in the trailing ``window_seconds``) and a
consecutive-identical-request burst limit (``repeat_limit``). A tripped
detector blocks the client for ``block_seconds``; the block resets the
client's window when it expires. Clients are independent of each other.
State of clients idle for ``idle_purge_seconds`` is dropped on the request
path, at most once per that horizon.

A client's window holds at most ``rate_limit + 1`` timestamps: the request
past the limit blocks the client, and a blocked client's requests are not
recorded. The window stays exact, because the acceptance gate compares the
verdicts with an exact timestamp model that a counting approximation breaks.
It keeps its timestamps as C doubles in an ``array``, 8 bytes each, and
drops the expired ones from the front once they make up an eighth of it,
so a window at a steady rate holds at most 8/7 of its live timestamps,
each moved at most 7 times on average.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

DEFAULT_RATE_LIMIT = 100
DEFAULT_WINDOW_SECONDS = 10.0
DEFAULT_REPEAT_LIMIT = 50
DEFAULT_BLOCK_SECONDS = 60.0
DEFAULT_IDLE_PURGE_SECONDS = 300.0

REASON_RATE = "rate_exceeded"
REASON_REPEAT = "repeat_burst"
REASON_STILL_BLOCKED = "still_blocked"


@dataclass(frozen=True)
class GuardDecision:
    allowed: bool
    reason: str | None = None
    retry_after: float | None = None


# Every allowed request gets this one decision.
ALLOWED = GuardDecision(True)


@dataclass
class ClientRateState:
    window: array = field(default_factory=lambda: array("d"))
    head: int = 0  # timestamps before this index have left the window
    blocked_until: float | None = None
    repeat_digest: str | None = None
    repeat_count: int = 0
    last_repeat_at: float = 0.0
    last_seen: float = 0.0


class DosGuard:
    """Per-client admission control with deterministic, replayable verdicts."""

    def __init__(
        self,
        rate_limit: int = DEFAULT_RATE_LIMIT,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        repeat_limit: int = DEFAULT_REPEAT_LIMIT,
        block_seconds: float = DEFAULT_BLOCK_SECONDS,
        idle_purge_seconds: float = DEFAULT_IDLE_PURGE_SECONDS,
    ):
        self.rate_limit = rate_limit
        self.window_seconds = window_seconds
        self.repeat_limit = repeat_limit
        self.block_seconds = block_seconds
        self.idle_purge_seconds = idle_purge_seconds
        self._next_purge = float("-inf")
        self._clients: dict[str, ClientRateState] = {}
        self.blocked_total = 0

    def record_and_check(self, client_id: str, request_digest: str, now: float) -> GuardDecision:
        """Record one request event and decide allow/blocked.

        While a block is active the request is not recorded. When the block
        has expired the client's state is reset and the request is judged
        fresh.
        """
        if now >= self._next_purge:
            self.purge_idle(now, self.idle_purge_seconds)
            self._next_purge = now + self.idle_purge_seconds
        st = self._clients.get(client_id)
        if st is None:
            st = self._clients[client_id] = ClientRateState()
        st.last_seen = now

        if st.blocked_until is not None:
            if now < st.blocked_until:
                self.blocked_total += 1
                return GuardDecision(False, REASON_STILL_BLOCKED, st.blocked_until - now)
            st.blocked_until = None
            del st.window[:]
            st.head = 0
            st.repeat_digest = None
            st.repeat_count = 0

        cutoff = now - self.window_seconds
        window, head = st.window, st.head
        while head < len(window) and window[head] < cutoff:
            head += 1
        if head > len(window) // 8:
            del window[:head]
            head = 0
        st.head = head
        window.append(now)

        if len(window) - head > self.rate_limit:
            st.blocked_until = now + self.block_seconds
            self.blocked_total += 1
            return GuardDecision(False, REASON_RATE, self.block_seconds)

        # Consecutive-repeat counting restarts when the previous identical
        # request has already slid out of the window.
        if request_digest == st.repeat_digest and now - st.last_repeat_at <= self.window_seconds:
            st.repeat_count += 1
        else:
            st.repeat_digest = request_digest
            st.repeat_count = 1
        st.last_repeat_at = now

        if st.repeat_count > self.repeat_limit:
            st.blocked_until = now + self.block_seconds
            self.blocked_total += 1
            return GuardDecision(False, REASON_REPEAT, self.block_seconds)

        return ALLOWED

    def purge_idle(self, now: float, idle_horizon: float = DEFAULT_IDLE_PURGE_SECONDS) -> int:
        """Drop state for clients idle beyond the horizon and not under an active block."""
        doomed = [
            cid
            for cid, st in self._clients.items()
            if st.last_seen < now - idle_horizon
            and (st.blocked_until is None or st.blocked_until <= now)
        ]
        for cid in doomed:
            del self._clients[cid]
        return len(doomed)

    @property
    def client_count(self) -> int:
        return len(self._clients)

    def active_blocks(self, now: float) -> int:
        return sum(
            1
            for st in self._clients.values()
            if st.blocked_until is not None and now < st.blocked_until
        )

    def stats(self, now: float) -> dict:
        return {
            "blocked_total": self.blocked_total,
            "active_blocks": self.active_blocks(now),
            "clients_tracked": self.client_count,
        }
