"""Per-host politeness token buckets over virtual time.

The crawl scheduler runs on integer virtual-time ticks (SURVEY §7.5:
bit-identical resume forbids wall-clock scheduling). Each host has a
bucket with ``capacity`` burst tokens refilling one token every
``delay`` ticks (delay from robots Crawl-delay, else the default).

``grant(hosts, ready, horizon)`` walks a batch of requests in order:
each gets its host's earliest token tick at or after its ready tick,
and takes the token when that tick is within the horizon — otherwise
the caller re-heaps the entry at that tick. ``reserve(host, t)`` is
the one-request case. Pure integer arithmetic; state serializes to an
Arrow table for checkpoints.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BUCKET_SCHEMA = pa.schema(
    [
        ("host", pa.string()),
        ("delay", pa.int64()),
        ("tokens", pa.int64()),
        ("last_refill", pa.int64()),
    ]
)

DEFAULT_DELAY = 2
DEFAULT_CAPACITY = 1


class HostBuckets:
    def __init__(
        self,
        default_delay: int = DEFAULT_DELAY,
        capacity: int = DEFAULT_CAPACITY,
        salted: frozenset[str] | set[str] = frozenset(),
        salt_k: int = 1,
    ):
        self.default_delay = int(default_delay)
        self.capacity = int(capacity)
        # skew-salted hosts (crawler.partition_of): their URLs are spread
        # over salt_k shard sub-queues, so EACH sub-queue's bucket runs at
        # delay × salt_k — the host's total steady-state rate across all
        # sub-queues equals the unsalted budget
        self.salted = frozenset(salted)
        self.salt_k = max(1, int(salt_k))
        # host -> [delay, tokens, last_refill]
        self._state: dict[str, list[int]] = {}

    def _stretch(self, host: str, delay: int) -> int:
        if host in self.salted:
            return max(1, int(delay)) * self.salt_k
        return max(1, int(delay))

    def set_delay(self, host: str, delay: int) -> None:
        st = self._ensure(host)
        st[0] = self._stretch(host, delay)

    def _ensure(self, host: str) -> list[int]:
        st = self._state.get(host)
        if st is None:
            st = [self._stretch(host, self.default_delay), self.capacity, 0]
            self._state[host] = st
        return st

    def grant(
        self, hosts: list[str], ready: np.ndarray, horizon: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grant a batch of fetch requests in order → (slots, granted).

        Request i asks for host ``hosts[i]`` at tick ``ready[i]``; its
        slot is the earliest tick ≥ ready[i] at which the host has a
        token. A slot within ``horizon`` takes that token (granted);
        a later one takes nothing, and the caller re-queues the request
        at its slot. The scheduler passes requests in key order, so
        per-host slots advance monotonically — this is what keeps heap
        churn at one pop per entry per epoch instead of one per
        politeness retry."""
        n = len(hosts)
        slots = np.empty(n, dtype=np.int64)
        granted = np.zeros(n, dtype=bool)
        ensure = self._ensure
        capacity = self.capacity
        for i, t in enumerate(np.asarray(ready, dtype=np.int64).tolist()):
            st = ensure(hosts[i])
            d, tok, last = st
            # refill(t)
            if t > last:
                gained = (t - last) // d
                if gained:
                    tok = min(capacity, tok + gained)
                    last = last + gained * d
                if tok >= capacity:
                    last = t  # full bucket: refill clock re-anchors at t
            # no token: the next one arrives one full delay after the anchor
            slot = t if tok > 0 else last + d
            if slot <= horizon:
                # commit: refill at slot, then consume
                if slot > last:
                    gained = (slot - last) // d
                    if gained:
                        tok = min(capacity, tok + gained)
                        last = last + gained * d
                    if tok >= capacity:
                        last = slot
                tok -= 1
                granted[i] = True
            slots[i] = slot
            st[1] = tok
            st[2] = last
        return slots, granted

    def reserve(self, host: str, t: int) -> tuple[bool, int]:
        """Try to take a token at tick t.

        Returns (granted, when): granted=True → fetch at t; else `when`
        is the earliest tick a token becomes available. This is
        ``grant`` with horizon t: a slot ≤ t exists only when a token
        is present at t.
        """
        slots, granted = self.grant([host], np.array([t]), t)
        return bool(granted[0]), int(slots[0])

    # ---- checkpoint format -------------------------------------------------
    def to_table(self) -> pa.Table:
        hosts = sorted(self._state)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "delay": pa.array([self._state[h][0] for h in hosts], pa.int64()),
                "tokens": pa.array([self._state[h][1] for h in hosts], pa.int64()),
                "last_refill": pa.array([self._state[h][2] for h in hosts], pa.int64()),
            },
            schema=BUCKET_SCHEMA,
        )

    @classmethod
    def from_table(
        cls,
        table: pa.Table,
        default_delay: int = DEFAULT_DELAY,
        capacity: int = DEFAULT_CAPACITY,
        salted: frozenset[str] | set[str] = frozenset(),
        salt_k: int = 1,
    ) -> "HostBuckets":
        # stored delays already include the salt stretch; the salt config
        # is re-attached so hosts first seen AFTER the restore stretch too
        obj = cls(default_delay, capacity, salted=salted, salt_k=salt_k)
        for h, d, tok, lr in zip(
            table.column("host").to_pylist(),
            table.column("delay").to_pylist(),
            table.column("tokens").to_pylist(),
            table.column("last_refill").to_pylist(),
        ):
            obj._state[h] = [d, tok, lr]
        return obj
