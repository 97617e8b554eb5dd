"""Frontier priority queue — the per-partition scheduler queue, popped
in bulk.

North star: "lazy-deletion binary-heap priority queue keyed by
(priority, next-fetch-time) per partition" — kept here as a bulk-pop
queue with no deletion (BASELINE.md §B). Entries order by
``(ready_time asc, priority desc, seq asc)`` — earliest eligible fetch
first, then most important, then stable insertion order. ``seq`` is the
globally-assigned insertion sequence number, which makes pop order a
pure function of queue content (SURVEY §7.5: order assigned at schedule
time).

Internals: the epoch-synchronous scheduler only ever pops in BULK
("everything ready by the horizon"), so instead of a binary heap paying
O(log n) Python-object sifts per entry, entries live in chunked numpy
column arrays; a pop partitions the store on ``ready <= horizon`` with
one vector compare and sorts just the popped slice (np.lexsort). Same
observable order as a heap, ~50× less per-entry overhead. Nothing is
ever deleted: an entry leaves only by being popped, and a popped entry
that was not granted is re-keyed by pushing it back, so there are no
tombstones. Each entry also carries its owner's payload locator, an
opaque int64 that is not part of the key. The queue has no format of
its own: its owner snapshots ``entries()`` in seq order, so two queues
holding the same entry set snapshot identically regardless of insertion
history, which is what makes resumed checkpoints comparable bit-for-bit.
"""

from __future__ import annotations

import numpy as np

# one chunk = (ready:int64, negp:int64, seq:int64, uh:uint64, loc:int64)
_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _empty_chunk() -> _Chunk:
    z = np.empty(0, dtype=np.int64)
    return z, z.copy(), z.copy(), np.empty(0, dtype=np.uint64), z.copy()


class FrontierHeap:
    def __init__(self):
        self._chunks: list[_Chunk] = []

    def __len__(self) -> int:
        return sum(len(c[0]) for c in self._chunks)

    # ------------------------------------------------------------------ push
    def push_bulk(
        self,
        ready: np.ndarray,
        priority: np.ndarray,
        seq: np.ndarray,
        url_hash: np.ndarray,
        loc: np.ndarray,
    ) -> None:
        if len(ready) == 0:
            return
        self._chunks.append(
            (
                np.asarray(ready, dtype=np.int64),
                -np.asarray(priority, dtype=np.int64),
                np.asarray(seq, dtype=np.int64),
                np.asarray(url_hash, dtype=np.uint64),
                np.asarray(loc, dtype=np.int64),
            )
        )

    # --------------------------------------------------------------- internal
    def _consolidate(self) -> _Chunk:
        """Collapse the chunks into one."""
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(col) for col in zip(*self._chunks))]
        elif not self._chunks:
            self._chunks = [_empty_chunk()]
        return self._chunks[0]

    # ------------------------------------------------------------------- pop
    def peek_ready_time(self) -> int | None:
        ready = self._consolidate()[0]
        return int(ready.min()) if len(ready) else None

    def pop_ready_bulk(self, horizon: int) -> _Chunk:
        """All entries with ready_time <= horizon, in (ready, -priority,
        seq) order → (ready, prio, seq, uh, loc) arrays."""
        chunk = self._consolidate()
        mask = chunk[0] <= horizon
        if not mask.any():
            return _empty_chunk()
        keep = ~mask
        self._chunks = [tuple(col[keep] for col in chunk)]
        r, p, s, u, loc = (col[mask] for col in chunk)
        order = np.lexsort((s, p, r))
        return r[order], -p[order], s[order], u[order], loc[order]

    def entries(self) -> _Chunk:
        """(ready, prio, seq, uh, loc) of every entry, in storage order."""
        ready, negp, seq, uh, loc = self._consolidate()
        return ready, -negp, seq, uh, loc
