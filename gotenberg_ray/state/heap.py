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
opaque int64 that is neither part of the key nor serialized. Canonical
serialization sorts entries by key — two queues holding the same entry
set serialize identically regardless of insertion history, which is
what makes resumed checkpoints comparable bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

ENTRY_SCHEMA = pa.schema(
    [
        ("ready_time", pa.int64()),
        ("priority", pa.int32()),
        ("seq", pa.int64()),
        ("url_hash", pa.uint64()),
    ]
)

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

    def locators(self) -> tuple[np.ndarray, np.ndarray]:
        """(seq, loc) of every entry, in storage order."""
        chunk = self._consolidate()
        return chunk[2], chunk[4]

    # ---- checkpoint format -------------------------------------------------
    def to_table(self) -> pa.Table:
        ready, negp, seq, uh, _ = self._consolidate()
        if not len(ready):
            return ENTRY_SCHEMA.empty_table()
        order = np.lexsort((uh.astype(np.int64), seq, negp, ready))
        return pa.table(
            {
                "ready_time": pa.array(ready[order]),
                "priority": pa.array((-negp[order]).astype(np.int32)),
                "seq": pa.array(seq[order]),
                "url_hash": pa.array(uh[order]),
            },
            schema=ENTRY_SCHEMA,
        )

    @classmethod
    def from_table(cls, table: pa.Table, loc: np.ndarray) -> "FrontierHeap":
        """The queue of a ``to_table`` snapshot; ``loc`` holds the payload
        locator of each of its rows."""
        obj = cls()
        obj.push_bulk(
            table.column("ready_time").to_numpy(zero_copy_only=False),
            table.column("priority").to_numpy(zero_copy_only=False).astype(np.int64),
            table.column("seq").to_numpy(zero_copy_only=False),
            table.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64),
            loc,
        )
        return obj
