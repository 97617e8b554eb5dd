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

An entry is one whole pending URL: a ``PENDING_SCHEMA`` row, its queue
key followed by its payload. The queue is a list of Arrow table chunks,
one per push. The epoch-synchronous scheduler only ever pops in BULK
("everything ready by the horizon"), so instead of a binary heap paying
O(log n) Python-object sifts per entry, a pop splits the store on
``ready_time <= horizon`` with one vector compare, keeps the rest as one
chunk and sorts just the popped rows (np.lexsort). Same observable order
as a heap. Nothing is ever deleted: a row leaves only by being popped,
and a popped row that was not granted is re-keyed by pushing it back, so
there are no tombstones and the rows a pop drops are the only
compaction the store needs. The queue has no format of its own: its
owner snapshots ``entries()`` in seq order, so two queues holding the
same entry set snapshot identically regardless of insertion history,
which is what makes resumed checkpoints comparable bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# one pending URL: the queue key, then the payload
PENDING_SCHEMA = pa.schema(
    [
        ("seq", pa.int64()),
        ("ready_time", pa.int64()),
        ("priority", pa.int32()),
        ("url_hash", pa.uint64()),
        ("url_canon", pa.string()),
        ("host", pa.string()),
        ("route", pa.string()),
        ("doc_id", pa.string()),
        ("options_json", pa.string()),
    ]
)


class FrontierHeap:
    def __init__(self):
        self._chunks: list[pa.Table] = []

    def __len__(self) -> int:
        return sum(c.num_rows for c in self._chunks)

    def push_bulk(self, rows: pa.Table) -> None:
        """Enqueue ``PENDING_SCHEMA`` rows as they are."""
        if rows.num_rows:
            self._chunks.append(rows)

    def entries(self) -> pa.Table:
        """Every entry, as one table with one chunk per column, in
        storage order."""
        rows = pa.concat_tables(self._chunks) if self._chunks else PENDING_SCHEMA.empty_table()
        self._chunks = [rows.combine_chunks()]
        return self._chunks[0]

    def peek_ready_time(self) -> int | None:
        ready = self.entries().column("ready_time").to_numpy()
        return int(ready.min()) if len(ready) else None

    def pop_ready_bulk(self, horizon: int) -> pa.Table:
        """All entries with ready_time <= horizon, in (ready, -priority,
        seq) order."""
        rows = self.entries()
        ready = rows.column("ready_time").to_numpy()
        mask = ready <= horizon
        if not mask.any():
            return PENDING_SCHEMA.empty_table()
        self._chunks = [rows.filter(~mask)]
        idx = np.flatnonzero(mask)
        negp = -rows.column("priority").to_numpy()[idx].astype(np.int64)
        order = np.lexsort((rows.column("seq").to_numpy()[idx], negp, ready[idx]))
        return rows.take(idx[order])
