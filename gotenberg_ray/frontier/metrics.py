"""Per-epoch crawl metrics — the observability surface (SURVEY §2.7).

Mirrors the reference's OTEL instrument set (requests/errors counters
and per-stage durations) as a table appended per checkpoint epoch. Wall-clock values are observability
data, NOT scheduler state: the metrics file lives next to the shard
checkpoints but is excluded from the bit-identity digest.
"""

from __future__ import annotations

import pyarrow as pa

EPOCH_METRICS_SCHEMA = pa.schema(
    [
        ("epoch", pa.int64()),
        ("grants", pa.int64()),
        ("errors", pa.int64()),
        ("links_offered", pa.int64()),
        ("links_rejected", pa.int64()),
        ("spans_out", pa.int64()),
        ("pop_s", pa.float64()),
        ("fetch_s", pa.float64()),
        ("busy_s", pa.float64()),
        ("route_s", pa.float64()),
    ]
)


class EpochMetrics:
    def __init__(self):
        self.rows: list[dict] = []

    def record(self, **row) -> None:
        self.rows.append(row)

    def to_table(self) -> pa.Table:
        if not self.rows:
            return EPOCH_METRICS_SCHEMA.empty_table()
        cols = {
            f.name: [r.get(f.name, 0) for r in self.rows]
            for f in EPOCH_METRICS_SCHEMA
        }
        return pa.table(cols, schema=EPOCH_METRICS_SCHEMA)

