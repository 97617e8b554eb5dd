"""Z-order (Morton-curve) data layout — multi-dimensional clustering
for scan pruning, the Delta/Iceberg ``OPTIMIZE ZORDER BY`` pattern
(public; Morton 1966).

A table queried by rectangles over two key columns is laid out so
rows close in (x, y) land in the same file: both keys normalize to a
fixed bit domain, interleave into a Morton code, and the code's top
bits pick one of 64 grid-cell buckets written through the resumable
partitioned sink (``io.write_partitioned(direct=True)`` — the bucket
id IS the cell id, so a reader maps a predicate rectangle to the
exact cell set and opens only those directories).

``zorder_scan`` demonstrates the full loop: lay out ``lineitem`` by
(l_partkey, l_suppkey) under /tmp, answer a rectangle query reading
ONLY the intersecting cells, and return an aggregate the DuckDB twin
recomputes from the raw table — equality proves the pruning admitted
every qualifying row. At 100 TB the one-time layout cost is a single
keyed exchange and every rectangle scan afterwards touches
|rectangle|/|grid| of the data instead of all of it.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Max, Sum

from ..functions.frames import ensure_columns

KEY_BITS = 18  # normalized per-dimension domain
CELL_BITS = 3  # 2^3 × 2^3 = 64 grid cells
N_CELLS = 1 << (2 * CELL_BITS)
# demo rectangle: the low quarter of both key domains


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each value to even bit positions
    (standard 2-D Morton magic-mask sequence)."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave two uint arrays: bit i of x → bit 2i, of y → 2i+1."""
    return _spread_bits(x) | (_spread_bits(y) << np.uint64(1))


def _normalize(v: np.ndarray, vmax: int) -> np.ndarray:
    """Scale values in [0, vmax] onto the fixed KEY_BITS grid."""
    scale = (1 << KEY_BITS) - 1
    return (v.astype(np.int64) * scale // max(vmax, 1)).astype(np.uint64)


def _cell_of(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    shift = np.uint64(KEY_BITS - CELL_BITS)
    return morton2(px >> shift, py >> shift).astype(np.int64)


def _key_maxes(sf_dir: str) -> tuple[int, int]:
    from ..io import read_table

    row = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).aggregate(
        Max("l_partkey"), Max("l_suppkey")
    )
    if not row or row.get("max(l_partkey)") is None:
        return 0, 0
    return int(row["max(l_partkey)"]), int(row["max(l_suppkey)"])


def write_zordered(sf_dir: str, path: str, pmax: int, smax: int) -> dict:
    """One keyed exchange: tag each row with its Morton grid cell, then
    the resumable direct-bucket sink writes one directory per cell."""
    from ..io import read_table, write_partitioned

    def tag(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        cell = _cell_of(_normalize(pk, pmax), _normalize(sk, smax))
        return batch.append_column("zcell", pa.array(cell))

    ds = read_table(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_returnflag"],
    ).map_batches(tag, batch_format="pyarrow")
    return write_partitioned(ds, path, key="zcell", num_partitions=N_CELLS, direct=True)


def _rect(pmax: int, smax: int) -> tuple[int, int, int, int]:
    return 0, pmax // 4, 0, smax // 4


def cells_for_rect(
    p0: int, p1: int, s0: int, s1: int, pmax: int, smax: int
) -> list[int]:
    """Exact cell set intersecting the rectangle (grid is coarse — 8×8
    — so enumeration is trivial; a deep curve would use BIGMIN)."""
    shift = KEY_BITS - CELL_BITS
    cx0 = int(_normalize(np.array([p0]), pmax)[0]) >> shift
    cx1 = int(_normalize(np.array([p1]), pmax)[0]) >> shift
    cy0 = int(_normalize(np.array([s0]), smax)[0]) >> shift
    cy1 = int(_normalize(np.array([s1]), smax)[0]) >> shift
    cells = []
    for cx in range(cx0, cx1 + 1):
        for cy in range(cy0, cy1 + 1):
            cells.append(
                int(morton2(np.array([cx], np.uint64), np.array([cy], np.uint64))[0])
            )
    return sorted(cells)


def zorder_scan(sf_dir: str) -> pd.DataFrame:
    """Rectangle aggregate answered from the z-ordered layout, reading
    only the intersecting grid cells."""
    pmax, smax = _key_maxes(sf_dir)
    if pmax == 0 and smax == 0:
        return ensure_columns(
            pd.DataFrame(),
            {"l_returnflag": "object", "n": "int64", "sum_qty": "int64"},
        )
    from ..io import scratch_layout_path

    path = scratch_layout_path("zorder", sf_dir, "lineitem")
    write_zordered(sf_dir, path, pmax, smax)

    p0, p1, s0, s1 = _rect(pmax, smax)
    cells = cells_for_rect(p0, p1, s0, s1, pmax, smax)
    files = [
        os.path.join(path, f"bucket-{c}", "part.parquet")
        for c in cells
        if os.path.exists(os.path.join(path, f"bucket-{c}", "part.parquet"))
    ]
    if not files:
        return ensure_columns(
            pd.DataFrame(),
            {"l_returnflag": "object", "n": "int64", "sum_qty": "int64"},
        )

    def agg(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_partkey"], p0),
                pc.less_equal(batch["l_partkey"], p1),
            ),
            pc.and_(
                pc.greater_equal(batch["l_suppkey"], s0),
                pc.less_equal(batch["l_suppkey"], s1),
            ),
        )
        batch = batch.filter(keep)
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
                "qty": pc.cast(pc.round(batch["l_quantity"]), pa.int64()),
            }
        )
        g = t.group_by("l_returnflag").aggregate([("n", "sum"), ("qty", "sum")])
        return g.rename_columns(["l_returnflag", "n", "sum_qty"])

    df = (
        rd.read_parquet(
            files, columns=["l_partkey", "l_suppkey", "l_quantity", "l_returnflag"]
        )
        .map_batches(agg, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty"))
        .to_pandas()
    )
    df = ensure_columns(
        df, {"l_returnflag": "object", "n": "int64", "sum_qty": "int64"}
    )
    for c in ("n", "sum_qty"):
        df[c] = df[c].astype("int64")
    return df.sort_values("l_returnflag").reset_index(drop=True)


# static twin for the driver's fixed-sf gate (maxima are data-derived;
# express them in SQL so the oracle is self-contained)
ZORDER_SQL = """
WITH m AS (SELECT max(l_partkey) AS pmax, max(l_suppkey) AS smax FROM lineitem)
SELECT l_returnflag,
       count(*)::BIGINT AS n,
       sum(CAST(round(l_quantity) AS BIGINT))::BIGINT AS sum_qty
FROM lineitem, m
WHERE l_partkey BETWEEN 0 AND pmax // 4
  AND l_suppkey BETWEEN 0 AND smax // 4
GROUP BY l_returnflag ORDER BY l_returnflag
"""


# ------------------------------------- bucketed-layout (shuffle-free)

BUCKETED_P = 32


def bucketed_customer_totals(sf_dir: str) -> pd.DataFrame:
    """Shuffle-FREE aggregation over a bucket-partitioned layout — the
    Spark/Hive "bucketed table" optimization: orders are written ONCE
    hash-bucketed by ``o_custkey`` (the resumable sink; amortized
    across every later custkey-keyed query), after which a per-custkey
    aggregate needs NO exchange at query time — every key's rows are
    complete inside one bucket file, so one map task per bucket
    produces final groups directly.

    Query-time plan: a Dataset of bucket file paths fans out; each
    task reads its file (workers read their own partition — the driver
    never touches row data) and emits exact per-key aggregates. The
    only cross-node movement is the result itself. Compare
    ``relational.py`` q-series, which pay a groupby exchange per
    query: at 100 TB the bucketed layout wins whenever a key-aligned
    query family repeats."""
    import ray.data as rd

    from ..io import read_table, scratch_layout_path, write_partitioned

    path = scratch_layout_path("bucketed", sf_dir, "orders")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                             round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            }
        )

    write_partitioned(
        read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow"
        ),
        path,
        key="o_custkey",
        num_partitions=BUCKETED_P,
    )
    files = [
        os.path.join(path, d, "part.parquet")
        for d in sorted(os.listdir(path))
        if d.startswith("bucket-")
        and os.path.exists(os.path.join(path, d, "_COMPLETE"))
    ]
    if not files:
        return ensure_columns(
            pd.DataFrame(),
            {"o_custkey": "int64", "n_orders": "int64", "total_cents": "int64"},
        )

    def agg_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        out = []
        for f in batch["f"].to_pylist():
            t = pq.read_table(f)
            t = t.append_column(
                "n_orders", pa.array(np.ones(t.num_rows, np.int64))
            )
            out.append(
                t.group_by("o_custkey")
                .aggregate([("n_orders", "sum"), ("cents", "sum")])
                .rename_columns(["o_custkey", "n_orders", "total_cents"])
            )
        return pa.concat_tables(out)

    df = (
        rd.from_items([{"f": f} for f in files])
        .map_batches(agg_bucket, batch_format="pyarrow", batch_size=1)
        .to_pandas()
    )
    df = ensure_columns(
        df, {"o_custkey": "int64", "n_orders": "int64", "total_cents": "int64"}
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("o_custkey").reset_index(drop=True)


BUCKETED_SQL = """
SELECT o_custkey,
       count(*)::BIGINT AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS total_cents
FROM orders GROUP BY o_custkey ORDER BY o_custkey
"""


# --------------------------- range-partitioned global sort (TeraSort)

RANGE_BUCKETS = 32
RANGE_SAMPLE_TARGET = RANGE_BUCKETS * 64  # keys sampled for splits
PROBE_STRIDE = 100  # every 100th global rank is probed


def _order_cents(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "o_orderkey": batch["o_orderkey"],
            "cents": pc.cast(
                pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                         round_mode="half_towards_infinity"),
                pa.int64(),
            ),
        }
    )


def orders_range_sort(sf_dir: str) -> pd.DataFrame:
    """Sampled-splits range-partitioned GLOBAL sort — the TeraSort plan
    (O'Malley 2008), also Spark's ``sortByKey`` RangePartitioner and
    the write path of every sorted lakehouse layout: a deterministic
    key sample picks B−1 split points, ONE keyed exchange routes each
    row to its key range, each range sorts locally and lands as one
    sorted run, and concatenating runs in bucket order IS the globally
    sorted table — no single machine ever holds more than ~N/B rows.

    Plan (orders sorted by (cents, o_orderkey)):
      0. sample pass — rows gated by ``splitmix64(o_orderkey)`` (content-
         deterministic, layout-independent) yield ~2k sort keys; the
         driver takes their quantiles as split points. O(sample) driver.
      1. route + sort exchange — ``searchsorted(splits, cents)`` tags
         each row's bucket; ``groupby(bucket).map_groups`` sorts each
         range ONCE and writes it as an atomic sorted-run parquet
         (tmp → ``os.replace``). Ties can't straddle buckets (routing
         compares only ``cents``), so runs are disjoint by construction;
         a pathological single-value tie-run lands in one bucket — the
         growth path is a secondary split on the unique tiebreaker.
      2. rank probe — the map_groups stage RETURNS the exact (bucket,
         rows) manifest, so run discovery never trusts ``os.listdir``
         (a stale run file from an older layout could otherwise shift
         every downstream rank); the manifest's prefix sum gives each
         run's global rank offset, and one tiny task per run re-reads
         it to emit every ``PROBE_STRIDE``-th row as
         ``(pos, o_orderkey, cents)``.

    The probe is the correctness contract: global position ``pos`` is
    ``row_number() OVER (ORDER BY cents, o_orderkey) − 1`` in the SQL
    twin, so a single misplaced or miscounted row anywhere shifts every
    later rank and hash-fails. ``tests/test_rangesort.py`` additionally
    checks the written runs concatenate globally sorted and preserve
    row count. At 100 TB: sample ≪ data, one all-to-all at the
    exchange, per-task memory ∝ N/B (B scales with the cluster), and
    the sorted runs are the resumable output artifact."""
    from ..io import read_table, scratch_layout_path, table_rows

    empty_schema = {"pos": "int64", "o_orderkey": "int64", "cents": "int64"}
    n_rows = table_rows(sf_dir, "orders")
    if n_rows == 0:
        return ensure_columns(pd.DataFrame(), empty_schema)

    from ..functions.hashing import splitmix64

    # ---- pass 0: deterministic sample → split points
    gate = min(1 << 16, max(1, (RANGE_SAMPLE_TARGET << 16) // n_rows))

    def sample_keys(batch: pa.Table) -> pa.Table:
        t = _order_cents(batch)
        h = splitmix64(t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return t.select(["cents"]).filter(pa.array((h & np.uint64(0xFFFF)) < gate))

    sample = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(sample_keys, batch_format="pyarrow")
        .to_pandas()["cents"]
        .to_numpy()
    )
    if len(sample):
        qs = np.arange(1, RANGE_BUCKETS) / RANGE_BUCKETS
        splits = np.unique(np.quantile(sample, qs, method="nearest").astype(np.int64))
    else:
        splits = np.empty(0, np.int64)  # degenerate: one bucket

    path = scratch_layout_path("rangesort", sf_dir, "orders")
    os.makedirs(path, exist_ok=True)

    # ---- pass 1: route to key ranges, sort each range, land sorted runs
    def route(batch: pa.Table) -> pa.Table:
        t = _order_cents(batch)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(splits, cents, side="right").astype(np.int64)
        return t.append_column("bucket", pa.array(bucket))

    def sort_and_land(part: pa.Table) -> pa.Table:
        import uuid

        import pyarrow.parquet as pq

        bid = int(part["bucket"][0].as_py())
        cents = part["cents"].to_numpy(zero_copy_only=False)
        keys = part["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, cents))
        run = pa.table(
            {"o_orderkey": pa.array(keys[order]), "cents": pa.array(cents[order])}
        )
        # tmp name unique PER ATTEMPT: a Ray task retry overlapping the
        # original writer must never interleave into the same tmp file
        # (os.replace would then promote a corrupt run)
        tmp = os.path.join(path, f"_run-{bid}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        pq.write_table(run, tmp)
        os.replace(tmp, os.path.join(path, f"run-{bid}.parquet"))
        return pa.table({"bucket": [bid], "rows": [part.num_rows]})

    manifest = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(route, batch_format="pyarrow")
        .groupby("bucket", num_partitions=RANGE_BUCKETS)
        .map_groups(sort_and_land, batch_format="pyarrow")
        .to_pandas()
    )

    # ---- pass 2: manifest counts → global offsets → strided rank probe
    # iterate EXACTLY the (bucket, rows) pairs the landing stage
    # returned — never os.listdir, which could pick up a stale run file
    # from an older routing whose bucket happens to be empty now
    import pyarrow.parquet as pq

    offset, items = 0, []
    for bid, n in sorted(
        zip(manifest["bucket"].astype(int), manifest["rows"].astype(int))
    ):
        items.append(
            {"f": os.path.join(path, f"run-{bid}.parquet"), "offset": offset, "n": int(n)}
        )
        offset += int(n)

    def probe(batch: pa.Table) -> pa.Table:
        out = []
        for f, off, n in zip(
            batch["f"].to_pylist(), batch["offset"].to_pylist(), batch["n"].to_pylist()
        ):
            first = (-off) % PROBE_STRIDE
            idx = np.arange(first, n, PROBE_STRIDE, dtype=np.int64)
            if not len(idx):
                continue
            run = pq.read_table(f).take(pa.array(idx))
            out.append(
                pa.table(
                    {
                        "pos": pa.array(idx + off),
                        "o_orderkey": run["o_orderkey"],
                        "cents": run["cents"],
                    }
                )
            )
        if not out:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in ("pos", "o_orderkey", "cents")}
            )
        return pa.concat_tables(out)

    df = (
        rd.from_items(items)
        .map_batches(probe, batch_format="pyarrow", batch_size=4)
        .to_pandas()
    )
    df = ensure_columns(df, empty_schema)
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("pos").reset_index(drop=True)


RANGE_SORT_SQL = """
WITH r AS (
  SELECT o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         row_number() OVER (
           ORDER BY CAST(round(o_totalprice * 100) AS BIGINT), o_orderkey
         ) - 1 AS rnk
  FROM orders
)
SELECT CAST(rnk AS BIGINT) AS pos, o_orderkey, cents
FROM r WHERE rnk % 100 = 0 ORDER BY rnk
"""
