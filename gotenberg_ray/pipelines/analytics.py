"""Distributed analytics operators beyond plain groupby: anti-join,
exact distributed quantiles, two-phase exact distinct, and a mergeable
HyperLogLog sketch.

Scale contracts:

- ``customers_no_orders``: bucketed hash-partitioned ANTI join (both
  sides shuffled once by key hash via ``joins.hash_join``) — the right
  side is pre-shrunk to distinct keys per partition by the fused
  combiner, so the local anti probe sees keys, not orders rows.
- ``order_price_quantiles``: exact quantiles WITHOUT a global sort —
  per-batch value-count partials, ONE groupby shuffle keyed by the
  (low-cardinality) group column, then a weighted cumsum walk per key.
  The shuffle moves at most Σ min(batch, domain) partial rows; money
  domains are bounded (≤10⁸ cent buckets) so the per-key slice is
  O(domain) not O(rows). If even the domain outgrows a worker, the
  exact fallback is iterative bisection (count-below passes), trading
  log(domain) streaming passes for O(1) memory.
- ``distinct_users_daily``: two-phase exact distinct — batch-local
  dedup, ONE groupby over (day,user) pairs to dedup globally, then a
  per-batch partial count folded per day; nothing holds a whole day's
  users in memory at once.
- ``hll_users_per_type``: HyperLogLog (Flajolet et al. 2007, public
  algorithm) — per-batch 2^p-register sketches per key, merged with an
  elementwise max in a small groupby fold; the canonical mergeable-
  sketch shape for 100 TB distinct-counting (registers are 4 KiB per
  key regardless of cardinality). Deterministic (fixed fnv64 hash);
  rows-only check, with an error-bound test vs the exact counts.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Sum

from ..functions.frames import ensure_columns
from ..functions.hashing import splitmix64
from ..io import read_table
from .joins import bucket_fold, hash_join
from .relational import JOIN_PARTITIONS

# ------------------------------------------------------------- anti-join


def customers_no_urgent_orders(sf_dir: str, priority: str = "1-URGENT") -> pd.DataFrame:
    """Per-nation count of customers who never placed a 1-URGENT order
    — bucketed hash-partitioned LEFT ANTI join (customer ∖ σ(orders)),
    then a 25-key groupby; nation names patched in via a driver-side
    25-row lookup (true dimension)."""
    import pyarrow.parquet as pq

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = read_table(
        sf_dir, "orders", ["o_custkey", "o_orderpriority"]
    ).filter(expr=f"o_orderpriority == '{priority}'")

    def distinct_keys(t: pa.Table) -> pa.Table:
        return t.group_by(["c_custkey"]).aggregate([])

    no_orders = hash_join(
        cust,
        orders.map_batches(
            lambda b: b.select(["o_custkey"]).rename_columns(["c_custkey"]),
            batch_format="pyarrow",
        ),
        on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        right_agg=distinct_keys,
        join_type="left anti",
        left_schema=[("c_custkey", pa.int64()), ("c_nationkey", pa.int64())],
        right_schema=[("c_custkey", pa.int64())],
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["c_nationkey"]).aggregate([("c_custkey", "count")])
        return g.rename_columns(["c_nationkey", "n"])

    df = (
        no_orders.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(Sum("n", alias_name="n_customers"))
        .to_pandas()
    )
    df = ensure_columns(df, {"c_nationkey": "int64", "n_customers": "int64"})
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    df = df.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    df["n_customers"] = df["n_customers"].astype("int64")
    return (
        df[["n_name", "n_customers"]]
        .sort_values("n_name")
        .reset_index(drop=True)
    )


NO_ORDERS_SQL = """
SELECT n_name, CAST(count(*) AS BIGINT) AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey
WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY n_name ORDER BY n_name
"""


# ------------------------------------------------- exact quantiles (no sort)


def order_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact discrete p50/p90 of o_totalprice per order priority via
    per-batch value counts + one groupby (module docstring). Matches
    DuckDB ``quantile_disc`` (index = max(⌈q·n⌉−1, 0))."""

    def partial(batch: pa.Table) -> pa.Table:
        price_e2 = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),  # = SQL round()
            pa.int64(),
        )
        t = pa.table(
            {"o_orderpriority": batch["o_orderpriority"], "price_e2": price_e2}
        )
        g = t.group_by(["o_orderpriority", "price_e2"]).aggregate([([], "count_all")])
        return g.rename_columns(["o_orderpriority", "price_e2", "cnt"])

    def per_priority(g: pd.DataFrame) -> pd.DataFrame:
        # partials may repeat a price across blocks — sort keeps equal
        # prices adjacent, so the weighted cumsum walk needs no pre-fold
        g = g.sort_values("price_e2")
        v = g["price_e2"].to_numpy()
        cum = np.cumsum(g["cnt"].to_numpy())
        n = int(cum[-1])

        def q(frac: float) -> int:
            target = max(math.ceil(frac * n), 1)  # 1-based rank
            return int(v[np.searchsorted(cum, target, side="left")])

        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "p50_e2": [q(0.5)],
                "p90_e2": [q(0.9)],
                "n_orders": [n],
            }
        )

    df = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(per_priority, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"o_orderpriority": "object", "p50_e2": "int64",
         "p90_e2": "int64", "n_orders": "int64"},
    )
    for c in ("p50_e2", "p90_e2", "n_orders"):
        df[c] = df[c].astype("int64")
    return df.sort_values("o_orderpriority").reset_index(drop=True)


PRICE_QUANTILES_SQL = """
SELECT o_orderpriority,
       CAST(quantile_disc(CAST(round(o_totalprice * 100) AS BIGINT), 0.5)
            AS BIGINT) AS p50_e2,
       CAST(quantile_disc(CAST(round(o_totalprice * 100) AS BIGINT), 0.9)
            AS BIGINT) AS p90_e2,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------- two-phase exact distinct


def distinct_users_daily(sf_dir: str) -> pd.DataFrame:
    """Exact COUNT(DISTINCT user_id) per day: batch-local dedup → ONE
    user-hash BUCKET exchange — every (day,user) pair lands wholly in
    its user's bucket while the day dimension stays spread (a named
    Aggregate over the
    data-scale pair key measured ~6× slower — the ARCHITECTURE
    named-aggregate cardinality rule) → per-bucket Arrow dedup +
    per-day partial counts → one tiny day-keyed combine."""

    def local_pairs(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"), format="%Y-%m-%d")
        t = pa.table({"day": day, "user_id": batch["user_id"]})
        return t.group_by(["day", "user_id"]).aggregate([])

    def bucket_counts(part: pa.Table) -> pa.Table:
        g = (
            part.group_by(["day", "user_id"])
            .aggregate([])  # global dedup within the pair's home bucket
            .group_by("day")
            .aggregate([("user_id", "count")])
        )
        return g.rename_columns(["day", "n"])

    # bucket by user alone: a (day,user) pair lands wholly in one
    # bucket, and the day dimension stays spread across buckets
    df = (
        bucket_fold(
            read_table(sf_dir, "events", ["ts", "user_id"]),
            "user_id", local_pairs, bucket_counts,
            pa.schema([("day", pa.string()), ("n", pa.int64())]), JOIN_PARTITIONS,
        )
        .groupby("day")
        .aggregate(Sum("n", alias_name="n_users"))
        .to_pandas()
    )
    df = ensure_columns(df, {"day": "object", "n_users": "int64"})
    df["n_users"] = df["n_users"].astype("int64")
    return df.sort_values("day").reset_index(drop=True)


DISTINCT_DAILY_SQL = """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY day ORDER BY day
"""


# ------------------------------------------------------- HyperLogLog sketch

HLL_P = 12  # 2^12 registers → ~1.6% standard error
HLL_M = 1 << HLL_P


def _hll_add(reg: np.ndarray, hashes: np.ndarray) -> None:
    """Fold PRE-MIXED 64-bit hashes into a raw register array — thin
    shim over the shared ``state/hll.py`` kernel (one implementation of
    the rank/scatter-max math engine-wide)."""
    from ..state.hll import HyperLogLog

    sk = HyperLogLog(p=HLL_P)
    sk.registers = reg  # update in place — callers own the buffer
    sk.update_hashes(np.asarray(hashes, dtype=np.uint64))


def _hll_estimate(reg: np.ndarray) -> int:
    from ..state.hll import HyperLogLog

    sk = HyperLogLog(p=HLL_P)
    sk.registers = np.asarray(reg, dtype=np.uint8)
    return sk.estimate()


def hll_users_per_type(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per event_type via mergeable HLL:
    per-batch sketches (one 2^p register array per key in the batch) →
    groupby(event_type) merge = elementwise max → estimate. Register
    payloads travel as fixed-size binary; only #keys × #blocks sketch
    rows ever shuffle."""

    def sketch_batch(batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hashes = splitmix64(users)
        kinds = np.asarray(batch["event_type"].to_pylist())
        out_k, out_r = [], []
        for k in sorted(set(kinds.tolist())):
            sel = kinds == k
            reg = np.zeros(HLL_M, dtype=np.uint8)
            _hll_add(reg, hashes[sel])
            out_k.append(k)
            out_r.append(reg.tobytes())
        return pa.table(
            {"event_type": pa.array(out_k), "reg": pa.array(out_r, pa.binary())}
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        reg = np.zeros(HLL_M, dtype=np.uint8)
        for b in g["reg"]:
            np.maximum(reg, np.frombuffer(b, dtype=np.uint8), out=reg)
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "est_users": [_hll_estimate(reg)],
            }
        )

    df = (
        read_table(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(sketch_batch, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(df, {"event_type": "object", "est_users": "int64"})
    df["est_users"] = df["est_users"].astype("int64")
    return df.sort_values("event_type").reset_index(drop=True)


# ------------------------------------- approximate quantile sketch


SKETCH_K = 4096  # sample size; ε ≈ 1/√k per quantile


def quantile_sketch(sf_dir: str, k: int = SKETCH_K) -> pd.DataFrame:
    """Approximate quantiles for UNBOUNDED domains — the companion to
    ``order_price_quantiles`` (which is exact but needs a bounded/
    discrete domain to histogram). Sketch = the k rows with the
    smallest ``mix64(orderkey)`` — a deterministic uniform sample that
    is MERGEABLE exactly like bottom-k sampling: every block keeps a
    local bottom-k by hash priority, merges keep the global bottom-k,
    so the sketch is identical under any block layout / cluster size
    (the same guarantee HLL gives for distinct counts). Quantile
    estimates are order statistics of the sample: ε ≈ 1/√k with k=4096
    → ~1.6 % rank error. Rows-only (approximate by design); the pytest
    oracle bounds the error against the exact quantiles."""
    def local_bottomk(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pri = splitmix64(keys)
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        if len(pri) > k:
            idx = np.argpartition(pri, k)[:k]
            pri, cents = pri[idx], cents[idx]
        # priorities stay UNSIGNED end to end: an int64 cast would wrap
        # hashes >= 2^63 negative and corrupt the global bottom-k merge
        return pa.table({"pri": pa.array(pri), "cents": pa.array(cents)})

    sample = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(local_bottomk, batch_format="pyarrow")
        .to_pandas()
    )
    sample = ensure_columns(sample, {"pri": "uint64", "cents": "int64"})
    sample = sample.nsmallest(k, "pri")
    vals = np.sort(sample["cents"].to_numpy())
    qs = [50, 90, 99]
    if len(vals) == 0:  # empty input → empty, typed result
        return pd.DataFrame(
            {"quantile": pd.Series(qs, dtype="int64"),
             "est_cents": pd.Series([pd.NA] * 3, dtype="Int64")}
        )
    est = [int(vals[min(len(vals) - 1, int(q / 100 * len(vals)))]) for q in qs]
    return pd.DataFrame({"quantile": qs, "est_cents": est})


# ------------------------------------------- heavy hitters (Misra–Gries)


def heavy_hitter_users(sf_dir: str, capacity: int = 4096, topk: int = 20) -> pd.DataFrame:
    """Approximate top event producers via the mergeable Misra–Gries
    summary (state/heavy.py): every block emits a ≤ capacity-entry
    (key, count) partial — ONE list-typed row — and the driver folds
    partials with the same compress operation. Nothing key-cardinality
    -sized moves: at 100 TB the reduce traffic is blocks × capacity
    rows regardless of how many distinct users exist.

    With capacity above the true distinct-user count no compression
    ever fires and every count is exact — which is what the DuckDB
    twin checks at test scale; at larger cardinalities the same code
    degrades to lower-bound counts with err ≤ n/(capacity+1) (the
    pytest property test pins that bound under a small capacity)."""
    from ..state.heavy import MisraGries

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({"k": batch["user_id"]}).group_by("k").aggregate(
            [([], "count_all")]
        ).rename_columns(["k", "c"])
        mg = MisraGries(capacity)
        if g.num_rows:
            mg.update(
                g["k"].to_numpy(zero_copy_only=False),
                g["c"].to_numpy(zero_copy_only=False),
            )
        return mg.to_partial_row(pa.int64())

    parts = (
        read_table(sf_dir, "events", ["user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    mg = MisraGries.from_partial_rows(parts, capacity)
    top = mg.top(topk)
    return pd.DataFrame(
        {
            "user_id": pd.Series([k for k, _ in top], dtype="int64"),
            "n_events": pd.Series([c for _, c in top], dtype="int64"),
        }
    )


HEAVY_HITTERS_SQL = """
SELECT user_id, count(*) AS n_events
FROM events
GROUP BY user_id
ORDER BY n_events DESC, user_id
LIMIT 20
"""


# ------------------------------------- skew-salted join demonstration


def docs_above_lang_avg(sf_dir: str) -> pd.DataFrame:
    """Per-language count of documents longer than their language's
    average length — on purpose a WORST-CASE skewed join: the key
    (lang) has ~5 distinct values, so an unsalted hash join would pile
    the whole corpus onto ≤5 of the 32 partitions. The salted path
    (``hash_join(hot_keys=..., salt=...)``) spreads each language's
    fact rows across 8 salted partitions and replicates the 5-row
    per-language aggregate into them, so all workers participate.
    Hot keys come from ``detect_hot_keys`` — one Misra–Gries sketch
    pass over the fact side, not a hardcoded list.

    The integer cross-multiply (n_chars × n_lang > sum_lang) keeps the
    comparison exact — no float average enters the result."""
    from .joins import detect_hot_keys

    # three consumers (sketch pass, per-lang aggregate, join probe) —
    # materialize the 2-column projection once instead of re-scanning
    docs = read_table(sf_dir, "documents", ["lang", "n_chars"]).materialize()

    def lang_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": b["lang"],
                "sum_chars": b["n_chars"],
                "n_docs": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )
        g = t.group_by("lang").aggregate([("sum_chars", "sum"), ("n_docs", "sum")])
        return g.rename_columns(["lang", "sum_chars", "n_docs"])

    per_lang = (
        docs.map_batches(lang_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("sum_chars", alias_name="sum_chars"), Sum("n_docs", alias_name="n_docs"))
    )

    hot = detect_hot_keys(
        docs, "lang", num_partitions=JOIN_PARTITIONS, hot_factor=4.0, capacity=1024
    )
    joined = hash_join(
        docs,
        per_lang,
        on="lang",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("lang", pa.string()), ("n_chars", pa.int64())],
        right_schema=[
            ("lang", pa.string()),
            ("sum_chars", pa.int64()),
            ("n_docs", pa.int64()),
        ],
        hot_keys=hot,
        salt=8,
    )

    def above_partial(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b["n_chars"], b["n_docs"]), b["sum_chars"]
        )
        t = pa.table({"lang": b.filter(keep)["lang"]})
        g = t.group_by("lang").aggregate([([], "count_all")])
        return g.rename_columns(["lang", "n_above"])

    df = (
        joined.map_batches(above_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_above", alias_name="n_above"))
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {"lang": pd.Series([], dtype="object"),
             "n_above": pd.Series([], dtype="int64")}
        )
    df["n_above"] = df["n_above"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


DOCS_ABOVE_AVG_SQL = """
WITH s AS (
  SELECT lang, sum(n_chars) AS sum_chars, count(*) AS n_docs
  FROM documents GROUP BY lang)
SELECT d.lang AS lang, count(*) AS n_above
FROM documents d JOIN s ON d.lang = s.lang
WHERE d.n_chars * s.n_docs > s.sum_chars
GROUP BY d.lang
ORDER BY lang
"""


# ------------------------------------------ table profiling (ANALYZE)


def orders_profile(sf_dir: str) -> pd.DataFrame:
    """ANALYZE-style column profile of the orders table: per column the
    row count, null count, and EXACT distinct count — the statistics a
    planner (or a data-quality gate) reads before choosing join sides
    and partition counts.

    Distributed shape: one scan emits, per column, batch-deduped
    (column, value-hash) pairs routed by hash-pid plus a one-row null/
    row-count partial; a per-bucket fold counts distinct hashes per
    column and a final tiny groupby sums buckets. Distinctness is by
    64-bit value hash (ints/timestamps pass through splitmix, strings
    fnv64, doubles hash their bit pattern) — the DuckDB twin compares
    raw values, so a collision would surface as an oracle mismatch
    (probability ≈ n²/2⁶⁵).

    All columns ride ONE exchange; nothing row-count-sized reaches the
    driver. At 100 TB the same plan holds — or flip the exact distinct
    to the mergeable HLL above when ±2 % suffices."""
    from ..functions.hashing import fnv64 as _fnv, splitmix64 as _sm

    cols = [
        "o_orderkey",
        "o_custkey",
        "o_orderstatus",
        "o_totalprice",
        "o_orderdate",
        "o_orderpriority",
    ]
    P = 32

    def _hash_col(col: pa.ChunkedArray) -> np.ndarray:
        col = col.combine_chunks()
        col = col.drop_null()
        t = col.type
        if pa.types.is_integer(t):
            return _sm(col.to_numpy(zero_copy_only=False).astype(np.uint64))
        if pa.types.is_timestamp(t):
            return _sm(
                pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint64)
            )
        if pa.types.is_floating(t):
            return _sm(
                col.to_numpy(zero_copy_only=False).astype(np.float64).view(np.uint64)
            )
        return _fnv(col)

    def partials(batch: pa.Table) -> pa.Table:
        names: list[str] = []
        hashes: list[np.ndarray] = []
        meta_rows = []
        for c in cols:
            col = batch[c]
            h = np.unique(_hash_col(col))
            names.append(c)
            hashes.append(h)
            meta_rows.append((c, batch.num_rows, col.null_count))
        name_arr = np.concatenate(
            [np.full(len(h), n, object) for n, h in zip(names, hashes)]
        )
        h = np.concatenate(hashes)
        pairs = pa.table(
            {
                "col_name": pa.array(name_arr, pa.string()),
                "h": pa.array(h),
                "n_rows": pa.array(np.zeros(len(h), np.int64)),
                "n_null": pa.array(np.zeros(len(h), np.int64)),
            }
        )
        meta = pa.table(
            {
                "col_name": pa.array([m[0] for m in meta_rows], pa.string()),
                "h": pa.array(np.zeros(len(meta_rows), np.uint64)),
                "n_rows": pa.array([m[1] for m in meta_rows], pa.int64()),
                "n_null": pa.array([m[2] for m in meta_rows], pa.int64()),
            }
        )
        return pa.concat_tables([pairs, meta])

    def fold_bucket(g: pa.Table) -> pa.Table:
        # a batch's row-count/null partial has n_rows ≥ 1 (a zero-row
        # batch never reaches the partials stage), a hash row n_rows = 0
        is_meta = pc.greater(g["n_rows"], 0)
        m = g.filter(is_meta).select(["col_name", "n_rows", "n_null"])
        m = m.group_by("col_name").aggregate([("n_rows", "sum"), ("n_null", "sum")])
        m = m.rename_columns(["col_name", "n_rows", "n_null"])
        t = g.filter(pc.invert(is_meta)).select(["col_name", "h"])
        t = t.group_by(["col_name", "h"]).aggregate([])
        d = t.select(["col_name"]).group_by("col_name").aggregate([([], "count_all")])
        zeros_m = pa.array(np.zeros(m.num_rows, np.int64))
        zeros_d = pa.array(np.zeros(d.num_rows, np.int64))
        return pa.concat_tables(
            [
                m.append_column("n_distinct", zeros_m),
                pa.table(
                    {
                        "col_name": d["col_name"],
                        "n_rows": zeros_d,
                        "n_null": zeros_d,
                        "n_distinct": pc.cast(d["count_all"], pa.int64()),
                    }
                ),
            ]
        )

    schema = pa.schema(
        [("col_name", pa.string())]
        + [(c, pa.int64()) for c in ("n_rows", "n_null", "n_distinct")]
    )
    df = (
        bucket_fold(
            read_table(sf_dir, "orders", cols), "h", partials, fold_bucket, schema, P,
            pinned=False,
        )
        .groupby("col_name")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_null", alias_name="n_null"),
            Sum("n_distinct", alias_name="n_distinct"),
        )
        .to_pandas()
    )
    df = ensure_columns(df, schema)
    for c in ("n_rows", "n_null", "n_distinct"):
        df[c] = df[c].astype("int64")
    return df.sort_values("col_name").reset_index(drop=True)


ORDERS_PROFILE_SQL = """
SELECT col_name, n_rows, n_null, n_distinct FROM (
  SELECT 'o_orderkey' AS col_name, count(*) AS n_rows,
         count(*) - count(o_orderkey) AS n_null,
         count(DISTINCT o_orderkey) AS n_distinct FROM orders
  UNION ALL
  SELECT 'o_custkey', count(*), count(*) - count(o_custkey),
         count(DISTINCT o_custkey) FROM orders
  UNION ALL
  SELECT 'o_orderstatus', count(*), count(*) - count(o_orderstatus),
         count(DISTINCT o_orderstatus) FROM orders
  UNION ALL
  SELECT 'o_totalprice', count(*), count(*) - count(o_totalprice),
         count(DISTINCT o_totalprice) FROM orders
  UNION ALL
  SELECT 'o_orderdate', count(*), count(*) - count(o_orderdate),
         count(DISTINCT o_orderdate) FROM orders
  UNION ALL
  SELECT 'o_orderpriority', count(*), count(*) - count(o_orderpriority),
         count(DISTINCT o_orderpriority) FROM orders
)
ORDER BY col_name
"""


# -------------------------------- exact grouped covariance (carry-split)

CARRY = 1_000_000_000  # base-10⁹ limb split for moments that outgrow int64


def _split_carry(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-level base-10⁹ limb split: v = hi·10⁹ + lo, both int64."""
    return v // CARRY, v % CARRY


def corr_qty_price(sf_dir: str) -> pd.DataFrame:
    """Exact second moments of (quantity, price) per l_returnflag —
    the grouped covariance/variance primitive, computed with EXACT
    integer arithmetic end to end so the reduction is order-independent
    and hash-matches the SQL twin bit for bit.

    The wide moments (Σy, Σxy, Σy²) outgrow int64 long before 100 TB
    (Σ price_e2² ≈ 7.4×10¹⁸ already at sf0.1), so each is carried as
    two int64 limbs base 10⁹: rows split limb-wise, per-batch partials
    renormalize the carry, the global groupby folds limbs with the
    native Sum, and the driver recombines exact Python ints — good to
    ~10⁹ blocks with no precision loss anywhere. Final statistics are
    integer floor expressions both here and in the DuckDB twin
    (HUGEINT there), so equality is exact, not approximate."""

    def partial(batch: pa.Table) -> pa.Table:
        # half_towards_infinity = DuckDB round(): keeps the oracle
        # equality exact even for values landing on .5
        x = pc.cast(
            pc.round(batch["l_quantity"], round_mode="half_towards_infinity"),
            pa.int64(),
        ).to_numpy(
            zero_copy_only=False
        )
        y = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64()
        ).to_numpy(zero_copy_only=False)
        y_hi, y_lo = _split_carry(y)
        xy_hi, xy_lo = _split_carry(x * y)
        y2 = y * y  # ≤1.3e14 per row — exact in int64 before the split
        y2_hi, y2_lo = _split_carry(y2)
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "sx": pa.array(x),
                "sx2": pa.array(x * x),
                "y_hi": pa.array(y_hi), "y_lo": pa.array(y_lo),
                "xy_hi": pa.array(xy_hi), "xy_lo": pa.array(xy_lo),
                "y2_hi": pa.array(y2_hi), "y2_lo": pa.array(y2_lo),
            }
        )
        g = t.group_by(["l_returnflag"]).aggregate(
            [("sx", "sum"), ("sx2", "sum"), ("y_hi", "sum"), ("y_lo", "sum"),
             ("xy_hi", "sum"), ("xy_lo", "sum"), ("y2_hi", "sum"),
             ("y2_lo", "sum"), ([], "count_all")]
        ).rename_columns(
            ["l_returnflag", "sx", "sx2", "y_hi", "y_lo", "xy_hi", "xy_lo",
             "y2_hi", "y2_lo", "n"]
        )
        # renormalize: keep lo < 10⁹ so the global fold of lo limbs
        # stays ≤ blocks·10⁹ ≪ 2⁶³
        out = {"l_returnflag": g["l_returnflag"], "n": g["n"],
               "sx": g["sx"], "sx2": g["sx2"]}
        for m in ("y", "xy", "y2"):
            lo = g[f"{m}_lo"].to_numpy(zero_copy_only=False)
            hi = g[f"{m}_hi"].to_numpy(zero_copy_only=False)
            out[f"{m}_hi"] = pa.array(hi + lo // CARRY)
            out[f"{m}_lo"] = pa.array(lo % CARRY)
        return pa.table(out)

    df = (
        read_table(sf_dir, "lineitem",
              ["l_returnflag", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sx2", alias_name="sx2"), Sum("y_hi", alias_name="y_hi"),
            Sum("y_lo", alias_name="y_lo"), Sum("xy_hi", alias_name="xy_hi"),
            Sum("xy_lo", alias_name="xy_lo"), Sum("y2_hi", alias_name="y2_hi"),
            Sum("y2_lo", alias_name="y2_lo"),
        )
        .to_pandas()
    )
    rows = []
    for r in df.itertuples(index=False):
        n, sx, sx2 = int(r.n), int(r.sx), int(r.sx2)
        sy = int(r.y_hi) * CARRY + int(r.y_lo)
        sxy = int(r.xy_hi) * CARRY + int(r.xy_lo)
        sy2 = int(r.y2_hi) * CARRY + int(r.y2_lo)
        rows.append(
            {
                "l_returnflag": r.l_returnflag,
                "n_rows": n,
                "sum_qty": sx,
                "sum_price_e2": sy,
                "cov_qp": (n * sxy - sx * sy) // (n * n),
                "var_q_e4": ((n * sx2 - sx * sx) * 10_000) // (n * n),
                "var_p": (n * sy2 - sy * sy) // (n * n),
            }
        )
    out = pd.DataFrame(
        rows,
        columns=["l_returnflag", "n_rows", "sum_qty", "sum_price_e2",
                 "cov_qp", "var_q_e4", "var_p"],
    )
    out = ensure_columns(
        out,
        {"l_returnflag": "object", "n_rows": "int64", "sum_qty": "int64",
         "sum_price_e2": "int64", "cov_qp": "int64", "var_q_e4": "int64",
         "var_p": "int64"},
    )
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


CORR_SQL = """
WITH m AS (
  SELECT l_returnflag,
         CAST(count(*) AS HUGEINT) AS n,
         SUM(CAST(round(l_quantity) AS HUGEINT)) AS sx,
         SUM(CAST(round(l_quantity) AS HUGEINT)
             * CAST(round(l_quantity) AS HUGEINT)) AS sx2,
         SUM(CAST(round(l_extendedprice*100) AS HUGEINT)) AS sy,
         SUM(CAST(round(l_quantity) AS HUGEINT)
             * CAST(round(l_extendedprice*100) AS HUGEINT)) AS sxy,
         SUM(CAST(round(l_extendedprice*100) AS HUGEINT)
             * CAST(round(l_extendedprice*100) AS HUGEINT)) AS sy2
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag,
       CAST(n AS BIGINT) AS n_rows,
       CAST(sx AS BIGINT) AS sum_qty,
       CAST(sy AS BIGINT) AS sum_price_e2,
       -- FLOOR division (Python // semantics; covariance can be
       -- negative, where DuckDB // truncates): subtract the positive
       -- mod first so the division is exact
       CAST((n*sxy - sx*sy
             - (((n*sxy - sx*sy) % (n*n)) + n*n) % (n*n))
            / (n*n) AS BIGINT) AS cov_qp,
       CAST(((n*sx2 - sx*sx) * 10000) // (n*n) AS BIGINT) AS var_q_e4,
       CAST((n*sy2 - sy*sy) // (n*n) AS BIGINT) AS var_p
FROM m ORDER BY l_returnflag
"""


# ---------------------------------- two-pass dependent statistic (MAD)


def orders_price_mad(sf_dir: str) -> pd.DataFrame:
    """Median absolute deviation of o_totalprice per order priority —
    the TWO-PASS DEPENDENT-STATISTIC shape: pass 1 computes the exact
    per-group median (the ``order_price_quantiles`` sort-free
    value-count plan), its 5-row result broadcasts into pass 2, which
    streams the same column again building value counts of
    |x − median(group)| and walks the weighted cumsum to the exact
    discrete median of deviations. Neither pass sorts the data or
    holds more than the bounded money domain per group; the dependency
    between passes is a driver-held 5-row table, not a shuffle.
    Discrete-quantile rule matches DuckDB ``quantile_disc``
    (index = max(⌈q·n⌉−1, 0)), so the twin is exact."""
    meds = order_price_quantiles(sf_dir)  # pass 1 (oracle-green plan)
    med_by_prio = dict(zip(meds["o_orderpriority"], meds["p50_e2"]))

    def partial(batch: pa.Table) -> pa.Table:
        price_e2 = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        prio = batch["o_orderpriority"].to_pandas()
        med = prio.map(med_by_prio).to_numpy(dtype=np.int64)
        dev = np.abs(price_e2 - med)
        t = pa.table(
            {"o_orderpriority": batch["o_orderpriority"],
             "dev_e2": pa.array(dev, pa.int64())}
        )
        g = t.group_by(["o_orderpriority", "dev_e2"]).aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["o_orderpriority", "dev_e2", "cnt"])

    def per_priority(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("dev_e2")
        v = g["dev_e2"].to_numpy()
        cum = np.cumsum(g["cnt"].to_numpy())
        n = int(cum[-1])
        target = max(math.ceil(0.5 * n), 1)
        mad = int(v[np.searchsorted(cum, target, side="left")])
        return pd.DataFrame(
            {"o_orderpriority": [g["o_orderpriority"].iloc[0]],
             "mad_e2": [mad], "n_orders": [n]}
        )

    df = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(per_priority, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"o_orderpriority": "object", "mad_e2": "int64", "n_orders": "int64"},
    )
    df = df.merge(
        meds[["o_orderpriority", "p50_e2"]], on="o_orderpriority", how="left"
    )
    for c in ("p50_e2", "mad_e2", "n_orders"):
        df[c] = df[c].astype("int64")
    return (
        df[["o_orderpriority", "p50_e2", "mad_e2", "n_orders"]]
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


PRICE_MAD_SQL = """
WITH px AS (
  SELECT o_orderpriority,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_e2
  FROM orders),
med AS (
  SELECT o_orderpriority,
         quantile_disc(price_e2, 0.5) AS p50_e2
  FROM px GROUP BY o_orderpriority)
SELECT px.o_orderpriority,
       CAST(med.p50_e2 AS BIGINT) AS p50_e2,
       CAST(quantile_disc(abs(px.price_e2 - med.p50_e2), 0.5) AS BIGINT)
         AS mad_e2,
       CAST(count(*) AS BIGINT) AS n_orders
FROM px JOIN med USING (o_orderpriority)
GROUP BY px.o_orderpriority, med.p50_e2
ORDER BY px.o_orderpriority
"""


# ------------------------------------------- robust outlier flagging

OUTLIER_K = 3  # |x - median| > K * MAD flags an outlier


def orders_price_outliers(sf_dir: str) -> pd.DataFrame:
    """Robust (median/MAD) outlier counting per order priority — the
    three-pass dependent-statistic shape: pass 1+2 are exactly
    ``orders_price_mad`` (per-group median, then median absolute
    deviation, both sort-free over the bounded money domain); their
    5-row result broadcasts into pass 3, one more stream over the
    price column counting rows with |x − med| > K·MAD per group via
    per-batch integer partial sums. This is the data-curation "robust
    quality gate": no pass sorts, no pass holds raw rows, and the
    inter-pass dependency is always a group-count-sized table."""
    stats = orders_price_mad(sf_dir)  # o_orderpriority, mad_e2, n_orders, p50_e2
    med_by = dict(zip(stats["o_orderpriority"], stats["p50_e2"]))
    mad_by = dict(zip(stats["o_orderpriority"], stats["mad_e2"]))

    def partial(batch: pa.Table) -> pa.Table:
        price_e2 = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        prio = batch["o_orderpriority"].to_pandas()
        med = prio.map(med_by).to_numpy(dtype=np.int64)
        mad = prio.map(mad_by).to_numpy(dtype=np.int64)
        flag = (np.abs(price_e2 - med) > OUTLIER_K * mad).astype(np.int64)
        t = pa.table(
            {"o_orderpriority": batch["o_orderpriority"],
             "n_outliers": pa.array(flag)}
        )
        return (
            t.group_by("o_orderpriority")
            .aggregate([("n_outliers", "sum")])
            .rename_columns(["o_orderpriority", "n_outliers"])
        )

    out = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_outliers", alias_name="n_outliers"))
        .to_pandas()
    )
    out = ensure_columns(
        out, {"o_orderpriority": "object", "n_outliers": "int64"}
    )
    df = stats.merge(out, on="o_orderpriority", how="left")
    df["n_outliers"] = df["n_outliers"].fillna(0).astype("int64")
    df = df[["o_orderpriority", "n_orders", "n_outliers", "p50_e2", "mad_e2"]]
    for c in ("n_orders", "n_outliers", "p50_e2", "mad_e2"):
        df[c] = df[c].astype("int64")
    return df.sort_values("o_orderpriority").reset_index(drop=True)


PRICE_OUTLIERS_SQL = f"""
WITH px AS (
  SELECT o_orderpriority,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_e2
  FROM orders),
med AS (
  SELECT o_orderpriority, quantile_disc(price_e2, 0.5) AS p50_e2
  FROM px GROUP BY o_orderpriority),
madt AS (
  SELECT px.o_orderpriority, med.p50_e2,
         quantile_disc(abs(px.price_e2 - med.p50_e2), 0.5) AS mad_e2
  FROM px JOIN med USING (o_orderpriority)
  GROUP BY px.o_orderpriority, med.p50_e2)
SELECT px.o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CASE WHEN abs(px.price_e2 - m.p50_e2) > {OUTLIER_K} * m.mad_e2
                THEN 1 ELSE 0 END)::BIGINT AS n_outliers,
       CAST(m.p50_e2 AS BIGINT) AS p50_e2,
       CAST(m.mad_e2 AS BIGINT) AS mad_e2
FROM px JOIN madt m USING (o_orderpriority)
GROUP BY px.o_orderpriority, m.p50_e2, m.mad_e2
ORDER BY px.o_orderpriority
"""


# ---------------------------------- chi-square independence (exact)


def events_chi2_type_dow(sf_dir: str) -> pd.DataFrame:
    """Chi-square independence statistic between event type and
    day-of-week — the data-drift / A-B sanity test, made EXACT by
    scoring each contingency cell as floor((O·N − R·C)² / (N·R·C))
    in unbounded Python integers (≡ (O−E)²/E with E = R·C/N, floored;
    the SQL twin floors identically on HUGEINT, where `//` truncation
    equals floor because the numerator is a square).

    Distributed shape: the contingency table builds with per-batch
    (type, dow) partial counts folding through one groups-sized
    groupby (≤ |types|·7 cells); the statistic is driver arithmetic on
    that tiny table. Nothing row-sized leaves the mappers."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False) // (
            86_400 * 1_000_000
        )
        dow = (day + 4) % 7  # epoch day 0 = Thursday; 0 = Sunday
        t = pa.table(
            {"event_type": batch["event_type"], "dow": pa.array(dow)}
        )
        return (
            t.group_by(["event_type", "dow"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "dow", "o"])
        )

    cells = (
        read_table(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "dow"])
        .aggregate(Sum("o", alias_name="o"))
        .to_pandas()
    )
    cells = ensure_columns(
        cells, {"event_type": "object", "dow": "int64", "o": "int64"}
    )
    if not len(cells):
        return pd.DataFrame(
            {
                "chi2_floor": pd.Series([], dtype="int64"),
                "n_cells": pd.Series([], dtype="int64"),
                "n_events": pd.Series([], dtype="int64"),
            }
        )
    n = int(cells["o"].sum())
    row_t = cells.groupby("event_type")["o"].sum().to_dict()
    col_t = cells.groupby("dow")["o"].sum().to_dict()
    chi2 = 0
    for _, cell in cells.iterrows():
        o, rt, ct = int(cell["o"]), int(row_t[cell["event_type"]]), int(col_t[cell["dow"]])
        chi2 += (o * n - rt * ct) ** 2 // (n * rt * ct)
    return pd.DataFrame(
        {
            "chi2_floor": pd.Series([chi2], dtype="int64"),
            "n_cells": pd.Series([len(cells)], dtype="int64"),
            "n_events": pd.Series([n], dtype="int64"),
        }
    )


CHI2_SQL = """
WITH cont AS (
  SELECT event_type, dayofweek(ts) AS dow, count(*)::BIGINT AS o
  FROM events GROUP BY 1, 2),
tot AS (SELECT sum(o)::HUGEINT AS n FROM cont),
r AS (SELECT event_type, sum(o)::HUGEINT AS rt FROM cont GROUP BY 1),
c AS (SELECT dow, sum(o)::HUGEINT AS ct FROM cont GROUP BY 1)
SELECT CAST(sum(
         (cont.o::HUGEINT * tot.n - r.rt * c.ct)
           * (cont.o::HUGEINT * tot.n - r.rt * c.ct)
           // (tot.n * r.rt * c.ct)) AS BIGINT) AS chi2_floor,
       count(*)::BIGINT AS n_cells,
       CAST(max(tot.n) AS BIGINT) AS n_events
FROM cont
CROSS JOIN tot
JOIN r USING (event_type)
JOIN c USING (dow)
"""


# ------------------------------------------------- count-min sketch


def cms_event_counts(sf_dir: str) -> pd.DataFrame:
    """Per-type event counts answered from a COUNT-MIN SKETCH — the
    fixed-size frequency summary (Cormode–Muthukrishnan 2005) that
    completes the mergeable-sketch family (HLL distinct, Misra–Gries
    heavy hitters, bottom-k quantiles): every block folds its keys
    into one d×w counter matrix, the driver element-wise-adds the
    block partials (nothing key-cardinality-sized moves), and point
    queries read min-of-d counters.

    The estimate is one-sided (never under); with 5 distinct types
    against a 4×4096 deterministic-hash matrix the estimates are exact
    on this corpus — which is what lets the oracle pair with the plain
    GROUP BY twin while the same code degrades to a bounded
    ε·N = (e/w)·N overestimate at any cardinality. The key LIST comes
    from a distinct pass (type-cardinality-sized); the counts come
    from the sketch."""
    from ..state.cms import CountMin

    def partial(batch: pa.Table) -> pa.Table:
        sk = CountMin()
        sk.update(batch["event_type"])
        return pa.table({"sk": pa.array([sk.to_bytes()], pa.binary())})

    parts = (
        read_table(sf_dir, "events", ["event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    keys = (
        read_table(sf_dir, "events", ["event_type"]).unique("event_type") or []
    )
    keys = sorted(keys)
    if not len(parts) or not keys:
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype="object"),
                "n_events": pd.Series([], dtype="int64"),
            }
        )
    sk = CountMin.from_bytes(parts["sk"].iloc[0])
    for raw in parts["sk"].iloc[1:]:
        sk.merge(CountMin.from_bytes(raw))
    est = sk.query(pa.array(keys, pa.string()))
    return pd.DataFrame(
        {
            "event_type": pd.Series(keys, dtype="object"),
            "n_events": pd.Series(est, dtype="int64"),
        }
    )


CMS_COUNTS_SQL = """
SELECT event_type, count(*)::BIGINT AS n_events
FROM events GROUP BY event_type ORDER BY event_type
"""


# ------------------------------------------------- hyperloglog


def _hll_day_sketches(sf_dir: str) -> pd.DataFrame:
    """ONE scan → one folded HyperLogLog per active day (day int64,
    sk bytes): per-block per-day register partials, merged by a
    day-keyed groupby (element-wise max — idempotent under task
    retries). Both daily and rolling distinct-user queries read these
    sketches; the rolling one re-merges them per window WITHOUT
    touching events again — the whole point of a mergeable sketch."""
    from ..state.hll import HyperLogLog
    from .windows import _day_nums

    def partial(batch: pa.Table) -> pa.Table:
        days = _day_nums(batch["ts"])
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(days, kind="stable")
        d = days[order]
        u = users[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]]) if len(d) else np.array([], np.int64)
        ends = np.r_[starts[1:], len(d)] if len(starts) else np.array([], np.int64)
        out_day, out_sk = [], []
        for s, e in zip(starts, ends):
            out_day.append(int(d[s]))
            out_sk.append(HyperLogLog().update(u[s:e]).to_bytes())
        return pa.table(
            {
                "day": pa.array(out_day, pa.int64()),
                "sk": pa.array(out_sk, pa.binary()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        blobs = group["sk"].to_pylist()
        sk = HyperLogLog.from_bytes(blobs[0])
        for raw in blobs[1:]:
            sk.merge(HyperLogLog.from_bytes(raw))
        return pa.table(
            {
                "day": group["day"].slice(0, 1),
                "sk": pa.array([sk.to_bytes()], pa.binary()),
            }
        )

    df = (
        read_table(sf_dir, "events", ["ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .map_groups(fold, batch_format="pyarrow")
        .to_pandas()
    )
    df = ensure_columns(df, {"day": "int64", "sk": "object"})
    return df.sort_values("day").reset_index(drop=True)


def hll_daily_users(sf_dir: str) -> pd.DataFrame:
    """Distinct users per day answered from per-block HYPERLOGLOG
    partials (Flajolet et al. 2007, ``state/hll.py``) — the
    approximate scale path beside the exact ``distinct_users_daily``
    family: an exact windowed distinct moves every (day, user) pair
    through an all-to-all, while this moves one 16 KB register array
    per (block, day) regardless of event volume, and the per-day merge
    is an element-wise max (idempotent — safe under task retries).

    Approximate by design (rel. std. err. 1.04/√m ≈ 0.8% at p = 14;
    near-exact in the linear-counting regime the test corpus sits in),
    so there is deliberately NO SQL twin — the pytest suite pins the
    error envelope against the exact count and the layout-invariance /
    merge-associativity contracts instead (the CMS/heavy-hitter
    pattern)."""
    from ..state.hll import HyperLogLog
    from .windows import _fmt_days

    df = _hll_day_sketches(sf_dir)
    return pd.DataFrame(
        {
            "day": pd.Series(_fmt_days(df["day"]), dtype="object"),
            "n_users_est": pd.Series(
                [HyperLogLog.from_bytes(b).estimate() for b in df["sk"]],
                dtype="int64",
            ),
        }
    )


def hll_rolling_users(sf_dir: str) -> pd.DataFrame:
    """Trailing-7-day distinct users per calendar day from the SAME
    per-day sketches ``hll_daily_users`` folds — each window is a merge
    of ≤7 register arrays, so the events table is scanned ONCE for the
    whole rolling series (the exact counterpart
    ``windows.rolling_distinct_users`` must expand every (day, user)
    pair 7×; at 100 TB the sketch path's window cost is
    days × 16 KB, independent of event volume). Mirrors the exact
    query's calendar densification: days inside [min, max] with no
    active users still emit (estimate 0). Rows-only (approximate);
    pytest pins the envelope against the exact rolling counts."""
    from ..state.hll import HyperLogLog
    from .windows import TRAIL_DAYS, _fmt_days

    df = _hll_day_sketches(sf_dir)
    if len(df) == 0:
        return pd.DataFrame(
            {"day": pd.Series([], dtype="object"),
             "n_users_7d_est": pd.Series([], dtype="int64")}
        )
    by_day = dict(zip(df["day"].tolist(), df["sk"].tolist()))
    d0, d1 = int(df["day"].min()), int(df["day"].max())
    days = np.arange(d0, d1 + 1, dtype=np.int64)
    ests = []
    for day in days:
        sk = None
        for past in range(TRAIL_DAYS):
            raw = by_day.get(int(day) - past)
            if raw is None:
                continue
            part = HyperLogLog.from_bytes(raw)
            sk = part if sk is None else sk.merge(part)
        ests.append(sk.estimate() if sk is not None else 0)
    return pd.DataFrame(
        {
            "day": pd.Series(_fmt_days(days), dtype="object"),
            "n_users_7d_est": pd.Series(ests, dtype="int64"),
        }
    )


def hll_set_ops(sf_dir: str) -> pd.DataFrame:
    """HLL SET ALGEBRA — distinct-user overlap between two behaviors
    ('click' vs 'purchase') computed entirely from three fixed-size
    sketches: |A|, |B| from per-type register merges and |A∪B| from
    merging the SAME partials once more (union is the sketch's native
    operation), then |A∩B| = |A| + |B| − |A∪B| by inclusion–exclusion.
    An exact overlap is a distinct on the full (user, type) key space —
    two all-to-alls; this moves 3 × 16 KB of registers total, at any
    corpus size, and reuses ONE scan's per-(block, type) partials for
    all four numbers.

    Approximate by design → rows-only (no SQL twin): the intersection
    inherits the union's absolute error, so small overlaps are noisy —
    the pytest battery pins the error envelope against the exact
    counts, and clamps are asserted (estimate never negative, never
    above min(|A|, |B|))."""
    from ..state.hll import HyperLogLog

    KINDS = ("click", "purchase")

    def partial(batch: pa.Table) -> pa.Table:
        kinds = np.asarray(batch["event_type"].to_pylist())
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        out_k, out_sk = [], []
        for k in KINDS:
            sel = kinds == k
            if sel.any():
                out_k.append(k)
                out_sk.append(HyperLogLog().update(users[sel]).to_bytes())
        return pa.table(
            {"kind": pa.array(out_k, pa.string()),
             "sk": pa.array(out_sk, pa.binary())}
        )

    def fold(group: pa.Table) -> pa.Table:
        blobs = group["sk"].to_pylist()
        sk = HyperLogLog.from_bytes(blobs[0])
        for raw in blobs[1:]:
            sk.merge(HyperLogLog.from_bytes(raw))
        return pa.table(
            {"kind": group["kind"].slice(0, 1),
             "sk": pa.array([sk.to_bytes()], pa.binary())}
        )

    per_kind = (
        read_table(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("kind")
        .map_groups(fold, batch_format="pyarrow")
        .to_pandas()
    )
    per_kind = ensure_columns(per_kind, {"kind": "object", "sk": "object"})
    sketches = {
        r["kind"]: HyperLogLog.from_bytes(r["sk"]) for _, r in per_kind.iterrows()
    }
    n_a = sketches[KINDS[0]].estimate() if KINDS[0] in sketches else 0
    n_b = sketches[KINDS[1]].estimate() if KINDS[1] in sketches else 0
    if len(sketches) == 2:
        union_sk = HyperLogLog.from_bytes(sketches[KINDS[0]].to_bytes()).merge(
            sketches[KINDS[1]]
        )
        n_union = union_sk.estimate()
    else:
        n_union = max(n_a, n_b)
    # inclusion–exclusion, clamped to the lattice bounds
    n_both = min(max(n_a + n_b - n_union, 0), n_a, n_b)
    return pd.DataFrame(
        {
            "metric": pd.Series(
                ["n_click", "n_purchase", "n_union", "n_both"], dtype="object"
            ),
            "est_users": pd.Series(
                [n_a, n_b, n_union, n_both], dtype="int64"
            ),
        }
    )


def orders_cume_dist(sf_dir: str) -> pd.DataFrame:
    """Exact CUME_DIST over order prices within each priority WITHOUT
    a global sort: the ``order_price_quantiles`` histogram posture —
    per-batch (priority, price) value-count partials, one groupby
    keyed by the 5-value priority column, then a per-key fold that
    pre-folds repeated prices and walks ONE cumsum. The ratio is
    emitted as exact integers (n_le / n_total) rather than a float so
    the oracle hash can't drift on division. The shuffle moves
    Σ min(batch, domain) partial rows — money domains are bounded, so
    the per-key slice is O(domain), never O(orders)."""

    def partial(batch: pa.Table) -> pa.Table:
        price_e2 = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        t = pa.table(
            {"o_orderpriority": batch["o_orderpriority"], "price_e2": price_e2}
        )
        g = t.group_by(["o_orderpriority", "price_e2"]).aggregate([([], "count_all")])
        return g.rename_columns(["o_orderpriority", "price_e2", "cnt"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        f = (
            g.groupby("price_e2", as_index=False)["cnt"]
            .sum()
            .sort_values("price_e2")
        )
        n_le = f["cnt"].to_numpy().cumsum()
        return pd.DataFrame(
            {
                "o_orderpriority": g["o_orderpriority"].iloc[0],
                "price_e2": f["price_e2"].to_numpy(),
                "n_le": n_le,
                "n_total": np.full(len(f), n_le[-1] if len(f) else 0),
            }
        )

    df = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"o_orderpriority": "object", "price_e2": "int64",
         "n_le": "int64", "n_total": "int64"},
    )
    for c in ("price_e2", "n_le", "n_total"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["o_orderpriority", "price_e2"]).reset_index(drop=True)


CUME_DIST_SQL = """
WITH v AS (
    SELECT o_orderpriority,
           CAST(round(o_totalprice * 100) AS BIGINT) AS price_e2,
           count(*) AS cnt
    FROM orders GROUP BY o_orderpriority, price_e2
)
SELECT o_orderpriority, price_e2,
       CAST(sum(cnt) OVER (PARTITION BY o_orderpriority ORDER BY price_e2
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS n_le,
       CAST(sum(cnt) OVER (PARTITION BY o_orderpriority) AS BIGINT) AS n_total
FROM v
ORDER BY o_orderpriority, price_e2
"""


def order_price_median2p(sf_dir: str) -> pd.DataFrame:
    """Exact p50 per priority for UNBOUNDED value domains in exactly
    TWO streaming passes — the scale path the ``order_price_quantiles``
    docstring names as its fallback: that operator shuffles one partial
    row per DISTINCT value (O(domain)); this one is O(2¹⁶) regardless
    of domain width.

    Pass 1: per-batch counts into 2¹⁶ COARSE buckets spanning the
    observed [min, max] (driver gets min/max from one tiny aggregate
    over the same partials — no extra scan: each batch emits its local
    min/max beside its histogram cells). The driver's cumsum locates,
    per priority, the single coarse bucket containing the p50 rank and
    how many values precede it. Pass 2: stream-filter ONLY values
    inside that bucket per priority (a bucket holds n/2¹⁶ of the data
    in expectation) and select the (rank − below)-th smallest exactly.

    Matches DuckDB ``quantile_disc(…, 0.5)`` exactly (both sides rank
    with ⌈0.5·n⌉)."""
    from ray.data.aggregate import Max, Min, Sum

    def cells(batch: pa.Table) -> pa.Table:
        price_e2 = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        t = pa.table(
            {"prio": batch["o_orderpriority"], "v": price_e2}
        )
        g = t.group_by(["prio", "v"]).aggregate([([], "count_all")])
        # local min/max ride along as extra columns; Min/Max fold them
        return pa.table(
            {
                "prio": g["prio"],
                "v": g["v"],
                "cnt": g["count_all"],
            }
        )

    # ONE raw scan, pinned as per-batch value-count cells (already ≪
    # raw rows); the coarse histogram AND the pinpoint filter both
    # read these cells, so no second pass over storage happens at all
    base = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(cells, batch_format="pyarrow")
        .materialize()
    )
    bounds = base.aggregate(Min("v"), Max("v"))
    if not bounds or bounds.get("min(v)") is None:
        return pd.DataFrame(
            {"o_orderpriority": pd.Series([], dtype="object"),
             "p50_e2": pd.Series([], dtype="int64")}
        )
    lo, hi = int(bounds["min(v)"]), int(bounds["max(v)"])
    width = max((hi - lo) // 65536 + 1, 1)

    def coarse(batch: pa.Table) -> pa.Table:
        b = pc.divide(pc.subtract(batch["v"], pa.scalar(lo, pa.int64())),
                      pa.scalar(width, pa.int64()))
        t = pa.table({"prio": batch["prio"], "b": b, "cnt": batch["cnt"]})
        g = t.group_by(["prio", "b"]).aggregate([("cnt", "sum")])
        return g.rename_columns(["prio", "b", "cnt"])

    hist = (
        base.map_batches(coarse, batch_format="pyarrow")
        .groupby("prio")
        .map_groups(
            lambda g: g.groupby("b", as_index=False)
            .agg(prio=("prio", "first"), cnt=("cnt", "sum"))
            .sort_values("b"),
            batch_format="pandas",
        )
        .to_pandas()
    )
    hist = ensure_columns(hist, {"b": "int64", "prio": "object", "cnt": "int64"})
    targets = {}
    for prio, g in hist.groupby("prio"):
        n = int(g["cnt"].sum())
        rank = max(math.ceil(0.5 * n), 1)
        cum = g["cnt"].cumsum()
        i = int(np.searchsorted(cum.to_numpy(), rank, side="left"))
        bucket = int(g["b"].iloc[i])
        below = int(cum.iloc[i - 1]) if i else 0
        targets[prio] = (bucket, rank - below)

    # pass 2: only the target bucket's values survive the filter
    def pinpoint(batch: pa.Table) -> pa.Table:
        keep_b = np.array(
            [targets[p][0] if p in targets else -1
             for p in batch["prio"].to_pylist()],
            dtype=np.int64,
        )
        b = ((batch["v"].to_numpy(zero_copy_only=False) - lo) // width)
        return batch.filter(pa.array(b == keep_b))

    fine = base.map_batches(pinpoint, batch_format="pyarrow").to_pandas()
    fine = ensure_columns(fine, {"prio": "object", "v": "int64", "cnt": "int64"})
    out_rows = []
    for prio, g in fine.groupby("prio"):
        g = g.groupby("v", as_index=False)["cnt"].sum().sort_values("v")
        need = targets[prio][1]
        cum = g["cnt"].cumsum().to_numpy()
        out_rows.append(
            (prio, int(g["v"].to_numpy()[np.searchsorted(cum, need, side="left")]))
        )
    out = pd.DataFrame(out_rows, columns=["o_orderpriority", "p50_e2"])
    out["p50_e2"] = out["p50_e2"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


MEDIAN2P_SQL = """
SELECT o_orderpriority,
       CAST(quantile_disc(CAST(round(o_totalprice * 100) AS BIGINT), 0.5)
            AS BIGINT) AS p50_e2
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ------------------------------------- self-join size / F2 moment


def user_selfjoin_size(sf_dir: str) -> pd.DataFrame:
    """EXACT self-join size of events on user_id — the second
    frequency moment F2 = Σ_u f(u)² (Alon–Matias–Szegedy 1996), the
    number a planner needs before sizing ``events ⋈ events`` and the
    classic skew indicator (F2/N = average join fan-out).

    Distributed: per-batch (user, n) count partials → ONE user-keyed
    exchange → per-bucket combine + f² fold. Each f² fits int64
    (f < 2³¹ per user), but Σf² outgrows int64 at corpus scale, so the
    per-bucket partial carries Sum128 limbs (functions/limbs.py) and
    the driver recombines exact Python ints over the P bucket rows."""
    from ..functions.limbs import CARRY

    def local(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(u, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(uniq.astype(np.int64)),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        u = part["user_id"].to_numpy(zero_copy_only=False)
        n = part["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        u_s, n_s = u[order], n[order]
        heads = np.flatnonzero(np.r_[True, u_s[1:] != u_s[:-1]])
        f = np.add.reduceat(n_s, heads)  # true per-user counts
        sq = f.astype(np.int64) ** 2
        return pa.table(
            {
                "n_events": pa.array([int(f.sum())], pa.int64()),
                "n_users": pa.array([len(heads)], pa.int64()),
                "f2_hi": pa.array([int((sq // CARRY).sum())], pa.int64()),
                "f2_lo": pa.array([int((sq % CARRY).sum())], pa.int64()),
                "max_f": pa.array([int(f.max())], pa.int64()),
            }
        )

    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id"]), "user_id", local, per_bucket,
        pa.schema(
            [(c, pa.int64())
             for c in ("n_events", "n_users", "f2_hi", "f2_lo", "max_f")]
        ),
        JOIN_PARTITIONS,
    ).to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "n_events": pd.Series([0], dtype="int64"),
                "n_users": pd.Series([0], dtype="int64"),
                "selfjoin_size": pd.Series([0], dtype="int64"),
                "max_f": pd.Series([0], dtype="int64"),
            }
        )
    f2 = int(df["f2_hi"].astype(object).sum()) * CARRY + int(
        df["f2_lo"].astype(object).sum()
    )
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(df["n_events"].sum())], dtype="int64"),
            "n_users": pd.Series([int(df["n_users"].sum())], dtype="int64"),
            "selfjoin_size": pd.Series([f2], dtype="int64"),
            "max_f": pd.Series([int(df["max_f"].max())], dtype="int64"),
        }
    )


SELFJOIN_SQL = """
WITH f AS (SELECT user_id, count(*)::BIGINT AS n FROM events GROUP BY 1)
SELECT coalesce(sum(n), 0)::BIGINT AS n_events,
       count(*)::BIGINT AS n_users,
       coalesce(sum(n * n), 0)::BIGINT AS selfjoin_size,
       coalesce(max(n), 0)::BIGINT AS max_f
FROM f
"""


def user_event_diversity(sf_dir: str) -> pd.DataFrame:
    """Per-user Gini–Simpson diversity of event types in EXACT integer
    basis points: ``div_bp = ⌊10⁴·(N² − Σ_t n_t²) / N²⌋`` where n_t is
    the user's count of type t — the behavioral-diversity /
    label-balance curation signal (0 = single-type user, approaching
    10⁴·(1 − 1/T) as the mix evens out). Chosen over Shannon entropy
    because it is purely RATIONAL: no transcendental ln means the
    DuckDB twin matches bit-exactly under the repo's integer-result
    discipline, with the same ranking power.

    Distributed shape (the ``user_selfjoin_size`` pattern at per-user
    grain): per-batch (user, type) count partials → ONE user-keyed
    exchange → per-bucket combine + segmented Σn² fold; only (users)
    rows leave the buckets. ``10⁴·N²`` stays under int64 to ~3·10⁷
    events per user; beyond that the fold would carry Sum128 limbs
    like ``user_selfjoin_size``."""

    def local(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"user_id": batch["user_id"], "event_type": batch["event_type"]}
        )
        g = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "n"])

    def per_bucket(part: pa.Table) -> pa.Table:
        g = part.group_by(["user_id", "event_type"]).aggregate([("n", "sum")])
        u = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = g["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(u, kind="stable")
        u_s, n_s = u[order], cnt[order]
        heads = np.flatnonzero(np.r_[True, u_s[1:] != u_s[:-1]])
        total = np.add.reduceat(n_s, heads)
        s2 = np.add.reduceat(n_s * n_s, heads)
        n_types = np.diff(np.r_[heads, len(u_s)]).astype(np.int64)
        div = (10_000 * (total * total - s2)) // (total * total)
        return pa.table(
            {
                "user_id": pa.array(u_s[heads]),
                "n_events": pa.array(total),
                "n_types": pa.array(n_types),
                "div_bp": pa.array(div),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n_events", "n_types", "div_bp")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "event_type"]),
        "user_id", local, per_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


DIVERSITY_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
u AS (
  SELECT user_id, sum(n)::BIGINT AS n_events, count(*)::BIGINT AS n_types,
         sum(n * n)::BIGINT AS s2
  FROM c GROUP BY 1)
SELECT user_id, n_events, n_types,
       CAST((10000 * (n_events * n_events - s2))
            // (n_events * n_events) AS BIGINT) AS div_bp
FROM u ORDER BY user_id
"""


def selfjoin_size_cms(sf_dir: str) -> pd.DataFrame:
    """Self-join size ESTIMATED from the Count-Min inner product
    (min over rows of Σ_w table[i,w]²) next to the exact F2 — the
    streaming estimator a planner uses when the key histogram is too
    big to fold exactly. One-sided: estimate ≥ exact always; within
    exact + ε·N² (ε = e/width) with high probability (pinned by
    pytest on the fixed seeded hash family). Rows-only by design:
    sketch estimates have no SQL twin."""
    from ..state.cms import CountMin

    def partial(batch: pa.Table) -> pa.Table:
        sk = CountMin()
        sk.update(batch["user_id"])
        return pa.table({"sk": pa.array([sk.to_bytes()], pa.binary())})

    parts = (
        read_table(sf_dir, "events", ["user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    exact = int(user_selfjoin_size(sf_dir)["selfjoin_size"].iloc[0])
    if not len(parts):
        return pd.DataFrame(
            {
                "exact_f2": pd.Series([0], dtype="int64"),
                "cms_estimate": pd.Series([0], dtype="int64"),
                "bound": pd.Series([0], dtype="int64"),
            }
        )
    sk = CountMin.from_bytes(parts["sk"].iloc[0])
    for raw in parts["sk"].iloc[1:]:
        sk.merge(CountMin.from_bytes(raw))
    est = int(min(int((row.astype(object) ** 2).sum()) for row in sk.table))
    bound = exact + int(math.e / sk.width * sk.n * sk.n)
    return pd.DataFrame(
        {
            "exact_f2": pd.Series([exact], dtype="int64"),
            "cms_estimate": pd.Series([est], dtype="int64"),
            "bound": pd.Series([bound], dtype="int64"),
        }
    )
