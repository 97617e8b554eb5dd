"""Relational operator pipelines over the TPC-H-ish testdata tables.

Each function takes ``sf_dir`` and returns a small result (pandas) —
these are the oracle-checked demonstrations of the engine's relational
operator set (SURVEY §2.7): vectorized filter/project, partial
aggregation before the groupby shuffle, broadcast small-side joins,
sort/limit top-k, windowed/sessionized per-key processing.

Scale notes baked into every query:
- reads prune columns (``read_parquet(columns=...)``);
- per-batch PARTIAL aggregation (pyarrow ``Table.group_by``) shrinks
  the shuffle input from N rows to (#groups × #blocks) rows before the
  Ray ``groupby`` — the combiner pattern the ray_guide prescribes;
- TRUE dimension tables (nation: 25 rows, part brands) are broadcast
  via ``ray.put`` and joined with dict/np lookups inside
  ``map_batches``; dataset-scale sides (orders, customer) go through
  the bucketed hash-partitioned shuffle join in ``joins.py`` — nothing
  O(dataset) is ever materialized on the driver (q3/q5/q10).

Float columns are rounded identically in the SQL oracles; all money
sums round to 2 decimals, averages to 4.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
from ray.data.aggregate import Count, Sum

from ..functions.frames import ensure_columns
from ..functions.limbs import (
    CARRY as LIMB_CARRY,
    limb_ray_aggs,
    limb_sums,
    limbify,
    recombine_limbs,
    renorm_limbs,
    split_limbs,
)
from ..functions.segments import bincount_i64
from ..io import read_table
from .joins import bucket_fold


def _rename(t: pa.Table, mapping: dict[str, str]) -> pa.Table:
    return t.rename_columns([mapping.get(c, c) for c in t.column_names])


def _rev_e4(batch: pa.Table) -> pa.Array:
    """``l_extendedprice·(1−l_discount)`` as an EXACT ×10⁴ int64:
    both money columns are 2-decimal, so ``cents × (100 − disc_pct)``
    is integer arithmetic — revenue sums are bit-identical under any
    block layout / reduction order (the float-drift class that broke
    part_brand_stats can't recur)."""
    cents = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64())
    disc = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)), pa.int64())
    return pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))


JOIN_PARTITIONS = 16  # ≈ test-box cores/2; ∝ cluster size at scale


# --------------------------------------------------------------------- Q1


def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: filter → derived cols → partial agg → groupby.

    INTEGER-EXACT throughout: money is 2-decimal and tax/discount are
    2-decimal fractions, so disc_price is exact at ×10⁴ and charge at
    ×10⁶ in int64 — sums are bit-identical under any block layout
    (the float-boundary class that can flake a round(,2) comparison
    cannot occur). Averages are floor-divided ×10⁴ integers, mirrored
    exactly in the SQL twin (positive values: ``//`` ≡ floor on both
    sides). The wide ×10⁴/×10⁶ money sums (charge_e6 outgrows int64
    around SF 15) fold as Sum128 two-limb integers
    (``functions.limbs``), so the reduction is exact at any scale."""
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"), type=pa.timestamp("us"))

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        i64 = pa.int64()
        qty = pc.cast(pc.round(batch["l_quantity"]), i64)
        cents = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), i64)
        disc = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)), i64)
        tax = pc.cast(pc.round(pc.multiply(batch["l_tax"], 100.0)), i64)
        disc_e4 = pc.multiply(cents, pc.subtract(pa.scalar(100, i64), disc))
        charge_e6 = pc.multiply(disc_e4, pc.add(pa.scalar(100, i64), tax))
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": qty,
                "base_e2": cents,
                "disc_e4": disc_e4,
                "charge_e6": charge_e6,
                "discount_e2": disc,
            }
        )
        t = limbify(t, ["disc_e4", "charge_e6"])
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("qty", "sum"),
                ("base_e2", "sum"),
                *limb_sums(["disc_e4", "charge_e6"]),
                ("discount_e2", "sum"),
                ([], "count_all"),
            ]
        )
        return renorm_limbs(g, ["disc_e4", "charge_e6"])

    ds = read_table(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    partial = ds.map_batches(prep, batch_format="pyarrow")
    final = partial.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty_sum", alias_name="sum_qty"),
        Sum("base_e2_sum", alias_name="sum_base_price_e2"),
        *limb_ray_aggs(["disc_e4", "charge_e6"]),
        Sum("discount_e2_sum", alias_name="sum_disc_e2"),
        Sum("count_all", alias_name="count_order"),
    )
    df = ensure_columns(
        final.to_pandas(),
        {"l_returnflag": "object", "l_linestatus": "object",
         "sum_qty": "int64", "sum_base_price_e2": "int64",
         "disc_e4_hi": "int64", "disc_e4_lo": "int64",
         "charge_e6_hi": "int64", "charge_e6_lo": "int64",
         "sum_disc_e2": "int64", "count_order": "int64"},
    ).sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    df = recombine_limbs(df, ["disc_e4", "charge_e6"])
    df = df.rename(
        columns={
            "disc_e4": "sum_disc_price_e4",
            "charge_e6": "sum_charge_e6",
        }
    )
    n = df["count_order"].astype("int64")
    df["avg_qty_e4"] = (df["sum_qty"].astype("int64") * 10_000) // n
    df["avg_price_e4"] = df["sum_base_price_e2"].astype("int64") * 100 // n
    df["avg_disc_e4"] = df["sum_disc_e2"].astype("int64") * 100 // n
    for c in df.columns:
        if c not in ("l_returnflag", "l_linestatus"):
            df[c] = df[c].astype("int64")
    return df.drop(columns=["sum_disc_e2"])


Q1_SQL = """
WITH t AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity) AS BIGINT) AS qty,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS base_e2,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS disc_e4,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))
           * (100 + CAST(round(l_tax * 100) AS BIGINT)) AS charge_e6,
         CAST(round(l_discount * 100) AS BIGINT) AS discount_e2
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02')
SELECT l_returnflag, l_linestatus,
       sum(qty)::BIGINT AS sum_qty,
       sum(base_e2)::BIGINT AS sum_base_price_e2,
       sum(disc_e4)::BIGINT AS sum_disc_price_e4,
       sum(charge_e6)::BIGINT AS sum_charge_e6,
       CAST(sum(qty) * 10000 // count(*) AS BIGINT) AS avg_qty_e4,
       CAST(sum(base_e2) * 100 // count(*) AS BIGINT) AS avg_price_e4,
       CAST(sum(discount_e2) * 100 // count(*) AS BIGINT) AS avg_disc_e4,
       count(*)::BIGINT AS count_order
FROM t
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# --------------------------------------------------------------------- Q3


def q3_top_orders(sf_dir: str) -> pd.DataFrame:
    """Bucketed-shuffle-join shape: no driver-side dict of any
    dataset-scale table. lineitem partial-aggregates revenue per
    orderkey per batch; the per-key combine happens INSIDE the join's
    hash partitions (``left_agg``) — one shuffle, not two. customer
    semi-joins orders the same way, with a BLOOM SEMI-JOIN PUSHDOWN:
    the BUILDING slice is selective (~1/5 of customers), so a
    distributed bloom of its custkeys prunes orders before the
    exchange — only candidate orders enter the all-to-all. Final
    top-10 is per-block local top-k merged on the driver."""
    from .joins import auto_join, hash_join

    cutoff = pa.scalar(np.datetime64("1997-01-01", "us"), type=pa.timestamp("us"))

    def building_only(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["c_mktsegment"], "BUILDING"))
        return batch.select(["c_custkey"])

    def orders_window(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        return batch.select(["o_orderkey", "o_custkey", "o_orderdate"])

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        building_only, batch_format="pyarrow"
    )
    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_window, batch_format="pyarrow")
    # semi-join against the BUILDING slice: safe to broadcast (the
    # downstream join re-keys by orderkey); above the gate the bloom
    # semi-join pushdown engages in the bucketed fallback
    ord_b = auto_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                     ("o_orderdate", pa.timestamp("us"))],
        right_schema=[("c_custkey", pa.int64())],
        bloom_prune_left=True,
    ).select_columns(["o_orderkey", "o_orderdate"])

    def li_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        t = pa.table({"o_orderkey": batch["l_orderkey"], "rev": _rev_e4(batch)})
        return _rename(
            t.group_by("o_orderkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    def combine_by_key(t: pa.Table) -> pa.Table:
        return _rename(
            t.group_by("o_orderkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(
        li, ord_b, on="o_orderkey", num_partitions=JOIN_PARTITIONS,
        left_agg=combine_by_key,
        left_schema=[("o_orderkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))],
    )

    def local_top(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch["o_orderkey"],
                "revenue_e4": batch["rev"],
                "o_orderdate": batch["o_orderdate"],
            }
        )
        t = t.sort_by([("revenue_e4", "descending"), ("l_orderkey", "ascending")])
        return t.slice(0, 10)

    df = joined.map_batches(local_top, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df,
        {"l_orderkey": "int64", "revenue_e4": "int64",
         "o_orderdate": "datetime64[us]"},
    )
    return (
        df.sort_values(["revenue_e4", "l_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )


Q3_SQL = """
SELECT l_orderkey,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4,
       any_value(o_orderdate) AS o_orderdate
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1997-01-01'
  AND l_shipdate > TIMESTAMP '1997-01-01'
GROUP BY l_orderkey
ORDER BY revenue_e4 DESC, l_orderkey
LIMIT 10
"""


# --------------------------------------------------------------------- Q5


def q5_nation_revenue(sf_dir: str) -> pd.DataFrame:
    """lineitem⋈orders⋈customer via two ``auto_join`` hops; nation
    (25 rows) is always broadcast. At bench scale customer and the
    orders→nation projection both fit the broadcast gate, so the whole
    chain is map-side over one lineitem scan; above 64 MB each hop
    flips to the bucketed shuffle join. Safe because the post-join
    per-nation limb folds re-aggregate (no key-complete-partition
    assumption). No driver-side dict of orders or customer anywhere."""
    from .joins import auto_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nat_name = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ord_nat = auto_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("o_orderkey", pa.int64()), ("o_custkey", pa.int64())],
        right_schema=[("c_custkey", pa.int64()), ("c_nationkey", pa.int64())],
    ).select_columns(["o_orderkey", "c_nationkey"])

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": batch["l_orderkey"], "rev": _rev_e4(batch)})
        return _rename(
            t.group_by("o_orderkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow"
    )
    joined = auto_join(
        li, ord_nat, on="o_orderkey", num_partitions=JOIN_PARTITIONS,
        left_schema=[("o_orderkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("o_orderkey", pa.int64()), ("c_nationkey", pa.int64())],
    )

    def nat_partial(batch: pa.Table) -> pa.Table:
        # per-nation totals are coarse-group money sums — fold as
        # Sum128 limbs so the reduction is exact at any corpus size
        t = limbify(batch.select(["c_nationkey", "rev"]), ["rev"])
        g = t.group_by("c_nationkey").aggregate(limb_sums(["rev"]))
        return renorm_limbs(g, ["rev"])

    df = (
        joined.map_batches(nat_partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(*limb_ray_aggs(["rev"]))
        .to_pandas()
    )
    if len(df):
        df = recombine_limbs(df, ["rev"]).rename(columns={"rev": "revenue_e4"})
    df = ensure_columns(df, {"c_nationkey": "int64", "revenue_e4": "int64"})
    df["n_name"] = df["c_nationkey"].map(nat_name)
    df["revenue_e4"] = df["revenue_e4"].astype("int64")
    return (
        df[["n_name", "revenue_e4"]].sort_values("n_name").reset_index(drop=True)
    )


Q5_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name
"""


# --------------------------------------------------------------------- Q6


def q6_revenue_forecast(sf_dir: str) -> pd.DataFrame:
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), type=pa.timestamp("us"))

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch["l_discount"], pa.scalar(0.05)),
                    pc.less_equal(batch["l_discount"], pa.scalar(0.07)),
                ),
                pc.less(batch["l_quantity"], pa.scalar(24.0)),
            ),
        )
        batch = batch.filter(m)
        # price·discount is exact at ×10⁴ in int64 (both 2-decimal):
        # the sum is reduction-order independent by construction
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64()
        )
        disc = pc.cast(
            pc.round(pc.multiply(batch["l_discount"], 100.0)), pa.int64()
        )
        rev = pc.multiply(cents, disc).to_numpy(zero_copy_only=False)
        # one Sum128 partial row per batch: the global scalar money sum
        # outgrows int64 around SF 1500 — fold as two limbs instead
        limb_hi, limb_lo = split_limbs(rev)
        h, lo_s = int(limb_hi.sum()), int(limb_lo.sum())
        return pa.table(
            {
                "rev_hi": pa.array([h + lo_s // LIMB_CARRY], pa.int64()),
                "rev_lo": pa.array([lo_s % LIMB_CARRY], pa.int64()),
            }
        )

    ds = read_table(
        sf_dir, "lineitem", ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
    )
    agg = ds.map_batches(fn, batch_format="pyarrow").aggregate(
        Sum("rev_hi", alias_name="hi"), Sum("rev_lo", alias_name="lo")
    )
    total = int(agg.get("hi") or 0) * LIMB_CARRY + int(agg.get("lo") or 0)
    return pd.DataFrame({"revenue_e4": pd.Series([total], dtype="int64")})


Q6_SQL = """
SELECT COALESCE(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * CAST(round(l_discount * 100) AS BIGINT)), 0)::BIGINT AS revenue_e4
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


# -------------------------------------------------------------------- Q10


def q10_returned_revenue(sf_dir: str) -> pd.DataFrame:
    """lineitem(R)⋈orders⋈customer via bucketed shuffle joins with the
    per-key combine fused into each join's hash partitions; nation is
    the only broadcast. Top-20 = per-block local top-k → driver merge."""
    from .joins import hash_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nat_name = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))

    def li_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        t = pa.table({"o_orderkey": batch["l_orderkey"], "rev": _rev_e4(batch)})
        return _rename(
            t.group_by("o_orderkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j1 = hash_join(
        li, orders, on="o_orderkey", num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("o_orderkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        ),
        left_schema=[("o_orderkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("o_orderkey", pa.int64()), ("o_custkey", pa.int64())],
    )

    def cust_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"c_custkey": batch["o_custkey"], "rev": batch["rev"]})
        return _rename(
            t.group_by("c_custkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    j2 = hash_join(
        j1.map_batches(cust_partial, batch_format="pyarrow"),
        cust,
        on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("c_custkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        ),
        left_schema=[("c_custkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("c_custkey", pa.int64()), ("c_name", pa.string()),
                      ("c_nationkey", pa.int64())],
    )

    def local_top(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "c_name": batch["c_name"],
                "c_nationkey": batch["c_nationkey"],
                "revenue_e4": batch["rev"],
            }
        )
        t = t.sort_by([("revenue_e4", "descending"), ("c_custkey", "ascending")])
        return t.slice(0, 20)

    df = j2.map_batches(local_top, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df,
        {"c_custkey": "int64", "c_name": "object",
         "c_nationkey": "int64", "revenue_e4": "int64"},
    )
    df = df.sort_values(["revenue_e4", "c_custkey"], ascending=[False, True]).head(20)
    df["n_name"] = df["c_nationkey"].map(nat_name)
    return df[["c_custkey", "c_name", "n_name", "revenue_e4"]].reset_index(drop=True)


Q10_SQL = """
SELECT c_custkey, any_value(c_name) AS c_name, any_value(n_name) AS n_name,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey
ORDER BY revenue_e4 DESC, c_custkey
LIMIT 20
"""


# ------------------------------------------------------- top parts


def top_parts_by_revenue(sf_dir: str) -> pd.DataFrame:
    """Top-10 parts by revenue. The part-key domain is large (N/5
    keys), so a key-level groupby pays per-group overhead N/5 times;
    instead the partials carry an explicit ``pid = mix64(key) % P``
    and ONE P-group shuffle co-locates each key, where a C-kernel
    ``pyarrow.group_by`` folds it and only the per-bucket top-10
    (P × 10 rows) leaves the workers."""

    def per_batch(batch: pa.Table) -> pa.Table:
        return (
            pa.table({"l_partkey": batch["l_partkey"], "rev": _rev_e4(batch)})
            .group_by(["l_partkey"])
            .aggregate([("rev", "sum")])
        )

    def fold_bucket(part: pa.Table) -> pa.Table:
        g = (
            part.group_by(["l_partkey"])
            .aggregate([("rev_sum", "sum")])
            .rename_columns(["l_partkey", "revenue_e4"])
        )
        order = pc.sort_indices(
            g, sort_keys=[("revenue_e4", "descending"), ("l_partkey", "ascending")]
        )
        return g.take(order[:10])

    schema = pa.schema([("l_partkey", pa.int64()), ("revenue_e4", pa.int64())])
    df = bucket_fold(
        read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]),
        "l_partkey", per_batch, fold_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    df = df.sort_values(["revenue_e4", "l_partkey"], ascending=[False, True]).head(10)
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]).to_pandas()
    df = df.merge(part, left_on="l_partkey", right_on="p_partkey")
    return df[["p_partkey", "p_name", "revenue_e4"]].reset_index(drop=True)


TOP_PARTS_SQL = """
SELECT p_partkey, any_value(p_name) AS p_name,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_partkey
ORDER BY revenue_e4 DESC, p_partkey
LIMIT 10
"""


def order_priority_counts(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "orders", ["o_orderpriority"])
    df = (
        ds.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
        .to_pandas()
    )
    df = ensure_columns(df, {"o_orderpriority": "object", "n_orders": "int64"})
    return df.sort_values("o_orderpriority").reset_index(drop=True)


ORDER_PRIORITY_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def supplier_stats_by_nation(sf_dir: str) -> pd.DataFrame:
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    ds = read_table(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
    df = (
        ds.groupby("s_nationkey")
        .aggregate(Count(alias_name="n_suppliers"), Sum("s_acctbal", alias_name="total_acctbal"))
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"s_nationkey": "int64", "n_suppliers": "int64",
         "total_acctbal": "float64"},
    )
    df["avg_acctbal"] = (df["total_acctbal"] / df["n_suppliers"]).round(4)
    df["total_acctbal"] = df["total_acctbal"].round(2)
    df = df.merge(nation[["n_nationkey", "n_name"]], left_on="s_nationkey", right_on="n_nationkey")
    return (
        df[["n_name", "n_suppliers", "total_acctbal", "avg_acctbal"]]
        .sort_values("n_name")
        .reset_index(drop=True)
    )


SUPPLIER_STATS_SQL = """
SELECT n_name, count(*) AS n_suppliers,
       round(sum(s_acctbal), 2) AS total_acctbal,
       round(sum(s_acctbal) / count(*), 4) AS avg_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


def part_brand_stats(sf_dir: str) -> pd.DataFrame:
    """avg price as an exact scaled integer (cents·100 // n): float
    summation order varies with block layout, so the money column is
    summed in integer cents — bit-identical under any partitioning
    (same trick as doc_quality)."""
    from ray.data.aggregate import Max

    def prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["p_retailprice"], 100.0)), pa.int64())
        return pa.table(
            {"p_brand": batch["p_brand"], "cents": cents, "p_size": batch["p_size"]}
        )

    ds = read_table(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"]).map_batches(
        prep, batch_format="pyarrow"
    )
    df = (
        ds.groupby("p_brand")
        .aggregate(
            Count(alias_name="n_parts"),
            Sum("cents", alias_name="sum_cents"),
            Max("p_size", alias_name="max_size"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"p_brand": "object", "n_parts": "int64",
         "sum_cents": "int64", "max_size": "int64"},
    )
    df["avg_price_e4"] = (df["sum_cents"] * 100) // df["n_parts"]
    df = df.drop(columns=["sum_cents"])
    return df.sort_values("p_brand").reset_index(drop=True)


PART_BRAND_SQL = """
SELECT p_brand, count(*) AS n_parts, CAST(max(p_size) AS BIGINT) AS max_size,
       CAST(sum(CAST(round(p_retailprice * 100) AS BIGINT)) * 100 // count(*) AS BIGINT) AS avg_price_e4
FROM part GROUP BY p_brand ORDER BY p_brand
"""


# ------------------------------------------------------------------ events


def events_daily_counts(sf_dir: str) -> pd.DataFrame:
    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"), format="%Y-%m-%d")
        t = pa.table(
            {"day": day, "event_type": batch["event_type"], "value": batch["value"]}
        )
        return t.group_by(["day", "event_type"]).aggregate(
            [("value", "sum"), ([], "count_all")]
        )

    ds = read_table(sf_dir, "events", ["ts", "event_type", "value"])
    df = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["day", "event_type"])
        .aggregate(
            Sum("value_sum", alias_name="sum_value"), Sum("count_all", alias_name="n")
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"day": "object", "event_type": "object",
         "sum_value": "float64", "n": "int64"},
    )
    df["sum_value"] = df["sum_value"].round(2)
    return df.sort_values(["day", "event_type"]).reset_index(drop=True)


EVENTS_DAILY_SQL = """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day, event_type,
       round(sum(value), 2) AS sum_value, count(*) AS n
FROM events GROUP BY day, event_type ORDER BY day, event_type
"""


def events_user_stats(sf_dir: str) -> pd.DataFrame:
    def prep(batch: pa.Table) -> pa.Table:
        purchases = pc.cast(pc.equal(batch["event_type"], "purchase"), pa.int64())
        # value is 2-decimal fixed; sum exactly in integer cents so the
        # result is independent of summation order (no float drift vs
        # the oracle — the doc_quality integer-scaling trick)
        value_e2 = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        t = pa.table(
            {"user_id": batch["user_id"], "value_e2": value_e2, "is_p": purchases}
        )
        return t.group_by(["user_id"]).aggregate(
            [("value_e2", "sum"), ("is_p", "sum"), ([], "count_all")]
        )

    ds = read_table(sf_dir, "events", ["user_id", "event_type", "value"])
    df = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("value_e2_sum", alias_name="sum_value_e2"),
            Sum("is_p_sum", alias_name="n_purchases"),
            Sum("count_all", alias_name="n_events"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"user_id": "int64", "sum_value_e2": "int64",
         "n_purchases": "int64", "n_events": "int64"},
    )
    df["sum_value_e2"] = df["sum_value_e2"].astype("int64")
    df["avg_value_e4"] = (df["sum_value_e2"] * 100) // df["n_events"]
    return df.sort_values("user_id").reset_index(drop=True)


EVENTS_USER_SQL = """
SELECT user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_e2,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_purchases,
       count(*) AS n_events,
       (CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) * 100) // count(*)
           AS avg_value_e4
FROM events GROUP BY user_id ORDER BY user_id
"""


def events_sessionize(sf_dir: str, gap_s: int = 1800) -> pd.DataFrame:
    """Session windows per user: ONE hash-bucketed shuffle (``pid =
    mix64(user)``), then each bucket sessionizes ALL its users in a
    single vectorized segment pass — sort by (user, ts, event_id),
    diff timestamps, count session starts (user change OR gap >
    threshold) with one bincount. Per-key ``map_groups`` would pay
    per-group overhead |users| times (the top_orders_per_customer
    lesson); the bucket pass costs O(rows log rows) per bucket with C
    kernels only. Gaps compare in integer microseconds so a gap of
    exactly ``gap_s`` judges identically on both engines."""

    def sessionize_bucket(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        users = t["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        new_user = np.r_[True, users[1:] != users[:-1]]
        gap = np.r_[True, (ts_us[1:] - ts_us[:-1]) > gap_s * 1_000_000]
        starts = new_user | gap
        uniq, inv = np.unique(users, return_inverse=True)
        counts = bincount_i64(inv, starts.astype(np.int64))
        return pa.table(
            {"user_id": pa.array(uniq.astype(np.int64)),
             "n_sessions": pa.array(counts)}
        )

    schema = pa.schema([("user_id", pa.int64()), ("n_sessions", pa.int64())])
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_id"]),
        "user_id", None, sessionize_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


EVENTS_SESSIONIZE_SQL = """
SELECT user_id, CAST(sum(new_session) AS BIGINT) AS n_sessions FROM (
  SELECT user_id,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
              THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
) GROUP BY user_id ORDER BY user_id
"""


def events_top_purchasers(sf_dir: str) -> pd.DataFrame:
    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return (
            pa.table({"user_id": batch["user_id"], "value": batch["value"]})
            .group_by(["user_id"])
            .aggregate([("value", "sum")])
        )

    ds = read_table(sf_dir, "events", ["user_id", "event_type", "value"])
    df = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("value_sum", alias_name="purchase_value"))
        .to_pandas()
    )
    df = ensure_columns(df, {"user_id": "int64", "purchase_value": "float64"})
    df["purchase_value"] = df["purchase_value"].round(2)
    return (
        df.sort_values(["purchase_value", "user_id"], ascending=[False, True])
        .head(5)
        .reset_index(drop=True)
    )


EVENTS_TOP_SQL = """
SELECT user_id, round(sum(value), 2) AS purchase_value
FROM events WHERE event_type = 'purchase'
GROUP BY user_id ORDER BY purchase_value DESC, user_id LIMIT 5
"""
