"""Advanced relational pipelines: semi-join EXISTS, multi-way shuffle
joins, aggregate-self-joins, HAVING, and disjunctive join predicates —
the TPC-H q4/q7/q14/q15/q17/q18/q19 shapes adapted to the testdata
schema (no partsupp / commitdate columns in this corpus).

Every query follows the scale contract of ``relational.py``:
pruned ``read_parquet(columns=...)``, per-batch PARTIAL aggregation
before any shuffle, the bucketed hash-partitioned join from
``joins.py`` for dataset-scale sides (orders, customer, supplier,
part, lineitem-self), broadcast strictly for true dimensions (nation,
25 rows), exact ×10² / ×10⁴ integer money arithmetic so results are
bit-identical under any block layout, and per-block local top-k with a
tiny driver merge for LIMIT results.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ray.data.aggregate import Sum

from ..functions.frames import ensure_columns
from ..functions.limbs import limb_ray_aggs, limb_sums, limbify, recombine_limbs, renorm_limbs
from ..io import read_table
from .relational import JOIN_PARTITIONS, _rename, _rev_e4


def _ts(s: str) -> pa.Scalar:
    return pa.scalar(np.datetime64(s, "us"), type=pa.timestamp("us"))


# ------------------------------------------------------- Q4 (EXISTS)


def q4_late_ship_orders(sf_dir: str, lag_days: int = 60) -> pd.DataFrame:
    """Semi-join EXISTS: orders having ≥1 lineitem shipped more than
    ``lag_days`` after the order date, counted per priority.

    ``EXISTS(l_shipdate > o_orderdate + lag)`` ⇔ ``max(l_shipdate) >
    o_orderdate + lag``: lineitem partial-aggregates max(shipdate) per
    orderkey per batch, the per-key max folds INSIDE the join's hash
    partitions (``left_agg``) — one shuffle total, and the semi-join
    never duplicates order rows."""
    from .joins import hash_join

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"o_orderkey": batch["l_orderkey"], "max_ship": batch["l_shipdate"]}
        )
        return _rename(
            t.group_by("o_orderkey").aggregate([("max_ship", "max")]),
            {"max_ship_max": "max_ship"},
        )

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        li_partial, batch_format="pyarrow"
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_join(
        li,
        orders,
        on="o_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("o_orderkey").aggregate([("max_ship", "max")]),
            {"max_ship_max": "max_ship"},
        ),
        left_schema=[("o_orderkey", pa.int64()), ("max_ship", pa.timestamp("us"))],
        right_schema=[
            ("o_orderkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("o_orderpriority", pa.string()),
        ],
    )

    lag_us = pa.scalar(lag_days * 86_400_000_000, pa.int64())

    def count_late(batch: pa.Table) -> pa.Table:
        gap = pc.subtract(
            pc.cast(batch["max_ship"], pa.int64()),
            pc.cast(batch["o_orderdate"], pa.int64()),
        )
        batch = batch.filter(pc.greater(gap, lag_us))
        return (
            pa.table({"o_orderpriority": batch["o_orderpriority"]})
            .group_by("o_orderpriority")
            .aggregate([([], "count_all")])
        )

    df = (
        joined.map_batches(count_late, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("count_all", alias_name="n_orders"))
        .to_pandas()
    )
    if df.empty:  # empty Ray results lose column labels
        return pd.DataFrame(
            {"o_orderpriority": pd.Series([], dtype="object"),
             "n_orders": pd.Series([], dtype="int64")}
        )
    df["n_orders"] = df["n_orders"].astype("int64")
    return df.sort_values("o_orderpriority").reset_index(drop=True)


Q4_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders
WHERE EXISTS (
  SELECT 1 FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND l_shipdate > o_orderdate + INTERVAL 60 DAY)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ------------------------------------------- Q7 (nation trade flows)


def q7_nation_trade(
    sf_dir: str, nation_a: str = "NATION_1", nation_b: str = "NATION_2"
) -> pd.DataFrame:
    """Revenue flowing between a supplier nation and a customer nation
    (both directions) per order year — a 4-table multi-way join.

    Chain: lineitem ⋈ supplier(nation-filtered) ⋈ orders ⋈
    customer(nation-filtered) via three ``auto_join`` hops, with
    filters PUSHED DOWN to the supplier/customer scans and per-key
    partial aggregation between every hop. At bench scale all three
    dimension sides fit the broadcast gate (the supplier hop then
    prunes lineitem map-side to the two nations' rows); above 64 MB a
    hop flips to the bucketed shuffle join with the same fold
    semantics — safe here because every post-join stage re-aggregates
    (no key-complete-partition assumption downstream)."""
    from .joins import auto_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    keys = {k for k, v in name_of.items() if v in (nation_a, nation_b)}
    keyset = pa.array(sorted(keys), pa.int32())

    def supp_filter(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["s_nationkey"], value_set=keyset))
        return pa.table(
            {
                "l_suppkey": batch["s_suppkey"],
                "supp_nat": pc.cast(batch["s_nationkey"], pa.int64()),
            }
        )

    def cust_filter(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["c_nationkey"], value_set=keyset))
        return pa.table(
            {
                "o_custkey": batch["c_custkey"],
                "cust_nat": pc.cast(batch["c_nationkey"], pa.int64()),
            }
        )

    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        supp_filter, batch_format="pyarrow"
    )
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_filter, batch_format="pyarrow"
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_suppkey": batch["l_suppkey"],
                "l_orderkey": batch["l_orderkey"],
                "rev": _rev_e4(batch),
            }
        )
        return _rename(
            t.group_by(["l_suppkey", "l_orderkey"]).aggregate([("rev", "sum")]),
            {"rev_sum": "rev"},
        )

    li = read_table(
        sf_dir, "lineitem", ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")

    j1 = auto_join(
        li,
        supp,
        on="l_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("l_suppkey", pa.int64()),
            ("l_orderkey", pa.int64()),
            ("rev", pa.int64()),
        ],
        right_schema=[("l_suppkey", pa.int64()), ("supp_nat", pa.int64())],
    )

    def j1_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["l_orderkey", "supp_nat", "rev"])
        return _rename(
            t.group_by(["l_orderkey", "supp_nat"]).aggregate([("rev", "sum")]),
            {"rev_sum": "rev"},
        )

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def orders_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
            }
        )

    j2 = auto_join(
        j1.map_batches(j1_partial, batch_format="pyarrow"),
        orders.map_batches(orders_prep, batch_format="pyarrow"),
        on="l_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("l_orderkey", pa.int64()),
            ("supp_nat", pa.int64()),
            ("rev", pa.int64()),
        ],
        right_schema=[
            ("l_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_year", pa.int64()),
        ],
    )

    def j2_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["o_custkey", "supp_nat", "o_year", "rev"])
        return _rename(
            t.group_by(["o_custkey", "supp_nat", "o_year"]).aggregate([("rev", "sum")]),
            {"rev_sum": "rev"},
        )

    j3 = auto_join(
        j2.map_batches(j2_partial, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("o_custkey", pa.int64()),
            ("supp_nat", pa.int64()),
            ("o_year", pa.int64()),
            ("rev", pa.int64()),
        ],
        right_schema=[("o_custkey", pa.int64()), ("cust_nat", pa.int64())],
    )

    def final_partial(batch: pa.Table) -> pa.Table:
        # cross-nation flows only (FRANCE→GERMANY or GERMANY→FRANCE)
        batch = batch.filter(pc.not_equal(batch["supp_nat"], batch["cust_nat"]))
        t = batch.select(["supp_nat", "cust_nat", "o_year", "rev"])
        return _rename(
            t.group_by(["supp_nat", "cust_nat", "o_year"]).aggregate([("rev", "sum")]),
            {"rev_sum": "rev"},
        )

    df = (
        j3.map_batches(final_partial, batch_format="pyarrow")
        .groupby(["supp_nat", "cust_nat", "o_year"])
        .aggregate(Sum("rev", alias_name="revenue_e4"))
        .to_pandas()
    )
    if df.empty:  # empty Ray results lose column labels
        return pd.DataFrame(
            {
                "supp_nation": pd.Series([], dtype="object"),
                "cust_nation": pd.Series([], dtype="object"),
                "o_year": pd.Series([], dtype="int64"),
                "revenue_e4": pd.Series([], dtype="int64"),
            }
        )
    df["supp_nation"] = df["supp_nat"].map(name_of)
    df["cust_nation"] = df["cust_nat"].map(name_of)
    df["revenue_e4"] = df["revenue_e4"].astype("int64")
    df["o_year"] = df["o_year"].astype("int64")
    return (
        df[["supp_nation", "cust_nation", "o_year", "revenue_e4"]]
        .sort_values(["supp_nation", "cust_nation", "o_year"])
        .reset_index(drop=True)
    )


Q7_SQL = """
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
WHERE ((sn.n_name = 'NATION_1' AND cn.n_name = 'NATION_2')
    OR (sn.n_name = 'NATION_2' AND cn.n_name = 'NATION_1'))
GROUP BY supp_nation, cust_nation, o_year
ORDER BY supp_nation, cust_nation, o_year
"""


# ---------------------------------------------- Q14 (promo revenue)


def q14_promo_revenue(sf_dir: str) -> pd.DataFrame:
    """Promotion revenue share for one ship-month: lineitem ⋈ part via
    the bucketed join, the promo flag aggregated as two EXACT integer
    sums (promo_e4, total_e4) — no float division anywhere, so the
    oracle comparison is bit-exact. part is dataset-scale (N/30 keys)
    and goes through the shuffle join, not a broadcast."""
    from .joins import hash_join

    lo, hi = _ts("1996-03-01"), _ts("1996-04-01")

    def li_prep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo), pc.less(batch["l_shipdate"], hi)
        )
        batch = batch.filter(m)
        t = pa.table({"l_partkey": batch["l_partkey"], "rev": _rev_e4(batch)})
        return _rename(
            t.group_by("l_partkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    li = read_table(
        sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")
    part = read_table(sf_dir, "part", ["p_partkey", "p_type"])
    joined = hash_join(
        li,
        part,
        on="l_partkey",
        right_on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("l_partkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        ),
        left_schema=[("l_partkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("p_partkey", pa.int64()), ("p_type", pa.string())],
    )

    def split_promo(batch: pa.Table) -> pa.Table:
        promo = pc.cast(pc.equal(batch["p_type"], "PROMO"), pa.int64())
        return pa.table(
            {
                "promo_e4": [pc.sum(pc.multiply(batch["rev"], promo)).as_py() or 0],
                "total_e4": [pc.sum(batch["rev"]).as_py() or 0],
            }
        )

    df = joined.map_batches(split_promo, batch_format="pyarrow").to_pandas()
    df = ensure_columns(df, {"promo_e4": "int64", "total_e4": "int64"})
    # exact Python-int fold over the per-batch partials: a batch's own
    # sum is int64-safe (≤ rows-per-block × 10⁹ e4-units), the GLOBAL
    # fold is the part that outgrows int64 at scale
    out = pd.DataFrame(
        {
            "promo_e4": [sum(int(v) for v in df["promo_e4"])],
            "total_e4": [sum(int(v) for v in df["total_e4"])],
        }
    )
    return out


Q14_SQL = """
SELECT CAST(sum(CASE WHEN p_type = 'PROMO'
                THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                ELSE 0 END) AS BIGINT) AS promo_e4,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS total_e4
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1996-03-01' AND l_shipdate < TIMESTAMP '1996-04-01'
"""


# ------------------------------------------------ Q15 (top supplier)


def q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """Supplier(s) with the maximum revenue in one ship-quarter — the
    argmax-with-ties shape. Per-batch partial agg per suppkey, groupby
    combine, bucketed join to supplier for names, then a per-block
    local max and a tiny driver merge (ties all survive)."""
    from .joins import hash_join

    lo, hi = _ts("1996-01-01"), _ts("1996-04-01")

    def li_prep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo), pc.less(batch["l_shipdate"], hi)
        )
        batch = batch.filter(m)
        t = pa.table({"s_suppkey": batch["l_suppkey"], "rev": _rev_e4(batch)})
        return _rename(
            t.group_by("s_suppkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        )

    li = read_table(
        sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")
    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    joined = hash_join(
        li,
        supp,
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("s_suppkey").aggregate([("rev", "sum")]), {"rev_sum": "rev"}
        ),
        left_schema=[("s_suppkey", pa.int64()), ("rev", pa.int64())],
        right_schema=[("s_suppkey", pa.int64()), ("s_name", pa.string())],
    )

    def local_max(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["s_suppkey", "s_name", "rev"])
        mx = pc.max(batch["rev"])
        return batch.filter(pc.equal(batch["rev"], mx)).select(
            ["s_suppkey", "s_name", "rev"]
        )

    df = joined.map_batches(local_max, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df, {"s_suppkey": "int64", "s_name": "object", "rev": "int64"}
    )
    if not df.empty:
        df = df[df["rev"] == df["rev"].max()]
    df = df.rename(columns={"rev": "total_rev_e4"})
    df["total_rev_e4"] = df["total_rev_e4"].astype("int64")
    return df.sort_values("s_suppkey").reset_index(drop=True)


Q15_SQL = """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS total_rev_e4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT rev.s_suppkey, s_name, total_rev_e4
FROM rev JOIN supplier ON rev.s_suppkey = supplier.s_suppkey
WHERE total_rev_e4 = (SELECT max(total_rev_e4) FROM rev)
ORDER BY rev.s_suppkey
"""


# ------------------------------------- Q17 (small-quantity revenue)


def q17_small_quantity(sf_dir: str, brand: str = "Brand#1") -> pd.DataFrame:
    """Revenue from lineitems whose quantity is below 20% of the
    per-part average, for one brand — the aggregate-self-join shape.

    Two bucketed joins: (1) lineitem ⋈ part(brand-filtered) on partkey;
    (2) the surviving rows ⋈ their OWN per-part (sum_qty, count)
    aggregate, computed as a per-batch partial folded by the join's
    ``right_agg`` — the self side never re-shuffles separately. The
    predicate ``qty < 0.2·avg`` runs as exact integers:
    ``5·qty_e2·n < sum_qty_e2``."""
    from .joins import hash_join

    def part_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["p_brand"], brand))
        return batch.select(["p_partkey"])

    part = read_table(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        part_prep, batch_format="pyarrow"
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        qty_e2 = pc.cast(pc.round(pc.multiply(batch["l_quantity"], 100.0)), pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "p_partkey": batch["l_partkey"],
                "qty_e2": qty_e2,
                "price_cents": cents,
            }
        )

    li = read_table(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(li_prep, batch_format="pyarrow")

    branded = hash_join(
        li,
        part,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("p_partkey", pa.int64()),
            ("qty_e2", pa.int64()),
            ("price_cents", pa.int64()),
        ],
        right_schema=[("p_partkey", pa.int64())],
        # consumed twice below (join left + its own aggregate side) —
        # materialize the brand slice (small) so the lineitem scan and
        # first exchange run once, not twice
    ).materialize()

    def agg_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["p_partkey", "qty_e2"]).append_column(
            "n", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        return _rename(
            t.group_by("p_partkey").aggregate([("qty_e2", "sum"), ("n", "sum")]),
            {"qty_e2_sum": "sum_qty_e2", "n_sum": "n"},
        )

    stats = branded.map_batches(agg_partial, batch_format="pyarrow")
    joined = hash_join(
        branded,
        stats,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        right_agg=lambda t: _rename(
            t.group_by("p_partkey").aggregate(
                [("sum_qty_e2", "sum"), ("n", "sum")]
            ),
            {"sum_qty_e2_sum": "sum_qty_e2", "n_sum": "n"},
        ),
        left_schema=[
            ("p_partkey", pa.int64()),
            ("qty_e2", pa.int64()),
            ("price_cents", pa.int64()),
        ],
        right_schema=[
            ("p_partkey", pa.int64()),
            ("sum_qty_e2", pa.int64()),
            ("n", pa.int64()),
        ],
    )

    def small_qty(batch: pa.Table) -> pa.Table:
        lhs = pc.multiply(
            pc.multiply(batch["qty_e2"], pa.scalar(5, pa.int64())), batch["n"]
        )
        batch = batch.filter(pc.less(lhs, batch["sum_qty_e2"]))
        return pa.table(
            {
                "total_cents": [pc.sum(batch["price_cents"]).as_py() or 0],
                "n_items": [batch.num_rows],
            }
        )

    df = joined.map_batches(small_qty, batch_format="pyarrow").to_pandas()
    df = ensure_columns(df, {"total_cents": "int64", "n_items": "int64"})
    return pd.DataFrame(
        {
            # exact Python-int global fold (per-batch partials are
            # int64-safe; the global money sum is not at scale)
            "total_cents": [sum(int(v) for v in df["total_cents"])],
            "n_items": [sum(int(v) for v in df["n_items"])],
        }
    )


Q17_SQL = """
WITH branded AS (
  SELECT l_partkey,
         CAST(round(l_quantity * 100) AS BIGINT) AS qty_e2,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_cents
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#1'),
stats AS (
  SELECT l_partkey, sum(qty_e2) AS sum_qty_e2, count(*) AS n
  FROM branded GROUP BY l_partkey)
SELECT CAST(COALESCE(sum(price_cents), 0) AS BIGINT) AS total_cents,
       count(*) AS n_items
FROM branded JOIN stats USING (l_partkey)
WHERE 5 * qty_e2 * n < sum_qty_e2
"""


# --------------------------------------- Q18 (large-volume customers)


def q18_large_orders(sf_dir: str, min_qty: int = 150) -> pd.DataFrame:
    """Orders whose total quantity exceeds a threshold (HAVING shape),
    joined to orders+customer, top-100 by quantity. The HAVING filter
    runs inside the first join's hash partitions right after the fused
    per-key combine — only qualifying orderkeys (rare) proceed to the
    customer join, so the second exchange is tiny."""
    from .joins import hash_join

    thresh = pa.scalar(min_qty * 100, pa.int64())

    def li_partial(batch: pa.Table) -> pa.Table:
        qty_e2 = pc.cast(pc.round(pc.multiply(batch["l_quantity"], 100.0)), pa.int64())
        t = pa.table({"o_orderkey": batch["l_orderkey"], "qty_e2": qty_e2})
        return _rename(
            t.group_by("o_orderkey").aggregate([("qty_e2", "sum")]),
            {"qty_e2_sum": "qty_e2"},
        )

    def li_combine(t: pa.Table) -> pa.Table:
        g = _rename(
            t.group_by("o_orderkey").aggregate([("qty_e2", "sum")]),
            {"qty_e2_sum": "qty_e2"},
        )
        return g.filter(pc.greater(g["qty_e2"], thresh))

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        li_partial, batch_format="pyarrow"
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    j1 = hash_join(
        li,
        orders,
        on="o_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=li_combine,
        left_schema=[("o_orderkey", pa.int64()), ("qty_e2", pa.int64())],
        right_schema=[
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
        ],
    )
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    j2 = hash_join(
        j1,
        cust,
        on="o_custkey",
        right_on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("o_orderkey", pa.int64()),
            ("qty_e2", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
        ],
        right_schema=[("c_custkey", pa.int64()), ("c_name", pa.string())],
    )

    def local_top(batch: pa.Table) -> pa.Table:
        t = batch.select(["c_name", "o_custkey", "o_orderkey", "o_orderdate", "qty_e2"])
        t = t.sort_by([("qty_e2", "descending"), ("o_orderkey", "ascending")])
        return t.slice(0, 100)

    df = j2.map_batches(local_top, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df,
        {"c_name": "object", "o_custkey": "int64", "o_orderkey": "int64",
         "o_orderdate": "datetime64[us]", "qty_e2": "int64"},
    )
    df = df.sort_values(["qty_e2", "o_orderkey"], ascending=[False, True]).head(100)
    df["qty_e2"] = df["qty_e2"].astype("int64")
    return df.reset_index(drop=True)


Q18_SQL = """
SELECT any_value(c_name) AS c_name, any_value(o_custkey) AS o_custkey, o_orderkey,
       any_value(o_orderdate) AS o_orderdate,
       CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT) AS qty_e2
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
GROUP BY o_orderkey
HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 15000
ORDER BY qty_e2 DESC, o_orderkey
LIMIT 100
"""


# --------------------------------- Q19 (disjunctive join predicate)


def q19_branded_revenue(sf_dir: str) -> pd.DataFrame:
    """Disjunctive predicate across join sides: three (brand, size
    range, quantity range) branches OR-ed together — the predicate
    needs columns from BOTH lineitem and part, so it evaluates inside
    the join partitions, vectorized, right after the local hash join."""
    from .joins import hash_join

    def li_prep(batch: pa.Table) -> pa.Table:
        qty_e2 = pc.cast(pc.round(pc.multiply(batch["l_quantity"], 100.0)), pa.int64())
        return pa.table(
            {
                "p_partkey": batch["l_partkey"],
                "qty_e2": qty_e2,
                "rev": _rev_e4(batch),
            }
        )

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    def part_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "p_brand": batch["p_brand"],
                "p_size": pc.cast(batch["p_size"], pa.int64()),
            }
        )

    part = read_table(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        part_prep, batch_format="pyarrow"
    )
    joined = hash_join(
        li,
        part,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("p_partkey", pa.int64()),
            ("qty_e2", pa.int64()),
            ("rev", pa.int64()),
        ],
        right_schema=[
            ("p_partkey", pa.int64()),
            ("p_brand", pa.string()),
            ("p_size", pa.int64()),
        ],
    )

    def branch(batch, brand, size_lo, size_hi, q_lo, q_hi):
        return pc.and_(
            pc.and_(
                pc.equal(batch["p_brand"], brand),
                pc.and_(
                    pc.greater_equal(batch["p_size"], pa.scalar(size_lo, pa.int64())),
                    pc.less_equal(batch["p_size"], pa.scalar(size_hi, pa.int64())),
                ),
            ),
            pc.and_(
                pc.greater_equal(batch["qty_e2"], pa.scalar(q_lo * 100, pa.int64())),
                pc.less_equal(batch["qty_e2"], pa.scalar(q_hi * 100, pa.int64())),
            ),
        )

    def disjunct(batch: pa.Table) -> pa.Table:
        m = pc.or_(
            pc.or_(
                branch(batch, "Brand#1", 1, 5, 1, 11),
                branch(batch, "Brand#2", 1, 10, 10, 20),
            ),
            branch(batch, "Brand#3", 1, 15, 20, 30),
        )
        batch = batch.filter(m)
        return pa.table(
            {
                "revenue_e4": [pc.sum(batch["rev"]).as_py() or 0],
                "n_items": [batch.num_rows],
            }
        )

    df = joined.map_batches(disjunct, batch_format="pyarrow").to_pandas()
    df = ensure_columns(df, {"revenue_e4": "int64", "n_items": "int64"})
    return pd.DataFrame(
        {
            # exact Python-int global fold (per-batch partials are
            # int64-safe; the global money sum is not at scale)
            "revenue_e4": [sum(int(v) for v in df["revenue_e4"])],
            "n_items": [sum(int(v) for v in df["n_items"])],
        }
    )


Q19_SQL = """
SELECT CAST(COALESCE(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0) AS BIGINT)
         AS revenue_e4,
       count(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
"""


# ----------------------------------------- Q8 (market share by year)


def q8_market_share(
    sf_dir: str, region: str = "EUROPE", nation: str = "NATION_3"
) -> pd.DataFrame:
    """Market share: of all revenue sold to customers in ``region``,
    the fraction supplied by ``nation``, per order year — reported as
    two EXACT integer sums (nation_e4, total_e4) so no float division
    enters the oracle compare.

    Same 4-table bucketed-join chain as q7 (lineitem ⋈ supplier ⋈
    orders ⋈ customer) with the region membership resolved from the
    broadcast nation/region dims (25 + 5 rows) and pushed down to the
    customer scan; supplier keeps ALL nations (the denominator needs
    them) and carries only a boolean is-target flag into the exchanges."""
    from .joins import hash_join

    nation_t = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region_t = pq.read_table(f"{sf_dir}/region.parquet")
    region_keys = {
        r: k
        for k, r in zip(
            region_t["r_regionkey"].to_pylist(), region_t["r_name"].to_pylist()
        )
    }
    if region not in region_keys:  # empty/missing dims -> empty result
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("o_year", "nation_e4", "total_e4")}
        )
    region_key = region_keys[region]
    region_nations = {
        k
        for k, rk in zip(
            nation_t["n_nationkey"].to_pylist(), nation_t["n_regionkey"].to_pylist()
        )
        if rk == region_key
    }
    nation_keys = {
        n: k
        for k, n in zip(
            nation_t["n_nationkey"].to_pylist(), nation_t["n_name"].to_pylist()
        )
    }
    if nation not in nation_keys:  # same degrade as the region guard
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("o_year", "nation_e4", "total_e4")}
        )
    target_key = nation_keys[nation]
    cust_keys = pa.array(sorted(region_nations), pa.int32())

    def supp_prep(batch: pa.Table) -> pa.Table:
        is_target = pc.cast(
            pc.equal(pc.cast(batch["s_nationkey"], pa.int64()), target_key), pa.int64()
        )
        return pa.table({"l_suppkey": batch["s_suppkey"], "is_target": is_target})

    def cust_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["c_nationkey"], value_set=cust_keys))
        return batch.select(["c_custkey"])

    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        supp_prep, batch_format="pyarrow"
    )
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_prep, batch_format="pyarrow"
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_suppkey": batch["l_suppkey"],
                "l_orderkey": batch["l_orderkey"],
                "rev": _rev_e4(batch),
            }
        )
        return _rename(
            t.group_by(["l_suppkey", "l_orderkey"]).aggregate([("rev", "sum")]),
            {"rev_sum": "rev"},
        )

    li = read_table(
        sf_dir, "lineitem", ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")

    j1 = hash_join(
        li, supp, on="l_suppkey", num_partitions=JOIN_PARTITIONS,
        left_schema=[("l_suppkey", pa.int64()), ("l_orderkey", pa.int64()),
                     ("rev", pa.int64())],
        right_schema=[("l_suppkey", pa.int64()), ("is_target", pa.int64())],
    )

    def j1_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev": batch["rev"],
                "nat_rev": pc.multiply(batch["rev"], batch["is_target"]),
            }
        )
        return _rename(
            t.group_by("l_orderkey").aggregate([("rev", "sum"), ("nat_rev", "sum")]),
            {"rev_sum": "rev", "nat_rev_sum": "nat_rev"},
        )

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def orders_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
            }
        )

    j2 = hash_join(
        j1.map_batches(j1_partial, batch_format="pyarrow"),
        orders.map_batches(orders_prep, batch_format="pyarrow"),
        on="l_orderkey", num_partitions=JOIN_PARTITIONS,
        left_schema=[("l_orderkey", pa.int64()), ("rev", pa.int64()),
                     ("nat_rev", pa.int64())],
        right_schema=[("l_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                      ("o_year", pa.int64())],
    )

    def j2_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["o_custkey", "o_year", "rev", "nat_rev"])
        return _rename(
            t.group_by(["o_custkey", "o_year"]).aggregate(
                [("rev", "sum"), ("nat_rev", "sum")]
            ),
            {"rev_sum": "rev", "nat_rev_sum": "nat_rev"},
        )

    j3 = hash_join(
        j2.map_batches(j2_partial, batch_format="pyarrow"),
        cust, on="o_custkey", right_on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("o_custkey", pa.int64()), ("o_year", pa.int64()),
                     ("rev", pa.int64()), ("nat_rev", pa.int64())],
        right_schema=[("c_custkey", pa.int64())],
    )

    def final_partial(batch: pa.Table) -> pa.Table:
        # per-year totals are coarse-group money sums — Sum128 limbs
        t = limbify(batch.select(["o_year", "rev", "nat_rev"]), ["rev", "nat_rev"])
        g = t.group_by("o_year").aggregate(limb_sums(["rev", "nat_rev"]))
        return renorm_limbs(g, ["rev", "nat_rev"])

    df = (
        j3.map_batches(final_partial, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(*limb_ray_aggs(["rev", "nat_rev"]))
        .to_pandas()
    )
    if df.empty:  # empty Ray results lose column labels
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("o_year", "nation_e4", "total_e4")}
        )
    df = recombine_limbs(df, ["rev", "nat_rev"]).rename(
        columns={"rev": "total_e4", "nat_rev": "nation_e4"}
    )
    for c in ("o_year", "nation_e4", "total_e4"):
        df[c] = df[c].astype("int64")
    return df.sort_values("o_year").reset_index(drop=True)


Q8_SQL = """
SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CASE WHEN sn.n_name = 'NATION_3'
                THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                ELSE 0 END) AS BIGINT) AS nation_e4,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS total_e4
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region ON cn.n_regionkey = r_regionkey
WHERE r_name = 'EUROPE'
GROUP BY o_year
ORDER BY o_year
"""


# --------------------------------- left-outer join (zero-sale rows)


def supplier_window_revenue(sf_dir: str) -> pd.DataFrame:
    """Every supplier's revenue in a 3-day ship window, INCLUDING the
    suppliers with no sales (revenue 0) — the left-outer variant of the
    bucketed shuffle join (``join_type='left outer'``): unmatched left
    rows survive the per-partition join with null right columns, which
    coalesce to exact-integer zeros. Same partitioning contract as the
    inner joins; the lineitem side pre-aggregates per supplier per
    batch and folds inside the partitions."""
    from .joins import hash_join

    lo, hi = _ts("1996-01-01"), _ts("1996-01-04")

    def li_prep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo), pc.less(batch["l_shipdate"], hi)
        )
        batch = batch.filter(m)
        t = pa.table({"s_suppkey": batch["l_suppkey"], "rev": _rev_e4(batch)})
        t = t.append_column("n", pa.array(np.ones(t.num_rows, dtype=np.int64)))
        return _rename(
            t.group_by("s_suppkey").aggregate([("rev", "sum"), ("n", "sum")]),
            {"rev_sum": "rev", "n_sum": "n"},
        )

    li = read_table(
        sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")
    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    joined = hash_join(
        supp,
        li,
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        join_type="left outer",
        right_agg=lambda t: _rename(
            t.group_by("s_suppkey").aggregate([("rev", "sum"), ("n", "sum")]),
            {"rev_sum": "rev", "n_sum": "n"},
        ),
        left_schema=[("s_suppkey", pa.int64()), ("s_name", pa.string())],
        right_schema=[("s_suppkey", pa.int64()), ("rev", pa.int64()), ("n", pa.int64())],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": batch["s_suppkey"],
                "s_name": batch["s_name"],
                "revenue_e4": pc.fill_null(batch["rev"], 0),
                "n_sales": pc.fill_null(batch["n"], 0),
            }
        )

    df = joined.map_batches(finish, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df,
        {"s_suppkey": "int64", "s_name": "object",
         "revenue_e4": "int64", "n_sales": "int64"},
    )
    for c in ("s_suppkey", "revenue_e4", "n_sales"):
        df[c] = df[c].astype("int64")
    return df.sort_values("s_suppkey").reset_index(drop=True)


SUPPLIER_WINDOW_SQL = """
SELECT s_suppkey, s_name,
       CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0) AS BIGINT)
           AS revenue_e4,
       CAST(count(l_suppkey) AS BIGINT) AS n_sales
FROM supplier
LEFT JOIN lineitem ON s_suppkey = l_suppkey
  AND l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1996-01-04'
GROUP BY s_suppkey, s_name
ORDER BY s_suppkey
"""
