"""Third relational wave: the remaining classic TPC-H query shapes
adapted to the testdata schema (no partsupp / shipmode / phone /
comment columns in this corpus) —

- q2  correlated-min + join-back (min-price supplier per part)
- q9  five-table multi-way join (profit by nation × year)
- q11 global-fraction HAVING (parts above corpus-average value)
- q12 conditional CASE aggregation after a fact-fact join
- q13 left-outer join + double aggregation (customer order distribution)
- q16 exact count-distinct + NOT-IN anti filter
- q20 nested semi-join chain with a relative threshold
- q21 exists + not-exists self-join (sole-late-supplier attribution)
- q22 global-scalar subquery + anti-join (idle rich customers)

Scale contract (same as relational.py / relational2.py): pruned
``read_parquet(columns=...)``, per-batch PARTIAL aggregation before
every exchange, the bucketed hash-partitioned join from ``joins.py``
for all dataset-scale sides (bloom semi-join pushdown when the build
side is a selective dimension slice), broadcast only for true
dimensions (nation, 25 rows) or provably tiny derived sets, exact
×10² / ×10⁴ integer money arithmetic so every result is bit-identical
under any block layout, and per-block local top-k with a tiny driver
merge for LIMIT results.

Reference parity: these mirror the reference's query surface the same
way relational.py does (SURVEY §2.6–2.7); the join/aggregation
semantics follow the public TPC-H specification shapes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ray.data.aggregate import Sum

from .joins import auto_join, bucket_fold, hash_join
from ..functions.frames import ensure_columns
from ..functions.limbs import (
    limb_ray_aggs,
    limb_sums,
    limbify,
    recombine_limbs,
    renorm_limbs,
    to_cents,
)
from ..io import read_table
from .relational import JOIN_PARTITIONS, _rename, _rev_e4
from .relational2 import _ts


def _qty_int(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """l_quantity is integral-valued double → exact int64."""
    return pc.cast(pc.round(col), pa.int64())


def _nation_names(sf_dir: str) -> dict[int, str]:
    t = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    return dict(zip(t["n_nationkey"].to_pylist(), t["n_name"].to_pylist()))


# ------------------------------------------ Q2 (min-price supplier)


def _argmin_fold(t: pa.Table) -> pa.Table:
    """Per p_partkey keep the (price, suppkey)-lexicographic minimum
    row — associative, so the same fold works per batch AND per join
    partition (ties break to the smallest suppkey, deterministic).
    One numpy lexsort; no per-group Python."""
    if t.num_rows == 0:
        return t
    pk = t["p_partkey"].to_numpy(zero_copy_only=False)
    pr = t["best_price_cents"].to_numpy(zero_copy_only=False)
    sk = t["s_suppkey"].to_numpy(zero_copy_only=False)
    order = np.lexsort((sk, pr, pk))
    first = np.r_[True, pk[order][1:] != pk[order][:-1]]
    keep = order[first]
    return pa.table(
        {
            "p_partkey": pa.array(pk[keep], pa.int64()),
            "best_price_cents": pa.array(pr[keep], pa.int64()),
            "s_suppkey": pa.array(sk[keep], pa.int64()),
        }
    )


def q2_min_price_supplier(sf_dir: str, max_size: int = 10, ptype: str = "STANDARD") -> pd.DataFrame:
    """TPC-H Q2 shape (correlated MIN + join-back): for every part in a
    size/type slice, the supplier offering the minimum extended price
    (ties → smallest suppkey), decorated with supplier/nation and
    ranked by account balance.

    The correlated subquery collapses into ONE associative fold
    (argmin per part) applied per batch and again per join partition —
    no second pass over lineitem, no driver-side state. The part slice
    is selective, so the fact side is bloom-pruned before the exchange."""

    def part_filter(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.less_equal(b["p_size"], pa.scalar(max_size, pa.int32())),
            pc.equal(b["p_type"], ptype),
        )
        return pa.table({"p_partkey": b.filter(m)["p_partkey"]})

    part = read_table(sf_dir, "part", ["p_partkey", "p_size", "p_type"]).map_batches(
        part_filter, batch_format="pyarrow"
    )

    def li_prep(b: pa.Table) -> pa.Table:
        return _argmin_fold(
            pa.table(
                {
                    "p_partkey": b["l_partkey"],
                    "best_price_cents": to_cents(b["l_extendedprice"]),
                    "s_suppkey": b["l_suppkey"],
                }
            )
        )

    li = read_table(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"]
    ).map_batches(li_prep, batch_format="pyarrow")

    j1 = hash_join(
        li,
        part,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=_argmin_fold,
        left_schema=[
            ("p_partkey", pa.int64()),
            ("best_price_cents", pa.int64()),
            ("s_suppkey", pa.int64()),
        ],
        right_schema=[("p_partkey", pa.int64())],
        bloom_prune_left=True,
    )

    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])

    def supp_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": b["s_suppkey"],
                "s_name": b["s_name"],
                "bal_cents": to_cents(b["s_acctbal"]),
                "s_nationkey": pc.cast(b["s_nationkey"], pa.int64()),
            }
        )

    j2 = hash_join(
        j1,
        supp.map_batches(supp_prep, batch_format="pyarrow"),
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("p_partkey", pa.int64()),
            ("best_price_cents", pa.int64()),
            ("s_suppkey", pa.int64()),
        ],
        right_schema=[
            ("s_suppkey", pa.int64()),
            ("s_name", pa.string()),
            ("bal_cents", pa.int64()),
            ("s_nationkey", pa.int64()),
        ],
    )

    def local_top(b: pa.Table) -> pa.Table:
        t = b.sort_by([("bal_cents", "descending"), ("p_partkey", "ascending")])
        return t.slice(0, 50)

    df = j2.map_batches(local_top, batch_format="pyarrow").to_pandas()
    if df.empty:  # empty Ray results lose column labels
        return pd.DataFrame(
            {
                "p_partkey": pd.Series([], dtype="int64"),
                "best_price_cents": pd.Series([], dtype="int64"),
                "s_suppkey": pd.Series([], dtype="int64"),
                "s_name": pd.Series([], dtype="object"),
                "bal_cents": pd.Series([], dtype="int64"),
                "n_name": pd.Series([], dtype="object"),
            }
        )
    names = _nation_names(sf_dir)
    df = (
        df.sort_values(["bal_cents", "p_partkey"], ascending=[False, True])
        .head(50)
        .reset_index(drop=True)
    )
    df["n_name"] = df["s_nationkey"].map(names)
    for c in ("p_partkey", "best_price_cents", "s_suppkey", "bal_cents"):
        df[c] = df[c].astype("int64")
    return df[["p_partkey", "best_price_cents", "s_suppkey", "s_name", "bal_cents", "n_name"]]


Q2_SQL = """
WITH best AS (
  SELECT l_partkey AS p_partkey,
         min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS best_price_cents
  FROM lineitem
  WHERE l_partkey IN (SELECT p_partkey FROM part
                      WHERE p_size <= 10 AND p_type = 'STANDARD')
  GROUP BY l_partkey),
pick AS (
  SELECT b.p_partkey, b.best_price_cents, min(l_suppkey) AS s_suppkey
  FROM best b JOIN lineitem
    ON l_partkey = b.p_partkey
   AND CAST(round(l_extendedprice * 100) AS BIGINT) = b.best_price_cents
  GROUP BY 1, 2)
SELECT pick.p_partkey, best_price_cents, pick.s_suppkey, s_name,
       CAST(round(s_acctbal * 100) AS BIGINT) AS bal_cents, n_name
FROM pick
JOIN supplier ON pick.s_suppkey = supplier.s_suppkey
JOIN nation ON s_nationkey = n_nationkey
ORDER BY bal_cents DESC, p_partkey
LIMIT 50
"""


# --------------------------------------- Q9 (profit by nation, year)


def q9_product_profit(sf_dir: str, name_like: str = "red") -> pd.DataFrame:
    """TPC-H Q9 shape: lineitem ⋈ part ⋈ supplier ⋈ orders ⋈ nation,
    profit = revenue − retail-cost proxy (no partsupp in this corpus:
    cost = p_retailprice × quantity), grouped by supplier nation ×
    order year.

    Three ``auto_join`` hops; between every hop the stream is
    partially re-aggregated to its join key so each exchange moves
    (keys × groups) rows, not lineitems. At bench scale all three
    dimension sides (filtered part, supplier, orders key→year) fit the
    broadcast gate, so the whole chain is map-side — ONE lineitem scan,
    zero all-to-alls before the tiny terminal groupby; above the 64 MB
    gate each hop flips to the bucketed ``hash_join`` (the part hop
    keeps its bloom prune there) with the same fold semantics.
    amount_e4 = rev_e4 − retail_cents·qty·100 — exact integers end to
    end."""

    def part_prep(b: pa.Table) -> pa.Table:
        m = pc.match_substring(b["p_name"], name_like)
        b = b.filter(m)
        return pa.table(
            {"p_partkey": b["p_partkey"], "retail_cents": to_cents(b["p_retailprice"])}
        )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]).map_batches(
        part_prep, batch_format="pyarrow"
    )

    def li_prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_partkey": b["l_partkey"],
                "l_suppkey": b["l_suppkey"],
                "l_orderkey": b["l_orderkey"],
                "rev_e4": _rev_e4(b),
                "qty": _qty_int(b["l_quantity"]),
            }
        )
        return _rename(
            t.group_by(["p_partkey", "l_suppkey", "l_orderkey"]).aggregate(
                [("rev_e4", "sum"), ("qty", "sum")]
            ),
            {"rev_e4_sum": "rev_e4", "qty_sum": "qty"},
        )

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_suppkey", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    j1 = auto_join(
        li,
        part,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("p_partkey", pa.int64()),
            ("l_suppkey", pa.int64()),
            ("l_orderkey", pa.int64()),
            ("rev_e4", pa.int64()),
            ("qty", pa.int64()),
        ],
        right_schema=[("p_partkey", pa.int64()), ("retail_cents", pa.int64())],
        bloom_prune_left=True,
    )

    # From here the profit amounts are carried as Sum128 limb pairs
    # (functions/limbs.py): per-row amounts fit int64 with room to
    # spare, but the fold targets get progressively wider (order →
    # order×nation → nation×year, 25×7 terminal groups each absorbing
    # ~1/175 of corpus profit), and plain int64 starts losing bits
    # around SF-15-equivalent scale (VERDICT r3 "What's missing #4").
    # Every partial renormalizes the lo limb back under 10⁹ so the
    # global fold bound (blocks·10⁹) holds through all three hops.
    def amount_partial(b: pa.Table) -> pa.Table:
        amount = pc.subtract(
            b["rev_e4"],
            pc.multiply(
                pc.multiply(b["retail_cents"], b["qty"]), pa.scalar(100, pa.int64())
            ),
        )
        t = pa.table(
            {
                "s_suppkey": b["l_suppkey"],
                "l_orderkey": b["l_orderkey"],
                "amount_e4": amount,
            }
        )
        t = limbify(t, ["amount_e4"])
        g = t.group_by(["s_suppkey", "l_orderkey"]).aggregate(
            limb_sums(["amount_e4"])
        )
        g = renorm_limbs(g, ["amount_e4"])
        return _rename(
            g,
            {"amount_e4_hi_sum": "amount_e4_hi", "amount_e4_lo_sum": "amount_e4_lo"},
        )

    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b["s_suppkey"],
                "natkey": pc.cast(b["s_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    j2 = auto_join(
        j1.map_batches(amount_partial, batch_format="pyarrow"),
        supp,
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("s_suppkey", pa.int64()),
            ("l_orderkey", pa.int64()),
            ("amount_e4_hi", pa.int64()),
            ("amount_e4_lo", pa.int64()),
        ],
        right_schema=[("s_suppkey", pa.int64()), ("natkey", pa.int64())],
    )

    def j2_partial(b: pa.Table) -> pa.Table:
        t = b.select(["l_orderkey", "natkey", "amount_e4_hi", "amount_e4_lo"])
        g = t.group_by(["l_orderkey", "natkey"]).aggregate(limb_sums(["amount_e4"]))
        g = renorm_limbs(g, ["amount_e4"])
        return _rename(
            g,
            {"amount_e4_hi_sum": "amount_e4_hi", "amount_e4_lo_sum": "amount_e4_lo"},
        )

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["o_orderkey"],
                "o_year": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    j3 = auto_join(
        j2.map_batches(j2_partial, batch_format="pyarrow"),
        orders,
        on="l_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[
            ("l_orderkey", pa.int64()),
            ("natkey", pa.int64()),
            ("amount_e4_hi", pa.int64()),
            ("amount_e4_lo", pa.int64()),
        ],
        right_schema=[("l_orderkey", pa.int64()), ("o_year", pa.int64())],
    )

    def final_partial(b: pa.Table) -> pa.Table:
        t = b.select(["natkey", "o_year", "amount_e4_hi", "amount_e4_lo"])
        g = t.group_by(["natkey", "o_year"]).aggregate(limb_sums(["amount_e4"]))
        return renorm_limbs(g, ["amount_e4"])

    df = (
        j3.map_batches(final_partial, batch_format="pyarrow")
        .groupby(["natkey", "o_year"])
        .aggregate(*limb_ray_aggs(["amount_e4"]))
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {
                "n_name": pd.Series([], dtype="object"),
                "o_year": pd.Series([], dtype="int64"),
                "profit_e4": pd.Series([], dtype="int64"),
            }
        )
    df = recombine_limbs(df, ["amount_e4"]).rename(columns={"amount_e4": "profit_e4"})
    names = _nation_names(sf_dir)
    df["n_name"] = df["natkey"].map(names)
    df["o_year"] = df["o_year"].astype("int64")
    df["profit_e4"] = df["profit_e4"].astype("int64")
    return (
        df[["n_name", "o_year", "profit_e4"]]
        .sort_values(["n_name", "o_year"], ascending=[True, False])
        .reset_index(drop=True)
    )


Q9_SQL = """
SELECT n_name,
       CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))
           - CAST(round(p_retailprice * 100) AS BIGINT)
             * CAST(round(l_quantity) AS BIGINT) * 100) AS BIGINT) AS profit_e4
FROM lineitem
JOIN part ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN orders ON l_orderkey = o_orderkey
JOIN nation ON s_nationkey = n_nationkey
WHERE p_name LIKE '%red%'
GROUP BY n_name, o_year
ORDER BY n_name, o_year DESC
"""


# ------------------------------------ Q11 (above-average-value parts)


def q11_important_parts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q11 shape (HAVING against a global scalar): per-part total
    revenue, keeping parts whose value exceeds the corpus average —
    value·N_parts > Σvalue, compared in exact integers (no division).

    One partial-agg + groupby shuffle builds the per-part totals; the
    global scalar comes from TWO tiny distributed aggregates over that
    (already #parts-sized) result — the per-part dataset is
    materialized once because three consumers read it, and it is
    #parts-sized, never lineitem-sized."""
    P = 16

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"p_partkey": b["l_partkey"], "value_e4": _rev_e4(b)})
        return _rename(
            t.group_by("p_partkey").aggregate([("value_e4", "sum")]),
            {"value_e4_sum": "value_e4"},
        )

    def fold_parts(g: pa.Table) -> pa.Table:
        # key-pid bucket fold in numpy (a part's partials all land
        # here) — cheaper than the generic sort-based groupby over the
        # #parts-per-block partial stream
        pk = g["p_partkey"].to_numpy(zero_copy_only=False)
        v = g["value_e4"].to_numpy(zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        pk, v = pk[order], v[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        return pa.table(
            {
                "p_partkey": pa.array(pk[starts]),
                "value_e4": pa.array(np.add.reduceat(v, starts)),
            }
        )

    per_part = bucket_fold(
        read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]),
        "p_partkey", partial, fold_parts,
        pa.schema([("p_partkey", pa.int64()), ("value_e4", pa.int64())]), P,
    ).materialize()
    total = per_part.sum("value_e4") or 0
    n_parts = per_part.count()
    if n_parts == 0:
        return pd.DataFrame(
            {"p_partkey": pd.Series([], dtype="int64"),
             "value_e4": pd.Series([], dtype="int64")}
        )

    def above_avg(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b["value_e4"], pa.scalar(n_parts, pa.int64())),
            pa.scalar(int(total), pa.int64()),
        )
        return b.filter(keep)

    df = per_part.map_batches(above_avg, batch_format="pyarrow").to_pandas()
    if df.empty:
        return pd.DataFrame(
            {"p_partkey": pd.Series([], dtype="int64"),
             "value_e4": pd.Series([], dtype="int64")}
        )
    df["p_partkey"] = df["p_partkey"].astype("int64")
    df["value_e4"] = df["value_e4"].astype("int64")
    return (
        df[["p_partkey", "value_e4"]]
        .sort_values(["value_e4", "p_partkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


Q11_SQL = """
WITH v AS (
  SELECT l_partkey AS p_partkey,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS value_e4
  FROM lineitem GROUP BY l_partkey)
SELECT p_partkey, value_e4
FROM v
WHERE value_e4 * (SELECT count(*) FROM v) > (SELECT sum(value_e4) FROM v)
ORDER BY value_e4 DESC, p_partkey
"""


# ------------------------------- Q12 (priority split per return flag)


def q12_priority_lines(sf_dir: str, year: str = "1997") -> pd.DataFrame:
    """TPC-H Q12 shape (CASE conditional aggregation over a fact-fact
    join): lines shipped in one year, counted per return flag and split
    by order priority (URGENT/HIGH vs the rest).

    Lineitem pre-aggregates to (orderkey, returnflag, n) per batch AND
    per join partition, so the exchange moves counts; the CASE split is
    a vectorized if_else after the join."""
    lo, hi = _ts(f"{year}-01-01"), _ts(f"{int(year) + 1}-01-01")

    def li_prep(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(b["l_shipdate"], lo), pc.less(b["l_shipdate"], hi)
        )
        b = b.filter(m)
        t = pa.table(
            {"o_orderkey": b["l_orderkey"], "l_returnflag": b["l_returnflag"]}
        )
        g = t.group_by(["o_orderkey", "l_returnflag"]).aggregate([([], "count_all")])
        return g.rename_columns(["o_orderkey", "l_returnflag", "n"])

    def li_fold(t: pa.Table) -> pa.Table:
        return _rename(
            t.group_by(["o_orderkey", "l_returnflag"]).aggregate([("n", "sum")]),
            {"n_sum": "n"},
        )

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"]).map_batches(
        li_prep, batch_format="pyarrow"
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = hash_join(
        li,
        orders,
        on="o_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=li_fold,
        left_schema=[
            ("o_orderkey", pa.int64()),
            ("l_returnflag", pa.string()),
            ("n", pa.int64()),
        ],
        right_schema=[("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())],
    )

    def split(b: pa.Table) -> pa.Table:
        hi_flag = pc.is_in(
            b["o_orderpriority"],
            value_set=pa.array(["1-URGENT", "2-HIGH"], pa.string()),
        )
        zero = pa.scalar(0, pa.int64())
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "high_lines": pc.if_else(hi_flag, b["n"], zero),
                "low_lines": pc.if_else(hi_flag, zero, b["n"]),
            }
        )
        return _rename(
            t.group_by("l_returnflag").aggregate(
                [("high_lines", "sum"), ("low_lines", "sum")]
            ),
            {"high_lines_sum": "high_lines", "low_lines_sum": "low_lines"},
        )

    df = (
        joined.map_batches(split, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(
            Sum("high_lines", alias_name="high_lines"),
            Sum("low_lines", alias_name="low_lines"),
        )
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {
                "l_returnflag": pd.Series([], dtype="object"),
                "high_lines": pd.Series([], dtype="int64"),
                "low_lines": pd.Series([], dtype="int64"),
            }
        )
    df["high_lines"] = df["high_lines"].astype("int64")
    df["low_lines"] = df["low_lines"].astype("int64")
    return df.sort_values("l_returnflag").reset_index(drop=True)


Q12_SQL = """
SELECT l_returnflag,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS low_lines
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY l_returnflag
ORDER BY l_returnflag
"""


# -------------------------------- Q13 (customer order distribution)


def q13_order_distribution(sf_dir: str, excl_priority: str = "5-LOW") -> pd.DataFrame:
    """TPC-H Q13 shape (left-outer join + double aggregation): how many
    customers placed exactly k qualifying orders, INCLUDING k = 0 —
    the zero bucket only exists because unmatched customers survive the
    outer join.

    Orders pre-count per custkey per batch and fold again per join
    partition (``right_agg``), so the outer exchange moves one row per
    (partition, customer); the second aggregation is over ≤ a few dozen
    distinct counts — a tiny combine."""
    cust = read_table(sf_dir, "customer", ["c_custkey"])

    def o_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b["o_orderpriority"], excl_priority))
        t = pa.table({"c_custkey": b["o_custkey"]})
        g = t.group_by("c_custkey").aggregate([([], "count_all")])
        return g.rename_columns(["c_custkey", "n_orders"])

    def o_fold(t: pa.Table) -> pa.Table:
        return _rename(
            t.group_by("c_custkey").aggregate([("n_orders", "sum")]),
            {"n_orders_sum": "n_orders"},
        )

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        o_prep, batch_format="pyarrow"
    )
    joined = hash_join(
        cust,
        orders,
        on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        right_agg=o_fold,
        join_type="left outer",
        left_schema=[("c_custkey", pa.int64())],
        right_schema=[("c_custkey", pa.int64()), ("n_orders", pa.int64())],
    )

    def dist_partial(b: pa.Table) -> pa.Table:
        c_count = pc.fill_null(b["n_orders"], 0)
        t = pa.table({"c_count": c_count})
        g = t.group_by("c_count").aggregate([([], "count_all")])
        return g.rename_columns(["c_count", "custdist"])

    df = (
        joined.map_batches(dist_partial, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("custdist", alias_name="custdist"))
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {"c_count": pd.Series([], dtype="int64"),
             "custdist": pd.Series([], dtype="int64")}
        )
    df["c_count"] = df["c_count"].astype("int64")
    df["custdist"] = df["custdist"].astype("int64")
    return (
        df.sort_values(["custdist", "c_count"], ascending=[False, False])
        .reset_index(drop=True)
    )


Q13_SQL = """
SELECT c_count, count(*) AS custdist
FROM (SELECT c_custkey, count(o_orderkey) AS c_count
      FROM customer LEFT OUTER JOIN orders
        ON c_custkey = o_custkey AND o_orderpriority <> '5-LOW'
      GROUP BY c_custkey) c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


# ----------------------------- Q16 (supplier count per part profile)


def q16_part_supplier_counts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16 shape (exact COUNT DISTINCT + NOT-IN anti filter):
    distinct suppliers per (brand, type, size) part profile, excluding
    a brand/type slice and a (tiny, derived) bad-supplier set.

    The bad-supplier set is filtered at the source scan DISTRIBUTED
    (only the matching keys — a few rows — ever reach the driver) and
    broadcast by closure;
    (partkey, suppkey) pairs dedupe per batch and again per join
    partition, the profile join bloom-prunes the fact side, and the
    exact distinct is the grouped-by-(profile, suppkey) shuffle — one
    row per distinct pair reaches the final tiny count."""
    bad_df = (
        read_table(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
        .map_batches(
            lambda b: b.filter(pc.less(b["s_acctbal"], 0.0)).select(
                ["s_suppkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    bad_set = pa.array(
        bad_df["s_suppkey"].astype("int64").tolist() if len(bad_df) else [],
        pa.int64(),
    )

    def part_prep(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.not_equal(b["p_brand"], "Brand#1"),
                pc.not_equal(b["p_type"], "PROMO"),
            ),
            pc.less_equal(b["p_size"], pa.scalar(25, pa.int32())),
        )
        b = b.filter(m)
        return pa.table(
            {
                "p_partkey": b["p_partkey"],
                "p_brand": b["p_brand"],
                "p_type": b["p_type"],
                "p_size": pc.cast(b["p_size"], pa.int64()),
            }
        )

    part = read_table(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]).map_batches(
        part_prep, batch_format="pyarrow"
    )

    def li_prep(b: pa.Table) -> pa.Table:
        keep = pc.invert(pc.is_in(b["l_suppkey"], value_set=bad_set))
        b = b.filter(keep)
        t = pa.table({"p_partkey": b["l_partkey"], "s_suppkey": b["l_suppkey"]})
        return t.group_by(["p_partkey", "s_suppkey"]).aggregate([])

    def li_fold(t: pa.Table) -> pa.Table:
        return t.group_by(["p_partkey", "s_suppkey"]).aggregate([])

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
        li_prep, batch_format="pyarrow"
    )
    joined = hash_join(
        li,
        part,
        on="p_partkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=li_fold,
        left_schema=[("p_partkey", pa.int64()), ("s_suppkey", pa.int64())],
        right_schema=[
            ("p_partkey", pa.int64()),
            ("p_brand", pa.string()),
            ("p_type", pa.string()),
            ("p_size", pa.int64()),
        ],
        bloom_prune_left=True,
    )

    def quad_partial(b: pa.Table) -> pa.Table:
        # per-batch quad dedupe before a suppkey-keyed exchange: one
        # int-keyed exchange replaces two global 4-string-key aggregates
        # — every (profile, suppkey) quad lands in the partition owning
        # its suppkey, so a per-partition dedupe is globally exact
        t = b.select(["p_brand", "p_type", "p_size", "s_suppkey"])
        return t.group_by(["p_brand", "p_type", "p_size", "s_suppkey"]).aggregate([])

    def bucket_count(g: pa.Table) -> pa.Table:
        d = g.group_by(["p_brand", "p_type", "p_size", "s_suppkey"]).aggregate([])
        c = d.select(["p_brand", "p_type", "p_size"]).group_by(
            ["p_brand", "p_type", "p_size"]
        ).aggregate([([], "count_all")])
        return c.rename_columns(["p_brand", "p_type", "p_size", "supplier_cnt"])

    schema = pa.schema(
        [("p_brand", pa.string()), ("p_type", pa.string()),
         ("p_size", pa.int64()), ("supplier_cnt", pa.int64())]
    )
    df = (
        bucket_fold(
            joined, "s_suppkey", quad_partial, bucket_count, schema,
            JOIN_PARTITIONS, pinned=False,
        )
        .groupby(["p_brand", "p_type", "p_size"])
        .aggregate(Sum("supplier_cnt", alias_name="supplier_cnt"))
        .to_pandas()
    )
    df = ensure_columns(df, schema)
    df["p_size"] = df["p_size"].astype("int64")
    df["supplier_cnt"] = df["supplier_cnt"].astype("int64")
    return (
        df[["p_brand", "p_type", "p_size", "supplier_cnt"]]
        .sort_values(
            ["supplier_cnt", "p_brand", "p_type", "p_size"],
            ascending=[False, True, True, True],
        )
        .reset_index(drop=True)
    )


Q16_SQL = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       count(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO' AND p_size <= 25
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


# --------------------------------------- Q20 (excess-share suppliers)


def q20_excess_suppliers(sf_dir: str, prefix: str = "blue", year: str = "1997") -> pd.DataFrame:
    """TPC-H Q20 shape (nested semi-join chain with a threshold): the
    suppliers who shipped more than half the MAXIMUM per-supplier
    quantity of a part-name slice in one year (relative threshold so
    the result is non-empty at every scale), decorated with names.

    Chain: part-name slice (filtered at the scan DISTRIBUTED — only
    the ~1/25 matching keys reach the driver, then broadcast once via
    the object store) → semi-filter lineitem → per-supplier quantity
    groupby → global max (a tiny aggregate over the #suppliers-sized
    result) → threshold filter → bucketed join to supplier for names.
    If the slice itself outgrew broadcast, the bloom-pruned bucketed
    semi-join in joins.py is the drop-in replacement.

    Overflow note: the per-supplier qty fold stays int64 WITHOUT limbs
    by construction — TPC-H scales lineitem and supplier together, so
    lineitems-per-supplier is scale-invariant (~600) and qty ≤ 50 per
    row bounds every group sum at ~3·10⁴ regardless of SF; the wide
    folds that do grow with scale (q9 profit, q22 balance totals)
    carry Sum128 limbs instead."""
    keys_df = (
        read_table(sf_dir, "part", ["p_partkey", "p_name"])
        .map_batches(
            lambda b: b.filter(pc.starts_with(b["p_name"], prefix)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    keyset = pa.array(
        keys_df["p_partkey"].astype("int64").tolist() if len(keys_df) else [],
        pa.int64(),
    )
    lo, hi = _ts(f"{year}-01-01"), _ts(f"{int(year) + 1}-01-01")

    def li_prep(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(b["l_shipdate"], lo), pc.less(b["l_shipdate"], hi)
            ),
            pc.is_in(b["l_partkey"], value_set=keyset),
        )
        b = b.filter(m)
        t = pa.table({"s_suppkey": b["l_suppkey"], "qty": _qty_int(b["l_quantity"])})
        return _rename(
            t.group_by("s_suppkey").aggregate([("qty", "sum")]), {"qty_sum": "qty"}
        )

    per_supp = (
        read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_shipdate", "l_quantity"])
        .map_batches(li_prep, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("qty", alias_name="qty"))
        .materialize()
    )
    if per_supp.count() == 0:
        return pd.DataFrame(
            {
                "s_suppkey": pd.Series([], dtype="int64"),
                "s_name": pd.Series([], dtype="object"),
                "qty": pd.Series([], dtype="int64"),
            }
        )
    mx = int(per_supp.max("qty"))

    def over_half(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.greater(
                pc.multiply(b["qty"], pa.scalar(2, pa.int64())),
                pa.scalar(mx, pa.int64()),
            )
        )

    qualifying = per_supp.map_batches(over_half, batch_format="pyarrow")
    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    joined = hash_join(
        qualifying,
        supp,
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("s_suppkey", pa.int64()), ("qty", pa.int64())],
        right_schema=[("s_suppkey", pa.int64()), ("s_name", pa.string())],
    )
    df = joined.to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "s_suppkey": pd.Series([], dtype="int64"),
                "s_name": pd.Series([], dtype="object"),
                "qty": pd.Series([], dtype="int64"),
            }
        )
    df["s_suppkey"] = df["s_suppkey"].astype("int64")
    df["qty"] = df["qty"].astype("int64")
    return (
        df[["s_suppkey", "s_name", "qty"]]
        .sort_values("s_suppkey")
        .reset_index(drop=True)
    )


Q20_SQL = """
WITH q AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem
  WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'blue%')
    AND l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate < TIMESTAMP '1998-01-01'
  GROUP BY l_suppkey)
SELECT q.s_suppkey, s_name, qty
FROM q JOIN supplier ON q.s_suppkey = supplier.s_suppkey
WHERE qty * 2 > (SELECT max(qty) FROM q)
ORDER BY q.s_suppkey
"""


# ------------------------------------------ Q21 (waiting suppliers)


def q21_waiting_suppliers(sf_dir: str, lag_days: int = 30, topk: int = 20) -> pd.DataFrame:
    """TPC-H Q21 shape (EXISTS + NOT EXISTS self-joins): suppliers who
    were the SOLE late shipper on finished multi-supplier orders, ranked
    by how many such orders they blocked.

    The two correlated self-joins collapse into per-order aggregates —
    exists(other supplier) ⇔ n_suppliers ≥ 2, not-exists(other late)
    ⇔ n_late = 1 — computed without any self-join: lineitem folds to
    one row per (order, supplier) inside the orderkey-partitioned join
    (``left_agg`` sees every line of an order), then associative
    per-order partials (count / sum / max) combine in one groupby."""
    def li_prep(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderkey": b["l_orderkey"],
                "s_suppkey": b["l_suppkey"],
                "max_ship": b["l_shipdate"],
            }
        )
        return _rename(
            t.group_by(["o_orderkey", "s_suppkey"]).aggregate([("max_ship", "max")]),
            {"max_ship_max": "max_ship"},
        )

    def li_fold(t: pa.Table) -> pa.Table:
        return _rename(
            t.group_by(["o_orderkey", "s_suppkey"]).aggregate([("max_ship", "max")]),
            {"max_ship_max": "max_ship"},
        )

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        li_prep, batch_format="pyarrow"
    )
    orders = (
        read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderstatus"])
        .filter(expr="o_orderstatus == 'F'")
        .map_batches(
            lambda b: b.select(["o_orderkey", "o_orderdate"]), batch_format="pyarrow"
        )
    )
    lag_us = pa.scalar(lag_days * 86_400_000_000, pa.int64())

    def order_blame(b: pa.Table) -> pa.Table:
        # joined_map: runs inside the orderkey-hash partition, where
        # every (order, supplier) row of an order is present (left_agg
        # folded them to one row each) — the per-order aggregate is
        # COMPLETE here, the sole-late-supplier predicate applies
        # locally, and only tiny (s_suppkey, numwait) partials leave
        # the partition instead of a second orderkey all-to-all.
        late = pc.cast(
            pc.greater(
                pc.subtract(
                    pc.cast(b["max_ship"], pa.int64()),
                    pc.cast(b["o_orderdate"], pa.int64()),
                ),
                lag_us,
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "n_supp": pa.array(np.ones(b.num_rows, np.int64)),
                "n_late": late,
                "late_supp": pc.multiply(late, b["s_suppkey"]),
            }
        )
        g = _rename(
            t.group_by("o_orderkey").aggregate(
                [("n_supp", "sum"), ("n_late", "sum"), ("late_supp", "max")]
            ),
            {"n_supp_sum": "n_supp", "n_late_sum": "n_late", "late_supp_max": "late_supp"},
        )
        keep = pc.and_(
            pc.equal(g["n_late"], pa.scalar(1, pa.int64())),
            pc.greater_equal(g["n_supp"], pa.scalar(2, pa.int64())),
        )
        blame = pa.table({"s_suppkey": g.filter(keep)["late_supp"]})
        return blame.group_by("s_suppkey").aggregate([([], "count_all")]).rename_columns(
            ["s_suppkey", "numwait"]
        )

    blamed = hash_join(
        li,
        orders,
        on="o_orderkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=li_fold,
        joined_map=order_blame,
        left_schema=[
            ("o_orderkey", pa.int64()),
            ("s_suppkey", pa.int64()),
            ("max_ship", pa.timestamp("us")),
        ],
        right_schema=[("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))],
    )
    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    # the per-supplier numwait completion folds INSIDE the naming
    # join's suppkey-hash partitions (left_agg) — a stand-alone
    # groupby here would pay a whole extra all-to-all for rows the
    # join is about to exchange by the same key anyway; local_top
    # below relies on the fold's key-completeness per partition
    named = hash_join(
        blamed,
        supp,
        on="s_suppkey",
        num_partitions=JOIN_PARTITIONS,
        left_agg=lambda t: _rename(
            t.group_by("s_suppkey").aggregate([("numwait", "sum")]),
            {"numwait_sum": "numwait"},
        ),
        left_schema=[("s_suppkey", pa.int64()), ("numwait", pa.int64())],
        right_schema=[("s_suppkey", pa.int64()), ("s_name", pa.string())],
    )

    def local_top(b: pa.Table) -> pa.Table:
        t = b.select(["s_name", "s_suppkey", "numwait"])
        t = t.sort_by([("numwait", "descending"), ("s_name", "ascending")])
        return t.slice(0, topk)

    df = named.map_batches(local_top, batch_format="pyarrow").to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "s_name": pd.Series([], dtype="object"),
                "s_suppkey": pd.Series([], dtype="int64"),
                "numwait": pd.Series([], dtype="int64"),
            }
        )
    df = (
        df.sort_values(["numwait", "s_name"], ascending=[False, True])
        .head(topk)
        .reset_index(drop=True)
    )
    df["s_suppkey"] = df["s_suppkey"].astype("int64")
    df["numwait"] = df["numwait"].astype("int64")
    return df[["s_name", "s_suppkey", "numwait"]]


Q21_SQL = """
WITH j AS (
  SELECT l_orderkey AS o_orderkey, l_suppkey AS s_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 30 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderstatus = 'F'
  GROUP BY 1, 2),
per_order AS (
  SELECT o_orderkey, count(*) AS n_supp, sum(late) AS n_late,
         max(CASE WHEN late = 1 THEN s_suppkey END) AS late_supp
  FROM j GROUP BY 1)
SELECT s_name, supplier.s_suppkey AS s_suppkey, count(*) AS numwait
FROM per_order JOIN supplier ON late_supp = supplier.s_suppkey
WHERE n_late = 1 AND n_supp >= 2
GROUP BY 1, 2
ORDER BY numwait DESC, s_name
LIMIT 20
"""


# ---------------------------------------- Q22 (idle rich customers)


def q22_idle_customers(
    sf_dir: str, buckets: tuple[int, ...] = (0, 2, 4), since: str = "2000-07-01"
) -> pd.DataFrame:
    """TPC-H Q22 shape (global-scalar subquery + anti-join): customers
    in selected nation buckets whose balance beats the positive-balance
    average and who placed NO order since a cutoff, grouped by bucket.

    The average is two tiny distributed sums; the comparison cross-
    multiplies (bal·count > total) so no float division enters the
    result; the NOT-EXISTS is the bucketed LEFT ANTI join against the
    (date-filtered, per-partition-distinct) orders keys."""
    bucket_set = pa.array(list(buckets), pa.int64())
    cutoff = _ts(since)

    def c_prep(b: pa.Table) -> pa.Table:
        cntry = pc.cast(
            pc.subtract(
                pc.cast(b["c_nationkey"], pa.int64()),
                pc.multiply(
                    pc.divide(pc.cast(b["c_nationkey"], pa.int64()), pa.scalar(5, pa.int64())),
                    pa.scalar(5, pa.int64()),
                ),
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                "c_custkey": b["c_custkey"],
                "cntry": cntry,
                "bal_cents": to_cents(b["c_acctbal"]),
            }
        )
        return t.filter(pc.is_in(t["cntry"], value_set=bucket_set))

    sel = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]).map_batches(
        c_prep, batch_format="pyarrow"
    ).materialize()  # consumed twice: scalar pass + filtered anti-join

    def avg_partial(b: pa.Table) -> pa.Table:
        pos = b.filter(pc.greater(b["bal_cents"], 0))
        return pa.table(
            {
                "tot": pa.array([pc.sum(pos["bal_cents"]).as_py() or 0], pa.int64()),
                "cnt": pa.array([pos.num_rows], pa.int64()),
            }
        )

    agg = sel.map_batches(avg_partial, batch_format="pyarrow").to_pandas()
    agg = ensure_columns(agg, {"tot": "int64", "cnt": "int64"})
    # fold the per-batch partials with PYTHON ints: the per-batch tot
    # is block-bounded (fits int64 with 7 digits to spare) but the
    # corpus total is not — pandas' int64 .sum() would silently wrap
    # past ~9·10¹⁸ (≈SF 10⁶). cnt can't overflow (it counts rows).
    tot = sum(int(x) for x in agg["tot"])
    cnt = int(agg["cnt"].sum())
    if cnt == 0:
        return pd.DataFrame(
            {
                "cntry": pd.Series([], dtype="int64"),
                "numcust": pd.Series([], dtype="int64"),
                "totacctbal_cents": pd.Series([], dtype="int64"),
            }
        )

    # bal·cnt > tot ⟺ bal ≥ tot//cnt + 1 (integers, cnt > 0): the
    # threshold stays ≤ max-balance cents, so neither side of the
    # distributed comparison can overflow no matter how large tot/cnt
    # grow — unlike the literal cross-multiplication, whose bal·cnt
    # wraps int64 once cnt passes ~9·10¹².
    thr = tot // cnt + 1
    rich = sel.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b["bal_cents"], pa.scalar(thr, pa.int64()))
        ),
        batch_format="pyarrow",
    )

    def o_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["o_orderdate"], cutoff))
        return pa.table({"c_custkey": b["o_custkey"]}).group_by("c_custkey").aggregate([])

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        o_prep, batch_format="pyarrow"
    )
    idle = hash_join(
        rich,
        orders,
        on="c_custkey",
        num_partitions=JOIN_PARTITIONS,
        right_agg=lambda t: t.group_by("c_custkey").aggregate([]),
        join_type="left anti",
        left_schema=[
            ("c_custkey", pa.int64()),
            ("cntry", pa.int64()),
            ("bal_cents", pa.int64()),
        ],
        right_schema=[("c_custkey", pa.int64())],
    )

    # the per-bucket balance totals are the wide fold (≤5 groups each
    # absorbing a fifth of the rich-customer balance mass) — carried as
    # Sum128 limbs like q9's profit chain
    def final_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "cntry": b["cntry"],
                "numcust": pa.array(np.ones(b.num_rows, np.int64)),
                "totacctbal_cents": b["bal_cents"],
            }
        )
        t = limbify(t, ["totacctbal_cents"])
        g = t.group_by("cntry").aggregate(
            [("numcust", "sum"), *limb_sums(["totacctbal_cents"])]
        )
        g = renorm_limbs(g, ["totacctbal_cents"])
        return _rename(g, {"numcust_sum": "numcust"})

    df = (
        idle.map_batches(final_partial, batch_format="pyarrow")
        .groupby("cntry")
        .aggregate(
            Sum("numcust", alias_name="numcust"),
            *limb_ray_aggs(["totacctbal_cents"]),
        )
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {
                "cntry": pd.Series([], dtype="int64"),
                "numcust": pd.Series([], dtype="int64"),
                "totacctbal_cents": pd.Series([], dtype="int64"),
            }
        )
    df = recombine_limbs(df, ["totacctbal_cents"])
    for c in ("cntry", "numcust", "totacctbal_cents"):
        df[c] = df[c].astype("int64")
    return df[["cntry", "numcust", "totacctbal_cents"]].sort_values("cntry").reset_index(
        drop=True
    )


Q22_SQL = """
WITH sel AS (
  SELECT c_custkey, CAST(c_nationkey % 5 AS BIGINT) AS cntry,
         CAST(round(c_acctbal * 100) AS BIGINT) AS bal_cents
  FROM customer WHERE c_nationkey % 5 IN (0, 2, 4)),
a AS (SELECT sum(bal_cents) AS tot, count(*) AS cnt FROM sel WHERE bal_cents > 0)
SELECT cntry, count(*) AS numcust, CAST(sum(bal_cents) AS BIGINT) AS totacctbal_cents
FROM sel, a
WHERE bal_cents * cnt > tot
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '2000-07-01')
GROUP BY cntry
ORDER BY cntry
"""
