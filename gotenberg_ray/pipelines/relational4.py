"""Fourth relational wave — three shapes the suite doesn't otherwise
exercise, each with an exact DuckDB twin:

- ``nation_balance_full_outer``: FULL OUTER join of two independently
  aggregated sides (deficit customers vs high-balance suppliers per
  nation).  Both sides pre-aggregate per batch, the bucketed
  ``hash_join`` completes the fold per key partition (co-location is
  guaranteed), and the outer fill happens vectorized after the join —
  the exchange carries one row per (nation, side), never raw rows.

- ``nation_top_customers_agg``: grouped top-k + ORDERED string
  aggregation (``string_agg(... ORDER BY ...)`` / LISTAGG): per-batch
  local top-k per nation via one lexsort + segment ranks (each batch
  forwards at most k rows per nation), then a 25-group ``map_groups``
  finalizes the global top-k and concatenates names in rank order.

- ``orders_price_ntile``: exact NTILE(k) over a global ordering
  without materializing a global sort: the composite order key
  (price desc, orderkey) packs invertibly into one int64, the shared
  ``ordered_prefix_sum`` machinery (packing.py) assigns every row its
  exact global rank with only a #buckets-row driver scan, and DuckDB's
  ntile fill rule (first N%k buckets get one extra row) is applied
  vectorized per batch.  Bucket stats then fold through a k-row
  groupby.

Reference parity: the reference engine (gotenberg) has no relational
layer; these cover the generic warehouse shapes SURVEY.md §2.7 groups
under aggregation/sort coverage for the 100 TB curation engine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Max, Min, Sum

from ..functions.frames import ensure_columns
from ..functions.limbs import to_cents
from ..functions.segments import segment_ranks
from ..io import read_table

CUST_BAL_MAX = 0.0  # deficit customers: c_acctbal < 0 (~9% of rows)
SUPP_BAL_MIN = 5000.0  # high-balance suppliers: s_acctbal > 5000
TOP_K = 3  # per-nation top customers
NTILE_K = 4  # quartiles
_PRICE_SHIFT = np.int64(1) << np.int64(33)  # orderkey < 2^33 (doc'd)
_PRICE_CAP = np.int64(10**8)  # cents < 10^8


# --------------------------------------------------- full outer join


def nation_balance_full_outer(sf_dir: str) -> pd.DataFrame:
    """Per-nation deficit-customer vs high-balance-supplier totals,
    FULL OUTER joined — nations appear when EITHER side is non-empty,
    missing sides fill with zero.

    The 25-group balance totals are the widest fold in this file (each
    nation absorbs ~4% of the filtered balance mass), so both cents
    columns travel as Sum128 limb pairs (functions/limbs.py — exact for
    the NEGATIVE deficit balances too) and recombine on the driver."""
    from ..functions.limbs import limbify, limb_sums, recombine_limbs, renorm_limbs
    from .joins import hash_join

    def cust_partial(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch["c_acctbal"], CUST_BAL_MAX)
        b = batch.filter(keep)
        t = pa.table(
            {
                "nationkey": b["c_nationkey"],
                "n_cust": pa.array(np.ones(b.num_rows, np.int64)),
                "cust_cents": to_cents(b["c_acctbal"]),
            }
        )
        t = limbify(t, ["cust_cents"])
        g = t.group_by("nationkey").aggregate(
            [("n_cust", "sum"), *limb_sums(["cust_cents"])]
        )
        g = g.rename_columns(["nationkey", "n_cust", "cust_cents_hi", "cust_cents_lo"])
        return renorm_limbs(g, ["cust_cents"], suffix="")

    def supp_partial(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch["s_acctbal"], SUPP_BAL_MIN)
        b = batch.filter(keep)
        t = pa.table(
            {
                "nationkey": b["s_nationkey"],
                "n_supp": pa.array(np.ones(b.num_rows, np.int64)),
                "supp_cents": to_cents(b["s_acctbal"]),
            }
        )
        t = limbify(t, ["supp_cents"])
        g = t.group_by("nationkey").aggregate(
            [("n_supp", "sum"), *limb_sums(["supp_cents"])]
        )
        g = g.rename_columns(["nationkey", "n_supp", "supp_cents_hi", "supp_cents_lo"])
        return renorm_limbs(g, ["supp_cents"], suffix="")

    def fold(cols, limb):
        def _fold(part: pa.Table) -> pa.Table:
            g = (
                part.group_by("nationkey")
                .aggregate([(c, "sum") for c in cols])
                .rename_columns(["nationkey", *cols])
            )
            return renorm_limbs(g, [limb], suffix="")

        return _fold

    schema_l = [
        ("nationkey", pa.int64()),
        ("n_cust", pa.int64()),
        ("cust_cents_hi", pa.int64()),
        ("cust_cents_lo", pa.int64()),
    ]
    schema_r = [
        ("nationkey", pa.int64()),
        ("n_supp", pa.int64()),
        ("supp_cents_hi", pa.int64()),
        ("supp_cents_lo", pa.int64()),
    ]
    joined = hash_join(
        read_table(sf_dir, "customer", ["c_nationkey", "c_acctbal"]).map_batches(
            cust_partial, batch_format="pyarrow"
        ),
        read_table(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]).map_batches(
            supp_partial, batch_format="pyarrow"
        ),
        on="nationkey",
        join_type="full outer",
        num_partitions=8,
        left_agg=fold(["n_cust", "cust_cents_hi", "cust_cents_lo"], "cust_cents"),
        right_agg=fold(["n_supp", "supp_cents_hi", "supp_cents_lo"], "supp_cents"),
        left_schema=schema_l,
        right_schema=schema_r,
    )

    limb_cols = (
        "n_cust", "cust_cents_hi", "cust_cents_lo",
        "n_supp", "supp_cents_hi", "supp_cents_lo",
    )

    def fill(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "nationkey" not in batch.column_names:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in ("nationkey", *limb_cols)}
            )
        cols = {"nationkey": batch["nationkey"]}
        for c in limb_cols:
            cols[c] = pc.fill_null(pc.cast(batch[c], pa.int64()), 0)
        return pa.table(cols)

    df = joined.map_batches(fill, batch_format="pyarrow").to_pandas()
    df = ensure_columns(
        df, {"nationkey": "int64", **{c: "int64" for c in limb_cols}}
    )
    df = recombine_limbs(df, ["cust_cents", "supp_cents"])
    df = df[["nationkey", "n_cust", "cust_cents", "n_supp", "supp_cents"]]
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("nationkey").reset_index(drop=True)


FULL_OUTER_SQL = f"""
WITH c AS (
  SELECT c_nationkey AS nationkey,
         count(*)::BIGINT AS n_cust,
         sum(CAST(round(c_acctbal * 100) AS BIGINT))::BIGINT AS cust_cents
  FROM customer WHERE c_acctbal < {CUST_BAL_MAX} GROUP BY 1),
s AS (
  SELECT s_nationkey AS nationkey,
         count(*)::BIGINT AS n_supp,
         sum(CAST(round(s_acctbal * 100) AS BIGINT))::BIGINT AS supp_cents
  FROM supplier WHERE s_acctbal > {SUPP_BAL_MIN} GROUP BY 1)
SELECT CAST(coalesce(c.nationkey, s.nationkey) AS BIGINT) AS nationkey,
       coalesce(n_cust, 0) AS n_cust,
       coalesce(cust_cents, 0) AS cust_cents,
       coalesce(n_supp, 0) AS n_supp,
       coalesce(supp_cents, 0) AS supp_cents
FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey
ORDER BY nationkey
"""


# ------------------------------- grouped top-k + ordered string agg


def nation_top_customers_agg(sf_dir: str, k: int = TOP_K) -> pd.DataFrame:
    """Per nation: the top-``k`` customers by (balance desc, custkey)
    concatenated in rank order (LISTAGG / ordered ``string_agg``),
    plus their combined balance."""

    def local_topk(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = to_cents(batch["c_acctbal"]).to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -cents, nk))  # nation asc, cents desc, key asc
        ranks = segment_ranks(nk[order])  # 1-based within each nation run
        keep = order[ranks <= k]
        return pa.table(
            {
                "c_nationkey": pa.array(nk[keep]),
                "c_custkey": pa.array(ck[keep]),
                "c_name": pc.take(batch["c_name"], pa.array(keep)),
                "cents": pa.array(cents[keep]),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        ck = group["c_custkey"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -cents))[:k]
        names = group["c_name"].to_pylist()
        return pa.table(
            {
                "c_nationkey": pa.array(
                    [int(group["c_nationkey"][0].as_py())], pa.int64()
                ),
                "top_names": pa.array([",".join(names[i] for i in order)]),
                "top_cents": pa.array([int(cents[order].sum())], pa.int64()),
                "n_top": pa.array([len(order)], pa.int64()),
            }
        )

    df = (
        read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey", "c_acctbal"])
        .map_batches(local_topk, batch_format="pyarrow")
        .groupby("c_nationkey")
        .map_groups(finalize, batch_format="pyarrow")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {
            "c_nationkey": "int64",
            "top_names": "object",
            "top_cents": "int64",
            "n_top": "int64",
        },
    )
    for c in ("c_nationkey", "top_cents", "n_top"):
        df[c] = df[c].astype("int64")
    return df.sort_values("c_nationkey").reset_index(drop=True)


TOP_CUSTOMERS_AGG_SQL = f"""
WITH r AS (
  SELECT c_nationkey, c_name,
         CAST(round(c_acctbal * 100) AS BIGINT) AS cents,
         row_number() OVER (
             PARTITION BY c_nationkey
             ORDER BY CAST(round(c_acctbal * 100) AS BIGINT) DESC,
                      c_custkey) AS rn
  FROM customer)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       string_agg(c_name, ',' ORDER BY rn) AS top_names,
       sum(cents)::BIGINT AS top_cents,
       count(*)::BIGINT AS n_top
FROM r WHERE rn <= {TOP_K}
GROUP BY c_nationkey ORDER BY c_nationkey
"""


# ------------------------------------------------------ exact NTILE


def orders_price_ntile(sf_dir: str, k: int = NTILE_K) -> pd.DataFrame:
    """Exact NTILE(``k``) bucket stats over ALL orders ordered by
    (price desc, orderkey) — no global sort materializes; every row's
    exact global rank comes from the shared distributed
    ``ordered_prefix_sum`` (range-bucketed two-pass scan), and the
    composite key packs (price, orderkey) invertibly so the price
    rides through the exchange for free.

    Partitioning assumption (documented per SURVEY §4.2): orderkey <
    2^33 and price < 10^6 currency units; both hold for TPC-H-shaped
    data at any sf this engine targets."""
    from .packing import ordered_prefix_sum

    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    n_total = ds.count()
    if not n_total:
        return pd.DataFrame(
            {
                "bucket": pd.Series([], dtype="int64"),
                "n_orders": pd.Series([], dtype="int64"),
                "total_cents": pd.Series([], dtype="int64"),
                "min_cents": pd.Series([], dtype="int64"),
                "max_cents": pd.Series([], dtype="int64"),
            }
        )

    def prep(batch: pa.Table) -> pa.Table:
        cents = to_cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        key = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ckey = (_PRICE_CAP - cents) * _PRICE_SHIFT + key
        return pa.table(
            {
                "ckey": pa.array(ckey),
                "one": pa.array(np.ones(len(key), np.int64)),
            }
        )

    ranked = ordered_prefix_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        "ckey",
        "one",
        span=int(_PRICE_CAP * _PRICE_SHIFT // 256) + 1,
        num_partitions=16,
    )

    q, r = divmod(n_total, k)

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "ckey" not in batch.column_names:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_orders": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                    "min_cents": pa.array([], pa.int64()),
                    "max_cents": pa.array([], pa.int64()),
                }
            )
        ckey = batch["ckey"].to_numpy(zero_copy_only=False)
        rank = batch["start"].to_numpy(zero_copy_only=False) + 1
        cents = _PRICE_CAP - ckey // _PRICE_SHIFT
        cut = (q + 1) * r  # first r buckets take q+1 rows (DuckDB fill)
        if q == 0:
            bucket = np.minimum(rank, k)
        else:
            bucket = np.where(
                rank <= cut,
                (rank - 1) // (q + 1) + 1,
                r + (rank - cut - 1) // q + 1,
            )
        t = pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int64)),
                "n_orders": pa.array(np.ones(len(rank), np.int64)),
                "total_cents": pa.array(cents),
                "min_cents": pa.array(cents),
                "max_cents": pa.array(cents),
            }
        )
        return (
            t.group_by("bucket")
            .aggregate(
                [
                    ("n_orders", "sum"),
                    ("total_cents", "sum"),
                    ("min_cents", "min"),
                    ("max_cents", "max"),
                ]
            )
            .rename_columns(
                ["bucket", "n_orders", "total_cents", "min_cents", "max_cents"]
            )
        )

    df = (
        ranked.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"),
            Min("min_cents", alias_name="min_cents"),
            Max("max_cents", alias_name="max_cents"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {
            "bucket": "int64",
            "n_orders": "int64",
            "total_cents": "int64",
            "min_cents": "int64",
            "max_cents": "int64",
        },
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("bucket").reset_index(drop=True)


NTILE_SQL = f"""
WITH r AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         ntile({NTILE_K}) OVER (
             ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC,
                      o_orderkey) AS bucket
  FROM orders)
SELECT CAST(bucket AS BIGINT) AS bucket,
       count(*)::BIGINT AS n_orders,
       sum(cents)::BIGINT AS total_cents,
       min(cents)::BIGINT AS min_cents,
       max(cents)::BIGINT AS max_cents
FROM r GROUP BY bucket ORDER BY bucket
"""
