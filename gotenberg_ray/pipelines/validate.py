"""Distributed data-validation (expectation-suite) operator.

The Great-Expectations/dbt-test pattern (public): declare per-table
expectations — value ranges, uniqueness, membership in a reference
set — and compute exact violation counts in one streaming pass each.
At 100 TB each check is either a per-batch predicate folded by a
streaming Sum (range checks), a two-phase distinct (uniqueness), or a
bucketed ANTI join against the reference side (membership) — nothing
row-sized ever reaches the driver; the result is #checks rows.

Demo suite over ``orders``:
- ``custkey_in_reference`` — every order's customer must belong to
  the approved reference slice (AUTOMOBILE segment): membership via
  the bucketed ``hash_join(join_type='left anti')``; violations are
  the anti-join survivors, counted without materializing them.
- ``orderdate_in_window`` — orders outside [1993-01-01, 1996-12-31].
- ``one_order_per_customer`` — uniqueness expectation: rows minus
  distinct keys (two-phase exact distinct).
- ``totalprice_positive`` — a PASSING check (0 violations), so the
  suite demonstrates both outcomes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Sum

from ..functions.frames import ensure_columns
from ..io import read_table

REF_SEGMENT = "AUTOMOBILE"
WINDOW_LO = "1993-01-01"
WINDOW_HI = "1996-12-31"


def orders_expectations(sf_dir: str) -> pd.DataFrame:
    from .joins import hash_join

    lo = pa.scalar(np.datetime64(WINDOW_LO, "us"), type=pa.timestamp("us"))
    hi = pa.scalar(
        np.datetime64(WINDOW_HI + "T23:59:59.999999", "us"),
        type=pa.timestamp("us"),
    )

    # --- range + positivity checks: one shared pruned pass ----------
    def range_partials(batch: pa.Table) -> pa.Table:
        out_window = pc.sum(
            pc.cast(
                pc.or_(
                    pc.less(batch["o_orderdate"], lo),
                    pc.greater(batch["o_orderdate"], hi),
                ),
                pa.int64(),
            )
        ).as_py() or 0
        nonpos = pc.sum(
            pc.cast(pc.less_equal(batch["o_totalprice"], 0.0), pa.int64())
        ).as_py() or 0
        return pa.table(
            {
                "out_window": pa.array([out_window], pa.int64()),
                "nonpos": pa.array([nonpos], pa.int64()),
                "rows": pa.array([batch.num_rows], pa.int64()),
            }
        )

    row = (
        read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(range_partials, batch_format="pyarrow")
        .aggregate(Sum("out_window"), Sum("nonpos"), Sum("rows"))
    )
    out_window = int(row["sum(out_window)"] or 0) if row else 0
    nonpos = int(row["sum(nonpos)"] or 0) if row else 0
    n_rows = int(row["sum(rows)"] or 0) if row else 0

    # --- uniqueness: two-phase exact distinct ------------------------
    def local_keys(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": batch["o_custkey"]}
        ).group_by("o_custkey").aggregate([])

    n_distinct = (
        read_table(sf_dir, "orders", ["o_custkey"])
        .map_batches(local_keys, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="_c"))
        .count()  # Dataset.count() IS the row count — no extra stage
    )
    dup_violations = n_rows - n_distinct

    # --- membership: bucketed ANTI join vs the reference slice ------
    def ref_side(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["c_mktsegment"], REF_SEGMENT)
        return pa.table({"c_custkey": batch.filter(keep)["c_custkey"]})

    orphans = hash_join(
        read_table(sf_dir, "orders", ["o_custkey"]),
        read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
            ref_side, batch_format="pyarrow"
        ),
        on="o_custkey",
        right_on="c_custkey",
        join_type="left anti",
        left_schema=[("o_custkey", pa.int64())],
        right_schema=[("c_custkey", pa.int64())],
    )
    fk_violations = orphans.count()

    return pd.DataFrame(
        {
            "check_name": [
                "custkey_in_reference",
                "one_order_per_customer",
                "orderdate_in_window",
                "totalprice_positive",
            ],
            "violations": [fk_violations, dup_violations, out_window, nonpos],
        }
    ).astype({"check_name": "object", "violations": "int64"}).sort_values(
        "check_name"
    ).reset_index(drop=True)


EXPECTATIONS_SQL = f"""
SELECT * FROM (
  SELECT 'custkey_in_reference' AS check_name,
         (SELECT count(*) FROM orders o WHERE NOT EXISTS (
            SELECT 1 FROM customer c
            WHERE c.c_custkey = o.o_custkey
              AND c.c_mktsegment = '{REF_SEGMENT}'))::BIGINT AS violations
  UNION ALL
  SELECT 'one_order_per_customer',
         (SELECT count(*) - count(DISTINCT o_custkey) FROM orders)::BIGINT
  UNION ALL
  SELECT 'orderdate_in_window',
         (SELECT count(*) FROM orders
          WHERE o_orderdate < TIMESTAMP '{WINDOW_LO} 00:00:00'
             OR o_orderdate > TIMESTAMP '{WINDOW_HI} 23:59:59.999999')::BIGINT
  UNION ALL
  SELECT 'totalprice_positive',
         (SELECT count(*) FROM orders WHERE o_totalprice <= 0)::BIGINT
) ORDER BY check_name
"""

