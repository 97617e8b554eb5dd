"""Eighth analytic wave (round 4) — the ratio-to-report window:

- ``priority_revenue_share``: each (priority, year) cell's share of
  its YEAR's total revenue in basis points, integer-exact
  (``cents * 10000 // year_total``). One fold to the category-bounded
  grid; the window is a driver pass over that tiny grid, like the
  twin's ``sum() OVER (PARTITION BY year)``.

(The wave's JSON-extraction and grouped-percentile drafts were
consolidated into the pre-existing equivalents
``analytics2.props_key_stats`` and ``analytics.order_price_quantiles``
— same capabilities, already oracle-green.)

Scale contract: pruned reads, per-batch partial folds before every
exchange, integer money math, driver-side work bounded by category
cardinality (|priorities| x |years|).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from ..functions.frames import ensure_columns
from ..functions.limbs import to_cents
from ..io import read_table

# ------------------------------------------------ ratio-to-report window


def priority_revenue_share(sf_dir: str) -> pd.DataFrame:
    """Each (priority, year) cell's share of its year's total revenue
    in basis points, integer-exact. Fold once to the category-bounded
    grid; the ratio window is a driver pass over that grid."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "order_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
                "cents": to_cents(batch["o_totalprice"]),
            }
        )
        return t.group_by(["o_orderpriority", "order_year"]).aggregate(
            [("cents", "sum")]
        )

    df = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "order_year"])
        .aggregate(Sum("cents_sum", alias_name="revenue_e2"))
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"o_orderpriority": "object", "order_year": "int64",
         "revenue_e2": "int64"},
    )
    year_total = df.groupby("order_year")["revenue_e2"].transform("sum")
    df["year_revenue_e2"] = year_total.astype("int64")
    df["share_bp"] = (
        df["revenue_e2"].astype("int64") * 10_000 // year_total.astype("int64")
    ).astype("int64")
    df["revenue_e2"] = df["revenue_e2"].astype("int64")
    df["order_year"] = df["order_year"].astype("int64")
    return (
        df[["o_orderpriority", "order_year", "revenue_e2",
            "year_revenue_e2", "share_bp"]]
        .sort_values(["o_orderpriority", "order_year"])
        .reset_index(drop=True)
    )


SHARE_SQL = """
WITH y AS (
  SELECT o_orderpriority,
         EXTRACT(year FROM o_orderdate)::BIGINT AS order_year,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1, 2),
w AS (
  SELECT o_orderpriority, order_year, revenue_e2,
         sum(revenue_e2) OVER (PARTITION BY order_year)::BIGINT
           AS year_revenue_e2
  FROM y)
SELECT o_orderpriority, order_year, revenue_e2, year_revenue_e2,
       (revenue_e2 * 10000 // year_revenue_e2)::BIGINT AS share_bp
FROM w ORDER BY o_orderpriority, order_year
"""
