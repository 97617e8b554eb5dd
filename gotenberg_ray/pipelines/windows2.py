"""Sixth analytic wave (round 4) — window-FRAME semantics the suite
didn't yet exercise, each with an exact DuckDB twin:

- ``orders_moving_avg``: trailing 7-day moving SUM/AVG over the
  densified daily-revenue series (``ROWS BETWEEN 6 PRECEDING AND
  CURRENT ROW`` after gap-fill). The distributed part is the per-day
  partial fold (batch-local day sums → one tiny keyed combine); the
  window itself runs on the driver over the DAY SERIES, whose length
  is bounded by the calendar (~2.4k days for TPC-H) and does NOT grow
  with data volume — the documented driver-size contract.

- ``customer_order_gaps``: per-key LAG over order dates — max /
  mean gap in days between a customer's consecutive DISTINCT order
  days. Needs every (key, day) pair co-located, so: batch-local
  distinct fold → ONE ``custkey % P`` keyed exchange carrying two
  int64s per distinct pair → per-bucket lexsort + segmented
  ``np.diff`` + ``maximum.reduceat``. No per-group Python: one
  vectorized pass per bucket (the windows.py:990 pattern).

- ``first_order_cohort_revenue``: cohort matrix — customers grouped
  by FIRST-order year, revenue folded per (cohort_year, order_year).
  The classic formulation is a window MIN + self-join; here the
  per-(cust, year) partial fold rides the SAME ``custkey % P``
  exchange that derives the cohort, so each bucket emits its local
  (cohort, year) grid and only P tiny grids reach the driver.

- ``priority_yoy_delta``: LAG over an AGGREGATED series — per
  order-priority year-over-year revenue delta. The fold reduces to a
  |priorities| × |years| grid before anything leaves the workers;
  the window is a trivially-small driver pass, like the SQL twin's
  ``LAG() OVER (PARTITION BY priority ORDER BY year)``.

Scale contract (same as relational.py): pruned reads, per-batch
partial folds before every exchange, exact integer money/day math so
value hashes are block-layout-independent; the only driver-side
materializations are calendar- or category-bounded series.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from ..functions.frames import ensure_columns
from ..functions.limbs import to_cents
from ..functions.segments import bincount_i64
from ..io import read_table
from .joins import bucket_fold
from .relational import JOIN_PARTITIONS
from .windows import _fmt_days

US = 1_000_000
DAY_US = 86_400 * US


def _order_days(batch: pa.Table) -> np.ndarray:
    return (
        pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        // DAY_US
    )


# ---------------------------------------------- trailing moving window


def orders_moving_avg(sf_dir: str) -> pd.DataFrame:
    """Trailing 7-day moving sum/avg of daily order revenue over the
    DENSIFIED calendar (missing days count as 0, exactly like the SQL
    twin's gap-fill + ``ROWS 6 PRECEDING``).

    Distributed: batch-local (day → Σcents) fold, one tiny day-keyed
    combine. Driver: cumsum-difference sliding window over the day
    series (calendar-bounded, not data-bounded)."""

    def partial(batch: pa.Table) -> pa.Table:
        days = _order_days(batch)
        cents = to_cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(days, return_inverse=True)
        return pa.table(
            {
                "day": pa.array(uniq),
                "cents": pa.array(bincount_i64(inv, cents)),
            }
        )

    daily = (
        read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("cents", alias_name="revenue_e2"))
        .to_pandas()
    )
    daily = ensure_columns(daily, {"day": "int64", "revenue_e2": "int64"})
    if daily.empty:
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype="object"),
                "revenue_e2": pd.Series([], dtype="int64"),
                "sum7_e2": pd.Series([], dtype="int64"),
                "avg7_e2": pd.Series([], dtype="int64"),
            }
        )
    daily = daily.sort_values("day").reset_index(drop=True)
    lo, hi = int(daily["day"].iloc[0]), int(daily["day"].iloc[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[daily["day"].to_numpy() - lo] = daily["revenue_e2"].to_numpy()
    cs = np.concatenate([[0], np.cumsum(dense)])
    sum7 = cs[1:] - cs[np.maximum(np.arange(len(dense)) - 6, 0)]
    out = pd.DataFrame(
        {
            "day": _fmt_days(np.arange(lo, hi + 1)),
            "revenue_e2": dense,
            "sum7_e2": sum7,
            # floor-div like the twin: the window always SPANS 7 slots
            # (leading edge included — DuckDB's ROWS frame is shorter at
            # the head, so the twin divides by the actual frame length)
            "avg7_e2": sum7 // np.minimum(np.arange(len(dense)) + 1, 7),
        }
    )
    for c in ("revenue_e2", "sum7_e2", "avg7_e2"):
        out[c] = out[c].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


MOVING_AVG_SQL = """
WITH daily AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT AS d,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1),
b AS (SELECT min(d) AS d0, max(d) AS d1 FROM daily),
cal AS (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b)))::BIGINT AS d),
dense AS (
  SELECT cal.d, coalesce(daily.revenue_e2, 0)::BIGINT AS revenue_e2
  FROM cal LEFT JOIN daily ON daily.d = cal.d),
win AS (
  SELECT d, revenue_e2,
         sum(revenue_e2) OVER
           (ORDER BY d ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)::BIGINT
           AS sum7_e2,
         count(*) OVER
           (ORDER BY d ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)::BIGINT
           AS frame_n
  FROM dense)
SELECT strftime(DATE '1970-01-01' + d::INT, '%Y-%m-%d') AS day,
       revenue_e2, sum7_e2,
       CAST(sum7_e2 // frame_n AS BIGINT) AS avg7_e2
FROM win ORDER BY day
"""


# ------------------------------------------------ per-key LAG (gaps)


def customer_order_gaps(sf_dir: str) -> pd.DataFrame:
    """Gap stats between each customer's consecutive DISTINCT order
    days (customers with ≥3 distinct days): count, span, max gap, and
    exact mean gap ×100 (= span·100 // (n−1), since consecutive gaps
    telescope to the span).

    One keyed exchange of (custkey, day) distinct pairs; per bucket a
    single lexsort + segmented diff — no per-customer Python calls."""

    def local(batch: pa.Table) -> pa.Table:
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False)
        days = _order_days(batch)
        # batch-local distinct (cust, day) fold
        order = np.lexsort((days, cust))
        c_s, d_s = cust[order], days[order]
        keep = np.r_[True, (c_s[1:] != c_s[:-1]) | (d_s[1:] != d_s[:-1])]
        return pa.table({"o_custkey": pa.array(c_s[keep]), "day": pa.array(d_s[keep])})

    def per_bucket(part: pa.Table) -> pa.Table | None:
        cust = part["o_custkey"].to_numpy(zero_copy_only=False)
        days = part["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((days, cust))
        c_s, d_s = cust[order], days[order]
        # cross-batch distinct
        keep = np.r_[True, (c_s[1:] != c_s[:-1]) | (d_s[1:] != d_s[:-1])]
        c_s, d_s = c_s[keep], d_s[keep]
        starts = np.flatnonzero(np.r_[True, c_s[1:] != c_s[:-1]])
        counts = np.diff(np.r_[starts, len(c_s)])
        ok = counts >= 3
        if not ok.any():
            return None
        ends = np.r_[starts[1:], len(c_s)] - 1
        gaps = np.diff(d_s)  # gap at i spans rows i..i+1
        # a segment's own gaps live at [start, end-1]; the gap AT `end`
        # is the seam to the next segment — mask seams to -1 and pad one
        # trailing -1 so reduceat over ALL starts is index-safe even for
        # a final single-row segment. Each segment's slice then holds
        # exactly its internal gaps plus -1 sentinels, so the slice max
        # is the true per-segment max (or -1 for <2-row segments, which
        # the ok-filter below discards anyway).
        g = gaps.copy()
        g[ends[:-1]] = -1
        g = np.r_[g, np.int64(-1)]
        max_gap = np.maximum.reduceat(g, starts)[ok]
        span = d_s[ends[ok]] - d_s[starts[ok]]
        n = counts[ok]
        return pa.table(
            {
                "o_custkey": pa.array(c_s[starts[ok]]),
                "n_days": pa.array(n.astype(np.int64)),
                "span_days": pa.array(span.astype(np.int64)),
                "max_gap_days": pa.array(max_gap.astype(np.int64)),
                "mean_gap_e2": pa.array((span * 100 // (n - 1)).astype(np.int64)),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in
         ("o_custkey", "n_days", "span_days", "max_gap_days", "mean_gap_e2")]
    )
    df = bucket_fold(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
        "o_custkey", local, per_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("o_custkey").reset_index(drop=True)


ORDER_GAPS_SQL = """
WITH d AS (
  SELECT DISTINCT o_custkey,
         datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT AS day
  FROM orders),
g AS (
  SELECT o_custkey, day,
         day - lag(day) OVER (PARTITION BY o_custkey ORDER BY day) AS gap
  FROM d)
SELECT o_custkey,
       count(*)::BIGINT AS n_days,
       (max(day) - min(day))::BIGINT AS span_days,
       max(gap)::BIGINT AS max_gap_days,
       CAST((max(day) - min(day)) * 100 // (count(*) - 1) AS BIGINT)
         AS mean_gap_e2
FROM g GROUP BY o_custkey HAVING count(*) >= 3 ORDER BY o_custkey
"""


# -------------------------------------------------------- cohort fold


def first_order_cohort_revenue(sf_dir: str) -> pd.DataFrame:
    """Revenue matrix by (first-order-year cohort, order year).

    The per-(cust, year) partial fold and the cohort derivation share
    ONE custkey-keyed exchange; each bucket reduces its customers to a
    local (cohort_year, order_year) grid, so the driver only combines
    P category-bounded grids — no per-customer data leaves the workers."""

    def local(batch: pa.Table) -> pa.Table:
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False)
        yr = pc.cast(pc.year(batch["o_orderdate"]), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = to_cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        order = np.lexsort((yr, cust))
        c_s, y_s = cust[order], yr[order]
        starts = np.flatnonzero(np.r_[True, (c_s[1:] != c_s[:-1]) | (y_s[1:] != y_s[:-1])])
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(c_s)]))
        return pa.table(
            {
                "o_custkey": pa.array(c_s[starts]),
                "yr": pa.array(y_s[starts]),
                "cents": pa.array(bincount_i64(seg, cents[order])),
                "n": pa.array(
                    np.diff(np.r_[starts, len(c_s)]).astype(np.int64)
                ),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        cust = part["o_custkey"].to_numpy(zero_copy_only=False)
        yr = part["yr"].to_numpy(zero_copy_only=False)
        cents = part["cents"].to_numpy(zero_copy_only=False)
        n = part["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((yr, cust))
        c_s, y_s = cust[order], yr[order]
        starts = np.flatnonzero(np.r_[True, c_s[1:] != c_s[:-1]])
        # first (min) year per customer segment = cohort, broadcast back
        cohort = np.repeat(y_s[starts], np.diff(np.r_[starts, len(c_s)]))
        # fold this bucket's rows into its local (cohort, year) grid
        key = cohort * 10_000 + y_s
        uniq, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "cohort_year": pa.array((uniq // 10_000).astype(np.int64)),
                "order_year": pa.array((uniq % 10_000).astype(np.int64)),
                "cents": pa.array(bincount_i64(inv, cents[order])),
                "n": pa.array(bincount_i64(inv, n[order])),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("cohort_year", "order_year", "cents", "n")]
    )
    df = bucket_fold(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]),
        "o_custkey", local, per_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    out = (
        df.groupby(["cohort_year", "order_year"], as_index=False)
        .agg(revenue_e2=("cents", "sum"), n_orders=("n", "sum"))
        .sort_values(["cohort_year", "order_year"])
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


COHORT_SQL = """
WITH o AS (
  SELECT o_custkey,
         EXTRACT(year FROM o_orderdate)::BIGINT AS yr,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders),
c AS (SELECT o_custkey, min(yr) AS cohort_year FROM o GROUP BY 1)
SELECT c.cohort_year, o.yr AS order_year,
       sum(o.cents)::BIGINT AS revenue_e2,
       count(*)::BIGINT AS n_orders
FROM o JOIN c USING (o_custkey)
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ------------------------------------------- LAG over aggregated series


def priority_yoy_delta(sf_dir: str) -> pd.DataFrame:
    """Year-over-year revenue delta per order priority (rows with a
    preceding year only, like ``LAG ... QUALIFY``). The fold reduces
    to a |priorities| × |years| grid on the workers; the window runs
    on that tiny series."""

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
    df = df.sort_values(["o_orderpriority", "order_year"]).reset_index(drop=True)
    prev = df.groupby("o_orderpriority")["revenue_e2"].shift(1)
    out = df[prev.notna()].copy()
    out["prev_revenue_e2"] = prev[prev.notna()].astype("int64")
    out["delta_e2"] = (out["revenue_e2"] - out["prev_revenue_e2"]).astype("int64")
    out["revenue_e2"] = out["revenue_e2"].astype("int64")
    out["order_year"] = out["order_year"].astype("int64")
    return out.sort_values(["o_orderpriority", "order_year"]).reset_index(drop=True)


YOY_SQL = """
WITH y AS (
  SELECT o_orderpriority,
         EXTRACT(year FROM o_orderdate)::BIGINT AS order_year,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1, 2),
w AS (
  SELECT o_orderpriority, order_year, revenue_e2,
         lag(revenue_e2) OVER
           (PARTITION BY o_orderpriority ORDER BY order_year) AS prev_revenue_e2
  FROM y)
SELECT o_orderpriority, order_year, revenue_e2,
       prev_revenue_e2::BIGINT AS prev_revenue_e2,
       (revenue_e2 - prev_revenue_e2)::BIGINT AS delta_e2
FROM w WHERE prev_revenue_e2 IS NOT NULL
ORDER BY o_orderpriority, order_year
"""
