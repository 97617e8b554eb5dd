"""Seventh analytic wave (round 4) — multi-level grouping and stateful
series operators, each with an exact DuckDB twin:

- ``priority_year_rollup``: GROUP BY ROLLUP (priority, year). The
  distributed part is ONE fold to the finest (priority, year) grid —
  category-bounded (|priorities| x |years|), so the subtotal/grand
  rows are expanded on the driver from that tiny grid instead of
  re-scanning per level. Mirrors DuckDB's empty-input contract: a
  lone grand-total row with sum 0 / count 0.

- ``returnflag_cube``: GROUP BY CUBE (l_returnflag, l_linestatus)
  over lineitem with exact integer quantity/price sums. Same
  fold-once-expand-tiny plan; both marginals derive from the grid.

- ``events_type_pivot``: daily event counts pivoted to one column per
  event type (conditional-aggregation pivot). Per-batch 2-D bincount
  over (day, type) -> day-keyed combine of the 5 count columns; no
  per-type pass over the corpus.

- ``orders_ewma``: exponentially-weighted moving average over the
  densified daily-revenue series — a RECURSIVE window (each output
  depends on the previous). Exact integer recurrence
  ``e_t = (r_t + 7*e_{t-1}) // 8`` so the value hash is
  layout-independent; the recursion runs on the driver over the
  calendar-bounded day series (same driver-size contract as
  windows2.orders_moving_avg), the revenue fold is distributed.

Scale contract (same as relational.py / windows2.py): pruned reads,
per-batch partial folds before every exchange, exact integer money
math; the only driver-side materializations are category- or
calendar-bounded grids. Reference semantics: the reference's metrics
rollups (pkg/gotenberg/prometheus.go) are the WHAT; the fold-once
grid expansion is the Ray-native HOW. (A modal-event draft was
consolidated into the pre-existing ``setops.user_mode_event``.)
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
from .windows import _fmt_days

US = 1_000_000
DAY_US = 86_400 * US

ALL_PRIORITY = "*ALL*"
ALL_YEAR = -1
ALL_FLAG = "*ALL*"

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


# ------------------------------------------------------------- ROLLUP


def priority_year_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP (o_orderpriority, order year): finest rows,
    per-priority subtotals (year sentinel -1), and a grand-total row
    (priority sentinel '*ALL*') — present even on empty input, like
    the SQL twin."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "order_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
                "cents": to_cents(batch["o_totalprice"]),
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by(["o_orderpriority", "order_year"]).aggregate(
            [("cents", "sum"), ("n", "sum")]
        )

    grid = (
        read_table(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "order_year"])
        .aggregate(
            Sum("cents_sum", alias_name="revenue_e2"),
            Sum("n_sum", alias_name="n_orders"),
        )
        .to_pandas()
    )
    grid = ensure_columns(
        grid,
        {"o_orderpriority": "object", "order_year": "int64",
         "revenue_e2": "int64", "n_orders": "int64"},
    )
    sub = (
        grid.groupby("o_orderpriority", as_index=False)[["revenue_e2", "n_orders"]]
        .sum()
        .assign(order_year=ALL_YEAR)
    )
    total = pd.DataFrame(
        {
            "o_orderpriority": [ALL_PRIORITY],
            "order_year": [ALL_YEAR],
            "revenue_e2": [int(grid["revenue_e2"].sum())],
            "n_orders": [int(grid["n_orders"].sum())],
        }
    )
    cols = ["o_orderpriority", "order_year", "revenue_e2", "n_orders"]
    out = pd.concat([grid[cols], sub[cols], total[cols]], ignore_index=True)
    for c in ("order_year", "revenue_e2", "n_orders"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["o_orderpriority", "order_year"]).reset_index(drop=True)


ROLLUP_SQL = """
WITH y AS (
  SELECT o_orderpriority,
         EXTRACT(year FROM o_orderdate)::BIGINT AS order_year,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders)
SELECT coalesce(o_orderpriority, '*ALL*') AS o_orderpriority,
       coalesce(order_year, -1)::BIGINT AS order_year,
       coalesce(sum(cents), 0)::BIGINT AS revenue_e2,
       count(*)::BIGINT AS n_orders
FROM y GROUP BY ROLLUP (o_orderpriority, order_year)
ORDER BY o_orderpriority, order_year
"""


# --------------------------------------------------------------- CUBE


def returnflag_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE (l_returnflag, l_linestatus): finest grid plus
    BOTH one-dimensional marginals and the grand total, all expanded
    from one distributed fold to the tiny flag x status grid."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_e2": to_cents(batch["l_quantity"]),
                "price_e2": to_cents(batch["l_extendedprice"]),
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_e2", "sum"), ("price_e2", "sum"), ("n", "sum")]
        )

    grid = (
        read_table(
            sf_dir,
            "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_e2_sum", alias_name="sum_qty_e2"),
            Sum("price_e2_sum", alias_name="sum_price_e2"),
            Sum("n_sum", alias_name="n_lines"),
        )
        .to_pandas()
    )
    grid = ensure_columns(
        grid,
        {"l_returnflag": "object", "l_linestatus": "object",
         "sum_qty_e2": "int64", "sum_price_e2": "int64", "n_lines": "int64"},
    )
    vals = ["sum_qty_e2", "sum_price_e2", "n_lines"]
    by_flag = (
        grid.groupby("l_returnflag", as_index=False)[vals]
        .sum()
        .assign(l_linestatus=ALL_FLAG)
    )
    by_status = (
        grid.groupby("l_linestatus", as_index=False)[vals]
        .sum()
        .assign(l_returnflag=ALL_FLAG)
    )
    total = pd.DataFrame(
        {
            "l_returnflag": [ALL_FLAG],
            "l_linestatus": [ALL_FLAG],
            **{v: [int(grid[v].sum())] for v in vals},
        }
    )
    cols = ["l_returnflag", "l_linestatus", *vals]
    out = pd.concat(
        [grid[cols], by_flag[cols], by_status[cols], total[cols]],
        ignore_index=True,
    )
    for c in vals:
        out[c] = out[c].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


CUBE_SQL = """
WITH l AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity * 100) AS BIGINT) AS qty_e2,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_e2
  FROM lineitem)
SELECT coalesce(l_returnflag, '*ALL*') AS l_returnflag,
       coalesce(l_linestatus, '*ALL*') AS l_linestatus,
       coalesce(sum(qty_e2), 0)::BIGINT AS sum_qty_e2,
       coalesce(sum(price_e2), 0)::BIGINT AS sum_price_e2,
       count(*)::BIGINT AS n_lines
FROM l GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY l_returnflag, l_linestatus
"""


# -------------------------------------------------------------- pivot


def events_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Daily event counts pivoted to one column per event type plus a
    per-day total. One pass: each batch folds to a (day x 5) count
    grid via a single 2-D bincount; the day-keyed combine then sums
    five int columns — no per-type scan, no post-hoc pivot shuffle."""

    n_types = len(EVENT_TYPES)
    type_cols = [f"n_{t}" for t in EVENT_TYPES]

    def partial(batch: pa.Table) -> pa.Table:
        days = (
            pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False) // DAY_US
        )
        tcode = pc.index_in(
            batch["event_type"], pa.array(list(EVENT_TYPES))
        ).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(days, return_inverse=True)
        # counts grid: rows = distinct days, cols = the fixed type list
        grid = np.zeros((len(uniq), n_types), dtype=np.int64)
        kn = ~pd.isna(tcode)
        if kn.any():
            flat = inv[kn] * n_types + tcode[kn].astype(np.int64)
            np.add.at(grid.reshape(-1), flat, 1)
        cols = {"day": pa.array(uniq)}
        for j, name in enumerate(type_cols):
            cols[name] = pa.array(grid[:, j])
        cols["n_total"] = pa.array(np.bincount(inv).astype(np.int64))
        return pa.table(cols)

    agg = [Sum(c, alias_name=c + "_s") for c in (*type_cols, "n_total")]
    df = (
        read_table(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(*agg)
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"day": "int64", **{c + "_s": "int64" for c in (*type_cols, "n_total")}},
    )
    out = pd.DataFrame({"day": _fmt_days(df["day"].to_numpy())})
    for c in (*type_cols, "n_total"):
        out[c] = df[c + "_s"].to_numpy().astype("int64")
    return out.sort_values("day").reset_index(drop=True)


PIVOT_SQL = """
SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
       count(*) FILTER (event_type = 'click')::BIGINT AS n_click,
       count(*) FILTER (event_type = 'error')::BIGINT AS n_error,
       count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (event_type = 'signup')::BIGINT AS n_signup,
       count(*) FILTER (event_type = 'view')::BIGINT AS n_view,
       count(*)::BIGINT AS n_total
FROM events GROUP BY 1 ORDER BY 1
"""


# ----------------------------------------------------- recursive EWMA


def orders_ewma(sf_dir: str) -> pd.DataFrame:
    """EWMA (alpha = 1/8) of daily revenue over the densified
    calendar, as the exact integer recurrence
    ``e_t = (r_t + 7 * e_{t-1}) // 8`` — a genuinely RECURSIVE window
    (LAG of the output itself), matching the SQL twin's recursive CTE.
    The per-day revenue fold is distributed; the recurrence runs on
    the calendar-bounded day series (driver-size contract)."""

    def partial(batch: pa.Table) -> pa.Table:
        days = (
            pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
            // DAY_US
        )
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
                "ewma_e2": pd.Series([], dtype="int64"),
            }
        )
    daily = daily.sort_values("day").reset_index(drop=True)
    lo, hi = int(daily["day"].iloc[0]), int(daily["day"].iloc[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[daily["day"].to_numpy() - lo] = daily["revenue_e2"].to_numpy()
    ewma = np.empty_like(dense)
    acc = int(dense[0])
    ewma[0] = acc
    for i in range(1, len(dense)):  # calendar-bounded (~2.4k steps)
        acc = (int(dense[i]) + 7 * acc) // 8
        ewma[i] = acc
    out = pd.DataFrame(
        {
            "day": _fmt_days(np.arange(lo, hi + 1)),
            "revenue_e2": dense,
            "ewma_e2": ewma,
        }
    )
    for c in ("revenue_e2", "ewma_e2"):
        out[c] = out[c].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


EWMA_SQL = """
WITH RECURSIVE daily AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT AS d,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1),
b AS (SELECT min(d) AS d0, max(d) AS d1 FROM daily),
cal AS (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b)))::BIGINT AS d),
dense AS (
  SELECT cal.d, coalesce(daily.revenue_e2, 0)::BIGINT AS revenue_e2
  FROM cal LEFT JOIN daily ON daily.d = cal.d),
e AS (
  SELECT d, revenue_e2, revenue_e2 AS ewma_e2
  FROM dense WHERE d = (SELECT d0 FROM b)
  UNION ALL
  SELECT dense.d, dense.revenue_e2,
         (dense.revenue_e2 + 7 * e.ewma_e2) // 8
  FROM e JOIN dense ON dense.d = e.d + 1)
SELECT strftime(DATE '1970-01-01' + d::INT, '%Y-%m-%d') AS day,
       revenue_e2, ewma_e2::BIGINT AS ewma_e2
FROM e ORDER BY day
"""
