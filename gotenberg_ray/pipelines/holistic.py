"""Tenth analytic wave (round 4) — holistic / order-dependent
aggregates the suite didn't yet exercise, each with an exact DuckDB
twin:

- ``segment_first_names``: grouped ORDERED string concatenation with
  bounded k (``string_agg(name ORDER BY name)`` over the k smallest
  members per group). The scalable shape for ordered-concat is the
  bounded-k contract: every batch folds to its LOCAL k smallest names
  per group before the exchange, so at most k rows per (group, block)
  move — the full member list never travels. The merge exchange is a
  keyed groupby whose group count is category-bounded
  (|nation| × |segment|), the documented driver-grid contract of
  priority_yoy_delta.

- ``part_price_slope``: grouped exact least-squares regression
  (slope/intercept of price-cents on size, in floor basis points).
  OLS reduces to five moment sums (n, Σx, Σy, Σxy, Σx²) — all exact
  int64 per-batch partials folded by ONE tiny keyed combine; the
  closed form runs on the driver in unbounded Python ints, with
  TRUNCATING division to match DuckDB's HUGEINT ``//`` (which
  truncates toward zero, unlike Python's floor ``//`` — pinned by a
  signed-slope test).

- ``orders_rolling_median``: exact rolling MEDIAN (a holistic window
  — unlike the moving SUM it cannot cumsum) over the densified daily
  revenue series. Distributed part: the per-day partial fold; the
  window runs on the driver over the calendar-bounded day series.
  Exactness: ``med2_e2`` = the SUM of the two middle order statistics
  (= 2×median, always an integer), so the twin's
  ``2*median() OVER`` compares with no float tolerance.

- ``lineitem_measure_unpivot``: UNPIVOT/melt — three measure columns
  reshaped to (measure, value) rows with per-(returnflag, measure)
  exact sums. Wide→long happens inside the batch map (3 partial rows
  per flag per batch), so the exchange carries the folded grid, not
  3× the row count.

Eleventh-wave additions in the same module:

- ``customer_bag_ops``: INTERSECT ALL / EXCEPT ALL / UNION ALL with
  BAG semantics (multiplicities) — per-batch (key, na, nb) partial
  counts, one keyed combine, three batch-partial statistics.
- ``orders_price_histogram``: equi-width histogram — the two-pass
  dependent-statistic shape (exact global [min, max] broadcasts into
  a pure-integer bin map the twin evaluates identically).
- ``orders_isolated``: LAG-AND-LEAD double gap test (orders with no
  same-customer neighbor within ±7 days) — one custkey-keyed
  exchange, seam-masked diffs, tie-insensitive by construction.

Scale contract (same as relational.py): pruned reads, per-batch
partial folds before every exchange, exact integer money math; the
only driver-side materializations are calendar- or category-bounded
series. Reference parity: these are relational capabilities
(string_agg, regr_slope, windowed median, UNPIVOT, bag set ops,
histograms) the reference's API consumers get from SQL engines;
re-expressed Ray-Data-first.
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

K_NAMES = 3  # bounded-k contract for the ordered concat


# ------------------------------------------- grouped ordered string_agg


def segment_first_names(sf_dir: str) -> pd.DataFrame:
    """Per (nationkey, mktsegment): the K_NAMES lexicographically
    smallest customer names comma-joined, plus the group's total
    customer count. Batch-local bounded-k fold → one keyed groupby →
    per-group merge of ≤k·blocks candidates (group count is
    category-bounded)."""

    def local(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "nationkey": pc.cast(batch["c_nationkey"], pa.int64()),
                "mktsegment": batch["c_mktsegment"],
                "name": batch["c_name"],
            }
        ).sort_by(
            [("nationkey", "ascending"), ("mktsegment", "ascending"), ("name", "ascending")]
        )
        nk = t["nationkey"].to_numpy(zero_copy_only=False)
        seg = pc.dictionary_encode(t["mktsegment"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        n = len(nk)
        if n == 0:
            return pa.table(
                {
                    "nationkey": pa.array([], pa.int64()),
                    "mktsegment": pa.array([], pa.string()),
                    "name": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        new_grp = np.r_[True, (nk[1:] != nk[:-1]) | (seg[1:] != seg[:-1])]
        gid = np.cumsum(new_grp) - 1
        starts = np.flatnonzero(new_grp)
        rank = np.arange(n) - starts[gid]
        sizes = np.diff(np.r_[starts, n])
        keep = rank < K_NAMES
        # the group's batch-local count rides on its rank-0 row
        cnt = np.where(rank == 0, sizes[gid], 0)[keep]
        kept = t.filter(pa.array(keep))
        return pa.table(
            {
                "nationkey": kept["nationkey"],
                "mktsegment": kept["mktsegment"],
                "name": kept["name"],
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        names = sorted(group["name"].tolist())[:K_NAMES]
        return pd.DataFrame(
            {
                "nationkey": [int(group["nationkey"].iloc[0])],
                "mktsegment": [group["mktsegment"].iloc[0]],
                "first_names": [",".join(names)],
                "n_customers": [int(group["cnt"].sum())],
            }
        )

    df = (
        read_table(sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_name"])
        .map_batches(local, batch_format="pyarrow")
        .groupby(["nationkey", "mktsegment"])
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {
            "nationkey": "int64",
            "mktsegment": "object",
            "first_names": "object",
            "n_customers": "int64",
        },
    )
    df["nationkey"] = df["nationkey"].astype("int64")
    df["n_customers"] = df["n_customers"].astype("int64")
    return df.sort_values(["nationkey", "mktsegment"]).reset_index(drop=True)


SEGMENT_FIRST_NAMES_SQL = f"""
WITH ranked AS (
  SELECT c_nationkey, c_mktsegment, c_name,
         row_number() OVER (PARTITION BY c_nationkey, c_mktsegment
                            ORDER BY c_name) AS rn,
         count(*) OVER (PARTITION BY c_nationkey, c_mktsegment) AS total
  FROM customer)
SELECT c_nationkey::BIGINT AS nationkey, c_mktsegment AS mktsegment,
       string_agg(c_name, ',' ORDER BY c_name) AS first_names,
       max(total)::BIGINT AS n_customers
FROM ranked WHERE rn <= {K_NAMES}
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ------------------------------------------ grouped exact regression


def _tdiv(a: int, b: int) -> int:
    """Truncating integer division (toward zero) — DuckDB's HUGEINT
    ``//`` semantics, NOT Python's floor ``//``."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def part_price_slope(sf_dir: str) -> pd.DataFrame:
    """Exact per-type OLS of retail-price cents on part size, reported
    in truncated basis points: five int64 moment partials per batch,
    one tiny keyed combine, closed form in unbounded Python ints on
    the driver (group count = |p_type|, category-bounded)."""

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch["p_type"].combine_chunks())
        inv = enc.indices.to_numpy(zero_copy_only=False)
        types = enc.dictionary.to_pylist()
        k = len(types)
        if k == 0:
            return pa.table(
                {
                    "p_type": pa.array([], pa.string()),
                    **{
                        c: pa.array([], pa.int64())
                        for c in ("n", "sx", "sy", "sxy", "sxx")
                    },
                }
            )
        x = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = to_cents(batch["p_retailprice"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_type": pa.array(types, pa.string()),
                "n": pa.array(np.bincount(inv, minlength=k).astype(np.int64)),
                "sx": pa.array(bincount_i64(inv, x, minlength=k)),
                "sy": pa.array(bincount_i64(inv, y, minlength=k)),
                "sxy": pa.array(bincount_i64(inv, x * y, minlength=k)),
                "sxx": pa.array(bincount_i64(inv, x * x, minlength=k)),
            }
        )

    g = (
        read_table(sf_dir, "part", ["p_type", "p_size", "p_retailprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("p_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
        )
        .to_pandas()
    )
    g = ensure_columns(
        g, {"p_type": "object", "n": "int64", "sx": "int64", "sy": "int64",
            "sxy": "int64", "sxx": "int64"}
    )
    rows = []
    for r in g.itertuples(index=False):
        n, sx, sy, sxy, sxx = (int(r.n), int(r.sx), int(r.sy), int(r.sxy), int(r.sxx))
        den = n * sxx - sx * sx
        if den == 0:
            continue
        rows.append(
            {
                "p_type": r.p_type,
                "n": n,
                "slope_bp": _tdiv(10_000 * (n * sxy - sx * sy), den),
                "intercept_bp": _tdiv(10_000 * (sy * sxx - sx * sxy), den),
            }
        )
    out = pd.DataFrame(rows, columns=["p_type", "n", "slope_bp", "intercept_bp"])
    for c in ("n", "slope_bp", "intercept_bp"):
        out[c] = out[c].astype("int64")
    out["p_type"] = out["p_type"].astype("object")
    return out.sort_values("p_type").reset_index(drop=True)


PART_PRICE_SLOPE_SQL = """
WITH m AS (
  SELECT p_type,
         count(*)::HUGEINT AS n,
         sum(p_size)::HUGEINT AS sx,
         sum(CAST(round(p_retailprice*100) AS BIGINT))::HUGEINT AS sy,
         sum(p_size::HUGEINT
             * CAST(round(p_retailprice*100) AS BIGINT)::HUGEINT) AS sxy,
         sum(p_size::HUGEINT * p_size::HUGEINT) AS sxx
  FROM part GROUP BY 1)
SELECT p_type, CAST(n AS BIGINT) AS n,
       CAST((10000 * (n*sxy - sx*sy)) // (n*sxx - sx*sx) AS BIGINT) AS slope_bp,
       CAST((10000 * (sy*sxx - sx*sxy)) // (n*sxx - sx*sx) AS BIGINT)
         AS intercept_bp
FROM m WHERE n*sxx - sx*sx != 0 ORDER BY p_type
"""


# --------------------------------------------- rolling exact median


def orders_rolling_median(sf_dir: str) -> pd.DataFrame:
    """Trailing 7-day exact rolling median of daily order revenue over
    the densified calendar. ``med2_e2`` = sum of the frame's two middle
    order statistics (both mids equal for odd frames) — an integer, so
    the twin's ``2*median()`` matches exactly. Distributed fold as in
    orders_moving_avg; the holistic window runs over the
    calendar-bounded day series."""

    def partial(batch: pa.Table) -> pa.Table:
        days = (
            pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
            // (86_400 * 1_000_000)
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
                "med2_e2": pd.Series([], dtype="int64"),
            }
        )
    daily = daily.sort_values("day").reset_index(drop=True)
    lo, hi = int(daily["day"].iloc[0]), int(daily["day"].iloc[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[daily["day"].to_numpy() - lo] = daily["revenue_e2"].to_numpy()
    n = len(dense)
    med2 = np.empty(n, dtype=np.int64)
    # steady frames (length exactly 7): one vectorized partition pass
    if n >= 7:
        win = np.lib.stride_tricks.sliding_window_view(dense, 7)
        med2[6:] = 2 * np.partition(win, 3, axis=1)[:, 3]
    # head frames (length 1..6): calendar-constant six iterations
    for i in range(min(n, 6)):
        w = np.sort(dense[: i + 1])
        med2[i] = int(w[i // 2]) + int(w[(i + 1) // 2])
    out = pd.DataFrame(
        {
            "day": _fmt_days(np.arange(lo, hi + 1)),
            "revenue_e2": dense,
            "med2_e2": med2,
        }
    )
    out["revenue_e2"] = out["revenue_e2"].astype("int64")
    out["med2_e2"] = out["med2_e2"].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


ROLLING_MEDIAN_SQL = """
WITH daily AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT AS d,
         sum(CAST(round(o_totalprice*100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1),
b AS (SELECT min(d) AS d0, max(d) AS d1 FROM daily),
cal AS (SELECT unnest(generate_series((SELECT d0 FROM b),
                                      (SELECT d1 FROM b)))::BIGINT AS d),
dense AS (
  SELECT cal.d, coalesce(daily.revenue_e2, 0)::BIGINT AS revenue_e2
  FROM cal LEFT JOIN daily ON daily.d = cal.d)
SELECT strftime(DATE '1970-01-01' + d::INT, '%Y-%m-%d') AS day, revenue_e2,
       CAST(2*median(revenue_e2) OVER
              (ORDER BY d ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
            AS BIGINT) AS med2_e2
FROM dense ORDER BY day
"""


# ----------------------------------------------------- UNPIVOT / melt

_MEASURES = ("quantity_e2", "extendedprice_e2", "discount_e4")


def lineitem_measure_unpivot(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT three lineitem measures to (measure, value) rows and
    fold per (returnflag, measure): exact integer sums + row counts.
    The reshape happens inside the batch map — the exchange carries
    3 partial rows per flag per batch, never 3× the row count."""

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch["l_returnflag"].combine_chunks())
        inv = enc.indices.to_numpy(zero_copy_only=False)
        flags = enc.dictionary.to_pylist()
        k = len(flags)
        if k == 0:
            return pa.table(
                {
                    "returnflag": pa.array([], pa.string()),
                    "measure": pa.array([], pa.string()),
                    "total": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        qty = to_cents(batch["l_quantity"]).to_numpy(zero_copy_only=False)
        price = to_cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = (
            pc.cast(
                pc.round(
                    pc.multiply(batch["l_discount"], 10_000.0),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        counts = np.bincount(inv, minlength=k).astype(np.int64)
        sums = [bincount_i64(inv, w, minlength=k) for w in (qty, price, disc)]
        return pa.table(
            {
                "returnflag": pa.array(flags * 3, pa.string()),
                "measure": pa.array(
                    [m for m in _MEASURES for _ in range(k)], pa.string()
                ),
                "total": pa.array(np.concatenate(sums)),
                "n": pa.array(np.tile(counts, 3)),
            }
        )

    df = (
        read_table(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["returnflag", "measure"])
        .aggregate(Sum("total", alias_name="total"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    df = ensure_columns(
        df, {"returnflag": "object", "measure": "object", "total": "int64", "n": "int64"}
    )
    df["total"] = df["total"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["returnflag", "measure"]).reset_index(drop=True)


UNPIVOT_SQL = """
SELECT l_returnflag AS returnflag, 'quantity_e2' AS measure,
       sum(CAST(round(l_quantity*100) AS BIGINT))::BIGINT AS total,
       count(*)::BIGINT AS n
FROM lineitem GROUP BY 1
UNION ALL
SELECT l_returnflag, 'extendedprice_e2',
       sum(CAST(round(l_extendedprice*100) AS BIGINT))::BIGINT, count(*)::BIGINT
FROM lineitem GROUP BY 1
UNION ALL
SELECT l_returnflag, 'discount_e4',
       sum(CAST(round(l_discount*10000) AS BIGINT))::BIGINT, count(*)::BIGINT
FROM lineitem GROUP BY 1
ORDER BY 1, 2
"""


# ------------------------------------------------ bag-semantics set ops

BAG_A = "1-URGENT"
BAG_B = "2-HIGH"


def customer_bag_ops(sf_dir: str) -> pd.DataFrame:
    """INTERSECT ALL / EXCEPT ALL / UNION ALL — BAG semantics (with
    multiplicities; customer_set_ops is the set-semantics sibling)
    between the multisets of custkeys with URGENT vs HIGH orders.
    One pass: per-batch (custkey, na, nb) partial counts, one
    custkey-BUCKET exchange (the named-Aggregate hash groupby measured
    ~10× the bucket exchange's cost on this host at 26k partial rows —
    the session_concurrency lesson applies to aggregates too), then
    the three statistics fold per bucket — Σ min(na,nb),
    Σ max(na−nb,0), Σ max(nb−na,0), Σ(na+nb)."""

    def tag(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"]
        keep = pc.or_(pc.equal(pr, BAG_A), pc.equal(pr, BAG_B))
        batch = batch.filter(keep)
        na = pc.cast(pc.equal(batch["o_orderpriority"], BAG_A), pa.int64())
        nb = pc.cast(pc.equal(batch["o_orderpriority"], BAG_B), pa.int64())
        return (
            pa.table({"o_custkey": batch["o_custkey"], "na": na, "nb": nb})
            .group_by("o_custkey")
            .aggregate([("na", "sum"), ("nb", "sum")])
            .rename_columns(["o_custkey", "na", "nb"])
        )

    def fold_bucket(part: pa.Table) -> pa.Table:
        g = part.group_by("o_custkey").aggregate([("na", "sum"), ("nb", "sum")])
        na = g["na_sum"].to_numpy(zero_copy_only=False)
        nb = g["nb_sum"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "isect": pa.array([int(np.minimum(na, nb).sum())], pa.int64()),
                "ex_a": pa.array([int(np.maximum(na - nb, 0).sum())], pa.int64()),
                "ex_b": pa.array([int(np.maximum(nb - na, 0).sum())], pa.int64()),
                "uni": pa.array([int((na + nb).sum())], pa.int64()),
            }
        )

    schema = pa.schema([(c, pa.int64()) for c in ("isect", "ex_a", "ex_b", "uni")])
    stats = bucket_fold(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
        "o_custkey", tag, fold_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    stats = ensure_columns(stats, schema)

    def g(k):
        return int(stats[k].sum()) if len(stats) else 0

    return pd.DataFrame(
        {
            "op": ["except_all_a", "except_all_b", "intersect_all", "union_all"],
            "n_rows": [g("ex_a"), g("ex_b"), g("isect"), g("uni")],
        }
    ).astype({"op": "object", "n_rows": "int64"})


BAG_OPS_SQL = f"""
WITH a AS (SELECT o_custkey FROM orders WHERE o_orderpriority = '{BAG_A}'),
b AS (SELECT o_custkey FROM orders WHERE o_orderpriority = '{BAG_B}')
SELECT 'except_all_a' AS op,
       (SELECT count(*) FROM (SELECT * FROM a EXCEPT ALL SELECT * FROM b))::BIGINT
         AS n_rows
UNION ALL SELECT 'except_all_b',
       (SELECT count(*) FROM (SELECT * FROM b EXCEPT ALL SELECT * FROM a))::BIGINT
UNION ALL SELECT 'intersect_all',
       (SELECT count(*) FROM (SELECT * FROM a INTERSECT ALL SELECT * FROM b))::BIGINT
UNION ALL SELECT 'union_all',
       (SELECT count(*) FROM (SELECT * FROM a UNION ALL SELECT * FROM b))::BIGINT
ORDER BY op
"""


# ------------------------------------------- equi-width histogram

HIST_BINS = 20


def orders_price_histogram(sf_dir: str) -> pd.DataFrame:
    """Equi-width histogram of order price cents — the TWO-PASS
    dependent-statistic shape (orders_price_mad's family): pass 1
    folds the exact global [min, max]; its two ints broadcast into
    pass 2's bin map ``min(B−1, (x−lo)·B // (hi−lo+1))`` (pure integer
    — the twin evaluates the identical expression on HUGEINT)."""
    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min

    def mm(batch: pa.Table) -> pa.Table:
        e2 = to_cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        if len(e2) == 0:
            return pa.table({"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        return pa.table(
            {"lo": pa.array([int(e2.min())]), "hi": pa.array([int(e2.max())])}
        )

    bounds = (
        read_table(sf_dir, "orders", ["o_totalprice"])
        .map_batches(mm, batch_format="pyarrow")
        .aggregate(_Min("lo"), _Max("hi"))
    )
    if not bounds or bounds.get("min(lo)") is None:
        return pd.DataFrame(
            {"bin": pd.Series([], dtype="int64"), "n_orders": pd.Series([], dtype="int64")}
        )
    lo, hi = int(bounds["min(lo)"]), int(bounds["max(hi)"])
    den = hi - lo + 1

    def bucketize(batch: pa.Table) -> pa.Table:
        e2 = to_cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        b = np.minimum(HIST_BINS - 1, (e2 - lo) * HIST_BINS // den)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {"bin": pa.array(uniq.astype(np.int64)), "n": pa.array(cnt.astype(np.int64))}
        )

    df = (
        read_table(sf_dir, "orders", ["o_totalprice"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n_orders"))
        .to_pandas()
    )
    df = ensure_columns(df, {"bin": "int64", "n_orders": "int64"})
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("bin").reset_index(drop=True)


PRICE_HISTOGRAM_SQL = f"""
WITH c AS (SELECT CAST(round(o_totalprice*100) AS BIGINT) AS e2 FROM orders),
mm AS (SELECT min(e2) AS lo, max(e2) AS hi FROM c)
SELECT CAST(least({HIST_BINS - 1}, ((e2 - lo) * {HIST_BINS}) // (hi - lo + 1))
            AS BIGINT) AS bin,
       count(*)::BIGINT AS n_orders
FROM c, mm GROUP BY 1 ORDER BY 1
"""


# --------------------------------------------- isolated-order gap test

ISOLATION_DAYS = 7


def orders_isolated(sf_dir: str) -> pd.DataFrame:
    """Orders with NO other order by the same customer within ±7 days
    (the LAG-AND-LEAD double gap test; same-day pairs kill each other
    with a zero gap regardless of tie order, so the predicate is
    tie-insensitive). One custkey-keyed exchange, per-bucket lexsort +
    seam-masked diffs; counts folded per priority."""

    def local(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c": batch["o_custkey"],
                "day": pc.cast(batch["o_orderdate"], pa.int64()),
                "prio": batch["o_orderpriority"],
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        c = part["c"].to_numpy(zero_copy_only=False)
        day = part["day"].to_numpy(zero_copy_only=False) // (86_400 * 1_000_000)
        order = np.lexsort((day, c))
        c_s, d_s = c[order], day[order]
        big = np.int64(1 << 40)  # boundary sentinel ≫ any real gap
        pgap = np.r_[big, np.diff(d_s)]
        pgap[np.r_[True, c_s[1:] != c_s[:-1]]] = big
        ngap = np.r_[np.diff(d_s), big]
        ngap[np.r_[c_s[1:] != c_s[:-1], True]] = big
        iso = (pgap > ISOLATION_DAYS) & (ngap > ISOLATION_DAYS)
        prio = part["prio"].combine_chunks().take(pa.array(order[iso]))
        enc = pc.dictionary_encode(prio)
        inv = enc.indices.to_numpy(zero_copy_only=False)
        cats = enc.dictionary
        return pa.table(
            {
                "priority": cats,
                "n_isolated": pa.array(
                    np.bincount(inv, minlength=len(cats)).astype(np.int64)
                ),
            }
        )

    df = (
        bucket_fold(
            read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderpriority"]),
            "c", local, per_bucket,
            pa.schema([("priority", pa.string()), ("n_isolated", pa.int64())]),
            JOIN_PARTITIONS,
        )
        .groupby("priority")
        .aggregate(Sum("n_isolated", alias_name="n_isolated"))
        .to_pandas()
    )
    df = ensure_columns(df, {"priority": "object", "n_isolated": "int64"})
    df["n_isolated"] = df["n_isolated"].astype("int64")
    return df.sort_values("priority").reset_index(drop=True)


ISOLATED_SQL = f"""
WITH d AS (
  SELECT o_custkey, o_orderpriority,
         datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT AS day
  FROM orders),
g AS (
  SELECT o_orderpriority,
         day - lag(day) OVER w AS pgap,
         lead(day) OVER w - day AS ngap
  FROM d WINDOW w AS (PARTITION BY o_custkey ORDER BY day))
SELECT o_orderpriority AS priority, count(*)::BIGINT AS n_isolated
FROM g
WHERE (pgap IS NULL OR pgap > {ISOLATION_DAYS})
  AND (ngap IS NULL OR ngap > {ISOLATION_DAYS})
GROUP BY 1 ORDER BY 1
"""


# ------------------------------------------- grouped weighted median


def lineitem_weighted_median(sf_dir: str) -> pd.DataFrame:
    """Quantity-WEIGHTED median of extendedprice per returnflag — the
    weighted order statistic (discrete: smallest value whose cumulative
    weight reaches ⌈W/2⌉). Same value-histogram posture as
    orders_cume_dist, but the histogram carries WEIGHT sums, so the
    shuffle stays value-cardinality-bounded and the selection is one
    cumsum-searchsorted per category-bounded group."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "returnflag": batch["l_returnflag"],
                "price_e2": to_cents(batch["l_extendedprice"]),
                "w": pc.cast(
                    pc.round(batch["l_quantity"], round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            }
        )
        return (
            t.group_by(["returnflag", "price_e2"])
            .aggregate([("w", "sum")])
            .rename_columns(["returnflag", "price_e2", "w"])
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("price_e2", as_index=False)["w"].sum().sort_values("price_e2")
        cw = f["w"].to_numpy().cumsum()
        tw = int(cw[-1]) if len(cw) else 0
        if tw == 0:
            return pd.DataFrame(
                {"returnflag": pd.Series([], dtype="object"),
                 "wmedian_e2": pd.Series([], dtype="int64"),
                 "total_weight": pd.Series([], dtype="int64")}
            )
        pos = int(np.searchsorted(cw, (tw + 1) // 2, side="left"))
        return pd.DataFrame(
            {
                "returnflag": [g["returnflag"].iloc[0]],
                "wmedian_e2": [int(f["price_e2"].to_numpy()[pos])],
                "total_weight": [tw],
            }
        )

    df = (
        read_table(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("returnflag")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    df = ensure_columns(
        df, {"returnflag": "object", "wmedian_e2": "int64", "total_weight": "int64"}
    )
    for c in ("wmedian_e2", "total_weight"):
        df[c] = df[c].astype("int64")
    return df.sort_values("returnflag").reset_index(drop=True)


WEIGHTED_MEDIAN_SQL = """
WITH v AS (
  SELECT l_returnflag AS returnflag,
         CAST(round(l_extendedprice*100) AS BIGINT) AS price_e2,
         CAST(round(l_quantity) AS BIGINT) AS w
  FROM lineitem),
g AS (SELECT returnflag, price_e2, sum(w)::BIGINT AS w
      FROM v GROUP BY 1, 2),
c AS (SELECT returnflag, price_e2,
             sum(w) OVER (PARTITION BY returnflag ORDER BY price_e2
                          ROWS UNBOUNDED PRECEDING) AS cw,
             sum(w) OVER (PARTITION BY returnflag) AS tw
      FROM g)
SELECT returnflag, min(price_e2)::BIGINT AS wmedian_e2,
       max(tw)::BIGINT AS total_weight
FROM c WHERE cw >= (tw + 1) // 2 GROUP BY 1 ORDER BY 1
"""
