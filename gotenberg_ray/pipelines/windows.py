"""Temporal operators Ray Data lacks natively: as-of join, range
(interval) join, and sliding-window aggregation — the custom-operator
tier of the task brief, built from map_batches + groupby().map_groups
compositions (no raw tasks needed).

Partitioning contracts (documented per the brief):

- ``events_asof_attribution`` / ``events_rolling_peak`` hash-partition
  by ``user_id`` (one explicit all-to-all), then run a vectorized
  sorted-merge / binary-search kernel per key group. The assumption is
  per-key history fits one worker — true for per-user event logs; a
  pathological hot key would be salted by time range (the same salting
  machinery the frontier uses for hot hosts).
- ``events_range_campaigns`` broadcasts the tiny interval dimension
  (``ray.put`` once, read per actor) and pre-aggregates per batch, so
  the shuffle input is (#campaigns × #blocks) partial rows, never the
  events table — the broadcast-range-join analogue of the combiner
  pattern in ``relational.py``.

All aggregates are exact-integer (µs timestamps, ×100 money) so result
hashes are reduction-order independent.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Sum

from ..functions.frames import ensure_columns
from ..functions.segments import segment_starts
from ..io import read_table
from .joins import bucket_fold

US = 1_000_000


def _ts_us(col) -> np.ndarray:
    """timestamp[us] column → int64 epoch-µs numpy array."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


# ---------------------------------------------------------------- as-of join


_WIN_P = 16  # user-hash buckets for the window operators' keyed exchange


def events_asof_attribution(sf_dir: str) -> pd.DataFrame:
    """As-of join inside the events log: each ``purchase`` event is
    attributed to the same user's most recent ``view`` at-or-before it
    (classic last-touch attribution).

    Shape: rows route ONCE by ``user_id % P`` (bucketed keyed
    exchange — P group tasks, never one Python call per user), then
    inside each bucket ONE lexsort by (user, ts, kind) makes "latest
    view at-or-before" a forward-fill of the last view index
    (``np.maximum.accumulate``) with a per-segment reset — views sort
    before purchases at equal ts, so a same-µs view still attributes.
    Per-user rollups (n_purchases, n_attributed, latency floor-seconds)
    fold with ``reduceat`` — integer-exact, no per-group invocation.
    """

    def bucket(batch: pa.Table) -> pa.Table:
        kinds = batch["event_type"]
        if isinstance(kinds, pa.ChunkedArray):
            kinds = kinds.combine_chunks()
        keep = pc.is_in(kinds, value_set=pa.array(["purchase", "view"]))
        b = batch.filter(keep)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts_us": pa.array(_ts_us(b.column("ts"))),
                "is_p": pc.cast(pc.equal(b["event_type"], "purchase"), pa.int8()),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        n = part.num_rows
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        is_p = part["is_p"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((is_p, ts, uid))
        uid, ts, is_p = uid[order], ts[order], is_p[order]
        starts = segment_starts(uid)
        ends = np.append(starts[1:], n)
        # forward-fill the index of the last view, reset per user by
        # requiring it to fall inside the row's own segment
        last_view = np.maximum.accumulate(
            np.where(~is_p, np.arange(n, dtype=np.int64), np.int64(-1))
        )
        seg_start = np.repeat(starts, ends - starts)
        attr = is_p & (last_view >= seg_start)
        lat = np.where(attr, ts - ts[np.maximum(last_view, 0)], np.int64(0))
        n_purch = np.add.reduceat(is_p.astype(np.int64), starts)
        n_attr = np.add.reduceat(attr.astype(np.int64), starts)
        lat_s = np.add.reduceat(lat, starts) // US
        has_p = n_purch > 0
        return pa.table(
            {
                "user_id": pa.array(uid[starts][has_p]),
                "n_purchases": pa.array(n_purch[has_p]),
                "n_attributed": pa.array(n_attr[has_p]),
                "latency_s": pa.array(lat_s[has_p]),
            }
        )

    schema = pa.schema(
        [(c, pa.int64())
         for c in ("user_id", "n_purchases", "n_attributed", "latency_s")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_type"]),
        "user_id", bucket, per_bucket, schema, _WIN_P, pinned=False,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


ASOF_SQL = """
SELECT user_id,
       CAST(count(*) AS BIGINT)    AS n_purchases,
       CAST(count(v_ts) AS BIGINT) AS n_attributed,
       CAST(coalesce(sum(epoch_us(p_ts) - epoch_us(v_ts)), 0) // 1000000
            AS BIGINT)             AS latency_s
FROM (
  SELECT p.user_id, p.ts AS p_ts, v.ts AS v_ts
  FROM (SELECT user_id, ts FROM events WHERE event_type = 'purchase') p
  ASOF LEFT JOIN (SELECT user_id, ts FROM events WHERE event_type = 'view') v
    ON p.user_id = v.user_id AND p.ts >= v.ts
)
GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------- range join

# Deterministic campaign dimension: 12 overlapping 5-day windows, every
# 2 days from the corpus epoch. Tiny (24 timestamps) → broadcast side.
CAMPAIGN_EPOCH = _dt.datetime(2024, 1, 1)
N_CAMPAIGNS = 12
CAMPAIGN_STEP_DAYS = 2
CAMPAIGN_LEN_DAYS = 5


def campaign_bounds_us() -> tuple[np.ndarray, np.ndarray]:
    # tz-naive epoch-µs (matches the tz-naive timestamp[us] storage;
    # .timestamp() would shift by the host tz)
    epoch = int(np.datetime64(CAMPAIGN_EPOCH, "us").astype(np.int64))
    day = 86_400 * US
    lo = epoch + day * CAMPAIGN_STEP_DAYS * np.arange(N_CAMPAIGNS, dtype=np.int64)
    return lo, lo + day * CAMPAIGN_LEN_DAYS


def events_range_campaigns(sf_dir: str) -> pd.DataFrame:
    """Range (interval) join: events ⋈ campaigns ON lo ≤ ts < hi, with
    overlapping intervals (an event can land in several campaigns).

    Shape: broadcast the interval table (``ray.put`` once), evaluate
    all intervals against each batch vectorized, and emit PARTIAL
    (campaign_id, n, sum) rows — the all-to-all then moves only
    #campaigns × #blocks rows. At 100 TB the same plan holds as long
    as the interval dimension stays small; a large interval side would
    instead bucket both sides by coarse time range and join per bucket.
    """
    lo, hi = campaign_bounds_us()
    bounds_ref = ray.put((lo, hi))

    from .embedops import _task_stage

    class PartialRangeAgg:
        def __init__(self):
            self.lo, self.hi = ray.get(bounds_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ts = _ts_us(batch.column("ts"))
            val_e2 = pc.cast(
                pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
            ).to_numpy(zero_copy_only=False)
            # (n_campaigns × batch) boolean — 12 × 4096 is tiny; a big
            # interval side would switch to searchsorted per endpoint
            in_win = (ts >= self.lo[:, None]) & (ts < self.hi[:, None])
            n = in_win.sum(axis=1)
            keep = n > 0
            sums = np.where(in_win, val_e2, 0).sum(axis=1)
            return pa.table(
                {
                    "campaign_id": pa.array(
                        np.arange(N_CAMPAIGNS, dtype=np.int64)[keep]
                    ),
                    "n": pa.array(n[keep].astype(np.int64)),
                    "s": pa.array(sums[keep].astype(np.int64)),
                }
            )

    df = (
        read_table(sf_dir, "events", ["ts", "value"])
        .map_batches(_task_stage(PartialRangeAgg), batch_format="pyarrow")
        .groupby("campaign_id")
        .aggregate(Sum("n", alias_name="n_events"), Sum("s", alias_name="sum_value_e2"))
        .to_pandas()
    )
    df = ensure_columns(
        df, {"campaign_id": "int64", "n_events": "int64", "sum_value_e2": "int64"}
    )
    for c in ("campaign_id", "n_events", "sum_value_e2"):
        df[c] = df[c].astype("int64")
    return df.sort_values("campaign_id").reset_index(drop=True)


RANGE_SQL = f"""
WITH campaigns AS (
  SELECT CAST(i AS BIGINT) AS campaign_id,
         TIMESTAMP '2024-01-01' + INTERVAL {CAMPAIGN_STEP_DAYS} DAY * i AS lo,
         TIMESTAMP '2024-01-01' + INTERVAL {CAMPAIGN_STEP_DAYS} DAY * i
             + INTERVAL {CAMPAIGN_LEN_DAYS} DAY AS hi
  FROM range({N_CAMPAIGNS}) t(i)
)
SELECT campaign_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_e2
FROM events e JOIN campaigns c ON e.ts >= c.lo AND e.ts < c.hi
GROUP BY campaign_id ORDER BY campaign_id
"""


# ------------------------------------------------------- sliding window agg


def events_rolling_peak(sf_dir: str, window_s: int = 3600) -> pd.DataFrame:
    """Sliding-window aggregate: per user, the PEAK number of events in
    any trailing 1-hour window (RANGE frame semantics — the window is
    value-defined, peers with equal ts are all included).

    Shape: rows route ONCE by ``user_id % P`` (bucketed keyed
    exchange), then inside each bucket ONE lexsort by (user, ts) and a
    single pair of ``searchsorted`` sweeps over a per-user-rebased key
    (dense user index × 2^48 + µs-offset-within-user — spans stay well
    under 2^48 µs ≈ 8.9 years, so windows can never bleed across
    users) bound every event's trailing window; per-user peaks fold
    with ``maximum.reduceat``. No per-group Python invocation.
    """
    win_us = np.int64(window_s) * US
    shift = np.int64(1) << 48

    def bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts_us": pa.array(_ts_us(batch.column("ts"))),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        n = part.num_rows
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        starts = segment_starts(uid)
        ends = np.append(starts[1:], n)
        lens = ends - starts
        # rebase each user's timestamps to its segment start, then lift
        # into a disjoint int64 range per user so one global
        # searchsorted respects segment boundaries
        seg_idx = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
        rel = ts - np.repeat(ts[starts], lens)
        key = seg_idx * shift + rel
        hi = np.searchsorted(key, key, side="right")
        lo = np.searchsorted(key, key - win_us, side="left")
        peak = np.maximum.reduceat(hi - lo, starts)
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "peak_1h": pa.array(peak.astype(np.int64)),
                "n_events": pa.array(lens.astype(np.int64)),
            }
        )

    schema = pa.schema([(c, pa.int64()) for c in ("user_id", "peak_1h", "n_events")])
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts"]),
        "user_id", bucket, per_bucket, schema, _WIN_P, pinned=False,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


ROLLING_SQL = """
SELECT user_id, CAST(max(c) AS BIGINT) AS peak_1h,
       CAST(count(*) AS BIGINT) AS n_events
FROM (
  SELECT user_id,
         count(*) OVER (PARTITION BY user_id ORDER BY ts
                        RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                              AND CURRENT ROW) AS c
  FROM events
)
GROUP BY user_id ORDER BY user_id
"""


# ------------------------------------------------- calendar densification

DAY_US = 86_400 * US
TRAIL_DAYS = 7  # trailing window width for rolling_distinct_users


def _day_nums(batch_ts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """timestamp[us] → int64 epoch-day numbers (floor)."""
    return _ts_us(batch_ts) // DAY_US


def _fmt_days(day_nums: pd.Series | np.ndarray) -> np.ndarray:
    # returns positional values (never an indexed Series — assigning a
    # fresh-index Series into a sorted frame would realign by index)
    return (
        pd.Series(pd.to_datetime(np.asarray(day_nums, dtype="int64"), unit="D"))
        .dt.strftime("%Y-%m-%d")
        .to_numpy()
    )


def _event_day_bounds(sf_dir: str) -> tuple[int, int] | None:
    """Global [min, max] event day — one pruned single-column pass
    that reduces to two int64s (streaming Min/Max aggregate)."""
    from ray.data.aggregate import Max, Min

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"day": pa.array(_day_nums(batch["ts"]))})

    row = (
        read_table(sf_dir, "events", ["ts"])
        .map_batches(prep, batch_format="pyarrow")
        .aggregate(Min("day"), Max("day"))
    )
    if not row or row.get("min(day)") is None:
        return None
    return int(row["min(day)"]), int(row["max(day)"])


def events_gap_fill(sf_dir: str) -> pd.DataFrame:
    """Zero-filled daily event counts per type + day-over-day delta —
    the gap-fill/densify operator every time-series pipeline needs
    (missing days must exist as rows before lag/diff is meaningful).

    Scale shape: the distributed part is the usual pruned-read →
    per-batch partial count → (day,type) groupby; densification and
    the lag column run on the DRIVER over the aggregate, which is
    calendar-sized (#days × #types), not data-sized — that is the
    correct venue at any corpus size. The calendar bounds come off the
    counts aggregate itself (its day column spans min..max of the
    data), so the corpus is scanned exactly ONCE."""

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "day": pa.array(_day_nums(batch["ts"])),
                "event_type": batch["event_type"],
            }
        )
        g = t.group_by(["day", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["day", "event_type", "n"])

    counts = (
        read_table(sf_dir, "events", ["ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby(["day", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    counts = ensure_columns(
        counts, {"day": "int64", "event_type": "object", "n": "int64"}
    )
    if not len(counts):
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype="object"),
                "event_type": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
                "delta": pd.Series([], dtype="int64"),
            }
        )
    d0, d1 = int(counts["day"].min()), int(counts["day"].max())
    types = sorted(counts["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [range(d0, d1 + 1), types], names=["day", "event_type"]
    )
    dense = (
        counts.set_index(["day", "event_type"])
        .reindex(grid, fill_value=0)
        .reset_index()
    )
    dense = dense.sort_values(["event_type", "day"], kind="mergesort")
    dense["delta"] = dense["n"] - dense.groupby("event_type")["n"].shift(
        1, fill_value=0
    )
    dense["day"] = _fmt_days(dense["day"].to_numpy())
    dense["n"] = dense["n"].astype("int64")
    dense["delta"] = dense["delta"].astype("int64")
    return (
        dense[["day", "event_type", "n", "delta"]]
        .sort_values(["day", "event_type"], kind="mergesort")
        .reset_index(drop=True)
    )


GAP_FILL_SQL = """
WITH b AS (SELECT CAST(min(ts) AS DATE) AS d0, CAST(max(ts) AS DATE) AS d1
           FROM events),
days AS (SELECT unnest(generate_series((SELECT d0 FROM b),
                                       (SELECT d1 FROM b),
                                       INTERVAL 1 DAY))::DATE AS day),
types AS (SELECT DISTINCT event_type FROM events),
cnt AS (SELECT CAST(ts AS DATE) AS day, event_type, count(*) AS n
        FROM events GROUP BY 1, 2),
filled AS (
  SELECT g.day, g.event_type, coalesce(c.n, 0) AS n
  FROM (SELECT * FROM days CROSS JOIN types) g
  LEFT JOIN cnt c ON c.day = g.day AND c.event_type = g.event_type)
SELECT strftime(day, '%Y-%m-%d') AS day, event_type,
       CAST(n AS BIGINT) AS n,
       CAST(n - coalesce(lag(n) OVER (PARTITION BY event_type ORDER BY day),
                         0) AS BIGINT) AS delta
FROM filled ORDER BY day, event_type
"""


def rolling_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Trailing-7-day distinct users per day — windowed COUNT(DISTINCT),
    which no single groupby expresses because a user must count once
    per WINDOW it falls in, not once globally.

    Distributed shape (ONE user-keyed exchange — round-5 rewrite; the
    former plan paid two multi-key sort exchanges over the pair
    stream):
    1. batch-local (day, user) dedup (numpy lexsort run-unique), rows
       route by user-pid;
    2. inside each user bucket the fold is exact without any further
       exchange (a user's rows are all present): dedup (user, day),
       expand to the ≤7 cover days, dedup (user, cover) again, and
       emit per-day PARTIAL counts — one row per (bucket, day);
    3. a calendar-sized day groupby sums partials; driver densifies.

    The exchange moves one row per batch-distinct (day, user) pair —
    independent of raw event volume; at 100 TB the window factor, not
    the corpus, prices the op. Days with no active window users still
    appear (zero rows from the calendar-sized driver densify)."""
    bounds = _event_day_bounds(sf_dir)
    if bounds is None:
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype="object"),
                "n_users_7d": pd.Series([], dtype="int64"),
            }
        )
    d0, d1 = bounds
    P = 16

    def local_pairs(batch: pa.Table) -> pa.Table:
        days = _day_nums(batch["ts"])
        users = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((days, users))
        du, uu = days[order], users[order]
        keep = np.r_[True, (du[1:] != du[:-1]) | (uu[1:] != uu[:-1])]
        du, uu = du[keep], uu[keep]
        return pa.table({"day": pa.array(du), "user_id": pa.array(uu)})

    def window_counts(g: pa.Table) -> pa.Table:
        days = g["day"].to_numpy(zero_copy_only=False)
        users = g["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((days, users))
        du, uu = days[order], users[order]
        keep = np.r_[True, (du[1:] != du[:-1]) | (uu[1:] != uu[:-1])]
        du, uu = du[keep], uu[keep]
        cover = (
            np.repeat(du, TRAIL_DAYS)
            + np.tile(np.arange(TRAIL_DAYS, dtype=np.int64), len(du))
        )
        cu = np.repeat(uu, TRAIL_DAYS)
        m = cover <= d1
        cover, cu = cover[m], cu[m]
        order2 = np.lexsort((cover, cu))
        cover, cu = cover[order2], cu[order2]
        keep2 = np.r_[True, (cover[1:] != cover[:-1]) | (cu[1:] != cu[:-1])]
        cover = cover[keep2]
        udays, counts = np.unique(cover, return_counts=True)
        return pa.table(
            {"day": pa.array(udays), "n": pa.array(counts.astype(np.int64))}
        )

    df = (
        bucket_fold(
            read_table(sf_dir, "events", ["ts", "user_id"]),
            "user_id", local_pairs, window_counts,
            pa.schema([("day", pa.int64()), ("n", pa.int64())]), P,
        )
        .groupby("day")
        .aggregate(Sum("n", alias_name="n_users_7d"))
        .to_pandas()
    )
    df = ensure_columns(df, {"day": "int64", "n_users_7d": "int64"})
    dense = (
        df.set_index("day")
        .reindex(range(d0, d1 + 1), fill_value=0)
        .reset_index()
    )
    dense["day"] = _fmt_days(dense["day"].to_numpy())
    dense["n_users_7d"] = dense["n_users_7d"].astype("int64")
    return dense.sort_values("day").reset_index(drop=True)


ROLLING_DISTINCT_SQL = f"""
WITH b AS (SELECT CAST(min(ts) AS DATE) AS d0, CAST(max(ts) AS DATE) AS d1
           FROM events),
days AS (SELECT unnest(generate_series((SELECT d0 FROM b),
                                       (SELECT d1 FROM b),
                                       INTERVAL 1 DAY))::DATE AS day)
SELECT strftime(day, '%Y-%m-%d') AS day,
       CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_users_7d
FROM days
LEFT JOIN events e
  ON CAST(e.ts AS DATE) BETWEEN day - {TRAIL_DAYS - 1} AND day
GROUP BY day ORDER BY day
"""


# -------------------------------------------- SCD2 point-in-time join

SCD2_EPOCH = np.datetime64("1994-01-01", "us").astype(np.int64)  # µs
SCD2_MOD = 1000  # per-customer split offset (days)


def orders_scd2_join(sf_dir: str) -> pd.DataFrame:
    """Point-in-time join of facts against a versioned (SCD type 2)
    dimension — the warehouse pattern where each dimension key carries
    validity intervals and a fact row must join the version that was
    current AT ITS OWN timestamp.

    The versioned dimension is synthesized deterministically so the
    DuckDB twin rebuilds it: every customer has version 1 until
    ``1994-01-01 + (c_custkey % 1000) days`` and version 2 after.

    Distributed shape: ONE bucketed equi-join on the customer key
    (``joins.hash_join`` — dimension versions co-locate with their
    facts), then the validity predicate filters the per-key version
    fan-out VECTORIZED inside the partition, and per-batch partial
    aggregates fold into a version-sized groupby. The interval logic
    never forces a driver pass or a second exchange; money is exact
    integer cents."""
    from .joins import hash_join
    from .relational import _rename

    def fact_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "od_us": pa.array(_ts_us(batch["o_orderdate"])),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    def dim_prep(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        split = SCD2_EPOCH + (ck % SCD2_MOD) * DAY_US
        lo = np.int64(np.iinfo(np.int64).min)
        hi = np.int64(np.iinfo(np.int64).max)
        return pa.table(
            {
                "c_custkey": pa.array(np.concatenate([ck, ck])),
                "version": pa.array(
                    np.r_[np.ones(len(ck), np.int64), np.full(len(ck), 2, np.int64)]
                ),
                "from_us": pa.array(np.r_[np.full(len(ck), lo), split]),
                "to_us": pa.array(np.r_[split, np.full(len(ck), hi)]),
            }
        )

    joined = hash_join(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(fact_prep, batch_format="pyarrow"),
        read_table(sf_dir, "customer", ["c_custkey"]).map_batches(
            dim_prep, batch_format="pyarrow"
        ),
        on="o_custkey",
        right_on="c_custkey",
        left_schema=[
            ("o_custkey", pa.int64()),
            ("od_us", pa.int64()),
            ("cents", pa.int64()),
        ],
        right_schema=[
            ("c_custkey", pa.int64()),
            ("version", pa.int64()),
            ("from_us", pa.int64()),
            ("to_us", pa.int64()),
        ],
    )

    def validity_fold(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "od_us" not in batch.column_names:
            return pa.table(
                {"version": pa.array([], pa.int64()),
                 "n_orders": pa.array([], pa.int64()),
                 "total_cents": pa.array([], pa.int64())}
            )
        keep = pc.and_(
            pc.greater_equal(batch["od_us"], batch["from_us"]),
            pc.less(batch["od_us"], batch["to_us"]),
        )
        batch = batch.filter(keep)
        t = pa.table(
            {
                "version": batch["version"],
                "n_orders": pa.array(np.ones(batch.num_rows, np.int64)),
                "cents": batch["cents"],
            }
        )
        return _rename(
            t.group_by("version").aggregate(
                [("n_orders", "sum"), ("cents", "sum")]
            ),
            {"n_orders_sum": "n_orders", "cents_sum": "total_cents"},
        )

    df = (
        joined.map_batches(validity_fold, batch_format="pyarrow")
        .groupby("version")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df, {"version": "int64", "n_orders": "int64", "total_cents": "int64"}
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("version").reset_index(drop=True)


SCD2_SQL = f"""
WITH dim AS (
  SELECT c_custkey, 1 AS version,
         TIMESTAMP '1000-01-01 00:00:00' AS valid_from,
         TIMESTAMP '1994-01-01 00:00:00'
           + (c_custkey % {SCD2_MOD}) * INTERVAL 1 DAY AS valid_to
  FROM customer
  UNION ALL
  SELECT c_custkey, 2,
         TIMESTAMP '1994-01-01 00:00:00'
           + (c_custkey % {SCD2_MOD}) * INTERVAL 1 DAY,
         TIMESTAMP '2999-01-01 00:00:00'
  FROM customer)
SELECT CAST(version AS BIGINT) AS version,
       count(*)::BIGINT AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS total_cents
FROM orders o
JOIN dim d ON d.c_custkey = o.o_custkey
          AND o.o_orderdate >= d.valid_from
          AND o.o_orderdate < d.valid_to
GROUP BY version ORDER BY version
"""


# ------------------------------------------------ interval coverage

ACTIVE_DUR_S = 300  # each event opens a 5-minute activity interval
_COV_P = 16  # user-hash buckets
_COV_TS0 = np.int64(631152000) * US  # 1990-01-01 — below every event ts
_COV_BIG = np.int64(1) << np.int64(51)  # > any (ts - TS0) span in µs


def coverage_kernel(
    uid: np.ndarray, s: np.ndarray, dur_us: np.int64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user interval-union length of [s, s+dur) intervals — ONE
    lexsort + one vectorized running-max scan; the per-user reset is
    free because each user's intervals shift into a disjoint int64
    range (dense index × 2^51). Returns (users, active_us, counts),
    users ascending. Pure numpy — property-tested against the O(n²)
    brute-force union in tests/test_properties.py."""
    e = s + dur_us
    _, inv = np.unique(uid, return_inverse=True)
    base = inv.astype(np.int64) * _COV_BIG
    s_sh = base + (s - _COV_TS0)
    e_sh = base + (e - _COV_TS0)
    order = np.lexsort((e_sh, s_sh))  # user blocks are contiguous
    s_sh, e_sh, uid_o = s_sh[order], e_sh[order], uid[order]
    pm = np.maximum.accumulate(e_sh)
    pm_excl = np.empty_like(pm)
    if len(pm):
        pm_excl[0] = np.iinfo(np.int64).min
        pm_excl[1:] = pm[:-1]
    gain = np.maximum(0, e_sh - np.maximum(s_sh, pm_excl))
    starts = segment_starts(uid_o)
    active = np.add.reduceat(gain, starts) if len(starts) else np.array([], np.int64)
    counts = np.diff(np.append(starts, len(uid_o)))
    return (
        uid_o[starts],
        active.astype(np.int64),
        counts.astype(np.int64),
    )


def user_active_time(sf_dir: str) -> pd.DataFrame:
    """Interval-union coverage per user: every event opens the
    interval [ts, ts+300 s); the answer is the LENGTH OF THE UNION of
    each user's intervals (overlaps merged) — the "distinct active
    time" statistic sessionization can't express.

    Distributed shape: rows route once by ``user_id % P`` (a bucketed
    keyed exchange, not per-user groups); inside each bucket ONE
    lexsort by (user, start, end) and a single vectorized running-max
    scan computes every row's exclusive prior-coverage bound. The
    per-user reset needs no loop: each user's intervals are shifted
    into a disjoint int64 range (dense user index × 2^51 — spans
    stay < 2^51 µs, ≤4096 users per bucket at this sf; raise P with
    the user count), so a previous user's running max can never reach
    into the next user's clamp. Per-user sums fold with one reduceat.
    The DuckDB twin is the classic max(end) OVER (... ROWS UNBOUNDED
    PRECEDING AND 1 PRECEDING) gap-island rewrite."""
    dur_us = np.int64(ACTIVE_DUR_S) * US

    def bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _ts_us(batch.column("ts"))
        return pa.table({"user_id": pa.array(uid), "s": pa.array(s)})

    def cover(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        s = part["s"].to_numpy(zero_copy_only=False)
        users, active, counts = coverage_kernel(uid, s, dur_us)
        return pa.table(
            {
                "user_id": pa.array(users),
                "active_us": pa.array(active),
                "n_events": pa.array(counts),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "active_us", "n_events")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts"]),
        "user_id", bucket, cover, schema, _COV_P, pinned=False,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


ACTIVE_TIME_SQL = f"""
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts) + {ACTIVE_DUR_S * US} AS e
  FROM events),
o AS (
  SELECT user_id, s, e,
         max(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_e
  FROM iv)
SELECT user_id,
       CAST(sum(greatest(0, e - greatest(s, coalesce(prev_e, s))))
            AS BIGINT) AS active_us,
       count(*)::BIGINT AS n_events
FROM o GROUP BY user_id ORDER BY user_id
"""


# ------------------------------------------------------ 7-day retention

RETENTION_GAP_D = 7  # a user active on d is "retained" if active on d+7
_RET_P = 16


def user_retention(sf_dir: str) -> pd.DataFrame:
    """Day-over-day cohort retention: for every calendar day d, how
    many distinct users were active on d, and how many of those were
    ALSO active exactly ``RETENTION_GAP_D`` days later — the product-
    analytics join of an activity set against its own time-shifted
    self.

    Distributed shape: per-batch dedup of (user, day) pairs, then ONE
    keyed exchange by ``user % P``; inside each bucket the global
    (user, day) set is deduped and the d+7 membership probe is one
    sorted np.isin over packed (user·2³²+day) keys — no second
    shuffle, because both the day-d row and its day-d+7 witness live
    with the same user. Per-day partial counts fold through a
    calendar-sized groupby."""

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = _ts_us(batch.column("ts")) // DAY_US
        key = uid * (np.int64(1) << np.int64(32)) + day
        key = np.unique(key)
        return pa.table(
            {"user": pa.array(key >> np.int64(32)), "key": pa.array(key)}
        )

    def probe(part: pa.Table) -> pa.Table:
        key = np.unique(part["key"].to_numpy(zero_copy_only=False))
        day = key & ((np.int64(1) << np.int64(32)) - 1)
        retained = np.isin(key + RETENTION_GAP_D, key)
        t = pa.table(
            {
                "day": pa.array(day),
                "n_active": pa.array(np.ones(len(day), np.int64)),
                "n_retained": pa.array(retained.astype(np.int64)),
            }
        )
        return (
            t.group_by("day")
            .aggregate([("n_active", "sum"), ("n_retained", "sum")])
            .rename_columns(["day", "n_active", "n_retained"])
        )

    df = (
        bucket_fold(
            read_table(sf_dir, "events", ["user_id", "ts"]),
            "user", pairs, probe,
            pa.schema(
                [(c, pa.int64()) for c in ("day", "n_active", "n_retained")]
            ),
            _RET_P, pinned=False,
        )
        .groupby("day")
        .aggregate(
            Sum("n_active", alias_name="n_active"),
            Sum("n_retained", alias_name="n_retained"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df, {"day": "int64", "n_active": "int64", "n_retained": "int64"}
    )
    df["day"] = (
        pd.to_datetime(df["day"].astype("int64") * 86_400, unit="s")
        .dt.strftime("%Y-%m-%d")
    )
    for c in ("n_active", "n_retained"):
        df[c] = df[c].astype("int64")
    return df.sort_values("day").reset_index(drop=True)


RETENTION_SQL = f"""
WITH a AS (
  SELECT DISTINCT user_id, CAST(ts AS DATE) AS day FROM events)
SELECT strftime(a.day, '%Y-%m-%d') AS day,
       count(*)::BIGINT AS n_active,
       sum(CASE WHEN b.user_id IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
         AS n_retained
FROM a LEFT JOIN a b
  ON b.user_id = a.user_id AND b.day = a.day + {RETENTION_GAP_D}
GROUP BY a.day ORDER BY day
"""


# ---------------------------------------------- exponential time decay

DECAY_WINDOW_D = 30  # ages beyond 30 days are out of the window
_DECAY_ONE = np.int64(1)


def events_decayed_score(sf_dir: str) -> pd.DataFrame:
    """Exponentially-decayed activity score per event type with a
    1-day half-life over a trailing {DECAY}-day window — the freshness
    signal feature stores compute, made INTEGER-EXACT by scoring in
    units of 2^(window − age) (a power-of-two weight per whole-day
    age, so no float accumulates).

    Distributed shape: the watermark (global max day) is one tiny
    column scan; the corpus streams ONCE through per-batch (type, day)
    partial counts; the weighted fold happens on the groups-sized
    result. The score depends on a global watermark, which is why this
    is not just a groupby — the plan broadcasts the scalar, never the
    data."""
    ds = read_table(sf_dir, "events", ["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch.column("ts")) // DAY_US
        t = pa.table(
            {"event_type": batch["event_type"], "day": pa.array(day)}
        )
        return (
            t.group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "day", "n"])
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    cells = ensure_columns(
        cells, {"event_type": "object", "day": "int64", "n": "int64"}
    )
    if not len(cells):
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype="object"),
                "decayed_score": pd.Series([], dtype="int64"),
                "n_events": pd.Series([], dtype="int64"),
            }
        )
    # the watermark comes off the groups-sized aggregate itself (floor
    # is monotone, so max(day) == floor(max(ts))) — no second scan
    last_day = np.int64(cells["day"].max())
    age = last_day - cells["day"].astype("int64")
    cells = cells[age <= DECAY_WINDOW_D].copy()
    age = last_day - cells["day"].astype("int64")
    cells["decayed_score"] = cells["n"].astype("int64") * (
        _DECAY_ONE << (DECAY_WINDOW_D - age).astype("int64")
    )
    out = (
        cells.groupby("event_type", as_index=False)
        .agg(decayed_score=("decayed_score", "sum"), n_events=("n", "sum"))
    )
    for c in ("decayed_score", "n_events"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


DECAYED_SQL = f"""
WITH d AS (
  SELECT event_type, CAST(ts AS DATE) AS day, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
m AS (SELECT max(day) AS last FROM d)
SELECT event_type,
       sum(n * (CAST(1 AS BIGINT) << ({DECAY_WINDOW_D} - (last - day))))::BIGINT
         AS decayed_score,
       sum(n)::BIGINT AS n_events
FROM d, m WHERE (last - day) <= {DECAY_WINDOW_D}
GROUP BY event_type ORDER BY event_type
"""


# ------------------------------------------- stream-stream band join

PAIR_WINDOW_S = 3600  # click precedes purchase by < 1 hour


def click_purchase_pairs(sf_dir: str) -> pd.DataFrame:
    """Stream-stream band join inside the events log: every (click,
    purchase) pair of the SAME user with the click in the hour before
    the purchase — unlike the as-of join (latest single witness), this
    counts ALL pairs in the band, the shape of stream-stream joins in
    streaming engines (bounded-staleness correlation).

    Distributed shape: rows route ONCE by ``user_id % P`` (bucketed
    keyed exchange — P group tasks, not one per user); inside each
    bucket one lexsort splits users into contiguous segments and each
    user costs two ``np.searchsorted`` calls bounding every purchase's
    click band, so pair counts AND exact summed gaps come from prefix
    sums — O((n+m) log m) per user, never materializing the pair
    blow-up. Output is per-user (n_pairs, total_gap_s), integer-µs
    exact, floor-divided to seconds identically to the SQL twin."""
    win_us = np.int64(PAIR_WINDOW_S) * US
    P = 16

    def bucket(batch: pa.Table) -> pa.Table:
        kinds = batch["event_type"]
        if isinstance(kinds, pa.ChunkedArray):
            kinds = kinds.combine_chunks()
        keep = pc.is_in(kinds, value_set=pa.array(["purchase", "click"]))
        b = batch.filter(keep)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts_us": pa.array(_ts_us(b.column("ts"))),
                "is_p": pc.cast(
                    pc.equal(b["event_type"], "purchase"), pa.int8()
                ),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts_us = part["ts_us"].to_numpy(zero_copy_only=False)
        is_p = part["is_p"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((ts_us, is_p, uid))
        uid, ts_us, is_p = uid[order], ts_us[order], is_p[order]
        users, pairs, gaps = [], [], []
        starts = segment_starts(uid)
        ends = np.append(starts[1:], len(uid))
        for st, en in zip(starts, ends):
            u = uid[st]
            seg_p = ts_us[st:en][is_p[st:en]]
            seg_c = ts_us[st:en][~is_p[st:en]]
            if not len(seg_p) or not len(seg_c):
                continue
            pref = np.concatenate(([0], np.cumsum(seg_c)))
            lo = np.searchsorted(seg_c, seg_p - win_us, side="left")
            hi = np.searchsorted(seg_c, seg_p, side="left")
            cnt = hi - lo
            n_pairs = int(cnt.sum())
            if n_pairs == 0:
                continue
            users.append(int(u))
            pairs.append(n_pairs)
            gaps.append(
                int((seg_p * cnt).sum() - (pref[hi] - pref[lo]).sum()) // US
            )
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_pairs": pa.array(pairs, pa.int64()),
                "total_gap_s": pa.array(gaps, pa.int64()),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n_pairs", "total_gap_s")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_type"]),
        "user_id", bucket, per_bucket, schema, P, pinned=False,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


PAIRS_SQL = f"""
WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT p.user_id,
       count(*)::BIGINT AS n_pairs,
       CAST(sum(epoch_us(p.ts) - epoch_us(c.ts)) // {US} AS BIGINT)
         AS total_gap_s
FROM p JOIN c
  ON c.user_id = p.user_id
 AND c.ts >= p.ts - INTERVAL {PAIR_WINDOW_S} SECONDS
 AND c.ts < p.ts
GROUP BY p.user_id ORDER BY p.user_id
"""


# ------------------------------------------------ spike detection

SPIKE_TRAIL_D = 7  # trailing window (exclusive of the day itself)
SPIKE_NUM, SPIKE_DEN = 21, 20  # spike when count > 105% of trailing mean


def events_spike_days(sf_dir: str) -> pd.DataFrame:
    """Trailing-window anomaly detection: calendar days whose event
    count exceeds ``SPIKE_NUM/SPIKE_DEN`` (105%) of the mean of the
    preceding ``SPIKE_TRAIL_D`` days (full windows only) — the
    alerting shape of a streaming monitor, integer-exact via
    cross-multiplication (n·7·20 > 21·prev7, no float mean).

    Distributed shape: the corpus folds to calendar-sized daily counts
    in one groupby; each day then CONTRIBUTES its count to the next 7
    days (bounded flat-map expansion — the same trailing-window trick
    as ``rolling_distinct_users``), a second calendar-sized groupby
    folds the trailing sums, and the spike predicate joins the two
    aggregate-sized tables. Nothing row-sized is exchanged twice."""

    def partial(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch.column("ts")) // DAY_US
        t = pa.table({"day": pa.array(day)})
        return (
            t.group_by("day")
            .aggregate([([], "count_all")])
            .rename_columns(["day", "n"])
        )

    daily = (
        read_table(sf_dir, "events", ["ts"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()  # two consumers: expansion + the final join
    )

    def expand(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "day" not in batch.column_names:
            return pa.table(
                {"day": pa.array([], pa.int64()),
                 "prev_n": pa.array([], pa.int64()),
                 "prev_days": pa.array([], pa.int64())}
            )
        day = batch["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        tgt = (day[:, None] + np.arange(1, SPIKE_TRAIL_D + 1)[None, :]).ravel()
        return pa.table(
            {
                "day": pa.array(tgt),
                "prev_n": pa.array(np.repeat(n, SPIKE_TRAIL_D)),
                "prev_days": pa.array(np.ones(len(tgt), np.int64)),
            }
        )

    trailing = (
        daily.map_batches(expand, batch_format="pyarrow")
        .groupby("day")
        .aggregate(
            Sum("prev_n", alias_name="prev_n"),
            Sum("prev_days", alias_name="prev_days"),
        )
        .to_pandas()
    )
    trailing = ensure_columns(
        trailing, {"day": "int64", "prev_n": "int64", "prev_days": "int64"}
    )
    cur = ensure_columns(daily.to_pandas(), {"day": "int64", "n": "int64"})
    df = cur.merge(trailing, on="day", how="inner")
    full = df["prev_days"] == SPIKE_TRAIL_D
    spike = (
        df["n"] * SPIKE_TRAIL_D * SPIKE_DEN > SPIKE_NUM * df["prev_n"]
    )
    df = df[full & spike][["day", "n", "prev_n"]].copy()
    df["day"] = (
        pd.to_datetime(df["day"].astype("int64") * 86_400, unit="s")
        .dt.strftime("%Y-%m-%d")
    )
    for c in ("n", "prev_n"):
        df[c] = df[c].astype("int64")
    return df.sort_values("day").reset_index(drop=True)


SPIKE_SQL = f"""
WITH d AS (
  SELECT CAST(ts AS DATE) AS day, count(*)::BIGINT AS n
  FROM events GROUP BY 1),
w AS (
  SELECT day, n,
         sum(n) OVER (ORDER BY day
             RANGE BETWEEN INTERVAL {SPIKE_TRAIL_D} DAYS PRECEDING
                       AND INTERVAL 1 DAY PRECEDING) AS prev_n,
         count(*) OVER (ORDER BY day
             RANGE BETWEEN INTERVAL {SPIKE_TRAIL_D} DAYS PRECEDING
                       AND INTERVAL 1 DAY PRECEDING) AS prev_days
  FROM d)
SELECT strftime(day, '%Y-%m-%d') AS day, n,
       CAST(prev_n AS BIGINT) AS prev_n
FROM w
WHERE prev_days = {SPIKE_TRAIL_D}
  AND n * {SPIKE_TRAIL_D} * {SPIKE_DEN} > {SPIKE_NUM} * prev_n
ORDER BY day
"""


# ------------------------------------------- event-transition matrix

_TRANS_P = 16


def event_transitions(sf_dir: str) -> pd.DataFrame:
    """Per-user ordered event-type TRANSITION counts folded into the
    global Markov matrix — the LAG() OVER (PARTITION BY key ORDER BY
    ts) shape at scale, the input statistic of next-event prediction
    and funnel-drop analysis.

    Distributed shape: rows route once by ``user_id % P``; inside each
    bucket ONE lexsort by (user, ts, event_id) makes every user's
    stream contiguous and ordered, the lag is an array shift with the
    first row of each user segment masked out (no per-user loop), and
    per-batch (prev, cur) partial counts fold through a
    |types|²-sized groupby. Deterministic under ts ties via the
    event_id tiebreak — same ordering as the SQL window."""

    def bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts_us": pa.array(_ts_us(batch.column("ts"))),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
            }
        )

    def transitions(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        types = part["event_type"].take(pa.array(order))
        first_of_user = np.zeros(len(uid), bool)
        first_of_user[segment_starts(uid)] = True
        keep = ~first_of_user  # rows that HAVE a predecessor
        prev_idx = np.flatnonzero(keep) - 1
        t = pa.table(
            {
                "prev_type": types.take(pa.array(prev_idx)),
                "event_type": types.filter(pa.array(keep)),
                "n": pa.array(np.ones(int(keep.sum()), np.int64)),
            }
        )
        return (
            t.group_by(["prev_type", "event_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["prev_type", "event_type", "n"])
        )

    df = (
        bucket_fold(
            read_table(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
            "user_id", bucket, transitions,
            pa.schema(
                [("prev_type", pa.string()), ("event_type", pa.string()),
                 ("n", pa.int64())]
            ),
            _TRANS_P, pinned=False,
        )
        .groupby(["prev_type", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    df = ensure_columns(
        df, {"prev_type": "object", "event_type": "object", "n": "int64"}
    )
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["prev_type", "event_type"]).reset_index(drop=True)


TRANSITIONS_SQL = """
WITH lagged AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM events)
SELECT prev_type, event_type, count(*)::BIGINT AS n
FROM lagged WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type
ORDER BY prev_type, event_type
"""


# ------------------------------------------- global sweep-line peak

CONCURRENCY_WINDOW_S = 300  # an event marks its user active for 5 min
_SWEEP_BUCKETS = 64


def events_peak_concurrency(sf_dir: str) -> pd.DataFrame:
    """Global sweep-line: the maximum number of simultaneously active
    users over the whole log (an event opens a [ts, ts+300s) activity
    interval; intervals are half-open, so one ending exactly when
    another starts never overlaps it), plus the earliest instant the
    peak is reached.

    Distributed shape — a segmented scan, not a global sort: every
    event emits (+1 at ts, −1 at ts+W) deltas; deltas route ONCE by
    fixed-width time bucket (one explicit all-to-all of 2·N tiny
    rows); each bucket independently sorts its deltas by (t, d) and
    reports only (Σ deltas, max running prefix, first t at that max);
    the driver combines B≤64 partials with one exclusive prefix sum —
    the classic carry-propagation of a distributed scan. Peak and
    argmin-t are exact and layout-independent.
    """
    win_us = np.int64(CONCURRENCY_WINDOW_S) * US
    ds = read_table(sf_dir, "events", columns=["ts"])

    def minmax(batch: pa.Table) -> pa.Table:
        t = _ts_us(batch.column("ts"))
        if not len(t):
            return pa.table({"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        return pa.table({"lo": pa.array([int(t.min())]), "hi": pa.array([int(t.max())])})

    mm = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame(
        {
            "peak": pd.Series([0], dtype="int64"),
            "at_ts": pd.Series([pd.NaT], dtype="datetime64[us]"),
        }
    )
    if not len(mm):
        return empty
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max()) + int(win_us)
    width = max(1, (hi - lo) // _SWEEP_BUCKETS + 1)

    def deltas(batch: pa.Table) -> pa.Table:
        t = _ts_us(batch.column("ts"))
        ts_all = np.concatenate([t, t + win_us])
        d = np.concatenate(
            [np.ones(len(t), np.int8), np.full(len(t), -1, np.int8)]
        )
        return pa.table(
            {
                "bucket": pa.array(((ts_all - lo) // width).astype(np.int32)),
                "t": pa.array(ts_all),
                "d": pa.array(d),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        t = part["t"].to_numpy(zero_copy_only=False)
        d = part["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, t))  # t asc, then -1 before +1 (half-open)
        run = np.cumsum(d[order])
        mi = int(np.argmax(run))
        return pa.table(
            {
                "bucket": pa.array([int(part["bucket"][0].as_py())], pa.int32()),
                "s_total": pa.array([int(run[-1])], pa.int64()),
                "m_prefix": pa.array([int(run[mi])], pa.int64()),
                "t_at_m": pa.array([int(t[order][mi])], pa.int64()),
            }
        )

    parts = (
        ds.map_batches(deltas, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    if not len(parts):
        return empty
    parts = parts.sort_values("bucket").reset_index(drop=True)
    s = parts["s_total"].to_numpy(dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(s)[:-1]))
    cand = offsets + parts["m_prefix"].to_numpy(dtype=np.int64)
    peak = int(cand.max())
    first = int(np.argmax(cand == peak))  # earliest bucket = earliest t
    at_us = int(parts["t_at_m"].iloc[first])
    return pd.DataFrame(
        {
            "peak": pd.Series([peak], dtype="int64"),
            "at_ts": pd.Series(
                np.array([at_us], dtype="int64").view("datetime64[us]")
            ),
        }
    )


PEAK_CONCURRENCY_SQL = f"""
WITH deltas AS (
  SELECT ts AS t, 1 AS d FROM events
  UNION ALL
  SELECT ts + INTERVAL {CONCURRENCY_WINDOW_S} SECOND AS t, -1 AS d FROM events
), s AS (
  SELECT t, CAST(SUM(d) OVER (ORDER BY t, d) AS BIGINT) AS c FROM deltas
), m AS (SELECT COALESCE(MAX(c), 0)::BIGINT AS peak FROM s)
SELECT m.peak AS peak,
       (SELECT MIN(t) FROM s WHERE s.c = m.peak) AS at_ts
FROM m
"""
