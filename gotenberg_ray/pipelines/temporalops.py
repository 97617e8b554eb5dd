"""Ninth analytic wave (round 4) — temporal-weighted aggregation and
stream cleaning, each with an exact DuckDB twin:

- ``user_value_twap``: time-weighted average of ``events.value`` per
  user — each reading is weighted by how long it was "current" (the
  LEAD gap to the next event; the last reading carries no weight,
  exactly like the twin's ``LEAD(ts) - ts``). Needs every (user, ts)
  pair co-located: ONE user-keyed exchange, then per-bucket lexsort +
  segmented diff; weights are exact epoch microseconds and the TWAP
  is integer floor division, so the hash is layout-independent.
  Overflow bound: sum(v_e2 * dur_us) per user <= max_v_e2 * span_us
  (~1.5e17 for this corpus' 30-day span) << int64.

- ``priority_running_revenue``: cumulative revenue per priority in
  order-year order (a running-total window). One fold to the
  category-bounded (priority, year) grid; the cumsum runs on that
  grid, mirroring ``SUM() OVER (PARTITION BY priority ORDER BY
  year)`` which DuckDB evaluates with the default RANGE frame — one
  row per existing (priority, year), no densification.

- ``events_dedup_burst``: burst deduplication — drop an event when
  the SAME (user, type) fired within the last 300 s (gap-based LAG
  filter, the standard at-least-once-delivery cleaner). Per-bucket
  lexsort over (user, type, ts, event_id) + one vectorized gap test;
  survivors keep their full identity. Tie order (ts, then event_id)
  matches the twin's window ORDER BY exactly, so duplicates at the
  same microsecond resolve identically.

Scale contract: pruned reads, the only all-to-all moves are the two
keyed exchanges (user / user-type buckets via hash partition ids);
per-bucket kernels are single lexsort + segmented numpy passes, no
per-group Python. Reference semantics: the reference's webhook
de-bounce and per-route latency accounting (pkg/modules/api/) are the
WHAT; the bucketed segmented kernels are the Ray-native HOW.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.frames import ensure_columns
from ..io import read_table
from .joins import bucket_fold
from .relational import JOIN_PARTITIONS

BURST_WINDOW_US = 300 * 1_000_000  # 5 minutes


def _v_e2(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    return pc.cast(
        pc.round(pc.multiply(col, 100.0), round_mode="half_towards_infinity"),
        pa.int64(),
    )


# --------------------------------------------------------------- TWAP


def user_value_twap(sf_dir: str) -> pd.DataFrame:
    """Per-user time-weighted average of ``value`` (x100, floor), the
    LEAD-gap weighting; users with a single event or a zero time span
    are excluded (no duration to weight)."""

    def local(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_id": batch["event_id"],
                "v_e2": _v_e2(batch["value"]),
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table | None:
        u = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        v = part["v_e2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u_s, ts_s, v_s = u[order], ts[order], v[order]
        starts = np.flatnonzero(np.r_[True, u_s[1:] != u_s[:-1]])
        counts = np.diff(np.r_[starts, len(u_s)])
        ends = np.r_[starts[1:], len(u_s)] - 1
        # single-event and zero-span users (every event at one
        # microsecond) have no weightable duration — excluded, like the
        # twin's span gate
        ok = (counts >= 2) & (ts_s[ends] > ts_s[starts])
        if not ok.any():
            return None
        # per-row duration = gap to the next row; the gap AT a segment
        # end is a seam to the next user — zero both it and its weight
        dur = np.r_[np.diff(ts_s), np.int64(0)]
        dur[ends] = 0
        wsum = np.add.reduceat(v_s * dur, starts)[ok]
        dsum = np.add.reduceat(dur, starts)[ok]
        return pa.table(
            {
                "user_id": pa.array(u_s[starts[ok]]),
                "n_events": pa.array(counts[ok].astype(np.int64)),
                "span_us": pa.array(
                    (ts_s[ends[ok]] - ts_s[starts[ok]]).astype(np.int64)
                ),
                "twap_e2": pa.array((wsum // dsum).astype(np.int64)),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n_events", "span_us", "twap_e2")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_id", "value"]),
        "user_id", local, per_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


TWAP_SQL = """
WITH e AS (
  SELECT user_id, epoch_us(ts)::BIGINT AS ts_us,
         CAST(round(value * 100) AS BIGINT) AS v_e2,
         lead(epoch_us(ts)::BIGINT) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS next_us
  FROM events),
w AS (
  SELECT user_id,
         count(*)::BIGINT AS n_events,
         (max(ts_us) - min(ts_us))::BIGINT AS span_us,
         sum(v_e2 * (next_us - ts_us))::BIGINT AS wsum,
         sum(next_us - ts_us)::BIGINT AS dsum
  FROM e GROUP BY user_id
  HAVING count(*) >= 2 AND max(ts_us) > min(ts_us))
SELECT user_id, n_events, span_us,
       CAST(wsum // dsum AS BIGINT) AS twap_e2
FROM w ORDER BY user_id
"""


# ------------------------------------------------ running total window


def priority_running_revenue(sf_dir: str) -> pd.DataFrame:
    """Cumulative revenue per priority across its order years —
    ``SUM() OVER (PARTITION BY priority ORDER BY year)`` on the
    category-bounded grid produced by one distributed fold."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "order_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
                "cents": _v_e2(batch["o_totalprice"]),
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
    df["running_revenue_e2"] = (
        df.groupby("o_orderpriority")["revenue_e2"].cumsum().astype("int64")
    )
    df["revenue_e2"] = df["revenue_e2"].astype("int64")
    df["order_year"] = df["order_year"].astype("int64")
    return df


RUNNING_SQL = """
WITH y AS (
  SELECT o_orderpriority,
         EXTRACT(year FROM o_orderdate)::BIGINT AS order_year,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_e2
  FROM orders GROUP BY 1, 2)
SELECT o_orderpriority, order_year, revenue_e2,
       sum(revenue_e2) OVER (PARTITION BY o_orderpriority
                             ORDER BY order_year)::BIGINT
         AS running_revenue_e2
FROM y ORDER BY o_orderpriority, order_year
"""


# ------------------------------------------------------ burst dedup


def events_dedup_burst(sf_dir: str) -> pd.DataFrame:
    """Keep an event only if the same (user, type) did NOT fire within
    the preceding 300 s (LAG-gap filter). Survivors keep their full
    identity; tie order within a microsecond is event_id ASC."""

    def local(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_id": batch["event_id"],
            }
        )

    def per_bucket(part: pa.Table) -> pa.Table:
        u = part["user_id"].to_numpy(zero_copy_only=False)
        ty = part["event_type"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        # dictionary-encode the type strings once for the lexsort
        tcode = pd.factorize(ty, sort=True)[0]
        order = np.lexsort((eid, ts, tcode, u))
        u_s, t_s, ts_s, e_s = u[order], tcode[order], ts[order], eid[order]
        new_key = np.r_[True, (u_s[1:] != u_s[:-1]) | (t_s[1:] != t_s[:-1])]
        gap = np.r_[np.int64(0), np.diff(ts_s)]
        keep = new_key | (gap > BURST_WINDOW_US)
        return pa.table(
            {
                "event_id": pa.array(e_s[keep]),
                "user_id": pa.array(u_s[keep]),
                "event_type": pa.array(ty[order][keep]),
            }
        )

    schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()), ("event_type", pa.string())]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"]),
        "user_id", local, per_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("event_id").reset_index(drop=True)


BURST_SQL = """
WITH g AS (
  SELECT event_id, user_id, event_type,
         epoch_us(ts)::BIGINT
           - lag(epoch_us(ts)::BIGINT) OVER
               (PARTITION BY user_id, event_type
                ORDER BY ts, event_id) AS gap_us
  FROM events)
SELECT event_id, user_id, event_type
FROM g WHERE gap_us IS NULL OR gap_us > 300000000
ORDER BY event_id
"""


# ----------------------------------------- global session concurrency

SESSION_GAP_US = 1800 * 1_000_000  # same session gap as events_sessionize
DAY_US = 86_400 * 1_000_000
_DAY_SHIFT = 38  # in-day offsets < 2^37 us — composite (day << 38 | off) fits int64


def session_concurrency(sf_dir: str) -> pd.DataFrame:
    """For every session (a user's ≤30-min-gap event run, active until
    last_ts + 30 min): how many OTHER sessions — any user — were open
    at the same time; reported as the exact histogram
    (n_overlap → n_sessions).

    The identity ``overlap_i = |{starts ≤ end_i}| − |{ends < start_i}|
    − 1`` turns the interval self-join into two GLOBAL RANK lookups,
    computed distributed in three keyed exchanges, none of which
    carries more than a handful of ints per session:

    1. user-keyed sessionize (the events_sessionize bucket kernel,
       emitting (user, seq, start_us, end_us) interval rows);
    2. day-keyed rank exchange: each session posts its boundary POINTS
       (start, end) and its two rank QUERIES to the day they fall in;
       each day-bucket answers queries with one composite
       ``searchsorted`` (day ≪ 38 | in-day offset), plus the global
       day-prefix offsets the driver folded from a (day, starts, ends)
       histogram (calendar-bounded, shipped in the task closure);
    3. session-keyed sum of the two signed rank contributions, folded
       straight into the per-batch histogram partials.

    The full interval set is never co-located and no pair is ever
    enumerated — the twin's IEJoin materializes ~2M matches at sf0.1;
    this plan moves O(sessions) rows."""

    def sessionize_bucket(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        users = t["user_id"].to_numpy(zero_copy_only=False)
        n = len(users)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        new_user = np.r_[True, users[1:] != users[:-1]]
        starts = new_user | np.r_[True, (ts_us[1:] - ts_us[:-1]) > SESSION_GAP_US]
        b = np.flatnonzero(starts)
        ends_idx = np.r_[b[1:] - 1, n - 1]
        sid = np.cumsum(starts) - 1  # global per-bucket session index
        # per-user seq: session index minus the user's first session index
        # (users arrive sorted, so first-occurrence order == np.unique order)
        user_first_sid = sid[np.flatnonzero(new_user)]
        u_of_sess = users[b]
        uniq_u, inv_u = np.unique(u_of_sess, return_inverse=True)
        seq = sid[b] - user_first_sid[inv_u]
        return pa.table(
            {
                "user_id": pa.array(u_of_sess.astype(np.int64)),
                "seq": pa.array(seq.astype(np.int64)),
                "start_us": pa.array(ts_us[b].astype(np.int64)),
                "end_us": pa.array((ts_us[ends_idx] + SESSION_GAP_US).astype(np.int64)),
            }
        )

    sessions = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_id"]),
        "user_id", None, sessionize_bucket,
        pa.schema([(c, pa.int64()) for c in ("user_id", "seq", "start_us", "end_us")]),
        JOIN_PARTITIONS,
    ).materialize()

    # ---- day histogram → global prefix offsets (calendar-bounded)
    def day_hist(batch: pa.Table) -> pa.Table:
        s_day = batch["start_us"].to_numpy(zero_copy_only=False) // DAY_US
        e_day = batch["end_us"].to_numpy(zero_copy_only=False) // DAY_US
        days = np.union1d(s_day, e_day)
        return pa.table(
            {
                "day": pa.array(days.astype(np.int64)),
                "s_cnt": pa.array(
                    np.searchsorted(np.sort(s_day), days, "right")
                    - np.searchsorted(np.sort(s_day), days, "left")
                ),
                "e_cnt": pa.array(
                    np.searchsorted(np.sort(e_day), days, "right")
                    - np.searchsorted(np.sort(e_day), days, "left")
                ),
            }
        )

    from ray.data.aggregate import Sum as _Sum

    hist = (
        sessions.map_batches(day_hist, batch_format="pyarrow")
        .groupby("day")
        .aggregate(_Sum("s_cnt", alias_name="s"), _Sum("e_cnt", alias_name="e"))
        .to_pandas()
    )
    hist = ensure_columns(hist, {"day": "int64", "s": "int64", "e": "int64"})
    if hist.empty:
        return pd.DataFrame(
            {
                "n_overlap": pd.Series([], dtype="int64"),
                "n_sessions": pd.Series([], dtype="int64"),
            }
        )
    hist = hist.sort_values("day").reset_index(drop=True)
    # calendar-bounded arrays shipped in the rank-stage closure; every
    # day in a query row exists in the histogram by construction, so a
    # plain searchsorted gather (no membership test) maps day -> offset
    days_sorted = hist["day"].to_numpy().astype(np.int64)
    starts_excl = np.r_[0, np.cumsum(hist["s"].to_numpy())[:-1]].astype(np.int64)
    ends_excl = np.r_[0, np.cumsum(hist["e"].to_numpy())[:-1]].astype(np.int64)

    # ---- day-keyed rank exchange (points + queries, one table); the
    # bucket key is the day (NOT per-day groups): the composite
    # searchsorted below bounds every lookup to its own day, so a
    # bucket may hold many days and the exchange runs P vectorized
    # kernels, not |calendar| Python invocations
    def emit_rank_rows(batch: pa.Table) -> pa.Table:
        s = batch["start_us"].to_numpy(zero_copy_only=False)
        e = batch["end_us"].to_numpy(zero_copy_only=False)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        q = batch["seq"].to_numpy(zero_copy_only=False)
        n = len(s)
        day = np.concatenate([s // DAY_US, e // DAY_US, e // DAY_US, s // DAY_US])
        val = np.concatenate([s, e, e, s])
        kind = np.repeat(np.array([0, 1, 2, 3], np.int8), n)
        return pa.table(
            {
                "day": pa.array(day.astype(np.int64)),
                "kind": pa.array(kind),
                "val": pa.array(val.astype(np.int64)),
                "user_id": pa.array(np.tile(u, 4).astype(np.int64)),
                "seq": pa.array(np.tile(q, 4).astype(np.int64)),
            }
        )

    def rank_bucket(part: pa.Table) -> pa.Table | None:
        day = part["day"].to_numpy(zero_copy_only=False)
        val = part["val"].to_numpy(zero_copy_only=False)
        kind = part["kind"].to_numpy(zero_copy_only=False)
        comp = (day << _DAY_SHIFT) | (val - day * DAY_US)
        starts_c = np.sort(comp[kind == 0])
        ends_c = np.sort(comp[kind == 1])
        out_u, out_q, out_c = [], [], []
        qe = kind == 2  # query: #starts ≤ end_i (within-day + global prefix)
        if qe.any():
            d = day[qe]
            plus = (
                np.searchsorted(starts_c, comp[qe], "right")
                - np.searchsorted(starts_c, d << _DAY_SHIFT, "left")
                + starts_excl[np.searchsorted(days_sorted, d)]
            )
            out_u.append(part["user_id"].to_numpy(zero_copy_only=False)[qe])
            out_q.append(part["seq"].to_numpy(zero_copy_only=False)[qe])
            out_c.append(plus)
        qs = kind == 3  # query: #ends < start_i
        if qs.any():
            d = day[qs]
            minus = (
                np.searchsorted(ends_c, comp[qs], "left")
                - np.searchsorted(ends_c, d << _DAY_SHIFT, "left")
                + ends_excl[np.searchsorted(days_sorted, d)]
            )
            out_u.append(part["user_id"].to_numpy(zero_copy_only=False)[qs])
            out_q.append(part["seq"].to_numpy(zero_copy_only=False)[qs])
            out_c.append(-minus)
        if not out_u:
            return None
        return pa.table(
            {
                "user_id": pa.array(np.concatenate(out_u).astype(np.int64)),
                "seq": pa.array(np.concatenate(out_q).astype(np.int64)),
                "contrib": pa.array(np.concatenate(out_c).astype(np.int64)),
            }
        )

    def sum_and_hist(part: pa.Table) -> pa.Table:
        """Per user-bucket: pair each session's two signed rank
        contributions (one lexsort + reduceat), fold straight into the
        bucket's (n_overlap → count) histogram partial."""
        u = part["user_id"].to_numpy(zero_copy_only=False)
        q = part["seq"].to_numpy(zero_copy_only=False)
        c = part["contrib"].to_numpy(zero_copy_only=False)
        order = np.lexsort((q, u))
        u_s, q_s, c_s = u[order], q[order], c[order]
        starts = np.flatnonzero(
            np.r_[True, (u_s[1:] != u_s[:-1]) | (q_s[1:] != q_s[:-1])]
        )
        ov = np.add.reduceat(c_s, starts) - 1
        uniq, cnt = np.unique(ov, return_counts=True)
        return pa.table(
            {
                "n_overlap": pa.array(uniq.astype(np.int64)),
                "n_sessions": pa.array(cnt.astype(np.int64)),
            }
        )

    ranks = bucket_fold(
        sessions, "day", emit_rank_rows, rank_bucket,
        pa.schema([(c, pa.int64()) for c in ("user_id", "seq", "contrib")]),
        JOIN_PARTITIONS,
    )
    # both of a session's contributions share its user_id, so a
    # user-keyed bucket co-locates the pair for the sum
    schema = pa.schema([("n_overlap", pa.int64()), ("n_sessions", pa.int64())])
    df = (
        bucket_fold(ranks, "user_id", None, sum_and_hist, schema, JOIN_PARTITIONS)
        .groupby("n_overlap")
        .aggregate(_Sum("n_sessions", alias_name="n_sessions"))
        .to_pandas()
    )
    df = ensure_columns(df, schema)
    for c in ("n_overlap", "n_sessions"):
        df[c] = df[c].astype("int64")
    return df.sort_values("n_overlap").reset_index(drop=True)


SESSION_CONCURRENCY_SQL = """
WITH tagged AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
              THEN 1 ELSE 0 END AS ns
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
numbered AS (
  SELECT user_id, t, sum(ns) OVER (PARTITION BY user_id ORDER BY t, event_id
        ROWS UNBOUNDED PRECEDING) AS sid
  FROM tagged),
sess AS (
  SELECT user_id, sid, min(t) AS start_us, max(t) + 1800000000 AS end_us
  FROM numbered GROUP BY 1, 2),
cnt AS (
  SELECT a.user_id, a.sid,
         (SELECT count(*) FROM sess b
          WHERE b.start_us <= a.end_us AND b.end_us >= a.start_us) - 1
           AS n_overlap
  FROM sess a)
SELECT n_overlap::BIGINT AS n_overlap, count(*)::BIGINT AS n_sessions
FROM cnt GROUP BY 1 ORDER BY 1
"""
