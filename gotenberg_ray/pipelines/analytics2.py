"""Windowed rank, pivot, and rollup operators — the remaining
SQL-analytics shapes (ROW_NUMBER partitions, conditional-aggregation
pivot, GROUPING SETS rollup) expressed Ray-Data-first.

Scale notes:
- the rank query prunes per batch BEFORE the shuffle (a batch's
  non-top-k rows per key can never be global top-k), so the
  ``groupby(key)`` moves ≤ k·keys·blocks rows, not the orders table;
- the pivot is a plain partial-agg → groupby combine with the pivot
  columns materialized per batch (no post-shuffle pivot pass needed);
- the rollup computes the finest grouping distributed, then derives
  the coarser levels from the (groups-sized, small by definition)
  finest result — subtotals never re-scan the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Sum

from ..functions.frames import ensure_columns
from ..io import read_table
from .joins import bucket_fold


def top_orders_per_customer(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """ROW_NUMBER() OVER (PARTITION BY customer ORDER BY price DESC):
    each customer's top-k orders by total price (cents-exact).

    The key domain is large (one group per customer), so a per-key
    ``map_groups`` would pay per-group overhead |customers| times;
    instead each partial carries ``pid = mix64(custkey) % P`` and ONE
    P-group shuffle co-locates every customer's rows, where the whole
    bucket ranks in a single vectorized segment pass (the
    ``top_parts_by_revenue`` pattern)."""
    from .relational import JOIN_PARTITIONS

    def local_prune(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64())
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "o_orderkey": batch["o_orderkey"],
                "price_e2": cents,
            }
        ).sort_by(
            [
                ("o_custkey", "ascending"),
                ("price_e2", "descending"),
                ("o_orderkey", "ascending"),
            ]
        )
        keys = t["o_custkey"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], len(keys)]
        keep = np.concatenate(
            [np.arange(s, min(s + k, e)) for s, e in zip(starts, ends)]
        )
        return t.take(pa.array(keep))

    def rank_bucket(part: pa.Table) -> pa.Table:
        from ..functions.segments import segment_ranks

        t = part.sort_by(
            [
                ("o_custkey", "ascending"),
                ("price_e2", "descending"),
                ("o_orderkey", "ascending"),
            ]
        )
        rn = segment_ranks(t["o_custkey"].to_numpy(zero_copy_only=False))
        t = t.append_column("rn", pa.array(rn))
        return t.filter(pa.array(rn <= k))

    schema = pa.schema(
        [(c, pa.int64()) for c in ("o_custkey", "o_orderkey", "price_e2", "rn")]
    )
    df = bucket_fold(
        read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"]),
        "o_custkey", local_prune, rank_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values(["o_custkey", "rn"]).reset_index(drop=True)


TOP_PER_CUSTOMER_SQL = """
SELECT o_custkey, o_orderkey, price_e2, rn FROM (
  SELECT o_custkey, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_e2,
         CAST(row_number() OVER (
             PARTITION BY o_custkey
             ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey)
           AS BIGINT) AS rn
  FROM orders)
WHERE rn <= 3
ORDER BY o_custkey, rn
"""


def event_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Long→wide pivot: one row per user with per-event-type counts
    and cents-exact purchase value — conditional aggregation pushed
    into the per-batch partial, so the shuffle carries the already
    pivoted (user × 4-column) rows."""

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        val_e2 = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        cols = {
            "user_id": batch["user_id"],
            "n_click": pc.cast(pc.equal(et, "click"), pa.int64()),
            "n_view": pc.cast(pc.equal(et, "view"), pa.int64()),
            "n_purchase": pc.cast(pc.equal(et, "purchase"), pa.int64()),
            "purchase_e2": pc.multiply(
                pc.cast(pc.equal(et, "purchase"), pa.int64()), val_e2
            ),
        }
        return (
            pa.table(cols)
            .group_by("user_id")
            .aggregate(
                [
                    ("n_click", "sum"),
                    ("n_view", "sum"),
                    ("n_purchase", "sum"),
                    ("purchase_e2", "sum"),
                ]
            )
        )

    df = (
        read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("n_click_sum", alias_name="n_click"),
            Sum("n_view_sum", alias_name="n_view"),
            Sum("n_purchase_sum", alias_name="n_purchase"),
            Sum("purchase_e2_sum", alias_name="purchase_e2"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"user_id": "int64", "n_click": "int64", "n_view": "int64",
         "n_purchase": "int64", "purchase_e2": "int64"},
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("user_id").reset_index(drop=True)


EVENT_PIVOT_SQL = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_click,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_view,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'purchase'
                     THEN CAST(round(value * 100) AS BIGINT) ELSE 0 END) AS BIGINT)
           AS purchase_e2
FROM events GROUP BY user_id ORDER BY user_id
"""


def _fine_lang_source(sf_dir: str) -> pd.DataFrame:
    """ONE corpus scan → the finest (lang, source) cells; every
    grouping-set level of rollup AND cube derives from this frame."""

    def partial(batch: pa.Table) -> pa.Table:
        # null lang/source ≡ '' (the engine-wide null-key convention;
        # the twins COALESCE the DATA columns before the grouping sets
        # so a data NULL can never collide with the 'ALL' subtotal
        # marker)
        return (
            pa.table(
                {
                    "lang": pc.fill_null(batch["lang"], ""),
                    "source": pc.fill_null(batch["source"], ""),
                    "n_chars": batch["n_chars"],
                }
            )
            .group_by(["lang", "source"])
            .aggregate([("n_chars", "sum"), ([], "count_all")])
        )

    fine = (
        read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(
            Sum("n_chars_sum", alias_name="total_chars"),
            Sum("count_all", alias_name="n_docs"),
        )
        .to_pandas()
    )
    fine = ensure_columns(
        fine,
        {"lang": "object", "source": "object",
         "total_chars": "int64", "n_docs": "int64"},
    )
    fine["total_chars"] = fine["total_chars"].astype("int64")
    fine["n_docs"] = fine["n_docs"].astype("int64")
    return fine


def _grand_total(fine: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "lang": ["ALL"],
            "source": ["ALL"],
            "total_chars": [fine["total_chars"].sum()],
            "n_docs": [fine["n_docs"].sum()],
        }
    )[fine.columns]


def lang_source_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUPING SETS ((lang, source), (lang), ()) over document counts
    and characters: the finest level runs distributed (partial agg →
    groupby combine); the subtotal/total levels derive from the finest
    result, which is groups-sized (|langs|×|sources|) — the corpus is
    scanned exactly once. 'ALL' marks rolled-up dimensions."""
    fine = _fine_lang_source(sf_dir)
    by_lang = (
        fine.groupby("lang", as_index=False)[["total_chars", "n_docs"]]
        .sum()
        .assign(source="ALL")
    )
    out = pd.concat(
        [fine, by_lang[fine.columns], _grand_total(fine)], ignore_index=True
    )
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


ROLLUP_SQL = """
WITH d AS (SELECT COALESCE(lang, '') AS lang,
                  COALESCE(source, '') AS source, n_chars
           FROM documents)
SELECT coalesce(lang, 'ALL') AS lang,
       coalesce(source, 'ALL') AS source,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       count(*) AS n_docs
FROM d
GROUP BY GROUPING SETS ((lang, source), (lang), ())
ORDER BY lang, source
"""


def lang_source_cube(sf_dir: str) -> pd.DataFrame:
    """Full CUBE(lang, source): all four grouping sets from the same
    single-scan fine cells as the rollup — adding grouping sets costs
    zero extra passes over the data."""
    fine = _fine_lang_source(sf_dir)
    levels = [fine]
    for dims, rolled in ((["lang"], "source"), (["source"], "lang")):
        lv = (
            fine.groupby(dims, as_index=False)[["total_chars", "n_docs"]]
            .sum()
            .assign(**{rolled: "ALL"})
        )
        levels.append(lv[fine.columns])
    levels.append(_grand_total(fine))
    out = pd.concat(levels, ignore_index=True)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_chars"] = out["total_chars"].astype("int64")
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


CUBE_SQL = """
WITH d AS (SELECT COALESCE(lang, '') AS lang,
                  COALESCE(source, '') AS source, n_chars
           FROM documents)
SELECT coalesce(lang, 'ALL') AS lang,
       coalesce(source, 'ALL') AS source,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       count(*) AS n_docs
FROM d
GROUP BY CUBE (lang, source)
ORDER BY lang, source
"""



def events_half_spend(sf_dir: str) -> pd.DataFrame:
    """Cumulative-window query: per user, the timestamp at which the
    running spend (ordered by ts, event_id) first reaches half the
    user's total — exact integer cents. One hash-bucketed shuffle,
    then each bucket resolves ALL its users in a single vectorized
    segment pass: per-segment totals via ``add.reduceat``, and —
    because every event value is > 0, so the running sum is strictly
    increasing — the first qualifying event is ``starts +
    count(2·cum < total)`` per segment, no scan-back needed. (Per-key
    ``map_groups`` would pay per-group overhead |users| times.)
    Timestamps emit as epoch micros (int64) so the pandas ns-vs-us
    dtype gap can't break the oracle hash."""
    from .relational import JOIN_PARTITIONS

    def fold_bucket(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        users = t["user_id"].to_numpy(zero_copy_only=False)
        n = len(users)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        v = np.round(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        totals = np.add.reduceat(v, starts)
        cum = np.cumsum(v)
        base = np.repeat(cum[starts] - v[starts], np.diff(np.r_[starts, n]))
        cum_within = cum - base
        below = 2 * cum_within < np.repeat(totals, np.diff(np.r_[starts, n]))
        first = starts + np.add.reduceat(below, starts)
        # all-True edge: reduceat over a fully-below segment still
        # counts its length, which would index past the segment — the
        # strictly-increasing sum guarantees the last element qualifies
        return pa.table(
            {
                "user_id": pa.array(users[starts].astype(np.int64)),
                "half_ts_us": pa.array(ts_us[first].astype(np.int64)),
            }
        )

    schema = pa.schema([("user_id", pa.int64()), ("half_ts_us", pa.int64())])
    df = bucket_fold(
        read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"]),
        "user_id", None, fold_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


HALF_SPEND_SQL = """
WITH c AS (
  SELECT user_id, ts,
         sum(CAST(round(value * 100) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING) AS cum,
         sum(CAST(round(value * 100) AS BIGINT)) OVER (
             PARTITION BY user_id) AS total
  FROM events)
SELECT user_id, epoch_us(min(ts)) AS half_ts_us
FROM c WHERE 2 * cum >= total
GROUP BY user_id ORDER BY user_id
"""


def event_funnel(sf_dir: str) -> pd.DataFrame:
    """Conversion-funnel analysis: of all users, how many ever viewed,
    how many first-clicked AFTER first viewing, and how many
    first-purchased after that click — the staged user-journey rollup.

    Plan: per-batch partial min-timestamp per (user, stage) → ONE
    bucketed shuffle (``pid = mix64(user)``) → per-bucket vectorized
    pivot + stage evaluation → a 4-int driver sum. Nothing
    user-count-sized leaves the workers un-aggregated."""
    from .relational import JOIN_PARTITIONS

    stages = pa.array(["view", "click", "purchase"], pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["event_type"], value_set=stages))
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "ts": batch["ts"],
            }
        )
        return t.group_by(["user_id", "event_type"]).aggregate([("ts", "min")])

    def fold_bucket(part: pa.Table) -> pa.Table:
        df = part.to_pandas()
        df = df.groupby(["user_id", "event_type"])["ts_min"].min().unstack()
        for c in ("view", "click", "purchase"):
            if c not in df.columns:
                df[c] = pd.NaT
        viewed = df["view"].notna()
        clicked = viewed & (df["click"] > df["view"])
        purchased = clicked & (df["purchase"] > df["click"])
        return pa.table(
            {
                "n_users": [len(df)],
                "n_viewed": [int(viewed.sum())],
                "n_click_after_view": [int(clicked.sum())],
                "n_purchase_funnel": [int(purchased.sum())],
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in
         ("n_users", "n_viewed", "n_click_after_view", "n_purchase_funnel")]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"]),
        "user_id", partial, fold_bucket, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return pd.DataFrame({c: [int(df[c].sum())] for c in schema.names})


FUNNEL_SQL = """
WITH m AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'view' THEN ts END) AS t_view,
         min(CASE WHEN event_type = 'click' THEN ts END) AS t_click,
         min(CASE WHEN event_type = 'purchase' THEN ts END) AS t_purch
  FROM events
  WHERE event_type IN ('view', 'click', 'purchase')
  GROUP BY user_id)
SELECT count(*) AS n_users,
       CAST(sum(CASE WHEN t_view IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_viewed,
       CAST(sum(CASE WHEN t_click > t_view THEN 1 ELSE 0 END) AS BIGINT)
           AS n_click_after_view,
       CAST(sum(CASE WHEN t_click > t_view AND t_purch > t_click
                THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase_funnel
FROM m
"""


def props_key_stats(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: pull the numeric ``k`` field out of
    the JSON ``props`` column and aggregate it per event type — the
    JSON-column pattern of event pipelines. Extraction is a vectorized
    RE2 capture (C kernel; the props schema is fixed ``{"k": N}``),
    aggregation the usual partial → groupby combine, all exact ints.
    The oracle extracts via DuckDB's JSON path instead — two different
    engines, same values."""

    def partial(batch: pa.Table) -> pa.Table:
        caps = pc.extract_regex(
            pc.fill_null(batch["props"], ""), r'"k":\s*(?P<k>-?\d+)'
        )
        k = pc.cast(pc.struct_field(caps, "k"), pa.int64())
        ok = pc.is_valid(k)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "k": pc.fill_null(k, 0),
                "has_k": pc.cast(ok, pa.int64()),
            }
        )
        return t.group_by("event_type").aggregate(
            [("k", "sum"), ("has_k", "sum"), ([], "count_all")]
        )

    df = (
        read_table(sf_dir, "events", columns=["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("k_sum", alias_name="sum_k"),
            Sum("has_k_sum", alias_name="n_with_k"),
            Sum("count_all", alias_name="n_events"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"event_type": "object", "sum_k": "int64",
         "n_with_k": "int64", "n_events": "int64"},
    )
    for c in ("sum_k", "n_with_k", "n_events"):
        df[c] = df[c].astype("int64")
    df["avg_k_e4"] = (df["sum_k"] * 10_000) // df["n_with_k"].clip(lower=1)
    return df.sort_values("event_type").reset_index(drop=True)


PROPS_SQL = """
SELECT event_type,
       CAST(sum(coalesce(CAST(json_extract(props, '$.k') AS BIGINT), 0))
            AS BIGINT) AS sum_k,
       CAST(sum(CASE WHEN json_extract(props, '$.k') IS NOT NULL
                THEN 1 ELSE 0 END) AS BIGINT) AS n_with_k,
       count(*) AS n_events,
       (CAST(sum(coalesce(CAST(json_extract(props, '$.k') AS BIGINT), 0))
             AS BIGINT) * 10000)
           // greatest(CAST(sum(CASE WHEN json_extract(props, '$.k') IS NOT NULL
                        THEN 1 ELSE 0 END) AS BIGINT), 1) AS avg_k_e4
FROM events GROUP BY event_type ORDER BY event_type
"""


def orders_price_page(sf_dir: str, offset: int = 100, k: int = 10) -> pd.DataFrame:
    """Deep pagination over a GLOBAL sort: rows ``offset..offset+k`` of
    all orders by (price desc, orderkey) — the one wide operator the
    suite doesn't otherwise exercise, Ray Data's distributed
    ``Dataset.sort`` (range-partitioned all-to-all), consumed with
    ``limit(offset+k)`` so only the head of the sorted stream
    materializes (streaming backpressure prunes the tail)."""

    def prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64())
        # single descending sort key with orderkey tiebreak folded in:
        # Dataset.sort is ascending — sort by (-price, orderkey)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "price_e2": cents,
                "neg_price": pc.negate_checked(cents),
            }
        )

    df = (
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow")
        .sort(["neg_price", "o_orderkey"])
        .limit(offset + k)
        .to_pandas()
    )
    df = ensure_columns(
        df, {"o_orderkey": "int64", "price_e2": "int64", "neg_price": "int64"}
    )
    df = (
        df.iloc[offset : offset + k]
        .drop(columns=["neg_price"])
        .reset_index(drop=True)
    )
    df["rn"] = np.arange(offset + 1, offset + 1 + len(df), dtype=np.int64)
    df["o_orderkey"] = df["o_orderkey"].astype("int64")
    df["price_e2"] = df["price_e2"].astype("int64")
    return df


PRICE_PAGE_SQL = """
SELECT o_orderkey, price_e2, rn FROM (
  SELECT o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_e2,
         CAST(row_number() OVER (
             ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC,
                      o_orderkey) AS BIGINT) AS rn
  FROM orders)
WHERE rn > 100 AND rn <= 110
ORDER BY rn
"""
