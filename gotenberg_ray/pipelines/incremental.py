"""Incremental-ingestion dedup: filter a NEW batch of documents
against an EXISTING corpus — the daily-increment shape of a production
crawl (yesterday's corpus is on disk; today's fetch must not re-admit
content it already has).

Scale plan (nothing corpus-sized is ever collected or broadcast raw):

1. content-hash both sides per batch (the shared fnv64 stage);
2. a distributed mergeable BLOOM of the existing corpus's hashes
   (m/8 bytes per block to the driver — ``joins.build_key_bloom``)
   broadcast-gates the incoming batch: definite-new rows (bloom
   negative = guaranteed absent) skip everything downstream;
3. the surviving candidates (true dups + bloom false positives) are
   few, so a SECOND bloom — of the candidate hashes — prunes the
   existing corpus to just the rows that could match;
4. a bucketed ``hash_join`` on the hash verifies candidates against
   the pruned existing side WITH full-text equality (hash collisions
   cannot smuggle a false drop), left-outer so unverified candidates
   (false positives) are kept.

The demo's incoming batch = the upper half of the documents table
plus deterministic "re-crawled" copies of the first quarter (same
text, shifted ids) — constructed identically in the SQL oracle, which
checks the verdict per incoming row end-to-end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv64
from ..functions.frames import ensure_columns
from ..io import read_table
from .joins import bucket_fold
from ..state.bloom import BloomFilter  # module-level: workers resolve
# UDF globals via the pickled-by-value package, not sys.path


def _with_hash(batch: pa.Table) -> pa.Table:
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    h = fnv64(texts)  # Arrow array → zero-copy buffer path
    return batch.append_column("h", pa.array(h.view(np.int64)))


def dedup_incremental(sf_dir: str) -> pd.DataFrame:
    """Per incoming doc: ``kept`` = 1 iff its text is NOT in the
    existing corpus. Returns (doc_id, kept) for every incoming row."""
    import ray

    from .joins import build_key_bloom, hash_join
    from .relational import JOIN_PARTITIONS

    # footer row count — a Dataset .count() here would execute a whole
    # extra read pass before the pinned scan below even starts
    from ..io import table_rows

    n_total = table_rows(sf_dir, "documents")
    half, quarter = n_total // 2, n_total // 4

    def old_side(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["doc_id"], half))

    def incoming_side(batch: pa.Table) -> pa.Table:
        # the replay rows keep their hash (same text) — only doc_id
        # shifts, so ONE shared hash pass serves both sides
        fresh = batch.filter(pc.greater_equal(batch["doc_id"], half))
        replay = batch.filter(pc.less(batch["doc_id"], quarter))
        replay = replay.set_column(
            replay.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(replay["doc_id"], pa.scalar(n_total, pa.int64())),
        )
        return pa.concat_tables([fresh, replay])

    # ONE corpus scan + ONE fnv64 pass, pinned; both sides are cheap
    # filters over the hashed blocks (r2 ran the read+hash twice and
    # made two separate bloom-gated passes over the incoming side)
    base = (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(_with_hash, batch_format="pyarrow")
        .materialize()
    )
    old = base.map_batches(old_side, batch_format="pyarrow")
    incoming = base.map_batches(incoming_side, batch_format="pyarrow")

    # 2. existing-corpus bloom gates the incoming batch
    old_bloom = build_key_bloom(
        old.select_columns(["h"]), "h", capacity=max(1024, half * 2)
    )
    old_ref = ray.put(old_bloom.as_state())

    class FlagCandidates:
        # task pool: the probe-only bloom ships as as_state() — the
        # bit array maps zero-copy from plasma per task (~µs), so no
        # actor-pool spin-up is needed to amortize a deserialize
        def __init__(self):
            self.bf = BloomFilter.from_state(ray.get(old_ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            hit = self.bf.contains(
                batch["h"].to_numpy(zero_copy_only=False).view(np.uint64)
            )
            return batch.append_column("_maybe_dup", pa.array(hit))

    from .embedops import _task_stage

    # one bloom-gated pass; the split into definite-new vs candidates
    # is then two trivial filters over the pinned flagged blocks
    flagged = incoming.map_batches(
        _task_stage(FlagCandidates), batch_format="pyarrow"
    ).materialize()
    definite_new = flagged.map_batches(
        lambda b: b.filter(pc.invert(b["_maybe_dup"])).drop_columns(["_maybe_dup"]),
        batch_format="pyarrow",
    )
    candidates = flagged.map_batches(
        lambda b: b.filter(b["_maybe_dup"]).drop_columns(["_maybe_dup"]),
        batch_format="pyarrow",
    ).materialize()

    # 3. symmetric prune: a bloom of the CANDIDATE hashes shrinks the
    # existing side to just the rows that could match, so the verify
    # exchange moves O(candidates) text rows, not O(old corpus)
    cand_bloom = build_key_bloom(
        candidates.select_columns(["h"]), "h", capacity=max(1024, half)
    )
    cand_ref = ray.put(cand_bloom.as_state())

    class PruneOld:
        def __init__(self):
            self.bf = BloomFilter.from_state(ray.get(cand_ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            hit = self.bf.contains(
                batch["h"].to_numpy(zero_copy_only=False).view(np.uint64)
            )
            return batch.filter(pa.array(hit))

    old_matches = old.map_batches(
        _task_stage(PruneOld), batch_format="pyarrow"
    )

    # 4. verified text-equal join against the pruned existing side
    verified = hash_join(
        candidates.map_batches(
            lambda b: b.rename_columns(
                ["new_id" if c == "doc_id" else "new_text" if c == "text" else c
                 for c in b.column_names]
            ),
            batch_format="pyarrow",
        ),
        old_matches.map_batches(
            lambda b: b.select(["h", "text"]).rename_columns(["h", "old_text"]),
            batch_format="pyarrow",
        ),
        on="h",
        num_partitions=JOIN_PARTITIONS,
        join_type="left outer",
        bloom_prune_left=False,
        left_schema=[("new_id", pa.int64()), ("new_text", pa.string()),
                     ("h", pa.int64())],
        right_schema=[("h", pa.int64()), ("old_text", pa.string())],
    )

    def verdict(batch: pa.Table) -> pa.Table:
        dup = pc.and_kleene(
            pc.is_valid(batch["old_text"]),
            pc.equal(batch["new_text"], batch["old_text"]),
        )
        dup = pc.fill_null(dup, False)
        t = pa.table(
            {
                "doc_id": batch["new_id"],
                "kept": pc.cast(pc.invert(dup), pa.int64()),
            }
        )
        # a candidate may match several old rows post-join; any
        # text-equal match ⇒ dropped
        return t.group_by("doc_id").aggregate([("kept", "min")])

    cand_flags = (
        verified.map_batches(verdict, batch_format="pyarrow")
        .groupby("doc_id")
        .min("kept_min")
        .to_pandas()
        .rename(columns={"min(kept_min)": "kept"})
    )
    cand_flags = ensure_columns(cand_flags, {"doc_id": "int64", "kept": "int64"})
    new_flags = (
        definite_new.map_batches(
            lambda b: pa.table(
                {"doc_id": b["doc_id"],
                 "kept": pa.array(np.ones(b.num_rows, dtype=np.int64))}
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    new_flags = ensure_columns(new_flags, {"doc_id": "int64", "kept": "int64"})
    out = pd.concat([cand_flags, new_flags], ignore_index=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["kept"] = out["kept"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


DEDUP_INCREMENTAL_SQL = """
WITH tot AS (SELECT count(*) AS n FROM documents),
old AS (SELECT text FROM documents, tot WHERE doc_id < n // 2),
inc AS (
  SELECT doc_id, text FROM documents, tot WHERE doc_id >= n // 2
  UNION ALL
  SELECT doc_id + n, text FROM documents, tot WHERE doc_id < n // 4)
SELECT i.doc_id,
       CAST(CASE WHEN EXISTS (SELECT 1 FROM old o WHERE o.text = i.text)
            THEN 0 ELSE 1 END AS BIGINT) AS kept
FROM inc i
ORDER BY i.doc_id
"""


# ------------------------------ incremental aggregate maintenance (MV)


def events_daily_incremental(sf_dir: str, split_mod: int = 10, new_from: int = 8) -> pd.DataFrame:
    """Materialized-view maintenance: refresh a per-(day, event_type)
    count/spend aggregate with a NEW batch of events WITHOUT rescanning
    history — the nightly-ETL shape (yesterday's aggregate is on disk;
    only today's increment is read and folded in).

    The demo's split is deterministic: events with
    ``event_id % split_mod < new_from`` are the "already ingested"
    history whose aggregate a production run would simply
    ``read_table`` from the previous refresh; the rest are the new
    batch. Because count/sum aggregates are associative, the refresh
    is: aggregate ONLY the new slice (partial per batch, one small
    groupby) and fold it into the stored aggregate with a second
    small groupby over (day, type) — the exchange is aggregate-sized
    on both sides, never history-event-sized. Non-mergeable metrics
    (exact distinct) would instead ride the HLL/MG sketches, which
    merge the same way. The DuckDB twin recomputes the aggregate over
    ALL events, so the check proves increment + merge ≡ full refresh
    down to exact integer cents."""
    from ray.data.aggregate import Sum
    from .relational import _rename

    def agg_slice(want_new: bool):
        def partial(b: pa.Table) -> pa.Table:
            # event_id % split_mod < new_from selects the HISTORY slice
            is_history = pc.less(
                pc.subtract(
                    b["event_id"],
                    pc.multiply(
                        pc.divide(b["event_id"], pa.scalar(split_mod, pa.int64())),
                        pa.scalar(split_mod, pa.int64()),
                    ),
                ),
                pa.scalar(new_from, pa.int64()),
            )
            b = b.filter(pc.invert(is_history) if want_new else is_history)
            t = pa.table(
                {
                    "day": pc.strftime(b["ts"], format="%Y-%m-%d"),
                    "event_type": b["event_type"],
                    "n_events": pa.array(np.ones(b.num_rows, np.int64)),
                    "spend_cents": pc.cast(
                        pc.round(pc.multiply(b["value"], 100.0)), pa.int64()
                    ),
                }
            )
            return _rename(
                t.group_by(["day", "event_type"]).aggregate(
                    [("n_events", "sum"), ("spend_cents", "sum")]
                ),
                {"n_events_sum": "n_events", "spend_cents_sum": "spend_cents"},
            )

        return partial

    ev = read_table(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    # "stored" aggregate (a production refresh reads this from disk)
    stored = ev.map_batches(agg_slice(False), batch_format="pyarrow")
    # the increment: only the new slice is aggregated
    increment = ev.map_batches(agg_slice(True), batch_format="pyarrow")

    df = (
        stored.union(increment)
        .groupby(["day", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("spend_cents", alias_name="spend_cents"),
        )
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {
                "day": pd.Series([], dtype="object"),
                "event_type": pd.Series([], dtype="object"),
                "n_events": pd.Series([], dtype="int64"),
                "spend_cents": pd.Series([], dtype="int64"),
            }
        )
    df["n_events"] = df["n_events"].astype("int64")
    df["spend_cents"] = df["spend_cents"].astype("int64")
    return (
        df[["day", "event_type", "n_events", "spend_cents"]]
        .sort_values(["day", "event_type"])
        .reset_index(drop=True)
    )


EVENTS_DAILY_INCREMENTAL_SQL = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS spend_cents
FROM events
GROUP BY day, event_type
ORDER BY day, event_type
"""


# ----------------------------------------------------------- CDC upsert

UPSERT_MOD = 7  # orders with o_orderkey % UPSERT_MOD == UPSERT_REM update
UPSERT_REM = 3
UPSERT_P = 16  # merge buckets


def orders_upsert(sf_dir: str) -> pd.DataFrame:
    """MERGE INTO / CDC upsert: apply a change batch to a stored table
    with latest-version-wins semantics — the mutation operator every
    warehouse-style pipeline needs (Delta/Iceberg MERGE, SCD type 1).

    The change batch is deterministic so the DuckDB twin can rebuild
    it: every order with ``o_orderkey % 7 == 3`` is re-ingested with
    status 'X' (a cancellation feed) and a 10% price adjustment,
    version 2 against the base's version 1.

    Distributed shape: base ∪ changes stream as one dataset; rows
    route by ``key % P`` (ONE keyed exchange); inside each bucket a
    lexsort + segment-starts pass keeps the max-version row per key
    (no per-key Python); per-batch partial aggregation by status
    follows, so the final groupby folds bucket-sized partials. The
    exchange is O(base + changes) — at 100 TB the change batch is the
    small side and the base would be pre-bucketed on disk
    (io.write_partitioned), turning the merge into a per-bucket
    local pass exactly like this one.

    All money flows as exact integer cents (the 10% bump is
    ``cents·110 // 100`` on both engines), so the aggregate is
    bit-identical under any block layout."""
    from ray.data.aggregate import Sum
    from ..functions.segments import segment_starts
    from .relational import _rename

    def to_versioned(version: int, as_update: bool):
        def fn(batch: pa.Table) -> pa.Table:
            cents = pc.cast(
                pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
            )
            key = batch["o_orderkey"]
            status = batch["o_orderstatus"]
            if as_update:
                rem = pc.subtract(
                    key,
                    pc.multiply(
                        pc.divide(key, pa.scalar(UPSERT_MOD, pa.int64())),
                        pa.scalar(UPSERT_MOD, pa.int64()),
                    ),
                )
                mask = pc.equal(rem, pa.scalar(UPSERT_REM, pa.int64()))
                key = pc.filter(key, mask)
                cents = pc.filter(cents, mask)
                cents = pc.divide(
                    pc.multiply(cents, pa.scalar(110, pa.int64())),
                    pa.scalar(100, pa.int64()),
                )
                status = pa.array(["X"] * len(key), pa.string())
            return pa.table(
                {
                    "k": key,
                    "status": status,
                    "cents": cents,
                    "v": pa.array(np.full(len(key), version, np.int64)),
                }
            )

        return fn

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]
    base = read_table(sf_dir, "orders", cols).map_batches(
        to_versioned(1, False), batch_format="pyarrow"
    )
    changes = read_table(sf_dir, "orders", cols).map_batches(
        to_versioned(2, True), batch_format="pyarrow"
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        k = g["k"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-v, k))  # per key: highest version first
        starts = segment_starts(k[order])
        winners = pa.array(order[starts])
        t = pa.table(
            {
                "status": pc.take(g["status"].combine_chunks(), winners),
                "n_orders": pa.array(np.ones(len(starts), np.int64)),
                "cents": pc.take(g["cents"].combine_chunks(), winners),
            }
        )
        return _rename(
            t.group_by("status").aggregate(
                [("n_orders", "sum"), ("cents", "sum")]
            ),
            {"n_orders_sum": "n_orders", "cents_sum": "total_cents"},
        )

    df = (
        bucket_fold(
            base.union(changes), "k", None, merge_bucket,
            pa.schema(
                [("status", pa.string()), ("n_orders", pa.int64()),
                 ("total_cents", pa.int64())]
            ),
            UPSERT_P, pinned=False,
        )
        .groupby("status")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df, {"status": "object", "n_orders": "int64", "total_cents": "int64"}
    )
    df = df.rename(columns={"status": "o_orderstatus"})
    for c in ("n_orders", "total_cents"):
        df[c] = df[c].astype("int64")
    return (
        df[["o_orderstatus", "n_orders", "total_cents"]]
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )


ORDERS_UPSERT_SQL = f"""
WITH base AS (
  SELECT o_orderkey AS k, o_orderstatus AS status,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents, 1 AS v
  FROM orders),
upd AS (
  SELECT o_orderkey, 'X',
         (CAST(round(o_totalprice * 100) AS BIGINT) * 110) // 100, 2
  FROM orders WHERE o_orderkey % {UPSERT_MOD} = {UPSERT_REM}),
merged AS (
  SELECT k, status, cents,
         row_number() OVER (PARTITION BY k ORDER BY v DESC) AS rn
  FROM (SELECT * FROM base UNION ALL SELECT * FROM upd))
SELECT status AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM merged WHERE rn = 1
GROUP BY status ORDER BY status
"""


# ------------------------------------------------ table-version diff

DIFF_DEL_MOD = 101  # v2 drops keys % 101 == 0 ("deleted")
DIFF_ADD_MOD = 103  # v1 lacks keys % 103 == 0 (so v2 shows "added")
DIFF_UPD_MOD = 97  # v2 bumps price 10% on keys % 97 == 0 ("updated")
_DIFF_P = 16


def orders_table_diff(sf_dir: str) -> pd.DataFrame:
    """Snapshot reconciliation: classify every order key across two
    deterministically derived table versions as added / deleted /
    updated / unchanged — the table-diff / anti-entropy audit that
    complements ``orders_upsert`` (which *applies* changes; this
    *finds* them).

    The versions derive from the same scan so the DuckDB twin can
    rebuild them: v1 omits keys ≡0 (mod 103), v2 omits keys ≡0
    (mod 101) and bumps the price 10% on keys ≡0 (mod 97).

    Distributed shape: ONE pass over orders emits up to two (key,
    side, cents) rows per input row; rows route once by ``key % P``;
    inside each bucket a lexsort + segment fold pairs each key's two
    sides with no per-key Python (≤2 rows per key by construction),
    classifies vectorized, and per-batch partial counts fold through a
    4-row groupby. The exchange is O(rows), driver sees 4 rows."""
    from ..functions.segments import segment_starts

    def emit(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        in_v1 = k % DIFF_ADD_MOD != 0
        in_v2 = k % DIFF_DEL_MOD != 0
        c2 = np.where(k % DIFF_UPD_MOD == 0, cents * 110 // 100, cents)
        ks = np.concatenate([k[in_v1], k[in_v2]])
        side = np.concatenate(
            [np.ones(int(in_v1.sum()), np.int64),
             np.full(int(in_v2.sum()), 2, np.int64)]
        )
        cs = np.concatenate([cents[in_v1], c2[in_v2]])
        return pa.table(
            {
                "k": pa.array(ks),
                "side": pa.array(side),
                "cents": pa.array(cs),
            }
        )

    def classify(part: pa.Table) -> pa.Table:
        k = part["k"].to_numpy(zero_copy_only=False)
        side = part["side"].to_numpy(zero_copy_only=False)
        cents = part["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, k))
        k, side, cents = k[order], side[order], cents[order]
        starts = segment_starts(k)
        n_rows = np.diff(np.append(starts, len(k)))
        # per key: bit-OR of sides; both-sides keys compare cents
        bits = np.zeros(len(starts), np.int64)
        np.add.at(bits, np.repeat(np.arange(len(starts)), n_rows), side)
        # sides are distinct per key (1 and/or 2), so sum == OR code
        first_c = cents[starts]
        last_c = cents[starts + n_rows - 1]
        label = np.where(
            bits == 2, 0,  # v2 only → added
            np.where(bits == 1, 1,  # v1 only → deleted
                     np.where(first_c != last_c, 2, 3)),
        )
        names = np.array(["added", "deleted", "updated", "unchanged"])
        t = pa.table(
            {
                "change_type": pa.array(names[label]),
                "n_orders": pa.array(np.ones(len(label), np.int64)),
            }
        )
        return (
            t.group_by("change_type")
            .aggregate([("n_orders", "sum")])
            .rename_columns(["change_type", "n_orders"])
        )

    from ray.data.aggregate import Sum

    df = (
        bucket_fold(
            read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
            "k", emit, classify,
            pa.schema([("change_type", pa.string()), ("n_orders", pa.int64())]),
            _DIFF_P, pinned=False,
        )
        .groupby("change_type")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    df = ensure_columns(df, {"change_type": "object", "n_orders": "int64"})
    df["n_orders"] = df["n_orders"].astype("int64")
    return df.sort_values("change_type").reset_index(drop=True)


TABLE_DIFF_SQL = f"""
WITH v1 AS (
  SELECT o_orderkey AS k,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders WHERE o_orderkey % {DIFF_ADD_MOD} <> 0),
v2 AS (
  SELECT o_orderkey AS k,
         CASE WHEN o_orderkey % {DIFF_UPD_MOD} = 0
              THEN (CAST(round(o_totalprice * 100) AS BIGINT) * 110) // 100
              ELSE CAST(round(o_totalprice * 100) AS BIGINT) END AS cents
  FROM orders WHERE o_orderkey % {DIFF_DEL_MOD} <> 0)
SELECT CASE WHEN v1.k IS NULL THEN 'added'
            WHEN v2.k IS NULL THEN 'deleted'
            WHEN v1.cents <> v2.cents THEN 'updated'
            ELSE 'unchanged' END AS change_type,
       count(*)::BIGINT AS n_orders
FROM v1 FULL OUTER JOIN v2 ON v1.k = v2.k
GROUP BY 1 ORDER BY 1
"""
