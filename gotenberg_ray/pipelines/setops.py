"""Distributed set operations and the MODE aggregate — two standard
relational capabilities Ray Data has no native operator for.

- ``customer_set_ops``: INTERSECT / EXCEPT / UNION between two
  derived key sets (customers with URGENT orders vs customers with
  HIGH orders) in ONE pass: each side emits (key, side-bit) pairs,
  one groupby ORs the bits, and the driver folds four set
  cardinalities from a 3-row classification — the exchange carries
  distinct keys once, not once per set operation.

- ``user_mode_event``: the MODE (most frequent value) aggregate per
  group, with a deterministic lexicographic tie-break — per-batch
  (user, type) partial counts → one keyed groupby → per-bucket
  segment argmax (no per-user Python).
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

SIDE_A_PRIORITY = "1-URGENT"
SIDE_B_PRIORITY = "2-HIGH"
MODE_P = 16  # user-hash buckets for the mode fold


def customer_set_ops(sf_dir: str) -> pd.DataFrame:
    """Cardinalities of A∩B, A∖B, B∖A, A∪B where A = customers with
    an URGENT order and B = customers with a HIGH order."""

    P = 16

    def tag(batch: pa.Table) -> pa.Table | None:
        """Batch-local (key, bit) dedup in numpy before key routing —
        one row per batch-distinct (customer, side) pair enters the
        single exchange (round-5 rewrite: the former plan paid two
        multi-key sort exchanges over the pair stream)."""
        pr = batch["o_orderpriority"]
        keep = pc.or_(
            pc.equal(pr, SIDE_A_PRIORITY), pc.equal(pr, SIDE_B_PRIORITY)
        )
        batch = batch.filter(keep)
        bits = np.where(
            pc.equal(batch["o_orderpriority"], SIDE_A_PRIORITY).to_numpy(
                zero_copy_only=False
            ),
            np.int64(1),
            np.int64(2),
        )
        keys = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:  # batch filtered to nothing (no A/B rows)
            return None
        order = np.lexsort((bits, keys))
        k, b = keys[order], bits[order]
        first = np.r_[True, (k[1:] != k[:-1]) | (b[1:] != b[:-1])]
        k, b = k[first], b[first]
        return pa.table({"o_custkey": pa.array(k), "bits": pa.array(b)})

    def bucket_classify(g: pa.Table) -> pa.Table:
        """A key's rows all land in its bucket, so the OR-fold and the
        3-way classification are exact locally: dedup (key, bit) runs,
        sum distinct bits per key (≡ OR for bits ∈ {1,2}), count."""
        keys = g["o_custkey"].to_numpy(zero_copy_only=False)
        bits = g["bits"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bits, keys))
        k, b = keys[order], bits[order]
        first = np.r_[True, (k[1:] != k[:-1]) | (b[1:] != b[:-1])]
        k, b = k[first], b[first]
        key_starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        orbits = np.add.reduceat(b, key_starts)
        return pa.table(
            {
                "only_a": pa.array([int((orbits == 1).sum())], pa.int64()),
                "only_b": pa.array([int((orbits == 2).sum())], pa.int64()),
                "both": pa.array([int((orbits == 3).sum())], pa.int64()),
            }
        )

    row = (
        bucket_fold(
            read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
            "o_custkey", tag, bucket_classify,
            pa.schema([(c, pa.int64()) for c in ("only_a", "only_b", "both")]),
            P,
        )
        .aggregate(Sum("only_a"), Sum("only_b"), Sum("both"))
    )
    only_a = int(row["sum(only_a)"] or 0) if row else 0
    only_b = int(row["sum(only_b)"] or 0) if row else 0
    both = int(row["sum(both)"] or 0) if row else 0
    return pd.DataFrame(
        {
            "op": ["except_a", "except_b", "intersect", "union"],
            "n_customers": [only_a, only_b, both, only_a + only_b + both],
        }
    ).astype({"op": "object", "n_customers": "int64"})


SET_OPS_SQL = f"""
WITH a AS (SELECT DISTINCT o_custkey FROM orders
           WHERE o_orderpriority = '{SIDE_A_PRIORITY}'),
b AS (SELECT DISTINCT o_custkey FROM orders
      WHERE o_orderpriority = '{SIDE_B_PRIORITY}')
SELECT 'except_a' AS op,
       (SELECT count(*) FROM (SELECT o_custkey FROM a EXCEPT
                              SELECT o_custkey FROM b))::BIGINT AS n_customers
UNION ALL
SELECT 'except_b',
       (SELECT count(*) FROM (SELECT o_custkey FROM b EXCEPT
                              SELECT o_custkey FROM a))::BIGINT
UNION ALL
SELECT 'intersect',
       (SELECT count(*) FROM (SELECT o_custkey FROM a INTERSECT
                              SELECT o_custkey FROM b))::BIGINT
UNION ALL
SELECT 'union',
       (SELECT count(*) FROM (SELECT o_custkey FROM a UNION
                              SELECT o_custkey FROM b))::BIGINT
ORDER BY op
"""


def user_mode_event(sf_dir: str) -> pd.DataFrame:
    """MODE(event_type) per user: most frequent type, ties broken by
    the lexicographically smallest type — deterministic on both
    engines."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"user_id": batch["user_id"], "event_type": batch["event_type"]}
        )
        g = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "c"])

    def bucket_mode(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        # fold cross-block partials, then per-user argmax
        df = df.groupby(["user_id", "event_type"], as_index=False)["c"].sum()
        df = df.sort_values(
            ["user_id", "c", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = df.groupby("user_id", as_index=False).first()
        return pa.Table.from_pandas(
            top.rename(columns={"event_type": "mode_type", "c": "n"}),
            preserve_index=False,
        )

    schema = pa.schema(
        [("user_id", pa.int64()), ("mode_type", pa.string()), ("n", pa.int64())]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "event_type"]),
        "user_id", partial, bucket_mode, schema, MODE_P, pinned=False,
    ).to_pandas()
    return (
        ensure_columns(df, schema)
        .sort_values("user_id")
        .reset_index(drop=True)
    )


USER_MODE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type),
ranked AS (
  SELECT user_id, event_type AS mode_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type) AS rn
  FROM c)
SELECT user_id, mode_type, CAST(n AS BIGINT) AS n
FROM ranked WHERE rn = 1 ORDER BY user_id
"""
