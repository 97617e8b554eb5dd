"""Fifth relational wave (round 4) — three classic shapes the suite
didn't yet exercise, each with an exact DuckDB twin:

- ``customers_all_priorities``: RELATIONAL DIVISION (the "FOR ALL"
  quantifier — customers whose orders span EVERY priority class).
  The divisor universe is itself derived from the data by a tiny
  distinct-fold, broadcast as one scalar; the dividend folds to
  per-(customer, priority) distinct cells before anything shuffles,
  so the exchange carries |customers|·|priorities| rows max, never
  raw orders.

- ``customer_order_span``: FIRST_VALUE/LAST_VALUE (arg_min/arg_max)
  per group in ONE aggregate pass — the payload rides inside the
  order key: pack (days, orderkey) into one int64 (orderkey < 2^33,
  the relational4 packing contract), fold native Min/Max, decode on
  the driver. No join-back, no window sort; the SQL twin packs with
  the same arithmetic so both sides rank identically.

- ``latest_event_per_user``: DISTINCT ON / top-1-per-key with the
  FULL ROW carried (the payload — event_type, value — is too wide to
  pack). Per-batch local argmax prunes to one row per user per batch,
  ONE bucketed keyed exchange (``user_id % P`` — P group tasks, not
  one per user) and a vectorized segment-head pass finishes. Ties
  break (ts DESC, event_id DESC) identically to the window twin.

Scale contract (same as relational.py): pruned reads, per-batch
partial folds before every exchange, exact integer money/time so
hashes are layout-independent.
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

US = 1_000_000
DAY_US = 86_400 * US
_PK_SHIFT = np.int64(1) << np.int64(33)  # orderkey < 2^33 (relational4)


# ------------------------------------------------- relational division


def customers_all_priorities(sf_dir: str) -> pd.DataFrame:
    """Customers whose orders cover EVERY order-priority class present
    in the corpus, with their distinct-class and order counts.

    Shape: a tiny distinct pass derives the divisor universe (≤64
    classes — the bitmask contract; a wider divisor would fall back to
    the pair-groupby plan) and broadcasts a prio→bit mapping; the main
    pass then folds each batch to (custkey, OR-mask, n_orders) so the
    ONE keyed exchange moves three int64s per customer per block and
    the per-bucket finish is a ``bitwise_or.reduceat`` + popcount —
    the priority STRINGS never shuffle at all."""

    def prio_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"prio": batch["o_orderpriority"]}).group_by(
            "prio"
        ).aggregate([])

    uniq = (
        read_table(sf_dir, "orders", ["o_orderpriority"])
        .map_batches(prio_partial, batch_format="pyarrow")
        .unique("prio")
    )
    prios = sorted(uniq or [])  # empty corpus → unique() yields None
    n_univ = len(prios)
    if n_univ == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("c_custkey", "n_prios", "n_orders")}
        )
    if n_univ > 63:  # bitmask contract; see docstring
        raise NotImplementedError("divisor universe exceeds the 63-bit mask")
    univ = pa.array(prios, pa.string())

    def local(batch: pa.Table) -> pa.Table:
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False)
        idx = pc.index_in(
            batch["o_orderpriority"], value_set=univ
        ).to_numpy(zero_copy_only=False)
        bits = np.int64(1) << idx.astype(np.int64)
        order = np.argsort(cust, kind="stable")
        cs, bs = cust[order], bits[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        mask = np.bitwise_or.reduceat(bs, starts)
        n = np.diff(np.r_[starts, len(cs)])
        return pa.table(
            {
                "c_custkey": pa.array(cs[starts]),
                "mask": pa.array(mask),
                "n_orders": pa.array(n.astype(np.int64)),
            }
        )

    def finish(part: pa.Table) -> pa.Table:
        cust = part["c_custkey"].to_numpy(zero_copy_only=False)
        mask = part["mask"].to_numpy(zero_copy_only=False)
        n = part["n_orders"].to_numpy(zero_copy_only=False)
        order = np.argsort(cust, kind="stable")
        cs = cust[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        m = np.bitwise_or.reduceat(mask[order], starts)
        tot = np.add.reduceat(n[order], starts)
        n_prios = np.bitwise_and(
            m[:, None] >> np.arange(64, dtype=np.int64), 1
        ).sum(axis=1)
        keep = n_prios == n_univ
        return pa.table(
            {
                "c_custkey": pa.array(cs[starts][keep]),
                "n_prios": pa.array(n_prios[keep].astype(np.int64)),
                "n_orders": pa.array(tot[keep].astype(np.int64)),
            }
        )

    schema = pa.schema(
        [(c, pa.int64()) for c in ("c_custkey", "n_prios", "n_orders")]
    )
    df = bucket_fold(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
        "c_custkey", local, finish, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("c_custkey").reset_index(drop=True)


DIVISION_SQL = """
SELECT o_custkey AS c_custkey,
       count(DISTINCT o_orderpriority)::BIGINT AS n_prios,
       count(*)::BIGINT AS n_orders
FROM orders
GROUP BY o_custkey
HAVING count(DISTINCT o_orderpriority)
       = (SELECT count(DISTINCT o_orderpriority) FROM orders)
ORDER BY c_custkey
"""


# ------------------------------------- packed argmin/argmax aggregate


def customer_order_span(sf_dir: str) -> pd.DataFrame:
    """Per customer: first and last order (by date, orderkey tiebreak)
    plus the span in days and the order count — FIRST_VALUE/LAST_VALUE
    without a window sort: the orderkey payload rides inside the
    packed (days·2³³ + key) int64, so native Min/Max ARE arg_min/
    arg_max and the driver just decodes."""

    def prep(batch: pa.Table) -> pa.Table:
        days = pc.cast(
            pc.divide(pc.cast(batch["o_orderdate"], pa.int64()),
                      pa.scalar(DAY_US, pa.int64())),
            pa.int64(),
        )
        pk = pc.add(
            pc.multiply(days, pa.scalar(int(_PK_SHIFT), pa.int64())),
            batch["o_orderkey"],
        )
        t = pa.table(
            {
                "c_custkey": batch["o_custkey"],
                "first_pk": pk,
                "last_pk": pk,
                "n_orders": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        # per-batch partial: ~10 orders/customer fold to one row before
        # the exchange — the combiner idiom every fast query here uses
        g = t.group_by("c_custkey").aggregate(
            [("first_pk", "min"), ("last_pk", "max"), ("n_orders", "sum")]
        )
        return g.rename_columns(["c_custkey", "first_pk", "last_pk", "n_orders"])

    def finish(part: pa.Table) -> pa.Table:
        cust = part["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(cust, kind="stable")
        cs = cust[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        return pa.table(
            {
                "c_custkey": pa.array(cs[starts]),
                "first_pk": pa.array(
                    np.minimum.reduceat(
                        part["first_pk"].to_numpy(zero_copy_only=False)[order], starts
                    )
                ),
                "last_pk": pa.array(
                    np.maximum.reduceat(
                        part["last_pk"].to_numpy(zero_copy_only=False)[order], starts
                    )
                ),
                "n_orders": pa.array(
                    np.add.reduceat(
                        part["n_orders"].to_numpy(zero_copy_only=False)[order], starts
                    )
                ),
            }
        )

    # bucketed keyed exchange (16 group tasks + segment reduceat) — the
    # native per-key groupby sorted every partial row globally and
    # measured 5× slower at sf0.1
    schema = pa.schema(
        [(c, pa.int64()) for c in ("c_custkey", "first_pk", "last_pk", "n_orders")]
    )
    df = bucket_fold(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"]),
        "c_custkey", prep, finish, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    mask = np.int64(int(_PK_SHIFT) - 1)
    first_pk = df["first_pk"].to_numpy(dtype=np.int64, na_value=0)
    last_pk = df["last_pk"].to_numpy(dtype=np.int64, na_value=0)
    out = pd.DataFrame(
        {
            "c_custkey": df["c_custkey"].astype("int64"),
            "first_orderkey": first_pk & mask,
            "last_orderkey": last_pk & mask,
            "span_days": (last_pk >> 33) - (first_pk >> 33),
            "n_orders": df["n_orders"].astype("int64"),
        }
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


ORDER_SPAN_SQL = f"""
WITH p AS (
  SELECT o_custkey,
         datediff('day', TIMESTAMP '1970-01-01', o_orderdate)::BIGINT
             * {int(_PK_SHIFT)} + o_orderkey AS pk
  FROM orders)
SELECT o_custkey AS c_custkey,
       CAST(min(pk) & {int(_PK_SHIFT) - 1} AS BIGINT) AS first_orderkey,
       CAST(max(pk) & {int(_PK_SHIFT) - 1} AS BIGINT) AS last_orderkey,
       CAST((max(pk) >> 33) - (min(pk) >> 33) AS BIGINT) AS span_days,
       count(*)::BIGINT AS n_orders
FROM p GROUP BY o_custkey ORDER BY c_custkey
"""


# ------------------------------------------------ DISTINCT ON (top-1)


def latest_event_per_user(sf_dir: str) -> pd.DataFrame:
    """Each user's LATEST event with its full payload (DISTINCT ON /
    row_number()=1): local argmax per batch prunes to ≤1 row per user
    per batch, one ``user_id % P`` keyed exchange, vectorized
    segment-head finish. Ties: ts DESC, then event_id DESC."""

    def heads(t: pa.Table) -> pa.Table:
        """Keep each user's (ts desc, event_id desc) head row."""
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-eid, -ts, uid))
        u_sorted = uid[order]
        starts = np.flatnonzero(np.r_[True, u_sorted[1:] != u_sorted[:-1]])
        return t.take(pa.array(order[starts]))

    def local(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "value_e2": cents,
                "ts": batch["ts"],  # heads() keys on the raw column
            }
        )
        return heads(t).drop_columns(["ts"])

    def finish(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-eid, -ts, uid))
        u_sorted = uid[order]
        starts = np.flatnonzero(np.r_[True, u_sorted[1:] != u_sorted[:-1]])
        return part.take(pa.array(order[starts]))

    schema = pa.schema(
        [("user_id", pa.int64()), ("ts_us", pa.int64()), ("event_id", pa.int64()),
         ("event_type", pa.string()), ("value_e2", pa.int64())]
    )
    df = bucket_fold(
        read_table(sf_dir, "events", ["user_id", "ts", "event_id", "event_type", "value"]),
        "user_id", local, finish, schema, JOIN_PARTITIONS,
    ).to_pandas()
    df = ensure_columns(df, schema)
    return df.sort_values("user_id").reset_index(drop=True)


LATEST_EVENT_SQL = """
SELECT user_id, ts_us, event_id, event_type, value_e2 FROM (
  SELECT user_id,
         epoch_us(ts) AS ts_us,
         event_id, event_type,
         CAST(round(value * 100) AS BIGINT) AS value_e2,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events)
WHERE rn = 1 ORDER BY user_id
"""
