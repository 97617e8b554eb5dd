"""Sum128 — exact distributed 128-bit integer sums as two int64 limbs.

The TPC-H money sums outgrow int64 well before 100 TB (q1's charge_e6
is ~6·10¹⁷ per SF already, overflowing around SF 15), and Ray's native
``Sum`` folds in int64. The fix used ad hoc by ``analytics.corr_qty_price``
is generalized here: every wide value v is carried as two int64 limbs
base 10⁹ (v = hi·10⁹ + lo with 0 ≤ lo < 10⁹ — floor semantics, so
NEGATIVE values round-trip exactly too), per-batch partials renormalize
the carry so the lo limb stays < 10⁹ per group, the global groupby
folds both limbs with the native Sum, and the driver recombines exact
Python ints. Safe bounds: lo-fold ≤ blocks·10⁹ and hi-fold ≤ total/10⁹,
so totals up to ~9·10²⁷ (≫ any 100 TB money sum) never lose a bit.

Usage shape (mirrors the partial-agg → groupby combiner idiom):

    t = limbify(t, ["rev_e4"])                 # per row, before group_by
    g = t.group_by(keys).aggregate(limb_sums(["rev_e4"]) + ...)
    g = renorm_limbs(g, ["rev_e4"], suffix="_sum")
    ...
    final = ds.groupby(keys).aggregate(*limb_ray_aggs(["rev_e4"]))
    df = recombine_limbs(final.to_pandas(), ["rev_e4"])
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

CARRY = 1_000_000_000  # base-10⁹ limb split


def to_cents(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """2-decimal money column → exact int64 cents: ×100, ties rounded
    away from zero (DuckDB's ``round``), so twins hash the same ints."""
    return pc.cast(
        pc.round(pc.multiply(col, 100.0), round_mode="half_towards_infinity"),
        pa.int64(),
    )


def split_limbs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = hi·10⁹ + lo (floor division — exact for negatives too)."""
    v = np.asarray(v, dtype=np.int64)
    return v // CARRY, v % CARRY


def limbify(t: pa.Table, cols: list[str]) -> pa.Table:
    """Replace each int64 column c with c_hi / c_lo limb columns."""
    for c in cols:
        hi, lo = split_limbs(t[c].to_numpy(zero_copy_only=False))
        idx = t.column_names.index(c)
        t = t.remove_column(idx)
        t = t.append_column(f"{c}_hi", pa.array(hi))
        t = t.append_column(f"{c}_lo", pa.array(lo))
    return t


def limb_sums(cols: list[str]) -> list[tuple[str, str]]:
    """pyarrow group_by aggregate specs for the limb columns."""
    out: list[tuple[str, str]] = []
    for c in cols:
        out.append((f"{c}_hi", "sum"))
        out.append((f"{c}_lo", "sum"))
    return out


def renorm_limbs(t: pa.Table, cols: list[str], suffix: str = "_sum") -> pa.Table:
    """After a batch-local group_by sum, push overflow from the lo limb
    into hi so lo < 10⁹ per group again — the invariant that keeps the
    GLOBAL lo fold bounded by blocks·10⁹."""
    for c in cols:
        lo_name, hi_name = f"{c}_lo{suffix}", f"{c}_hi{suffix}"
        lo = t[lo_name].to_numpy(zero_copy_only=False)
        hi = t[hi_name].to_numpy(zero_copy_only=False)
        t = t.set_column(
            t.column_names.index(hi_name),
            hi_name,
            pa.array(hi + lo // CARRY),
        )
        t = t.set_column(
            t.column_names.index(lo_name), lo_name, pa.array(lo % CARRY)
        )
    return t


def limb_ray_aggs(cols: list[str], suffix: str = "_sum"):
    """Ray-native Sum aggregates for the global fold of limb partials.
    Output aliases drop the partial suffix: c_hi / c_lo."""
    from ray.data.aggregate import Sum

    aggs = []
    for c in cols:
        aggs.append(Sum(f"{c}_hi{suffix}", alias_name=f"{c}_hi"))
        aggs.append(Sum(f"{c}_lo{suffix}", alias_name=f"{c}_lo"))
    return aggs


def recombine_limbs(
    df: pd.DataFrame, cols: list[str], dtype: str = "int64"
) -> pd.DataFrame:
    """hi·10⁹ + lo as EXACT Python ints (never float), then cast.
    ``dtype="object"`` keeps arbitrary-precision ints for totals beyond
    int64; the default int64 matches the SQL twins at test scale."""
    for c in cols:
        hi = df[f"{c}_hi"].astype(object)
        lo = df[f"{c}_lo"].astype(object)
        vals = [int(h) * CARRY + int(v) for h, v in zip(hi, lo)]
        df[c] = pd.Series(vals, index=df.index, dtype=object)
        if dtype != "object":
            df[c] = df[c].astype(dtype)
        df = df.drop(columns=[f"{c}_hi", f"{c}_lo"])
    return df
