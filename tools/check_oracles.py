"""Local stand-in for the driver's correctness gate: run every
queries() entry at a given sf and diff against its oracle_sql() twin
via DuckDB (row count, sorted column names, order-insensitive values).

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def norm(df: pd.DataFrame) -> pd.DataFrame:
    if not isinstance(df, pd.DataFrame):
        try:
            df = df.to_pandas()
        except AttributeError:
            df = pd.DataFrame(df)
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df.reset_index(drop=True)


def compare(a: pd.DataFrame, b: pd.DataFrame) -> str:
    a, b = norm(a), norm(b)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}"
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        return "VALUE MISMATCH: " + str(e).split("\n")[-2][:200]
    # The driver's value hash is dtype-sensitive (int64 vs float64 hash
    # differently even when every value is equal — the round-2 HUGEINT
    # regression class), so equal values are not enough: dtypes must match.
    bad = [
        f"{c}: ray={a[c].dtype} sql={b[c].dtype}"
        for c in a.columns
        if a[c].dtype != b[c].dtype
    ]
    if bad:
        return "DTYPE MISMATCH: " + "; ".join(bad)
    return "OK"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "entry_mod", Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = m.queries(), m.oracle_sql()
    failures = twins = rows_only = 0
    t_all = time.time()
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
        except Exception as e:  # noqa: BLE001
            print(f"{name:28s} RAY ERROR: {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name in oracles:
            try:
                sql_res = con.execute(oracles[name]).df()
            except Exception as e:  # noqa: BLE001
                print(f"{name:28s} SQL ERROR: {e}")
                failures += 1
                continue
            verdict = compare(res, sql_res)
        else:
            n = len(res) if hasattr(res, "__len__") else res.count()
            verdict = f"rows-only ({n} rows)"
        status = verdict if verdict.startswith(("OK", "rows-only")) else "FAIL " + verdict
        if status.startswith("FAIL"):
            failures += 1
        elif name in oracles:
            twins += 1
        else:
            rows_only += 1
        print(f"{name:28s} {dt:6.2f}s  {status}")
    print(
        f"summary: {twins} twins OK, {rows_only} rows-only, "
        f"{failures} failures, {time.time() - t_all:.0f}s"
    )
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
