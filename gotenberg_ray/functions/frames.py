"""Driver-side frame utilities.

``ensure_columns`` closes the one systematic gap between Ray Data and
pandas at the end of a pipeline: ``Dataset.to_pandas()`` on a dataset
that produced ZERO blocks returns a DataFrame with NO columns, so the
first column access downstream raises KeyError. Any operator can hit
this legitimately — an upstream filter that matched nothing reduces
the whole stream to zero rows — so every query tail funnels its frame
through this guard with the schema it promised, and empty inputs
degrade to typed empty results instead of crashes (the empty-input
totality contract; ``tools/empty_sweep.py`` enforces it over every
registered query).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def ensure_columns(
    df: pd.DataFrame, spec: dict[str, str] | pa.Schema
) -> pd.DataFrame:
    """Return ``df`` unchanged when it already carries the declared
    columns; otherwise (the label-less empty-result case) produce an
    empty frame with exactly the declared columns and dtypes.

    ``spec`` maps column name → pandas dtype string (e.g. "int64",
    "object", "float64", "datetime64[us]"), or is the Arrow schema a
    pipeline already declared (``joins.bucket_fold``'s)."""
    names = spec.names if isinstance(spec, pa.Schema) else list(spec)
    if set(names) <= set(df.columns):
        return df
    if len(df):  # non-empty but missing promised columns — a real bug
        missing = sorted(set(names) - set(df.columns))
        raise KeyError(f"result is missing declared columns {missing}")
    if isinstance(spec, pa.Schema):
        return spec.empty_table().to_pandas()
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in spec.items()})
