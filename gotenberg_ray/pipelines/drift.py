"""Corpus-drift statistics between document SOURCES — the
distribution-shift measurements a training-data pipeline runs before
mixing corpora (cf. the reference's per-route metrics split by module,
``pkg/gotenberg/metrics.go`` — here the "modules" are data sources and
the measurement is over token space):

- ``source_tv_distance``: total-variation distance between every pair
  of per-source token unigram distributions, integer-exact at ppm
  resolution (frequencies floor-normalized to parts-per-million, so
  the statistic is a pure integer expression on both engines).
- ``source_vocab_jaccard``: pairwise vocabulary overlap — exact
  |Va ∩ Vb|, |Va ∪ Vb| and Jaccard in basis points.

Distributed shape (both queries): one tokenize pass emits per-batch
(source, token, cnt) partial histograms; the ONLY exchange is a
bucket-keyed groupby over that histogram (vocab-scale, not
corpus-scale — ``joins.bucket_fold`` routes by token, so every
token's per-source row group is co-located); each bucket folds to S·(S−1)/2 partial rows
with one pandas unstack + numpy pair kernel, and the driver combines
P·S²/2 tiny partials. Totals per source come from a second aggregate
over the SAME materialized histogram (vocab-sized — the text is
tokenized exactly once).

Exactness bound: ``cnt · 10⁶`` stays in int64 up to 9.2×10¹² tokens
of one term per source — beyond any single source at the 100 TB
design point; past that the ``functions/limbs.py`` split applies
(the ``corr_qty_price`` pattern).
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

P_BUCKETS = 32
PPM = 1_000_000


def _hist_parts(sf_dir: str):
    """Per-batch (source, token, cnt) partial histograms over
    ``documents`` — the shared first stage of both drift queries."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        toks = pc.utf8_split_whitespace(pc.fill_null(texts, ""))
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = toks.values
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        src = batch["source"].to_pandas().to_numpy()
        df = pd.DataFrame(
            {"source": src[parents[keep]], "token": flat.filter(pa.array(keep))}
        )
        c = df.groupby(["source", "token"], sort=False).size().reset_index(name="cnt")
        return pa.table(
            {
                "source": pa.array(c["source"], pa.string()),
                "token": pa.array(c["token"], pa.string()),
                "cnt": pa.array(c["cnt"].to_numpy(), pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize()
    )


def _source_totals(parts) -> pd.DataFrame:
    return (
        parts.groupby("source").aggregate(Sum("cnt", alias_name="n_tok")).to_pandas()
    )


def _pair_index(sources: list[str]) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(sources)) for j in range(i + 1, len(sources))]


def _bucket_matrix(part: pa.Table, sources: list[str]) -> np.ndarray:
    """One bucket's (token × source) count matrix — pandas C unstack,
    reindexed to the GLOBAL source list (a bucket may hold no tokens of
    some source; those columns must still contribute zeros)."""
    df = pd.DataFrame(
        {
            "source": part["source"].to_pandas(),
            "token": part["token"].to_pandas(),
            "cnt": part["cnt"].to_numpy(zero_copy_only=False),
        }
    )
    piv = (
        df.groupby(["token", "source"], sort=False)["cnt"]
        .sum()
        .unstack("source", fill_value=0)
        .reindex(columns=sources, fill_value=0)
    )
    return piv.to_numpy(dtype=np.int64)


def source_tv_distance(sf_dir: str) -> pd.DataFrame:
    """Pairwise total-variation distance between source token
    distributions: ``tv_ppm = Σ_tokens |f_a − f_b| // 2`` with
    ``f_s = cnt_s · 10⁶ // N_s`` (ppm floor units — both engines
    evaluate the identical integer expression)."""
    parts = _hist_parts(sf_dir)
    totals = _source_totals(parts)
    if totals.empty:
        return ensure_columns(
            pd.DataFrame(),
            {"source_a": "object", "source_b": "object", "tv_ppm": "int64"},
        )
    totals = totals.sort_values("source").reset_index(drop=True)
    sources = list(totals["source"])
    n_vec = totals["n_tok"].to_numpy(dtype=np.int64)
    pairs = _pair_index(sources)

    def per_bucket(part: pa.Table) -> pa.Table:
        arr = _bucket_matrix(part, sources)
        f = (arr * PPM) // n_vec[None, :]
        a_idx = np.array([i for i, _ in pairs], dtype=np.int64)
        b_idx = np.array([j for _, j in pairs], dtype=np.int64)
        s = np.abs(f[:, a_idx] - f[:, b_idx]).sum(axis=0)
        return pa.table(
            {
                "source_a": pa.array([sources[i] for i, _ in pairs], pa.string()),
                "source_b": pa.array([sources[j] for _, j in pairs], pa.string()),
                "s_abs": pa.array(s, pa.int64()),
            }
        )

    schema = pa.schema(
        [("source_a", pa.string()), ("source_b", pa.string()), ("s_abs", pa.int64())]
    )
    res = bucket_fold(
        parts, "token", None, per_bucket, schema, P_BUCKETS, pinned=False
    ).to_pandas()
    res = ensure_columns(res, schema)
    out = (
        res.groupby(["source_a", "source_b"], sort=True)["s_abs"]
        .sum()
        .reset_index()
    )
    out["tv_ppm"] = (out["s_abs"] // 2).astype("int64")
    return out[["source_a", "source_b", "tv_ppm"]].reset_index(drop=True)


TV_SQL = r"""
WITH tok AS (
  SELECT source,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents),
h AS (SELECT source, token, count(*)::BIGINT AS cnt FROM tok GROUP BY 1, 2),
n AS (SELECT source, sum(cnt)::BIGINT AS n_tok FROM h GROUP BY 1),
f AS (SELECT h.source, h.token,
             (h.cnt::HUGEINT * 1000000 // n.n_tok)::BIGINT AS f
      FROM h JOIN n USING (source)),
v AS (SELECT DISTINCT token FROM h),
p AS (SELECT a.source AS source_a, b.source AS source_b
      FROM n a JOIN n b ON a.source < b.source),
d AS (SELECT p.source_a, p.source_b,
             sum(abs(coalesce(fa.f, 0) - coalesce(fb.f, 0)))::BIGINT AS s
      FROM p CROSS JOIN v
      LEFT JOIN f fa ON fa.source = p.source_a AND fa.token = v.token
      LEFT JOIN f fb ON fb.source = p.source_b AND fb.token = v.token
      GROUP BY 1, 2)
SELECT source_a, source_b, (s // 2)::BIGINT AS tv_ppm
FROM d ORDER BY source_a, source_b
"""


def source_vocab_jaccard(sf_dir: str) -> pd.DataFrame:
    """Pairwise vocabulary overlap between sources: exact intersection
    and union sizes plus Jaccard in basis points
    (``inter · 10⁴ // union``)."""
    parts = _hist_parts(sf_dir)
    totals = _source_totals(parts)
    spec = {
        "source_a": "object",
        "source_b": "object",
        "inter_sz": "int64",
        "union_sz": "int64",
        "jaccard_bp": "int64",
    }
    if totals.empty:
        return ensure_columns(pd.DataFrame(), spec)
    sources = sorted(totals["source"])
    pairs = _pair_index(sources)

    def per_bucket(part: pa.Table) -> pa.Table:
        present = _bucket_matrix(part, sources) > 0
        a_idx = np.array([i for i, _ in pairs], dtype=np.int64)
        b_idx = np.array([j for _, j in pairs], dtype=np.int64)
        inter = (present[:, a_idx] & present[:, b_idx]).sum(axis=0).astype(np.int64)
        # diagonal rows carry the per-source distinct-token partials
        return pa.table(
            {
                "source_a": pa.array(
                    [sources[i] for i, _ in pairs] + sources, pa.string()
                ),
                "source_b": pa.array(
                    [sources[j] for _, j in pairs] + sources, pa.string()
                ),
                "cnt": pa.array(
                    np.concatenate([inter, present.sum(axis=0).astype(np.int64)]),
                    pa.int64(),
                ),
            }
        )

    schema = pa.schema(
        [("source_a", pa.string()), ("source_b", pa.string()), ("cnt", pa.int64())]
    )
    res = bucket_fold(
        parts, "token", None, per_bucket, schema, P_BUCKETS, pinned=False
    ).to_pandas()
    res = ensure_columns(res, schema)
    agg = res.groupby(["source_a", "source_b"], sort=True)["cnt"].sum()
    nv = {s: int(agg.get((s, s), 0)) for s in sources}
    rows = []
    for i, j in pairs:
        a, b = sources[i], sources[j]
        inter = int(agg.get((a, b), 0))
        union = nv[a] + nv[b] - inter
        rows.append(
            {
                "source_a": a,
                "source_b": b,
                "inter_sz": inter,
                "union_sz": union,
                "jaccard_bp": inter * 10_000 // union if union else 0,
            }
        )
    out = pd.DataFrame(rows, columns=list(spec))
    for c in ("inter_sz", "union_sz", "jaccard_bp"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


JACCARD_SQL = r"""
WITH tok AS (
  SELECT source,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents),
v AS (SELECT DISTINCT source, token FROM tok),
c AS (SELECT source, count(*)::BIGINT AS nv FROM v GROUP BY 1),
i AS (SELECT a.source AS source_a, b.source AS source_b,
             count(*)::BIGINT AS inter
      FROM v a JOIN v b ON a.token = b.token AND a.source < b.source
      GROUP BY 1, 2),
p AS (SELECT a.source AS source_a, a.nv AS nv_a,
             b.source AS source_b, b.nv AS nv_b
      FROM c a JOIN c b ON a.source < b.source)
SELECT p.source_a, p.source_b,
       coalesce(i.inter, 0)::BIGINT AS inter_sz,
       (p.nv_a + p.nv_b - coalesce(i.inter, 0))::BIGINT AS union_sz,
       (coalesce(i.inter, 0) * 10000
          // (p.nv_a + p.nv_b - coalesce(i.inter, 0)))::BIGINT AS jaccard_bp
FROM p LEFT JOIN i
  ON i.source_a = p.source_a AND i.source_b = p.source_b
ORDER BY p.source_a, p.source_b
"""
