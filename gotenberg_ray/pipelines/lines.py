"""Line-level boilerplate removal (CCNet / RefinedWeb-style dedup).

Web-corpus curation removes LINES that recur across documents
(cookie banners, nav bars, footers) rather than whole documents —
CCNet (Wenzek et al., LREC 2020) dedups paragraph units by hash
across shards; RefinedWeb (Penedo et al., 2023) applies the same
line-level filter before document-level MinHash. This module is the
exact version of that pass over the synthetic ``documents`` table.

Line segmentation seam: the synthetic corpus has no newlines, so a
"line" is a fixed run of ``LINE_TOKENS`` whitespace tokens (the last
run may be short). With real crawl text the segmenter is
``text.split("\\n")`` and everything downstream is unchanged.

Distributed shape (two keyed exchanges, both O(corpus)):
1. explode — per batch, per doc: token chunks → (doc_id, line_idx,
   line) rows, routed by the line's hash. Identical lines land in
   one bucket; the *strings* are compared there, so a hash collision
   can never merge two different lines (unlike a sketch pass).
2. per line-bucket: dictionary-encode the line strings, count
   DISTINCT docs per distinct line in one numpy lexsort pass, flag
   rows whose line occurs in ≥ ``min_docs`` docs.
3. per doc-bucket (route by ``doc_id``): re-sort (doc_id,
   line_idx), rebuild the cleaned text from the kept lines with ONE
   ``pc.binary_join`` over an offsets-built ListArray — no per-token
   Python.

At 100 TB both exchanges stream block-by-block (nothing driver-side);
the heavy state per bucket is that bucket's line strings only. The
reference has no corpus curation — this is a task-brief addition
(SURVEY §2 "beyond the reference").
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.frames import ensure_columns
from .joins import bucket_fold

LINE_TOKENS = 3  # tokens per synthetic "line" (real text: split on \n)
MIN_DOCS = 2  # a line seen in >= this many distinct docs is boilerplate
P = 32  # routing buckets for both exchanges


def _docs(sf_dir: str):
    from ..io import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _explode_lines(batch: pa.Table) -> pa.Table:
    """(doc_id, text) rows → (doc_id, line_idx, line) line rows."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    doc_out: list[np.ndarray] = []
    idx_out: list[np.ndarray] = []
    line_out: list[str] = []
    for i, t in enumerate(batch["text"].to_pylist()):
        toks = (t or "").split(" ")  # null text ≡ "" (review-found)
        n_lines = (len(toks) + LINE_TOKENS - 1) // LINE_TOKENS
        line_out.extend(
            " ".join(toks[s : s + LINE_TOKENS])
            for s in range(0, len(toks), LINE_TOKENS)
        )
        doc_out.append(np.full(n_lines, ids[i], np.int64))
        idx_out.append(np.arange(n_lines, dtype=np.int64))
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(doc_out)),
            "line_idx": pa.array(np.concatenate(idx_out)),
            "line": pa.array(line_out, pa.string()),
        }
    )


def _flag_boilerplate(g: pa.Table) -> pa.Table:
    """Within one line-bucket: keep=False for rows whose exact line
    string occurs in >= MIN_DOCS distinct docs (string compare, not
    hash — collision-proof)."""
    enc = pc.dictionary_encode(g["line"].combine_chunks())
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    docs = g["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((docs, codes))
    c_s, d_s = codes[order], docs[order]
    # distinct (code, doc) pairs → docs-per-code via one bincount
    new_pair = np.r_[True, (c_s[1:] != c_s[:-1]) | (d_s[1:] != d_s[:-1])]
    docs_per_code = np.bincount(c_s[new_pair], minlength=len(enc.dictionary))
    keep = docs_per_code[codes] < MIN_DOCS
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "line_idx": g["line_idx"],
            "line": g["line"],
            "keep": pa.array(keep),
        }
    )


_FLAGGED = pa.schema(
    [("doc_id", pa.int64()), ("line_idx", pa.int64()),
     ("line", pa.string()), ("keep", pa.bool_())]
)


def _rebuild_docs(g: pa.Table) -> pa.Table:
    """Within one doc-bucket: (doc, line_idx)-sort, then ONE
    pc.binary_join over an offsets-built list<string> rebuilds every
    cleaned document without a per-line Python loop."""
    docs = g["doc_id"].to_numpy(zero_copy_only=False)
    idx = g["line_idx"].to_numpy(zero_copy_only=False)
    keep = g["keep"].to_numpy(zero_copy_only=False)
    order = np.lexsort((idx, docs))
    docs, keep = docs[order], keep[order]
    lines = pc.take(g["line"].combine_chunks(), pa.array(order))

    starts = np.flatnonzero(np.r_[True, docs[1:] != docs[:-1]])
    bounds = np.r_[starts, len(docs)]
    n_lines = np.diff(bounds)
    doc_ids = docs[starts]

    kept_lines = pc.filter(lines, pa.array(keep))
    # kept-per-doc via cumulative keep counts at segment bounds
    ck = np.r_[0, np.cumsum(keep.astype(np.int64))]
    n_kept = ck[bounds[1:]] - ck[bounds[:-1]]
    offsets = pa.array(np.r_[0, np.cumsum(n_kept)].astype(np.int32))
    joined = pc.binary_join(
        pa.ListArray.from_arrays(offsets, kept_lines), " "
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "n_lines": pa.array(n_lines.astype(np.int64)),
            "n_kept": pa.array(n_kept.astype(np.int64)),
            "clean_text": joined,
        }
    )


def line_dedup(sf_dir: str) -> pd.DataFrame:
    flagged = bucket_fold(
        _docs(sf_dir), "line", _explode_lines, _flag_boilerplate, _FLAGGED, P,
        pinned=False,
    )
    schema = pa.schema(
        [("doc_id", pa.int64()), ("n_lines", pa.int64()),
         ("n_kept", pa.int64()), ("clean_text", pa.string())]
    )
    df = bucket_fold(
        flagged, "doc_id", None, _rebuild_docs, schema, P, pinned=False
    ).to_pandas()
    return ensure_columns(df, schema).sort_values("doc_id").reset_index(drop=True)


LINE_DEDUP_SQL = f"""
WITH toks AS (
  SELECT doc_id, CAST(i // {LINE_TOKENS} AS BIGINT) AS line_idx, i,
         parts[i + 1] AS tok
  FROM (SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS parts
        FROM documents),
       LATERAL (SELECT unnest(range(0, len(parts))) AS i)
),
lines AS (
  SELECT doc_id, line_idx, string_agg(tok, ' ' ORDER BY i) AS line
  FROM toks GROUP BY doc_id, line_idx
),
boiler AS (
  SELECT line FROM lines GROUP BY line
  HAVING count(DISTINCT doc_id) >= {MIN_DOCS}
)
SELECT l.doc_id,
       count(*)::BIGINT AS n_lines,
       count(*) FILTER (WHERE b.line IS NULL)::BIGINT AS n_kept,
       coalesce(string_agg(l.line, ' ' ORDER BY l.line_idx)
                  FILTER (WHERE b.line IS NULL), '') AS clean_text
FROM lines l LEFT JOIN boiler b USING (line)
GROUP BY l.doc_id
ORDER BY l.doc_id
"""
