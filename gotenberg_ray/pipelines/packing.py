"""Sequence packing — assign documents to fixed-size training context
windows (the concat-and-chunk packing used for LLM pretraining
batches): documents are concatenated in deterministic ``doc_id`` order
and the token stream is cut into ``ctx``-token windows; each document
is tagged with its start offset in the global token stream and the
window (pack) its first token lands in.

The global start offset is an order-dependent running sum — the one
primitive Ray Data's unordered blocks don't give for free. It runs as
a distributed two-pass prefix sum over an explicit RANGE partitioning
(the same partitioning contract as ``joins.py``, but order-preserving):

1. bucket ``rid = doc_id // span`` (span sized so #buckets ∝ cluster);
   per-batch partial token sums per bucket → a tiny
   ``groupby(rid).sum`` — only (#buckets) rows reach the driver;
2. the driver computes the exclusive prefix over bucket totals
   (#buckets entries, O(cluster) not O(corpus)) and closes it over a
   second pass: ``groupby(rid).map_groups`` sorts each bucket by
   doc_id, local-cumsums, and adds the bucket's base.

Nothing corpus-sized ever sits on the driver; each bucket holds
``N/#buckets`` rows. The DuckDB oracle is the equivalent
``sum() OVER (ORDER BY doc_id)`` window.
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

_RID = "__range_id__"


def _token_counts(batch: pa.Table) -> np.ndarray:
    """Whitespace token count per row, C kernels only (empty tokens
    from leading/duplicate whitespace are excluded, matching the SQL
    ``list_filter(regexp_split_to_array(...), t -> t <> '')``)."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.utf8_split_whitespace(pc.fill_null(texts, ""))
    total = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.values
    empty = pc.equal(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    if empty.any():
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        total -= np.bincount(parents[empty], minlength=len(total)).astype(np.int64)
    return total


def ordered_prefix_sum_multi(
    ds,
    key: str,
    values: list[str],
    span: int,
    num_partitions: int = 16,
):
    """Order-preserving EXCLUSIVE prefix sums of SEVERAL value columns
    in one pass (same two-phase plan as :func:`ordered_prefix_sum` —
    range buckets, per-bucket totals to the driver, per-bucket close):
    returns (key, *values, start_<v> for each v). One exchange however
    many budgets ride the same global order (the dual-budget
    interleaved packing needs tokens AND media slots)."""

    def add_rid(batch: pa.Table) -> pa.Table:
        rid = pc.cast(
            pc.divide(batch[key], pa.scalar(span, pa.int64())), pa.int64()
        )
        return batch.select([key, *values]).append_column(_RID, rid)

    with_rid = ds.map_batches(add_rid, batch_format="pyarrow")

    def bucket_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select([_RID, *values])
            .group_by(_RID)
            .aggregate([(v, "sum") for v in values])
        )

    totals = (
        with_rid.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby(_RID)
        .aggregate(*[Sum(f"{v}_sum", alias_name=f"tot_{v}") for v in values])
        .to_pandas()
    )
    totals = ensure_columns(
        totals, {_RID: "int64", **{f"tot_{v}": "int64" for v in values}}
    ).sort_values(_RID)
    base: dict[int, list[int]] = {}
    run = [0] * len(values)
    for _, row in totals.iterrows():
        base[int(row[_RID])] = list(run)
        for j, v in enumerate(values):
            run[j] += int(row[f"tot_{v}"])

    def close_bucket(part: pa.Table) -> pa.Table:
        part = part.sort_by([(key, "ascending")])
        rid = int(part[_RID][0].as_py())
        cols = {key: part[key]}
        for j, v in enumerate(values):
            arr = part[v].to_numpy(zero_copy_only=False).astype(np.int64)
            cols[v] = pa.array(arr)
            cols[f"start_{v}"] = pa.array(
                base[rid][j] + np.concatenate(([0], np.cumsum(arr)[:-1]))
            )
        return pa.table(cols)

    return with_rid.groupby(_RID, num_partitions=num_partitions).map_groups(
        close_bucket, batch_format="pyarrow"
    )


def ordered_prefix_sum(
    ds,
    key: str,
    value: str,
    span: int,
    num_partitions: int = 16,
):
    """THE distributed order-preserving prefix sum (shared by
    ``pack_sequences`` and ``train.training_data_pipeline``): returns
    a Dataset of (key, value, start) where ``start`` is the exclusive
    prefix sum of ``value`` in ascending global ``key`` order. A thin
    wrapper over :func:`ordered_prefix_sum_multi` with one value
    column (the two ~60-line plans drifted as duplicates before —
    review-found): the multi variant's ``start_<v>`` column renames to
    the historical ``start``."""
    return ordered_prefix_sum_multi(
        ds, key, [value], span, num_partitions=num_partitions
    ).map_batches(
        lambda b, _v=value: b.rename_columns(
            ["start" if c == f"start_{_v}" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )


def pack_sequences(sf_dir: str, ctx: int = 512, num_buckets: int = 32) -> pd.DataFrame:
    """Per-document packing assignment: (doc_id, n_tokens,
    start_offset, pack_id) under ``ctx``-token windows."""

    def tokenize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({"doc_id": ids, "n_tokens": pa.array(_token_counts(batch))})

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        tokenize, batch_format="pyarrow"
    )

    # range span from the id domain (one tiny column scan)
    max_id = read_table(sf_dir, "documents", columns=["doc_id"]).max("doc_id") or 0
    span = max(1, (int(max_id) + num_buckets) // num_buckets)

    df = (
        ordered_prefix_sum(
            docs, "doc_id", "n_tokens", span,
            num_partitions=min(num_buckets, 16),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "n_tokens": b["n_tokens"],
                    "start_offset": b["start"],
                    "pack_id": pc.cast(
                        pc.divide(b["start"], pa.scalar(ctx, pa.int64())), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"doc_id": "int64", "n_tokens": "int64",
         "start_offset": "int64", "pack_id": "int64"},
    )
    return df.sort_values("doc_id").reset_index(drop=True)


PACK_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CAST(COALESCE(len(list_filter(regexp_split_to_array(text, '\s+'),
                              t -> t <> '')), 0) AS BIGINT) AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
       CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) AS start_offset,
       CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) // 512 AS pack_id
FROM tok ORDER BY doc_id
"""



def pack_interleaved(
    sf_dir: str,
    ctx_tokens: int = 512,
    ctx_media: int = 8,
    num_buckets: int = 32,
) -> pd.DataFrame:
    """Dual-budget INTERLEAVED sequence packing — the multimodal
    training-prep constraint (Flamingo/LLaVA-style): a pack holds at
    most ``ctx_tokens`` text tokens AND ``ctx_media`` media slots, in
    global doc order. Per-doc media-slot counts derive
    deterministically from doc_id (``knuth32(doc_id) % 4`` — the
    sampling.py mix convention; a production corpus supplies its real
    span counts). ONE keyed exchange: both budgets ride the same
    :func:`ordered_prefix_sum_multi`; the pack assignment is the
    composite floor pair (start_tokens // ctx_tokens,
    start_media // ctx_media) — within any (pack_t, pack_m) cell both
    exclusive-prefix spans are < their budgets by construction, the
    same chunk-split semantics as :func:`pack_sequences`."""

    def featurize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
        n_media = ((idv * np.uint64(2654435761)) % np.uint64(1 << 32)) % np.uint64(4)
        return pa.table(
            {
                "doc_id": ids,
                "n_tokens": pa.array(_token_counts(batch)),
                "n_media": pa.array(n_media.astype(np.int64)),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        featurize, batch_format="pyarrow"
    )
    max_id = read_table(sf_dir, "documents", columns=["doc_id"]).max("doc_id") or 0
    span = max(1, (int(max_id) + num_buckets) // num_buckets)

    df = (
        ordered_prefix_sum_multi(
            docs, "doc_id", ["n_tokens", "n_media"], span,
            num_partitions=min(num_buckets, 16),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "n_tokens": b["n_tokens"],
                    "n_media": b["n_media"],
                    "pack_t": pc.cast(
                        pc.divide(b["start_n_tokens"], pa.scalar(ctx_tokens, pa.int64())),
                        pa.int64(),
                    ),
                    "pack_m": pc.cast(
                        pc.divide(b["start_n_media"], pa.scalar(ctx_media, pa.int64())),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"doc_id": "int64", "n_tokens": "int64", "n_media": "int64",
         "pack_t": "int64", "pack_m": "int64"},
    )
    return df.sort_values("doc_id").reset_index(drop=True)


PACK_INTERLEAVED_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CAST(COALESCE(len(list_filter(regexp_split_to_array(text, '\s+'),
                              t -> t <> '')), 0) AS BIGINT) AS n_tokens,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 4
              AS BIGINT) AS n_media
  FROM documents)
SELECT doc_id, n_tokens, n_media,
       CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) // 512 AS pack_t,
       CAST(coalesce(sum(n_media) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) // 8 AS pack_m
FROM tok ORDER BY doc_id
"""


def chunk_documents(
    sf_dir: str, chunk: int = 64, stride: int = 48
) -> pd.DataFrame:
    """RAG-style chunking: each document splits into ``chunk``-token
    windows advancing by ``stride`` tokens (overlapping when stride <
    chunk) — the retrieval-index preparation step. Pure per-batch
    expansion (np.repeat/arange — one output row per window, no
    Python loop, no shuffle); a doc with t tokens yields
    ``1 + max(0, ceil((t - chunk)/stride))`` windows, the last one
    truncated (t=0 docs yield one empty window)."""

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = _token_counts(batch)
        n_win = 1 + np.maximum(0, -(-(t - chunk) // stride))
        n_win = np.where(t <= chunk, 1, n_win).astype(np.int64)
        doc = np.repeat(ids, n_win)
        tot = np.repeat(t, n_win)
        within = np.arange(n_win.sum()) - np.repeat(
            np.cumsum(n_win) - n_win, n_win
        )
        start = within * stride
        n_tok = np.minimum(chunk, tot - start)
        return pa.table(
            {
                "doc_id": pa.array(doc),
                "chunk_id": pa.array(within.astype(np.int64)),
                "start_tok": pa.array(start.astype(np.int64)),
                "n_tok": pa.array(n_tok.astype(np.int64)),
            }
        )

    df = (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(expand, batch_format="pyarrow")
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"doc_id": "int64", "chunk_id": "int64",
         "start_tok": "int64", "n_tok": "int64"},
    )
    return df.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


CHUNK_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CAST(COALESCE(len(list_filter(regexp_split_to_array(text, '\s+'),
                              t -> t <> '')), 0) AS BIGINT) AS t
  FROM documents),
win AS (
  SELECT doc_id, t,
         CASE WHEN t <= 64 THEN 1
              ELSE 1 + CAST(ceil((t - 64) / 48.0) AS BIGINT) END AS n_win
  FROM tok)
SELECT doc_id,
       CAST(g AS BIGINT) AS chunk_id,
       CAST(g * 48 AS BIGINT) AS start_tok,
       CAST(least(64, t - g * 48) AS BIGINT) AS n_tok
FROM win, LATERAL unnest(range(n_win)) AS u(g)
ORDER BY doc_id, chunk_id
"""


def pack_shuffled(sf_dir: str, ctx: int = 512, num_buckets: int = 32) -> pd.DataFrame:
    """Inter-document SHUFFLED packing: documents are concatenated in
    a deterministic pseudo-random order — ``pri = (doc_id·2654435761)
    mod 2³²`` (Knuth's bijective multiplicative hash, the sampling
    module's priority) — then chunked into ``ctx``-token windows. This
    is the training-batch global shuffle: neighbors in the token
    stream are unrelated documents, yet the permutation is a pure
    function of the ids, so runs (and resumes) are bit-identical.
    Same two-pass ``ordered_prefix_sum``, keyed on the priority."""
    _KNUTH, _M32 = 2654435761, 1 << 32

    def _pri(ids: np.ndarray) -> np.ndarray:
        return (
            (ids.astype(np.uint64) * np.uint64(_KNUTH)) % np.uint64(_M32)
        ).astype(np.int64)

    def tokenize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "pri": pa.array(_pri(ids)),
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(_token_counts(batch)),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        tokenize, batch_format="pyarrow"
    )
    span = max(1, _M32 // num_buckets)  # priorities are uniform in [0, 2³²)

    # carry doc_id through the prefix sum via a composite value? No —
    # the helper keeps (key, value); join doc_id back by priority
    # (bijective ⇒ unique key). The join's build side needs only
    # (pri, doc_id) — a pure function of the id column — so it reads
    # doc_id alone and the corpus is TOKENIZED EXACTLY ONCE.
    from .joins import hash_join
    from .relational import JOIN_PARTITIONS

    summed = ordered_prefix_sum(
        docs, "pri", "n_tokens", span, num_partitions=min(num_buckets, 16)
    )

    def id_side(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"pri": pa.array(_pri(ids)), "doc_id": pa.array(ids)}
        )

    joined = hash_join(
        summed,
        read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
            id_side, batch_format="pyarrow"
        ),
        on="pri",
        num_partitions=JOIN_PARTITIONS,
        left_schema=[("pri", pa.int64()), ("n_tokens", pa.int64()),
                     ("start", pa.int64())],
        right_schema=[("pri", pa.int64()), ("doc_id", pa.int64())],
    )
    df = (
        joined.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "n_tokens": b["n_tokens"],
                    "shuffle_pos": b["pri"],
                    "start_offset": b["start"],
                    "pack_id": pc.cast(
                        pc.divide(b["start"], pa.scalar(ctx, pa.int64())), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {"doc_id": "int64", "n_tokens": "int64", "shuffle_pos": "int64",
         "start_offset": "int64", "pack_id": "int64"},
    )
    return df.sort_values("doc_id").reset_index(drop=True)


PACK_SHUFFLED_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS shuffle_pos,
         CAST(COALESCE(len(list_filter(regexp_split_to_array(text, '\s+'),
                              t -> t <> '')), 0) AS BIGINT) AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens, CAST(shuffle_pos AS BIGINT) AS shuffle_pos,
       CAST(coalesce(sum(n_tokens) OVER (ORDER BY shuffle_pos
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) AS start_offset,
       CAST(coalesce(sum(n_tokens) OVER (ORDER BY shuffle_pos
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            AS BIGINT) // 512 AS pack_id
FROM tok ORDER BY doc_id
"""


# ------------------------------------- content-defined chunking dedup

# FastCDC-style Gear parameters: boundary when the top GEAR_KBITS bits
# of the rolling hash are zero → expected chunk length 2^GEAR_KBITS
# bytes, bounded to [GEAR_MIN, GEAR_MAX]. Small values suit the short
# synthetic docs; production corpora would use kbits≈13 (8 KiB chunks)
# with the same kernels.
GEAR_KBITS = 6
GEAR_MIN = 32
GEAR_MAX = 256
_GEAR_WINDOW = 64  # h = 2h + G[b] mod 2^64 forgets bytes ≥64 back
_CDC_P = 32  # hash buckets for the fold's keyed exchange

# 256-entry random table, derived deterministically
_GEAR_SALT = np.uint64(0x6C62272E07BB0142)


def _gear_table() -> np.ndarray:
    from ..functions.hashing import splitmix64

    return splitmix64(np.arange(256, dtype=np.uint64) ^ _GEAR_SALT)


_GEAR_G: np.ndarray | None = None

# content hash: splitmix-finalized polynomial rolling hash mod 2^64
# over chunk bytes (B odd → invertible; prefix trick makes every chunk
# hash one gather + one multiply, no per-chunk loop)
_POLY_B = np.uint64(0x100000001B3)  # FNV prime, odd


def _modinv_pow2_64(a: int) -> int:
    """Inverse of odd ``a`` mod 2^64 (Newton iteration)."""
    x = a  # correct mod 2^3
    for _ in range(5):
        x = (x * (2 - a * x)) & 0xFFFFFFFFFFFFFFFF
    return x


_POLY_BINV = np.uint64(_modinv_pow2_64(int(_POLY_B)))


def gear_cut_points(data: np.ndarray, doc_offsets: np.ndarray) -> list[np.ndarray]:
    """Per-doc content-defined cut points over concatenated UTF-8 bytes.

    ``data`` is the flat uint8 buffer, ``doc_offsets`` the int64 doc
    boundaries (len = n_docs + 1). The Gear recurrence
    ``h_i = 2·h_{i-1} + G[b_i] (mod 2^64)`` expands to
    ``h_i = Σ_{s<64} G[b_{i-s}]·2^s`` because contributions shift out
    of the 64-bit word exactly — so the hash of EVERY position comes
    from 64 shifted vector adds (masked at doc starts, where the
    window truncates), no per-byte loop. Only the min/max walk over
    the sparse candidate list is per-doc Python (O(#chunks) total).

    Returns a list of per-doc ABSOLUTE cut positions (excluding 0,
    including the doc end).
    """
    global _GEAR_G
    if _GEAR_G is None:
        _GEAR_G = _gear_table()
    G = _GEAR_G
    n = len(data)
    n_docs = len(doc_offsets) - 1
    out: list[np.ndarray] = []
    if n == 0:
        return [np.empty(0, np.int64) for _ in range(n_docs)]
    lens = np.diff(doc_offsets)
    rel = np.arange(n, dtype=np.int64) - np.repeat(doc_offsets[:-1], lens)
    g = G[data]
    # positions within WINDOW bytes of their doc start, sorted by rel:
    # pos_sorted[:counts[s]] is exactly {p : rel[p] < s} for any s, so
    # the per-step doc-boundary mask is a sparse gather, not an
    # O(n) boolean pass (round-4 review: the zeros+copy+mask version
    # made ~4 full-buffer passes per step; this makes 1 + O(#heads))
    head = np.flatnonzero(rel < _GEAR_WINDOW)
    order = np.argsort(rel[head], kind="stable")
    pos_sorted = head[order]
    counts = np.searchsorted(rel[head][order], np.arange(_GEAR_WINDOW + 1))
    acc = g.copy()  # s = 0 term; rel < 0 is impossible, no mask
    with np.errstate(over="ignore"):
        for s in range(1, min(_GEAR_WINDOW, n)):
            su = np.uint64(s)
            acc[s:] += g[:-s] << su
            # undo the adds that crossed a doc start (rel < s, p >= s)
            bad = pos_sorted[: counts[s]]
            bad = bad[bad >= s]
            acc[bad] -= g[bad - s] << su
    is_cut = (acc >> np.uint64(64 - GEAR_KBITS)) == 0
    for d in range(n_docs):
        a, b = int(doc_offsets[d]), int(doc_offsets[d + 1])
        dlen = b - a
        if dlen == 0:
            out.append(np.empty(0, np.int64))
            continue
        # candidate cut AFTER byte i → position i+1 (doc-relative)
        cands = np.nonzero(is_cut[a:b])[0] + 1
        cuts = []
        last = 0
        while last < dlen:
            j = np.searchsorted(cands, last + GEAR_MIN)
            if j < len(cands) and cands[j] - last <= GEAR_MAX:
                nxt = int(cands[j])
            else:
                nxt = min(last + GEAR_MAX, dlen)
            cuts.append(nxt)
            last = nxt
        out.append(np.asarray(cuts, dtype=np.int64) + a)
    return out


def _chunk_hashes(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Content hash per chunk: splitmix64 of the polynomial prefix
    difference — ``H([s,e)) = (S[e−1] − S[s−1])·B^(e−1)`` with
    ``S[i] = Σ b_j·B^(−j)`` — three cumulative passes over the flat
    bytes, then one gather per chunk. Non-cryptographic; random
    collisions ≈ n²/2^64 (documented contract, same class as the
    engine's other 64-bit content keys)."""
    from ..functions.hashing import splitmix64

    n = len(data)
    if n == 0:
        return np.empty(0, np.uint64)
    with np.errstate(over="ignore"):
        binv_pw = np.multiply.accumulate(
            np.full(n, _POLY_BINV, dtype=np.uint64)
        )
        binv_pw = np.r_[np.uint64(1), binv_pw[:-1]]  # B^(-j), j from 0
        S = np.cumsum(data.astype(np.uint64) * binv_pw)
        pw = np.multiply.accumulate(np.full(n, _POLY_B, dtype=np.uint64))
        pw = np.r_[np.uint64(1), pw[:-1]]  # B^j
        Sprev = np.r_[np.uint64(0), S[:-1]]
        h = (S[ends - 1] - Sprev[starts]) * pw[ends - 1]
        # fold the length in so [s,e) and a zero-padded variant differ
        return splitmix64(h ^ splitmix64((ends - starts).astype(np.uint64)))


def dedup_gear_chunks(sf_dir: str) -> pd.DataFrame:
    """Content-defined chunking dedup (FastCDC/Gear family): split every
    document's UTF-8 bytes at content-derived boundaries, hash each
    chunk, and report per-source duplication — how many chunk
    occurrences (and bytes) appear ≥2 times CORPUS-WIDE. Unlike
    fixed-stride ``chunk_documents``, an insertion only reshuffles the
    chunks around the edit, so shared passages dedup across documents.

    Distributed shape: workers chunk + hash + pre-aggregate
    (hash, source) partials per batch; partials route ONCE by hash
    (bucketed keyed exchange, never per-hash groups);
    each bucket resolves global per-hash counts with one segmented
    pass and emits per-source partials; a terminal tiny groupby(source)
    folds ≤#sources×P rows. Rows-only by design (rolling hashes have
    no SQL twin); pinned by a scalar-reference parity test, chunk
    reconstruction/size invariants, and layout-invariance tests.
    """
    import pyarrow.compute as _pc

    ds = read_table(sf_dir, "documents", columns=["text", "source"])

    def pairs(batch: pa.Table) -> pa.Table | None:
        texts = batch.column("text")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = _pc.fill_null(texts, "")
        binv = texts.cast(pa.binary())
        n_rows = len(binv)
        bufs = binv.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int32)[
            binv.offset : binv.offset + n_rows + 1
        ].astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] else np.empty(0, np.uint8)
        base = offs[0]
        data = data[base : offs[-1]]
        offs = offs - base
        cut_lists = gear_cut_points(data, offs)
        n_chunks = np.array([len(c) for c in cut_lists], dtype=np.int64)
        if int(n_chunks.sum()) == 0:
            return None
        ends = np.concatenate([c for c in cut_lists if len(c)])
        doc_of = np.repeat(np.arange(n_rows, dtype=np.int64), n_chunks)
        starts = np.where(
            np.r_[True, doc_of[1:] != doc_of[:-1]],
            offs[doc_of],
            np.r_[np.int64(0), ends[:-1]],
        )
        h = _chunk_hashes(data, starts, ends)
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table(
            {
                "h": pa.array(h),
                "source": _pc.fill_null(src, "").take(pa.array(doc_of)),
                "len": pa.array((ends - starts).astype(np.int64)),
            }
        )
        # per-batch combiner: (h, source) partials
        g = t.group_by(["h", "source"]).aggregate(
            [("len", "count"), ("len", "sum")]
        )
        return pa.table(
            {
                "h": g["h"],
                "source": g["source"],
                "n": g["len_count"].cast(pa.int64()),
                "bytes": g["len_sum"].cast(pa.int64()),
            }
        )

    def fold(part: pa.Table) -> pa.Table:
        h = part["h"].to_numpy(zero_copy_only=False)
        n = part["n"].to_numpy(zero_copy_only=False)
        byts = part["bytes"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs = h[order]
        seg = np.r_[True, hs[1:] != hs[:-1]]
        seg_id = np.cumsum(seg) - 1
        tot = np.zeros(int(seg_id[-1]) + 1, dtype=np.int64)
        np.add.at(tot, seg_id, n[order])
        dup = tot[seg_id] > 1  # occurrence is duplicated corpus-wide
        t = pa.table(
            {
                "source": part["source"].take(pa.array(order)),
                "n_chunks": pa.array(n[order]),
                "dup_chunks": pa.array(np.where(dup, n[order], 0)),
                "total_bytes": pa.array(byts[order]),
                "dup_bytes": pa.array(np.where(dup, byts[order], 0)),
            }
        )
        g = t.group_by("source").aggregate(
            [
                ("n_chunks", "sum"),
                ("dup_chunks", "sum"),
                ("total_bytes", "sum"),
                ("dup_bytes", "sum"),
            ]
        )
        return g.rename_columns(
            ["source", "n_chunks", "dup_chunks", "total_bytes", "dup_bytes"]
        )

    df = (
        bucket_fold(
            ds, "h", pairs, fold,
            pa.schema(
                [("source", pa.string())]
                + [(c, pa.int64())
                   for c in ("n_chunks", "dup_chunks", "total_bytes", "dup_bytes")]
            ),
            _CDC_P, pinned=False,
        )
        .groupby("source")
        .aggregate(
            Sum("n_chunks", alias_name="n_chunks"),
            Sum("dup_chunks", alias_name="dup_chunks"),
            Sum("total_bytes", alias_name="total_bytes"),
            Sum("dup_bytes", alias_name="dup_bytes"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df,
        {
            "source": "object",
            "n_chunks": "int64",
            "dup_chunks": "int64",
            "total_bytes": "int64",
            "dup_bytes": "int64",
        },
    )
    for c in ("n_chunks", "dup_chunks", "total_bytes", "dup_bytes"):
        df[c] = df[c].astype("int64")
    return df.sort_values("source").reset_index(drop=True)
