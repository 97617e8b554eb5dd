"""Deterministic hash kernels, vectorized with numpy.

- ``fnv64``: FNV-1a 64-bit — the frontier partitioning / URL-seen key
  required by the north rule. Vectorized column-wise: instead of a
  per-byte Python loop we walk byte *positions* and update every string
  in the batch at once with uint64 wraparound arithmetic, so cost is
  O(max_len) numpy kernels per batch, not O(total_bytes) Python ops.
- ``splitmix64``: cheap stateless mixer used to derive independent
  hash families (minhash permutations, bloom probes, salts).
- ``hash_family`` / ``simhash64``: vectorized signature kernels for the
  dedup pipelines (a MinHash signature is the column minima of a
  ``hash_family`` table).

All functions are pure and seed-stable: outputs are part of the
checkpoint format, so NOTHING here may depend on PYTHONHASHSEED, dict
order or wall clock.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FNV64_OFFSET = np.uint64(0xCBF29CE484222325)
FNV64_PRIME = np.uint64(0x100000001B3)


def _as_byte_matrix(strings) -> tuple[np.ndarray, np.ndarray]:
    """Encode a sequence/array of strings to a padded uint8 matrix + lengths.

    One vectorized scatter from the concatenated byte buffer — no
    per-string numpy calls.
    """
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if isinstance(strings, pa.Array) and pa.types.is_string(strings.type):
        # zero-copy from the arrow offsets/data buffers — no per-string
        # Python encode for arrow inputs (URL batches are millions/run)
        arr = strings
        if arr.null_count:
            import pyarrow.compute as pc

            arr = pc.fill_null(arr, "")
        n = len(arr)
        bufs = arr.buffers()
        offsets = np.frombuffer(bufs[1], dtype=np.int32)[
            arr.offset : arr.offset + n + 1
        ].astype(np.int64)
        data = (
            np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None
            else np.empty(0, dtype=np.uint8)
        )
        lengths = offsets[1:] - offsets[:-1]
        max_len = int(lengths.max()) if n else 0
        mat = np.zeros((n, max_len), dtype=np.uint8)
        total = int(lengths.sum())
        if total:
            rows = np.repeat(np.arange(n), lengths)
            out_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            cols = np.arange(total) - np.repeat(out_starts, lengths)
            src = np.repeat(offsets[:-1], lengths) + cols
            mat[rows, cols] = data[src]
        return mat, lengths
    encoded = [s.encode("utf-8") if s is not None else b"" for s in strings]
    n = len(encoded)
    lengths = np.fromiter((len(b) for b in encoded), dtype=np.int64, count=n)
    max_len = int(lengths.max()) if n else 0
    mat = np.zeros((n, max_len), dtype=np.uint8)
    if max_len:
        buf = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        rows = np.repeat(np.arange(n), lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        cols = np.arange(len(buf)) - np.repeat(starts, lengths)
        mat[rows, cols] = buf
    return mat, lengths


def fnv64(strings) -> np.ndarray:
    """FNV-1a 64-bit over UTF-8 bytes, vectorized. Returns uint64 ndarray.

    Duplicate-heavy inputs (host columns over a bounded host pool,
    re-offered link URLs, templated media refs) are dictionary-encoded
    first: the byte-matrix hash runs once per DISTINCT string and a
    C-kernel gather fans results back out. Byte-identical either way."""
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if (
        isinstance(strings, pa.Array)
        and pa.types.is_string(strings.type)
        and len(strings) >= 256
        and not strings.null_count
    ):
        enc = strings.dictionary_encode()
        uniq = enc.dictionary
        if len(uniq) * 4 <= len(strings) * 3:  # ≥25% duplication
            h_uniq = fnv64(uniq)
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            return h_uniq[idx]
    mat, lengths = _as_byte_matrix(strings)
    n, max_len = mat.shape
    h = np.full(n, FNV64_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        for j in range(max_len):
            active = lengths > j
            if not active.any():
                break
            hj = h[active]
            hj = (hj ^ mat[active, j].astype(np.uint64)) * FNV64_PRIME
            h[active] = hj
    return h


def fnv64_one(s: str) -> int:
    """Scalar FNV-1a 64 (reference implementation; must equal fnv64)."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_M64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """SplitMix64 finalizer — derives independent hash values from uint64.

    Scalar inputs take a pure-int path (hot in the fetch simulator);
    arrays go through numpy with wraparound.
    """
    if isinstance(x, (int, np.integer)):
        z = (int(x) + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def hash_family(values: np.ndarray, k: int) -> np.ndarray:
    """k independent uint64 hashes per value: shape (len(values), k).

    h_i(x) = splitmix64(x ^ splitmix64(i+1)) — one numpy pass per family
    member.
    """
    values = np.asarray(values, dtype=np.uint64)
    out = np.empty((len(values), k), dtype=np.uint64)
    for i in range(k):
        seed = np.uint64(splitmix64(i + 1))
        out[:, i] = splitmix64(values ^ seed)
    return out


def shingle_hashes(tokens: list[str], n: int = 3) -> np.ndarray:
    """uint64 hashes of word n-gram shingles of a token list."""
    if len(tokens) < n:
        joined = [" ".join(tokens)] if tokens else []
    else:
        joined = [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    if not joined:
        return np.empty(0, dtype=np.uint64)
    return fnv64(joined)


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash of token hashes (optionally weighted)."""
    if len(token_hashes) == 0:
        return 0
    bits = ((token_hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    )
    signed = bits * 2 - 1
    if weights is not None:
        signed = signed * weights[:, None].astype(np.int64)
    acc = signed.sum(axis=0)
    out = np.uint64(0)
    for b in range(64):
        if acc[b] > 0:
            out |= np.uint64(1) << np.uint64(b)
    return int(out)


def hamming64(a: np.ndarray, b: int) -> np.ndarray:
    """Hamming distance between uint64 array and a scalar uint64."""
    x = np.asarray(a, dtype=np.uint64) ^ np.uint64(b)
    # popcount via unpackbits on the byte view
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def hamming64_pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between two uint64 arrays."""
    x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def simhash64_batch(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row 64-bit SimHash of whitespace tokens for a WHOLE text
    column: identical values to ``simhash64(fnv64((text or
    '').split()))`` per row, but tokenization (split_whitespace),
    hashing (one fnv64 call) and the per-bit votes (np.add.reduceat
    over a signed bit matrix) all run as batch kernels. Empty rows
    hash to 0, matching the scalar path."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count:
        texts = pc.fill_null(texts, "")
    toks = pc.utf8_split_whitespace(texts)
    n_rows = len(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = toks.values
    # Arrow's split keeps empty tokens at string edges; str.split() does
    # not — drop them so both paths tokenize identically
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    if not keep.all():
        flat = flat.filter(pa.array(keep))
        parents = parents[keep]
    lens = np.bincount(parents, minlength=n_rows).astype(np.int64)
    out = np.zeros(n_rows, dtype=np.uint64)
    if not len(flat):
        return out
    h = fnv64(flat)
    starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    nz = np.flatnonzero(lens > 0)
    pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
    # the signed bit matrix is (tokens × 64) int32 — slice the row range
    # so it stays ~64 MB regardless of how token-dense the batch is
    chunk_tokens = 1 << 18
    row_lo = 0
    while row_lo < len(nz):
        row_hi = row_lo
        tok_lo = starts[nz[row_lo]]
        tok_hi = tok_lo
        while row_hi < len(nz) and tok_hi - tok_lo < chunk_tokens:
            tok_hi = starts[nz[row_hi]] + lens[nz[row_hi]]
            row_hi += 1
        rows = nz[row_lo:row_hi]
        hh = h[tok_lo:tok_hi]
        signed = (
            ((hh[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int32)
            * 2
            - 1
        )
        acc = np.add.reduceat(signed, starts[rows] - tok_lo, axis=0)
        out[rows] = ((acc > 0).astype(np.uint64) * pow2).sum(axis=1)
        row_lo = row_hi
    return out


def shingle_hashes_batch(
    texts: pa.Array | pa.ChunkedArray, n: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Word n-gram shingle hashes for a WHOLE text column at once:
    (uint64 values, int64 row offsets). Identical values to calling
    ``shingle_hashes(text.split(), n)`` per row — the shingle strings
    are materialized by C kernels (split_whitespace + element-wise
    join) and hashed in ONE ``fnv64`` call, so the per-row Python of
    the scalar path (string slicing + joins) never runs."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count:
        texts = pc.fill_null(texts, "")
    toks = pc.utf8_split_whitespace(texts)
    n_rows = len(toks)
    # Arrow's split keeps empty tokens at string edges; str.split() does
    # not — drop them so both paths tokenize identically
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = toks.values
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    if not keep.all():
        flat = flat.filter(pa.array(keep))
        parents = parents[keep]
    lens = np.bincount(parents, minlength=n_rows).astype(np.int64)
    offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])

    # rows with ≥ n tokens emit len - n + 1 shingles; shorter non-empty
    # rows emit ONE shingle (all tokens joined); empty rows emit none
    full = np.maximum(lens - n + 1, 0)
    short = (lens > 0) & (lens < n)
    out_lens = full + short.astype(np.int64)

    # n-gram starts for the full rows: flat indices offs[r] .. offs[r]+full[r)
    row_of = np.repeat(np.arange(n_rows), full)
    within = np.arange(int(full.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(full) - full, full
    )
    starts = offs[:-1][row_of] + within
    cols = [flat.take(pa.array(starts + j)) for j in range(n)]
    grams = pc.binary_join_element_wise(*cols, pa.scalar(" "))

    if short.any():
        short_rows = np.nonzero(short)[0]
        clean = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), flat)
        joined = pc.binary_join(
            clean.take(pa.array(short_rows)), pa.scalar(" ")
        )
        # interleave: shingle stream is ordered by row, so concat the
        # two streams and re-sort by (row, position)
        g_row = np.concatenate([row_of, short_rows])
        g_pos = np.concatenate([within, np.zeros(len(short_rows), np.int64)])
        all_grams = pa.concat_arrays([grams, joined])
        order = np.lexsort((g_pos, g_row))
        all_grams = all_grams.take(pa.array(order))
    else:
        all_grams = grams

    values = fnv64(all_grams)
    out_offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_offs[1:])
    return values, out_offs
