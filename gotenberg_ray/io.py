"""Table IO seam — every dataset read/write in the engine goes through
here, for two reasons:

1. **Storage-format swap point.** The north rule names Lance tables;
   ``import lance`` fails in this container (verified), so the engine
   runs on parquet. The Lance adapter is nonetheless REAL, gated code:
   :func:`read_table` dispatches to ``ray.data.read_lance`` when the
   package imports and a ``{table}.lance`` dataset exists, and
   :func:`write_table` takes ``format='lance'`` — on a production
   cluster with the lance wheel, no caller changes.

2. **Size-proportional block policy.** Ray's default parallelism
   splits even a tiny file into ~64 blocks (2 × cores); every
   downstream all-to-all (groupby / sort / the bucketed hash join)
   then schedules O(blocks × partitions) tiny tasks whose fixed
   scheduling latency dwarfs the data movement — measured 4.7 s → 0.4 s
   on one sf0.1 join by sizing blocks to the input. Policy: one block
   per ~``TARGET_BLOCK_BYTES`` of file, clamped to [2, 512]. At 100 TB
   the same rule yields thousands of blocks — the correct production
   behavior — while small inputs stop paying a 100-task fixed cost.
"""

from __future__ import annotations

import logging
import os

import ray.data as rd


class _EmptyBundleSchemaFilter(logging.Filter):
    """Drop ONE known-benign Ray Data warning: a pinned-partition-count
    shuffle (``groupby(..., num_partitions=P).map_groups``, the bucketed
    hash-join posture) legitimately yields schema-LESS empty blocks for
    unoccupied partitions, and the streaming executor warns "Operator
    produced a RefBundle with a different schema ... new schema: ."
    once per such block. The empty new schema carries no rows, so the
    divergence cannot affect values; real divergences (both schemas
    non-empty) still log."""

    _NEEDLE = "new schema: . This may lead to unexpected behavior"

    def filter(self, record: logging.LogRecord) -> bool:  # pragma: no cover
        try:
            return self._NEEDLE not in record.getMessage()
        except Exception:
            return True


logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
).addFilter(_EmptyBundleSchemaFilter())

TARGET_BLOCK_BYTES = 32 << 20  # ~32 MB of parquet per block
_MIN_BLOCKS = 2
_MAX_BLOCKS = 512  # single-node cap; a multi-node cluster raises it


def blocks_for(path: str) -> int:
    """Block count ∝ on-disk size (clamped)."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return _MIN_BLOCKS
    return max(_MIN_BLOCKS, min(_MAX_BLOCKS, size // TARGET_BLOCK_BYTES + 1))


def table_rows(sf_dir: str, table: str) -> int:
    """Row count from the parquet footer — no Dataset execution (a
    ``ds.count()`` after any transform runs the whole read)."""
    import pyarrow.parquet as _pq

    return int(_pq.ParquetFile(table_path(sf_dir, table)).metadata.num_rows)


def table_path(sf_dir: str, table: str) -> str:
    return f"{sf_dir}/{table}.parquet"


def lance_available() -> bool:
    """True iff the ``lance`` package imports in this environment.
    The north rule names Lance tables; this container has no lance
    wheel (verified each round), so the engine runs on parquet — but
    the adapter below is REAL code, not a comment: on a cluster with
    lance installed, a ``{table}.lance`` dataset directory next to (or
    instead of) the parquet file is read natively with the same column
    pruning, and ``write_table(format='lance')`` lands Lance."""
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def _lance_path(sf_dir: str, table: str) -> str:
    return f"{sf_dir}/{table}.lance"


def parallelism_hint() -> int:
    """Cluster CPU count (fallback 8) — the block floor for reads that
    feed CPU-bound per-row compute (tokenize/hash/matmul), where one
    task per block means block count caps core utilization."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 8)) or 8
    except Exception:
        return 8


def read_table(
    sf_dir: str,
    table: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
    min_blocks: int | None = None,
) -> rd.Dataset:
    """Columnar-pruned read with size-proportional block count.

    ``min_blocks``: floor for compute-bound consumers (pass
    ``parallelism_hint()``); shuffle-bound consumers omit it so tiny
    inputs don't pay a 100-task all-to-all.

    Storage dispatch: a ``{table}.lance`` dataset directory wins when
    the lance package is importable (the north rule's native format);
    otherwise the parquet file. Both honor ``columns`` pruning."""
    lp = _lance_path(sf_dir, table)
    if lance_available() and os.path.isdir(lp):
        return rd.read_lance(lp, columns=columns)
    path = table_path(sf_dir, table)
    nb = num_blocks or blocks_for(path)
    if min_blocks:
        nb = max(nb, min_blocks)
    # pandas-written parquet carries b'pandas' schema metadata, and
    # hash(pa.Schema) raises "unhashable type: 'dict'" on it — Ray's
    # block concat then logs a schema-dedup warning inside every
    # multi-fragment read task and every downstream unify. Handing
    # read_parquet an explicit metadata-free schema (one footer read
    # on the driver) keeps every block schema clean and hashable.
    schema = None
    try:
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        schema = _pq.read_schema(path).remove_metadata()
        if columns is not None:
            # the explicit schema must match the projection
            schema = _pa.schema([schema.field(c) for c in columns])
    except Exception:  # noqa: BLE001 — fall back to inference
        schema = None
    return rd.read_parquet(
        path, columns=columns, override_num_blocks=nb, schema=schema
    )


def read_rows_filtered(
    sf_dir: str,
    table: str,
    columns: list[str] | None,
    key: str,
    values: list,
) -> "object":
    """Small keyed row fetch (``key IN values``) with predicate
    pushdown, honoring the SAME lance/parquet storage dispatch as
    :func:`read_table` — the ANN query-vector grabs previously
    hardcoded the parquet path and would crash on a lance-native store
    (review-found). Returns a pyarrow Table; only the matching rows'
    row groups/fragments leave storage."""
    import pyarrow.parquet as _pq

    lp = _lance_path(sf_dir, table)
    if lance_available() and os.path.isdir(lp):  # pragma: no cover — no wheel
        import lance

        ds = lance.dataset(lp)
        vals = ", ".join(repr(v) for v in values)
        return ds.to_table(columns=columns, filter=f"{key} IN ({vals})")
    return _pq.read_table(
        table_path(sf_dir, table),
        columns=columns,
        filters=[(key, "in", list(values))],
    )


def write_table(ds: rd.Dataset, path: str, format: str = "parquet", **kwargs) -> None:
    """Partitioned sink (one file per block — resumable). ``format=
    'lance'`` lands a Lance dataset when the package is present; the
    explicit ValueError (rather than a parquet fallback) keeps a
    misconfigured production run from silently writing the wrong
    format."""
    if format == "lance":
        if not lance_available():  # pragma: no cover — no lance wheel here
            raise ValueError(
                "write_table(format='lance') needs the lance package; "
                "this environment has none (io.py seam note)"
            )
        ds.write_lance(path, **kwargs)  # pragma: no cover
        return
    ds.write_parquet(path, **kwargs)


def read_csv(
    path: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> rd.Dataset:
    """CSV source, same block policy; ``columns`` projects post-read
    (CSV is row-major — no decoder pruning exists to push into)."""
    nb = num_blocks or blocks_for(path)
    ds = rd.read_csv(path, override_num_blocks=nb)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def write_partitioned(
    ds: rd.Dataset,
    path: str,
    key: str,
    num_partitions: int = 32,
    direct: bool = False,
    append: bool = False,
) -> dict:
    """Resumable partitioned sink: rows are hash-bucketed on ``key``
    into ``num_partitions`` directories, each written atomically (data
    file first, then a ``_COMPLETE`` marker). A re-run after a kill
    SKIPS every directory whose marker exists — only missing buckets
    recompute, so a failed 100 TB job resumes at the partition
    granularity instead of restarting (the brief's resumable-output
    contract; same marker protocol as ``frontier/checkpoint.py``).

    The write happens INSIDE the bucket groups (workers write their own
    partition; the driver sees only per-bucket row counts). Bucket ids
    are content-deterministic (``mix64(key) % P``), so a resume run
    routes every row to the same directory it targeted before.
    Directory names avoid ``key=value`` so a plain ``read_parquet``
    never hive-infers a phantom partition column.

    ``direct=True`` uses the key VALUE itself (mod num_partitions) as
    the bucket id instead of its hash — for layout-aware sinks (z-order
    cells, label partitions) where the caller needs a value→directory
    mapping it can prune on at read time.

    ``append=True`` switches to incremental-ingest semantics: each run
    adds a NEW ``part-<g>.parquet`` per non-empty bucket, where ``g``
    is the LAYOUT-LEVEL landing generation (a ``_GEN`` counter file
    the driver advances once per landing) — one uniform generation
    number per landing across every bucket, so ``as_of=k`` snapshots
    stay consistent even when a landing hashes no rows into some
    bucket or a compaction collapsed earlier parts (per-bucket file
    COUNTS skewed exactly there — review-found). The ``_COMPLETE``
    marker's row count accumulates; ``compact_partitioned`` later
    folds the small files."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .pipelines.joins import partition_ids

    os.makedirs(path, exist_ok=True)
    done = set()
    all_marker = os.path.join(path, "_ALL_COMPLETE")
    generation = 0
    if not append:
        if os.path.exists(all_marker):
            # fully-written layout: short-circuit BEFORE the Dataset
            # executes — a no-op resume must not pay the corpus scan.
            # The layout-level marker (written after a full successful
            # run) covers layouts where some buckets legitimately
            # received no rows, which the per-bucket count below never
            # could (review-found: such layouts re-scanned forever)
            with open(all_marker) as f:
                n_done = int(f.read() or 0)
            return {
                "written_buckets": 0,
                "written_rows": 0,
                "skipped_buckets": n_done,
            }
        done = {
            int(d.split("-")[1])
            for d in os.listdir(path)
            if d.startswith("bucket-")
            and os.path.exists(os.path.join(path, d, "_COMPLETE"))
        }
        if len(done) >= num_partitions:
            return {
                "written_buckets": 0,
                "written_rows": 0,
                "skipped_buckets": len(done),
            }
    else:
        gen_file = os.path.join(path, "_GEN")
        if os.path.exists(gen_file):
            with open(gen_file) as f:
                generation = int(f.read() or 0)
        else:
            # legacy/first landing: infer from the highest existing
            # part index across buckets (compaction without _GEN is
            # the documented time-travel forfeit)
            hi = -1
            for d in os.listdir(path):
                if not d.startswith("bucket-"):
                    continue
                for f_ in os.listdir(os.path.join(path, d)):
                    if f_.startswith("part-") and f_.endswith(".parquet"):
                        try:
                            hi = max(hi, int(f_[5:-8]))
                        except ValueError:
                            pass
            generation = hi + 1

    def tag(batch: pa.Table) -> pa.Table:
        if direct:
            vals = batch.column(key).to_numpy(zero_copy_only=False)
            pid = pa.array((vals % num_partitions).astype(np.int32))
        else:
            pid = partition_ids(batch.column(key), num_partitions)
        batch = batch.append_column("__bucket__", pid)
        if done:  # resume: finished buckets never re-enter the shuffle
            keep = ~np.isin(pid.to_numpy(zero_copy_only=False), list(done))
            batch = batch.filter(pa.array(keep))
        return batch

    def write_bucket(part: pa.Table) -> pa.Table:
        bid = int(part["__bucket__"][0].as_py())
        part = part.drop_columns(["__bucket__"])
        bdir = os.path.join(path, f"bucket-{bid}")
        os.makedirs(bdir, exist_ok=True)
        prior = 0
        if append:
            # uniform landing generation across buckets (driver-decided)
            fname = f"part-{generation}.parquet"
            marker = os.path.join(bdir, "_COMPLETE")
            if os.path.exists(marker):
                with open(marker) as f:
                    prior = int(f.read() or 0)
        else:
            fname = "part.parquet"
        # Two-phase write: a kill mid-write must never leave a torn
        # parquet under a name read_partitioned includes (append-mode
        # buckets already carry a _COMPLETE marker from prior landings,
        # so the marker alone can't shield a torn part-<k>.parquet).
        tmp = os.path.join(bdir, f"_{fname}.tmp")
        pq.write_table(part, tmp)
        os.replace(tmp, os.path.join(bdir, fname))
        with open(os.path.join(bdir, "_COMPLETE"), "w") as f:
            f.write(str(prior + part.num_rows))
        return pa.table({"bucket": [bid], "rows": [part.num_rows]})

    written = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket__", num_partitions=num_partitions)
        .map_groups(write_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    if append:
        # advance the landing generation ONLY after every bucket's
        # two-phase write completed — a killed landing re-lands under
        # the SAME generation (its finished buckets' part-<g> files are
        # atomically replaced, never duplicated)
        tmp = os.path.join(path, "_GEN.tmp")
        with open(tmp, "w") as f:
            f.write(str(generation + 1))
        os.replace(tmp, os.path.join(path, "_GEN"))
    else:
        # layout-level completion marker: records how many buckets the
        # finished layout holds so a no-op resume can short-circuit
        # even when some buckets received no rows
        n_buckets = len(
            [d for d in os.listdir(path) if d.startswith("bucket-")]
        )
        tmp = all_marker + ".tmp"
        with open(tmp, "w") as f:
            f.write(str(n_buckets))
        os.replace(tmp, all_marker)
    return {
        "written_buckets": len(written),
        "written_rows": int(written["rows"].sum()) if len(written) else 0,
        "skipped_buckets": len(done),
    }


def read_partitioned(
    path: str,
    columns: list[str] | None = None,
    as_of: int | None = None,
) -> rd.Dataset:
    """Read back a ``write_partitioned`` directory (complete buckets
    only — a half-written bucket without its marker is invisible; all
    ``part-*.parquet`` files of an append-mode bucket are included).

    ``as_of``: time travel over append-mode landings. Each append run
    lands exactly one ``part-<k>.parquet`` per non-empty bucket, so
    generation k of the table is the union of parts 0..k-1;
    ``as_of=k`` reads only those, reproducing the table as it stood
    after the k-th landing. Compaction collapses history into
    ``compacted.parquet`` (documented trade: OPTIMIZE forfeits
    time travel for the compacted range, as lakehouse engines do when
    snapshots expire)."""

    def keep(f: str) -> bool:
        if not f.endswith(".parquet"):
            return False
        if as_of is None:
            return True
        if not f.startswith("part-"):
            return False  # compacted/legacy files have no generation
        try:
            return int(f[len("part-") : -len(".parquet")]) < as_of
        except ValueError:
            return False

    files = [
        os.path.join(path, d, f)
        for d in sorted(os.listdir(path))
        if d.startswith("bucket-")
        and os.path.exists(os.path.join(path, d, "_COMPLETE"))
        for f in sorted(os.listdir(os.path.join(path, d)))
        if keep(f)
    ]
    return rd.read_parquet(files, columns=columns)


def compact_partitioned(path: str) -> dict:
    """Small-file compaction over a ``write_partitioned`` directory —
    the lakehouse OPTIMIZE step: every complete bucket holding more
    than one ``part-*.parquet`` (append-mode landings) is rewritten as
    ONE file.

    Distributed shape: each bucket compacts independently (a Dataset
    of bucket descriptors fans out over the pool — per-bucket work
    never leaves its worker, the driver sees one summary row per
    bucket). Crash-safe per bucket via a manifest + two-phase rename:

    1. ``_compact.manifest`` records EXACTLY which files the merge
       supersedes (so a part appended between a crash and the healing
       re-run is never touched);
    2. the merged file lands as ``_compact.tmp`` (possibly torn on a
       crash — always discarded), then renames to ``_compact.ready``
       (complete by construction);
    3. the manifest's files are unlinked and ready promotes to
       ``compacted.parquet`` — a name neither write mode ever emits,
       so a healing promote can't clobber a post-crash append.

    A re-run heals any interrupted bucket: manifest without ready →
    the merge never completed, drop the manifest; ready + manifest →
    finish steps 3 exactly as the crashed run would have."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    buckets = [
        os.path.join(path, d)
        for d in sorted(os.listdir(path))
        if d.startswith("bucket-")
        and os.path.exists(os.path.join(path, d, "_COMPLETE"))
    ]
    if not buckets:
        return {"compacted_buckets": 0, "removed_files": 0, "rows": 0}

    def _promote(bdir: str, ready: str, manifest: str) -> tuple[int, int]:
        """Steps 3: unlink exactly the superseded files, promote."""
        with open(manifest) as f:
            superseded = [ln for ln in f.read().splitlines() if ln]
        for f_ in superseded:
            p_ = os.path.join(bdir, f_)
            if os.path.exists(p_):
                os.unlink(p_)
        n_rows = pq.read_metadata(ready).num_rows
        os.replace(ready, os.path.join(bdir, "compacted.parquet"))
        os.unlink(manifest)
        return len(superseded), n_rows

    def compact_one(batch: pa.Table) -> pa.Table:
        out = []
        for bdir in batch["bdir"].to_pylist():
            tmp = os.path.join(bdir, "_compact.tmp")
            ready = os.path.join(bdir, "_compact.ready")
            manifest = os.path.join(bdir, "_compact.manifest")
            if os.path.exists(tmp):  # torn write from a crash
                os.unlink(tmp)
            if os.path.exists(ready) and os.path.exists(manifest):
                n_files, n_rows = _promote(bdir, ready, manifest)  # heal
                out.append((bdir, n_files, n_rows))
                continue
            if os.path.exists(manifest):  # merge never completed
                os.unlink(manifest)
            if os.path.exists(ready):  # manifest lost: superseded set
                os.unlink(ready)  # unknown — discard, re-merge below
            parts = sorted(
                f
                for f in os.listdir(bdir)
                if f.endswith(".parquet") and not f.startswith("_")
            )
            if len(parts) <= 1:
                continue
            merged = pa.concat_tables(
                [pq.read_table(os.path.join(bdir, f)) for f in parts]
            )
            with open(manifest, "w") as f:
                f.write("\n".join(parts))
            pq.write_table(merged, tmp)
            os.replace(tmp, ready)
            n_files, n_rows = _promote(bdir, ready, manifest)
            out.append((bdir, n_files, n_rows))
        return pa.table(
            {
                "bdir": pa.array([o[0] for o in out]),
                "n_files": pa.array([o[1] for o in out], pa.int64()),
                "rows": pa.array([o[2] for o in out], pa.int64()),
            }
        )

    res = (
        rd.from_items([{"bdir": b} for b in buckets])
        .map_batches(compact_one, batch_format="pyarrow", batch_size=1)
        .to_pandas()
    )
    return {
        "compacted_buckets": len(res),
        "removed_files": int((res["n_files"] - 1).sum()) if len(res) else 0,
        "rows": int(res["rows"].sum()) if len(res) else 0,
    }


def scratch_layout_path(kind: str, sf_dir: str, table: str) -> str:
    """Scratch directory for a derived layout (index / bucketed /
    z-order), keyed by the SOURCE TABLE's identity — absolute path +
    size + mtime — so same-basename corpora get distinct layouts and
    an in-place regeneration invalidates rather than silently reuses
    the stale one."""
    from .functions.hashing import fnv64_one

    src = table_path(os.path.abspath(sf_dir), table)
    try:
        st = os.stat(src)
        ident = f"{src}:{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        ident = src
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return f"/tmp/gotenberg_{kind}/{tag}-{fnv64_one(ident):016x}"
