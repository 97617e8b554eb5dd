"""Per-partition crawl checkpoints on partitioned parquet.

Layout (one epoch = one atomic snapshot; the Lance-table layout of the
north rule, expressed as parquet since lance isn't in this container —
the writer below is the single place to swap the format):

    ckpt_dir/epoch=000123/
        shard_0007.parquet   # one row, zstd: the shard's state
        driver.json          # epoch counter, seq cursors, config hash
        _COMPLETE            # marker written LAST → snapshot is valid

A shard file's columns: ``partition_id``; ``cuckoo``, the seen-set's
``to_bytes`` (its occupied slots only); ``pending``, the queued URLs
(queue key and payload, in seq order), and ``buckets``, the politeness
state, each a ``list<struct>`` whose leaves parquet dictionary-encodes
and compresses column by column; ``counters`` and ``delay_hosts`` as
JSON. A snapshot's bytes therefore scale with what the shard holds, not
with the seen-set's capacity or the width of repeated strings.

Resume picks the newest epoch dir carrying ``_COMPLETE``; a run killed
mid-write leaves no marker and is skipped, so resume is always from a
consistent cut. Checkpoint equality (bytes of every shard file) is the
resume-fidelity criterion's comparator.

The snapshot is the commit point of everything a crawl writes. The
crawl's page parts (``pages/epoch=000123/part-0000.parquet``) and its
fetch log (``pages_fetch_log/epoch=000123.parquet``) are named here
too, by the epoch that wrote them. A run owns every output at or after
its start epoch (0 when fresh, the loaded snapshot's epoch on a resume)
and deletes those before its first step (``cut``), so a resume never
keeps pages, log rows or torn snapshots of a run it replaces.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

_EPOCH_DIR = re.compile(r"epoch=(\d+)")
_LOG_FILE = re.compile(r"epoch=(\d+)\.parquet")
_PAGE_PART = re.compile(r"part-\d+\.parquet")

# shard-file writer options. Dictionary pages only for the leaves with
# few distinct values: seqs, hashes, URLs and the cuckoo blob are near
# unique, where a dictionary is built only to be dropped. Min/max
# statistics serve no reader of a one-row file.
_WRITE_OPTIONS = dict(
    compression="zstd",
    use_dictionary=[
        *(
            f"pending.list.element.{c}"
            for c in ("ready_time", "priority", "host", "route", "doc_id", "options_json")
        ),
        "buckets.list.element.delay",
    ],
    write_statistics=False,
)


def _rows(table: pa.Table) -> pa.Array:
    """``table`` as a one-row ``list<struct>`` column."""
    structs = pa.StructArray.from_arrays(
        [c.combine_chunks() for c in table.columns], fields=list(table.schema)
    )
    return pa.ListArray.from_arrays(pa.array([0, len(structs)], pa.int32()), structs)


def _table(col: pa.ChunkedArray) -> pa.Table:
    return pa.Table.from_struct_array(col.combine_chunks().flatten())


def shard_state_to_table(state: dict) -> pa.Table:
    return pa.table(
        {
            "partition_id": pa.array([state["partition_id"]], pa.int32()),
            "cuckoo": pa.array([state["cuckoo"]], pa.binary()),
            "pending": _rows(state["pending"]),
            "buckets": _rows(state["buckets"]),
            "counters": pa.array([json.dumps(state["counters"], sort_keys=True)], pa.string()),
            "delay_hosts": pa.array([json.dumps(state["delay_hosts"])], pa.string()),
        }
    )


def table_to_shard_state(table: pa.Table) -> dict:
    return {
        "partition_id": table.column("partition_id")[0].as_py(),
        "cuckoo": table.column("cuckoo")[0].as_py(),
        "pending": _table(table.column("pending")),
        "buckets": _table(table.column("buckets")),
        "counters": json.loads(table.column("counters")[0].as_py()),
        "delay_hosts": json.loads(table.column("delay_hosts")[0].as_py()),
    }


def epoch_dir(root: str, epoch: int) -> str:
    """``root/epoch=NNNNNN``: a snapshot dir, or a page-part dir."""
    return os.path.join(root, f"epoch={epoch:06d}")


def page_part(pages_dir: str, epoch: int, chunk: int) -> str:
    return os.path.join(epoch_dir(pages_dir, epoch), f"part-{chunk:04d}.parquet")


def fetch_log_dir(pages_dir: str) -> str:
    """The fetch log's dir: a SIBLING of ``pages_dir``, not a child —
    ``pages_dir`` is read back as one hive-partitioned dataset, and log
    files carry an int64 ``epoch`` column that would collide with the
    string partition field during schema unification."""
    return pages_dir.rstrip("/") + "_fetch_log"


def fetch_log_file(log_dir: str, epoch: int) -> str:
    return epoch_dir(log_dir, epoch) + ".parquet"


def cut(start: int, ckpt_dir: str | None, pages_dir: str | None, keep: str | None = None) -> None:
    """Delete every output of epoch ``start`` or later: the snapshots
    under ``ckpt_dir`` except ``keep`` (the loaded one; their
    ``_COMPLETE`` markers go first, so a kill mid-sweep leaves none of
    them loadable), the page parts under ``pages_dir`` (and each epoch
    dir this empties) and the fetch-log files beside it. Other files
    stay."""

    def owned(root: str | None, pattern: re.Pattern) -> list[str]:
        return [
            os.path.join(root, e)
            for e in (os.listdir(root) if root and os.path.isdir(root) else ())
            if (m := pattern.fullmatch(e)) and int(m.group(1)) >= start
        ]

    snapshots = [d for d in owned(ckpt_dir, _EPOCH_DIR) if d != keep]
    for d in snapshots:
        if os.path.exists(os.path.join(d, "_COMPLETE")):
            os.unlink(os.path.join(d, "_COMPLETE"))
    for d in snapshots:
        shutil.rmtree(d, ignore_errors=True)
    if pages_dir is None:
        return
    for d in owned(pages_dir, _EPOCH_DIR):
        if os.path.isdir(d):
            for f in os.listdir(d):
                if _PAGE_PART.fullmatch(f):
                    os.unlink(os.path.join(d, f))
            if not os.listdir(d):
                os.rmdir(d)
    for f in owned(fetch_log_dir(pages_dir), _LOG_FILE):
        os.unlink(f)


def write(
    ckpt_dir: str,
    shard_states: list[dict],
    driver: dict,
    metrics: pa.Table | None = None,
) -> str:
    """Write the snapshot of epoch ``driver["epoch"]`` in place, with
    ``_COMPLETE`` last (a kill mid-write leaves no marker). An epoch that
    already holds a complete snapshot is refused: ``cut`` leaves a run
    none at or after its start, and the run writes each epoch once."""
    d = epoch_dir(ckpt_dir, driver["epoch"])
    if os.path.exists(os.path.join(d, "_COMPLETE")):
        raise FileExistsError(f"{d} already holds a complete snapshot")
    os.makedirs(d, exist_ok=True)
    for st in shard_states:
        pq.write_table(
            shard_state_to_table(st),
            os.path.join(d, f"shard_{st['partition_id']:04d}.parquet"),
            **_WRITE_OPTIONS,
        )
    if metrics is not None and metrics.num_rows:
        # observability only — excluded from the bit-identity digest
        # (wall clocks are not scheduler state)
        pq.write_table(metrics, os.path.join(d, "metrics.parquet"))
    with open(os.path.join(d, "driver.json"), "w") as f:
        json.dump(driver, f, sort_keys=True)
    with open(os.path.join(d, "_COMPLETE"), "w") as f:
        f.write("ok")
    return d


def latest_epoch_dir(ckpt_dir: str) -> str | None:
    if not os.path.isdir(ckpt_dir):
        return None
    epochs = []
    for e in os.listdir(ckpt_dir):
        m = _EPOCH_DIR.fullmatch(e)
        if m and os.path.exists(os.path.join(ckpt_dir, e, "_COMPLETE")):
            epochs.append((int(m.group(1)), e))
    if not epochs:
        return None
    # numeric order: lexicographic sort mis-orders once the virtual
    # epoch outgrows the %06d zero padding
    return os.path.join(ckpt_dir, max(epochs)[1])


def load_latest(ckpt_dir: str) -> dict:
    d = latest_epoch_dir(ckpt_dir)
    if d is None:
        raise FileNotFoundError(f"no complete checkpoint under {ckpt_dir}")
    shards = []
    for f in sorted(f for f in os.listdir(d) if f.startswith("shard_")):
        table = pq.ParquetFile(os.path.join(d, f)).read()
        if "heap" in table.column_names or "payloads" in table.column_names:
            raise ValueError(
                f"{d} holds a snapshot in the old shard format (heap and payloads "
                "IPC blobs, a dense cuckoo table), which this version does not "
                "read; start a fresh crawl (resume=False) into the directory"
            )
        shards.append(table_to_shard_state(table))
    with open(os.path.join(d, "driver.json")) as f:
        driver = json.load(f)
    return {"shards": shards, "driver": driver, "dir": d}


def checkpoint_digest(ckpt_dir_epoch: str) -> dict[str, str]:
    """sha256 of every shard file — the bit-identity comparator. No crawl
    calls it; it stays because the resume tests and
    ``crawlbench/test_crawlbench.py`` compare snapshots with it."""
    import hashlib

    out = {}
    for f in sorted(os.listdir(ckpt_dir_epoch)):
        if f.startswith("shard_"):
            with open(os.path.join(ckpt_dir_epoch, f), "rb") as fh:
                out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out
