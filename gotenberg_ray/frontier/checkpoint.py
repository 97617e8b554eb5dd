"""Per-partition crawl checkpoints on partitioned parquet.

Layout (one epoch = one atomic snapshot; the Lance-table layout of the
north rule, expressed as parquet since lance isn't in this container —
the writer below is the single place to swap the format):

    ckpt_dir/epoch=000123/
        shard_0007.parquet   # one row: binary cuckoo table + IPC-
                             # serialized heap/buckets/payload tables
        driver.json          # epoch counter, seq cursors, config hash
        _COMPLETE            # marker written LAST → snapshot is valid

Resume picks the newest epoch dir carrying ``_COMPLETE``; a run killed
mid-write leaves no marker and is skipped, so resume is always from a
consistent cut. Checkpoint equality (bytes of every shard file) is the
resume-fidelity criterion's comparator.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _ipc_bytes(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def _ipc_table(raw: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(raw)).read_all()


def shard_state_to_table(state: dict) -> pa.Table:
    return pa.table(
        {
            "partition_id": pa.array([state["partition_id"]], pa.int32()),
            "cuckoo": pa.array([state["cuckoo"]], pa.binary()),
            "heap": pa.array([_ipc_bytes(state["heap"])], pa.binary()),
            "buckets": pa.array([_ipc_bytes(state["buckets"])], pa.binary()),
            "payloads": pa.array([_ipc_bytes(state["payloads"])], pa.binary()),
            "counters": pa.array([json.dumps(state["counters"], sort_keys=True)], pa.string()),
            "delay_hosts": pa.array([json.dumps(state["delay_hosts"])], pa.string()),
        }
    )


def table_to_shard_state(table: pa.Table) -> dict:
    row = {c: table.column(c)[0].as_py() for c in table.column_names}
    return {
        "partition_id": row["partition_id"],
        "cuckoo": row["cuckoo"],
        "heap": _ipc_table(row["heap"]),
        "buckets": _ipc_table(row["buckets"]),
        "payloads": _ipc_table(row["payloads"]),
        "counters": json.loads(row["counters"]),
        "delay_hosts": json.loads(row["delay_hosts"]),
    }


def _write_into(d: str, shard_states: list[dict], driver: dict, metrics) -> None:
    os.makedirs(d, exist_ok=True)
    for st in shard_states:
        pq.write_table(
            shard_state_to_table(st),
            os.path.join(d, f"shard_{st['partition_id']:04d}.parquet"),
        )
    if metrics is not None and metrics.num_rows:
        # observability only — excluded from the bit-identity digest
        # (wall clocks are not scheduler state)
        pq.write_table(metrics, os.path.join(d, "metrics.parquet"))
    with open(os.path.join(d, "driver.json"), "w") as f:
        json.dump(driver, f, sort_keys=True)
    with open(os.path.join(d, "_COMPLETE"), "w") as f:
        f.write("ok")


def write(
    ckpt_dir: str,
    shard_states: list[dict],
    driver: dict,
    metrics: pa.Table | None = None,
) -> str:
    """Atomic snapshot write. A FRESH epoch dir writes in place with
    ``_COMPLETE`` last (a kill mid-write leaves no marker). RE-writing
    an epoch that already carries a marker (a fresh run into a
    directory that holds an earlier run's snapshots) must not tear the
    existing valid snapshot: the new state lands in a ``_tmp-`` dir (invisible
    to resume), the old dir renames away, the tmp renames in, and the
    old dir is removed — a kill anywhere leaves either the old or the
    new CONSISTENT snapshot discoverable (worst case: neither, and
    resume falls back to the previous complete epoch)."""
    import shutil

    epoch = driver["epoch"]
    name = f"epoch={epoch:06d}"
    d = os.path.join(ckpt_dir, name)
    # sweep stale intermediates from earlier interrupted rewrites
    for e in os.listdir(ckpt_dir) if os.path.isdir(ckpt_dir) else []:
        if e.startswith(("_tmp-epoch=", "_old-epoch=")):
            shutil.rmtree(os.path.join(ckpt_dir, e), ignore_errors=True)
    if not os.path.exists(os.path.join(d, "_COMPLETE")):
        _write_into(d, shard_states, driver, metrics)
        return d
    tmp = os.path.join(ckpt_dir, f"_tmp-{name}")
    old = os.path.join(ckpt_dir, f"_old-{name}")
    _write_into(tmp, shard_states, driver, metrics)
    os.rename(d, old)  # old swept above, so the name is free
    os.rename(tmp, d)
    shutil.rmtree(old, ignore_errors=True)
    return d


def latest_epoch_dir(ckpt_dir: str) -> str | None:
    if not os.path.isdir(ckpt_dir):
        return None
    import re

    epochs = []
    for e in os.listdir(ckpt_dir):
        m = re.fullmatch(r"epoch=(\d+)", e)
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
    shard_files = sorted(f for f in os.listdir(d) if f.startswith("shard_"))
    shards = [table_to_shard_state(pq.read_table(os.path.join(d, f))) for f in shard_files]
    with open(os.path.join(d, "driver.json")) as f:
        driver = json.load(f)
    return {"shards": shards, "driver": driver, "dir": d}


def checkpoint_digest(ckpt_dir_epoch: str) -> dict[str, str]:
    """sha256 of every shard file — the bit-identity comparator."""
    import hashlib

    out = {}
    for f in sorted(os.listdir(ckpt_dir_epoch)):
        if f.startswith("shard_"):
            with open(os.path.join(ckpt_dir_epoch, f), "rb") as fh:
                out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out
