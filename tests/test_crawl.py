"""Crawl scheduler: determinism, ray-vs-sequential parity, resume fidelity.

These are the north-rule criteria (BASELINE.md §B): fetch ordering and
the final URL-seen set must exactly reproduce the reference scheduler
under the same seed list + politeness budget, and a killed run must
resume bit-identically from per-partition checkpoints.
"""

import pytest

from gotenberg_ray.corpus import host_pool, make_documents, make_frontier, make_robots
from gotenberg_ray.frontier import checkpoint as ckpt
from gotenberg_ray.frontier.crawler import CrawlConfig, run_crawl


@pytest.fixture(scope="module")
def small_world():
    docs = make_documents(50, seed=42)
    frontier = make_frontier(200, n_docs=50, seed=42)
    robots = make_robots(host_pool(20), seed=42)
    # fetch pool sized to fit the 4-cpu test session alongside 4 shard actors
    cfg = CrawlConfig(
        n_partitions=4,
        epoch_width=8,
        max_epochs=40,
        link_universe=400,
        fetch_concurrency=2,
        fetch_num_cpus=0.5,
    )
    return docs, frontier, robots, cfg


def test_sequential_crawl_is_deterministic(small_world):
    docs, frontier, robots, cfg = small_world
    a = run_crawl(frontier, docs, robots, cfg, mode="local")
    b = run_crawl(frontier, docs, robots, cfg, mode="local")
    assert a.fetch_log.equals(b.fetch_log)
    assert a.counters == b.counters
    assert a.fetch_seq > 100


def test_crawl_respects_politeness_budget(small_world):
    docs, frontier, robots, cfg = small_world
    res = run_crawl(frontier, docs, robots, cfg, mode="local")
    log = res.fetch_log.to_pandas()
    # per host: consecutive grants at least `delay` ticks apart (burst=1)
    for host, g in log.groupby("host"):
        times = sorted(g["fetch_time"])
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d >= 1 for d in deltas), host  # crawl-delay ≥ 1 always
    # priority ordering within (host, fetch_time) batches is globally
    # enforced by the (fetch_time, -priority, seq) sort key
    assert (log.sort_values(["fetch_time", "priority", "seq"], ascending=[True, False, True])
            ["fetch_seq"].is_monotonic_increasing)


def test_crawl_rejects_and_robots(small_world):
    docs, frontier, robots, cfg = small_world
    res = run_crawl(frontier, docs, robots, cfg, mode="local")
    errs = set(res.rejected.column("error_type").to_pylist())
    assert "invalid_input" in errs  # file:// seeds
    assert "filtered" in errs  # private-IP seeds
    assert res.counters["robots_denied"] > 0  # links into /privateN/
    assert res.counters["duplicate"] > 0  # seen-set dedup fired


def test_ray_crawl_matches_sequential_exactly(ray_session, small_world, tmp_path):
    docs, frontier, robots, cfg = small_world
    seq = run_crawl(frontier, docs, robots, cfg, mode="local")
    par = run_crawl(frontier, docs, robots, cfg, mode="ray")
    # north rule: identical fetch ordering...
    assert seq.fetch_log.equals(par.fetch_log)
    # ...and identical final URL-seen set + scheduler state
    assert seq.counters == par.counters
    sa = seq_states = None
    # compare full shard checkpoints bit-for-bit via the serializer
    from gotenberg_ray.frontier.crawler import LocalShards, RayShards  # noqa


def test_resume_is_bit_identical(small_world, tmp_path):
    docs, frontier, robots, cfg = small_world
    full_dir = str(tmp_path / "full")
    res_full = run_crawl(
        frontier, docs, robots, cfg, mode="local", checkpoint_dir=full_dir
    )

    # interrupted run: stop after 7 epochs, checkpoint, then resume
    import dataclasses

    cfg_a = dataclasses.replace(cfg, max_epochs=7)
    part_dir = str(tmp_path / "part")
    run_crawl(frontier, docs, robots, cfg_a, mode="local", checkpoint_dir=part_dir)
    res_b = run_crawl(
        frontier,
        docs,
        robots,
        cfg,
        mode="local",
        checkpoint_dir=part_dir,
        resume=True,
    )

    d_full = ckpt.latest_epoch_dir(full_dir)
    d_part = ckpt.latest_epoch_dir(part_dir)
    assert ckpt.checkpoint_digest(d_full) == ckpt.checkpoint_digest(d_part)
    assert res_full.counters == res_b.counters
    assert res_full.fetch_seq == res_b.fetch_seq
    # the resumed run's post-resume fetch log equals the tail of the full log
    full_log = res_full.fetch_log.to_pandas()
    tail = full_log[full_log["fetch_seq"] >= res_b.fetch_log.column("fetch_seq")[0].as_py()]
    import pandas as pd

    pd.testing.assert_frame_equal(
        tail.reset_index(drop=True), res_b.fetch_log.to_pandas().reset_index(drop=True)
    )


def test_checkpoint_roundtrip(tmp_path, small_world):
    docs, frontier, robots, cfg = small_world
    import dataclasses

    cfg = dataclasses.replace(cfg, max_epochs=5)
    d = str(tmp_path / "ck")
    run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=d)
    state = ckpt.load_latest(d)
    assert len(state["shards"]) == cfg.n_partitions
    assert state["driver"]["epochs_done"] == 5
    # shard state tables survive the parquet+IPC roundtrip
    st = state["shards"][0]
    assert st["heap"].num_rows >= 0 and st["buckets"].num_rows > 0


def test_hot_host_salting_spreads_and_preserves_budget(ray_session, tmp_path):
    """Skew handling (SURVEY §4.2 row 3, VERDICT r1 item 8): a host
    holding ~50% of the frontier is salted across salt_k sub-queues so
    no single shard serializes it, while politeness compensation
    (delay × k per sub-queue) keeps the host's TOTAL fetch rate at the
    unsalted budget. Determinism (ray ≡ sequential) must survive."""
    import dataclasses

    import numpy as np

    from gotenberg_ray.corpus import HOT_HOST
    from gotenberg_ray.frontier.crawler import partition_of

    docs = make_documents(40, seed=7)
    frontier = make_frontier(250, n_docs=40, seed=7, hot_frac=0.5)
    robots = make_robots(host_pool(20), seed=7)
    base = CrawlConfig(
        n_partitions=4,
        epoch_width=8,
        max_epochs=500,  # generous: both runs exhaust the reachable closure
        link_universe=200,
        fetch_concurrency=2,
        fetch_num_cpus=0.5,
    )
    salted = dataclasses.replace(base, salt_hosts=(HOT_HOST,), salt_k=4)

    # (a) partitioner spreads the hot host over >1 shard, and the salt is
    # a pure function of the URL (duplicate URLs keep one seen-set home)
    hashes = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    hosts = [HOT_HOST] * 1000
    parts = partition_of(
        hosts, 4, url_hashes=hashes, salt_hosts=(HOT_HOST,), salt_k=4
    )
    assert len(set(parts.tolist())) > 1
    parts2 = partition_of(
        hosts, 4, url_hashes=hashes, salt_hosts=(HOT_HOST,), salt_k=4
    )
    assert (parts == parts2).all()
    # unsalted hosts are untouched by the salt arguments
    cold = ["site-001.example.org"] * 10
    assert (
        partition_of(cold, 4)
        == partition_of(cold, 4, url_hashes=hashes[:10], salt_hosts=(HOT_HOST,), salt_k=4)
    ).all()

    res_base = run_crawl(frontier, docs, robots, base, mode="local")
    res_salt = run_crawl(frontier, docs, robots, salted, mode="local")

    log_b = res_base.fetch_log.to_pandas()
    log_s = res_salt.fetch_log.to_pandas()
    hot_b = log_b[log_b["host"] == HOT_HOST]
    hot_s = log_s[log_s["host"] == HOT_HOST]
    assert len(hot_s) > 20

    # (b) politeness compensation: over any run, the salted host's fetch
    # count stays within the unsalted budget envelope (1 fetch per
    # `delay` ticks + the transient k×burst allowance)
    span = int(hot_s["fetch_time"].max() - hot_s["fetch_time"].min()) + 1
    budget = span / base.default_delay + salted.salt_k * base.burst
    assert len(hot_s) <= budget + 1
    # ... and the salted rate is within ~25% of the unsalted rate (the
    # same budget, just spread over k sub-queues)
    span_b = int(hot_b["fetch_time"].max() - hot_b["fetch_time"].min()) + 1
    rate_b, rate_s = len(hot_b) / span_b, len(hot_s) / span
    assert rate_s <= rate_b * 1.25 + 0.01

    # (c) the URL-seen set is partition-layout-independent: run to
    # frontier exhaustion, the reachable closure (and hence the fetched
    # URL set and duplicate count) is identical under any salting
    assert set(log_b["url_canon"]) == set(log_s["url_canon"])
    assert res_base.counters["duplicate"] == res_salt.counters["duplicate"]

    # (d) determinism: ray orchestration of the salted config reproduces
    # the sequential salted run exactly (fetch order + counters)
    res_ray = run_crawl(frontier, docs, robots, salted, mode="ray")
    assert res_salt.fetch_log.equals(res_ray.fetch_log)
    assert res_salt.counters == res_ray.counters


def test_auto_salt_detects_hot_host(ray_session, tmp_path):
    """VERDICT r2 task 6: with salt_hosts=() and auto_salt=True, the
    Misra–Gries pass over the admitted seed frontier must detect the
    50%-share host, choose k from the observed depth, spread it across
    shards, and preserve the exact crawl contract (same fetched URL
    set and duplicate count as unsalted; ray ≡ sequential; resume
    adopts the same salting from the checkpointed config)."""
    import dataclasses

    from gotenberg_ray.corpus import HOT_HOST
    from gotenberg_ray.frontier import checkpoint as _ck
    from gotenberg_ray.frontier.crawler import resolve_auto_salt

    docs = make_documents(40, seed=7)
    frontier = make_frontier(250, n_docs=40, seed=7, hot_frac=0.5)
    robots = make_robots(host_pool(20), seed=7)
    base = CrawlConfig(
        n_partitions=4,
        epoch_width=8,
        max_epochs=500,
        link_universe=200,
        fetch_concurrency=2,
        fetch_num_cpus=0.5,
    )
    auto = dataclasses.replace(base, auto_salt=True)

    # the decision itself: MG over the admitted seed hosts
    from gotenberg_ray.frontier.crawler import (
        UrlFilter,
        admit_seed_frontier,
    )

    accepted, _ = admit_seed_frontier(frontier, UrlFilter([], []), parallel=False)
    resolved = resolve_auto_salt(auto, accepted)
    assert HOT_HOST in resolved.salt_hosts
    assert resolved.salt_k == 2  # 50% share over 4 shards = 2 fair shares
    # no other host clears the 4×-fair-share bar on this corpus
    assert resolved.salt_hosts == (HOT_HOST,)

    res_base = run_crawl(frontier, docs, robots, base, mode="local")
    res_auto = run_crawl(frontier, docs, robots, auto, mode="local")
    log_b = res_base.fetch_log.to_pandas()
    log_a = res_auto.fetch_log.to_pandas()
    # exactness contract survives auto-salting
    assert set(log_b["url_canon"]) == set(log_a["url_canon"])
    assert res_base.counters["duplicate"] == res_auto.counters["duplicate"]

    # determinism: ray orchestration reproduces the sequential run
    res_ray = run_crawl(frontier, docs, robots, auto, mode="ray")
    assert res_auto.fetch_log.equals(res_ray.fetch_log)
    assert res_auto.counters == res_ray.counters

    # resume adopts the checkpointed salt decision bit-identically
    full_dir = str(tmp_path / "full")
    res_full = run_crawl(
        frontier, docs, robots, auto, mode="local", checkpoint_dir=full_dir
    )
    part_dir = str(tmp_path / "part")
    cfg_a = dataclasses.replace(auto, max_epochs=7)
    run_crawl(frontier, docs, robots, cfg_a, mode="local", checkpoint_dir=part_dir)
    res_res = run_crawl(
        frontier, docs, robots, auto, mode="local",
        checkpoint_dir=part_dir, resume=True,
    )
    d_full = _ck.latest_epoch_dir(full_dir)
    d_part = _ck.latest_epoch_dir(part_dir)
    assert _ck.checkpoint_digest(d_full) == _ck.checkpoint_digest(d_part)
    assert res_full.counters == res_res.counters


def test_resume_refuses_partition_mismatch(small_world, tmp_path):
    """A checkpoint sharded at P partitions must not silently resume
    under a different P — the seen-sets/heaps are keyed by
    fnv64 % P and zip-truncation would drop frontier state."""
    import dataclasses

    docs, frontier, robots, cfg = small_world
    d = str(tmp_path / "ck")
    run_crawl(
        frontier, docs, robots,
        dataclasses.replace(cfg, max_epochs=5),
        mode="local", checkpoint_dir=d,
    )
    with pytest.raises(ValueError, match="partitions"):
        run_crawl(
            frontier, docs, robots,
            dataclasses.replace(cfg, n_partitions=2),
            mode="local", checkpoint_dir=d, resume=True,
        )


def test_latest_epoch_dir_orders_numerically(tmp_path):
    """epoch=1000012 must beat epoch=999999 (lexicographic order
    breaks once the virtual epoch outgrows the %06d padding)."""
    import os

    for e in (999999, 1000012):
        p = tmp_path / f"epoch={e:06d}"
        p.mkdir()
        (p / "_COMPLETE").write_text("ok")
    got = ckpt.latest_epoch_dir(str(tmp_path))
    assert got.endswith("epoch=1000012")


def test_checkpoint_rewrite_is_atomic(small_world, tmp_path):
    """Re-writing a completed epoch dir must swap, not tear: the new
    snapshot fully replaces the old and no intermediates remain."""
    import os

    docs, frontier, robots, cfg = small_world
    d = str(tmp_path / "ck")
    res = run_crawl(
        frontier, docs, robots, cfg, mode="local", checkpoint_dir=d
    )
    ep = ckpt.latest_epoch_dir(d)
    before = ckpt.checkpoint_digest(ep)
    state = ckpt.load_latest(d)
    # rewrite the SAME epoch with mutated driver state — must not tear
    driver = dict(state["driver"])
    ckpt.write(d, state["shards"], driver)
    after = ckpt.checkpoint_digest(ckpt.latest_epoch_dir(d))
    assert after == before  # same states → same bytes
    leftovers = [
        e for e in os.listdir(d) if e.startswith(("_tmp-", "_old-"))
    ]
    assert leftovers == []


def test_ray_matches_sequential_at_link_latency_3(ray_session, small_world):
    """link_latency_epochs=3 lets the pipelined shard step run two
    epochs ahead of the link generations it must deliver: the ray
    pipeline must still reproduce the sequential reference's fetch
    ordering, counters and seen-set for the same config bit-for-bit."""
    import dataclasses

    docs, frontier, robots, cfg = small_world
    cfg3 = dataclasses.replace(cfg, link_latency_epochs=3)
    seq = run_crawl(frontier, docs, robots, cfg3, mode="local")
    par = run_crawl(frontier, docs, robots, cfg3, mode="ray")
    assert seq.fetch_log.equals(par.fetch_log)
    assert seq.counters == par.counters
    assert seq.fetch_seq == par.fetch_seq and seq.fetch_seq > 0


def test_shard_seen_set_is_one_cuckoo_pass(tmp_path):
    """A FrontierShard admits exactly what one CuckooFilter.add_if_absent
    over the seq-sorted batch calls new, minus robots denials — for a
    batch mixing fresh keys, keys seen in an earlier batch, in-batch
    duplicates and robots-denied rows, offered in shuffled seq order.
    The checkpoint has no bloom entry and is byte-stable through
    checkpoint → restore → checkpoint."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gotenberg_ray.frontier.crawler import CANDIDATE_SCHEMA
    from gotenberg_ray.frontier.shard import FrontierShard
    from gotenberg_ray.functions.hashing import fnv64
    from gotenberg_ray.state.cuckoo import CuckooFilter

    robots = {"b.example": "User-agent: *\nDisallow: /private/\n"}

    def batch(rows):  # rows: [(seq, host, path)]
        urls = [f"http://{h}{p}" for _, h, p in rows]
        n = len(rows)
        return pa.table(
            {
                "url_canon": urls,
                "url_hash": pa.array(fnv64(pa.array(urls)), pa.uint64()),
                "host": [h for _, h, _ in rows],
                "path": [p for _, _, p in rows],
                "priority": pa.array(np.zeros(n), pa.int32()),
                "next_fetch_time": pa.array(np.zeros(n), pa.int64()),
                "route": ["convert/url"] * n,
                "doc_id": ["doc-000000"] * n,
                "options_json": ["{}"] * n,
                "seq": pa.array([s for s, _, _ in rows], pa.int64()),
            },
            schema=CANDIDATE_SCHEMA,
        )

    first = [(i, "a.example", f"/old/{i}") for i in range(6)]
    second = (
        [(10 + i, "a.example", f"/new/{i}") for i in range(5)]  # fresh
        + [(20 + i, "a.example", f"/old/{i}") for i in range(3)]  # seen before
        + [(30, "a.example", "/dup"), (31, "a.example", "/dup"),
           (32, "b.example", "/dup"), (33, "b.example", "/dup")]  # in-batch dups
        + [(40 + i, "b.example", f"/private/{i}") for i in range(3)]  # denied
        + [(50, "b.example", "/private/0")]  # denied, then a duplicate
    )
    shuffled = [second[i] for i in np.random.default_rng(5).permutation(len(second))]

    def make_shard():
        return FrontierShard(0, capacity=1 << 10, seed=3, robots_texts=robots)

    shard = make_shard()
    shard.offer(batch(first))
    shard.flush()
    before = dict(shard.get_counters())
    shard.offer(batch(shuffled[:7]))
    shard.offer(batch(shuffled[7:]))
    shard.flush()
    after = shard.get_counters()

    ref = CuckooFilter(1 << 10, seed=3)
    ref.add_if_absent(batch(first).column("url_hash").to_numpy())
    ordered = batch(second).sort_by("seq")
    fresh = ref.add_if_absent(ordered.column("url_hash").to_numpy())
    denied = np.array(["/private/" in p for p in ordered.column("path").to_pylist()])
    seqs = ordered.column("seq").to_numpy()
    assert after["duplicate"] - before["duplicate"] == int((~fresh).sum()) == 6
    assert after["robots_denied"] - before["robots_denied"] == int((fresh & denied).sum()) == 3
    state = shard.checkpoint()
    admitted = state["payloads"].column("seq").to_pylist()
    assert admitted == list(range(6)) + seqs[fresh & ~denied].tolist()
    assert shard.cuckoo.to_bytes() == ref.to_bytes()

    assert "bloom" not in state
    assert "bloom" not in ckpt.shard_state_to_table(state).column_names

    def snapshot_bytes(st, name):
        path = str(tmp_path / name)
        pq.write_table(ckpt.shard_state_to_table(st), path)
        with open(path, "rb") as f:
            return f.read()

    restored = make_shard()
    restored.restore(state)
    assert snapshot_bytes(restored.checkpoint(), "b") == snapshot_bytes(state, "a")


def test_shard_restore_continues_like_the_uninterrupted_shard():
    """checkpoint → restore → pop_epoch grants what the never-restored
    shard grants and ends on the same snapshot bytes. The cut comes
    after partial grants (deep per-host queues, burst 1), with pending
    rows spread over several payload tables, one of them fully granted.
    A snapshot whose heap entries and payload rows hold different seqs
    is refused."""
    import numpy as np
    import pyarrow as pa

    from gotenberg_ray.frontier.crawler import CANDIDATE_SCHEMA
    from gotenberg_ray.frontier.shard import FrontierShard
    from gotenberg_ray.functions.hashing import fnv64

    robots = {"slow.example": "User-agent: *\nCrawl-delay: 3\n"}

    def batch(seq0, hosts, ready):
        n = len(hosts)
        seqs = np.arange(seq0, seq0 + n)
        urls = [f"http://{h}/p{s}" for h, s in zip(hosts, seqs)]
        return pa.table(
            {
                "url_canon": urls,
                "url_hash": pa.array(fnv64(pa.array(urls)), pa.uint64()),
                "host": hosts,
                "path": [f"/p{s}" for s in seqs],
                "priority": pa.array(seqs % 3, pa.int32()),
                "next_fetch_time": pa.array(np.full(n, ready), pa.int64()),
                "route": ["convert/url"] * n,
                "doc_id": [f"doc-{s:06d}" for s in seqs],
                "options_json": ["{}"] * n,
                "seq": pa.array(seqs, pa.int64()),
            },
            schema=CANDIDATE_SCHEMA,
        )

    def make_shard():
        return FrontierShard(0, capacity=1 << 10, seed=1, robots_texts=robots)

    def snapshot(shard):
        return ckpt.shard_state_to_table(shard.checkpoint())

    a = make_shard()
    a.offer(batch(0, ["solo.example"], 0))  # granted whole in the first epoch
    a.flush()
    a.offer(batch(10, ["a.example"] * 12 + ["slow.example"] * 8, 0))
    a.flush()
    a.offer(batch(30, ["a.example", "b.example"] * 8, 2))
    first = a.pop_epoch(7)
    assert 0 < first.num_rows < 37 and 0 in first.column("seq").to_pylist()
    state = a.checkpoint()
    assert state["payloads"].num_rows == len(a.heap) == 37 - first.num_rows

    b = make_shard()
    b.restore(state)
    assert snapshot(b).equals(snapshot(a))
    for shard in (a, b):
        shard.offer(batch(50, ["b.example", "slow.example", "c.example"] * 2, 9))
    for horizon in (15, 23, 31, 1000):
        got, want = b.pop_epoch(horizon), a.pop_epoch(horizon)
        assert got.num_rows and got.equals(want)
        assert snapshot(b).equals(snapshot(a))
    assert len(a.heap) == 0 and a.checkpoint()["payloads"].num_rows == 0

    heap = state["heap"]
    for bad in (
        dict(state, payloads=state["payloads"].slice(1)),  # a heap entry without payload
        dict(state, heap=heap.slice(1)),  # a payload row without heap entry
        dict(state, heap=pa.concat_tables([heap.slice(1), heap.slice(1, 1)])),  # one seq twice
    ):
        with pytest.raises(ValueError, match="heap entries"):
            make_shard().restore(bad)


def _count_writes(monkeypatch) -> list:
    """The epoch of every ``ckpt.write`` from here on."""
    written = []
    write = ckpt.write

    def counted(ckpt_dir, shard_states, driver, metrics=None):
        written.append(driver["epoch"])
        return write(ckpt_dir, shard_states, driver, metrics)

    monkeypatch.setattr(ckpt, "write", counted)
    return written


def test_checkpoint_every_epoch_writes_each_snapshot_once(small_world, tmp_path, monkeypatch):
    """With checkpoint_every=1 a crawl writes one snapshot per epoch, also
    across a stop and a resume: the loop's last snapshot is not written
    again after the loop, and a resume with no budget left does not
    rewrite the snapshot it loaded."""
    import dataclasses

    docs, frontier, robots, cfg = small_world
    cfg = dataclasses.replace(cfg, checkpoint_every=1)
    written = _count_writes(monkeypatch)
    d = str(tmp_path / "ck")
    first = run_crawl(
        frontier, docs, robots, dataclasses.replace(cfg, max_epochs=3),
        mode="local", checkpoint_dir=d,
    )
    assert first.epochs == 3 and len(written) == 3
    rest = run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=d, resume=True)
    assert rest.epochs == cfg.max_epochs
    assert len(written) == rest.epochs == len(set(written))
    again = run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=d, resume=True)
    assert again.epochs == rest.epochs and len(written) == rest.epochs


# sha256 of the small-world crawl's fetch log (Arrow IPC, one chunk) and
# of its final snapshot's per-shard state bytes (the cuckoo table and the
# heap, buckets and payloads IPC tables). A refactor of the scheduler
# must leave every one of them unchanged; a change of the schedule or of
# the snapshot format moves them, and must say why. Parquet file hashes
# are not pinned: they embed the writer version.
_PINNED_FETCH_LOG = "741a4ca920a9d945dfd68f0efe748b4225b716cb091691547a5aca68d8a44fe7"
_PINNED_SHARD_STATE = {
    "0/cuckoo": "7eed6bf373d1dc8e882da451eeb012462be28797c6a8d4cbf193394eb63368c8",
    "0/heap": "82a3d45e3852e0577f9ea8c4671fd2559f0b04d7964458a1229c8e97fde6d2f0",
    "0/buckets": "f896eab1bad84d7e56ff0c65427a2fd1fc6084245fb935d857d8d3d70fc8a622",
    "0/payloads": "618f709c49abbaab045d1494782e2f8d2d3d05b38e8e47580706fe889ff51d2e",
    "1/cuckoo": "ed6d22f2eb00b43a8c547d917b36e73552a39797d68671d9ed7f9c024cb5187f",
    "1/heap": "454e5aa8034f2988fa4164b7287874f27af2d66277e8b81eaaf2cc218ae394db",
    "1/buckets": "f67d5415c7ba038912a71018cfcba3444266a8a5ba6b54f6f6151cb5af9abcaa",
    "1/payloads": "87d0e63423b23fbd39cfa0c52f4e33369d4680bb9f997dd5051dce14b94597fd",
    "2/cuckoo": "c6f6e244c511b2635f92937ec64432d900943be94e9327ddcab99a73ddec18c0",
    "2/heap": "29bb4545c4cb82a97f195c1501ef701da78ad281e8dd401f873595472075215c",
    "2/buckets": "3ead1659eb248bff8a9dee3bcc91561ffe27e425177fc5f11dd71d761418f104",
    "2/payloads": "24f041e79a0710b2ac7ab2895f66019b1e58334814f4b02a7f45c5594a8a8991",
    "3/cuckoo": "36e64b1b123eae092ca68cc5ea82328110d9f2b61f6c6f02c055b263a1814389",
    "3/heap": "2a488911d10a935bb730d56e6199acc5eb65e78cd8f0abed1e12e11ed9b36c96",
    "3/buckets": "383995789f41b3cd205fa145f850250fa7faa2f431d0e9c51ff35cc3c91e1543",
    "3/payloads": "350c5ebc4036ecdd6b49b113db5198be210275f38c98c090439eac4d1428adab",
}


def test_local_crawl_matches_pinned_digests(small_world, tmp_path):
    """The scheduler's output bytes stay put: fetch order, admission,
    politeness and the snapshot format all feed these digests."""
    import dataclasses
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    docs, frontier, robots, cfg = small_world
    cfg = dataclasses.replace(cfg, checkpoint_every=1)
    d = str(tmp_path / "ck")
    res = run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=d)
    sink = pa.BufferOutputStream()
    log = res.fetch_log.combine_chunks()
    with pa.ipc.new_stream(sink, log.schema) as w:
        w.write_table(log)
    assert hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest() == _PINNED_FETCH_LOG
    ep = ckpt.latest_epoch_dir(d)
    got = {}
    for f in sorted(os.listdir(ep)):
        if f.startswith("shard_"):
            t = pq.read_table(os.path.join(ep, f))
            pid = t.column("partition_id")[0].as_py()
            for c in ("cuckoo", "heap", "buckets", "payloads"):
                got[f"{pid}/{c}"] = hashlib.sha256(t.column(c)[0].as_py()).hexdigest()
    assert got == _PINNED_SHARD_STATE


def test_synthetic_links_batch_matches_scalar_reference():
    """The vectorized link generator must be byte-identical to the
    scalar reference for arbitrary (hash, host) inputs — fetch
    ordering, the seen-set and checkpoint bytes all derive from these
    strings."""
    import numpy as np
    import pyarrow as pa

    from gotenberg_ray.stages.fetcher import (
        synthetic_links,
        synthetic_links_batch,
    )

    rng = np.random.default_rng(7)
    hashes = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    hosts = [f"h{int(x) % 37}.example.com" for x in hashes]
    for universe, max_links in [(60_000, 3), (1000, 3), (17, 5), (1, 0)]:
        counts, urls, lidx = synthetic_links_batch(
            hashes, pa.array(hosts), universe, max_links
        )
        urls_py = urls.to_pylist()
        pos = 0
        for h, host, c in zip(hashes, hosts, counts):
            ref = synthetic_links(int(h), host, universe, max_links)
            assert len(ref) == c
            assert urls_py[pos : pos + c] == ref
            assert list(lidx[pos : pos + c]) == list(range(c))
            pos += c
        assert pos == len(urls_py)


def test_ray_mode_resume_is_bit_identical(ray_session, small_world, tmp_path):
    """North rule, directly in ray mode: a killed `ray job submit` run
    resumes bit-identically from its per-partition checkpoints — the
    interrupted-then-resumed RAY run must converge to the same final
    checkpoint digest, counters, and post-resume fetch log as an
    uninterrupted RAY run (the local-mode twin of this test plus the
    ray≡local parity test already imply it; this pins it without the
    transitive step)."""
    import dataclasses

    import pandas as pd

    docs, frontier, robots, cfg = small_world
    full_dir = str(tmp_path / "full")
    res_full = run_crawl(
        frontier, docs, robots, cfg, mode="ray", checkpoint_dir=full_dir
    )

    cfg_a = dataclasses.replace(cfg, max_epochs=7)
    part_dir = str(tmp_path / "part")
    run_crawl(frontier, docs, robots, cfg_a, mode="ray", checkpoint_dir=part_dir)
    res_b = run_crawl(
        frontier,
        docs,
        robots,
        cfg,
        mode="ray",
        checkpoint_dir=part_dir,
        resume=True,
    )

    d_full = ckpt.latest_epoch_dir(full_dir)
    d_part = ckpt.latest_epoch_dir(part_dir)
    assert ckpt.checkpoint_digest(d_full) == ckpt.checkpoint_digest(d_part)
    assert res_full.counters == res_b.counters
    assert res_full.fetch_seq == res_b.fetch_seq
    full_log = res_full.fetch_log.to_pandas()
    tail = full_log[
        full_log["fetch_seq"] >= res_b.fetch_log.column("fetch_seq")[0].as_py()
    ]
    pd.testing.assert_frame_equal(
        tail.reset_index(drop=True),
        res_b.fetch_log.to_pandas().reset_index(drop=True),
    )


def test_resume_adopts_salt_without_auto_flag(small_world, tmp_path):
    """The checkpointed salt decision must ride resume even when the
    resume command omits auto_salt — a salted checkpoint resumed by an
    unsalted cfg would rebuild unsalted shards over salted seen-state
    (silent duplicate fetches; review-found)."""
    import dataclasses

    docs, frontier, robots, cfg = small_world
    # force an explicit salt config into the original run
    salted = dataclasses.replace(
        cfg, salt_hosts=("h0.example.com",), salt_k=2, max_epochs=7
    )
    d = str(tmp_path / "ck")
    run_crawl(frontier, docs, robots, salted, mode="local", checkpoint_dir=d)

    full = run_crawl(
        frontier, docs, robots,
        dataclasses.replace(cfg, salt_hosts=("h0.example.com",), salt_k=2),
        mode="local", checkpoint_dir=str(tmp_path / "full"),
    )
    # resume WITHOUT any salt flags: must adopt (h0, k=2) from the
    # checkpoint and finish bit-identically to the uninterrupted run
    resumed = run_crawl(
        frontier, docs, robots, cfg,  # no salt_hosts, no auto_salt
        mode="local", checkpoint_dir=d, resume=True,
    )
    assert full.counters == resumed.counters
    assert full.fetch_seq == resumed.fetch_seq
    d_full = ckpt.latest_epoch_dir(str(tmp_path / "full"))
    d_part = ckpt.latest_epoch_dir(d)
    assert ckpt.checkpoint_digest(d_full) == ckpt.checkpoint_digest(d_part)


def test_resume_refuses_scheduling_config_mismatch(small_world, tmp_path):
    """Scheduling-critical scalars (seed, epoch_width, politeness
    budget, link timing) must match the checkpoint — a mismatch changes
    fetch ordering over restored state (same class as the partition
    refusal)."""
    import dataclasses

    docs, frontier, robots, cfg = small_world
    d = str(tmp_path / "ck")
    run_crawl(
        frontier, docs, robots,
        dataclasses.replace(cfg, max_epochs=5),
        mode="local", checkpoint_dir=d,
    )
    for field, value in (
        ("epoch_width", cfg.epoch_width * 2),
        ("default_delay", cfg.default_delay + 1),
        ("seed", cfg.seed + 1),
    ):
        with pytest.raises(ValueError, match="scheduling-critical"):
            run_crawl(
                frontier, docs, robots,
                dataclasses.replace(cfg, **{field: value}),
                mode="local", checkpoint_dir=d, resume=True,
            )


def test_resume_clears_stale_epoch_parts(small_world, tmp_path):
    """A killed run's leftover part files from a DIFFERENT chunking of
    an epoch must not duplicate pages in the resumed output (the epoch
    dir is cleared before its chunks write; review-found)."""
    import dataclasses

    import pyarrow.parquet as pq
    import ray.data as rd

    docs, frontier, robots, cfg = small_world
    pages_full = str(tmp_path / "pages_full")
    full = run_crawl(
        frontier, docs, robots, cfg, mode="local", pages_dir=pages_full
    )
    n_full = rd.read_parquet(pages_full).count()

    # interrupted run + a STALE extra part planted in the next epoch's
    # dir (simulating a killed larger-chunking attempt)
    cfg_a = dataclasses.replace(cfg, max_epochs=7)
    d = str(tmp_path / "ck")
    pages = str(tmp_path / "pages")
    run_crawl(
        frontier, docs, robots, cfg_a, mode="local",
        checkpoint_dir=d, pages_dir=pages,
    )
    import os

    epochs = sorted(os.listdir(pages))
    some_epoch = os.path.join(pages, epochs[0])
    a_part = os.path.join(
        some_epoch, sorted(os.listdir(some_epoch))[0]
    )
    # plant stale parts into a FUTURE epoch dir the resume will rewrite
    future = os.path.join(pages, "epoch=000009")
    os.makedirs(future, exist_ok=True)
    import shutil

    shutil.copy(a_part, os.path.join(future, "part-0099.parquet"))

    resumed = run_crawl(
        frontier, docs, robots, cfg, mode="local",
        checkpoint_dir=d, resume=True, pages_dir=pages,
    )
    assert resumed.fetch_seq == full.fetch_seq
    n_resumed = rd.read_parquet(pages).count()
    assert n_resumed == n_full, "stale planted part must be cleared"


# A crawl child that SIGKILLs itself at a deterministic point:
# argv = world pickle, checkpoint dir, pages dir, point, n. Point
# "fetch" dies inside the nth SimulatedFetcher call (mid-epoch: the
# epoch's pages, log and links are not written yet); point "snapshot"
# dies right after the first shard file of the nth fresh snapshot is
# written (mid-checkpoint-write: no _COMPLETE marker).
_KILLED_CRAWL = """
import os, pickle, signal, sys

import pyarrow.parquet as pq

from gotenberg_ray.frontier.crawler import run_crawl
from gotenberg_ray.stages.fetcher import SimulatedFetcher

world, ck, pages, point, n = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5])
hits = []


def sigkill_on_nth(owner, attr, counts):
    orig = getattr(owner, attr)

    def hooked(*args, **kwargs):
        out = orig(*args, **kwargs)
        if counts(*args):
            hits.append(1)
            if len(hits) == n:
                os.kill(os.getpid(), signal.SIGKILL)
        return out

    setattr(owner, attr, hooked)


if point == "fetch":
    sigkill_on_nth(SimulatedFetcher, "__call__", lambda *a: True)
else:
    sigkill_on_nth(
        pq, "write_table",
        lambda table, path, *a: os.path.basename(path) == "shard_0000.parquet"
        and os.path.basename(os.path.dirname(path)).startswith("epoch="),
    )
with open(world, "rb") as f:
    frontier, docs, robots, cfg = pickle.load(f)
run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=ck, pages_dir=pages)
sys.exit(3)  # the kill point was never reached
"""


def _parquet_files(root):
    import os

    import pyarrow.parquet as pq

    return {
        os.path.relpath(os.path.join(d, f), root): pq.read_table(os.path.join(d, f))
        for d, _, fs in sorted(os.walk(root))
        for f in sorted(fs)
    }


def _sigkill_then_resume(small_world, tmp_path, point, n):
    """Crawl uninterrupted in-process; crawl in a child that SIGKILLs
    itself at ``point``; resume the child's crawl in-process. The two
    must end on the same checkpoint digest, counters, fetch log (read
    back from ``<pages>_fetch_log/``) and page-part rows."""
    import dataclasses
    import os
    import pickle
    import signal
    import subprocess
    import sys
    from pathlib import Path

    docs, frontier, robots, cfg = small_world
    cfg = dataclasses.replace(cfg, checkpoint_every=1)
    full_ck, full_pages = str(tmp_path / "full_ck"), str(tmp_path / "full_pages")
    full = run_crawl(
        frontier, docs, robots, cfg, mode="local",
        checkpoint_dir=full_ck, pages_dir=full_pages,
    )
    world = tmp_path / "world.pkl"
    world.write_bytes(pickle.dumps((frontier, docs, robots, cfg)))
    ck, pages = str(tmp_path / "ck"), str(tmp_path / "pages")
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_CRAWL, str(world), ck, pages, point, str(n)],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        timeout=600,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()[-2000:]
    # one fetch and one snapshot per granted epoch: the newest complete
    # snapshot is the cut before the killed epoch or snapshot
    assert ckpt.load_latest(ck)["driver"]["epochs_done"] == n - 1
    torn = [
        e for e in os.listdir(ck)
        if not os.path.exists(os.path.join(ck, e, "_COMPLETE"))
    ]
    assert len(torn) == (point == "snapshot")

    resumed = run_crawl(
        frontier, docs, robots, cfg, mode="local",
        checkpoint_dir=ck, pages_dir=pages, resume=True,
    )
    assert ckpt.checkpoint_digest(ckpt.latest_epoch_dir(ck)) == ckpt.checkpoint_digest(
        ckpt.latest_epoch_dir(full_ck)
    )
    assert resumed.counters == full.counters
    assert (resumed.epochs, resumed.fetch_seq) == (full.epochs, full.fetch_seq)
    for ours, theirs in ((pages + "_fetch_log", full_pages + "_fetch_log"), (pages, full_pages)):
        got, want = _parquet_files(ours), _parquet_files(theirs)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].equals(want[name]), name


def test_sigkill_mid_epoch_resumes_bit_identically(small_world, tmp_path):
    _sigkill_then_resume(small_world, tmp_path, "fetch", 5)


def test_sigkill_mid_checkpoint_write_resumes_bit_identically(small_world, tmp_path):
    _sigkill_then_resume(small_world, tmp_path, "snapshot", 4)


def test_fetcher_null_options_take_default_fail_predicate():
    """A null options_json row must apply the DEFAULT failOnHttpStatus
    predicate like the scalar contract (review-found: null dictionary
    indices became NaN and silently skipped the predicate)."""
    import numpy as np
    import pyarrow as pa

    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.stages.fetcher import (
        SimulatedFetcher,
        synthetic_status,
    )

    docs = make_documents(20, seed=42)
    f = SimulatedFetcher(SimulatedFetcher.build_state(docs), link_universe=50)
    doc_ids = docs["doc_id"].to_pylist()[:8]
    # find url hashes that synthesize an error status (>=400)
    hashes = np.arange(0, 50_000, dtype=np.uint64)
    st = synthetic_status(hashes)
    bad_hashes = hashes[st >= 400][: len(doc_ids)].astype(np.uint64)
    assert len(bad_hashes) == len(doc_ids)
    batch = pa.table(
        {
            "url_canon": pa.array([f"http://h/{i}" for i in range(len(doc_ids))]),
            "url_hash": pa.array(bad_hashes, pa.uint64()),
            "host": pa.array(["h"] * len(doc_ids)),
            "priority": pa.array([1] * len(doc_ids), pa.int32()),
            "seq": pa.array(range(len(doc_ids)), pa.int64()),
            "fetch_time": pa.array([0] * len(doc_ids), pa.int64()),
            "fetch_seq": pa.array(range(len(doc_ids)), pa.int64()),
            "route": pa.array(["convert/url"] * len(doc_ids)),
            "doc_id": pa.array(doc_ids),
            "options_json": pa.array([None, "{}"] * (len(doc_ids) // 2), pa.string()),
            "epoch": pa.array([0] * len(doc_ids), pa.int64()),
        }
    )
    out = f(batch)
    statuses = out["status"].to_pylist()
    # null-options rows (even indices) must error exactly like "{}" rows
    for i in range(0, len(doc_ids), 2):
        assert statuses[i] == statuses[i + 1] != "success"


def test_fetcher_empty_docs_table_yields_error_rows():
    """An empty docs table must produce all-error rows, not IndexError
    (review-found eager gather from zero-length stats arrays)."""
    import pyarrow as pa

    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.stages.fetcher import SimulatedFetcher

    empty_docs = make_documents(0, seed=42)
    f = SimulatedFetcher(
        SimulatedFetcher.build_state(empty_docs), link_universe=50
    )
    batch = pa.table(
        {
            "url_canon": pa.array(["http://h/0"]),
            "url_hash": pa.array([12345], pa.uint64()),
            "host": pa.array(["h"]),
            "priority": pa.array([1], pa.int32()),
            "seq": pa.array([0], pa.int64()),
            "fetch_time": pa.array([0], pa.int64()),
            "fetch_seq": pa.array([0], pa.int64()),
            "route": pa.array(["convert/url"]),
            "doc_id": pa.array(["doc-999999"]),
            "options_json": pa.array(["{}"]),
            "epoch": pa.array([0], pa.int64()),
        }
    )
    out = f(batch)
    assert out.num_rows == 1
    assert out["status"][0].as_py() != "success"
