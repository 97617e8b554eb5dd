import os

import pyarrow.parquet as pq

from gotenberg_ray.corpus import host_pool, make_documents, make_frontier, make_robots
from gotenberg_ray.frontier import checkpoint as ckpt
from gotenberg_ray.frontier.crawler import CrawlConfig, run_crawl


def test_epoch_metrics_recorded_and_checkpointed(tmp_path):
    docs = make_documents(30, seed=42)
    frontier = make_frontier(100, n_docs=30, seed=42)
    robots = make_robots(host_pool(20), seed=42)
    cfg = CrawlConfig(n_partitions=2, epoch_width=8, max_epochs=6, link_universe=200)
    d = str(tmp_path / "ck")
    res = run_crawl(frontier, docs, robots, cfg, mode="local", checkpoint_dir=d)
    m = res.metrics
    assert m.num_rows == res.epochs
    assert m.column("grants").to_pylist() and sum(m.column("grants").to_pylist()) == res.fetch_seq
    assert all(s >= 0 for s in m.column("fetch_s").to_pylist())
    # worker-side fetch→convert→admit wall, recorded in local mode too
    busy = zip(m.column("grants").to_pylist(), m.column("busy_s").to_pylist())
    assert all(b > 0 for g, b in busy if g)
    # metrics file lands next to shard checkpoints but is NOT in the digest
    ep = ckpt.latest_epoch_dir(d)
    assert os.path.exists(os.path.join(ep, "metrics.parquet"))
    assert pq.read_table(os.path.join(ep, "metrics.parquet")).num_rows == res.epochs
    assert not any(k.startswith("metrics") for k in ckpt.checkpoint_digest(ep))
