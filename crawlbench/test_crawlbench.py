"""Tests of the crawl benchmark itself: run with ``python3 -m pytest crawlbench``."""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gotenberg_ray.frontier import checkpoint as ckpt  # noqa: E402
from gotenberg_ray.frontier.shard import FrontierShard  # noqa: E402


@pytest.fixture
def clock():
    c = run.SegmentClock()
    yield c
    c.close()


@pytest.mark.parametrize("name, scale", [("broad_crawl", 0.03), ("polite_deep_queue", 0.02)])
def test_resume_matches_uninterrupted_checkpoint(clock, tmp_path, name, scale):
    w = run.WORKLOADS[name].scaled(scale)
    inputs = run.make_inputs(w, seed=5)
    interrupted = run.run_rep(w, inputs, clock, str(tmp_path / "a"))
    whole = run.run_rep(dataclasses.replace(w, stop_epochs=()), inputs, clock, str(tmp_path / "b"))
    assert interrupted.problems == [] and whole.problems == []
    assert interrupted.resume_s and interrupted.urls == whole.urls
    assert interrupted.totals == whole.totals
    digest = [
        ckpt.checkpoint_digest(ckpt.latest_epoch_dir(str(tmp_path / d / "ckpt"))) for d in "ab"
    ]
    assert digest[0] == digest[1] and digest[0]


def test_every_crawl_starts_with_empty_process_memos(clock, tmp_path, monkeypatch):
    from gotenberg_ray.frontier import crawler
    from gotenberg_ray.functions import markdown, urlkit

    seen = []
    original = crawler.run_crawl

    def recording(*args, **kwargs):
        seen.append((len(markdown._RENDER_CACHE), urlkit._CANON_CACHE.raw is None))
        return original(*args, **kwargs)

    monkeypatch.setattr(crawler, "run_crawl", recording)
    w = run.WORKLOADS["broad_crawl"].scaled(0.02)
    inputs = run.make_inputs(w, seed=6)
    for _ in range(2):
        run.run_rep(w, inputs, clock, str(tmp_path))
        assert len(markdown._RENDER_CACHE) > 0  # the crawl rendered pages
    # two reps, each a fresh crawl and its resumes
    assert seen == [(0, True)] * 2 * (len(w.stop_epochs) + 1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_small_workload_passes_gate(clock, tmp_path, name):
    w = run.WORKLOADS[name].scaled(0.02)
    rep = run.run_rep(w, run.make_inputs(w, seed=3), clock, str(tmp_path))
    assert rep.problems == []
    assert rep.urls == rep.totals["granted"] > 0
    assert rep.setup_s > 0 and rep.crawl_s > 0 and min(rep.resume_s) > 0 and rep.checkpoint_bytes > 0
    assert len(rep.grants) == rep.segment_epoch.max() + 1 >= rep.totals["epochs"]
    assert len(rep.points) == len(rep.segment_ms) > len(rep.grants)


def _write_case(tmp_path, urls, hosts, times, first_parts):
    log_dir, pages_dir = tmp_path / "log", tmp_path / "pages"
    for d in (log_dir, pages_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
    pq.write_table(
        pa.table({"url_canon": urls, "host": hosts, "fetch_time": pa.array(times, pa.int64())}),
        log_dir / "epoch=000000.parquet",
    )
    parts = [0] * first_parts + [1]
    pq.write_table(pa.table({"part_index": pa.array(parts, pa.int32())}), pages_dir / "p.parquet")
    return str(log_dir), str(pages_dir)


ROBOTS = {"a.org": "User-agent: *\nDisallow: /private0/\nCrawl-delay: 3\n"}


def _check(tmp_path, urls, hosts, times, granted=None, first_parts=None):
    n = len(urls)
    dirs = _write_case(tmp_path, urls, hosts, times, n if first_parts is None else first_parts)
    return gate.check_crawl(*dirs, {"granted": n if granted is None else granted}, ROBOTS, 2, 1)


def test_gate_accepts_a_polite_log(tmp_path):
    urls = ["http://a.org/1", "http://a.org/2", "http://b.org/1", "http://b.org/2"]
    assert _check(tmp_path, urls, ["a.org", "a.org", "b.org", "b.org"], [0, 3, 0, 2]) == []


@pytest.mark.parametrize(
    "urls, times, granted, parts, message",
    [
        (["http://a.org/1", "http://a.org/1"], [0, 3], None, None, "more than once"),
        (["http://a.org/1", "http://a.org/2", "http://a.org/3"], [0, 1, 2], None, None, "politeness"),
        (["http://a.org/1", "http://a.org/private0/x"], [0, 3], None, None, "robots"),
        (["http://a.org/1", "http://a.org/2"], [0, 3], 3, None, "disagree"),
        (["http://a.org/1", "http://a.org/2"], [0, 3], None, 1, "disagree"),
    ],
)
def test_gate_flags_each_violation(tmp_path, urls, times, granted, parts, message):
    problems = _check(tmp_path, urls, ["a.org"] * len(urls), times, granted, parts)
    assert any(message in p for p in problems), problems


def test_gate_refuses_robots_it_cannot_parse():
    with pytest.raises(ValueError):
        gate.parse_simple_robots("User-agent: *\nAllow: /x\n")


def _violations_by_loop(hosts, times, delays, burst):
    bad = set()
    for h in set(hosts.tolist()):
        idx = [i for i in np.argsort(times, kind="stable") if hosts[i] == h]
        for a in range(len(idx)):
            for b in range(a + burst, len(idx)):
                i, j = idx[a], idx[b]
                if delays[j] * (b - a - burst) >= times[j] - times[i]:
                    bad.add(j)
    return bad


def test_politeness_rule_matches_its_loop_reference():
    rng = np.random.RandomState(0)
    for _ in range(200):
        n = int(rng.randint(1, 12))
        hosts = rng.randint(0, 3, n)
        times = np.sort(rng.randint(0, 20, n))
        delays = np.array([1, 2, 3])[hosts]
        burst = int(rng.randint(1, 3))
        got = set(gate.politeness_violations(hosts, times, delays, burst).tolist())
        assert got == _violations_by_loop(hosts, times, delays, burst)


def test_token_bucket_grants_pass_the_politeness_rule():
    from gotenberg_ray.state.politeness import HostBuckets

    rng = np.random.RandomState(1)
    for burst in (1, 2, 3):
        b = HostBuckets(default_delay=3, capacity=burst)
        granted = []
        for t in range(200):
            for _ in range(int(rng.randint(0, 3))):
                ok, _ = b.reserve("h", t)
                if ok:
                    granted.append(t)
        times = np.array(granted)
        zeros = np.zeros(len(times), dtype=np.int64)
        assert len(gate.politeness_violations(zeros, times, zeros + 3, burst)) == 0
        assert len(gate.politeness_violations(zeros, times, zeros + 4, burst)) > 0


def test_traced_crawl_self_times_add_up_and_wrappers_come_off(clock, tmp_path):
    w = run.WORKLOADS["broad_crawl"].scaled(0.02)
    inputs = run.make_inputs(w, seed=4)
    original = FrontierShard.pop_epoch
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = run.run_rep(w, inputs, clock, str(tmp_path))
    finally:
        tracer.uninstall()
    assert FrontierShard.pop_epoch is original
    assert rep.problems == []
    self_s = tracer.self_times()
    wall = tracer.crawl_wall()
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    m = tracing.layer_metrics(self_s, tracer.counts, rep.totals)
    for layer in ("urlkit.canonicalize_s", "convert.s", "fetcher.s", "checkpoint.write_s",
                  "checkpoint.load_s", "shard.restore_s", "sink.write_s", "robots.s"):
        assert m[layer][0] > 0, layer
    assert m["convert.rows"][0] == m["fetcher.rows"][0] == rep.urls
    assert m["checkpoint.writes"][0] >= 2


def test_cli_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "crawlbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "crawlbench/run.py", "--workload", "broad_crawl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_run_makes_its_fixed_count_and_reports_the_declared_metrics(trace, key, monkeypatch):
    import json

    # as the command line does, keep ray out of the process
    for name in [m for m in sys.modules if m == "ray" or m.startswith("ray.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "ray", None)
    monkeypatch.setattr(run, "MAX_STRETCH", 100.0)  # a slow host must not cut the count
    declared = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    w = run.WORKLOADS["polite_deep_queue"].scaled(0.02)
    w = dataclasses.replace(w, config=dict(w.config, max_epochs=30), stop_epochs=(10, 20), rep_s=1.0)
    result = run.measure(w, seed=7, seconds=4, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (6 if trace else 4)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared[key])


def _fake_rep(segment_ms):
    # set-up, epochs 0 and 1, a resume, epoch 2
    return run.Rep(
        urls=100, spans=300, points=(-1, 0, 1, 0, 1, -1, 8, 0),
        segment_ms=np.array(segment_ms, dtype=float),
        segment_epoch=np.array([-1, 0, 0, 1, 1, -2, -2, 2]),
        grants=np.array([60, 40, 0]), checkpoint_bytes=2_000_000, totals={}, problems=[],
    )


def test_end_to_end_sums_each_segments_fastest_time():
    reps = [
        _fake_rep([300, 10, 50, 30, 10, 100, 100, 5]),
        _fake_rep([100, 20, 20, 30, 40, 300, 200, 9]),
        _fake_rep([200, 10, 30, 90, 10, 50, 300, 5]),
    ]
    assert reps[0].setup_s == pytest.approx(0.3) and reps[0].resume_s == pytest.approx([0.2])
    m = run.end_to_end(reps)
    # fastest crawl segments 10, 20, 30, 10 and 5: no repetition took 75 ms
    assert m["urls_per_s"][0] == pytest.approx(100 / 0.075)
    assert m["spans_per_s"][0] == pytest.approx(300 / 0.075)
    assert m["epoch_ms_p50"][0] == pytest.approx(35.0)  # busy epochs of 30 and 40 ms
    assert m["setup_s"][0] == pytest.approx(0.1)
    assert m["resume_s"][0] == pytest.approx(0.15)
    assert m["checkpoint_mb"][0] == pytest.approx(2.0)


def test_segment_clock_puts_the_originals_back():
    points = run._segment_points()
    originals = [getattr(owner, attr) for owner, attr in points]
    c = run.SegmentClock()
    assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(points, originals))
    c.close()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(points, originals))
