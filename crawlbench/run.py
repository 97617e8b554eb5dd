"""Single-process crawl benchmark: closed-loop batch crawls with ``mode="local"``.

Run from the repository root:

    python3 crawlbench/run.py --workload broad_crawl --seed 1 --seconds 20 --trace 0

Each run generates its inputs from ``--seed`` (documents, seed frontier,
robots.txt), warms up with one tiny crawl, then repeats the workload's
crawl from scratch a fixed number of times: ``--seconds`` divided by the
workload's nominal repetition time, at least three. Every repetition is a
fresh ``run_crawl`` that stops after the workload's first stop epoch and
is resumed from its snapshot, stopping after each further stop epoch,
until it reaches a fixed fetch or epoch budget. ``SegmentClock`` cuts
each ``run_crawl`` into segments at the entry of each of its steps, and
the gate (``gate.check_crawl``) then checks the repetition. Each
segment's time is its fastest over the repetitions; the crawl, set-up
and resume times are sums of those. The last stdout line is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.LAYERS`` with ``--trace 1``. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".crawlbench_tmp")
TRACE_OUT = os.path.join(ROOT, ".crawlbench_out")
MIN_REPS = 3  # per kind (untraced, traced) and run, whatever --seconds says
MAX_STRETCH = 1.4  # a run starts no repetition after this many --seconds


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_seeds: int
    n_docs: int
    n_hosts: int
    hot_frac: float
    config: dict  # CrawlConfig fields besides ``seed``
    # every repetition stops after each of these epochs and resumes from the
    # snapshot it left; with none it crawls straight to the budget
    stop_epochs: tuple[int, ...]
    # wall time of one repetition, gate included, on the host the benchmark
    # was tuned on (1 of 4 shared Xeon vCPUs). A run makes --seconds / rep_s
    # repetitions, a count that does not depend on how fast the code under
    # test is, so the fastest-segment metrics compare like with like.
    rep_s: float
    # fixes the robots.txt corpus (and so the crawl-delay mix) across seeds
    robots_seed: int | None = None

    def scaled(self, f: float) -> "Workload":
        """The same workload with inputs and fetch budget scaled by ``f``."""
        cfg = dict(self.config)
        if cfg.get("max_fetches"):
            cfg["max_fetches"] = max(1, int(cfg["max_fetches"] * f))
        return dataclasses.replace(
            self,
            n_seeds=max(50, int(self.n_seeds * f)),
            n_docs=max(20, int(self.n_docs * f)),
            config=cfg,
        )

    def warmup(self) -> "Workload":
        """A tiny version, stopped and resumed once, for the untimed warm-up."""
        w = self.scaled(0.02)
        cfg = dict(w.config, max_epochs=min(w.config["max_epochs"], 10))
        return dataclasses.replace(w, config=cfg, stop_epochs=(min(w.stop_epochs[0], 5),))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "broad_crawl",
            20_000,
            4_000,
            2_400,
            0.05,
            dict(
                n_partitions=8,
                epoch_width=256,
                default_delay=2,
                burst=2,
                link_universe=60_000,
                max_links=3,
                shard_capacity=1 << 17,
                # links become grantable in the next epoch, so every epoch is
                # a full generation (the default of 2 alternates full and
                # near-empty epochs)
                link_latency_epochs=1,
                max_epochs=1_000,
                max_fetches=100_000,
                # a snapshot after every epoch puts the checkpoint layers
                # beside the per-row ones
                checkpoint_every=1,
            ),
            stop_epochs=(2,),
            rep_s=4.0,
        ),
        Workload(
            "polite_deep_queue",
            3_000,
            2_000,
            20,
            0.30,
            dict(
                n_partitions=8,
                epoch_width=8,
                default_delay=2,
                burst=1,
                link_universe=1_000,
                max_links=3,
                shard_capacity=1 << 16,
                max_epochs=100,
            ),
            # four resumes a repetition: one resume is too short a sample
            stop_epochs=(20, 40, 60, 80),
            rep_s=5.5,
            # with 20 hosts the per-epoch politeness budget is the sum of 20
            # crawl-delays; a seed-drawn mix would move URLs per epoch by ±12%
            robots_seed=42,
        ),
    )
}


def make_inputs(w: Workload, seed: int):
    from gotenberg_ray.corpus import host_pool, make_documents, make_frontier, make_robots
    from gotenberg_ray.frontier.crawler import CrawlConfig

    docs = make_documents(w.n_docs, seed=seed)
    frontier = make_frontier(
        w.n_seeds, n_docs=w.n_docs, seed=seed, n_hosts=w.n_hosts, hot_frac=w.hot_frac
    )
    robots = make_robots(host_pool(w.n_hosts), seed=seed if w.robots_seed is None else w.robots_seed)
    return docs, frontier, robots, CrawlConfig(seed=seed, **w.config)


def _segment_points():
    """(owner, attribute) of the calls whose entries cut a ``run_crawl``
    into segments. ``LocalShards.pop_epoch`` comes first: it starts each
    loop iteration. The others are the steps of set-up, of a resume and of
    an epoch, so no segment spans more than one step."""
    import pyarrow.parquet as pq

    from gotenberg_ray.frontier import checkpoint as ckpt
    from gotenberg_ray.frontier import crawler
    from gotenberg_ray.frontier.shard import FrontierShard
    from gotenberg_ray.stages.fetcher import SimulatedFetcher

    return (
        (crawler.LocalShards, "pop_epoch"),
        # set-up and resume
        (crawler, "admit_seed_frontier_async"),
        (crawler, "admit_candidates"),
        (crawler, "admit_seed_frontier_collect"),
        (crawler, "partition_of"),
        (FrontierShard, "__init__"),
        (FrontierShard, "offer"),
        (ckpt, "load_latest"),
        (FrontierShard, "restore"),
        # an epoch
        (FrontierShard, "pop_epoch"),
        (FrontierShard, "flush"),
        (FrontierShard, "checkpoint"),
        (crawler.LocalShards, "offer_specs"),
        (SimulatedFetcher, "__call__"),
        (crawler, "convert_batch"),
        (crawler, "admit_links"),
        (crawler, "canonicalize_batch"),
        (pq, "write_table"),
        (ckpt, "write"),
    )


class SegmentClock:
    """Timestamps the call of ``run_crawl`` and the entry of every call in
    ``_segment_points()``. Each segment lasts from one timestamp to the
    next (or to the return), so the segments add up to the ``run_crawl``
    call. Those before its first ``LocalShards.pop_epoch`` are its start
    (set-up, or a resume), the others its crawl. The crawl is
    deterministic, so identical calls cut into the same sequence of
    segments."""

    START = -1  # the epoch of a start segment

    def __init__(self) -> None:
        self.calls: list[tuple[float, int]] = []  # (time, point index)
        self.grants: list[int] = []  # per LocalShards.pop_epoch call
        self._saved = []
        calls, grants, clock = self.calls, self.grants, time.perf_counter
        for i, (owner, attr) in enumerate(_segment_points()):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            if i == 0:

                def hook(*args, _orig=orig, **kwargs):
                    calls.append((clock(), 0))
                    out = _orig(*args, **kwargs)
                    grants.append(sum(g.num_rows for g in out))
                    return out

            else:

                def hook(*args, _orig=orig, _i=i, **kwargs):
                    calls.append((clock(), _i))
                    return _orig(*args, **kwargs)

            setattr(owner, attr, hook)

    def close(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def timed_crawl(self, *args, **kwargs):
        """run_crawl → (result, segments). ``segments`` holds (point index,
        ms, epoch) per segment; ``epoch`` is ``START`` for the start and
        counts this call's loop iterations from 0 after it. The grants of
        each iteration are in ``self.grants``."""
        from gotenberg_ray.frontier import crawler

        self.calls.clear()
        self.grants.clear()
        gc.collect()
        t0 = time.perf_counter()
        res = crawler.run_crawl(*args, mode="local", **kwargs)
        t1 = time.perf_counter()
        if not self.grants:
            raise RuntimeError("crawl ran no epoch")
        calls = [(t0, -1)] + self.calls
        ends = [t for t, _ in calls[1:]] + [t1]
        segments, epoch = [], self.START
        for (t, p), end in zip(calls, ends):
            epoch += p == 0
            segments.append((p, 1e3 * (end - t), epoch))
        return res, segments


def reset_process_caches() -> None:
    """Empty the engine's process-level memos (URL canonicalization,
    markdown render, parsed convert options), so every crawl pays
    admission and conversion as a fresh process would."""
    from gotenberg_ray.functions import markdown, urlkit
    from gotenberg_ray.pipelines import convert

    for name in ("raw", "canon", "host", "hashes"):
        setattr(urlkit._CANON_CACHE, name, None)
    for memo in (markdown._RENDER_CACHE, convert._OPTIONS_CACHE, convert._SCREENSHOT_CACHE):
        memo.clear()


def calib_ms() -> float:
    """Fastest of five runs of a fixed numpy sort, to show how fast the
    host was at the start and the end of a run."""
    x = np.random.RandomState(0).random_sample(1_000_000)
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        np.sort(x, kind="quicksort")
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def snapshot_bytes(ckpt_dir: str) -> int:
    """Bytes of the latest snapshot's scheduler state. Its per-epoch
    metrics table holds wall-clock timings, so it is left out: what is
    counted is the same for every crawl of the same inputs."""
    from gotenberg_ray.frontier import checkpoint as ckpt

    d = ckpt.latest_epoch_dir(ckpt_dir)
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d) if f != "metrics.parquet")


@dataclasses.dataclass
class Rep:
    urls: int
    spans: int
    points: tuple  # segment point indices, in order, over every leg
    segment_ms: np.ndarray  # per segment
    # per segment: the loop iteration over every leg, or -1 - leg for the
    # start of a leg (-1 is the set-up, -2 the first resume, ...)
    segment_epoch: np.ndarray
    grants: np.ndarray  # per loop iteration
    checkpoint_bytes: int  # the snapshot the crawl ends on
    totals: dict  # the crawl's own counters, for per-layer ratios
    problems: list

    @property
    def crawl_s(self) -> float:
        return crawl_s(self.segment_ms, self.segment_epoch)

    @property
    def setup_s(self) -> float:
        return starts_s(self.segment_ms, self.segment_epoch)[0]

    @property
    def resume_s(self) -> list[float]:
        return starts_s(self.segment_ms, self.segment_epoch)[1:]

    def signature(self) -> tuple:
        """What identical repetitions must agree on."""
        return self.totals, len(self.grants), self.points, self.checkpoint_bytes


def crawl_s(segment_ms: np.ndarray, segment_epoch: np.ndarray) -> float:
    return float(segment_ms[segment_epoch >= 0].sum()) / 1e3


def starts_s(segment_ms: np.ndarray, segment_epoch: np.ndarray) -> list[float]:
    """Seconds of each leg's start: the set-up, then each resume."""
    legs = -1 - segment_epoch[segment_epoch < 0]
    return list(np.bincount(legs, weights=segment_ms[segment_epoch < 0]) / 1e3)


def _fresh(workdir: str) -> str:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    reset_process_caches()
    return os.path.join(workdir, "pages")


def run_rep(w: Workload, inputs, clock: SegmentClock, workdir: str) -> Rep:
    """One repetition: a fresh crawl to the workload's budget, stopped after
    each of its ``stop_epochs`` and resumed from the snapshot in the same
    process, gated."""
    from gate import check_crawl

    docs, frontier, robots, cfg = inputs
    pages = _fresh(workdir)
    ckpt_dir = os.path.join(workdir, "ckpt")
    legs = [dataclasses.replace(cfg, max_epochs=e) for e in w.stop_epochs] + [cfg]
    spans, segments, grants = 0, [], []
    for i, leg in enumerate(legs):
        if i:
            reset_process_caches()
        res, leg_segments = clock.timed_crawl(
            frontier, docs, robots, leg, pages_dir=pages, checkpoint_dir=ckpt_dir, resume=i > 0
        )
        spans += res.spans_total
        segments += [
            (p, ms, -1 - i if e == clock.START else e + len(grants)) for p, ms, e in leg_segments
        ]
        grants += clock.grants
    problems = check_crawl(
        res.fetch_log_dir, pages, res.counters, robots, cfg.default_delay, cfg.burst
    )
    return Rep(
        urls=res.fetch_seq,
        spans=spans,
        points=tuple(p for p, _, _ in segments),
        segment_ms=np.array([ms for _, ms, _ in segments]),
        segment_epoch=np.array([e for _, _, e in segments]),
        grants=np.array(grants),
        checkpoint_bytes=snapshot_bytes(ckpt_dir),
        totals=dict(res.counters, spans=spans, epochs=res.epochs),
        problems=problems,
    )


def fastest_segments_ms(reps: list[Rep]) -> np.ndarray:
    """Each segment's fastest time over the repetitions (ms)."""
    return np.min([r.segment_ms for r in reps], axis=0)


def fastest_crawl_s(reps: list[Rep]) -> float:
    return crawl_s(fastest_segments_ms(reps), reps[0].segment_epoch)


def end_to_end(reps: list[Rep]) -> dict:
    """Every repetition crawls the same inputs through the same sequence
    of segments, so a segment's times differ between repetitions only by
    host interference, which only ever adds time. Each segment's time is
    therefore its fastest over the run's fixed number of repetitions. The
    crawl time is the sum over the crawl segments, an epoch's time the sum
    over its segments, and the set-up and each resume the sum over their
    start segments; ``resume_s`` is the mean over the resumes."""
    seg_ms = fastest_segments_ms(reps)
    first = reps[0]
    epoch = first.segment_epoch
    crawl = crawl_s(seg_ms, epoch)
    starts = starts_s(seg_ms, epoch)
    epoch_ms = np.bincount(epoch[epoch >= 0], weights=seg_ms[epoch >= 0], minlength=len(first.grants))
    busy = epoch_ms[first.grants > 0]
    return {
        "urls_per_s": (first.urls / crawl, "1/s"),
        "spans_per_s": (first.spans / crawl, "1/s"),
        "setup_s": (starts[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "epoch_ms_p50": (float(np.percentile(busy, 50)), "ms"),
        "epoch_ms_p90": (float(np.percentile(busy, 90)), "ms"),
        "resume_s": (statistics.fmean(starts[1:]), "s"),
        "checkpoint_mb": (first.checkpoint_bytes / 1e6, "MB"),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: ``seconds / w.rep_s`` repetitions. Traced runs
    alternate untraced and traced repetitions, half of the count each, so
    the tracing overhead is measured within the run."""
    from tracing import Tracer, layer_metrics

    calib_start = calib_ms()
    inputs = make_inputs(w, seed)
    workdir = os.path.join(SCRATCH, f"{os.getpid()}-{w.name}")
    clock = SegmentClock()
    tracer = Tracer()
    attempted = failed = 0
    reps: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    notes: list[str] = []
    try:
        # warm-up: imports, regex compiles and the parquet writer, untimed
        run_rep(w.warmup(), make_inputs(w.warmup(), seed + 7919), clock, workdir)
        n = round(seconds / w.rep_s)
        kinds = [False, True] * max(MIN_REPS, n // 2) if trace else [False] * max(MIN_REPS, n)
        t_start = time.perf_counter()
        for i, on in enumerate(kinds, 1):
            # a host or a change that makes repetitions much slower than
            # rep_s cuts the count short, so the run still ends in time
            over = time.perf_counter() - t_start > MAX_STRETCH * seconds
            if over and len(reps) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS):
                print(f"stopped after {i - 1} of {len(kinds)} repetitions", file=sys.stderr)
                break
            attempted += 1
            first_span, counts_before = len(tracer.spans), dict(tracer.counts)
            if on:
                tracer.install()
            try:
                rep = run_rep(w, inputs, clock, workdir)
            except Exception as e:  # a crashed crawl is a failed operation
                failed += 1
                notes.append(f"rep {i} raised {type(e).__name__}: {e}")
                continue
            finally:
                if on:
                    tracer.uninstall()
            first = (reps or [r for r, _ in traced] or [rep])[0]
            if rep.signature() != first.signature():
                rep.problems.append("counters, epochs or snapshot differ between identical repetitions")
            if rep.problems:
                failed += 1
                notes.append(f"rep {i}: " + "; ".join(rep.problems))
            elif on:
                counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
                self_s = tracer.self_times(first_span)
                wall = tracer.crawl_wall(first_span)
                m = layer_metrics(self_s, counts, rep.totals)
                m["crawler.wall_s"] = (wall, "s")
                m["trace.self_sum_frac"] = (sum(self_s.values()) / wall, "frac")
                traced.append((rep, m))
            else:
                reps.append(rep)
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another run still uses it
            pass
    if sys.modules.get("ray") is not None or any(m.startswith("ray.") for m in sys.modules):
        failed += 1
        notes.append("ray was imported")
    calib_end = calib_ms()
    for note in notes:
        print("FAIL", note, file=sys.stderr)

    metrics: dict = {}
    if trace and traced and reps:
        per_rep = [m for _, m in traced]
        metrics = {
            k: (statistics.median(m[k][0] for m in per_rep), u) for k, (_, u) in per_rep[0].items()
        }
        traced_s = fastest_crawl_s([r for r, _ in traced])
        metrics["trace.overhead_frac"] = (traced_s / fastest_crawl_s(reps) - 1, "frac")
        metrics["host.calib_ms"] = ((calib_start + calib_end) / 2, "ms")
        os.makedirs(TRACE_OUT, exist_ok=True)
        with open(os.path.join(TRACE_OUT, f"spans-{w.name}-seed{seed}.json"), "w") as f:
            json.dump({"workload": w.name, "seed": seed, "spans": tracer.spans}, f)
        wall = metrics["crawler.wall_s"][0]
        shares = sorted(
            ((k, v) for k, (v, u) in metrics.items() if u == "s" and k != "crawler.wall_s"),
            key=lambda kv: -kv[1],
        )
        print(
            f"{w.name} seed {seed}: {len(traced)} traced and {len(reps)} untraced reps; "
            "self-time shares: " + ", ".join(f"{k} {100 * v / wall:.1f}%" for k, v in shares)
        )
    elif not trace and reps:
        metrics = end_to_end(reps)
        print(
            f"{w.name} seed {seed}: {len(reps)} reps of {reps[0].urls} URLs in "
            f"{len(reps[0].grants)} epochs, {len(reps[0].points)} segments, calib {calib_start:.1f}->{calib_end:.1f} ms, "
            f"rep URLs/s {[round(r.urls / r.crawl_s) for r in reps]}, "
            f"fastest segments {round(reps[0].urls / fastest_crawl_s(reps))}"
        )
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "gotenberg_ray", "frontier", "crawler.py")):
        print(f"gotenberg_ray sources not found under {ROOT}", file=sys.stderr)
        return 2
    # the benchmark measures the single-process engine; Ray stays unimportable
    sys.modules["ray"] = None
    sys.path.insert(0, ROOT)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
