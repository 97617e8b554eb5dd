"""Outside-in layer tracing for the crawl benchmark.

``Tracer.install()`` replaces the public entry point of each crawl layer
(a module or class attribute, listed in ``LAYERS``) with a wrapper that
records a span (name, start, end, parent) in memory and a few counts, and
``uninstall()`` puts the originals back. Nothing under ``gotenberg_ray/``
is edited. A span's self time is its duration minus the durations of its
direct children; calls nest strictly (one thread), so the self times of
all spans under a ``run_crawl`` span add up to that span's duration.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np
import pyarrow.parquet as pq

from gotenberg_ray.frontier import checkpoint as ckpt
from gotenberg_ray.frontier import crawler
from gotenberg_ray.frontier.shard import FrontierShard
from gotenberg_ray.stages.fetcher import SimulatedFetcher
from gotenberg_ray.state.bloom import BloomFilter
from gotenberg_ray.state.cuckoo import CuckooFilter
from gotenberg_ray.state.heap import FrontierHeap
from gotenberg_ray.state.robots import RobotsRules

CRAWL_SPAN = "crawler"
CHECKPOINT_WRITE_SPAN = "checkpoint.write"


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


# count hooks: (counts, args, result) -> None, run after the span closes
def _n_urls(c, a, out):
    c["urlkit.urls"] += len(a[0])


def _admitted_links(c, a, out):
    c["admit.links_in"] += a[0].num_rows
    c["admit.links_accepted"] += out[0].num_rows


def _rows_in(key):
    def hook(c, a, out):
        c[key] += a[-1].num_rows

    return hook


def _popped(c, a, out):
    c["heap.popped"] += len(out[0])


def _seen(c, a, out):
    c["seen.keys"] += len(out)
    c["seen.fresh"] += int(np.count_nonzero(out))


def _bloom_probe(c, a, out):
    c["bloom.probes"] += len(out)
    c["bloom.negatives"] += len(out) - int(np.count_nonzero(out))


def _robots(c, a, out):
    c["robots.rows"] += len(out)
    c["robots.denied"] += len(out) - int(np.count_nonzero(out))


def _sink_bytes(c, a, out):
    c["sink.bytes"] += os.path.getsize(a[1])


def _checkpoint_bytes(c, a, out):
    c["checkpoint.writes"] += 1
    c["checkpoint.bytes"] += _dir_bytes(out)


# (owner, attribute, span name, count hook): the layer table of the benchmark
LAYERS = (
    (crawler, "run_crawl", CRAWL_SPAN, None),
    (crawler, "canonicalize_batch", "urlkit.canonicalize", _n_urls),
    (crawler, "admit_links", "admit.links", _admitted_links),
    (crawler, "admit_candidates", "admit.seed", None),
    (crawler, "convert_batch", "convert", _rows_in("convert.rows")),
    (SimulatedFetcher, "__call__", "fetcher", _rows_in("fetcher.rows")),
    (FrontierShard, "flush", "shard.flush", None),
    (FrontierShard, "pop_epoch", "shard.pop_epoch", None),
    (FrontierShard, "checkpoint", "shard.checkpoint", None),
    (FrontierShard, "restore", "shard.restore", None),
    (FrontierHeap, "pop_ready_bulk", "heap.pop", _popped),
    (FrontierHeap, "push_bulk", "heap.push", None),
    (CuckooFilter, "add_if_absent", "cuckoo.add_if_absent", _seen),
    (CuckooFilter, "contains", "cuckoo.contains", None),
    (BloomFilter, "contains", "bloom.contains", _bloom_probe),
    (BloomFilter, "add", "bloom.add", None),
    (RobotsRules, "allowed_batch", "robots", _robots),
    (pq, "write_table", "sink.write", _sink_bytes),
    (ckpt, "write", CHECKPOINT_WRITE_SPAN, _checkpoint_bytes),
    (ckpt, "load_latest", "checkpoint.load", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # parquet writes inside a checkpoint belong to the checkpoint layer
            if name == "sink.write" and stack and spans[stack[-1]][0] == CHECKPOINT_WRITE_SPAN:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in LAYERS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Σ self time per span name over spans[first:]."""
        spans = self.spans
        own = np.array([s[2] - s[1] for s in spans[first:]])
        child = np.zeros(len(own))
        for i, s in enumerate(spans[first:]):
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out: defaultdict[str, float] = defaultdict(float)
        for s, v in zip(spans[first:], own - child):
            out[s[0]] += float(v)
        return dict(out)

    def crawl_wall(self, first: int = 0) -> float:
        return sum(s[2] - s[1] for s in self.spans[first:] if s[0] == CRAWL_SPAN)


def layer_metrics(self_s: dict[str, float], counts: dict, result_totals: dict) -> dict:
    """Per-layer metrics of one traced repetition. ``result_totals`` holds
    the crawl's own counters (offered, admitted, granted, spans, epochs)."""
    t = defaultdict(float, self_s)
    c = defaultdict(float, counts)
    r = defaultdict(float, result_totals)

    def frac(a, b):
        return a / b if b else 0.0

    return {
        "urlkit.canonicalize_s": (t["urlkit.canonicalize"], "s"),
        "urlkit.urls": (c["urlkit.urls"], "count"),
        "admit.links_s": (t["admit.links"], "s"),
        "admit.accept_frac": (frac(c["admit.links_accepted"], c["admit.links_in"]), "frac"),
        "admit.seed_s": (t["admit.seed"], "s"),
        "convert.s": (t["convert"], "s"),
        "convert.rows": (c["convert.rows"], "count"),
        "convert.spans_out": (r["spans"], "count"),
        "convert.us_per_row": (1e6 * frac(t["convert"], c["convert.rows"]), "us"),
        "fetcher.s": (t["fetcher"], "s"),
        "fetcher.rows": (c["fetcher.rows"], "count"),
        "shard.flush_s": (t["shard.flush"], "s"),
        "shard.pop_epoch_self_s": (t["shard.pop_epoch"], "s"),
        "shard.offered": (r["offered"], "count"),
        "shard.admitted_frac": (frac(r["admitted"], r["offered"]), "frac"),
        "shard.granted": (r["granted"], "count"),
        "shard.checkpoint_s": (t["shard.checkpoint"], "s"),
        "shard.restore_s": (t["shard.restore"], "s"),
        "heap.pop_s": (t["heap.pop"], "s"),
        "heap.push_s": (t["heap.push"], "s"),
        "heap.popped": (c["heap.popped"], "count"),
        "heap.repop_per_grant": (frac(c["heap.popped"] - r["granted"], r["granted"]), "ratio"),
        "cuckoo.s": (t["cuckoo.add_if_absent"] + t["cuckoo.contains"], "s"),
        "bloom.s": (t["bloom.contains"] + t["bloom.add"], "s"),
        "seen.keys": (c["seen.keys"], "count"),
        "seen.dup_frac": (frac(c["seen.keys"] - c["seen.fresh"], c["seen.keys"]), "frac"),
        "bloom.neg_frac": (frac(c["bloom.negatives"], c["bloom.probes"]), "frac"),
        "robots.s": (t["robots"], "s"),
        "robots.rows": (c["robots.rows"], "count"),
        "robots.denied_frac": (frac(c["robots.denied"], c["robots.rows"]), "frac"),
        "sink.write_s": (t["sink.write"], "s"),
        "sink.mb": (c["sink.bytes"] / 1e6, "MB"),
        "checkpoint.write_s": (t[CHECKPOINT_WRITE_SPAN], "s"),
        "checkpoint.writes": (c["checkpoint.writes"], "count"),
        "checkpoint.write_mb": (c["checkpoint.bytes"] / 1e6, "MB"),
        "checkpoint.load_s": (t["checkpoint.load"], "s"),
        "crawler.self_s": (t[CRAWL_SPAN], "s"),
        "crawler.epochs": (r["epochs"], "count"),
    }
