"""Crawl scheduler: epoch-synchronous virtual-time driver loop.

The same loop runs in two orchestrations:

- ``mode="local"`` — the *reference scheduler*: plain FrontierShard
  objects driven sequentially in one process. This is the ground truth
  the north rule's determinism criterion compares against.
- ``mode="ray"`` — shards wrapped in Ray actors, the fetch/render
  stage as stateless Ray tasks over Arrow grant chunks.

Shared contract (bit-identical by construction, SURVEY §7.5):
- virtual time in integer ticks; epoch k covers [kW, (k+1)W).
- per epoch: every shard grants all entries ready by the horizon in
  (ready_time, -priority, seq) order under per-host token buckets;
  the global fetch order is the (fetch_time, -priority, seq) sorted
  merge of shard grants (fetch_time never crosses epoch boundaries,
  so epoch-wise concatenation is globally sorted).
- discovered links re-enter the frontier at the NEXT epoch boundary
  with driver-assigned sequence numbers ordered by
  (parent fetch order, link_index) — seq assignment at schedule time
  is what makes ordering independent of Ray task completion order.
- admission (canonicalize → scheme/filter/IP policy) is stateless and
  vectorized; seen-dedup/robots/politeness live in the shards.

Scale notes: partitioning key is fnv64(host) % P (host state locality;
the north rule's frontier redistribution shuffle); P is a config knob
sized so cuckoo shards fit worker heaps (10^10 URLs / P=4096 → ~8 MiB
tables per shard). Links flow back through the object store as Arrow;
pages are written per-epoch to partitioned parquet (resumable output).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import fnv64, splitmix64
from ..functions.urlkit import UrlFilter, canonicalize_batch, host_ip_policy
from ..pipelines.convert import convert_batch
from ..schemas import ERR_FILTERED, ERR_INVALID_INPUT
from ..stages.fetcher import SimulatedFetcher
from .metrics import EpochMetrics
from .shard import GRANT_SCHEMA, FrontierShard

LOG_SCHEMA = pa.schema(
    [
        ("fetch_seq", pa.int64()),
        ("seq", pa.int64()),
        ("fetch_time", pa.int64()),
        ("priority", pa.int32()),
        ("url_canon", pa.string()),
        ("host", pa.string()),
        ("status", pa.string()),
        ("error_type", pa.string()),
        ("http_status", pa.uint16()),
        ("epoch", pa.int64()),
    ]
)

CANDIDATE_SCHEMA = pa.schema(
    [
        ("url_canon", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("path", pa.string()),
        ("priority", pa.int32()),
        ("next_fetch_time", pa.int64()),
        ("route", pa.string()),
        ("doc_id", pa.string()),
        ("options_json", pa.string()),
        ("seq", pa.int64()),
    ]
)

# per-URL conversion options: a deterministic mix keyed by url_hash.
# Half the crawl runs the identity chain; the rest exercises the real
# route post-processing (header/footer templates, split, overlays,
# rotate, metadata, encrypt) and the markdown route — the conversion
# work IS the product's cost center (reference renders run 0.5–60 s,
# chromium.go:605), so the bench load must include it.
LINK_OPTIONS = (
    "{}",
    "{}",
    "{}",
    '{"header_template": "<span class=\\"pageNumber\\"></span> of '
    '<span class=\\"totalPages\\"></span>", "footer_template": "p. '
    '<span class=\\"pageNumber\\"></span>"}',
    '{"split_mode": "intervals", "split_span": "2"}',
    '{"watermark_source": "text", "watermark_expression": "DRAFT", '
    '"rotate_angle": 90, "rotate_pages": "1"}',
    '{"metadata": {"Author": "crawler", "Producer": "gotenberg-ray"}, '
    '"pdfa": "PDF/A-2b"}',
    '{"generate_document_outline": true, "flatten": true}',
)
LINK_ROUTES = (
    "convert/url",
    "convert/url",
    "convert/url",
    "convert/url",
    "convert/markdown",
    "screenshot/url",
)
# screenshot routes draw from their own option group — the screenshot
# form fields (routes.go:337-410) are disjoint from the PDF chain's
SCREENSHOT_LINK_OPTIONS = (
    "{}",
    '{"format": "jpeg", "quality": 80}',
    '{"format": "webp", "optimize_for_speed": true}',
    '{"clip": true, "width": 1280, "height": 720}',
    '{"format": "png", "omit_background": true, "device_scale_factor": 2.0}',
)
_OPTIONS_SALT = 0x5D1E37A9C4B68F02
_ROUTE_SALT = 0x3B8F1C6E9A2D5740


_OPTIONS_DICT = pa.array(LINK_OPTIONS, pa.string())
_ROUTES_DICT = pa.array(LINK_ROUTES, pa.string())
_SHOT_OPTIONS_DICT = pa.array(SCREENSHOT_LINK_OPTIONS, pa.string())


def _options_for_hashes(hashes: np.ndarray) -> tuple[pa.Array, pa.Array]:
    o = splitmix64(
        np.asarray(hashes, dtype=np.uint64) ^ np.uint64(_OPTIONS_SALT)
    ) % np.uint64(len(LINK_OPTIONS))
    r = splitmix64(
        np.asarray(hashes, dtype=np.uint64) ^ np.uint64(_ROUTE_SALT)
    ) % np.uint64(len(LINK_ROUTES))
    routes = _ROUTES_DICT.take(pa.array(r.astype(np.int64)))
    # one C gather each instead of a per-row Python list index; screenshot
    # rows re-gather from the screenshot option group
    opts = _OPTIONS_DICT.take(pa.array(o.astype(np.int64)))
    shot = r == np.uint64(len(LINK_ROUTES) - 1)
    if shot.any():
        shot_opts = _SHOT_OPTIONS_DICT.take(
            pa.array((o % np.uint64(len(SCREENSHOT_LINK_OPTIONS))).astype(np.int64))
        )
        opts = pc.if_else(pa.array(shot), shot_opts, opts)
    return opts, routes


# accepted link candidates as produced INSIDE the fetch stage (before
# the driver assigns seq / next_fetch_time) — admission runs on the
# workers so the driver never canonicalizes URLs serially
LINK_CANDIDATE_COLS = [
    "parent_seq",
    "link_index",
    "url_canon",
    "url_hash",
    "host",
    "path",
    "priority",
    "route",
    "doc_id",
    "options_json",
]


@dataclasses.dataclass
class CrawlConfig:
    n_partitions: int = 4
    epoch_width: int = 8
    max_epochs: int = 10_000
    max_fetches: int | None = None
    seed: int = 42
    default_delay: int = 2
    burst: int = 1
    allow: tuple[str, ...] = ()
    deny: tuple[str, ...] = ()
    link_universe: int = 1000
    max_links: int = 3
    shard_capacity: int = 1 << 16
    checkpoint_every: int = 0  # epochs; 0 = only final
    fetch_batch_size: int = 4096
    fetch_concurrency: int = 4
    fetch_num_cpus: float = 1.0
    # logical reservation only — shards are idle during the fetch phase,
    # so they must never block fetch tasks from scheduling
    shard_num_cpus: float = 0.01
    # epochs between a link's DISCOVERY epoch and its earliest grant
    # epoch. 2 (default) decouples the shard step from the fetch barrier:
    # epoch k+1's offer+pop round trip only needs epoch k-1's links, so
    # it runs CONCURRENTLY with epoch k's fetch (the classic crawl
    # frontier-refresh pipeline). 1 = fully synchronous scheduling.
    link_latency_epochs: int = 2
    # False → workers return only a row-count log (seq column); the
    # driver skips per-epoch log sorting entirely (bench mode)
    detailed_logs: bool = True
    # hot-host skew salting (SURVEY §4.2 row 3): hosts listed here have
    # their URLs spread over salt_k shard sub-queues (partition_of);
    # politeness compensates inside each shard (delay × salt_k), so the
    # host's total fetch rate is unchanged while admission/heap/grant
    # work for it parallelizes k-ways. At production scale the list is
    # fed from the previous run's host histogram.
    salt_hosts: tuple[str, ...] = ()
    salt_k: int = 1
    # auto-salting (SURVEY §4.2 row 3 "k chosen from observed depth"):
    # detect hot hosts from a Misra–Gries pass over the ADMITTED seed
    # frontier before the first offer and fold them into salt_hosts,
    # with salt_k = the observed hot share in fair-share units. The
    # decision is made once per run and rides the checkpointed config —
    # see resolve_auto_salt for why it must never change mid-run.
    auto_salt: bool = False
    # hot bar in fair-share (n/P) units: any host above ONE fair share
    # cannot be balanced by hashing alone; 1.5 leaves headroom so
    # ordinary skew doesn't salt every slightly-popular host. (The
    # join layer's detect_hot_keys uses 4× because a join partition
    # tolerates more imbalance than a politeness-bound crawl shard.)
    auto_salt_factor: float = 1.5

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


# ---------------------------------------------------------------- admission

# hosts that could possibly be IP literals start with a digit, colon or
# bracket — everything else is a DNS name, no per-row ipaddress parse
_IP_PREFIX_PAT = r"^[0-9:\[]"
_PATH_OF_CANON_PAT = r"^https?://[^/?#]*(?P<path>/[^?#]*)?"


def _admission_errors(
    canon: pa.Array, hosts: pa.Array, url_filter: UrlFilter
) -> np.ndarray:
    """Vectorized scheme/regex/IP-policy gate → error-code object array
    ('' = accepted). Same decisions as the reference chain
    (routes.go:417-435 scheme reject, filter.go allow/deny,
    outbound.go IP class), taken batch-at-a-time."""
    n = len(canon)
    err = np.full(n, "", dtype=object)
    ok_scheme = pc.or_(
        pc.starts_with(canon, "http://"), pc.starts_with(canon, "https://")
    ).to_numpy(zero_copy_only=False)
    err[~ok_scheme] = ERR_INVALID_INPUT  # scheme reject, routes.go:417-435
    if url_filter.allow or url_filter.deny:
        dec = url_filter.decide_batch(canon.to_pylist())
        err[ok_scheme & ~dec] = ERR_FILTERED
    # IP-class policy: only hosts that LOOK like IP literals get parsed
    ip_like = pc.match_substring_regex(hosts, _IP_PREFIX_PAT).to_numpy(
        zero_copy_only=False
    )
    if ip_like.any():
        hosts_l = hosts.to_pylist()
        for i in np.nonzero(ip_like & (err == ""))[0]:
            if host_ip_policy(hosts_l[i]) == "non_public":
                err[i] = ERR_FILTERED  # outbound.go IP-class policy
    return err


def _paths_of_canon(canon: pa.Array) -> pa.Array:
    """Vectorized path extraction (query/fragment stripped, '' → '/')."""
    ext = pc.extract_regex(canon, pattern=_PATH_OF_CANON_PAT)
    p = pc.struct_field(ext, "path")
    p = pc.fill_null(p, "/")
    return pc.if_else(pc.equal(p, ""), pa.scalar("/"), p)


def admit_candidates(
    batch: pa.Table, url_filter: UrlFilter
) -> tuple[pa.Table, pa.Table]:
    """Stateless admission: canonicalize + scheme/regex/IP-policy gate.

    In: raw rows with url, priority, next_fetch_time, route, doc_id,
    options_json, seq. Out: (accepted CANDIDATE_SCHEMA rows, rejected
    rows with error_type).
    """
    urls = batch.column("url")
    canon, hosts, hashes = canonicalize_batch(urls)
    err = _admission_errors(canon, hosts, url_filter)
    ok = err == ""
    ok_pa = pa.array(ok)
    canon_ok = canon.filter(ok_pa)
    accepted = pa.table(
        {
            "url_canon": canon_ok,
            "url_hash": pa.array(hashes[ok]),
            "host": hosts.filter(ok_pa),
            "path": _paths_of_canon(canon_ok),
            "priority": batch.column("priority").filter(ok_pa).cast(pa.int32()),
            "next_fetch_time": batch.column("next_fetch_time").filter(ok_pa),
            "route": batch.column("route").filter(ok_pa),
            "doc_id": batch.column("doc_id").filter(ok_pa),
            "options_json": batch.column("options_json").filter(ok_pa),
            "seq": batch.column("seq").filter(ok_pa),
        },
        schema=CANDIDATE_SCHEMA,
    )
    rejected = pa.table(
        {
            "url": urls.filter(pa.array(~ok)),
            "error_type": pa.array([e for e in err if e], pa.string()),
        }
    )
    return accepted, rejected


def admit_links(
    links: pa.Table,
    url_filter: UrlFilter,
    n_docs: int,
    n_partitions: int = 0,
    salt_hosts: tuple[str, ...] = (),
    salt_k: int = 1,
) -> tuple[pa.Table, pa.Table]:
    """Stateless admission for discovered links — runs INSIDE the fetch
    workers (parallel), not on the driver. In: (parent_seq,
    parent_priority, url, link_index). Out: LINK_CANDIDATE_COLS rows +
    rejected (url, error_type). Link priority decays by 1 per hop;
    doc_id (the synthetic fetch-result key) is fnv64(url) % n_docs."""
    urls = links.column("url")
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    canon, hosts, hashes = canonicalize_batch(urls)
    err = _admission_errors(canon, hosts, url_filter)
    ok = err == ""
    ok_pa = pa.array(ok)
    canon_ok = canon.filter(ok_pa)
    hosts_ok = hosts.filter(ok_pa)
    hashes_ok = hashes[ok]
    doc_ids = hashes_ok % np.uint64(max(1, n_docs))
    options_mix, routes_mix = _options_for_hashes(hashes_ok)
    accepted = pa.table(
        {
            "parent_seq": links.column("parent_seq").filter(ok_pa),
            "link_index": links.column("link_index").filter(ok_pa),
            "url_canon": canon_ok,
            "url_hash": pa.array(hashes_ok),
            "host": hosts_ok,
            "path": _paths_of_canon(canon_ok),
            "priority": pc.max_element_wise(
                pc.subtract(links.column("parent_priority").filter(ok_pa), 1), 0
            ).cast(pa.int32()),
            "route": routes_mix,
            "doc_id": pc.binary_join_element_wise(
                pa.scalar("doc-"),
                pc.utf8_lpad(
                    pc.cast(pa.array(doc_ids.astype(np.int64)), pa.string()),
                    width=6,
                    padding="0",
                ),
                pa.scalar(""),
            ),
            "options_json": options_mix,
        }
    )
    if n_partitions:
        # partition assignment happens here (in the parallel workers)
        # so the driver routes by a precomputed column
        accepted = accepted.append_column(
            "partition",
            pa.array(
                partition_of(
                    hosts_ok,
                    n_partitions,
                    url_hashes=hashes_ok,
                    salt_hosts=salt_hosts,
                    salt_k=salt_k,
                )
            ),
        )
    rejected = pa.table(
        {
            "url": urls.filter(pa.array(~ok)),
            "error_type": pa.array([e for e in err if e], pa.string()),
        }
    )
    return accepted, rejected


def _admit_slice(frontier: pa.Table, off: int, ln: int, url_filter) -> tuple:
    """Stateless admission task body: slice is zero-copy off the
    plasma-resident seed table."""
    return admit_candidates(frontier.slice(off, ln), url_filter)


def admit_seed_frontier_async(
    frontier: pa.Table, url_filter, parallel: bool, chunk_rows: int = 16_384
):
    """Dispatch seed admission, fanned out over Ray tasks when
    ``parallel`` and the list is large enough to beat task overhead.
    Returns a handle for :func:`admit_seed_frontier_collect` — callers
    dispatch FIRST, do other setup (shard/runner construction), then
    collect, so admission overlaps the rest of crawl startup. Chunk
    boundaries are deterministic and results concatenate in chunk
    order, so the output is ROW-IDENTICAL to the sequential path —
    parity and checkpoint bit-stability are unaffected."""
    n = frontier.num_rows
    if not parallel or n < 2 * chunk_rows:
        return ("sync", frontier, url_filter)
    import ray

    task = ray.remote(num_cpus=1)(_admit_slice)
    ref = ray.put(frontier)
    bounds = list(range(0, n, chunk_rows))
    refs = [
        task.remote(ref, off, min(chunk_rows, n - off), url_filter) for off in bounds
    ]
    return ("async", refs, None)


def admit_seed_frontier_collect(handle) -> tuple[pa.Table, pa.Table]:
    kind, a, b = handle
    if kind == "sync":
        return admit_candidates(a, b)
    import ray

    parts = ray.get(a)
    accepted = pa.concat_tables([p[0] for p in parts])
    rejected = pa.concat_tables([p[1] for p in parts])
    return accepted, rejected


def admit_seed_frontier(
    frontier: pa.Table, url_filter, parallel: bool, chunk_rows: int = 16_384
) -> tuple[pa.Table, pa.Table]:
    return admit_seed_frontier_collect(
        admit_seed_frontier_async(frontier, url_filter, parallel, chunk_rows)
    )


def partition_of(
    hosts: list[str] | pa.Array,
    n_partitions: int,
    url_hashes: np.ndarray | None = None,
    salt_hosts: tuple[str, ...] = (),
    salt_k: int = 1,
) -> np.ndarray:
    """North-rule partitioner: ``fnv64(host) % P``, with hot-host skew
    salting (SURVEY §4.2 row 3): hosts named in ``salt_hosts`` spread
    their URLs over ``salt_k`` sub-queues via
    ``(fnv64(host) ⊕ splitmix64(1 + url_hash % k)) % P``. The salt is a
    pure function of the URL, so a duplicate URL always routes to the
    same shard (seen-set stays exact). Politeness compensates inside
    the shard: a salted host's token bucket runs at delay × k, so the
    host's TOTAL steady-state fetch rate is unchanged (k sub-queues ×
    rate/k); only the initial burst allowance is transiently k×.
    At production scale ``salt_hosts`` is fed from the previous run's
    host histogram (any host above ~1/P of the corpus)."""
    if not isinstance(hosts, (pa.Array, pa.ChunkedArray)):
        hosts = pa.array(["" if h is None else h for h in hosts], pa.string())
    h = fnv64(hosts)  # bounded host pool → fnv64's dictionary dedup hits
    if salt_hosts and salt_k > 1 and url_hashes is not None:
        hosts_pa = hosts if isinstance(hosts, pa.Array) else hosts.combine_chunks()
        hot = pc.is_in(hosts_pa, value_set=pa.array(list(salt_hosts), pa.string()))
        hot_np = hot.to_numpy(zero_copy_only=False)
        if hot_np.any():
            salts = splitmix64(
                np.uint64(1) + np.asarray(url_hashes, dtype=np.uint64) % np.uint64(salt_k)
            )
            h = np.where(hot_np, h ^ salts, h)
    return (h % np.uint64(n_partitions)).astype(np.int64)


def resolve_auto_salt(cfg: CrawlConfig, accepted: pa.Table) -> CrawlConfig:
    """Hot-host auto-salting (SURVEY §4.2 row 3, "k chosen from
    observed depth"): one Misra–Gries pass over the ADMITTED seed
    frontier's hosts; a host whose lower-bound count exceeds
    ``auto_salt_factor ×`` the fair per-shard share (n/P) joins
    ``salt_hosts``, and ``salt_k`` is the observed depth —
    ⌈hottest count / fair share⌉, capped at P.

    The decision is made ONCE, before the first offer, and persisted
    via the checkpointed config. It must never change mid-run: routing
    has to stay a pure function of the URL because the shard-LOCAL
    seen sets are keyed by routing — re-salting an already-offered
    host would send a re-offered duplicate to a shard that has never
    seen it, breaking the layout-independence contract (identical
    fetched set and duplicate count under any salting) that
    test_hot_host_salting asserts. Mid-run epoch-boundary re-salting
    requires the two-phase seen/queue split (seen-check at a
    url-hash-keyed shard, queue+politeness at the salted shard) — the
    documented 100 TB growth path, deliberately not taken here."""
    from ..state.heavy import MisraGries

    n = accepted.num_rows
    if n == 0 or cfg.n_partitions <= 1:
        return cfg
    g = (
        pa.table({"h": accepted.column("host").combine_chunks()})
        .group_by("h")
        .aggregate([([], "count_all")])
        .rename_columns(["h", "c"])
    )
    mg = MisraGries(4096)
    mg.update(
        g["h"].to_numpy(zero_copy_only=False),
        g["c"].to_numpy(zero_copy_only=False),
    )
    fair = n / cfg.n_partitions
    thresh = cfg.auto_salt_factor * fair
    hot = [
        (str(k), int(c)) for k, c in zip(mg.keys, mg.counts) if c >= thresh
    ]
    if not hot:
        return cfg
    k = min(
        cfg.n_partitions,
        max(int(np.ceil(c / fair)) for _, c in hot),
    )
    if k <= 1:
        return cfg
    hosts = tuple(sorted(set(cfg.salt_hosts) | {h for h, _ in hot}))
    return dataclasses.replace(
        cfg, salt_hosts=hosts, salt_k=max(cfg.salt_k, k)
    )


def _split_by_partition(table: pa.Table, parts: np.ndarray, n: int) -> list[pa.Table]:
    """One stable argsort + one take + zero-copy slices — NOT n filter
    passes over the full table."""
    order = np.argsort(parts, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    bounds = np.searchsorted(parts[order], np.arange(n + 1))
    return [
        sorted_tbl.slice(bounds[p], bounds[p + 1] - bounds[p])
        if bounds[p + 1] > bounds[p]
        else table.schema.empty_table()
        for p in range(n)
    ]


def _sort_grants(tables: list[pa.Table]) -> pa.Table:
    live = [t for t in tables if t.num_rows]
    if not live:
        return GRANT_SCHEMA.empty_table()
    merged = pa.concat_tables(live)
    return merged.sort_by(
        [("fetch_time", "ascending"), ("priority", "descending"), ("seq", "ascending")]
    )


# ---------------------------------------------------------------- shard sets


class LocalShards:
    """Sequential orchestration — the determinism reference."""

    def __init__(self, cfg: CrawlConfig, robots: dict[str, str]):
        self.shards = [
            FrontierShard(
                p,
                capacity=cfg.shard_capacity,
                seed=cfg.seed,
                default_delay=cfg.default_delay,
                burst=cfg.burst,
                robots_texts=robots,
                salt_hosts=cfg.salt_hosts,
                salt_k=cfg.salt_k,
            )
            for p in range(cfg.n_partitions)
        ]

    def offer(self, tables: list[pa.Table]) -> None:
        for shard, t in zip(self.shards, tables):
            if t.num_rows:
                shard.offer(t)

    def offer_specs(self, specs: dict[int, list[tuple]], ready_time: int) -> None:
        for p, parts in specs.items():
            self.shards[p].offer_assembled(parts, ready_time)

    def pop_epoch(self, horizon: int) -> list[pa.Table]:
        return [s.pop_epoch(horizon) for s in self.shards]

    def min_ready(self) -> int | None:
        vals = [s.min_ready() for s in self.shards]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def counters(self) -> dict:
        total: dict[str, int] = {}
        for s in self.shards:
            for k, v in s.get_counters().items():
                total[k] = total.get(k, 0) + v
        return total

    def checkpoints(self) -> list[dict]:
        return [s.checkpoint() for s in self.shards]

    def restore(self, states: list[dict]) -> None:
        for s, st in zip(self.shards, states):
            s.restore(st)


class RayShards:
    """Actor-pool orchestration of the same shards."""

    def __init__(self, cfg: CrawlConfig, robots: dict[str, str]):
        import ray

        actor_cls = ray.remote(num_cpus=cfg.shard_num_cpus)(FrontierShard)
        robots_ref = ray.put(robots)
        self.actors = [
            actor_cls.remote(
                p,
                capacity=cfg.shard_capacity,
                seed=cfg.seed,
                default_delay=cfg.default_delay,
                burst=cfg.burst,
                robots_texts=robots_ref,
                salt_hosts=cfg.salt_hosts,
                salt_k=cfg.salt_k,
            )
            for p in range(cfg.n_partitions)
        ]
        # actor processes spawn lazily at the first call — fire the
        # readiness probe now so they warm up while the driver builds
        # fetch state and admits the seed frontier
        self._warmup = [a.__ray_ready__.remote() for a in self.actors]
        self._ray = ray

    def offer(self, tables: list[pa.Table]) -> None:
        refs = [
            a.offer.remote(t) for a, t in zip(self.actors, tables) if t.num_rows
        ]
        self._ray.get(refs)

    def offer_specs(self, specs: dict[int, list[tuple]], ready_time: int) -> None:
        refs = [
            self.actors[p].offer_assembled.remote(parts, ready_time)
            for p, parts in specs.items()
        ]
        self._ray.get(refs)

    def step(
        self, specs: dict[int, list[tuple]], ready_time: int, horizon: int
    ) -> list[tuple]:
        """Single RPC round per shard per epoch: deliver the previous
        epoch's candidates AND pop this epoch's grants."""
        return self._ray.get(self.step_refs(specs, ready_time, horizon))

    def step_refs(
        self, specs: dict[int, list[tuple]], ready_time: int, horizon: int
    ) -> list:
        """Async step: fire the offer+pop round and return the refs —
        the driver collects them AFTER the concurrent fetch finishes."""
        return [
            a.offer_and_pop.remote(specs.get(p, []), ready_time, horizon)
            for p, a in enumerate(self.actors)
        ]

    def collect(self, refs: list) -> list[tuple]:
        return self._ray.get(refs)

    def min_ready(self) -> int | None:
        vals = [v for v in self._ray.get([a.min_ready.remote() for a in self.actors]) if v is not None]
        return min(vals) if vals else None

    def counters(self) -> dict:
        total: dict[str, int] = {}
        for c in self._ray.get([a.get_counters.remote() for a in self.actors]):
            for k, v in c.items():
                total[k] = total.get(k, 0) + v
        return total

    def checkpoints(self) -> list[dict]:
        return self._ray.get([a.checkpoint.remote() for a in self.actors])

    def restore(self, states: list[dict]) -> None:
        self._ray.get(
            [a.restore.remote(st) for a, st in zip(self.actors, states)]
        )


# ------------------------------------------------------------- fetch runners

_LOG_COLS = [
    "seq", "fetch_time", "priority", "url_canon", "host",
    "status", "error_type", "http_status",
]


def _extract_links(result: pa.Table) -> pa.Table:
    """Flatten the links list column → (parent_seq, parent_priority,
    url, link_index) rows, vectorized."""
    links = result.column("links")
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = pc.list_flatten(links)
    parents = pc.list_parent_indices(links)
    if len(flat) == 0:
        return pa.table(
            {
                "parent_seq": pa.array([], pa.int64()),
                "parent_priority": pa.array([], pa.int32()),
                "url": pa.array([], pa.string()),
                "link_index": pa.array([], pa.int32()),
            }
        )
    seqs = result.column("seq").take(parents)
    prios = result.column("priority").take(parents)
    return pa.table(
        {
            "parent_seq": seqs.cast(pa.int64()),
            "parent_priority": prios.cast(pa.int32()),
            "url": flat.field("url"),
            "link_index": flat.field("link_index"),
        }
    )


def _convert_and_write(
    result: pa.Table, epoch: int, chunk: int, pages_dir: str | None
) -> int:
    """Apply the conversion chain (SURVEY §3.1 stub order) to the fetch
    output and write the part rows to the per-epoch parquet sink.
    Returns the number of output spans."""
    converted = convert_batch(result)
    if pages_dir:
        d = f"{pages_dir}/epoch={epoch:06d}"
        os.makedirs(d, exist_ok=True)
        pq.write_table(converted, f"{d}/part-{chunk:04d}.parquet")
    return pc.sum(pc.list_value_length(converted.column("spans"))).as_py() or 0


class LocalFetchRunner:
    def __init__(self, docs: pa.Table, cfg: CrawlConfig, pages_dir: str | None = None):
        self.fetcher = SimulatedFetcher(
            SimulatedFetcher.build_state(docs),
            link_universe=cfg.link_universe,
            max_links=cfg.max_links,
        )
        self.url_filter = UrlFilter(list(cfg.allow), list(cfg.deny))
        self.n_docs = docs.num_rows
        self.pages_dir = pages_dir
        self.cfg = cfg
        self.spans_total = 0

    def __call__(self, grants: pa.Table, epoch: int):
        result = self.fetcher(grants)
        self.spans_total += _convert_and_write(result, epoch, 0, self.pages_dir)
        accepted, rejected = admit_links(
            _extract_links(result),
            self.url_filter,
            self.n_docs,
            self.cfg.n_partitions,
            salt_hosts=self.cfg.salt_hosts,
            salt_k=self.cfg.salt_k,
        )
        keys = accepted.select(["parent_seq", "link_index", "partition"])
        payload = accepted.drop_columns(["partition"])
        cols = _LOG_COLS if self.cfg.detailed_logs else ["seq"]
        return result.select(cols), [keys], [payload], rejected


class _FetchWorker(SimulatedFetcher):
    """Per-worker fetch state: fetches a chunk, writes its page rows
    straight to the partitioned parquet sink, admits discovered links
    in-worker (canonicalize + filter + IP policy — the driver never
    touches raw link URLs), and returns only the small log/candidate
    columns."""

    def __init__(self, *args, allow=(), deny=(), n_partitions=0,
                 detailed_logs=True, salt_hosts=(), salt_k=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.url_filter = UrlFilter(list(allow), list(deny))
        self.n_partitions = n_partitions
        self.log_cols = _LOG_COLS if detailed_logs else ["seq"]
        self.salt_hosts = tuple(salt_hosts)
        self.salt_k = int(salt_k)

    def fetch(
        self, batch: pa.Table, epoch: int, chunk: int, pages_dir: str | None
    ) -> tuple:
        import time as _t

        _w0 = _t.time()
        result = self(batch)
        n_spans = _convert_and_write(result, epoch, chunk, pages_dir)
        accepted, rejected = admit_links(
            _extract_links(result),
            self.url_filter,
            self.n_docs,
            self.n_partitions,
            salt_hosts=self.salt_hosts,
            salt_k=self.salt_k,
        )
        # candidate payloads stay in the object store — only the small
        # routing keys go back to the driver; shards pull the payload
        # rows they own directly from plasma
        import ray

        payload_ref = ray.put(accepted.drop_columns(["partition"]))
        keys = accepted.select(["parent_seq", "link_index", "partition"])
        busy = _t.time() - _w0
        return result.select(self.log_cols), keys, payload_ref, rejected, n_spans, busy


# per-worker-process cache: fetch state reconstructed once per worker,
# keyed by the state ObjectRef (plasma get is zero-copy for the arrow
# parts; only the small dicts/arrays rebuild)
_FETCH_STATE_CACHE: dict[str, "_FetchWorker"] = {}


def _fetch_task(state_box, grants: pa.Table, off: int, ln: int, epoch: int,
                chunk: int, pages_dir: str | None, params: dict):
    """Stateless fetch task: Ray schedules these dynamically across all
    free CPUs — no static chunk→actor assignment, so host-speed jitter
    and uneven epochs self-balance. ``state_box`` holds the state ref
    un-resolved (nested) so the per-worker cache can key on it."""
    import ray

    key = state_box[0].hex()
    worker = _FETCH_STATE_CACHE.get(key)
    if worker is None:
        _FETCH_STATE_CACHE.clear()  # one crawl's state per worker
        worker = _FetchWorker(docs=ray.get(state_box[0]), **params)
        _FETCH_STATE_CACHE[key] = worker
    return worker.fetch(grants.slice(off, ln), epoch, chunk, pages_dir)


class RayFetchRunner:
    """Fetch stage as stateless Ray tasks, fed one epoch's grants at a time.

    A fresh ``map_batches`` execution per epoch would rebuild its actor
    pool every epoch (seconds of startup each). Instead each epoch's
    chunks are ``_fetch_task`` calls that the Ray scheduler balances
    dynamically over free CPUs, so host-speed jitter and uneven epochs
    self-balance. The documents table is broadcast ONCE via ray.put and
    rebuilt once per worker process (``_FETCH_STATE_CACHE``), never per
    batch. Chunking is deterministic, and results are re-sorted by the
    schedule-time key downstream, so orchestration order never leaks
    into outputs.
    """

    def __init__(self, docs: pa.Table, cfg: CrawlConfig, pages_dir: str | None = None):
        import ray

        self.cfg = cfg
        self.pages_dir = pages_dir
        self._ray = ray
        self.spans_total = 0
        # build (docs table + per-doc stats) ONCE, broadcast the result
        self.state_ref = ray.put(SimulatedFetcher.build_state(docs))
        self.params = dict(
            link_universe=cfg.link_universe,
            max_links=cfg.max_links,
            allow=tuple(cfg.allow),
            deny=tuple(cfg.deny),
            n_partitions=cfg.n_partitions,
            detailed_logs=cfg.detailed_logs,
            salt_hosts=tuple(cfg.salt_hosts),
            salt_k=cfg.salt_k,
        )
        self._task = ray.remote(num_cpus=cfg.fetch_num_cpus)(_fetch_task)

    def dispatch(self, popped: list[tuple], epoch: int) -> list:
        """``popped`` = [(grant_table_ref, key_table)] per shard, as
        ``RayShards.step``/``collect`` return them. Chunks are (ref,
        offset, length) triples — the driver never serializes grant
        rows; workers resolve the ref plasma-locally and slice
        zero-copy. Returns task refs; the caller overlaps other work
        before ``collect``."""
        total = sum(kt.num_rows for _, kt in popped)
        # ~3 chunks per worker lets the dynamic scheduler absorb
        # stragglers in the small remainder epochs; the 1024 floor keeps
        # them from fragmenting into overhead-dominated micro-tasks
        size = max(
            1,
            min(
                self.cfg.fetch_batch_size,
                max(1024, -(-total // (3 * self.cfg.fetch_concurrency))),
            ),
        )
        refs = []
        ci = 0
        for ref, kt in popped:
            n = kt.num_rows
            for off in range(0, n, size):
                ln = min(size, n - off)
                refs.append(
                    self._task.remote(
                        [self.state_ref], ref, off, ln, epoch, ci,
                        self.pages_dir, self.params,
                    )
                )
                ci += 1
        return refs

    def collect(self, refs: list):
        parts = self._ray.get(refs)
        log = pa.concat_tables([p[0] for p in parts])
        keys = [p[1] for p in parts]
        payloads = [p[2] for p in parts]
        rejected = pa.concat_tables([p[3] for p in parts])
        self.spans_total += sum(p[4] for p in parts)
        self.last_busy_s = sum(p[5] for p in parts)  # worker-side wall
        return log, keys, payloads, rejected


# ------------------------------------------------------------------ the loop


@dataclasses.dataclass
class CrawlResult:
    fetch_log: pa.Table
    counters: dict
    rejected: pa.Table
    epochs: int
    next_seq: int
    fetch_seq: int
    spans_total: int = 0
    metrics: pa.Table = None
    fetch_log_dir: str | None = None  # set when the log streamed to parquet
    setup_s: float = 0.0  # shard/runner ctor + seed admission wall
    drain_s: float = 0.0  # post-loop delivery/checkpoint/log-assembly wall


def run_crawl(
    frontier: pa.Table,
    docs: pa.Table,
    robots: dict[str, str],
    cfg: CrawlConfig,
    mode: str = "local",
    pages_dir: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    log_sink: Callable[[pa.Table], None] | None = None,
) -> CrawlResult:
    from . import checkpoint as ckpt

    import time as _time

    _t_setup0 = _time.time()
    url_filter = UrlFilter(list(cfg.allow), list(cfg.deny))
    # dispatch seed admission BEFORE building shard actors and fetch
    # state: the admission tasks chew the raw URL list (and warm the
    # worker processes) while the driver constructs everything else
    _admit_handle = (
        admit_seed_frontier_async(frontier, url_filter, parallel=(mode == "ray"))
        if not resume
        else None
    )
    _seed_admitted: tuple | None = None
    state = None
    if resume:
        state = ckpt.load_latest(checkpoint_dir)
        saved = json.loads(state["driver"]["config"])
        # the salting (auto-decided or explicit) rides the checkpointed
        # config — a resumed run MUST route identically to the
        # original, whatever flags the resume command happened to set
        # (review-found: gating adoption on cfg.auto_salt let a resume
        # without the flag rebuild UNSALTED shards over salted
        # seen-state — silent duplicate fetches + politeness collapse)
        cfg = dataclasses.replace(
            cfg,
            salt_hosts=tuple(saved.get("salt_hosts", ())),
            salt_k=int(saved.get("salt_k", 1)),
        )
        # scheduling-critical scalars must match the original run — a
        # mismatch silently changes fetch ordering / politeness budgets
        # over restored state, the same corruption class as the
        # n_partitions refusal below. Execution-detail knobs
        # (fetch_concurrency, batch sizes, max_epochs/max_fetches
        # extensions) stay free.
        _must_match = (
            "seed", "epoch_width", "default_delay", "burst",
            "link_universe", "max_links", "link_latency_epochs",
        )
        _diff = [
            f"{k}: checkpoint={saved.get(k)!r} run={getattr(cfg, k)!r}"
            for k in _must_match
            if k in saved and saved.get(k) != getattr(cfg, k)
        ]
        if _diff:
            raise ValueError(
                "resume config mismatch on scheduling-critical fields "
                "(state restored under the checkpointed values; resume "
                "with them or start a fresh run): " + "; ".join(_diff)
            )
    elif cfg.auto_salt:
        # the salt decision needs the admitted seed hosts, so collect
        # admission before shard construction (auto mode trades a
        # little setup overlap for the observed-host histogram)
        _seed_admitted = admit_seed_frontier_collect(_admit_handle)
        cfg = resolve_auto_salt(cfg, _seed_admitted[0])
    shards = LocalShards(cfg, robots) if mode == "local" else RayShards(cfg, robots)
    runner = (
        LocalFetchRunner(docs, cfg, pages_dir)
        if mode == "local"
        else RayFetchRunner(docs, cfg, pages_dir)
    )
    W = cfg.epoch_width

    # Fetch-log routing: an explicit log_sink wins; otherwise a crawl
    # with a pages_dir streams per-epoch log partitions to parquet
    # (bounded driver RSS at 10^10 fetches — one file per epoch, so a
    # resumed run can skip finished partitions).  The in-memory list is
    # the fallback for small/pages-less runs (tests, parity checks).
    # NB: the log dir is a SIBLING of pages_dir, not a child — pages_dir
    # is read back as one hive-partitioned dataset (epoch=NNNNNN/ dirs),
    # and log files carry an int64 ``epoch`` column that would collide
    # with the string partition field during schema unification.
    fetch_log_dir: str | None = None
    if log_sink is None and pages_dir is not None and cfg.detailed_logs:
        fetch_log_dir = pages_dir.rstrip("/") + "_fetch_log"
        os.makedirs(fetch_log_dir, exist_ok=True)

        def log_sink(t: pa.Table, _d=fetch_log_dir) -> None:
            epoch_val = t.column("epoch")[0].as_py() if t.num_rows else 0
            pq.write_table(t, os.path.join(_d, f"epoch={epoch_val:06d}.parquet"))

    logs: list[pa.Table] = []
    rejected_parts: list[pa.Table] = []
    if resume:
        # (state was loaded before shard construction — the salt config
        # had to be adopted first so the shards' politeness budgets and
        # the routing below agree with the original run)
        # a partition-count mismatch would silently zip-truncate the
        # frontier (dropped seen-sets re-fetch; dropped heaps lose
        # URLs) — refuse rather than resume from a different sharding
        if len(state["shards"]) != cfg.n_partitions:
            raise ValueError(
                f"checkpoint has {len(state['shards'])} partitions but "
                f"the run is configured with {cfg.n_partitions}; resume "
                "with the checkpoint's n_partitions (state is sharded "
                "by fnv64(url) % n_partitions and cannot re-shard here)"
            )
        shards.restore(state["shards"])
        k = state["driver"]["epoch"]
        next_seq = state["driver"]["next_seq"]
        fetch_seq = state["driver"]["fetch_seq"]
        epochs_done = state["driver"]["epochs_done"]
    else:
        # seed admission is a pure function of (rows, filter). Raw seed
        # lists are messy (mixed case, ports, fragments), so most rows
        # take the per-row RFC-3986 parser — ~60µs/URL of driver time.
        # In Ray mode the seed list fans out to stateless admission
        # tasks (plasma ref + slice bounds, zero-copy) exactly like
        # link admission runs in the fetch workers — the driver-serial
        # seed cost was the largest fixed term in the N-vs-4N scaling
        # measurement. Ordered concat keeps the result identical to the
        # sequential reference (determinism parity by construction).
        accepted, rejected = (
            _seed_admitted
            if _seed_admitted is not None  # auto-salt collected early
            else admit_seed_frontier_collect(_admit_handle)
        )
        rejected_parts.append(rejected)
        parts = partition_of(
            accepted.column("host").combine_chunks(),
            cfg.n_partitions,
            url_hashes=accepted.column("url_hash").to_numpy(zero_copy_only=False),
            salt_hosts=cfg.salt_hosts,
            salt_k=cfg.salt_k,
        )
        shards.offer(_split_by_partition(accepted, parts, cfg.n_partitions))
        next_seq = (
            int(pc.max(frontier.column("seq")).as_py()) + 1 if frontier.num_rows else 0
        )
        k, fetch_seq, epochs_done = 0, 0, 0
    # pending link-spec generations: [(specs, ready_time)]. With
    # link_latency_epochs=2, generation k is delivered inside the step
    # for epoch k+2 — which is issued WHILE epoch k+1's fetch runs, so
    # the shard offer+pop round trip costs ~zero wall time in steady
    # state (the frontier-refresh pipeline).
    pending: list[tuple[dict, int]] = []
    L = max(1, int(cfg.link_latency_epochs))

    def _deliver_due(h: int) -> None:
        due = [e for e in pending if e[1] <= h]
        for e in due:
            pending.remove(e)
            shards.offer_specs(e[0], e[1])

    def _deliver_all() -> None:
        for specs_e, ready_e in pending:
            shards.offer_specs(specs_e, ready_e)
        pending.clear()

    epoch_metrics = EpochMetrics()
    _setup_s = _time.time() - _t_setup0
    popped = None  # ray: [(grant_ref, keys)] for epoch k; local: grant table
    step_refs = None  # in-flight pipelined step (ray only)
    # the in-flight FETCH epoch (ray only, at most one): it is collected
    # only after the next epoch's chunks are dispatched, so its
    # straggler tail hides under the next epoch's execution. Folds
    # happen in epoch order, so outputs are unchanged. Disabled for
    # checkpointed runs — a snapshot must never race a
    # dispatched-but-uncollected epoch.
    inflight: list[tuple] = []  # [(fetch_refs, k_f, n_grants_f, t_pop_f, t_fetch_f)]
    overlap_fetch = (
        mode == "ray" and not (checkpoint_dir and cfg.checkpoint_every)
    )

    def _finish_epoch(source, k_f, n_grants_f, t_pop_f, t_fetch_f) -> None:
        """Collect one epoch's fetch results and fold them into logs,
        link-candidate specs, metrics, and counters. ``source`` is the
        Ray fetch-ref list, or (local mode) a zero-arg callable
        producing the already-collected tuple — ONE fold path for both
        modes, so the deterministic seq-assignment / spec-segmentation
        logic cannot diverge between them."""
        nonlocal fetch_seq, next_seq, epochs_done
        _spans_before = getattr(runner, "spans_total", 0)
        if callable(source):
            log, key_tables, payloads, links_rejected = source()
        else:
            log, key_tables, payloads, links_rejected = runner.collect(source)
        _t_route = _time.time()
        if links_rejected.num_rows:
            rejected_parts.append(links_rejected)
        if cfg.detailed_logs:
            # runner output order can be arbitrary (Ray) → re-sort by
            # the schedule-time key for the deterministic global order
            log = log.sort_by(
                [
                    ("fetch_time", "ascending"),
                    ("priority", "descending"),
                    ("seq", "ascending"),
                ]
            )
            log = log.add_column(
                0, "fetch_seq", pa.array(np.arange(fetch_seq, fetch_seq + log.num_rows))
            )
            log = log.append_column("epoch", pa.array(np.full(log.num_rows, k_f)))
            fetch_seq += log.num_rows
            if log_sink is not None:
                log_sink(log)
            else:
                logs.append(log)
        else:
            fetch_seq += log.num_rows

        n_links = sum(t.num_rows for t in key_tables)
        if n_links:
            # deterministic seq assignment from ROUTING KEYS ONLY: links
            # are ordered by (parent's schedule-time seq, link position)
            # regardless of which worker produced them; the candidate
            # payloads never transit the driver — shards pull their rows
            # straight from the workers' object-store tables.
            parent = np.concatenate(
                [t.column("parent_seq").to_numpy(zero_copy_only=False) for t in key_tables]
            )
            lidx = np.concatenate(
                [t.column("link_index").to_numpy(zero_copy_only=False) for t in key_tables]
            )
            part = np.concatenate(
                [t.column("partition").to_numpy(zero_copy_only=False) for t in key_tables]
            )
            chunk_id = np.concatenate(
                [np.full(t.num_rows, ci, dtype=np.int64) for ci, t in enumerate(key_tables)]
            )
            row_idx = np.concatenate(
                [np.arange(t.num_rows, dtype=np.int64) for t in key_tables]
            )
            order = np.lexsort((lidx, parent))
            seqs = np.empty(n_links, dtype=np.int64)
            seqs[order] = np.arange(next_seq, next_seq + n_links, dtype=np.int64)
            next_seq += n_links
            combo = part * len(payloads) + chunk_id
            o2 = np.argsort(combo, kind="stable")
            sc = combo[o2]
            seg_starts = np.concatenate(([0], np.nonzero(np.diff(sc))[0] + 1))
            seg_ends = np.concatenate((seg_starts[1:], [len(sc)]))
            specs: dict[int, list[tuple]] = {}
            for a, b in zip(seg_starts, seg_ends):
                ids = o2[a:b]
                p = int(part[ids[0]])
                c = int(chunk_id[ids[0]])
                specs.setdefault(p, []).append((payloads[c], row_idx[ids], seqs[ids]))
            # deferred: generation k becomes grantable at epoch k+L and
            # is delivered inside the step round trip for that epoch
            pending.append((specs, (k_f + L) * W))
        epoch_metrics.record(
            epoch=k_f,
            grants=n_grants_f,
            errors=(
                log.filter(pc.not_equal(log.column("error_type"), "")).num_rows
                if "error_type" in log.column_names
                else 0
            ),
            links_offered=n_links,
            links_rejected=links_rejected.num_rows,
            spans_out=getattr(runner, "spans_total", 0) - _spans_before,
            pop_s=round(t_fetch_f - t_pop_f, 4),
            # with overlap this window includes the next epoch's pop +
            # dispatch; busy_s carries the true per-epoch work signal
            fetch_s=round(_t_route - t_fetch_f, 4),
            busy_s=round(getattr(runner, "last_busy_s", 0.0), 4),
            route_s=round(_time.time() - _t_route, 4),
        )
        epochs_done += 1

    def _flush_inflight() -> None:
        while inflight:
            _finish_epoch(*inflight.pop(0))

    while (epochs_done + len(inflight)) < cfg.max_epochs and (
        cfg.max_fetches is None
        or fetch_seq + sum(e[2] for e in inflight) < cfg.max_fetches
    ):
        horizon = (k + 1) * W - 1
        _t_pop = _time.time()
        if step_refs is not None:
            # pipelined: the step ran concurrently with last epoch's fetch
            popped = shards.collect(step_refs)
            step_refs = None
            n_grants = sum(kt.num_rows for _, kt in popped)
        else:
            # sync step path needs every discovered link delivered first
            _flush_inflight()
            _deliver_due(horizon)
            if mode == "ray":
                popped = shards.step({}, 0, horizon)
                n_grants = sum(kt.num_rows for _, kt in popped)
            else:
                popped = _sort_grants(shards.pop_epoch(horizon))
                n_grants = popped.num_rows
        if n_grants == 0:
            _flush_inflight()
            _deliver_all()
            mr = shards.min_ready()
            if mr is None:
                break  # frontier exhausted
            k = mr // W
            popped = None
            continue
        _t_fetch = _time.time()
        _spans_before = getattr(runner, "spans_total", 0)
        if pages_dir is not None:
            # clear stale part files before this epoch's chunks write:
            # a killed run may have left parts from a DIFFERENT chunking
            # of the same epoch (fetch_concurrency is an execution
            # detail a resume may change), and read_parquet over the
            # hive layout would otherwise return those rows twice
            _ed = f"{pages_dir}/epoch={k:06d}"
            if os.path.isdir(_ed):
                for _f in os.listdir(_ed):
                    if _f.startswith("part-") and _f.endswith(".parquet"):
                        os.unlink(os.path.join(_ed, _f))
        if mode == "ray":
            fetch_refs = runner.dispatch(popped, k)
            # the previous epoch ran under this epoch's pop and
            # dispatch; fold it now so its links land before the next
            # step is issued (L ≥ 2 puts every generation due by that
            # step's horizon at or before the previous epoch)
            _flush_inflight()
            # issue epoch k+1's step while the fetch runs — exact exit
            # prediction (fetch_seq grows by exactly this epoch's
            # grants) so a step never fires for an epoch the loop won't
            # reach
            will_continue = (epochs_done + 1 < cfg.max_epochs) and (
                cfg.max_fetches is None
                or fetch_seq + n_grants < cfg.max_fetches
            )
            # never pipeline into a checkpoint epoch: the snapshot at the
            # end of THIS epoch must not miss grants a concurrent step
            # already popped
            will_checkpoint = bool(
                checkpoint_dir
                and cfg.checkpoint_every
                and (epochs_done + 1) % cfg.checkpoint_every == 0
            )
            if L >= 2 and will_continue and not will_checkpoint:
                nh = (k + 2) * W - 1
                due = [e for e in pending if e[1] <= nh]
                for e in due:
                    pending.remove(e)
                specs_d = due[0][0] if due else {}
                ready_d = due[0][1] if due else 0
                for extra_specs, extra_ready in due[1:]:  # post-jump merge
                    shards.offer_specs(extra_specs, extra_ready)
                step_refs = shards.step_refs(specs_d, ready_d, nh)
            if overlap_fetch:
                inflight.append((fetch_refs, k, n_grants, _t_pop, _t_fetch))
            else:
                _finish_epoch(fetch_refs, k, n_grants, _t_pop, _t_fetch)
            k += 1
        else:
            _popped = popped
            popped = None
            _finish_epoch(
                lambda: runner(_popped, k), k, n_grants, _t_pop, _t_fetch
            )
            k += 1
        if (
            checkpoint_dir
            and cfg.checkpoint_every
            and epochs_done % cfg.checkpoint_every == 0
        ):
            # (a pipelined step is never in flight here — the dispatch
            # predicate above skips pipelining into a checkpoint epoch,
            # so the snapshot can't lose popped-but-unfetched grants;
            # fetch overlap is disabled for checkpointed runs entirely)
            assert step_refs is None and not inflight
            _deliver_all()  # undelivered links are frontier state
            ckpt.write(
                checkpoint_dir,
                shards.checkpoints(),
                {
                    "epoch": k,
                    "next_seq": next_seq,
                    "fetch_seq": fetch_seq,
                    "epochs_done": epochs_done,
                    "config": cfg.to_json(),
                },
                metrics=epoch_metrics.to_table(),
            )

    _flush_inflight()
    _t_drain0 = _time.time()
    _deliver_all()  # loop exited with undelivered links
    if checkpoint_dir:
        ckpt.write(
            checkpoint_dir,
            shards.checkpoints(),
            {
                "epoch": k,
                "next_seq": next_seq,
                "fetch_seq": fetch_seq,
                "epochs_done": epochs_done,
                "config": cfg.to_json(),
            },
            metrics=epoch_metrics.to_table(),
        )
    fetch_log = (
        pa.concat_tables(logs) if logs else LOG_SCHEMA.empty_table()
    )
    rejected = (
        pa.concat_tables([r for r in rejected_parts if r.num_rows])
        if any(r.num_rows for r in rejected_parts)
        else rejected_parts[0] if rejected_parts else pa.table({"url": pa.array([], pa.string()), "error_type": pa.array([], pa.string())})
    )
    return CrawlResult(
        fetch_log=fetch_log,
        counters=shards.counters(),
        rejected=rejected,
        epochs=epochs_done,
        next_seq=next_seq,
        fetch_seq=fetch_seq,
        spans_total=getattr(runner, "spans_total", 0),
        metrics=epoch_metrics.to_table(),
        fetch_log_dir=fetch_log_dir,
        setup_s=round(_setup_s, 3),
        drain_s=round(_time.time() - _t_drain0, 3),
    )
