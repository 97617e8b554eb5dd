"""Crawl scheduler: epoch-synchronous virtual-time driver loop.

One loop (``run_crawl``) drives either of two (shard set, fetch runner)
pairs, picked once from ``mode``:

- ``mode="local"`` — ``LocalShards`` + ``LocalFetchRunner``, the
  *reference scheduler*: plain FrontierShard objects and the fetch
  stage run sequentially in one process. This is the ground truth the
  north rule's determinism criterion compares against.
- ``mode="ray"`` — ``RayShards`` + ``RayFetchRunner``: the same shards
  wrapped in Ray actors, the fetch/render stage as stateless Ray tasks
  over Arrow grant chunks.

Both shard sets step as ``step_refs(generations, horizon)`` then
``collect``; both runners fetch as ``dispatch(popped, epoch)`` then
``collect``, over one fetch→convert→admit body (``_FetchWorker.fetch``).
The local pair runs a step or a fetch when it is collected; the Ray pair
runs it while the driver does other work. Whether an epoch's fold may
trail the next dispatch, and whether seed admission fans out, are class
attributes of the runner, not branches of the loop.

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
import time
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
        dec = url_filter.decide_batch(canon.to_numpy(zero_copy_only=False).tolist())
        err[ok_scheme & ~dec] = ERR_FILTERED
    # IP-class policy: only hosts that LOOK like IP literals get parsed
    ip_like = pc.match_substring_regex(hosts, _IP_PREFIX_PAT).to_numpy(
        zero_copy_only=False
    )
    if ip_like.any():
        hosts_l = hosts.to_numpy(zero_copy_only=False).tolist()
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


def _admit_urls(urls: pa.Array | pa.ChunkedArray, url_filter: UrlFilter) -> tuple:
    """The admission body both entry points share: canonicalize →
    scheme/regex/IP-policy gate. Returns (ok, canon, host, url_hash,
    path, rejected): the accepted-row mask, the accepted rows' four
    columns, and the rejected (url, error_type) rows."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    canon, hosts, hashes = canonicalize_batch(urls)
    err = _admission_errors(canon, hosts, url_filter)
    ok = err == ""
    ok_pa = pa.array(ok)
    canon_ok = canon.filter(ok_pa)
    rejected = pa.table(
        {
            "url": urls.filter(pa.array(~ok)),
            "error_type": pa.array(err[~ok].tolist(), pa.string()),
        }
    )
    return ok_pa, canon_ok, hosts.filter(ok_pa), hashes[ok], _paths_of_canon(canon_ok), rejected


def admit_candidates(
    batch: pa.Table, url_filter: UrlFilter
) -> tuple[pa.Table, pa.Table]:
    """Stateless admission: canonicalize + scheme/regex/IP-policy gate.

    In: raw rows with url, priority, next_fetch_time, route, doc_id,
    options_json, seq. Out: (accepted CANDIDATE_SCHEMA rows, rejected
    rows with error_type).
    """
    ok, canon, hosts, hashes, paths, rejected = _admit_urls(batch.column("url"), url_filter)
    accepted = pa.table(
        {
            "url_canon": canon,
            "url_hash": pa.array(hashes),
            "host": hosts,
            "path": paths,
            "priority": batch.column("priority").filter(ok).cast(pa.int32()),
            "next_fetch_time": batch.column("next_fetch_time").filter(ok),
            "route": batch.column("route").filter(ok),
            "doc_id": batch.column("doc_id").filter(ok),
            "options_json": batch.column("options_json").filter(ok),
            "seq": batch.column("seq").filter(ok),
        },
        schema=CANDIDATE_SCHEMA,
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
    ok, canon, hosts, hashes, paths, rejected = _admit_urls(links.column("url"), url_filter)
    doc_ids = hashes % np.uint64(max(1, n_docs))
    options_mix, routes_mix = _options_for_hashes(hashes)
    accepted = pa.table(
        {
            "parent_seq": links.column("parent_seq").filter(ok),
            "link_index": links.column("link_index").filter(ok),
            "url_canon": canon,
            "url_hash": pa.array(hashes),
            "host": hosts,
            "path": paths,
            "priority": pc.max_element_wise(
                pc.subtract(links.column("parent_priority").filter(ok), 1), 0
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
                    hosts,
                    n_partitions,
                    url_hashes=hashes,
                    salt_hosts=salt_hosts,
                    salt_k=salt_k,
                )
            ),
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


# hot bar in fair-share (n/P) units: any host above ONE fair share
# cannot be balanced by hashing alone; 1.5 leaves headroom so
# ordinary skew doesn't salt every slightly-popular host. (The
# join layer's detect_hot_keys uses 4× because a join partition
# tolerates more imbalance than a politeness-bound crawl shard.)
AUTO_SALT_FACTOR = 1.5


def resolve_auto_salt(cfg: CrawlConfig, accepted: pa.Table) -> CrawlConfig:
    """Hot-host auto-salting (SURVEY §4.2 row 3, "k chosen from
    observed depth"): one Misra–Gries pass over the ADMITTED seed
    frontier's hosts; a host whose lower-bound count exceeds
    ``AUTO_SALT_FACTOR ×`` the fair per-shard share (n/P) joins
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
    thresh = AUTO_SALT_FACTOR * fair
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


# the global fetch order, assigned at schedule time
_FETCH_ORDER = [("fetch_time", "ascending"), ("priority", "descending"), ("seq", "ascending")]


def _sort_grants(tables: list[pa.Table]) -> pa.Table:
    live = [t for t in tables if t.num_rows]
    if not live:
        return GRANT_SCHEMA.empty_table()
    return pa.concat_tables(live).sort_by(_FETCH_ORDER)


# ---------------------------------------------------------------- shard sets
#
# Both shard sets step as ``step_refs(generations, horizon)`` then
# ``collect(handle)`` → (popped, n_grants): a step delivers every due
# link generation [(specs, ready_time)], then grants the epoch's fetches.


def _shard_kwargs(cfg: CrawlConfig, robots) -> dict:
    return dict(
        capacity=cfg.shard_capacity,
        seed=cfg.seed,
        default_delay=cfg.default_delay,
        burst=cfg.burst,
        robots_texts=robots,
        salt_hosts=cfg.salt_hosts,
        salt_k=cfg.salt_k,
    )


def _sum_counters(per_shard) -> dict:
    total: dict[str, int] = {}
    for c in per_shard:
        for k, v in c.items():
            total[k] = total.get(k, 0) + v
    return total


class LocalShards:
    """Sequential orchestration — the determinism reference. The step
    is deferred: ``collect`` runs it, so each epoch's offers and pop
    happen in loop order, after the previous epoch is folded."""

    def __init__(self, cfg: CrawlConfig, robots: dict[str, str]):
        self.shards = [
            FrontierShard(p, **_shard_kwargs(cfg, robots))
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

    def step_refs(self, generations: list[tuple], horizon: int) -> tuple:
        return generations, horizon

    def collect(self, handle: tuple) -> tuple[list[pa.Table], int]:
        generations, horizon = handle
        for specs, ready_time in generations:
            self.offer_specs(specs, ready_time)
        grants = self.pop_epoch(horizon)
        return grants, sum(t.num_rows for t in grants)

    def min_ready(self) -> int | None:
        return min((v for v in (s.min_ready() for s in self.shards) if v is not None), default=None)

    def counters(self) -> dict:
        return _sum_counters(s.get_counters() for s in self.shards)

    def checkpoints(self) -> list[dict]:
        return [s.checkpoint() for s in self.shards]

    def restore(self, states: list[dict]) -> None:
        for s, st in zip(self.shards, states):
            s.restore(st)


class RayShards:
    """Actor-pool orchestration of the same shards. A step is one
    ``offer_and_pop`` round trip per shard; its grant tables stay in the
    object store and only (grant_ref, key table) pairs come back."""

    def __init__(self, cfg: CrawlConfig, robots: dict[str, str]):
        import ray

        actor_cls = ray.remote(num_cpus=cfg.shard_num_cpus)(FrontierShard)
        kwargs = _shard_kwargs(cfg, ray.put(robots))
        self.actors = [actor_cls.remote(p, **kwargs) for p in range(cfg.n_partitions)]
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

    def step_refs(self, generations: list[tuple], horizon: int) -> list:
        return [
            a.offer_and_pop.remote(
                [(specs[p], ready) for specs, ready in generations if p in specs], horizon
            )
            for p, a in enumerate(self.actors)
        ]

    def collect(self, refs: list) -> tuple[list[tuple], int]:
        popped = self._ray.get(refs)
        return popped, sum(kt.num_rows for _, kt in popped)

    def min_ready(self) -> int | None:
        vals = self._ray.get([a.min_ready.remote() for a in self.actors])
        return min((v for v in vals if v is not None), default=None)

    def counters(self) -> dict:
        return _sum_counters(self._ray.get([a.get_counters.remote() for a in self.actors]))

    def checkpoints(self) -> list[dict]:
        return self._ray.get([a.checkpoint.remote() for a in self.actors])

    def restore(self, states: list[dict]) -> None:
        self._ray.get(
            [a.restore.remote(st) for a, st in zip(self.actors, states)]
        )


# ------------------------------------------------------------- fetch runners
#
# Both runners fetch as ``dispatch(popped, epoch)`` then ``collect(handle)``
# → (log, [keys], [payload], rejected, n_spans, busy_s), over the one
# fetch→convert→admit body ``_FetchWorker.fetch``. Two class attributes
# say how the loop may use a runner: ``overlaps_fetch`` (an epoch may be
# folded after the next epoch is dispatched) and ``fans_out_admission``
# (seed admission runs as Ray tasks).

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


class _FetchWorker(SimulatedFetcher):
    """Fetch state plus the fetch→convert→admit body of both runners:
    fetches a grant chunk, writes its page rows straight to the
    partitioned parquet sink, admits discovered links (canonicalize +
    filter + IP policy — the driver never touches raw link URLs), and
    returns only the small log/candidate columns."""

    def __init__(self, docs, cfg: CrawlConfig):
        super().__init__(docs, link_universe=cfg.link_universe, max_links=cfg.max_links)
        self.cfg = cfg
        self.url_filter = UrlFilter(list(cfg.allow), list(cfg.deny))
        self.log_cols = _LOG_COLS if cfg.detailed_logs else ["seq"]

    def fetch(
        self, grants: pa.Table, epoch: int, chunk: int, pages_dir: str | None
    ) -> tuple:
        """→ (log, keys, payload, rejected, n_spans, busy_s)."""
        t0 = time.time()
        result = self(grants)
        n_spans = _convert_and_write(result, epoch, chunk, pages_dir)
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
        return result.select(self.log_cols), keys, payload, rejected, n_spans, time.time() - t0


def _gather(parts: list[tuple]) -> tuple:
    """One epoch's fetch output from its chunks' ``_FetchWorker.fetch``
    tuples, in chunk order; ``busy_s`` is the summed worker-side wall."""
    return (
        pa.concat_tables([p[0] for p in parts]),
        [p[1] for p in parts],
        [p[2] for p in parts],
        pa.concat_tables([p[3] for p in parts]),
        sum(p[4] for p in parts),
        sum(p[5] for p in parts),
    )


class LocalFetchRunner:
    """In-process fetch stage. ``collect`` fetches the epoch's grants,
    merged in (fetch_time, -priority, seq) order, as one chunk, so each
    epoch writes one ``part-0000``."""

    overlaps_fetch = False
    fans_out_admission = False

    def __init__(self, docs: pa.Table, cfg: CrawlConfig, pages_dir: str | None = None):
        self.worker = _FetchWorker(SimulatedFetcher.build_state(docs), cfg)
        self.pages_dir = pages_dir

    def dispatch(self, popped: list[pa.Table], epoch: int) -> tuple:
        return popped, epoch

    def collect(self, handle: tuple) -> tuple:
        popped, epoch = handle
        return _gather([self.worker.fetch(_sort_grants(popped), epoch, 0, self.pages_dir)])


# per-worker-process cache: fetch state reconstructed once per worker,
# keyed by the state ObjectRef (plasma get is zero-copy for the arrow
# parts; only the small dicts/arrays rebuild)
_FETCH_STATE_CACHE: dict[str, "_FetchWorker"] = {}


def _fetch_task(state_box, grants: pa.Table, off: int, ln: int, epoch: int,
                chunk: int, pages_dir: str | None, cfg: CrawlConfig):
    """Stateless fetch task: Ray schedules these dynamically across all
    free CPUs — no static chunk→actor assignment, so host-speed jitter
    and uneven epochs self-balance. ``state_box`` holds the state ref
    un-resolved (nested) so the per-worker cache can key on it."""
    import ray

    key = state_box[0].hex()
    worker = _FETCH_STATE_CACHE.get(key)
    if worker is None:
        _FETCH_STATE_CACHE.clear()  # one crawl's state per worker
        worker = _FetchWorker(ray.get(state_box[0]), cfg)
        _FETCH_STATE_CACHE[key] = worker
    log, keys, payload, rejected, n_spans, busy_s = worker.fetch(
        grants.slice(off, ln), epoch, chunk, pages_dir
    )
    # candidate payloads stay in the object store — only the small
    # routing keys go back to the driver; shards pull the payload
    # rows they own directly from plasma
    return log, keys, ray.put(payload), rejected, n_spans, busy_s


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

    overlaps_fetch = True
    fans_out_admission = True

    def __init__(self, docs: pa.Table, cfg: CrawlConfig, pages_dir: str | None = None):
        import ray

        self.cfg = cfg
        self.pages_dir = pages_dir
        self._ray = ray
        # build (docs table + per-doc stats) ONCE, broadcast the result
        self.state_ref = ray.put(SimulatedFetcher.build_state(docs))
        self._task = ray.remote(num_cpus=cfg.fetch_num_cpus)(_fetch_task)

    def dispatch(self, popped: list[tuple], epoch: int) -> list:
        """``popped`` = [(grant_table_ref, key_table)] per shard, as
        ``RayShards.collect`` returns them. Chunks are (ref, offset,
        length) triples — the driver never serializes grant rows;
        workers resolve the ref plasma-locally and slice zero-copy.
        Returns task refs; the caller overlaps other work before
        ``collect``."""
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
        for ref, kt in popped:
            n = kt.num_rows
            for off in range(0, n, size):
                refs.append(
                    self._task.remote(
                        [self.state_ref], ref, off, min(size, n - off), epoch,
                        len(refs), self.pages_dir, self.cfg,
                    )
                )
        return refs

    def collect(self, refs: list) -> tuple:
        return _gather(self._ray.get(refs))


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


_REJECTED_SCHEMA = pa.schema([("url", pa.string()), ("error_type", pa.string())])


def _resume_config(cfg: CrawlConfig, state: dict) -> CrawlConfig:
    """The run's config over a loaded checkpoint: the checkpointed salt
    decision is adopted, and a scheduling-critical mismatch is refused."""
    saved = json.loads(state["driver"]["config"])
    # a partition-count mismatch would silently zip-truncate the
    # frontier (dropped seen-sets re-fetch; dropped heaps lose URLs) —
    # refuse rather than resume from a different sharding
    if len(state["shards"]) != cfg.n_partitions:
        raise ValueError(
            f"checkpoint has {len(state['shards'])} partitions but "
            f"the run is configured with {cfg.n_partitions}; resume "
            "with the checkpoint's n_partitions (state is sharded "
            "by fnv64(url) % n_partitions and cannot re-shard here)"
        )
    # the salting (auto-decided or explicit) rides the checkpointed
    # config — a resumed run MUST route identically to the original,
    # whatever flags the resume command happened to set (gating adoption
    # on cfg.auto_salt let a resume without the flag rebuild UNSALTED
    # shards over salted seen-state — silent duplicate fetches +
    # politeness collapse)
    cfg = dataclasses.replace(
        cfg,
        salt_hosts=tuple(saved.get("salt_hosts", ())),
        salt_k=int(saved.get("salt_k", 1)),
    )
    # scheduling-critical scalars must match the original run — a
    # mismatch silently changes fetch ordering / politeness budgets over
    # restored state, the same corruption class as the n_partitions
    # refusal. Execution-detail knobs (fetch_concurrency, batch sizes,
    # max_epochs/max_fetches extensions) stay free.
    must_match = (
        "seed", "epoch_width", "default_delay", "burst",
        "link_universe", "max_links", "link_latency_epochs",
    )
    diff = [
        f"{k}: checkpoint={saved.get(k)!r} run={getattr(cfg, k)!r}"
        for k in must_match
        if k in saved and saved.get(k) != getattr(cfg, k)
    ]
    if diff:
        raise ValueError(
            "resume config mismatch on scheduling-critical fields "
            "(state restored under the checkpointed values; resume "
            "with them or start a fresh run): " + "; ".join(diff)
        )
    return cfg


def _link_specs(
    key_tables: list[pa.Table], payloads: list, next_seq: int
) -> dict[int, list[tuple]]:
    """One epoch's accepted links → per-shard offer specs
    ``{partition: [(payload, row_indices, seqs)]}``. Seqs are assigned
    from ROUTING KEYS ONLY: links are ordered by (parent's
    schedule-time seq, link position) regardless of which worker
    produced them; the candidate payloads never transit the driver —
    shards pull their rows straight from the workers' tables."""
    def col(name: str) -> np.ndarray:
        return np.concatenate(
            [t.column(name).to_numpy(zero_copy_only=False) for t in key_tables]
        )

    parent, lidx, part = col("parent_seq"), col("link_index"), col("partition")
    chunk_id = np.concatenate(
        [np.full(t.num_rows, ci, dtype=np.int64) for ci, t in enumerate(key_tables)]
    )
    row_idx = np.concatenate([np.arange(t.num_rows, dtype=np.int64) for t in key_tables])
    n = len(parent)
    seqs = np.empty(n, dtype=np.int64)
    seqs[np.lexsort((lidx, parent))] = np.arange(next_seq, next_seq + n, dtype=np.int64)
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
    return specs


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
    """Crawl epoch by epoch until the frontier is exhausted or
    ``cfg.max_epochs``/``cfg.max_fetches`` is reached. ``mode`` picks
    the (shard set, fetch runner) pair; the loop is the same for both."""
    from . import checkpoint as ckpt

    t_setup0 = time.time()
    shards_cls, runner_cls = (
        (LocalShards, LocalFetchRunner) if mode == "local" else (RayShards, RayFetchRunner)
    )
    url_filter = UrlFilter(list(cfg.allow), list(cfg.deny))
    # dispatch seed admission BEFORE building shard actors and fetch
    # state: the admission tasks chew the raw URL list (and warm the
    # worker processes) while the driver constructs everything else
    admit_handle = (
        admit_seed_frontier_async(
            frontier, url_filter, parallel=runner_cls.fans_out_admission
        )
        if not resume
        else None
    )
    seed_admitted: tuple | None = None
    if resume:
        # loaded before shard construction: the salt config must be
        # adopted first so the shards' politeness budgets and the
        # routing agree with the original run
        state = ckpt.load_latest(checkpoint_dir)
        cfg = _resume_config(cfg, state)
    elif cfg.auto_salt:
        # the salt decision needs the admitted seed hosts, so collect
        # admission before shard construction (auto mode trades a
        # little setup overlap for the observed-host histogram)
        seed_admitted = admit_seed_frontier_collect(admit_handle)
        cfg = resolve_auto_salt(cfg, seed_admitted[0])
    shards = shards_cls(cfg, robots)
    runner = runner_cls(docs, cfg, pages_dir)
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
    logs: list[pa.Table] = []
    fetch_log_dir: str | None = None
    if log_sink is None and pages_dir is not None and cfg.detailed_logs:
        fetch_log_dir = pages_dir.rstrip("/") + "_fetch_log"
        os.makedirs(fetch_log_dir, exist_ok=True)

        def log_sink(t: pa.Table, _d=fetch_log_dir) -> None:
            epoch_val = t.column("epoch")[0].as_py() if t.num_rows else 0
            pq.write_table(t, os.path.join(_d, f"epoch={epoch_val:06d}.parquet"))

    log_sink = log_sink or logs.append

    rejected_parts: list[pa.Table] = []
    if resume:
        shards.restore(state["shards"])
        drv = state["driver"]
        k, next_seq, fetch_seq, epochs_done = (
            drv["epoch"], drv["next_seq"], drv["fetch_seq"], drv["epochs_done"]
        )
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
            seed_admitted
            if seed_admitted is not None  # auto-salt collected early
            else admit_seed_frontier_collect(admit_handle)
        )
        if rejected.num_rows:
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

    def _take_due(h: int) -> list[tuple[dict, int]]:
        due = [e for e in pending if e[1] <= h]
        pending[:] = [e for e in pending if e[1] > h]
        return due

    def _deliver_all() -> None:
        for specs_e, ready_e in pending:
            shards.offer_specs(specs_e, ready_e)
        pending.clear()

    every = cfg.checkpoint_every if checkpoint_dir else 0  # epochs per snapshot

    def _budget_left(n_epochs: int, n_fetches: int) -> bool:
        return n_epochs < cfg.max_epochs and (
            cfg.max_fetches is None or n_fetches < cfg.max_fetches
        )

    epoch_metrics = EpochMetrics()
    spans_total = 0
    setup_s = time.time() - t_setup0
    step = None  # a shard step issued ahead, under the previous epoch's fetch
    # fetched epochs not yet folded (at most one): with a runner that
    # overlaps fetch, an epoch is folded only after the next epoch's
    # chunks are dispatched, so its straggler tail hides under the next
    # epoch's execution. Folds happen in epoch order, so outputs are
    # unchanged. Off for checkpointed runs — a snapshot must never race
    # a dispatched-but-unfolded epoch.
    inflight: list[tuple] = []  # [(handle, k_f, n_grants_f, t_pop_f, t_fetch_f)]
    overlap_fetch = runner.overlaps_fetch and not every

    def _finish_epoch(handle, k_f, n_grants_f, t_pop_f, t_fetch_f) -> None:
        """Collect one epoch's fetch and fold it into logs, link
        specs, metrics and counters — the deterministic seq assignment
        and spec segmentation have one path for both runners."""
        nonlocal fetch_seq, next_seq, epochs_done, spans_total
        log, key_tables, payloads, links_rejected, n_spans, busy_s = runner.collect(handle)
        t_route = time.time()
        if links_rejected.num_rows:
            rejected_parts.append(links_rejected)
        if cfg.detailed_logs:
            # runner output order can be arbitrary (Ray) → re-sort by
            # the schedule-time key for the deterministic global order
            log = log.sort_by(_FETCH_ORDER)
            log = log.add_column(
                0, "fetch_seq", pa.array(np.arange(fetch_seq, fetch_seq + log.num_rows))
            )
            log = log.append_column("epoch", pa.array(np.full(log.num_rows, k_f)))
            log_sink(log)
        fetch_seq += log.num_rows
        n_links = sum(t.num_rows for t in key_tables)
        if n_links:
            # deferred: generation k becomes grantable at epoch k+L and
            # is delivered inside the step for that epoch
            pending.append((_link_specs(key_tables, payloads, next_seq), (k_f + L) * W))
            next_seq += n_links
        spans_total += n_spans
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
            spans_out=n_spans,
            pop_s=round(t_fetch_f - t_pop_f, 4),
            # with overlap this window includes the next epoch's pop +
            # dispatch; busy_s carries the true per-epoch work signal
            fetch_s=round(t_route - t_fetch_f, 4),
            busy_s=round(busy_s, 4),
            route_s=round(time.time() - t_route, 4),
        )
        epochs_done += 1

    def _flush_inflight() -> None:
        while inflight:
            _finish_epoch(*inflight.pop(0))

    # the epoch of the snapshot the state was last written to or loaded
    # from. k never goes back, and once nothing is pending an iteration
    # that pops, grants or re-keys anything moves it on; the one that
    # finds the frontier empty changes nothing.
    saved_k = k if resume else None

    def _snapshot() -> None:
        nonlocal saved_k
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
        saved_k = k

    while _budget_left(epochs_done + len(inflight), fetch_seq + sum(e[2] for e in inflight)):
        horizon = (k + 1) * W - 1
        t_pop = time.time()
        if step is None:
            # an unpipelined step needs every discovered link delivered
            _flush_inflight()
            step = shards.step_refs(_take_due(horizon), horizon)
        popped, n_grants = shards.collect(step)
        step = None
        if n_grants == 0:
            _flush_inflight()
            _deliver_all()
            mr = shards.min_ready()
            if mr is None:
                break  # frontier exhausted
            k = mr // W
            continue
        t_fetch = time.time()
        if pages_dir is not None:
            # clear stale part files before this epoch's chunks write:
            # a killed run may have left parts from a DIFFERENT chunking
            # of the same epoch (fetch_concurrency is an execution
            # detail a resume may change), and read_parquet over the
            # hive layout would otherwise return those rows twice
            ed = f"{pages_dir}/epoch={k:06d}"
            if os.path.isdir(ed):
                for f in os.listdir(ed):
                    if f.startswith("part-") and f.endswith(".parquet"):
                        os.unlink(os.path.join(ed, f))
        handle = runner.dispatch(popped, k)
        # the previous epoch ran under this epoch's step and dispatch;
        # fold it now so its links land before the next step is issued
        # (L ≥ 2 puts every generation due by that step's horizon at or
        # before the previous epoch)
        _flush_inflight()
        # issue epoch k+1's step to run under this epoch's fetch (a
        # deferred local step runs at its collect, after this epoch is
        # folded). Exact exit prediction (fetch_seq grows by exactly
        # this epoch's grants), so a step never fires for an epoch the
        # loop won't reach; never into a checkpoint epoch, whose
        # snapshot must not miss grants a step already popped.
        will_continue = _budget_left(epochs_done + 1, fetch_seq + n_grants)
        will_checkpoint = every and (epochs_done + 1) % every == 0
        if L >= 2 and will_continue and not will_checkpoint:
            nh = (k + 2) * W - 1
            step = shards.step_refs(_take_due(nh), nh)
        if overlap_fetch:
            inflight.append((handle, k, n_grants, t_pop, t_fetch))
        else:
            _finish_epoch(handle, k, n_grants, t_pop, t_fetch)
        k += 1
        if every and epochs_done % every == 0:
            assert step is None and not inflight
            _snapshot()

    _flush_inflight()
    t_drain0 = time.time()
    # the loop exited with undelivered links: the final snapshot, or
    # the counters alone, must see them offered. A loop that ended on a
    # snapshot (or never left the loaded one) has nothing left to write.
    if checkpoint_dir and k != saved_k:
        _snapshot()
    else:
        _deliver_all()
    return CrawlResult(
        fetch_log=pa.concat_tables(logs) if logs else LOG_SCHEMA.empty_table(),
        counters=shards.counters(),
        rejected=(
            pa.concat_tables(rejected_parts) if rejected_parts else _REJECTED_SCHEMA.empty_table()
        ),
        epochs=epochs_done,
        next_seq=next_seq,
        fetch_seq=fetch_seq,
        spans_total=spans_total,
        metrics=epoch_metrics.to_table(),
        fetch_log_dir=fetch_log_dir,
        setup_s=round(setup_s, 3),
        drain_s=round(time.time() - t_drain0, 3),
    )
