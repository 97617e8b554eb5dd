"""Deterministic simulated fetch/render stage (the Renderer actor pool).

Maps the reference's Chromium fetch+render task chain (SURVEY §2.5,
/root/reference/pkg/modules/chromium/browser.go:339-363) onto a
``map_batches`` actor-pool stage. There is no network in the sandbox,
so the fetch is a pure function of ``(url_hash, doc_id)``: the "page
body" is the document's span list from the corpus, HTTP status and
sub-resource outcomes are splitmix64-derived, and discovered links are
hash-derived into a bounded URL universe so crawls converge. What IS
faithfully reimplemented is the semantics around the fetch:

- main-page status vs ``failOnHttpStatusCodes`` with status-class
  expansion (events.go:215-227, default [499,599]),
- event-error-over-run-error priority: the status predicate is
  evaluated before any render processing (browser.go:437-565),
- per-conversion network aggregate: request count / bytes / failures /
  unique origins capped at 64 (network_aggregate.go:12-121),
- bounded error taxonomy columns on every row.

At 100 TB scale the doc-lookup side would be a keyed read against the
document store; here the documents table is broadcast once via
``ray.put`` and each actor builds its dict in ``__init__`` — NOT per
batch.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv64, splitmix64
from ..functions.urlkit import expand_status_codes, status_fails
from ..schemas import (
    ERR_INVALID_INPUT,
    ERR_NONE,
    MAX_UNIQUE_ORIGINS,
    STATUS_ERROR,
    STATUS_SUCCESS,
)

FETCH_SALT = np.uint64(0xF37C0A8E51D2B964)
LINK_SALT = np.uint64(0x7A1D5E9F3C6B8240)
MEDIA_SALT = np.uint64(0x1B9E4D7F2A8C5E31)

LINKS_TYPE = pa.list_(
    pa.struct([("url", pa.string()), ("link_index", pa.int32())])
)

DEFAULT_FAIL_CODES = (499, 599)


def synthetic_status(url_hashes: np.ndarray) -> np.ndarray:
    """Deterministic HTTP status per URL: ~2% 404, ~1.5% 503, else 200."""
    v = splitmix64(np.asarray(url_hashes, dtype=np.uint64) ^ FETCH_SALT) % np.uint64(1000)
    status = np.full(len(v), 200, dtype=np.uint16)
    status[v < 20] = 404
    status[(v >= 20) & (v < 35)] = 503
    return status


def synthetic_links(
    url_hash: int, host: str, link_universe: int, max_links: int = 3
) -> list[str]:
    """Hash-derived outlinks; mostly same-host, ~10% cross-host.

    Scalar REFERENCE implementation — the fetch hot path uses
    ``synthetic_links_batch``. No production code calls this one; it
    stays as the parity oracle the batch form is pinned against
    (``tests/test_crawl.py``, ``tests/test_linkagg.py``); keep the two
    in lock-step.
    """
    n = splitmix64(url_hash ^ int(LINK_SALT)) % (max_links + 1)
    out = []
    for j in range(n):
        v = splitmix64((url_hash + j + 1) & 0xFFFFFFFFFFFFFFFF)
        target = v % link_universe
        if v % 10 == 0:
            h = f"site-{v % 50:03d}.example.org"
        else:
            h = host
        if v % 13 == 0:  # some links land on robots-disallowed paths
            out.append(f"http://{h}/private{target % 5}/p{target}")
        else:
            out.append(f"http://{h}/page/{target}")
    return out


# the cross-host pool is 50 fixed names — build the dictionary once and
# gather per link instead of formatting f-strings per row
_SITE_NAMES = pa.array(
    [f"site-{i:03d}.example.org" for i in range(50)], pa.string()
)


def synthetic_links_batch(
    url_hashes: np.ndarray,
    hosts: pa.Array,
    link_universe: int,
    max_links: int = 3,
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Vectorized ``synthetic_links`` over a batch of parent rows.

    Returns ``(counts, urls, link_index)``: per-parent link counts, the
    flat URL array in (parent, link_index) order, and each link's index
    within its parent. Byte-identical to the scalar reference — one
    splitmix64 sweep + Arrow string kernels instead of a Python loop
    (the loop was ~5.6 µs/URL of worker time, the largest single term
    in the crawl's per-URL budget).
    """
    uh = np.asarray(url_hashes, dtype=np.uint64)
    counts = (
        splitmix64(uh ^ LINK_SALT) % np.uint64(max_links + 1)
    ).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return (
            counts,
            pa.array([], pa.string()),
            np.empty(0, dtype=np.int64),
        )
    parent = np.repeat(np.arange(len(uh), dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        v = splitmix64(uh[parent] + (j + 1).astype(np.uint64))
    target = (v % np.uint64(link_universe)).astype(np.int64)
    cross = v % np.uint64(10) == 0
    private = v % np.uint64(13) == 0

    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    host_col = hosts.take(pa.array(parent))
    site_col = _SITE_NAMES.take(pa.array((v % np.uint64(50)).astype(np.int64)))
    host_out = pc.if_else(pa.array(cross), site_col, host_col)

    tstr = pc.cast(pa.array(target), pa.string())
    t5 = pc.cast(pa.array(target % 5), pa.string())
    # "/private{t%5}/p" for robots-disallowed paths, "/page/" otherwise
    prefix = pc.if_else(
        pa.array(private),
        pc.binary_join_element_wise(
            pa.scalar("/private"), t5, pa.scalar("/p"), pa.scalar("")
        ),
        pa.scalar("/page/"),
    )
    urls = pc.binary_join_element_wise(
        pa.scalar("http://"), host_out, prefix, tstr, pa.scalar("")
    )
    return counts, urls, j


class SimulatedFetcher:
    """Callable-class stage for ``map_batches(..., concurrency=N)``.

    ``docs`` may be a pyarrow Table, a prebuilt ``build_state`` tuple,
    or a ``ray.ObjectRef`` to either (broadcast with ``ray.put``,
    resolved once per actor here, never per batch). State stays
    ARROW-NATIVE: the spans column lives in the object store and is
    shared zero-copy by every actor — no per-actor unpickling of a
    Python document dict; page spans flow into the output via ``take``.
    """

    def __init__(self, docs, link_universe: int = 1000, max_links: int = 3):
        try:  # resolve a broadcast ObjectRef without importing ray eagerly
            import ray

            if isinstance(docs, ray.ObjectRef):
                docs = ray.get(docs)
        except ImportError:
            pass
        if not isinstance(docs, tuple):
            docs = self.build_state(docs)
        if len(docs) == 2:  # legacy (docs_table, stats) shape
            docs = self._extend_state(*docs)
        docs_table, stats, spans_plus, row_of = docs
        self.n_docs = docs_table.num_rows
        self.spans_col = spans_plus
        self.empty_idx = self.n_docs
        self.row_of = row_of
        # doc-id lookup column for the vectorized pc.index_in probe
        # (same mapping as row_of; the dict stays for scalar callers)
        did = docs_table.column("doc_id")
        self.doc_id_col = did.combine_chunks() if isinstance(did, pa.ChunkedArray) else did
        self.stats = stats  # dict of np arrays + origins sets
        self.link_universe = int(link_universe)
        self.max_links = int(max_links)
        self._fail_cache: dict[str, np.ndarray] = {}

    @staticmethod
    def _extend_state(docs_table: pa.Table, stats: dict) -> tuple:
        """Heavy derived state, built ONCE on the driver and broadcast —
        worker __init__ must stay O(1) (small epochs land on arbitrary
        task workers; a per-worker spans copy was a 0.4 s floor)."""
        spans_col = docs_table.column("spans")
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        # sentinel EMPTY row at index n_docs — error rows `take` it
        # instead of a branch per row
        empty = pa.array([[]], type=spans_col.type)
        spans_plus = pa.concat_arrays([spans_col, empty])
        row_of = {d: i for i, d in enumerate(docs_table.column("doc_id").to_pylist())}
        return docs_table, stats, spans_plus, row_of

    @classmethod
    def build_state(cls, docs: pa.Table) -> tuple:
        """Per-doc network aggregates — pure functions of the doc,
        computed ONCE centrally and broadcast. Fully Arrow/numpy
        vectorized (flatten + parent-index bincounts): the previous
        per-span Python loop was ~1.3 s of serial driver time per run,
        a fixed term in the N-vs-4N scaling measurement."""
        import pyarrow.compute as pc

        spans_col = docs.column("spans")
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        n = docs.num_rows
        flat = spans_col.flatten()
        parents = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
        is_media = pc.equal(flat.field("kind"), "media").to_numpy(zero_copy_only=False)
        # text spans contribute their CHARACTER length (matches len())
        text_len = pc.utf8_length(flat.field("text")).to_numpy(zero_copy_only=False)

        media_idx = np.nonzero(is_media)[0]
        mp = parents[media_idx]
        refs = flat.field("media_ref").take(pa.array(media_idx))
        rh = fnv64(refs)
        fail_m = splitmix64(rh ^ np.uint64(int(MEDIA_SALT))) % np.uint64(100) < 5
        media_bytes = np.where(
            fail_m, 0, (splitmix64(rh) % np.uint64(50000)).astype(np.int64) + 1000
        )
        req = np.ones(n, dtype=np.int64) + np.bincount(mp, minlength=n).astype(np.int64)
        failed = np.bincount(
            mp, weights=fail_m.astype(np.float64), minlength=n
        ).astype(np.int64)
        text_idx = np.nonzero(~is_media)[0]
        byts = (
            np.bincount(mp, weights=media_bytes.astype(np.float64), minlength=n)
            + np.bincount(
                parents[text_idx],
                weights=text_len[text_idx].astype(np.float64),
                minlength=n,
            )
        ).astype(np.int64)

        # per-doc distinct asset origins (host of each media ref) — via
        # the canonical host extractor so the origin set and the probe
        # at __call__ (which compares the canonical lowercase row host)
        # speak ONE host normalization (an inline split('/')[2] kept
        # port/case and would double-count e.g. Assets.example.com:443
        # vs assets.example.com — review-found latent divergence)
        from ..functions.urlkit import url_host

        ref_list = refs.to_pylist()
        hosts_m = [url_host(r) if "://" in r else "" for r in ref_list]
        origins = [frozenset()] * n
        if len(mp):
            order = np.argsort(mp, kind="stable")
            b = mp[order]
            starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
            ends = np.r_[starts[1:], len(b)]
            for s, e in zip(starts, ends):
                origins[b[s]] = frozenset(hosts_m[order[j]] for j in range(s, e))
        stats = {
            "req": req,
            "bytes": byts,
            "failed": failed,
            "origins": origins,
            "origins_len": np.fromiter((len(o) for o in origins), np.int64, n),
        }
        return cls._extend_state(docs, stats)

    def _fail_set(self, options_json: str) -> np.ndarray:
        cached = self._fail_cache.get(options_json)
        if cached is None:
            try:
                codes = json.loads(options_json or "{}").get(
                    "failOnHttpStatusCodes", list(DEFAULT_FAIL_CODES)
                )
            except json.JSONDecodeError:
                codes = list(DEFAULT_FAIL_CODES)
            cached = expand_status_codes([int(c) for c in codes])
            self._fail_cache[options_json] = cached
        return cached

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        url_hashes = batch.column("url_hash").to_numpy(zero_copy_only=False)
        statuses = synthetic_status(url_hashes)

        # doc lookup as one Arrow hash probe (≡ row_of.get per row)
        did = batch.column("doc_id")
        if isinstance(did, pa.ChunkedArray):
            did = did.combine_chunks()
        idx = (
            pc.fill_null(pc.index_in(did, value_set=self.doc_id_col), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        found = idx >= 0
        # failure predicate wins before any render work
        # (ErrInvalidHttpStatusCode, events.go:215-227). EVERY status is
        # tested against its row's fail set — a set containing 200 (e.g.
        # sentinel 299 expanding to 200-299) must fail 200 responses too.
        # Vectorized by distinct options value (typically 1-2 per batch).
        bad = np.zeros(n, dtype=bool)
        opts_arr = batch.column("options_json")
        if isinstance(opts_arr, pa.ChunkedArray):
            opts_arr = opts_arr.combine_chunks()
        if opts_arr.null_count:
            # null options must take the DEFAULT fail set like the
            # scalar contract (_fail_set(None) → "{}"); a null
            # dictionary index otherwise becomes NaN in numpy and
            # never equals any code, silently skipping the predicate
            # (review-found)
            opts_arr = pc.fill_null(opts_arr, "{}")
        enc = opts_arr.dictionary_encode()
        opt_codes = enc.indices.to_numpy(zero_copy_only=False)
        for code, val in enumerate(enc.dictionary.to_pylist()):
            rows = opt_codes == code
            bad[rows] = status_fails(statuses[rows], self._fail_set(val))
        ok = found & ~bad

        # spans via zero-copy take (errors take the sentinel empty row)
        take_idx = np.where(ok, idx, self.empty_idx)
        spans_out = self.spans_col.take(pa.array(take_idx))

        st = self.stats
        if st["req"].size == 0:
            # empty docs table: nothing is found, every gather source
            # is zero-length — take the all-error constants directly
            # (np.where gathers eagerly and would IndexError;
            # review-found)
            req = np.ones(n, np.int64)
            byts = np.zeros(n, np.int64)
            failed = np.ones(n, np.int64)
            n_orig = np.zeros(n, np.int64)
        else:
            safe = np.where(found, idx, 0)  # one safe-gather index for all
            req = np.where(ok, st["req"][safe], 1)
            byts = np.where(ok, st["bytes"][safe], 0)
            failed = np.where(ok, st["failed"][safe], 1)
            n_orig = np.where(ok, st["origins_len"][safe], 0)
        origins_list = st["origins"]

        ok_idx = np.nonzero(ok)[0]
        host_arr = batch.column("host")
        if isinstance(host_arr, pa.ChunkedArray):
            host_arr = host_arr.combine_chunks()
        # host counts as an origin unless it already served an asset;
        # rows whose doc has NO asset origins (the common case) take the
        # vectorized +1 — only origin-bearing rows pay a set probe
        no_assets = ok & (n_orig == 0)
        n_orig[no_assets] += 1
        probe = np.nonzero(ok & (n_orig > 0) & ~no_assets)[0]
        if len(probe):
            probe_hosts = host_arr.take(pa.array(probe)).to_pylist()
            for h, i in zip(probe_hosts, probe):
                if h not in origins_list[idx[i]]:
                    n_orig[i] += 1
        counts, urls_flat, lidx_flat = synthetic_links_batch(
            url_hashes[ok_idx],
            host_arr.take(pa.array(ok_idx)),
            self.link_universe,
            self.max_links,
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[ok_idx + 1] = counts
        np.cumsum(offsets, out=offsets)
        np.minimum(n_orig, MAX_UNIQUE_ORIGINS, out=n_orig)
        n_orig[~ok] = 1
        links_col = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32), pa.int32()),
            pa.StructArray.from_arrays(
                [urls_flat, pa.array(lidx_flat.astype(np.int32), pa.int32())],
                ["url", "link_index"],
            ),
        )

        out = batch.append_column("http_status", pa.array(statuses, pa.uint16()))
        out = out.append_column("spans", spans_out)
        out = out.append_column(
            "status", pa.array(np.where(ok, STATUS_SUCCESS, STATUS_ERROR))
        )
        out = out.append_column(
            "error_type", pa.array(np.where(ok, ERR_NONE, ERR_INVALID_INPUT))
        )
        out = out.append_column(
            "metrics",
            pa.StructArray.from_arrays(
                [
                    pa.array(req, pa.int64()),
                    pa.array(byts, pa.int64()),
                    pa.array(failed, pa.int64()),
                    pa.array(n_orig, pa.int64()),
                ],
                ["request_count", "bytes_total", "failed_count", "unique_origins"],
            ),
        )
        out = out.append_column("links", links_col)
        return out
