"""URL canonicalization under the oracle gate — ties the crawl's
RFC-3986 canonicalizer (`functions/urlkit.py`, the frontier seen-key
function; reference behavior: gotenberg's URL validation in
pkg/modules/api) into the value-checked query suite.

A deterministic messy-URL corpus derives from doc_ids so the DuckDB
twin can compute the EXPECTED canonical set arithmetically, without
reimplementing canonicalization: every raw variant (mixed-case host,
upper-case scheme, explicit default port, dot segments, trailing-dot
host, fragment) canonicalizes to ``https://host<k>.example.com/p/<id>``
— and docs ≡2 (mod 4) emit BOTH a messy and a clean twin of the same
canonical, so any canonicalization failure shows up as a per-host
distinct-count mismatch, not just a cosmetic string diff.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data.aggregate import Count, Sum

from ..functions.frames import ensure_columns
from ..functions.urlkit import canonicalize_url_host
from ..io import read_table
from .joins import bucket_fold

N_HOSTS = 10


def _raw_urls(doc_id: int) -> list[str]:
    h = doc_id % N_HOSTS
    v = doc_id % 4
    if v == 0:
        return [f"https://Host{h}.Example.COM/p/{doc_id}"]
    if v == 1:
        return [f"HTTPS://host{h}.example.com:443/p/{doc_id}"]
    if v == 2:  # messy + clean twin of the SAME canonical
        return [
            f"https://host{h}.example.com/a/../p/{doc_id}",
            f"https://host{h}.example.com/p/{doc_id}",
        ]
    return [f"https://host{h}.example.com./p/{doc_id}#frag"]


def url_host_counts(sf_dir: str) -> pd.DataFrame:
    """Per-host raw-URL and distinct-canonical counts over the derived
    messy corpus — the crawl's dedup-key function exercised end to end.

    Distributed shape: per-batch URL generation + canonicalization
    (the same per-string kernel the frontier admission path runs),
    batch-local (host, canonical) dedup, then ONE keyed exchange:
    groupby(host, canonical) collapses cross-batch duplicates and a
    host-sized groupby folds the counts."""

    def canon(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hosts, canons, raws = [], [], []
        for d in ids.tolist():
            for raw in _raw_urls(int(d)):
                c, h = canonicalize_url_host(raw)
                hosts.append(h)
                canons.append(c)
                raws.append(1)
        t = pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "canon": pa.array(canons, pa.string()),
                "n_urls": pa.array(raws, pa.int64()),
            }
        )
        return (
            t.group_by(["host", "canon"])
            .aggregate([("n_urls", "sum")])
            .rename_columns(["host", "canon", "n_urls"])
        )

    df = (
        read_table(sf_dir, "documents", ["doc_id"])
        .map_batches(canon, batch_format="pyarrow")
        .groupby(["host", "canon"])
        .aggregate(Sum("n_urls", alias_name="n_urls"))
        .groupby("host")
        .aggregate(
            Sum("n_urls", alias_name="n_urls"),
            Count(alias_name="n_canon"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df, {"host": "object", "n_urls": "int64", "n_canon": "int64"}
    )
    for c in ("n_urls", "n_canon"):
        df[c] = df[c].astype("int64")
    return df.sort_values("host").reset_index(drop=True)


URL_HOSTS_SQL = f"""
WITH u AS (
  SELECT doc_id,
         'host' || CAST(doc_id % {N_HOSTS} AS VARCHAR) || '.example.com'
           AS host,
         CASE WHEN doc_id % 4 = 2 THEN 2 ELSE 1 END AS n_raw
  FROM documents)
SELECT host,
       sum(n_raw)::BIGINT AS n_urls,
       count(*)::BIGINT AS n_canon
FROM u GROUP BY host ORDER BY host
"""


# ------------------------------------------ inbound-link aggregation

LINK_TOPK = 50
LINK_P = 16  # target-hash buckets
_K_HOSTS = 2  # bounded-k inbound-host concat (wave-10 contract)


def link_indegree_topk(sf_dir: str, k: int = LINK_TOPK) -> pd.DataFrame:
    """Inbound-link aggregation over the deterministic crawl link
    universe (the web-corpus primitive behind anchor-text features and
    authority signals; reference WHAT: the chromium module's link/
    sub-resource discovery, pkg/modules/chromium — the synthetic link
    model is the same one the crawl's fetch simulator uses).

    For every link TARGET: in-degree, distinct source hosts, and the
    2 lexicographically-first source hosts (bounded-k concat). Source
    pages derive from the sf documents row count (40 URLs per doc over
    the crawl host pool), links from ``synthetic_links_batch`` — the
    exact batch kernel the crawler runs, so this pipeline doubles as
    an executable spec of the link model.

    Plan: one generate+extract map (no per-row Python), ONE
    target-hash keyed exchange of (target, src_host) pairs, per-bucket
    lexsort + segment folds, local top-k per bucket, driver merges
    P·k candidate rows. Rows-only entry (the link universe is not one
    of the oracle's ten views); pinned by a brute-force parity test
    against the scalar ``synthetic_links`` reference."""
    import ray.data as rd

    from ..corpus import host_pool
    from ..functions.hashing import fnv64
    from ..io import table_rows
    from ..stages.fetcher import synthetic_links_batch

    n_docs = table_rows(sf_dir, "documents")
    if n_docs == 0:  # empty corpus → no source pages, typed empty result
        return pd.DataFrame(
            {
                "target": pd.Series([], dtype="object"),
                "in_degree": pd.Series([], dtype="int64"),
                "n_src_hosts": pd.Series([], dtype="int64"),
                "first_hosts": pd.Series([], dtype="object"),
            }
        )
    n_urls = 40 * n_docs
    n_hosts = max(20, n_urls // 500)
    universe = max(100, n_urls // 2)
    hosts = pa.array(host_pool(n_hosts), pa.string())

    def emit_pairs(batch: pa.Table) -> pa.Table:
        i = batch["id"].to_numpy(zero_copy_only=False)
        host_col = hosts.take(pa.array((i % len(hosts)).astype(np.int64)))
        import pyarrow.compute as pc

        url = pc.binary_join_element_wise(
            "http://", host_col, "/page/", pc.cast(pa.array(i), pa.string()), ""
        )
        counts, targets, _ = synthetic_links_batch(
            fnv64(url), host_col, universe, max_links=3
        )
        parent = np.repeat(np.arange(len(i), dtype=np.int64), counts)
        src = host_col.take(pa.array(parent))
        return pa.table({"target": targets, "src_host": src})

    def bucket(part: pa.Table) -> pa.Table:
        t = part.sort_by([("target", "ascending"), ("src_host", "ascending")])
        import pyarrow.compute as pc

        tgt = pc.dictionary_encode(t["target"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        hst = pc.dictionary_encode(t["src_host"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        n = len(tgt)
        new_t = np.r_[True, tgt[1:] != tgt[:-1]]
        seg_starts = np.flatnonzero(new_t)
        indeg = np.diff(np.r_[seg_starts, n])
        # distinct (target, host) rows
        new_th = new_t | np.r_[True, hst[1:] != hst[:-1]]
        th_idx = np.flatnonzero(new_th)
        th_tgt = tgt[th_idx]
        th_new_t = np.r_[True, th_tgt[1:] != th_tgt[:-1]]
        th_starts = np.flatnonzero(th_new_t)
        n_hosts_per = np.diff(np.r_[th_starts, len(th_idx)])
        # bounded-k first hosts: rank of each distinct (t, h) within its
        # target, keep rank < _K_HOSTS, vectorized elementwise join
        seg_of = np.cumsum(th_new_t) - 1
        rank = np.arange(len(th_idx)) - th_starts[seg_of]
        host_strs = t["src_host"].combine_chunks()
        h0 = host_strs.take(pa.array(th_idx[rank == 0]))
        pos1 = th_idx[rank == 1]
        # targets lacking a 2nd distinct host get a null in slot 1
        has1 = np.zeros(len(seg_starts), dtype=bool)
        has1[seg_of[rank == 1]] = True
        slot1 = np.full(len(seg_starts), -1, dtype=np.int64)
        slot1[seg_of[rank == 1]] = pos1
        h1 = pc.if_else(
            pa.array(has1),
            host_strs.take(pa.array(np.maximum(slot1, 0))),
            pa.scalar(None, pa.string()),
        )
        first_hosts = pc.binary_join_element_wise(
            h0, h1, ",", null_handling="skip"
        )
        out = pd.DataFrame(
            {
                "target": t["target"].take(pa.array(seg_starts)).to_pandas(),
                "in_degree": indeg.astype(np.int64),
                "n_src_hosts": n_hosts_per.astype(np.int64),
                "first_hosts": first_hosts.to_pandas(),
            }
        )
        out = out.sort_values(
            ["in_degree", "target"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pa.Table.from_pandas(out, preserve_index=False)

    schema = pa.schema(
        [("target", pa.string()), ("in_degree", pa.int64()),
         ("n_src_hosts", pa.int64()), ("first_hosts", pa.string())]
    )
    df = bucket_fold(
        rd.range(n_urls, override_num_blocks=max(8, LINK_P)),
        "target", emit_pairs, bucket, schema, LINK_P,
    ).to_pandas()
    df = ensure_columns(df, schema)
    df = df.sort_values(
        ["in_degree", "target"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return df.reset_index(drop=True)
