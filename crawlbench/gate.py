"""Correctness gate for one benchmark crawl, checked outside the timed region.

The gate reads back what the crawl left on disk (the per-epoch fetch log
and the page parquet parts) and checks four properties against rules it
derives on its own from the generated inputs:

1. no canonical URL is fetched twice (the seen-set held);
2. per host, fetch times obey a token bucket with the configured burst and
   the host's delay (robots ``Crawl-delay`` if given, else the default);
3. no fetched path starts with a ``Disallow`` prefix of its host's robots.txt;
4. fetch-log rows == the shards' ``granted`` counter == page rows written
   (one ``part_index == 0`` row per fetched URL; split routes add more parts).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_ROBOTS_LINE = re.compile(r"^(User-agent: \*|Disallow: (\S+)|Crawl-delay: (\d+))$")
_PATH_OF_URL = r"^[a-z]+://[^/?#]*(?P<path>/[^?#]*)?"


def parse_simple_robots(text: str) -> tuple[list[str], int | None]:
    """(disallow prefixes, crawl delay) of a robots.txt made of literal
    ``Disallow`` prefixes only. Anything richer raises, so the gate never
    silently checks a ruleset it does not understand."""
    prefixes: list[str] = []
    delay = None
    for line in text.splitlines():
        if not line:
            continue
        m = _ROBOTS_LINE.match(line)
        if m is None:
            raise ValueError(f"robots line outside the gate's subset: {line!r}")
        if m.group(2):
            prefixes.append(m.group(2))
        elif m.group(3):
            delay = int(m.group(3))
    return prefixes, delay


def read_dir(path: str, columns: list[str] | None = None) -> pa.Table:
    """Concatenate every parquet file under ``path`` (recursively)."""
    files = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(path)
        for f in fs
        if f.endswith(".parquet")
    )
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return pa.concat_tables(pq.read_table(f, columns=columns) for f in files)


def politeness_violations(
    hosts: np.ndarray, times: np.ndarray, delays: np.ndarray, burst: int
) -> np.ndarray:
    """Indices of fetches that break a token bucket of ``burst`` tokens
    refilled one per ``delay`` ticks. Sorted per host, fetch j may not
    follow fetch i (i <= j - burst) unless
    ``delay * (j - i - burst) < t_j - t_i``: at most ``burst`` tokens are
    held at t_i and at most ceil((t_j - t_i) / delay) arrive after it.
    With ``u = t - delay * rank`` that is ``u_j > max(u_i) - delay * burst``
    over every i <= j - burst of the same host."""
    n = len(times)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((times, hosts))
    h = hosts[order]
    t = times[order].astype(np.int64)
    d = delays[order].astype(np.int64)
    starts = np.r_[True, h[1:] != h[:-1]]
    gid = np.cumsum(starts) - 1
    first = np.nonzero(starts)[0]
    rank = np.arange(n) - first[gid]
    u = t - d * rank
    # per-group running max: offset each group above every earlier one
    span = int(u.max() - u.min()) + 1
    shifted = (u - u.min()) + gid * span
    run_max = np.maximum.accumulate(shifted) - gid * span + u.min()
    j = np.nonzero(rank >= burst)[0]
    bad = u[j] <= run_max[j - burst] - d[j] * burst
    return order[j[bad]]


def check_crawl(
    log_dir: str,
    pages_dir: str,
    counters: dict,
    robots: dict[str, str],
    default_delay: int,
    burst: int,
) -> list[str]:
    """Return the list of violated properties (empty when the crawl is correct)."""
    problems: list[str] = []
    log = read_dir(log_dir, ["url_canon", "host", "fetch_time"])
    n = log.num_rows

    distinct = pc.count_distinct(log.column("url_canon")).as_py()
    if distinct != n:
        problems.append(f"{n - distinct} URLs fetched more than once")

    rules = {h: parse_simple_robots(txt) for h, txt in robots.items()}
    hosts = log.column("host").combine_chunks()
    enc = hosts.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    delay_of = np.array(
        [max(1, (rules.get(h, ([], None))[1] or default_delay)) for h in enc.dictionary.to_pylist()],
        dtype=np.int64,
    )
    bad = politeness_violations(
        codes, log.column("fetch_time").to_numpy(), delay_of[codes], burst
    )
    if len(bad):
        problems.append(f"{len(bad)} fetches break their host's politeness budget")

    paths = pc.fill_null(
        pc.struct_field(pc.extract_regex(log.column("url_canon"), _PATH_OF_URL), "path"), "/"
    )
    denied = np.zeros(n, dtype=bool)
    by_prefix: dict[str, list[str]] = {}
    for h, (prefixes, _) in rules.items():
        for p in prefixes:
            by_prefix.setdefault(p, []).append(h)
    for prefix, hs in by_prefix.items():
        on_host = pc.is_in(hosts, value_set=pa.array(hs, pa.string()))
        denied |= pc.and_(on_host, pc.starts_with(paths, prefix)).to_numpy(zero_copy_only=False)
    if denied.any():
        problems.append(f"{int(denied.sum())} fetched paths are robots-disallowed")

    first_parts = pc.sum(
        pc.equal(read_dir(pages_dir, ["part_index"]).column("part_index"), 0)
    ).as_py() or 0
    if not (n == counters.get("granted") == first_parts):
        problems.append(
            f"fetch-log rows {n}, granted counter {counters.get('granted')}, "
            f"page rows {first_parts} disagree"
        )
    return problems
