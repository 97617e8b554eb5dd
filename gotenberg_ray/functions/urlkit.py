"""URL kernel: canonicalization, admission filtering, IP policy.

Pure, stateless functions — the heaviest unit-test surface (SURVEY.md
§7.2 step 2). Semantics mirrored from the reference:

- canonicalization: lowercase scheme+host then re-serialize, per
  ``DecideOutbound`` (/root/reference/pkg/gotenberg/outbound.go:264-270);
  extended RFC-3986 normalization (default-port strip, dot-segment
  removal, empty-path → "/", fragment strip, percent-encoding case) for
  the crawl-frontier key, since the seen-set needs one canonical form.
- the outbound policy (``UrlFilter``): allow-list OR semantics, deny
  always applies, then the IP-class policy
  (reference pkg/gotenberg/filter.go:20-70, outbound.go:69-114,258-340).
- file:// scheme reject (chromium/routes.go:417-435).
- IP-class policy: the non-public prefix table of outbound.go:69-114,
  incl. IPv4-mapped unwrap.
- status-class expansion: 199/299/399/499/599 → whole class
  (chromium/events.go:215-227).
- domain normalizer/suffix matcher (chromium/events.go:299-360).
"""

from __future__ import annotations

import ipaddress
import re
from urllib.parse import urlsplit, urlunsplit, quote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import fnv64

DEFAULT_PORTS = {"http": "80", "https": "443", "ws": "80", "wss": "443", "ftp": "21"}

_PCT_RE = re.compile(r"%[0-9a-fA-F]{2}")
# characters that never need percent-encoding in a path (RFC 3986 unreserved + sub-delims + ":@/")
_PATH_SAFE = "/:@!$&'()*+,;=~.-_"


_UNRESERVED = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")


def _fix_escape(m: re.Match) -> str:
    """%XX → decoded char if unreserved, else uppercase-hex escape.

    RFC 3986 §6.2.2 permits decoding only unreserved escapes: %2F must
    stay %2F (a literal '/' would change path segmentation) and %3F must
    stay %3F (a literal '?' would migrate path bytes into the query)."""
    ch = chr(int(m.group(0)[1:], 16))
    return ch if ch in _UNRESERVED else m.group(0).upper()


def _normalize_percent(s: str) -> str:
    """Uppercase hex of reserved escapes; decode only unreserved escapes;
    percent-encode raw chars that need it."""
    if "%" in s:
        s = _PCT_RE.sub(_fix_escape, s)
    # encode any raw out-of-set chars (spaces etc.); '%' is safe so the
    # already-normalized escapes pass through untouched
    return quote(s, safe=_PATH_SAFE + "%?=")


def _remove_dot_segments(path: str) -> str:
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out and out[-1] != "":
                out.pop()
            continue
        out.append(seg)
    p = "/".join(out)
    if not p.startswith("/"):
        p = "/" + p
    return p


# fast path: already-canonical http(s) URLs (lowercase scheme+host, no
# port/userinfo/query/fragment/percent-escapes/dot-segments). The crawl
# hot path is dominated by such URLs; anything else falls through to the
# full parser. The character classes guarantee fast-path output equals
# the slow path's.
_FAST_CANON_RE = re.compile(
    r"^(https?)://([a-z0-9-]+(?:\.[a-z0-9-]+)*)(/[A-Za-z0-9_\-/~,:@!$&'()*+;=]*)?$"
)


def canonicalize_url_host(url: str) -> tuple[str, str]:
    """(canonical url, host) in one pass — see canonicalize_url."""
    m = _FAST_CANON_RE.match(url)
    if m:
        scheme, host, path = m.groups()
        return f"{scheme}://{host}{path or '/'}", host
    c = canonicalize_url(url)
    return c, url_host(c)


def canonicalize_url(url: str) -> str:
    """RFC-3986 canonical form used as the frontier/seen key.

    lowercase scheme+host, strip default port, strip fragment, normalize
    percent-encoding + dot segments, empty path → "/".
    """
    m = _FAST_CANON_RE.match(url)
    if m:
        scheme, host, path = m.groups()
        return f"{scheme}://{host}{path or '/'}"
    url = url.strip()
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    scheme = parts.scheme.lower()
    host = parts.hostname or ""
    host = host.lower().rstrip(".")
    if ":" in host:  # IPv6 literal — re-bracket (urlsplit strips the brackets)
        host = f"[{host}]"
    port = None
    try:
        port = parts.port
    except ValueError:
        port = None
    netloc = host
    if port is not None and str(port) != DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    if parts.username:
        userinfo = parts.username + (f":{parts.password}" if parts.password else "")
        netloc = f"{userinfo}@{netloc}"
    path = _remove_dot_segments(_normalize_percent(parts.path)) if netloc else parts.path
    if netloc and not path:
        path = "/"
    query = _normalize_percent(parts.query)
    return urlunsplit((scheme, netloc, path, query, ""))


def url_host(url: str) -> str:
    try:
        return (urlsplit(url).hostname or "").lower().rstrip(".")
    except ValueError:
        return ""


# fast-path pattern as RE2 capture groups for pyarrow's extract_regex —
# MUST stay equivalent to _FAST_CANON_RE so both paths canonicalize
# identically (checkpoint bytes depend on it)
_FAST_EXTRACT_PAT = (
    r"^(?P<scheme>https?)://(?P<host>[a-z0-9-]+(?:\.[a-z0-9-]+)*)"
    r"(?P<path>/[A-Za-z0-9_\-/~,:@!$&'()*+;=]*)?$"
)

# tier-2 pattern: messy-but-regular raw URLs (mixed-case scheme/host,
# explicit port, trailing fragment) — canonicalized entirely in Arrow
# kernels (lower + default-port strip + fragment drop). Anything with
# userinfo, query, percent-escapes, dot segments, IPv6 brackets or a
# trailing host dot still takes the per-row RFC-3986 parser. Port has
# no leading zero so the string compare against ":80"/":443" is exact.
_TIER2_EXTRACT_PAT = (
    r"^(?P<scheme>[Hh][Tt][Tt][Pp][Ss]?)://"
    r"(?P<host>[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*)"
    r"(?P<port>:(?:0|[1-9][0-9]{0,4}))?"
    r"(?P<path>/[A-Za-z0-9_\-/~,:@!$&'()*+;=]*)?"
    r"(?:#.*)?$"
)


class _CanonCache:
    """Process-level memo for (raw url → canon, host, fnv64) — the
    crawl re-offers the same link URLs across epochs (a bounded link
    universe / site graph revisits pages), so each worker converges to
    an all-hit regime where admission costs ONE ``pc.index_in`` probe +
    three takes per batch instead of regex + RFC-3986 + FNV per URL.

    Pure-function cache: results are byte-identical with or without it
    (determinism/checkpoint tests cover both paths). Bounded: reset
    wholesale at ``cap`` distinct URLs."""

    __slots__ = ("raw", "canon", "host", "hashes", "cap")

    def __init__(self, cap: int = 1 << 20):
        self.raw: pa.Array | None = None
        self.canon: pa.Array | None = None
        self.host: pa.Array | None = None
        self.hashes: np.ndarray | None = None
        self.cap = cap

    def add(self, raw: pa.Array, canon: pa.Array, host: pa.Array, hashes: np.ndarray):
        if self.raw is not None and len(self.raw) + len(raw) > self.cap:
            self.raw = None
        if self.raw is None:
            first = ~pd_duplicated(raw)
            sel = pa.array(first)
            self.raw = raw.filter(sel)
            self.canon = canon.filter(sel)
            self.host = host.filter(sel)
            self.hashes = hashes[first]
            return
        # dedupe new entries against the known set before concat
        idx = pc.index_in(raw, value_set=self.raw)
        fresh = idx.is_null()
        if isinstance(fresh, pa.ChunkedArray):  # pragma: no cover
            fresh = fresh.combine_chunks()
        fresh_np = fresh.to_numpy(zero_copy_only=False)
        if not fresh_np.any():
            return
        # also dedupe within the batch itself
        sel = pa.array(fresh_np)
        raw_f = raw.filter(sel)
        first = ~pd_duplicated(raw_f)
        sel2 = pa.array(first)
        self.raw = pa.concat_arrays([self.raw, raw_f.filter(sel2)])
        self.canon = pa.concat_arrays([self.canon, canon.filter(sel).filter(sel2)])
        self.host = pa.concat_arrays([self.host, host.filter(sel).filter(sel2)])
        self.hashes = np.concatenate([self.hashes, hashes[fresh_np][first]])


def pd_duplicated(arr: pa.Array) -> np.ndarray:
    """True for second-and-later occurrences of a value (vectorized)."""
    idx = pc.index_in(arr, value_set=arr.unique())
    idx_np = idx.to_numpy(zero_copy_only=False).astype(np.int64)
    out = np.empty(len(arr), dtype=bool)
    # first-occurrence detection without a Python loop: stable argsort
    # by unique-id, mark position where the id changes
    order = np.argsort(idx_np, kind="stable")
    sorted_ids = idx_np[order]
    first_sorted = np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
    out[order] = ~first_sorted
    return out


_CANON_CACHE = _CanonCache()


def canonicalize_batch(urls, use_cache: bool = True) -> tuple[pa.Array, pa.Array, np.ndarray]:
    """Vectorized entry point: (url_canon, host, url_hash:uint64).

    Already-canonical http(s) URLs (the crawl hot path) are recognized
    and re-assembled entirely in Arrow C kernels (one extract_regex +
    one join per batch); only the residue goes through the per-row
    RFC-3986 parser. Repeated URLs hit the process-level memo
    (``_CanonCache``) and skip both."""
    if isinstance(urls, pa.ChunkedArray):
        arr = urls.combine_chunks()
    elif isinstance(urls, pa.Array):
        arr = urls
    else:
        arr = pa.array(["" if u is None else u for u in urls], pa.string())
    if arr.null_count:
        arr = pc.fill_null(arr, "")

    cache = _CANON_CACHE if use_cache else None
    if cache is not None and cache.raw is not None and len(arr):
        idx = pc.index_in(arr, value_set=cache.raw)
        if isinstance(idx, pa.ChunkedArray):  # pragma: no cover
            idx = idx.combine_chunks()
        miss = idx.is_null().to_numpy(zero_copy_only=False)
        if not miss.any():
            idx_np = idx.to_numpy(zero_copy_only=False).astype(np.int64)
            return (
                cache.canon.take(idx),
                cache.host.take(idx),
                cache.hashes[idx_np],
            )
        # compute only the misses, merge with hits positionally.
        # Snapshot the known arrays FIRST — add() may reset the cache
        # at the cap, which would invalidate the hit indices.
        k_canon, k_host, k_hashes = cache.canon, cache.host, cache.hashes
        miss_pa = pa.array(miss)
        m_canon, m_host, m_hash = canonicalize_batch(arr.filter(miss_pa), use_cache=False)
        cache.add(arr.filter(miss_pa), m_canon, m_host, m_hash)
        hit = ~miss
        n = len(arr)
        idx_np = idx.to_numpy(zero_copy_only=False)
        canon_out = np.empty(n, dtype=object)
        host_out = np.empty(n, dtype=object)
        hash_out = np.empty(n, dtype=np.uint64)
        hit_idx = idx_np[hit].astype(np.int64)
        canon_out[hit] = k_canon.take(pa.array(hit_idx)).to_numpy(zero_copy_only=False)
        host_out[hit] = k_host.take(pa.array(hit_idx)).to_numpy(zero_copy_only=False)
        hash_out[hit] = k_hashes[hit_idx]
        canon_out[miss] = m_canon.to_numpy(zero_copy_only=False)
        host_out[miss] = m_host.to_numpy(zero_copy_only=False)
        hash_out[miss] = m_hash
        return (
            pa.array(canon_out, pa.string()),
            pa.array(host_out, pa.string()),
            hash_out,
        )
    ext = pc.extract_regex(arr, pattern=_FAST_EXTRACT_PAT)
    fast = ext.is_valid().to_numpy(zero_copy_only=False)
    scheme = pc.struct_field(ext, "scheme")
    host_f = pc.struct_field(ext, "host")
    path_f = pc.struct_field(ext, "path")
    path_f = pc.if_else(pc.equal(path_f, ""), pa.scalar("/"), path_f)
    canon_a = pc.binary_join_element_wise(scheme, pa.scalar("://"), host_f, path_f, pa.scalar(""))
    if not fast.all():
        canon_list = canon_a.to_pylist()
        hosts_list = host_f.to_pylist()
        slow_idx = np.nonzero(~fast)[0]
        sub = arr.take(pa.array(slow_idx))
        # tier 2: vectorized lower + default-port strip + fragment drop
        ext2 = pc.extract_regex(sub, pattern=_TIER2_EXTRACT_PAT)
        t2 = ext2.is_valid().to_numpy(zero_copy_only=False)
        if t2.any():
            sl = pc.utf8_lower(pc.fill_null(pc.struct_field(ext2, "scheme"), ""))
            hl = pc.utf8_lower(pc.fill_null(pc.struct_field(ext2, "host"), ""))
            port = pc.fill_null(pc.struct_field(ext2, "port"), "")
            # a port above 65535 is dropped by urlsplit (ValueError →
            # None) — too exotic for the kernel path, demote those rows
            plen = pc.binary_length(port).to_numpy(zero_copy_only=False)
            big = (plen == 6) & (
                pc.greater(
                    pc.utf8_slice_codeunits(port, 1), pa.scalar("65535")
                )
                .to_numpy(zero_copy_only=False)
            )
            t2 &= ~big
            default = pc.if_else(
                pc.equal(sl, "http"), pa.scalar(":80"), pa.scalar(":443")
            )
            port_out = pc.if_else(pc.equal(port, default), pa.scalar(""), port)
            path2 = pc.fill_null(pc.struct_field(ext2, "path"), "")
            path2 = pc.if_else(pc.equal(path2, ""), pa.scalar("/"), path2)
            canon2 = pc.binary_join_element_wise(
                sl, pa.scalar("://"), hl, port_out, path2, pa.scalar("")
            )
            c2 = canon2.to_pylist()
            h2 = hl.to_pylist()
            for j in np.nonzero(t2)[0]:
                canon_list[slow_idx[j]] = c2[j]
                hosts_list[slow_idx[j]] = h2[j]
        rest = np.nonzero(~t2)[0]
        raw = sub.take(pa.array(rest)).to_pylist()
        for j, u in zip(rest, raw):
            c, h = canonicalize_url_host(u or "")
            canon_list[slow_idx[j]] = c
            hosts_list[slow_idx[j]] = h
        canon_a = pa.array(canon_list, pa.string())
        host_f = pa.array(hosts_list, pa.string())
    if host_f.null_count:
        host_f = pc.fill_null(host_f, "")
    hashes = fnv64(canon_a)
    if cache is not None and len(arr):
        cache.add(arr, canon_a, host_f, hashes)
    return canon_a, host_f, hashes


# --------------------------------------------------------------------------
# outbound policy (FilterOutboundURL, outbound.go:69-114 + filter.go:20-70):
# - empty allow-list ⇒ everything allowed; non-empty ⇒ must match ANY
# - deny-list always applies; any match rejects
# - then the IP-class policy on literal-IP hosts (a DNS name would need
#   the resolve step, which the engine does not take)
# The caller picks the string the regexes see: the crawl matches the
# CANONICAL form (outbound.go:264-270), a sub-resource its raw ref.

REASON_ALLOW_LIST = "filtered:allow_list"
REASON_DENY_LIST = "filtered:deny_list"
REASON_PRIVATE_IP = "filtered:non_public_ip"
REASON_PUBLIC_IP = "filtered:public_ip"

# a host (port and IPv6 brackets stripped) can be an IP literal only if
# it starts with a digit (IPv4) or holds a colon (IPv6, whose first
# character may be a hex letter); any other host is a DNS name and skips
# the per-row ipaddress parse
_IP_LITERAL_PAT = r"^[0-9]|:"


def _strings(xs) -> pa.Array:
    if isinstance(xs, pa.ChunkedArray):
        return xs.combine_chunks()
    if isinstance(xs, pa.Array):
        return xs
    return pa.array(xs, pa.string())


class UrlFilter:
    """The outbound policy: allow/deny regexes plus the IP-class flags.
    Compile once (actor ``__init__``), decide batch-at-a-time."""

    def __init__(
        self,
        allow=(),
        deny=(),
        deny_private_ips: bool = False,
        deny_public_ips: bool = False,
    ):
        self.allow = [re.compile(p) for p in allow]
        self.deny = [re.compile(p) for p in deny]
        self.deny_private_ips = bool(deny_private_ips)
        self.deny_public_ips = bool(deny_public_ips)

    def reasons(self, urls, hosts) -> np.ndarray:
        """One deny reason per row ("" = pass), object array. ``urls``
        are the strings the regexes see; ``hosts`` their hosts as
        ``url_host`` gives them (userinfo, port and brackets stripped).
        IPv4-mapped IPv6 hosts are judged as IPv4 (host_ip_policy)."""
        urls, hosts = _strings(urls), _strings(hosts)
        out = np.full(len(urls), "", dtype=object)
        if self.allow or self.deny:
            for i, u in enumerate(urls.to_numpy(zero_copy_only=False).tolist()):
                if self.allow and not any(p.search(u) for p in self.allow):
                    out[i] = REASON_ALLOW_LIST
                elif any(p.search(u) for p in self.deny):
                    out[i] = REASON_DENY_LIST
        if not (self.deny_private_ips or self.deny_public_ips):
            return out
        ip_like = pc.fill_null(pc.match_substring_regex(hosts, _IP_LITERAL_PAT), False)
        ip_like = ip_like.to_numpy(zero_copy_only=False)
        if not ip_like.any():
            return out
        rows = np.nonzero(ip_like & (out == ""))[0]
        for i, host in zip(rows, hosts.take(pa.array(rows)).to_pylist()):
            cls = host_ip_policy(host)
            if self.deny_private_ips and cls == "non_public":
                out[i] = REASON_PRIVATE_IP
            elif self.deny_public_ips and cls == "public":
                out[i] = REASON_PUBLIC_IP
        return out


# --------------------------------------------------------------------------
# IP-class policy (outbound.go:69-114). The reference resolves the host
# and rejects any non-public IP; we classify literal-IP hosts the same
# way and leave DNS names to the resolve step, which the engine does
# not take.

_NON_PUBLIC_V6 = [
    ipaddress.ip_network(p)
    for p in (
        "::/128",  # unspecified
        "::1/128",  # loopback
        "::ffff:0:0/96",  # IPv4-mapped (unwrapped below, but reject raw)
        "64:ff9b::/96",  # NAT64
        "100::/64",  # discard
        "2001::/32",  # Teredo
        "2001:db8::/32",  # documentation
        "2002::/16",  # 6to4
        "fc00::/7",  # ULA
        "fe80::/10",  # link-local
        "ff00::/8",  # multicast
    )
]

_NON_PUBLIC_V4 = [
    ipaddress.ip_network(p)
    for p in (
        "0.0.0.0/8",
        "10.0.0.0/8",
        "100.64.0.0/10",
        "127.0.0.0/8",
        "169.254.0.0/16",
        "172.16.0.0/12",
        "192.0.0.0/24",
        "192.0.2.0/24",
        "192.168.0.0/16",
        "198.18.0.0/15",
        "198.51.100.0/24",
        "203.0.113.0/24",
        "224.0.0.0/4",
        "240.0.0.0/4",
        "255.255.255.255/32",
    )
]


def is_public_ip(ip_str: str) -> bool:
    """True iff the address is publicly routable (outbound.go:91-114).

    IPv4-mapped IPv6 addresses are unwrapped and judged as IPv4
    (outbound.go IPv4-mapped unwrap).
    """
    try:
        ip = ipaddress.ip_address(ip_str)
    except ValueError:
        return False
    if isinstance(ip, ipaddress.IPv6Address):
        mapped = ip.ipv4_mapped
        if mapped is not None:
            ip = mapped
    nets = _NON_PUBLIC_V4 if ip.version == 4 else _NON_PUBLIC_V6
    return not any(ip in n for n in nets)


def host_ip_policy(host: str) -> str:
    """Classify a host: 'public' | 'non_public' | 'name' (needs resolve)."""
    try:
        ipaddress.ip_address(host)
    except ValueError:
        return "name"
    return "public" if is_public_ip(host) else "non_public"


# --------------------------------------------------------------------------
# status-class expansion (events.go:215-227): a sentinel of 199/299/399/
# 499/599 expands to its whole 100-status class.


def expand_status_codes(codes: list[int]) -> np.ndarray:
    """Expand fail-on status sentinels to the full set (sorted uint16)."""
    out: set[int] = set()
    for c in codes:
        c = int(c)
        if c in (199, 299, 399, 499, 599):
            out.update(range(c - 99, c + 1))
        else:
            out.add(c)
    return np.array(sorted(out), dtype=np.uint16)


def status_fails(statuses: np.ndarray, expanded: np.ndarray) -> np.ndarray:
    """Vectorized membership: does each status hit the fail set?"""
    return np.isin(np.asarray(statuses, dtype=np.uint16), expanded)


