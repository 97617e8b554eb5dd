"""Scalar helper functions mirrored from the reference (SURVEY §2.8).

- alphanumeric_key: the natural-sort comparator of
  /root/reference/pkg/gotenberg/sort.go:26-113 — prefix number, then
  extension-suffix number, then trailing number, then lexicographic —
  and digit_suffix_key (pdfcpu/sort.go:10-68) for split outputs. Our
  engine sorts by explicit part_index columns; these exist for
  fixture-name parity.
- parse_scoped_header: the extraHttpHeaders `value; scope=regex`
  grammar; sanitize_filename: the downloadFrom Zip-Slip defense.
- cap_attr / redact_url (gotenberg/attrs.go): log-attribute hygiene.
"""

from __future__ import annotations

import re
from functools import cmp_to_key as _cmp_to_key
from urllib.parse import urlsplit, urlunsplit

_NUM_TRAIL = re.compile(r"(\d+)$")
_GO_PREFIX = re.compile(r"^(\d+)(.*)$")
_GO_EXT_SUFFIX = re.compile(r"^(.*?)(\d+)(\.[^.]+)$")
_GO_SUFFIX = re.compile(r"^(.*?)(\d+)$")
_LOC_NONE, _LOC_PREFIX, _LOC_SUFFIXISH = 0, 1, 2


def _extract_number(name: str) -> tuple[int, str, int]:
    """Mirror of sort.go extractNumber: (number, rest, location)."""
    base = name.rsplit("/", 1)[-1]
    m = _GO_PREFIX.match(base)
    if m:
        return int(m.group(1)), m.group(2), _LOC_PREFIX
    m = _GO_EXT_SUFFIX.match(base)
    if m:
        return int(m.group(2)), m.group(1) + m.group(3), _LOC_SUFFIXISH
    m = _GO_SUFFIX.match(base)
    if m:
        return int(m.group(2)), m.group(1), _LOC_SUFFIXISH
    return -1, base, _LOC_NONE


def _alphanumeric_cmp(a: str, b: str) -> int:
    """EXACT transcription of AlphanumericSort.Less (sort.go:37-79) —
    the pairwise rules (prefix pairs: number then rest; suffix pairs:
    rest then number; mixed: rest then prefix-first) are not
    expressible as a single sort key, so the comparator itself is the
    parity artifact. (For heterogeneous prefix/suffix mixes Go's Less
    is not transitive; on the homogeneous fixture families the routes
    actually sort, both engines agree exactly.)"""
    num_a, rest_a, loc_a = _extract_number(a)
    num_b, rest_b, loc_b = _extract_number(b)
    if num_a != -1 and num_b != -1:
        if loc_a == _LOC_PREFIX and loc_b == _LOC_PREFIX:
            if num_a != num_b:
                return -1 if num_a < num_b else 1
            return (rest_a > rest_b) - (rest_a < rest_b)
        if loc_a != _LOC_PREFIX and loc_b != _LOC_PREFIX:
            if rest_a != rest_b:
                return -1 if rest_a < rest_b else 1
            if num_a != num_b:
                return -1 if num_a < num_b else 1
            return (a > b) - (a < b)
        if rest_a != rest_b:
            return -1 if rest_a < rest_b else 1
        return -1 if loc_a == _LOC_PREFIX else 1
    if num_a != -1:
        return -1
    if num_b != -1:
        return 1
    return (a > b) - (a < b)


alphanumeric_key = _cmp_to_key(_alphanumeric_cmp)


def digit_suffix_key(name: str):
    """pdfcpu split-output sort (pdfcpu/sort.go:10-68): numeric suffix
    before the extension."""
    stem, dot, _ext = name.rpartition(".")
    base = stem if dot else name
    m = _NUM_TRAIL.search(base)
    return (base[: m.start()] if m else base, int(m.group(1)) if m else -1)


def cap_attr(value: str, limit: int = 512) -> str:
    """Truncate long log attributes (gotenberg/attrs.go CapAttr)."""
    if len(value) <= limit:
        return value
    return value[: limit - 1] + "…"


def redact_url(url: str) -> str:
    """Strip userinfo + query values from logged URLs (RedactURL)."""
    try:
        p = urlsplit(url)
        port = p.port  # .port raises on out-of-range/non-numeric ports
        host = p.hostname or ""
    except ValueError:
        # log hygiene must never crash on attacker-supplied URLs —
        # fall back to the raw string rather than raising
        return url
    netloc = host
    if port:
        netloc = f"{netloc}:{port}"
    if p.username:
        netloc = f"xxx@{netloc}"
    query = "&".join(
        f"{kv.split('=', 1)[0]}=xxx" if "=" in kv else kv
        for kv in p.query.split("&")
        if kv
    )
    return urlunsplit((p.scheme, netloc, p.path, query, ""))


def sanitize_filename(name: str) -> str:
    """Strip path separators + control chars, NFC-normalize — the
    Zip-Slip defense of api/context.go:692-703."""
    import unicodedata

    out = "".join(c for c in name if c not in "/\\" and ord(c) >= 0x20)
    return unicodedata.normalize("NFC", out)


def parse_scoped_header(value: str) -> tuple[str, re.Pattern | None]:
    """The `value; scope=regex` extraHttpHeaders mini-grammar
    (chromium/routes.go:160-218): returns (header value, compiled scope
    regex or None). A malformed scope raises."""
    if "; scope=" not in value:
        return value, None
    head, _, pattern = value.partition("; scope=")
    return head, re.compile(pattern)
