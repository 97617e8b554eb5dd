"""Sub-resource admission algebra (pause filter) and the outbound policy
every caller shares: cases transcribed from the reference's own tests —
/root/reference/pkg/modules/chromium/events_test.go:65-109
(isAllowedFileSubResource) and
/root/reference/pkg/gotenberg/outbound_test.go:128-299
(FilterOutboundURL)."""

import re

import pyarrow as pa
import pytest

from gotenberg_ray.frontier.crawler import CrawlConfig, admit_candidates, crawl_policy
from gotenberg_ray.functions.urlkit import (
    REASON_ALLOW_LIST,
    REASON_DENY_LIST,
    REASON_PRIVATE_IP,
    REASON_PUBLIC_IP,
    UrlFilter,
    canonicalize_url,
    url_host,
)
from gotenberg_ray.schemas import DOCUMENTS_SCHEMA, ERR_FILTERED
from gotenberg_ray.stages.subresource import (
    DECISION_SCHEMA,
    REASON_FILE_PREFIX,
    SubResourceAdmission,
    is_allowed_file_subresource,
)

# events_test.go:65-109, verbatim table
FILE_PREFIX_CASES = [
    ("file:///tmp/work-uuid/request-uuid/index.html", (), False),
    ("file:///tmp/work-uuid/request-uuid/index.html", ("/tmp/work-uuid/request-uuid",), True),
    ("file:///tmp/work-uuid/other-request-uuid/secret.html", ("/tmp/work-uuid/request-uuid",), False),
    ("file:///tmp/", ("/tmp/work-uuid/request-uuid",), False),
    (
        "file:///tmp/work-uuid/request-b/asset.css",
        ("/tmp/work-uuid/request-a", "/tmp/work-uuid/request-b"),
        True,
    ),
]


@pytest.mark.parametrize("url,prefixes,want", FILE_PREFIX_CASES)
def test_is_allowed_file_subresource(url, prefixes, want):
    assert is_allowed_file_subresource(url, prefixes) is want


# outbound_test.go:129-134, verbatim policy regexes (regexp2 negative
# lookahead is valid Python re syntax)
DEFAULT_DENY = [
    re.compile(
        r"^https?://(10\.|172\.(1[6-9]|2[0-9]|3[01])\.|192\.168\.|169\.254\."
        r"|0\.0\.0\.0|127\.|localhost|\[::1\]|\[fd)"
    )
]
CHROMIUM_DENY = [re.compile(r"^file:(?!//\/tmp/).*")]


# (url, allow, deny, deny_private, deny_public, want_reason) — drawn
# from outbound_test.go:136-299 scenarios
OUTBOUND_CASES = [
    ("https://1.1.1.1/", [], [], True, False, ""),
    ("http://127.0.0.1:8080/", [], DEFAULT_DENY, False, False, REASON_DENY_LIST),
    ("http://127.0.0.1:8080/", [], [], True, False, REASON_PRIVATE_IP),
    ("http://[::ffff:127.0.0.1]:8080/page.pdf", [], [], True, False, REASON_PRIVATE_IP),
    ("http://[::ffff:10.0.0.1]/", [], [], True, False, REASON_PRIVATE_IP),
    ("https://example.com/", [], DEFAULT_DENY, False, False, ""),
    # allow-list OR: no match → deny even for a clean URL
    ("https://other.example/", [re.compile(r"^https://example\.com/")], [], False, False, REASON_ALLOW_LIST),
    ("https://example.com/a", [re.compile(r"^https://example\.com/")], [], False, False, ""),
    ("file:///tmp/index.html", [], CHROMIUM_DENY, False, False, ""),
    ("file:///etc/passwd", [], CHROMIUM_DENY, False, False, REASON_DENY_LIST),
    ("http://169.254.169.254/latest/meta-data/", [], [], True, False, REASON_PRIVATE_IP),
    # userinfo trick: the HOST is 127.0.0.1, not example.com
    ("http://example.com@127.0.0.1/", [], [], True, False, REASON_PRIVATE_IP),
    # denyPublicIPs inverts the class check
    ("https://1.1.1.1/", [], [], False, True, REASON_PUBLIC_IP),
    ("http://10.0.0.8/", [], [], False, True, ""),
    # a private literal passes when neither IP flag is set
    ("http://10.1.2.3/", [], [], False, False, ""),
    # IPv4-mapped IPv6 is judged as the IPv4 it wraps
    ("http://[::ffff:8.8.8.8]/", [], [], True, False, ""),
    ("http://[::ffff:8.8.8.8]/", [], [], False, True, REASON_PUBLIC_IP),
    # non-public IPv6 literals whose first character is a hex letter
    ("http://[fd00::1]/", [], [], True, False, REASON_PRIVATE_IP),
    ("http://[fe80::1%25eth0]/", [], [], True, False, REASON_PRIVATE_IP),
    # a trailing dot does not hide an IP literal
    ("http://127.0.0.1./", [], [], True, False, REASON_PRIVATE_IP),
    # no host: nothing for the IP-class policy to judge
    ("http:///path", [], [], True, False, ""),
    # deny beats allow, and an allow match does not skip the IP check
    (
        "https://internal.allowed/x",
        [re.compile(r"^https://internal\.allowed/")],
        [re.compile(r"allowed")],
        False,
        False,
        REASON_DENY_LIST,
    ),
    ("http://10.9.9.9/x", [re.compile(r"^http://10\.9\.")], [], True, False, REASON_PRIVATE_IP),
]


@pytest.mark.parametrize("url,allow,deny,dpriv,dpub,want", OUTBOUND_CASES)
def test_filter_outbound_url(url, allow, deny, dpriv, dpub, want):
    policy = UrlFilter(allow, deny, dpriv, dpub)
    assert policy.reasons([url], [url_host(url)]).tolist() == [want]


CRAWL_CASES = [
    c for c in OUTBOUND_CASES if c[0].startswith(("http://", "https://")) and c[3] and not c[4]
]


@pytest.mark.parametrize("url,allow,deny,dpriv,dpub,want", CRAWL_CASES)
def test_crawl_admission_agrees_with_outbound_policy(url, allow, deny, dpriv, dpub, want):
    """The crawl's admission (non-public literals always denied) filters
    exactly the rows the outbound policy gives a reason."""
    if canonicalize_url(url) != url:
        pytest.skip("the crawl matches the canonical form, which differs from this raw URL")
    cfg = CrawlConfig(allow=tuple(p.pattern for p in allow), deny=tuple(p.pattern for p in deny))
    batch = pa.table(
        {
            "url": [url],
            "priority": pa.array([0], pa.int32()),
            "next_fetch_time": pa.array([0], pa.int64()),
            "route": ["convert/url"],
            "doc_id": ["d0"],
            "options_json": ["{}"],
            "seq": pa.array([0], pa.int64()),
        }
    )
    accepted, rejected = admit_candidates(batch, crawl_policy(cfg))
    if want:
        assert rejected.to_pylist() == [{"url": url, "error_type": ERR_FILTERED}]
    else:
        assert accepted.column("url_canon").to_pylist() == [url]


def _pages(rows):
    """rows: (doc_id, route, options_json, [media_refs])"""
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "route": pa.array([r[1] for r in rows], pa.string()),
            "options_json": pa.array([r[2] for r in rows], pa.string()),
            "spans": pa.array(
                [
                    [
                        {"kind": "text", "text": "t", "media_ref": "", "offset": 0},
                        *(
                            {"kind": "media", "text": "", "media_ref": m, "offset": i + 1}
                            for i, m in enumerate(r[3])
                        ),
                    ]
                    for r in rows
                ],
                DOCUMENTS_SCHEMA.field("spans").type,
            ),
        }
    )


def test_stage_file_prefix_is_per_request():
    """A local-file route's own workdir assets load; a sibling request's
    do not; url routes default-deny every file:// sub-resource."""
    stage = SubResourceAdmission(deny=(r"^file:(?!//\/tmp/).*",), workdir="/tmp/gotenberg")
    batch = _pages(
        [
            ("req-a", "convert/html", "{}", ["file:///tmp/gotenberg/req-a/logo.png"]),
            ("req-b", "convert/html", "{}", ["file:///tmp/gotenberg/req-a/logo.png"]),
            ("req-c", "convert/url", "{}", ["file:///tmp/gotenberg/req-c/logo.png"]),
            ("req-d", "convert/html", "{}", ["file:///etc/passwd"]),
        ]
    )
    out = stage(batch)
    by = {(r["doc_id"]): r for r in out.to_pylist()}
    assert by["req-a"]["allowed"] is True
    assert by["req-b"]["allowed"] is False
    assert by["req-b"]["reason"] == REASON_FILE_PREFIX
    assert by["req-c"]["allowed"] is False
    assert by["req-c"]["reason"] == REASON_FILE_PREFIX
    # deny-list fires BEFORE the prefix check (outbound order)
    assert by["req-d"]["reason"] == REASON_DENY_LIST


def test_stage_scoped_headers_apply_per_subresource():
    opts = (
        '{"extraHttpHeaders": {"X-Auth": "tok; scope=^https://cdn\\\\.example\\\\.com/",'
        ' "X-Trace": "abc"}}'
    )
    stage = SubResourceAdmission()
    batch = _pages(
        [
            (
                "d1",
                "convert/url",
                opts,
                ["https://cdn.example.com/a.png", "https://other.example.com/b.png"],
            ),
        ]
    )
    out = stage(batch).to_pylist()
    assert [r["media_ref"] for r in out] == [
        "https://cdn.example.com/a.png",
        "https://other.example.com/b.png",
    ]
    # scoped header only on the matching sub-resource; unscoped on all
    assert out[0]["headers"] == ["X-Auth: tok", "X-Trace: abc"]
    assert out[1]["headers"] == ["X-Trace: abc"]
    assert all(r["allowed"] for r in out)


def test_stage_ip_policy_and_empty_batches():
    stage = SubResourceAdmission(deny_private_ips=True)
    batch = _pages(
        [
            ("d1", "convert/url", "{}", ["http://169.254.169.254/meta", "https://ok.example.com/x"]),
            ("d2", "convert/url", "{}", []),  # no media spans
        ]
    )
    out = stage(batch)
    assert out.schema.equals(DECISION_SCHEMA)
    rows = out.to_pylist()
    assert len(rows) == 2
    assert rows[0]["allowed"] is False and rows[0]["reason"] == REASON_PRIVATE_IP
    assert rows[1]["allowed"] is True and rows[1]["reason"] == ""
    # all-text batch → typed empty table
    empty = stage(_pages([("d3", "convert/url", "{}", [])]))
    assert empty.num_rows == 0 and empty.schema.equals(DECISION_SCHEMA)
