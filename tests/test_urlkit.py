import numpy as np
import pyarrow as pa
import pytest

from gotenberg_ray.functions import urlkit as U


def test_canonicalize_lowercases_scheme_and_host():
    # outbound.go:264-270 semantics
    assert U.canonicalize_url("HTTP://ExAmPlE.Com/Path") == "http://example.com/Path"


def test_canonicalize_strips_default_port_fragment_and_dot_segments():
    assert U.canonicalize_url("http://example.com:80/a/../b/./c#frag") == "http://example.com/b/c"
    assert U.canonicalize_url("https://example.com:443/") == "https://example.com/"
    assert U.canonicalize_url("https://example.com:8443/x") == "https://example.com:8443/x"


def test_canonicalize_empty_path_and_percent():
    assert U.canonicalize_url("http://example.com") == "http://example.com/"
    assert U.canonicalize_url("http://example.com/%7euser") == "http://example.com/~user"
    # RFC 3986 §6.2.2: only unreserved escapes decode — reserved escapes
    # keep their escaped form (uppercased hex). %2F must NOT become '/'
    # (would change path segmentation and collide distinct seen-keys);
    # %3F must NOT become '?' (would migrate path bytes into the query).
    assert U.canonicalize_url("http://example.com/a%2fb") == "http://example.com/a%2Fb"
    assert U.canonicalize_url("http://example.com/a%3fb") == "http://example.com/a%3Fb"
    assert (
        U.canonicalize_url("http://example.com/a%2Fb")
        != U.canonicalize_url("http://example.com/a/b")
    )
    # raw chars that need escaping still get encoded
    assert U.canonicalize_url("http://example.com/a b") == "http://example.com/a%20b"


def test_canonicalize_ipv6_literal_keeps_brackets():
    assert U.canonicalize_url("http://[::1]:80/x") == "http://[::1]/x"
    assert U.canonicalize_url("http://[2600::1]:8080/x") == "http://[2600::1]:8080/x"


def test_canonicalize_idempotent():
    urls = [
        "HTTP://ExAmPlE.Com:80/a/../b#f",
        "https://u:p@Host.Org:443/x?q=1%7e",
        "file:///etc/passwd",
    ]
    for u in urls:
        c = U.canonicalize_url(u)
        assert U.canonicalize_url(c) == c


def test_batch_matches_scalar():
    urls = ["HTTP://A.com:80/x#f", "https://b.org", None]
    canon, hosts, hashes = U.canonicalize_batch(urls)
    assert canon.to_pylist() == ["http://a.com/x", "https://b.org/", ""]
    assert hosts.to_pylist() == ["a.com", "b.org", ""]
    assert hashes.dtype == np.uint64


def test_filter_allow_or_semantics_deny_always_wins():
    # filter.go:20-70: empty allow = all; non-empty allow = OR; deny always applies
    def passes(f, url):
        return f.reasons([url], [U.url_host(url)])[0] == ""

    f = U.UrlFilter()
    assert passes(f, "http://anything/")
    f = U.UrlFilter(allow=[r"\.org/", r"\.com/"])
    assert passes(f, "http://a.org/")
    assert not passes(f, "http://a.net/")
    f = U.UrlFilter(allow=[r"\.org/"], deny=[r"/private/"])
    assert not passes(f, "http://a.org/private/x")
    f = U.UrlFilter(deny=[r"evil"])
    assert not passes(f, "http://evil.com/")


def test_reject_file_scheme():
    # routes.go:417-435: admission rejects a non-http(s) scheme as invalid input
    from gotenberg_ray.frontier.crawler import admit_candidates
    from gotenberg_ray.schemas import ERR_INVALID_INPUT

    n = 2
    batch = pa.table({
        "url": ["file:///x", "http://a/"],
        "priority": pa.array([0] * n, pa.int32()),
        "next_fetch_time": pa.array([0] * n, pa.int64()),
        "route": ["convert/html"] * n,
        "doc_id": ["d0", "d1"],
        "options_json": ["{}"] * n,
        "seq": pa.array(range(n), pa.int64()),
    })
    accepted, rejected = admit_candidates(batch, U.UrlFilter())
    assert accepted.column("url_canon").to_pylist() == ["http://a/"]
    assert rejected.to_pylist() == [{"url": "file:///x", "error_type": ERR_INVALID_INPUT}]


def test_ip_policy_tables():
    # outbound.go:69-114
    assert U.is_public_ip("8.8.8.8")
    assert not U.is_public_ip("10.1.2.3")
    assert not U.is_public_ip("127.0.0.1")
    assert not U.is_public_ip("169.254.1.1")
    assert not U.is_public_ip("172.16.5.5")
    assert not U.is_public_ip("192.168.0.1")
    assert not U.is_public_ip("100.64.0.1")
    assert not U.is_public_ip("::1")
    assert not U.is_public_ip("fe80::1")
    assert not U.is_public_ip("fc00::1")
    assert not U.is_public_ip("2002::1")  # 6to4
    assert not U.is_public_ip("2001::1")  # Teredo
    assert not U.is_public_ip("64:ff9b::1.2.3.4")  # NAT64
    assert U.is_public_ip("2600::1")
    # IPv4-mapped unwrap
    assert not U.is_public_ip("::ffff:192.168.0.1")
    assert U.is_public_ip("::ffff:8.8.8.8")


def test_host_ip_policy():
    assert U.host_ip_policy("example.com") == "name"
    assert U.host_ip_policy("192.168.0.1") == "non_public"
    assert U.host_ip_policy("8.8.8.8") == "public"


def test_status_class_expansion():
    # events.go:215-227: 499 → 400..499; others literal
    ex = U.expand_status_codes([499])
    assert ex.min() == 400 and ex.max() == 499 and len(ex) == 100
    ex = U.expand_status_codes([404, 599])
    assert 404 in ex and 500 in ex and 599 in ex and 418 not in ex
    assert U.status_fails(np.array([200, 404, 503]), ex).tolist() == [False, True, True]


class TestUrlHostCorpus:
    def test_every_variant_canonicalizes_to_expected(self):
        from gotenberg_ray.functions.urlkit import canonicalize_url_host
        from gotenberg_ray.pipelines.urls import N_HOSTS, _raw_urls

        for d in range(64):
            want = f"https://host{d % N_HOSTS}.example.com/p/{d}"
            for raw in _raw_urls(d):
                c, h = canonicalize_url_host(raw)
                assert c == want, (raw, c)
                assert h == f"host{d % N_HOSTS}.example.com"

    def test_twin_variant_collapses(self):
        from gotenberg_ray.functions.urlkit import canonicalize_url_host
        from gotenberg_ray.pipelines.urls import _raw_urls

        raws = _raw_urls(6)  # 6 % 4 == 2 → messy + clean twin
        assert len(raws) == 2 and raws[0] != raws[1]
        assert canonicalize_url_host(raws[0])[0] == canonicalize_url_host(raws[1])[0]


@pytest.mark.usefixtures("ray_session")
class TestUrlHostCounts:
    def test_matches_sql_twin(self, sf_dir):
        import duckdb
        import pandas as pd

        from gotenberg_ray.pipelines import urls as U

        a = U.url_host_counts(sf_dir)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS FROM '{sf_dir}/documents.parquet'")
        want = con.sql(U.URL_HOSTS_SQL).df()
        for c in ("n_urls", "n_canon"):
            want[c] = want[c].astype("int64")
        pd.testing.assert_frame_equal(a.reset_index(drop=True), want)
        # the twin variants really collapsed: fewer canonicals than raws
        assert (a["n_canon"] < a["n_urls"]).any()


def test_batch_tier2_matches_scalar_on_messy_forms():
    """The vectorized tier-2 canonicalization (mixed case, explicit
    port, fragment) must agree byte-for-byte with the per-row RFC-3986
    parser — frontier hashes and checkpoint bytes derive from it."""
    import numpy as np

    rng = np.random.RandomState(11)
    schemes = ["http", "HTTP", "HtTp", "https", "HTTPS", "hTtPs"]
    hosts = ["a.com", "A.Com", "WWW.Ex-1.ORG", "h7.example.com", "LOCAL"]
    ports = ["", ":80", ":443", ":8080", ":0", ":65535", ":65536", ":99999"]
    paths = ["", "/", "/page/7", "/A/b-c_d~", "/p;x=1,y@z"]
    frags = ["", "#f", "#sec/9#x"]
    urls = []
    for _ in range(600):
        urls.append(
            schemes[rng.randint(len(schemes))]
            + "://"
            + hosts[rng.randint(len(hosts))]
            + ports[rng.randint(len(ports))]
            + paths[rng.randint(len(paths))]
            + frags[rng.randint(len(frags))]
        )
    # plus the forms that must stay on the per-row parser
    urls += [
        "http://u:p@a.com/x",
        "http://a.com/%7Euser",
        "http://a.com/a/../b",
        "http://[::1]:8080/x",
        "http://a.com./x",
        "http://a.com/x?q=1",
        "file:///etc/passwd",
        "",
    ]
    canon, host, _h = U.canonicalize_batch(urls, use_cache=False)
    for u, c, h in zip(urls, canon.to_pylist(), host.to_pylist()):
        ec, eh = U.canonicalize_url_host(u)
        assert c == ec, (u, c, ec)
        assert h == eh, (u, h, eh)
