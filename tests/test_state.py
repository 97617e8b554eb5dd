import numpy as np
import pytest

from gotenberg_ray.state.bloom import BloomFilter
from gotenberg_ray.state.cuckoo import CuckooFilter
from gotenberg_ray.state.heap import FrontierHeap
from gotenberg_ray.state.politeness import HostBuckets
from gotenberg_ray.state.robots import RobotsCache, parse_robots


def test_bloom_no_false_negatives_and_bounded_fp():
    rng = np.random.RandomState(0)
    keys = rng.randint(0, 2**63, 5000).astype(np.uint64)
    bf = BloomFilter(capacity=10000, fp_rate=0.01)
    bf.add(keys)
    assert bf.contains(keys).all()
    probe = rng.randint(0, 2**63, 20000).astype(np.uint64)
    fresh = probe[~np.isin(probe, keys)]
    fp = bf.contains(fresh).mean()
    assert fp < 0.03


def test_bloom_roundtrip_bitidentical():
    keys = np.arange(1000, dtype=np.uint64) * 7919
    bf = BloomFilter(2000)
    bf.add(keys)
    raw = bf.to_bytes()
    bf2 = BloomFilter.from_bytes(raw)
    assert bf2.to_bytes() == raw
    assert bf2.contains(keys).all()


def test_cuckoo_exact_membership_and_batch_dedup():
    rng = np.random.RandomState(1)
    keys = rng.randint(0, 2**63, 4000).astype(np.uint64)
    cf = CuckooFilter(capacity=8192, seed=3)
    fresh = cf.add_if_absent(keys)
    # a cuckoo filter has no false negatives but may rarely misreport a
    # new key as seen (fingerprint collision) — bound it, don't forbid it
    assert (~fresh).mean() < 0.002
    again = cf.add_if_absent(keys)
    assert not again.any()
    assert cf.contains(keys).all()
    other = rng.randint(0, 2**63, 4000).astype(np.uint64)
    other = other[~np.isin(other, keys)]
    assert cf.contains(other).mean() < 0.001  # 16-bit fp, 2 buckets
    # duplicate within a single batch: only first occurrence is fresh
    cf2 = CuckooFilter(64, seed=1)
    m = cf2.add_if_absent(np.array([5, 5, 6], dtype=np.uint64))
    assert m.tolist() == [True, False, True]


def test_cuckoo_deterministic_serialization():
    keys = (np.arange(3000, dtype=np.uint64) * 2654435761) % (2**61)
    a = CuckooFilter(8192, seed=7)
    b = CuckooFilter(8192, seed=7)
    a.add_if_absent(keys)
    b.add_if_absent(keys)
    assert a.to_bytes() == b.to_bytes()
    c = CuckooFilter.from_bytes(a.to_bytes())
    assert c.contains(keys).all()
    assert c.to_bytes() == a.to_bytes()


def _push(h, rows):
    """Push [(ready, priority, seq, url_hash)] as one chunk; loc = 1000 + seq."""
    r, p, s, u = (np.array(c) for c in zip(*rows))
    h.push_bulk(r, p, s, u.astype(np.uint64), 1000 + s)


def test_heap_pops_in_key_order():
    h = FrontierHeap()
    _push(h, [(5, 1, 10, 100), (3, 0, 11, 101)])
    _push(h, [(3, 9, 12, 102), (3, 9, 9, 103)])
    ready, prio, seq, uh, loc = h.pop_ready_bulk(horizon=4)
    # ready=3 first; among those priority desc, then seq asc
    assert seq.tolist() == [9, 12, 11]
    assert prio.tolist() == [9, 9, 0]
    assert uh.tolist() == [103, 102, 101]
    assert loc.tolist() == [1009, 1012, 1011]  # locators ride with their entries
    assert len(h) == 1 and h.peek_ready_time() == 5
    assert [c.tolist() for c in h.pop_ready_bulk(horizon=10)] == [[5], [1], [10], [100], [1010]]
    assert len(h) == 0 and h.peek_ready_time() is None
    assert len(h.pop_ready_bulk(horizon=10)[0]) == 0


def test_heap_canonical_serialization():
    a, b = FrontierHeap(), FrontierHeap()
    rows = [(3, 1, 1, 10), (1, 2, 2, 11), (2, 3, 3, 12)]
    _push(a, rows)
    _push(b, rows[2:])
    _push(b, rows[:2])
    assert a.to_table().equals(b.to_table())
    # a popped entry re-keyed by push-back serializes like one pushed there
    r, p, s, u, loc = b.pop_ready_bulk(horizon=1)
    b.push_bulk(r + 2, p, s, u, loc)
    c = FrontierHeap()
    _push(c, [(3, 1, 1, 10), (3, 2, 2, 11), (2, 3, 3, 12)])
    assert b.to_table().equals(c.to_table())
    seq = a.to_table().column("seq").to_numpy()
    d = FrontierHeap.from_table(a.to_table(), 1000 + seq)
    assert d.to_table().equals(a.to_table())
    assert sorted(zip(*(x.tolist() for x in d.locators()))) == [(1, 1001), (2, 1002), (3, 1003)]


def test_heap_big_hash_roundtrips():
    h = FrontierHeap()
    big = 0xD6E8FEB86659FD93  # ≥ 2^63
    _push(h, [(0, 1, 7, big)])
    assert h.to_table().column("url_hash").to_pylist() == [big]
    assert h.pop_ready_bulk(0)[3].tolist() == [big]


class _LoopBucket:
    """Reference token bucket: one request at a time, refill then take."""

    def __init__(self, delay, capacity):
        self.delay, self.capacity, self.tokens, self.last = delay, capacity, capacity, 0

    def refill(self, t):
        if t > self.last:
            gained = (t - self.last) // self.delay
            if gained:
                self.tokens = min(self.capacity, self.tokens + gained)
                self.last += gained * self.delay
            if self.tokens >= self.capacity:
                self.last = t

    def request(self, t, horizon):
        """→ (slot, granted): the earliest tick ≥ t holding a token, taken
        when it is within the horizon."""
        self.refill(t)
        slot = t if self.tokens > 0 else self.last + self.delay
        if slot > horizon:
            return slot, False
        self.refill(slot)
        self.tokens -= 1
        return slot, True


def test_host_buckets_grant_matches_loop_reference():
    rng = np.random.RandomState(11)
    for _ in range(150):
        burst = int(rng.randint(1, 4))
        n_hosts = int(rng.randint(1, 5))
        delays = rng.randint(1, 6, n_hosts)
        hb = HostBuckets(default_delay=2, capacity=burst)
        ref = {}
        for h in range(n_hosts):
            hb.set_delay(f"h{h}", int(delays[h]))
            ref[f"h{h}"] = _LoopBucket(int(delays[h]), burst)
        t0 = 0
        for _ in range(int(rng.randint(1, 5))):  # successive epochs share state
            n = int(rng.randint(0, 30))
            ready = np.sort(t0 + rng.randint(0, 12, n)).astype(np.int64)
            hosts = [f"h{int(i)}" for i in rng.randint(0, n_hosts, n)]
            horizon = t0 + int(rng.randint(0, 16))
            slots, granted = hb.grant(hosts, ready, horizon)
            want = [ref[h].request(int(t), horizon) for h, t in zip(hosts, ready)]
            assert slots.tolist() == [w[0] for w in want]
            assert granted.tolist() == [w[1] for w in want]
            t0 = horizon + 1
        got = hb.to_table().to_pydict()
        assert got["tokens"] == [ref[h].tokens for h in got["host"]]
        assert got["last_refill"] == [ref[h].last for h in got["host"]]
        # reserve(h, t) is the one-request grant with horizon t
        for _ in range(20):
            h = f"h{int(rng.randint(0, n_hosts))}"
            t0 += int(rng.randint(0, 4))
            slot, ok = ref[h].request(t0, t0)
            assert hb.reserve(h, t0) == (ok, slot)


def test_politeness_reserve_and_refill():
    hb = HostBuckets(default_delay=3, capacity=1)
    ok, when = hb.reserve("h", 0)
    assert ok and when == 0
    ok, when = hb.reserve("h", 1)
    assert not ok and when == 3  # next token at t=3
    ok, when = hb.reserve("h", 3)
    assert ok and when == 3
    ok, when = hb.reserve("h", 3)
    assert not ok and when == 6


def test_politeness_burst_capacity_and_roundtrip():
    hb = HostBuckets(default_delay=2, capacity=3)
    grants = [hb.reserve("h", 0)[0] for _ in range(4)]
    assert grants == [True, True, True, False]
    t = hb.to_table()
    hb2 = HostBuckets.from_table(t, default_delay=2, capacity=3)
    assert hb2.to_table().equals(t)
    # both replicas evolve identically
    assert hb.reserve("h", 5) == hb2.reserve("h", 5)


def test_robots_parse_and_match():
    txt = """
User-agent: *
Disallow: /private/
Allow: /private/ok
Crawl-delay: 4

User-agent: special
Disallow: /
"""
    r = parse_robots(txt, "gotenberg-ray")
    assert not r.allowed("/private/x")
    assert r.allowed("/private/ok/page")  # allow wins (longer match)
    assert r.allowed("/public")
    assert r.crawl_delay == 4
    r2 = parse_robots(txt, "special")
    assert not r2.allowed("/anything")
    # wildcard + anchor
    r3 = parse_robots("User-agent: *\nDisallow: /*.pdf$", "x")
    assert not r3.allowed("/a/b.pdf")
    assert r3.allowed("/a/b.pdfx")


def test_robots_cache_counts_fetches():
    calls = []

    def fetch(host):
        calls.append(host)
        return "User-agent: *\nDisallow: /no/"

    rc = RobotsCache(fetch)
    assert rc.allowed("h1", "/yes")
    assert not rc.allowed("h1", "/no/x")
    assert rc.crawl_delay("h1") is None
    assert calls == ["h1"]


def test_empty_robots_allows_everything():
    rc = RobotsCache(lambda h: None)
    assert rc.allowed("h", "/anything")


def test_robots_wildcard_batch_accepts_arrow_arrays():
    """The wildcard ('*'/'$') ruleset fallback must accept pyarrow
    string arrays — the shard admission gate passes them (review-found
    crash: an arrow StringScalar into re.match raised TypeError and
    killed the crawl for any real-world robots.txt with wildcards)."""
    import numpy as np
    import pyarrow as pa

    r = parse_robots("User-agent: *\nDisallow: /*.pdf$", "x")
    paths = ["/a/b.pdf", "/page", "/x.pdfy", "/deep/c.pdf"]
    want = np.array([r.allowed(p) for p in paths])
    got_arr = r.allowed_batch(pa.array(paths, pa.string()))
    got_chunked = r.allowed_batch(pa.chunked_array([paths[:2], paths[2:]]))
    got_list = r.allowed_batch(paths)
    assert (got_arr == want).all()
    assert (got_chunked == want).all()
    assert (got_list == want).all()
    assert list(want) == [False, True, True, False]
