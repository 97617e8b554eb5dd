"""Hypothesis property tests over the foundational kernels — the
invariants every downstream operator silently relies on:

- RFC-3986 canonicalization is IDEMPOTENT (a canonical URL re-entering
  the frontier must map to the same seen-key, or dedup breaks);
- the cuckoo seen-set has NO FALSE NEGATIVES (a lost URL is a crawl
  correctness bug; false positives only cost a skipped refetch);
- the bloom filter (join pruning, incremental gate) never rejects a
  present key;
- the bucketed hash join equals a reference pandas merge for arbitrary
  key multiplicity (inner + left outer, many-to-many multiplication);
- sampling priorities are permutation-invariant (block layout can't
  change which rows survive).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gotenberg_ray.functions.urlkit import canonicalize_url
from gotenberg_ray.state.bloom import BloomFilter
from gotenberg_ray.state.cuckoo import CuckooFilter

# URL-ish strings: scheme/host/path/query fragments with odd escapes
_url_bits = st.text(
    alphabet="abcXYZ019-._~%/?#[]@!$&'()*+,;= \té中",
    min_size=0,
    max_size=40,
)


@given(_url_bits)
@settings(max_examples=300, deadline=None)
def test_canonicalize_idempotent(suffix):
    url = "http://Example.COM:80/" + suffix
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=100, deadline=None)
def test_cuckoo_no_false_negatives(keys):
    cf = CuckooFilter(capacity=1 << 12)
    arr = np.array(keys or [0], dtype=np.uint64)
    cf.add_if_absent(arr)
    assert cf.contains(arr).all()


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=500))
@settings(max_examples=100, deadline=None)
def test_bloom_no_false_negatives(keys):
    bf = BloomFilter(capacity=1024)
    arr = np.array(keys or [0], dtype=np.uint64)
    bf.add(arr)
    assert bf.contains(arr).all()


_keys = st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=60)


@pytest.mark.usefixtures("ray_session")
@given(lk=_keys, rk=_keys, outer=st.booleans())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_hash_join_equals_pandas_merge(lk, rk, outer):
    import ray.data as rd

    from gotenberg_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"k": lk, "v": range(len(lk))})
    right = pd.DataFrame({"k": rk, "w": [x * 3 for x in range(len(rk))]})
    how = "left" if outer else "inner"
    want = (
        left.merge(right, on="k", how=how)
        .sort_values(["k", "v", "w"], na_position="last")
        .reset_index(drop=True)
    )
    got = hash_join(
        rd.from_pandas(left) if len(left) else rd.from_items([{"k": 0, "v": 0}]).filter(lambda r: False),
        rd.from_pandas(right) if len(right) else rd.from_items([{"k": 0, "w": 0}]).filter(lambda r: False),
        on="k",
        num_partitions=4,
        join_type="left outer" if outer else "inner",
        left_schema=[("k", pa.int64()), ("v", pa.int64())],
        right_schema=[("k", pa.int64()), ("w", pa.int64())],
    ).to_pandas()
    if want.empty:
        assert got.empty  # (empty Ray results drop column labels)
        return
    got = got.sort_values(["k", "v", "w"], na_position="last").reset_index(drop=True)
    assert len(got) == len(want)
    for c in ("k", "v", "w"):
        gv = got[c].to_numpy(dtype=float)
        wv = want[c].to_numpy(dtype=float)
        assert ((gv == wv) | (np.isnan(gv) & np.isnan(wv))).all()


@given(st.permutations(list(range(40))))
@settings(max_examples=50, deadline=None)
def test_sampling_priority_permutation_invariant(perm):
    """The bottom-k survivor SET is a pure function of the ids, not of
    the order blocks present them in."""
    from gotenberg_ray.pipelines.sampling import _mix

    ids = np.array(perm, dtype=np.uint64)
    pri = _mix(ids)
    k = 10
    keep = set(ids[np.argpartition(pri, k)[:k]].tolist())
    ids2 = np.arange(40, dtype=np.uint64)
    keep2 = set(ids2[np.argpartition(_mix(ids2), k)[:k]].tolist())
    assert keep == keep2


@pytest.mark.usefixtures("ray_session")
@given(
    toks=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80),
    span=st.integers(min_value=1, max_value=40),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_ordered_prefix_sum_matches_cumsum(toks, span):
    """The distributed prefix sum equals numpy's exclusive cumsum in
    key order, for ANY range-bucket span (partitioning invariance of
    the shared kernel)."""
    import ray.data as rd

    from gotenberg_ray.pipelines.packing import ordered_prefix_sum

    ds = rd.from_items([{"k": i, "v": v} for i, v in enumerate(toks)])
    got = (
        ordered_prefix_sum(ds, "k", "v", span=span, num_partitions=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expect = np.cumsum([0] + toks[:-1])
    assert (got["start"].to_numpy() == expect).all()
    assert (got["v"].to_numpy() == np.array(toks)).all()


def test_segment_ranks_matches_reference():
    from gotenberg_ray.functions.segments import segment_ranks

    keys = np.array([1, 1, 1, 4, 4, 9, 9, 9, 9, 12])
    assert list(segment_ranks(keys)) == [1, 2, 3, 1, 2, 1, 2, 3, 4, 1]
    assert list(segment_ranks(np.array([], dtype=np.int64))) == []


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 10_000)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 2_000),
)
@settings(max_examples=60, deadline=None)
def test_coverage_kernel_equals_bruteforce(pairs, dur):
    """The vectorized interval-union kernel (disjoint-shift running
    max) equals the O(n·m) brute-force union for ANY interval set."""
    from gotenberg_ray.pipelines.windows import _COV_TS0, coverage_kernel

    uid = np.array([u for u, _ in pairs], np.int64)
    s = _COV_TS0 + np.array([x for _, x in pairs], np.int64)
    users, active, counts = coverage_kernel(uid, s, np.int64(dur))
    assert list(users) == sorted(set(uid.tolist()))
    for u, a, c in zip(users, active, counts):
        ss = np.sort(s[uid == u])
        covered = 0
        cur_end = None
        for x in ss:
            lo, hi = int(x), int(x) + dur
            if cur_end is None or lo >= cur_end:
                covered += hi - lo
                cur_end = hi
            else:
                covered += max(0, hi - cur_end)
                cur_end = max(cur_end, hi)
        assert a == covered
        assert c == (uid == u).sum()


# ---------------------------------------------------------------- Sum128


@given(
    st.lists(
        # adversarial magnitudes: per-row values near the int64 edge in
        # both signs, plus carry-boundary values
        st.integers(min_value=-(2**62), max_value=2**62),
        min_size=0,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=7),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sum128_exact_under_any_block_layout(vals, n_chunks):
    """The limb fold must equal the exact Python-int sum regardless of
    how rows are split into blocks (renormalize → fold associativity),
    including negative values (floor-split) and carry boundaries."""
    from gotenberg_ray.functions import limbs as L

    vals = vals + [0, 1, L.CARRY - 1, L.CARRY, -L.CARRY, -1]
    arr = np.array(vals, dtype=np.int64)
    chunks = np.array_split(arr, n_chunks)
    hi_total, lo_total = 0, 0
    for ch in chunks:  # per-batch partial: split, sum, renormalize
        hi, lo = L.split_limbs(ch)
        h, lo_s = int(hi.sum()), int(lo.sum())
        hi_total += h + lo_s // L.CARRY
        lo_total += lo_s % L.CARRY
    # global fold (Ray Sum over the partials), then driver recombine
    assert hi_total * L.CARRY + lo_total == sum(int(v) for v in vals)


def test_sum128_table_roundtrip():
    from gotenberg_ray.functions import limbs as L

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b", "b", "b"]),
            "v": pa.array(
                [2**62, 2**62, -(2**62), 7, -(2**62)], pa.int64()
            ),
        }
    )
    t2 = L.limbify(t, ["v"])
    g = t2.group_by("k").aggregate(L.limb_sums(["v"]))
    g = L.renorm_limbs(g, ["v"])
    df = g.to_pandas().rename(
        columns={"v_hi_sum": "v_hi", "v_lo_sum": "v_lo"}
    )
    out = L.recombine_limbs(df, ["v"], dtype="object")
    got = dict(zip(out["k"], out["v"]))
    assert got["a"] == 2**63  # exceeds int64 — exact as Python int
    assert got["b"] == -(2**63) + 7


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # hop-1 key
            st.integers(min_value=0, max_value=1),  # hop-2 key
            st.integers(min_value=-(2**61), max_value=2**61),
        ),
        min_size=1,
        max_size=120,
    ),
    st.integers(min_value=1, max_value=5),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sum128_multihop_chain_exact(rows, n_chunks):
    """The q9/q22 wiring: limbs survive MULTIPLE re-group hops (fold by
    a fine key, renormalize, re-fold by a coarser key, renormalize,
    recombine) and still equal the exact Python-int sums — the chain
    shape of q9's order → order×nation → nation×year profit folds."""
    from gotenberg_ray.functions import limbs as L

    t = pa.table(
        {
            "k1": pa.array([r[0] for r in rows], pa.int64()),
            "k2": pa.array([r[1] for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    # per-batch hop: limbify + fold by (k1, k2) + renorm, per chunk
    parts = []
    idx = np.array_split(np.arange(t.num_rows), n_chunks)
    for ix in idx:
        if len(ix) == 0:
            continue
        c = t.take(pa.array(ix))
        g = L.limbify(c, ["v"]).group_by(["k1", "k2"]).aggregate(L.limb_sums(["v"]))
        g = L.renorm_limbs(g, ["v"])
        parts.append(
            g.rename_columns(
                [n.replace("_sum", "") for n in g.column_names]
            )
        )
    mid = pa.concat_tables(parts)
    # second hop: coarser re-fold by k2 only (the nation×year analogue)
    g2 = mid.group_by("k2").aggregate(
        [("v_hi", "sum"), ("v_lo", "sum")]
    )
    g2 = L.renorm_limbs(g2, ["v"])
    df = g2.to_pandas().rename(columns={"v_hi_sum": "v_hi", "v_lo_sum": "v_lo"})
    out = L.recombine_limbs(df, ["v"], dtype="object")
    got = dict(zip(out["k2"], out["v"]))
    exact: dict[int, int] = {}
    for k1, k2, v in rows:
        exact[k2] = exact.get(k2, 0) + v
    assert got == exact


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=40),
        max_size=25,
    )
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_segment_unique_matches_per_segment_np_unique(segments):
    """The one-lexsort segment-dedup that replaced _gram_sets' per-doc
    np.unique loop must produce IDENTICAL per-segment sorted sets —
    including empty segments and duplicate-heavy ones."""
    from gotenberg_ray.pipelines.textops import segment_unique

    vals = np.array(
        [v for seg in segments for v in seg], dtype=np.uint64
    )
    offs = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in segments], out=offs[1:])
    got_v, got_o = segment_unique(vals, offs)
    exp_parts = [np.unique(np.array(s, dtype=np.uint64)) for s in segments]
    exp_v = (
        np.concatenate(exp_parts) if exp_parts else np.empty(0, np.uint64)
    )
    exp_o = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in exp_parts], out=exp_o[1:])
    assert np.array_equal(got_v, exp_v)
    assert np.array_equal(got_o, exp_o)


@given(
    st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2**62),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_q22_threshold_rewrite_equals_cross_multiplication(bals, extra):
    """bal·cnt > tot ⟺ bal ≥ tot//cnt + 1 — the overflow-free form
    q22 ships to workers must select exactly the rows the SQL twin's
    literal cross-multiplication selects, at any magnitude."""
    tot = sum(bals) + extra  # tot need not equal sum(bals)
    cnt = len(bals)
    thr = tot // cnt + 1
    for b in bals:
        assert (b >= thr) == (b * cnt > tot)


@given(
    st.lists(
        st.integers(min_value=-(1 << 56), max_value=1 << 56),
        min_size=0,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_bincount_i64_exact_at_adversarial_magnitudes(vals, nbuckets):
    """bincount_i64 must equal exact Python integer grouped sums even
    where float64 bincount loses low-order bits (round-4 review: the
    'exact int64 partials' contract previously rode an unasserted
    2**53 assumption)."""
    from gotenberg_ray.functions.segments import bincount_i64

    w = np.array(vals, dtype=np.int64)
    idx = (np.arange(len(w)) % nbuckets).astype(np.int64)
    got = bincount_i64(idx, w, minlength=nbuckets)
    exp = [0] * nbuckets
    for i, v in zip(idx, vals):
        exp[int(i)] += int(v)
    # per-group sums here always fit int64 (|v| ≤ 2**56, ≤200 rows)
    assert got.tolist() == exp
