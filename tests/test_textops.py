"""Dedup-family operators: exactness vs the O(N²) brute force on a
small synthetic corpus (the distributed plans must lose no pair)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gotenberg_ray.functions import textkit as T
from gotenberg_ray.pipelines import embedops as E
from gotenberg_ray.pipelines import textops as X


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """60 docs: 40 random, 10 near-dup pairs (word edits), a couple of
    exact dups and two empty docs."""
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(120)]
    texts, ids = [], []
    for i in range(40):
        texts.append(" ".join(rng.choice(vocab, size=30)))
        ids.append(i)
    for i in range(10):  # near-dup of doc i: mutate ONE word (J≈0.8 —
        # high enough that 16×4 LSH banding detects with p≈0.9998)
        toks = texts[i].split()
        toks[int(rng.integers(len(toks)))] = "mut" + str(i)
        texts.append(" ".join(toks))
        ids.append(100 + i)
    texts += [texts[0], "", ""]
    ids += [200, 201, 202]
    d = tmp_path_factory.mktemp("corpus")
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * len(ids)),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        f"{d}/documents.parquet",
    )
    return str(d)


def brute_pairs(sf_dir, threshold):
    pdf = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas().sort_values("doc_id")
    ids = pdf["doc_id"].to_numpy()
    grams = [T.word_ngrams(t, 3) for t in pdf["text"]]
    rows = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            jac = T.jaccard(grams[i], grams[j])
            if jac >= threshold:
                rows.append((int(ids[i]), int(ids[j]), round(jac, 4)))
    return (
        pd.DataFrame(rows, columns=["a_id", "b_id", "jaccard"])
        .sort_values(["a_id", "b_id"])
        .reset_index(drop=True)
    )


def test_ngram_jaccard_is_exact(ray_session, corpus_dir):
    # prefix filtering must find EVERY pair ≥ t, including the empty-doc
    # pair (J(∅,∅)=1) and exact dups
    got = X.dedup_ngram_jaccard(corpus_dir, threshold=0.3)
    exp = brute_pairs(corpus_dir, 0.3)
    pd.testing.assert_frame_equal(got, exp)
    assert ((got["a_id"] == 201) & (got["b_id"] == 202)).any()  # empty pair
    assert ((got["a_id"] == 0) & (got["b_id"] == 200)).any()  # exact dup


def test_ngram_jaccard_sql_twin_matches_brute_force(corpus_dir):
    # the DuckDB oracle (string grams) must equal the engine's
    # definition (fnv64-hashed grams) — same tokenization, same
    # short-doc and empty-doc conventions, same rounding
    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{corpus_dir}/documents.parquet')"
    )
    got = con.execute(X.NGRAM_JACCARD_SQL).df()
    exp = brute_pairs(corpus_dir, 0.3)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_contamination_check_finds_planted_leak(ray_session, tmp_path):
    # doc 0 and 40 are "eval" (id % 20 == 0); plant doc 0's opening
    # passage inside train doc 7, leave everything else disjoint
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, size=40, replace=False)) for _ in range(12)]
    ids = [0, 40, 7] + list(range(101, 110))
    leak = " ".join(texts[0].split()[:12])  # 12 tokens → 8 shared 5-grams
    texts[2] = texts[2] + " " + leak
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * len(ids)),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        f"{tmp_path}/documents.parquet",
    )
    got = X.contamination_check(str(tmp_path))
    assert list(got.itertuples(index=False)) == [(0, 7, 8)]

    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    sql = con.execute(X.CONTAMINATION_SQL).df()
    pd.testing.assert_frame_equal(
        got.astype("int64"), sql.astype("int64"), check_dtype=False
    )


def test_curation_pipeline_matches_composed_sql(ray_session, corpus_dir):
    # the 63-doc corpus has exact dups (doc 200 = doc 0), near-dup
    # chains and two empty docs — all four gates fire
    got = X.curation_pipeline(corpus_dir)
    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{corpus_dir}/documents.parquet')"
    )
    exp = con.execute(X.CURATION_SQL).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        exp.astype({"n_docs": "int64"}),
        check_dtype=False,
    )
    # empties fail the quality gate; dup copies and near-dup non-reps
    # are dropped, so strictly fewer than the 63 inputs survive
    assert 0 < got["n_docs"].sum() < 63


def test_vocab_top_df_matches_sql(ray_session, corpus_dir):
    got = X.vocab_top_df(corpus_dir)
    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{corpus_dir}/documents.parquet')"
    )
    exp = con.execute(X.VOCAB_DF_SQL).df()
    pd.testing.assert_frame_equal(got, exp.astype({"n_docs": "int64"}), check_dtype=False)
    # a term counts once per doc: no n_docs may exceed the corpus size
    assert got["n_docs"].max() <= 63


def test_normalize_text_matches_sql(ray_session, tmp_path):
    texts = ["  Hello\t\tWORLD \n", "", "MiXeD   case", "a\r\nb\fc", "   "]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * 5),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        f"{tmp_path}/documents.parquet",
    )
    got = X.normalize_text(str(tmp_path))
    assert got["text_norm"].tolist() == ["hello world", "", "mixed case", "a b c", ""]
    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    exp = con.execute(X.NORMALIZE_SQL).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_minhash_verification_is_distributed_and_correct(ray_session, corpus_dir):
    got = X.dedup_minhash(corpus_dir, jaccard_threshold=0.5)
    exp = brute_pairs(corpus_dir, 0.5)
    # minhash banding is probabilistic for borderline pairs, but at
    # J≥0.5 with 16 bands × 4 rows collision probability is ≈1; the
    # constructed dups here are ≥0.7 so the candidate set must cover
    # them all, and verification must prune everything below threshold
    pd.testing.assert_frame_equal(got, exp)


def test_embedding_dup_pairs_tiled_exact(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    n, dim = 100, 16
    m = rng.standard_normal((n, dim))
    m[50] = m[10] + 0.01 * rng.standard_normal(dim)  # a planted near-dup
    pq.write_table(
        pa.table({"vec_id": pa.array(range(n), pa.int64()),
                  "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
                  "label": pa.array(["x"] * n)}),
        f"{tmp_path}/embeddings.parquet",
    )
    got = E.embedding_dup_pairs(
        str(tmp_path), threshold=0.9, num_blocks=4, method="exact"
    )
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn.T
    a, b = np.nonzero(np.triu(sims > 0.9, k=1))
    exp = pd.DataFrame({"a_id": a.astype("int64"), "b_id": b.astype("int64")})
    exp = exp.sort_values(["a_id", "b_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    assert ((got["a_id"] == 10) & (got["b_id"] == 50)).any()
    # the sub-quadratic default path (auto→LSH at 0.9) must find the
    # same pairs: candidates from 57 seeded hyperplane tables, then
    # exact cosine verification
    lsh = E.embedding_dup_pairs(str(tmp_path), threshold=0.9)
    pd.testing.assert_frame_equal(lsh, exp)


def test_lsh_join_plan_picks_the_sound_path():
    # production near-dup thresholds admit a cheap full-recall plan
    hi = E.lsh_join_plan(0.9)
    assert hi["feasible"] and hi["work_ratio"] < 0.05 and hi["tables"] <= 64
    mid = E.lsh_join_plan(0.75)
    assert mid["feasible"] and mid["work_ratio"] < 0.5
    # at the corpus default 0.46 (0.001 above the measured noise
    # floor) NO pruning plan beats brute force — auto must go exact
    lo = E.lsh_join_plan(E.DUP_THRESHOLD)
    assert not lo["feasible"]
    assert not E.lsh_join_plan(0.0)["feasible"]


class TestDuplicateSpanStats:
    def test_matches_duckdb(self, ray_session, sf_dir):
        import duckdb

        from gotenberg_ray.pipelines.textops import DUP_SPANS_SQL, duplicate_span_stats

        got = duplicate_span_stats(sf_dir)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS FROM '{sf_dir}/documents.parquet'")
        want = con.sql(DUP_SPANS_SQL).df()
        for c in ("doc_id", "n_shingles", "n_dup", "dup_frac_e4"):
            want[c] = want[c].astype("int64")
        pd.testing.assert_frame_equal(got, want.reset_index(drop=True))

    def test_planted_duplicates(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from gotenberg_ray.pipelines.textops import duplicate_span_stats

        shared = "the quick brown fox jumps over the lazy dog again and again"
        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "prefix one " + shared,
                        "prefix two " + shared,
                        "zq xv jk wp bn md ch lt rs gf yh ui eo az",  # unique
                    ]
                ),
            }
        )
        pq.write_table(docs, tmp_path / "documents.parquet")
        got = duplicate_span_stats(str(tmp_path))
        by_id = got.set_index("doc_id")
        # docs 1 and 2 share a 60-char span -> many duplicated windows
        assert by_id.loc[1, "n_dup"] >= len(shared) - 20
        assert by_id.loc[2, "n_dup"] >= len(shared) - 20
        assert by_id.loc[3, "n_dup"] == 0
        # rerun is bit-identical (layout-independent integer math)
        again = duplicate_span_stats(str(tmp_path))
        pd.testing.assert_frame_equal(got, again)


@pytest.mark.usefixtures("ray_session")
class TestDedupCanonical:
    def test_matches_sql_twin(self, sf_dir):
        import duckdb

        from gotenberg_ray.pipelines import textops as T

        got = T.dedup_canonical(sf_dir)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS FROM '{sf_dir}/documents.parquet'")
        want = con.sql(T.CANONICAL_SQL).df()
        for c in want.columns:
            want[c] = want[c].astype("int64")
        pd.testing.assert_frame_equal(got, want)

    def test_canonical_is_longest_member(self, sf_dir):
        from gotenberg_ray.pipelines import textops as T

        clusters = T.dedup_clusters(sf_dir)
        docs = pd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        got = T.dedup_canonical(sf_dir)
        merged = clusters.merge(docs, on="doc_id")
        for _, row in got.iterrows():
            members = merged[merged["cluster_rep"] == row["cluster_rep"]]
            assert row["n_members"] == len(members)
            best = members.sort_values(
                ["n_chars", "doc_id"], ascending=[False, True]
            ).iloc[0]
            assert row["canonical_id"] == best["doc_id"]


# ------------------------------ n-gram max-containment (subset/quote)


def brute_containment(sf_dir, threshold):
    pdf = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas().sort_values("doc_id")
    ids = pdf["doc_id"].to_numpy()
    grams = [T.word_ngrams(t, 3) for t in pdf["text"]]
    rows = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not grams[i] or not grams[j]:
                continue  # C undefined at min=0 — excluded by contract
            c = len(grams[i] & grams[j]) / min(len(grams[i]), len(grams[j]))
            if c >= threshold:
                rows.append((int(ids[i]), int(ids[j]), round(c, 4)))
    return (
        pd.DataFrame(rows, columns=["a_id", "b_id", "containment"])
        .sort_values(["a_id", "b_id"])
        .reset_index(drop=True)
    )


def test_ngram_containment_is_exact(ray_session, corpus_dir):
    got = X.dedup_ngram_containment(corpus_dir, threshold=0.6)
    exp = brute_containment(corpus_dir, 0.6)
    pd.testing.assert_frame_equal(got, exp)
    # empty docs never pair (min size 0 → excluded)
    assert not ((got["a_id"] == 201) | (got["b_id"] == 202)).any()


def test_ngram_containment_catches_subset_jaccard_misses(ray_session, tmp_path):
    # a short doc quoted verbatim inside a much longer one: C = 1.0
    # while J ≈ |short|/|long| ≪ threshold
    short = " ".join(f"q{i}" for i in range(8))
    long = short + " " + " ".join(f"z{i}" for i in range(200))
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([short, long], pa.string()),
                "lang": pa.array(["en", "en"]),
                "n_chars": pa.array([len(short), len(long)], pa.int64()),
            }
        ),
        f"{d}/documents.parquet",
    )
    cont = X.dedup_ngram_containment(str(d), threshold=0.9)
    assert len(cont) == 1 and cont.loc[0, "containment"] == 1.0
    jac = X.dedup_ngram_jaccard(str(d), threshold=0.3)
    assert len(jac) == 0  # Jaccard is blind to the quote


def test_ngram_containment_sql_twin_matches_brute_force(corpus_dir):
    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{corpus_dir}/documents.parquet')"
    )
    got = con.execute(X.NGRAM_CONTAINMENT_SQL).df()
    exp = brute_containment(corpus_dir, 0.6)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestSubstringCut:
    def test_planted_cut(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from gotenberg_ray.pipelines.textops import dedup_substring_cut

        shared = "the quick brown fox jumps over the lazy dog again and again"
        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "prefix one " + shared,
                        "prefix two " + shared,
                        "zq xv jk wp bn md ch lt rs gf yh ui eo az",  # unique
                    ]
                ),
            }
        )
        d = tmp_path / "planted"
        d.mkdir()
        pq.write_table(docs, d / "documents.parquet")
        out = dedup_substring_cut(str(d)).set_index("doc_id")
        # the shared suffix is cut from both carriers; doc 3 untouched
        assert out.loc[1, "n_kept"] < out.loc[1, "n_chars"]
        assert out.loc[2, "n_kept"] < out.loc[2, "n_chars"]
        assert out.loc[3, "n_kept"] == out.loc[3, "n_chars"]
        assert out.loc[1, "cut_frac_e4"] > 5_000  # most of doc 1 is the shared span


def test_batch_window_kernel_matches_per_doc_loop():
    """The vectorized concat-stream shingle kernel must be
    bit-identical to hashing each document separately (the old per-doc
    loop), including boundary-straddle masking, unicode widths, short
    docs, empties, and SLICED input arrays (nonzero array offset)."""
    rng = np.random.default_rng(7)
    window = 20
    texts = [
        "",  # empty
        "short",  # < window
        "x" * 19,  # exactly window-1
        "y" * 20,  # exactly one window
        "abcdefghij" * 7,  # internal repeats
        "héllo wörld ünïcode £€𝄞 " * 4,  # multibyte codepoints
        "".join(rng.choice(list("abcdef "), size=200)),
        "".join(rng.choice(list("abcdef "), size=200)),  # shares grams
    ]
    ids = list(range(len(texts)))
    batch = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )
    whash = X._char_window_hasher(window)

    def reference(tbl: pa.Table) -> pd.DataFrame:
        rows = []
        did = tbl["doc_id"].to_numpy(zero_copy_only=False)
        for i, t in enumerate(tbl["text"].to_pylist()):
            u = np.frombuffer((t or "").encode("utf-32-le"), dtype=np.uint32)
            if len(u) < window:
                continue
            for h in np.unique(whash(u)):
                rows.append((int(h), int(did[i])))
        return pd.DataFrame(rows, columns=["h", "doc_id"])

    fn = X._window_pair_fn(window)
    for tbl in (batch, batch.slice(2), batch.slice(3, 4)):
        got = fn(tbl).to_pandas()[["h", "doc_id"]]
        want = reference(tbl)
        pd.testing.assert_frame_equal(
            got.sort_values(["doc_id", "h"]).reset_index(drop=True).astype({"h": "uint64"}),
            want.sort_values(["doc_id", "h"]).reset_index(drop=True).astype({"h": "uint64"}),
        )


def test_batch_window_kernel_sampling_is_hash_gate():
    """h_max keeps exactly the rows with h < h_max — same windows in
    every doc, a strict subset of the exact kernel's output."""
    rng = np.random.default_rng(11)
    texts = ["".join(rng.choice(list("abcdefgh "), size=300)) for _ in range(10)]
    batch = pa.table(
        {"doc_id": pa.array(range(10), pa.int64()), "text": pa.array(texts)}
    )
    h_max = np.uint64(((1 << 64) * 625) // 10_000)
    exact = X._window_pair_fn(20)(batch).to_pandas()
    samp = X._window_pair_fn(20, h_max)(batch).to_pandas()
    want = exact[exact["h"] < h_max].reset_index(drop=True)
    pd.testing.assert_frame_equal(samp.reset_index(drop=True), want)


class TestSubstringSampled:
    def test_degenerate_rate_equals_exact(self, ray_session, sf_dir):
        X.clear_pair_cache()
        exact = X.dedup_substring_cut(sf_dir)
        degen = X.dedup_substring_sampled(sf_dir, rate_e4=10_000)
        pd.testing.assert_frame_equal(degen, exact)

    def test_sampled_coverage_is_subset_with_bounded_rate(
        self, ray_session, sf_dir
    ):
        X.clear_pair_cache()
        exact = X.dedup_substring_cut(sf_dir)
        samp = X.dedup_substring_sampled(sf_dir)  # rate 625/1e4
        m = exact.merge(samp, on="doc_id", suffixes=("_e", "_s"))
        assert len(m) == len(exact) == len(samp)
        assert (m["n_chars_e"] == m["n_chars_s"]).all()
        # sampled duplicated-window set ⊆ exact ⇒ coverage subset
        assert (m["n_kept_s"] >= m["n_kept_e"]).all()
        # observed sampled-window fraction within 3σ of the 625/1e4
        # target (binomial over ~1e5 windows at sf0.001)
        dl_e = X._dup_window_lists(sf_dir, 20).to_pandas()
        h_max = np.uint64(((1 << 64) * 625) // 10_000)
        dl_s = X._dup_window_lists(sf_dir, 20, h_max=h_max).to_pandas()
        n_e = int(dl_e["n_shingles"].sum())
        n_s = int(dl_s["n_shingles"].sum())
        p = 625 / 10_000
        sigma = (n_e * p * (1 - p)) ** 0.5
        assert abs(n_s - n_e * p) < 5 * sigma

    def test_dup_window_memo_warm_equals_cold_and_clears(
        self, ray_session, sf_dir
    ):
        X.clear_pair_cache()
        cold = X.dedup_substring_cut(sf_dir)
        assert len(X._DUPWIN_CACHE) == 1  # discovery chain memoized
        warm = X.dedup_substring_cut(sf_dir)  # must reuse, same values
        pd.testing.assert_frame_equal(warm, cold)
        stats = X.duplicate_span_stats(sf_dir)  # same memo serves stats
        assert len(X._DUPWIN_CACHE) == 1
        m = cold.merge(stats, on="doc_id", how="left")
        # consistency: a doc with zero duplicated windows loses nothing
        no_dup = m["n_dup"].fillna(0) == 0
        assert (m.loc[no_dup, "n_kept"] == m.loc[no_dup, "n_chars"]).all()
        X.clear_pair_cache()
        assert len(X._DUPWIN_CACHE) == 0
