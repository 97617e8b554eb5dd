import numpy as np
import pyarrow as pa

from gotenberg_ray.functions import hashing as H


def test_fnv64_matches_scalar_reference():
    strings = ["", "a", "hello", "http://example.com/", "日本語", "x" * 300]
    vec = H.fnv64(strings)
    for s, h in zip(strings, vec):
        assert int(h) == H.fnv64_one(s), s


def test_fnv64_known_vectors():
    # published FNV-1a 64 test vectors
    assert H.fnv64_one("") == 0xCBF29CE484222325
    assert H.fnv64_one("a") == 0xAF63DC4C8601EC8C
    assert H.fnv64_one("foobar") == 0x85944171F73967E8


def test_splitmix64_scalar_vs_vector():
    xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = H.splitmix64(xs)
    for x, v in zip(xs, vec):
        assert H.splitmix64(int(x)) == int(v)


def test_hash_family_independent_and_deterministic():
    vals = np.array([1, 2, 3], dtype=np.uint64)
    a = H.hash_family(vals, 4)
    b = H.hash_family(vals, 4)
    assert (a == b).all()
    assert len({tuple(a[:, i]) for i in range(4)}) == 4  # families differ


def test_minhash_similarity_estimates_jaccard():
    rng = np.random.RandomState(0)
    base = rng.randint(0, 2**63, 200).astype(np.uint64)
    half = np.concatenate([base[:100], rng.randint(0, 2**63, 100).astype(np.uint64)])
    # a MinHash signature is the column minima of a hash_family table
    # (the dedup pipelines' signature stage)
    s1 = H.hash_family(base, 128).min(axis=0)
    s2 = H.hash_family(half, 128).min(axis=0)
    est = (s1 == s2).mean()
    true_j = len(np.intersect1d(base, half)) / len(np.union1d(base, half))
    assert abs(est - true_j) < 0.15


def test_simhash_close_for_similar_sets():
    rng = np.random.RandomState(1)
    toks = rng.randint(0, 2**63, 100).astype(np.uint64)
    toks2 = toks.copy()
    toks2[:5] = rng.randint(0, 2**63, 5).astype(np.uint64)
    h1, h2 = H.simhash64(toks), H.simhash64(toks2)
    d = H.hamming64(np.array([h1], dtype=np.uint64), h2)[0]
    assert d < 20
    far = H.simhash64(rng.randint(0, 2**63, 100).astype(np.uint64))
    assert H.hamming64(np.array([h1], dtype=np.uint64), far)[0] > d


def test_simhash64_batch_matches_scalar_path():
    import pyarrow as pa

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        None,
        "  leading and trailing   whitespace  ",
        "one",
        "日本語 テキスト と spaces",
        "a b c d e f g h i j " * 40,  # long row exercises vote accumulation
        "\t\n  ",  # whitespace-only → zero tokens → sig 0
    ]
    batch = H.simhash64_batch(pa.array(texts, pa.string()))
    for t, got in zip(texts, batch):
        toks = (t or "").split()
        want = H.simhash64(H.fnv64(toks)) if toks else 0
        assert int(got) == want, t
    # chunk boundary path: force multiple internal slices
    many = pa.array(["w%d x y z" % i for i in range(500)], pa.string())
    import gotenberg_ray.functions.hashing as hm

    full = hm.simhash64_batch(many)
    for i in (0, 250, 499):
        toks = many[i].as_py().split()
        assert int(full[i]) == H.simhash64(H.fnv64(toks))


def test_hamming64_pairwise():
    a = np.array([0, 0xFFFFFFFFFFFFFFFF, 0b1010], dtype=np.uint64)
    b = np.array([0, 0, 0b0101], dtype=np.uint64)
    assert H.hamming64_pairwise(a, b).tolist() == [0, 64, 4]


def test_shingles():
    vals, offs = H.shingle_hashes_batch(pa.array(["a b c d", "a", ""]), n=2)
    assert np.diff(offs).tolist() == [3, 1, 0]
    assert vals.tolist() == H.fnv64(["a b", "b c", "c d", "a"]).tolist()
