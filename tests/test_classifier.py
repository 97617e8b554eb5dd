"""Pin tests for the distributed quality classifier.

The core pin: an EXACT single-machine reimplementation of the whole
procedure (featurize → quantized IRLS → histogram metrics) built from
the documented spec with the SCALAR hash helpers — the distributed
path must match it bit-for-bit, which holds because every cross-task
fold is integer addition and every per-row float depends only on the
row and the broadcast weights (the ascending-j eta contract)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
import pytest

from gotenberg_ray.functions.hashing import fnv64_one, splitmix64
from gotenberg_ray.pipelines import classifier as C


def _reference_metrics(docs: pd.DataFrame) -> pd.DataFrame:
    """Independent single-machine reimplementation from the spec."""
    n = len(docs)
    X = np.zeros((n, C.D), dtype=np.int64)
    X[:, 0] = 1
    for i, t in enumerate(docs["text"].fillna("")):
        toks = t.split()
        hs = [fnv64_one(w) for w in toks]
        for h in hs:
            X[i, 1 + h % C.U_BUCKETS] += 1
        for a, b in zip(hs, hs[1:]):
            bh = splitmix64(a ^ splitmix64(b))
            X[i, 1 + C.U_BUCKETS + bh % C.B_BUCKETS] += 1
    X[:, 1:] = np.minimum(X[:, 1:], C.COUNT_CAP)
    y = (docs["lang"] == C.TARGET_LANG).to_numpy().astype(np.float64)

    def eta_of(w):
        e = np.zeros(n, dtype=np.float64)
        for j in range(C.D):
            e += w[j] * X[:, j]
        return e

    def sigmoid(e):
        out = np.empty_like(e)
        pos = e >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-e[pos]))
        ex = np.exp(e[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    w = np.zeros(C.D, dtype=np.float64)
    for _ in range(C.ITERS):
        mu = sigmoid(eta_of(w))
        s = np.round(mu * (1.0 - mu) * C.SCALE).astype(np.int64)
        g = np.round((y - mu) * C.SCALE).astype(np.int64)
        H = (X * s[:, None]).T @ X  # int64-exact
        gv = X.T @ g
        w = w + np.linalg.solve(
            H.astype(np.float64) / C.SCALE + C.RIDGE * np.eye(C.D),
            gv.astype(np.float64) / C.SCALE - C.RIDGE * w,
        )

    score = np.round(sigmoid(eta_of(w)) * 10_000).astype(np.int64)
    yi = y.astype(np.int64)
    hist = np.bincount(score * 2 + yi, minlength=20_002).astype(np.int64)
    P, N = int(yi.sum()), int((1 - yi).sum())
    pos_h, neg_h = hist[1::2], hist[0::2]
    before, rank_sum = 0, Fraction(0)
    for v in range(10_001):
        c = int(pos_h[v] + neg_h[v])
        if c:
            rank_sum += Fraction(2 * before + c + 1, 2) * int(pos_h[v])
            before += c
    auc = (
        int((rank_sum - Fraction(P * (P + 1), 2)) * 1_000_000 // (P * N))
        if P and N
        else -1
    )
    correct = int(pos_h[5000:].sum() + neg_h[:5000].sum())
    rows = [
        ("acc_bp", correct * 10_000 // n),
        ("auc_e6", auc),
        ("n_docs", n),
        ("n_pos", P),
    ]
    for lang in sorted(docs["lang"].unique()):
        m = (docs["lang"] == lang).to_numpy()
        rows.append((f"mean_score_bp:{lang}", int(score[m].sum()) // int(m.sum())))
    return pd.DataFrame(rows, columns=["metric", "value"]).astype(
        {"metric": "object", "value": "int64"}
    )


@pytest.mark.usefixtures("ray_session")
def test_quality_classifier_matches_reference_exactly(sf_dir):
    got = C.quality_classifier(sf_dir)
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "lang"])
    want = _reference_metrics(docs)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_quality_classifier_separates_target(sf_dir):
    got = C.quality_classifier(sf_dir).set_index("metric")["value"]
    assert got["auc_e6"] >= 600_000  # clearly better than chance
    means = {k.split(":", 1)[1]: v for k, v in got.items() if k.startswith("mean_score_bp:")}
    assert means["en"] == max(means.values())  # target slice scores highest
    assert got["acc_bp"] > 5_000


@pytest.mark.usefixtures("ray_session")
def test_quality_classifier_layout_invariance(sf_dir, tmp_path):
    """Bit-identical metrics when the corpus arrives in many tiny
    row-groups (different block layout → different batch composition
    → same integer partial sums)."""
    import pyarrow.parquet as pq

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet")
    d = tmp_path / "relayout"
    d.mkdir()
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(docs), d / "documents.parquet", row_group_size=37)
    a = C.quality_classifier(sf_dir)
    b = C.quality_classifier(str(d))
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_quality_classifier_empty_corpus(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "empty"
    d.mkdir()
    pq.write_table(
        pa.table({"text": pa.array([], pa.string()), "lang": pa.array([], pa.string()),
                  "doc_id": pa.array([], pa.int64()), "source": pa.array([], pa.string()),
                  "n_chars": pa.array([], pa.int64())}),
        d / "documents.parquet",
    )
    out = C.quality_classifier(str(d)).set_index("metric")["value"]
    assert out["n_docs"] == 0 and out["auc_e6"] == -1


@pytest.mark.usefixtures("ray_session")
def test_classifier_gate_filters_by_score(sf_dir):
    """Gate == score + driver filter; schema preserved; threshold 0
    keeps everything."""
    from gotenberg_ray.io import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    w = C.train_weights(C._features_ds(sf_dir))

    scored = C.score_texts(read_table(sf_dir, "documents", ["doc_id", "text", "lang"]), w).to_pandas()
    for thresh in (0, 3000, 10_001):
        got = C.classifier_gate(ds, weights=w, min_score_bp=thresh).to_pandas()
        want = scored[scored["score_bp"] >= thresh].drop(columns=["score_bp"])
        if len(want) == 0:
            # Ray's empty to_pandas() loses column labels — length is
            # the contract here (an all-filtered gate is legitimate)
            assert len(got) == 0
            continue
        assert sorted(got.columns) == sorted(want.columns)
        pd.testing.assert_frame_equal(
            got.sort_values("doc_id").reset_index(drop=True),
            want.sort_values("doc_id").reset_index(drop=True),
        )
    assert len(C.classifier_gate(ds, weights=w, min_score_bp=0).to_pandas()) == 500


@pytest.mark.usefixtures("ray_session")
def test_classifier_gate_from_registry(sf_dir):
    """The registry-compiled stage equals the direct call (extension
    surface proven on the model-based curation stage)."""
    from gotenberg_ray import registry
    from gotenberg_ray.io import read_table

    registry.register_builtins()
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    compiled = registry.compile_pipeline(
        [("classifier_gate", {"sf_dir": sf_dir, "min_score_bp": 3000})], source_ds=ds
    ).to_pandas()
    direct = C.classifier_gate(ds, sf_dir=sf_dir, min_score_bp=3000).to_pandas()
    pd.testing.assert_frame_equal(
        compiled.sort_values("doc_id").reset_index(drop=True),
        direct.sort_values("doc_id").reset_index(drop=True),
    )
    assert 0 < len(direct) < 500  # the gate actually separates


@pytest.mark.usefixtures("ray_session")
def test_training_stage_list_with_classifier_gate(tmp_path):
    """The composition accepts the model gate: threshold 0 reproduces
    the ungated manifest; a real threshold packs ≤ as many tokens."""
    from gotenberg_ray import registry
    from test_registry import training_stages

    sf = "/root/testdata/sf0.001"
    registry.register_builtins()
    base = registry.compile_pipeline(
        training_stages(sf, str(tmp_path / "a"))
    ).to_pandas()
    gated0 = registry.compile_pipeline(
        training_stages(sf, str(tmp_path / "b"), classifier_min_bp=0)
    ).to_pandas()
    cols = ["keep_key", "n_tokens", "pack_id"]
    pd.testing.assert_frame_equal(
        base[cols].sort_values(cols).reset_index(drop=True),
        gated0[cols].sort_values(cols).reset_index(drop=True),
    )
    gated = registry.compile_pipeline(
        training_stages(sf, str(tmp_path / "c"), classifier_min_bp=4000)
    ).to_pandas()
    assert gated["n_tokens"].sum() <= base["n_tokens"].sum()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "N", "P", "Zs", "Cc"), max_codepoint=0x2FFF
            ),
            max_size=60,
        ),
        min_size=0,
        max_size=8,
    )
)
def test_featurize_batch_matches_scalar_spec(texts):
    """featurize_batch ≡ the scalar per-doc spec on adversarial
    unicode (exotic whitespace, control chars, empty rows) — the same
    tokenization-parity contract the simhash/shingle kernels carry."""
    import pyarrow as pa

    got = C.featurize_batch(pa.array(texts, pa.string()), len(texts))
    want = np.zeros((len(texts), C.D), dtype=np.int64)
    want[:, 0] = 1
    for i, t in enumerate(texts):
        hs = [fnv64_one(w) for w in (t or "").split()]
        for h in hs:
            want[i, 1 + h % C.U_BUCKETS] += 1
        for a, b in zip(hs, hs[1:]):
            want[i, 1 + C.U_BUCKETS + splitmix64(a ^ splitmix64(b)) % C.B_BUCKETS] += 1
    want[:, 1:] = np.minimum(want[:, 1:], C.COUNT_CAP)
    np.testing.assert_array_equal(got, want)
