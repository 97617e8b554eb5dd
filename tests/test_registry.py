"""Stage-protocol registry (SURVEY §2.10): descriptor semantics mirror
the reference module system
(/root/reference/pkg/gotenberg/modules.go:31-147 — unique IDs, panic on
duplicates/empty, sorted descriptor listing), re-expressed for Ray Data
stage compilation."""

import pyarrow as pa
import pytest
import ray.data as rd

from gotenberg_ray import registry
from gotenberg_ray.registry import StageSpec, apply_stage, compile_pipeline


@pytest.fixture(autouse=True)
def _fresh_registry(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.setattr(registry, "_BUILTINS_DONE", False)
    yield


# lambda (pickled by value) — a named test-module function would fail
# to import inside Ray workers, which don't see tests/ on sys.path
_double = lambda batch: batch.set_column(  # noqa: E731
    batch.schema.get_field_index("x"), "x", pa.compute.multiply(batch["x"], 2)
)


def training_stages(sf_dir, out_dir, classifier_min_bp=None):
    """The LLM training-data composition as a registry stage list: crawl
    → extract → gate → (model gate) → dedup → pack → shards, the plan
    ``train.training_data_pipeline`` runs."""
    gate = (
        [("classifier_gate", {"sf_dir": sf_dir, "min_score_bp": classifier_min_bp})]
        if classifier_min_bp is not None
        else []
    )
    return [
        ("crawl_convert", {"sf_dir": sf_dir}),
        "extract_text",
        ("quality_gate", {"min_tokens": 5}),
        *gate,
        "dedup_parts",
        ("pack_contexts", {"ctx": 256}),
        ("shard_sink", {"out_dir": out_dir}),
    ]


def test_registration_rules():
    spec = StageSpec(name="s1", kind="batch", fn=_double)
    registry.register(spec)
    with pytest.raises(ValueError, match="already registered"):
        registry.register(spec)
    with pytest.raises(ValueError, match="empty name"):
        registry.register(StageSpec(name="", kind="batch", fn=_double))
    with pytest.raises(ValueError, match="unknown kind"):
        registry.register(StageSpec(name="s2", kind="wide", fn=_double))
    with pytest.raises(KeyError, match="unknown stage"):
        registry.get("nope")
    registry.register(StageSpec(name="a0", kind="batch", fn=_double))
    assert sorted(registry._REGISTRY) == ["a0", "s1"]


def test_compile_chains_batch_and_dataset_stages(ray_session):
    registry.register(
        StageSpec(name="double", kind="batch", fn=_double, schema_in=("x",))
    )
    registry.register(
        StageSpec(
            name="top2",
            kind="dataset",
            fn=lambda ds, k=2: ds.sort("x", descending=True).limit(k),
        )
    )
    src = rd.from_arrow(pa.table({"x": [1, 2, 3, 4]}))
    out = compile_pipeline(["double", ("top2", {"k": 3})], source_ds=src)
    assert [r["x"] for r in out.take_all()] == [8, 6, 4]


def test_schema_validation_rejects_missing_columns(ray_session):
    registry.register(
        StageSpec(name="needs_y", kind="batch", fn=_double, schema_in=("y",))
    )
    src = rd.from_arrow(pa.table({"x": [1]}))
    with pytest.raises(ValueError, match="requires columns"):
        compile_pipeline(["needs_y"], source_ds=src)


def test_source_ordering_rules(ray_session):
    registry.register(
        StageSpec(
            name="src",
            kind="source",
            fn=lambda n=3: rd.from_arrow(pa.table({"x": list(range(n))})),
        )
    )
    registry.register(StageSpec(name="double", kind="batch", fn=_double))
    out = compile_pipeline([("src", {"n": 4}), "double"])
    assert [r["x"] for r in out.take_all()] == [0, 2, 4, 6]
    src_spec = registry.get("src")
    with pytest.raises(ValueError, match="must come first"):
        apply_stage(rd.from_arrow(pa.table({"x": [1]})), src_spec)
    with pytest.raises(ValueError, match="needs an upstream"):
        apply_stage(None, registry.get("double"))


def test_builtins_register_engine_stages(ray_session):
    registry.register_builtins()
    names = sorted(registry._REGISTRY)
    assert {
        "convert_chain",
        "crawl_convert",
        "media_features",
        "subresource_admission",
        "webhook_sink",
    } <= set(names)
    # idempotent (module graph built once)
    registry.register_builtins()
    assert len(registry._REGISTRY) == len(names)
    # an actor stage compiles with constructor config from the spec
    from gotenberg_ray.stages.media import synth_media_table

    ds = rd.from_arrow(synth_media_table(32, seed=1))
    out = compile_pipeline(["media_features"], source_ds=ds)
    assert out.count() == 32


def test_training_composition_from_registry_equals_direct(ray_session, tmp_path):
    """VERDICT r3 next #8: the LLM training-data path compiled FROM the
    registry must equal the direct train.training_data_pipeline run —
    same packed manifest, same shard files."""
    import pandas as pd

    from gotenberg_ray.pipelines import train as TR

    sf = "/root/testdata/sf0.001"
    registry.register_builtins()

    reg_out = str(tmp_path / "reg_shards")
    compiled = compile_pipeline(training_stages(sf, reg_out))
    # keep_key repeats (the crawl can fetch one part via several
    # URLs whose page texts differ) — sort by ALL columns so the
    # comparison is multiset equality
    cols = ["keep_key", "n_tokens", "pack_id"]
    manifest = (
        compiled.to_pandas()[cols]
        .sort_values(cols)
        .reset_index(drop=True)
    )

    direct_out = str(tmp_path / "direct_shards")
    summary = TR.training_data_pipeline(sf, out_dir=direct_out)

    # manifest-derived summary equals the direct pipeline's summary
    assert int(summary["n_unique_parts"][0]) == len(manifest)
    assert int(summary["total_tokens"][0]) == int(manifest["n_tokens"].sum())
    assert int(summary["n_packs"][0]) == int(manifest["pack_id"].max()) + 1

    # both sinks landed identical shard partitions
    import pyarrow.parquet as pq
    from pathlib import Path

    def load(d):
        files = sorted(p for p in Path(d).rglob("*.parquet"))
        assert files, f"no shards under {d}"
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return t.to_pandas()[cols].sort_values(cols).reset_index(drop=True)

    a, b = load(reg_out), load(direct_out)
    pd.testing.assert_frame_equal(a, b)
    # and the registry manifest IS the shard content
    pd.testing.assert_frame_equal(a, manifest)


def test_media_composition_from_registry_equals_direct(ray_session):
    """Registry-compiled media chain (media_from_spans → media_features
    → media_resize → frame_sample) ≡ the directly-built chain."""
    import ray.data as rd

    from gotenberg_ray import registry
    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.stages.media import (
        FrameSampler,
        MediaFeatureExtractor,
        MediaResizer,
        media_rows_from_spans,
        media_type_summary,
    )

    registry.register_builtins()
    docs = rd.from_arrow(make_documents(150, seed=42))
    compiled = media_type_summary(
        registry.compile_pipeline(
            ["media_from_spans", "media_features", "media_resize", "frame_sample"],
            source_ds=docs,
        )
    )
    direct = media_type_summary(
        media_rows_from_spans(rd.from_arrow(make_documents(150, seed=42)))
        .map_batches(
            MediaFeatureExtractor, batch_format="pyarrow", batch_size=128, concurrency=2
        )
        .map_batches(MediaResizer, batch_format="pyarrow", batch_size=128, concurrency=2)
        .map_batches(FrameSampler, batch_format="pyarrow", batch_size=128, concurrency=2)
    )
    assert compiled.equals(direct)


def test_interleaved_composition_from_registry_equals_direct(ray_session, tmp_path):
    """The interleaved text+media composition compiled FROM the
    registry equals the direct train.training_interleaved_pipeline —
    same dual-budget manifest mass, same distinct cells."""
    from gotenberg_ray.pipelines import train as TR

    sf = "/root/testdata/sf0.001"
    registry.register_builtins()

    reg_out = str(tmp_path / "reg_ishards")
    compiled = compile_pipeline(
        [
            ("crawl_convert_media", {"sf_dir": sf}),
            "extract_text_media",
            ("quality_gate", {"min_tokens": 5}),
            "dedup_parts_media",
            ("pack_interleaved_contexts", {"ctx_tokens": 256, "ctx_media": 8}),
            ("shard_sink", {"out_dir": reg_out, "key": "cell"}),
        ]
    )
    cols = ["keep_key", "n_tokens", "n_media", "pack_t", "pack_m", "cell"]
    manifest = (
        compiled.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    )

    direct_out = str(tmp_path / "direct_ishards")
    summary = TR.training_interleaved_pipeline(sf, out_dir=direct_out)
    assert int(summary["n_unique_parts"][0]) == len(manifest)
    assert int(summary["total_tokens"][0]) == int(manifest["n_tokens"].sum())
    assert int(summary["total_media"][0]) == int(manifest["n_media"].sum())
    assert int(summary["n_pack_cells"][0]) == manifest["cell"].nunique()
