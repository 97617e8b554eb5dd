"""Stage-protocol registry: the reference's module system re-expressed
for Ray Data pipelines.

The reference wires its engine from self-registering modules with a
uniform descriptor + optional capability interfaces
(/root/reference/pkg/gotenberg/modules.go:31-147: ``ModuleDescriptor``
with unique snake-case ID, ``MustRegisterModule`` panicking on
duplicate/empty IDs, ``Provisioner``/``Validator`` hooks, sorted
``GetModuleDescriptors``). Here a *stage* is the unit: a named,
schema-typed transform that a pipeline compiler chains into a
``ray.data.Dataset`` plan.

Three stage kinds (the Dataset-idiomatic capability split):

- ``source``  — ``fn(**config) -> Dataset`` (readers, the crawl);
- ``batch``   — per-batch Arrow transform; plain function or callable
  CLASS (stateful → actor pool via ``map_batches(cls, concurrency=…)``);
- ``dataset`` — ``fn(ds, **config) -> Dataset`` for wide ops the batch
  contract can't express (groupby/sort/join compositions).

``compile_pipeline`` validates schema compatibility at compile time
(a stage's ``schema_in`` names must be present in the incoming
schema — the Validator analogue) and returns the lazy Dataset; nothing
executes until the caller consumes it (streaming execution preserved).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

import pyarrow as pa

KINDS = ("source", "batch", "dataset")


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """ModuleDescriptor analogue (modules.go:36-48)."""

    name: str  # unique snake-case id
    kind: str  # "source" | "batch" | "dataset"
    fn: Callable | type  # function or callable class (stateful stage)
    schema_in: tuple[str, ...] = ()  # required input column names
    schema_out: pa.Schema | None = None  # declared output schema (doc + checks)
    config: dict = dataclasses.field(default_factory=dict)  # default kwargs
    # map_batches sizing for batch stages (None → Ray defaults)
    batch_size: int | None = None
    concurrency: int | None = None
    num_cpus: float | None = None
    description: str = ""

    def is_actor(self) -> bool:
        return isinstance(self.fn, type)


_REGISTRY: dict[str, StageSpec] = {}


def register(spec: StageSpec) -> StageSpec:
    """MustRegisterModule analogue (modules.go:83-121): empty names and
    duplicates are registration-time errors, not runtime surprises."""
    if not spec.name:
        raise ValueError("stage with an empty name cannot be registered")
    if spec.kind not in KINDS:
        raise ValueError(f"stage {spec.name!r}: unknown kind {spec.kind!r}")
    if not callable(spec.fn):
        raise ValueError(f"stage {spec.name!r}: fn must be callable")
    if spec.name in _REGISTRY:
        raise ValueError(f"stage {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> StageSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def _check_schema(spec: StageSpec, ds) -> None:
    """Compile-time column check (Validator analogue). Ray schemas may
    be unknown before execution; only verify when cheaply available."""
    if not spec.schema_in:
        return
    try:
        schema = ds.schema(fetch_if_missing=False)
    except Exception:
        schema = None
    if schema is None:
        return
    have = set(schema.names)
    missing = [c for c in spec.schema_in if c not in have]
    if missing:
        raise ValueError(
            f"stage {spec.name!r} requires columns {missing} absent from "
            f"upstream schema {sorted(have)}"
        )


def apply_stage(ds, spec: StageSpec, **overrides) -> Any:
    """Chain one stage onto ``ds`` (None for sources)."""
    cfg = {**spec.config, **overrides}
    if spec.kind == "source":
        if ds is not None:
            raise ValueError(f"source stage {spec.name!r} must come first")
        return spec.fn(**cfg)
    if ds is None:
        raise ValueError(f"stage {spec.name!r} ({spec.kind}) needs an upstream")
    if spec.kind == "dataset":
        return spec.fn(ds, **cfg)
    _check_schema(spec, ds)
    kw: dict[str, Any] = {"batch_format": "pyarrow"}
    if spec.batch_size is not None:
        kw["batch_size"] = spec.batch_size
    if spec.num_cpus is not None:
        kw["num_cpus"] = spec.num_cpus
    if spec.is_actor():
        kw["fn_constructor_kwargs"] = cfg
        kw["concurrency"] = spec.concurrency if spec.concurrency else 2
        return ds.map_batches(spec.fn, **kw)
    if spec.concurrency is not None:
        kw["concurrency"] = spec.concurrency
    if cfg:
        kw["fn_kwargs"] = cfg
    return ds.map_batches(spec.fn, **kw)


def compile_pipeline(
    stages: list[str | StageSpec | tuple[str, dict]],
    source_ds=None,
) -> Any:
    """Compile a stage list into a lazy Dataset.

    Entries are stage names, (name, overrides) pairs, or inline
    StageSpecs. ``source_ds`` seeds the chain when the first stage is
    not a source.
    """
    ds = source_ds
    for entry in stages:
        overrides: dict = {}
        if isinstance(entry, tuple):
            entry, overrides = entry
        spec = get(entry) if isinstance(entry, str) else entry
        ds = apply_stage(ds, spec, **overrides)
    return ds


# --------------------------------------------------------------------------
# built-in stage registrations: the engine's reusable stages under their
# reference-route names. Kept in one place (imported lazily) so library
# import stays light and registration happens exactly once.

_BUILTINS_DONE = False


def register_builtins() -> None:
    global _BUILTINS_DONE
    if _BUILTINS_DONE:
        return

    from .pipelines.convert import convert_batch
    from .pipelines.flagship import crawl_convert
    from .stages.download import RESULT_SCHEMA as _DL_SCHEMA
    from .stages.download import DownloadFromStage
    from .stages.media import (
        FrameSampler,
        MediaFeatureExtractor,
        MediaResizer,
        media_rows_from_spans,
    )
    from .stages.subresource import DECISION_SCHEMA, SubResourceAdmission
    from .stages.webhook import WebhookSender

    register(
        StageSpec(
            name="crawl_convert",
            kind="source",
            fn=crawl_convert,
            description="frontier crawl + inline conversion → pages Dataset",
        )
    )
    register(
        StageSpec(
            name="convert_chain",
            kind="batch",
            fn=convert_batch,
            schema_in=("doc_id", "route", "options_json", "spans"),
            description="full conversion route chain (chromium/routes.go:861-913)",
        )
    )
    register(
        StageSpec(
            name="subresource_admission",
            kind="batch",
            fn=SubResourceAdmission,
            schema_in=("doc_id", "spans"),
            schema_out=DECISION_SCHEMA,
            batch_size=2048,
            concurrency=2,
            description="pause-filter decision algebra (events.go:46-189)",
        )
    )
    register(
        StageSpec(
            name="media_features",
            kind="batch",
            fn=MediaFeatureExtractor,
            schema_in=("media_ref", "payload", "media_type"),
            batch_size=128,
            concurrency=2,
            description="multimodal decode/feature stage (codec seam stubbed)",
        )
    )
    register(
        StageSpec(
            name="media_from_spans",
            kind="dataset",
            fn=media_rows_from_spans,
            description=(
                "interleaved (doc_id, spans) corpus → media-item rows "
                "(media spans exploded; payloads via the deterministic "
                "asset-fetch seam)"
            ),
        )
    )
    register(
        StageSpec(
            name="media_resize",
            kind="batch",
            fn=MediaResizer,
            schema_in=("width", "height", "decode_ok"),
            batch_size=128,
            concurrency=2,
            description="aspect-fit resize geometry (pixel resample behind the codec seam)",
        )
    )
    register(
        StageSpec(
            name="frame_sample",
            kind="batch",
            fn=FrameSampler,
            schema_in=("n_frames", "media_type", "decode_ok"),
            batch_size=128,
            concurrency=2,
            description="stride/budget frame-index sampling for video rows",
        )
    )
    register(
        StageSpec(
            name="download_from",
            kind="batch",
            fn=DownloadFromStage,
            schema_in=("doc_id", "download_from_json"),
            schema_out=_DL_SCHEMA,
            concurrency=2,
            description="remote-input acquisition w/ SSRF filter + retries (context.go:208-431)",
        )
    )
    register(
        StageSpec(
            name="webhook_sink",
            kind="batch",
            fn=WebhookSender,
            schema_in=(
                "doc_id", "error_type", "webhook_url", "error_url", "body",
            ),
            description="async webhook delivery w/ bounded retries (webhook.go:50-66)",
        )
    )

    # the LLM training-data path (train.py) as registry stages — the
    # extension surface proven on BOTH halves of the engine; the stage
    # callables are the very functions training_data_pipeline chains
    # directly, and tests/test_registry.py pins the compiled-from-
    # registry composition equal to the direct pipeline's manifest
    from .pipelines.train import (
        _extract_text,
        dedup_parts,
        pack_contexts,
        quality_gate,
        shard_sink,
    )

    register(
        StageSpec(
            name="extract_text",
            kind="batch",
            fn=_extract_text,
            schema_in=("status", "spans"),
            description="converted pages → (doc_num, part_index, text, n_tokens)",
        )
    )
    register(
        StageSpec(
            name="quality_gate",
            kind="batch",
            fn=quality_gate,
            schema_in=("text", "n_tokens"),
            config={"min_tokens": 5},
            description="token floor + type-token-ratio boilerplate gate",
        )
    )
    register(
        StageSpec(
            name="dedup_parts",
            kind="dataset",
            fn=dedup_parts,
            description="exact content-hash dedup fold (only 3 ints shuffle)",
        )
    )
    register(
        StageSpec(
            name="pack_contexts",
            kind="dataset",
            fn=pack_contexts,
            config={"ctx": 256},
            description="context-window packing via the ordered prefix sum",
        )
    )
    register(
        StageSpec(
            name="shard_sink",
            kind="dataset",
            fn=shard_sink,
            description="resumable hash-partitioned training-shard sink",
        )
    )
    # interleaved text+media variant (train.py): the same composition
    # with REAL media counts from the crawl's media spans riding the
    # dual-budget pack — the graft cell's interleaved payload axis
    from .pipelines.flagship import crawl_convert_media
    from .pipelines.train import (
        _extract_text_media,
        dedup_parts_media,
        pack_contexts_interleaved,
    )

    register(
        StageSpec(
            name="crawl_convert_media",
            kind="source",
            fn=crawl_convert_media,
            description="frontier crawl of the media-carrying span corpus",
        )
    )
    register(
        StageSpec(
            name="extract_text_media",
            kind="batch",
            fn=_extract_text_media,
            schema_in=("status", "spans"),
            description="pages → (doc_num, part_index, text, n_tokens, n_media)",
        )
    )
    register(
        StageSpec(
            name="dedup_parts_media",
            kind="dataset",
            fn=dedup_parts_media,
            description="content-hash dedup fold carrying the media budget",
        )
    )
    register(
        StageSpec(
            name="pack_interleaved_contexts",
            kind="dataset",
            fn=pack_contexts_interleaved,
            config={"ctx_tokens": 256, "ctx_media": 8},
            description="dual token+media budget packing on real span counts",
        )
    )
    from .pipelines.classifier import classifier_gate

    register(
        StageSpec(
            name="classifier_gate",
            kind="dataset",
            fn=classifier_gate,
            config={"min_score_bp": 2500},
            description=(
                "fastText-style quality gate: train on the labeled seed "
                "corpus (sf_dir), score the flowing text, keep rows "
                "scoring ≥ min_score_bp (classifier.py)"
            ),
        )
    )
    # flag only AFTER the final registration: a failure mid-way must
    # not leave the registry permanently partial behind the guard
    _BUILTINS_DONE = True
