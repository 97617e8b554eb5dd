"""Flagship pipeline: documents table → interleaved span corpus →
Ray-frontier crawl with inline conversion → converted pages Dataset.

Registered as the ``crawl_convert`` source stage so the driver entry
point compiles from the stage registry (SURVEY §2.10)."""

from __future__ import annotations

import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

from ..corpus import host_pool, make_frontier, make_robots
from ..frontier.crawler import CrawlConfig, run_crawl
from ..schemas import DOCUMENTS_SCHEMA, KIND_PAGE_BREAK, KIND_TEXT, make_span


def spanify_documents(sf_dir: str) -> pa.Table:
    """documents.parquet → interleaved span corpus (input_hint shape):
    text re-paged at 40 tokens/page with page-break spans between."""
    src = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    doc_ids, spans_col = [], []
    for i, text in enumerate(src.column("text").to_pylist()):
        toks = (text or "").split()
        pages = [
            [make_span(KIND_TEXT, text=" ".join(toks[j : j + 40]))]
            for j in range(0, len(toks), 40)
        ] or [[make_span(KIND_TEXT, text="")]]
        spans = []
        for p, page in enumerate(pages):
            if p:
                spans.append(make_span(KIND_PAGE_BREAK))
            spans.extend(page)
        doc_ids.append(f"doc-{i:06d}")
        spans_col.append([{**s, "offset": o} for o, s in enumerate(spans)])
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": pa.array(spans_col, DOCUMENTS_SCHEMA.field("spans").type),
        },
        schema=DOCUMENTS_SCHEMA,
    )


def _crawl_pages(
    docs: pa.Table,
    n_frontier: int,
    n_hosts: int,
    seed: int,
    pages_dir: str | None,
    tmp_prefix: str,
    cfg_overrides: dict,
):
    """The crawl body of both source stages, over the given ``docs``."""
    import ray.data as rd

    frontier = make_frontier(n_frontier, n_docs=docs.num_rows, seed=seed)
    robots = make_robots(host_pool(n_hosts), seed=seed)
    cfg = CrawlConfig(
        n_partitions=4,
        epoch_width=8,
        max_epochs=30,
        link_universe=600,
        fetch_concurrency=2,
        fetch_num_cpus=0.5,
        **cfg_overrides,
    )
    if pages_dir is None:
        pages_dir = tempfile.mkdtemp(prefix=tmp_prefix)
    run_crawl(frontier, docs, robots, cfg, mode="ray", pages_dir=pages_dir)
    return rd.read_parquet(pages_dir)


def crawl_convert(
    sf_dir: str,
    n_frontier: int = 400,
    n_hosts: int = 20,
    seed: int = 42,
    pages_dir: str | None = None,
    **cfg_overrides,
):
    """Source stage: crawl the span corpus built from ``sf_dir`` and
    return the converted pages as a lazy Dataset over the partitioned
    parquet sink (fetch workers convert inline and write per-epoch)."""
    docs = spanify_documents(sf_dir)
    return _crawl_pages(
        docs, n_frontier, n_hosts, seed, pages_dir, "gotenberg_ray_pages_", cfg_overrides
    )


def crawl_convert_media(
    sf_dir: str,
    n_frontier: int = 400,
    n_hosts: int = 20,
    seed: int = 42,
    pages_dir: str | None = None,
    **cfg_overrides,
):
    """:func:`crawl_convert` over the MEDIA-CARRYING interleaved span
    corpus (``corpus.make_documents`` — media spans on ~40% of pages,
    input_hint shape) sized to the sf documents table, instead of the
    text-only re-paged ``spanify_documents`` corpus. The converted
    pages keep their media spans, which is what the interleaved
    training composition (``train.training_interleaved_pipeline``)
    packs real media budgets from."""
    from ..corpus import make_documents
    from ..io import table_rows

    docs = make_documents(max(50, table_rows(sf_dir, "documents")), seed=seed)
    return _crawl_pages(
        docs, n_frontier, n_hosts, seed, pages_dir, "gotenberg_ray_mpages_", cfg_overrides
    )


def media_crawl_pipeline(sf_dir: str):
    """Multimodal chain over the CRAWL corpus's media spans (VERDICT r4
    next #5): the deterministic interleaved span corpus (input_hint
    shape, sized to the sf documents table's footer row count) →
    :func:`media_rows_from_spans` explode (media spans → media-item
    rows with payloads from the asset-fetch seam) → decode → resize →
    frame-sample actor stages → per-type DATASET aggregate summary
    (``media_type_summary`` — no driver-pandas fold).

    rows-only: pinned deterministic + consistent-with-stage-pins in
    tests/test_stages.py; registry composition pinned equal in
    tests/test_registry.py."""
    import ray.data as rd

    from ..corpus import make_documents
    from ..io import parallelism_hint, table_rows
    from ..stages.media import (
        FrameSampler,
        MediaFeatureExtractor,
        MediaResizer,
        media_rows_from_spans,
        media_type_summary,
    )

    n = max(50, table_rows(sf_dir, "documents"))
    corpus = make_documents(n, seed=42)
    # split the driver-built fixture into ~core-count blocks so the
    # actor pools actually fan out (a real deployment reads the span
    # corpus from partitioned Lance/parquet via io.read_table instead)
    k = max(1, min(parallelism_hint(), corpus.num_rows))
    step = -(-corpus.num_rows // k)
    docs = rd.from_arrow(
        [corpus.slice(i, step) for i in range(0, corpus.num_rows, step)]
    )
    feats = (
        media_rows_from_spans(docs)
        .map_batches(
            MediaFeatureExtractor, batch_format="pyarrow", batch_size=128, concurrency=2
        )
        .map_batches(MediaResizer, batch_format="pyarrow", batch_size=128, concurrency=2)
        .map_batches(FrameSampler, batch_format="pyarrow", batch_size=128, concurrency=2)
    )
    return media_type_summary(feats)
