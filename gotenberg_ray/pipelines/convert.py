"""Conversion pipeline — the route post-processing chain over span rows.

The reference applies a FIXED stub order after every render
(/root/reference/pkg/modules/chromium/routes.go:861-913):

    validate → Split → Watermark → Stamp → Rotate → FacturXPdfFormats
    → Convert(PDF/A|UA) → WriteMetadata → EmbedFiles →
    EmbedFilesMetadata → ApplyFacturX → Encrypt → split-naming

(metadata/embeds intentionally AFTER Convert because LibreOffice strips
them — routes.go:888-889; that ordering is the contract and is what the
metadata-survives-convert golden case pins.)

Render-time options (header/footer templates, pageRanges, singlePage —
tasks.go:60-74,396-441) are applied to the fetched span list before the
chain, mirroring Chromium's PrintToPDF options.

This module is a pure per-row function plus a ``map_batches`` adapter
(one input row → N part rows), so the whole chain is one stateless
vectorizable Ray Data stage.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import spans as S
from . import convert_vec as CV
from ..functions.markdown import render_markdown_cached
from .convert_vec import _render_template
from ..schemas import (
    ERR_INVALID_INPUT,
    ERR_NONE,
    KIND_TEXT,
    SPAN_STRUCT as SPAN_STRUCT_TYPE,
    SPANS_TYPE,
    STATUS_ERROR,
    STATUS_SUCCESS,
    make_span,
)



@dataclasses.dataclass
class ConvertOptions:
    """Typed option record (chromium.Options/PdfOptions ~ chromium.go:119-378
    + pdfengines form groups; defaults from FIXTURES.md §4)."""

    header_template: str = ""
    footer_template: str = ""
    page_ranges: str = ""
    single_page: bool = False
    print_background: bool = False
    omit_background: bool = False
    generate_document_outline: bool = False
    split_mode: str = ""  # "", "intervals", "pages"
    split_span: str = ""
    split_unify: bool = False
    pdfa: str = ""
    pdfua: bool = False
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)
    embeds: list[dict] = dataclasses.field(default_factory=list)
    watermark_source: str = ""
    watermark_expression: str = ""
    watermark_ref: str = ""
    watermark_pages: str = ""
    stamp_source: str = ""
    stamp_expression: str = ""
    stamp_ref: str = ""
    stamp_pages: str = ""
    rotate_angle: int = 0
    rotate_pages: str = ""
    flatten: bool = False
    merge: bool = False
    facturx_xml: str = ""
    user_password: str = ""
    owner_password: str = ""
    permissions: dict[str, bool] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_json(cls, raw: str) -> "ConvertOptions":
        cached = _OPTIONS_CACHE.get(raw)
        if cached is not None:
            return cached
        try:
            data = json.loads(raw or "{}")
        except json.JSONDecodeError:
            raise S.InvalidInput("options are not valid JSON")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields - {"failOnHttpStatusCodes"}
        if unknown:
            raise S.InvalidInput(f"unknown options {sorted(unknown)}")
        kwargs = {k: v for k, v in data.items() if k in fields}
        opts = cls(**kwargs)
        if len(_OPTIONS_CACHE) < 4096:
            _OPTIONS_CACHE[raw] = opts
        return opts


# parsed-options memo: crawls reuse a handful of distinct option
# strings millions of times; ConvertOptions is treated as immutable by
# every consumer (convert_row only reads fields)
_OPTIONS_CACHE: dict[str, "ConvertOptions"] = {}

_SCREENSHOT_FORMATS = ("png", "jpeg", "webp")


@dataclasses.dataclass
class ScreenshotOptions:
    """Screenshot form options (chromium.go:335-378 ScreenshotOptions;
    validation mirrors routes.go:337-410 FormDataChromiumScreenshotOptions).
    Unlike the PDF chain, omitBackground here does NOT require
    printBackground (browser.go:380 passes allowWithoutPrintBackground)."""

    width: int = 800
    height: int = 600
    clip: bool = False
    format: str = "png"
    quality: int = 100
    optimize_for_speed: bool = False
    device_scale_factor: float = 1.0
    omit_background: bool = False

    @classmethod
    def from_json(cls, raw: str) -> "ScreenshotOptions":
        cached = _SCREENSHOT_CACHE.get(raw)
        if cached is not None:
            return cached
        try:
            data = json.loads(raw or "{}")
        except json.JSONDecodeError:
            raise S.InvalidInput("options are not valid JSON")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields - {"failOnHttpStatusCodes"}
        if unknown:
            raise S.InvalidInput(f"unknown screenshot options {sorted(unknown)}")
        kwargs = {k: v for k, v in data.items() if k in fields}
        opts = cls(**kwargs)
        if opts.format not in _SCREENSHOT_FORMATS:
            # routes.go:362: "wrong value, expected either 'png', 'jpeg' or 'webp'"
            raise S.InvalidInput(f"wrong format {opts.format!r}")
        if not isinstance(opts.quality, int) or isinstance(opts.quality, bool):
            raise S.InvalidInput("quality must be an integer")
        if opts.quality < 0:
            raise S.InvalidInput("quality is negative")
        if opts.quality > 100:
            raise S.InvalidInput("quality is superior to 100")
        if len(_SCREENSHOT_CACHE) < 4096:
            _SCREENSHOT_CACHE[raw] = opts
        return opts


_SCREENSHOT_CACHE: dict[str, "ScreenshotOptions"] = {}


@dataclasses.dataclass
class PartRow:
    part_index: int
    spans: list[dict]
    output_name: str
    pdfa: str = ""
    pdfua: bool = False
    metadata_json: str = "{}"
    bookmarks_json: str = "[]"
    encrypt_json: str = ""
    error_type: str = ERR_NONE
    status: str = STATUS_SUCCESS


def apply_render_options(spans: list[dict], opts: ConvertOptions) -> tuple[list[dict], str]:
    """Render-time transforms + outline generation (pre-chain)."""
    # omitBackground requires printBackground (tasks.go:443-472)
    if opts.omit_background and not opts.print_background:
        raise S.InvalidInput("omitBackground requires printBackground")
    pages = S.pages_of(spans)
    total = len(pages)
    if opts.page_ranges:
        sel = S.parse_page_selection(opts.page_ranges, total)
        if not sel:
            raise S.InvalidInput(f"page ranges {opts.page_ranges!r} select nothing")
        pages = [pages[i] for i in sel]
    if opts.header_template or opts.footer_template:
        out = []
        for i, p in enumerate(pages):
            p = list(p)
            if opts.header_template:
                p.insert(0, make_span(KIND_TEXT, text=_render_template(opts.header_template, i + 1, total)))
            if opts.footer_template:
                p.append(make_span(KIND_TEXT, text=_render_template(opts.footer_template, i + 1, total)))
            out.append(p)
        pages = out
    bookmarks = "[]"
    if opts.generate_document_outline:
        # outline ⇒ tagged PDF coupling (tasks.go:31-37): derive one
        # bookmark per page from its first text span
        bms = []
        for i, p in enumerate(pages):
            first = next((s["text"] for s in p if s["kind"] == KIND_TEXT), f"Page {i+1}")
            bms.append({"title": first[:64], "page": i + 1, "children": []})
        bookmarks = json.dumps(bms)
    if opts.single_page:
        # singlePage prints everything as one tall page (tasks.go:60-74)
        pages = [[s for p in pages for s in p]]
    return S.join_pages(pages), bookmarks


def convert_row(
    doc_id: str, spans: list[dict], opts: ConvertOptions
) -> list[PartRow]:
    """The full post-render chain for one document, in stub order."""
    spans, bookmarks_json = apply_render_options(spans, opts)

    # --- Split (before overlays, routes.go:861-875) ---
    if opts.split_mode:
        parts = S.split_spans(spans, opts.split_mode, opts.split_span, opts.split_unify)
    else:
        parts = [spans]
    split_many = opts.split_mode and not opts.split_unify and len(parts) > 1

    out: list[PartRow] = []
    for idx, part in enumerate(parts):
        # --- Watermark → Stamp → Rotate ---
        if opts.watermark_source:
            part = S.watermark_spans(
                part,
                opts.watermark_source,
                expression=opts.watermark_expression,
                media_ref=opts.watermark_ref,
                pages_expr=opts.watermark_pages,
            )
        if opts.stamp_source:
            part = S.stamp_spans(
                part,
                opts.stamp_source,
                expression=opts.stamp_expression,
                media_ref=opts.stamp_ref,
                pages_expr=opts.stamp_pages,
            )
        if opts.rotate_angle:
            part = S.rotate_spans(part, opts.rotate_angle, opts.rotate_pages)
        if opts.flatten:
            part = S.flatten_spans(part)

        # --- FacturX format coercion → Convert ---
        pdfa = opts.pdfa
        if opts.facturx_xml:
            pdfa = S.facturx_coerce_format(pdfa)
        metadata_json = "{}"
        pdfa, pdfua, metadata_json = S.convert_format(pdfa, opts.pdfua, metadata_json)

        # --- WriteMetadata AFTER convert (routes.go:888-889) ---
        if opts.metadata:
            metadata_json = S.write_metadata(metadata_json, opts.metadata)

        # --- EmbedFiles (+metadata) → ApplyFacturX ---
        if opts.embeds:
            part = S.embed_files_spans(part, opts.embeds)
        if opts.facturx_xml:
            part = S.apply_facturx(part, opts.facturx_xml)

        # --- Encrypt ---
        encrypt_json = ""
        if opts.user_password or opts.owner_password or opts.permissions:
            enc = S.encrypt_options(
                opts.user_password, opts.owner_password, **opts.permissions
            )
            encrypt_json = json.dumps(enc, sort_keys=True)

        # --- split naming (pdfengines/routes.go:299-328): name_i when
        # the split produced multiple parts; unify keeps the base name ---
        name = f"{doc_id}_{idx}" if split_many else doc_id
        out.append(
            PartRow(
                part_index=idx,
                spans=part,
                output_name=name,
                pdfa=pdfa,
                pdfua=pdfua,
                metadata_json=metadata_json,
                bookmarks_json=bookmarks_json,
                encrypt_json=encrypt_json,
            )
        )
    return out


PAGES_OUT_FIELDS = [
    ("doc_id", pa.string()),
    ("part_index", pa.int32()),
    ("spans", SPANS_TYPE),
    ("output_name", pa.string()),
    ("pdfa", pa.string()),
    ("pdfua", pa.bool_()),
    ("metadata_json", pa.string()),
    ("bookmarks_json", pa.string()),
    ("encrypt_json", pa.string()),
    ("status", pa.string()),
    ("error_type", pa.string()),
    ("page_count", pa.int32()),
]
PAGES_OUT_SCHEMA = pa.schema(PAGES_OUT_FIELDS)


def _page_counts_vector(spans: pa.ChunkedArray | pa.Array) -> pa.Array:
    """page_count per row: #page_break spans + 1 for non-empty docs,
    from one prefix sum over the span kinds."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    offs = spans.offsets.to_numpy(zero_copy_only=False)
    breaks = CV._cum0(CV.kind_codes(spans.values.field("kind")) == CV.PB)
    counts = breaks[offs[1:]] - breaks[offs[:-1]] + (offs[1:] > offs[:-1])
    return pa.array(counts.astype(np.int32))


def _single_parts(
    doc_ids, spans, names, page_count, metadata=None, status=None, error=None
) -> pa.Table:
    """One part row per input row; columns not given get the defaults."""
    n = len(doc_ids)

    def const(v: str) -> pa.Array:
        return pa.array([v] * n, pa.string())

    arrays = [
        doc_ids,
        pa.array(np.zeros(n, dtype=np.int32)),
        spans,
        names,
        const(""),
        pa.array(np.zeros(n, dtype=bool)),
        const("{}") if metadata is None else metadata,
        const("[]"),
        const(""),
        const(STATUS_SUCCESS) if status is None else status,
        const(ERR_NONE) if error is None else error,
        page_count,
    ]
    return pa.Table.from_arrays(arrays, schema=PAGES_OUT_SCHEMA)


def _error_parts(sub: pa.Table, ok: np.ndarray) -> pa.Table:
    """Empty parts: fetch-error rows keep their status/error_type,
    ``ok`` rows are option failures (400 family)."""
    n = sub.num_rows
    names = sub.column_names
    status = _col(sub, "status") if "status" in names else pa.array([STATUS_SUCCESS] * n)
    error = _col(sub, "error_type") if "error_type" in names else pa.array([ERR_NONE] * n)
    if ok.any():
        mask = pa.array(ok)
        status = pc.if_else(mask, pa.scalar(STATUS_ERROR), status)
        error = pc.if_else(mask, pa.scalar(ERR_INVALID_INPUT), error)
    empty = pa.ListArray.from_arrays(
        pa.array(np.zeros(n + 1, dtype=np.int32)), pa.array([], SPAN_STRUCT_TYPE)
    )
    doc_ids = sub.column("doc_id")
    zeros = pa.array(np.zeros(n, dtype=np.int32))
    return _single_parts(doc_ids, empty, doc_ids, zeros, status=status, error=error)


def _screenshot_parts(sub: pa.Table, codes: np.ndarray, shots: list[ScreenshotOptions]) -> pa.Table:
    """Vectorized screenshot capture: one image part per input row, row
    i captured with ``shots[codes[i]]`` (browser.go:365-390 screenshot
    task chain; tasks.go:183-229 captureScreenshot).

    Span-model semantics: the capture is a raster, represented as a
    single media span whose media_ref is the output image name. The
    capture parameters land in metadata_json, including
    ``captured_pages`` — CaptureBeyondViewport(true) captures the whole
    document (page_count of the input spans) unless ``clip`` limits the
    capture to the device viewport (1). ``quality`` is recorded for
    jpeg only (tasks.go:199-202). page_count of an image part is 1."""
    n = sub.num_rows
    doc_ids = _col(sub, "doc_id")
    idx = pa.array(codes)
    exts = pa.array(["." + o.format for o in shots], pa.string()).take(idx)
    out_names = pc.binary_join_element_wise(doc_ids, exts, pa.scalar(""))
    # one media span per row: {kind: media, media_ref: output_name}
    struct = pa.StructArray.from_arrays(
        [
            pa.array(["media"] * n, pa.string()),
            pa.array([""] * n, pa.string()),
            out_names,
            pa.array(np.zeros(n, dtype=np.int32)),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    spans = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32)), struct
    )
    prefixes = []
    for o in shots:
        base = {
            "clip": o.clip,
            "deviceScaleFactor": o.device_scale_factor,
            "format": o.format,
            "height": o.height,
            "omitBackground": o.omit_background,
            "optimizeForSpeed": o.optimize_for_speed,
            "width": o.width,
        }
        if o.format == "jpeg":
            base["quality"] = o.quality
        prefixes.append(json.dumps(base, sort_keys=True)[:-1] + ', "captured_pages": ')
    clip = np.array([bool(o.clip) for o in shots])[codes]
    pages = _page_counts_vector(sub.column("spans")).to_numpy(zero_copy_only=False)
    metadata = pc.binary_join_element_wise(
        pa.array(prefixes, pa.string()).take(idx),
        pc.cast(pa.array(np.where(clip, 1, pages).astype(np.int64)), pa.string()),
        pa.scalar("}"),
        pa.scalar(""),
    )
    ones = pa.array(np.ones(n, dtype=np.int32))
    return _single_parts(doc_ids, spans, out_names, ones, metadata=metadata)


def _kernel_parts(sub: pa.Table, codes: np.ndarray, plans: list[CV.KernelPlan]) -> pa.Table:
    try:
        cols = CV.convert_rows(sub.column("spans"), _col(sub, "doc_id"), codes, plans)
    except CV.REQUEST_ERRORS:
        # anything kernel_plan() can't pre-screen: the row path turns it
        # into 400-family rows — errors are data, never stage crashes
        return _convert_rows_fallback(sub)
    return pa.Table.from_arrays(
        [cols[name] for name, _ in PAGES_OUT_FIELDS], schema=PAGES_OUT_SCHEMA
    )


# the input columns convert reads — the only ones its take copies
_READS = ("doc_id", "spans", "options_json", "route", "status", "error_type")
# passes, in the order their rows sit in the taken batch
_ERRORS, _SHOTS, _IDENTITY, _KERNEL, _ROWS = range(5)


def _plan(key: str) -> tuple[int, object]:
    """(pass, typed parameters) of one options_json\x1froute pair."""
    opts_json, route = key.rsplit("\x1f", 1)
    try:
        if route.startswith("screenshot/"):
            # screenshot routes produce image parts, never the PDF
            # post-processing chain (routes.go:845-859 screenshot routes)
            return _SHOTS, ScreenshotOptions.from_json(opts_json)
        if opts_json == "{}" and route != "convert/markdown":
            return _IDENTITY, None
        plan = CV.kernel_plan(ConvertOptions.from_json(opts_json), route)
    except CV.REQUEST_ERRORS:  # e.g. JSON that is no object: a 400 row
        return _ERRORS, None
    return (_ROWS, None) if plan is None else (_KERNEL, plan)


def convert_batch(batch: pa.Table) -> pa.Table:
    """map_batches adapter: rows (doc_id, spans, options_json[, route,
    status, error_type]) → part rows. Rows that arrived as fetch errors
    pass through as error parts; option/validation failures become
    400-family rows (never exceptions — errors are data,
    middlewares.go:38-88). A null options_json or route reads as the
    default ("{}", "convert/url").

    One pass per batch, whatever its option mix: each distinct
    (options_json, route) pair is decoded once, every row gets its
    pair's pass by dictionary code, and ONE take of the columns convert
    reads sorts the rows by pass. Error rows become constant parts,
    screenshot rows image parts, default-option rows the zero-copy
    identity, kernel rows one ``convert_vec.convert_rows`` run with
    per-row parameters, and the rest one per-row chain call. Output
    order: error rows first (input order), then the pairs in order of
    first occurrence, input order within a pair, each row's parts
    ascending — consumers key on doc_id/part_index."""
    n = batch.num_rows
    if n == 0:
        return PAGES_OUT_SCHEMA.empty_table()
    have = set(batch.column_names)
    names = [c for c in _READS if c in have]
    t = pa.Table.from_arrays([batch.column(c) for c in names], names=names)
    ok = (
        pc.equal(_col(t, "status", ""), STATUS_SUCCESS).to_numpy(zero_copy_only=False)
        if "status" in names
        else np.ones(n, dtype=bool)
    )
    combo = pc.binary_join_element_wise(
        _col(t, "options_json", "{}"),
        _col(t, "route", "convert/url") if "route" in names else "convert/url",
        pa.scalar("\x1f"),
    )
    enc = combo.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    plans = [_plan(k) for k in CV._strs(enc.dictionary)]
    row_pass = np.array([p for p, _ in plans])[codes]
    row_pass[~ok] = _ERRORS
    kernel = row_pass == _KERNEL
    if kernel.any():
        row_pass[kernel & CV.foreign_kind_rows(_col(t, "spans"))] = _ROWS

    # output rank: error rows, then pairs by first ok occurrence
    first = np.full(len(plans), n, dtype=np.int64)
    np.minimum.at(first, codes[ok], np.nonzero(ok)[0])
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.where(ok, first[codes], -1), kind="stable")] = np.arange(n)
    perm = np.lexsort((rank, row_pass))
    sorted_t = t if (perm == np.arange(n)).all() else t.take(perm)
    bounds = CV._cum0(np.bincount(row_pass, minlength=5))
    outs = []
    for p in range(5):
        a, b = bounds[p], bounds[p + 1]
        if a == b:
            continue
        sub, rows = sorted_t.slice(a, b - a), perm[a:b]
        if p in (_SHOTS, _KERNEL):
            used, local = np.unique(codes[rows], return_inverse=True)
            params = [plans[c][1] for c in used]
        if p == _ERRORS:
            outs.append(_error_parts(sub, ok[rows]))
        elif p == _SHOTS:
            outs.append(_screenshot_parts(sub, local, params))
        elif p == _IDENTITY:
            # identity chain: the spans as taken (routes.go default path)
            spans, doc_ids = sub.column("spans"), sub.column("doc_id")
            outs.append(_single_parts(doc_ids, spans, doc_ids, _page_counts_vector(spans)))
        elif p == _KERNEL:
            outs.append(_kernel_parts(sub, local, params))
        else:
            outs.append(_convert_rows_fallback(sub))
    out = outs[0] if len(outs) == 1 else pa.concat_tables(outs)

    # back to output rank: every row yields parts 0, 1, … contiguously,
    # so part_index 0 marks where the next input row's parts begin; the
    # reorder is zero-copy slices of the runs already in rank order
    starts = out.column("part_index").to_numpy() == 0
    order = np.argsort(rank[perm][np.cumsum(starts) - 1], kind="stable")
    cuts = np.flatnonzero(np.diff(order, prepend=-2) != 1)
    if len(cuts) == 1:
        return out
    lens = np.diff(cuts, append=len(order))
    return pa.concat_tables([out.slice(order[c], m) for c, m in zip(cuts, lens)])


def _col(t: pa.Table, name: str, fill: str | None = None) -> pa.Array:
    c = t.column(name)
    c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    return pc.fill_null(c, fill) if fill is not None and c.null_count else c


def _convert_rows_fallback(batch: pa.Table) -> pa.Table:
    """Per-row chain — the semantics reference and the escape hatch for
    option combinations the kernels don't cover."""
    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = batch.column("spans").to_pylist()
    opts_col = batch.column("options_json").to_pylist()
    routes = (
        batch.column("route").to_pylist()
        if "route" in batch.column_names
        else ["convert/url"] * batch.num_rows
    )
    statuses = (
        batch.column("status").to_pylist()
        if "status" in batch.column_names
        else [STATUS_SUCCESS] * batch.num_rows
    )
    errs = (
        batch.column("error_type").to_pylist()
        if "error_type" in batch.column_names
        else [ERR_NONE] * batch.num_rows
    )

    cols: dict[str, list] = {name: [] for name, _ in PAGES_OUT_FIELDS}

    def emit(doc_id: str, p: PartRow):
        cols["doc_id"].append(doc_id)
        cols["part_index"].append(p.part_index)
        cols["spans"].append(p.spans)
        cols["output_name"].append(p.output_name)
        cols["pdfa"].append(p.pdfa)
        cols["pdfua"].append(p.pdfua)
        cols["metadata_json"].append(p.metadata_json)
        cols["bookmarks_json"].append(p.bookmarks_json)
        cols["encrypt_json"].append(p.encrypt_json)
        cols["status"].append(p.status)
        cols["error_type"].append(p.error_type)
        cols["page_count"].append(S.page_count(p.spans))

    for i in range(batch.num_rows):
        if statuses[i] != STATUS_SUCCESS:
            emit(
                doc_ids[i],
                PartRow(0, [], doc_ids[i], status=statuses[i], error_type=errs[i]),
            )
            continue
        if opts_col[i] == "{}" and routes[i] != "convert/markdown":
            # identity fast path: default options run the whole chain as
            # a no-op on normalized spans (join_pages∘pages_of == id) —
            # skip the per-span copying for the common crawl case. The
            # markdown route always renders (routes.go:709-782), so it
            # must take the slow path even with default options.
            emit(doc_ids[i], PartRow(0, spans_col[i], doc_ids[i]))
            continue
        try:
            opts = ConvertOptions.from_json(opts_col[i])
            spans_i = spans_col[i]
            if routes[i] == "convert/markdown":
                spans_i = [
                    {**s, "text": render_markdown_cached(s["text"])}
                    if s["kind"] == KIND_TEXT
                    else s
                    for s in spans_i
                ]
            for p in convert_row(doc_ids[i], spans_i, opts):
                emit(doc_ids[i], p)
        except CV.REQUEST_ERRORS:
            emit(
                doc_ids[i],
                PartRow(
                    0, [], doc_ids[i], status=STATUS_ERROR, error_type=ERR_INVALID_INPUT
                ),
            )
    arrays = [pa.array(cols[name], typ) for name, typ in PAGES_OUT_FIELDS]
    return pa.Table.from_arrays(arrays, schema=PAGES_OUT_SCHEMA)


def merge_group_batch(group: pa.Table) -> pa.Table:
    """``groupby(merge_group).map_groups`` kernel: merge parts in
    part_index order into one row (Merge = input order, pdfengine.go:
    267-269), shifting bookmarks by running page counts."""
    group = group.sort_by([("part_index", "ascending")])
    spans_parts = group.column("spans").to_pylist()
    merged = S.merge_spans(spans_parts)
    bms = S.merge_bookmarks(
        [
            (name, S.page_count(sp), json.loads(bj or "[]"))
            for name, sp, bj in zip(
                group.column("output_name").to_pylist(),
                spans_parts,
                group.column("bookmarks_json").to_pylist(),
            )
        ]
    )
    first = group.slice(0, 1)
    out = {c: first.column(c).to_pylist() for c in group.column_names}
    out["spans"] = [merged]
    out["part_index"] = [0]
    out["bookmarks_json"] = [json.dumps(bms)]
    if "page_count" in out:
        out["page_count"] = [S.page_count(merged)]
    return pa.table(out, schema=group.schema)
