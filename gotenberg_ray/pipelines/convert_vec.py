"""Arrow-native convert kernels — the vectorized fast path for
``convert_batch``'s non-identity rows.

The per-row chain (``convert_row``) manipulates spans as Python dict
lists; under 28 concurrent workers that allocator churn costs ~1.5× the
7-worker per-row time (measured), which is the single biggest drag on
the crawl's scaling efficiency. These kernels run ONCE per batch over
every kernel row, whatever its options: ``convert_batch`` decodes each
distinct (options_json, route) pair once into a ``KernelPlan`` and each
stage reads its per-row parameters by that pair's code, acting only on
the rows whose plan asks for it. Every span edit is a gather index over
the batch's flattened Arrow children:

    src[i]  >= 0  → output span i copies input flat span src[i]
    src[i]  <  0  → output span i is new_text[-src[i] - 1]

Inserts are ``np.insert`` on the index arrays; splits are offset
arithmetic; only genuinely per-string work (markdown rendering,
header/footer template instantiation, flatten text joins, bookmark
titles) touches Python strings — and per distinct string or per PAGE,
not per span. One concat + take per child materializes the output, so
span bytes move through C kernels only.

Semantics are pinned to ``convert_row`` (routes.go:861-913 stub order):
``test_convert_vec.py`` compares kernel output against the row path on
randomized batches. Anything the kernels don't cover (page_ranges,
singlePage, split=pages, encryption, embeds, facturx, image/pdf
overlays, selective overlay pages) has no plan, and rows holding span
kinds other than text/media/page break (pre-rotated or overlaid
inputs, unknown or null kinds) are screened out by
``foreign_kind_rows``; both take the row path.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import spans as S
from ..functions.markdown import render_markdown_cached
from ..schemas import (
    KIND_EMBED,
    KIND_MEDIA,
    KIND_PAGE_BREAK,
    KIND_ROTATE,
    KIND_STAMP,
    KIND_TEXT,
    KIND_WATERMARK,
)

_KINDS = (
    KIND_TEXT,
    KIND_MEDIA,
    KIND_PAGE_BREAK,
    KIND_WATERMARK,
    KIND_STAMP,
    KIND_EMBED,
    KIND_ROTATE,
)
_KINDS_ARR = pa.array(_KINDS, pa.string())
# OTHER: a kind outside _KINDS, or a null one
TEXT, MEDIA, PB, WM, STAMP, EMBED, ROT, OTHER = range(8)


PAGE_NUMBER_MARK = '<span class="pageNumber"></span>'
TOTAL_PAGES_MARK = '<span class="totalPages"></span>'


def _render_template(tpl: str, page_no: int, total: int) -> str:
    return tpl.replace(PAGE_NUMBER_MARK, str(page_no)).replace(
        TOTAL_PAGES_MARK, str(total)
    )


def _cum0(x: np.ndarray) -> np.ndarray:
    """Exclusive-start prefix sum: offsets from lengths."""
    return np.concatenate(([0], np.cumsum(x)))


def _strs(arr: pa.Array) -> list:
    """Python strings of a string array (None for nulls) — far cheaper
    than ``to_pylist``'s per-element scalars."""
    return arr.to_numpy(zero_copy_only=False).tolist()


def _no_nulls(arr: pa.Array) -> pa.Array:
    return pc.fill_null(arr, "") if arr.null_count else arr


def kind_codes(kinds: pa.Array) -> np.ndarray:
    """int8 code per span kind; unknown and null kinds map to OTHER."""
    idx = pc.index_in(kinds, value_set=_KINDS_ARR)
    if idx.null_count:
        idx = pc.fill_null(idx, OTHER)
    return idx.to_numpy(zero_copy_only=False).astype(np.int8)


def foreign_kind_rows(spans_col: pa.ListArray) -> np.ndarray:
    """Per row: does it hold a span kind other than text, media or page
    break? The kernels assume crawl input kinds only."""
    offs = spans_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    bad = _cum0(kind_codes(spans_col.values.field("kind")) > PB)
    return bad[offs[1:]] > bad[offs[:-1]]


# what a malformed request raises: wrongly-TYPED option values (list
# where a dict belongs, non-string keys, …) surface as the builtin
# errors from the span algebra — the reference maps every malformed
# request to a 400, never a crash (api/context.go form validation)
REQUEST_ERRORS = (
    S.InvalidInput, S.MethodNotSupported, TypeError, AttributeError, ValueError, KeyError
)


class KernelPlan(NamedTuple):
    """Typed kernel parameters of one (options_json, route) pair; the
    defaults run no stage."""

    markdown: bool = False
    header: str = ""
    footer: str = ""
    outline: bool = False
    split_k: int = 0  # intervals of k pages; 0 = no split
    watermark: str = ""  # text overlay on every page
    rotate: str = ""  # rotate marker text; "" = no rotation
    rotate_first: bool = False  # rotate page 1 only
    flatten: bool = False
    pdfa: str = ""
    pdfua: bool = False
    metadata_json: str = "{}"


def _vectorizable(opts) -> bool:
    if opts.page_ranges or opts.single_page:
        return False
    if opts.omit_background and not opts.print_background:
        return False  # validation error → row path
    if not all(
        isinstance(v, str)
        for v in (opts.header_template, opts.footer_template, opts.watermark_expression)
    ):
        return False  # wrongly-typed option → row path error row
    if opts.split_mode:
        if opts.split_mode != S.SPLIT_INTERVALS or opts.split_unify:
            return False
        try:
            if int(opts.split_span) < 1:
                return False
        except (TypeError, ValueError):
            return False
    if opts.watermark_source and (
        opts.watermark_source != "text"
        or not opts.watermark_expression
        or opts.watermark_pages
    ):
        return False
    if opts.stamp_source:
        return False
    if opts.rotate_angle and (
        opts.rotate_angle not in S.VALID_ANGLES or opts.rotate_pages not in ("", "1")
    ):
        return False
    if opts.flatten and opts.watermark_source:
        return False
    if opts.embeds or opts.facturx_xml:
        return False
    if opts.user_password or opts.owner_password or opts.permissions:
        return False
    return True


def kernel_plan(opts, route: str) -> KernelPlan | None:
    """The plan that makes the kernels reproduce convert_row exactly for
    these options, or None (the row path) — including option-level
    validation errors, which the row path turns into error rows."""
    if not _vectorizable(opts):
        return None
    try:
        # format coercion + metadata: identical for every row of the pair
        pdfa, pdfua, metadata_json = S.convert_format(opts.pdfa, opts.pdfua, "{}")
        if opts.metadata:
            metadata_json = S.write_metadata(metadata_json, opts.metadata)
    except REQUEST_ERRORS:
        return None
    return KernelPlan(
        markdown=route == "convert/markdown",
        header=opts.header_template,
        footer=opts.footer_template,
        outline=bool(opts.generate_document_outline),
        split_k=int(opts.split_span) if opts.split_mode else 0,
        watermark=opts.watermark_expression if opts.watermark_source else "",
        rotate=str(opts.rotate_angle % 360) if opts.rotate_angle else "",
        rotate_first=opts.rotate_pages == "1",
        flatten=bool(opts.flatten),
        pdfa=pdfa,
        pdfua=bool(pdfua),
        metadata_json=metadata_json,
    )


class _Group:
    """Mutable gather-index representation of a batch's kernel rows."""

    def __init__(self, spans_col: pa.ChunkedArray | pa.ListArray):
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        self.base = spans_col.flatten()  # the rows' struct children
        offs = spans_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        self.base_text = self.base.field("text")
        self.base_media = self.base.field("media_ref")
        self.src = np.arange(len(self.base), dtype=np.int64)
        self.kind = kind_codes(self.base.field("kind"))
        self.offsets = offs - offs[0]
        n_rows = len(offs) - 1
        self.row_src = np.arange(n_rows, dtype=np.int64)
        self.part_index = np.zeros(n_rows, dtype=np.int32)
        self.split_many = np.zeros(n_rows, dtype=bool)
        self.new_text: list[str] = []
        self._pages = None  # _span_pages memo, reset on every reshape

    # ------------------------------------------------------------- helpers
    def _new_spans(self, texts: list[str]) -> int:
        """Register new spans; texts[j] gets span id -(base + j) - 1."""
        base = len(self.new_text)
        self.new_text.extend(texts)
        return base

    def _texts(self) -> pa.Array:
        """Text of every span id: base spans, then new spans."""
        return pa.concat_arrays(
            [self.base_text.cast(pa.string()), pa.array(self.new_text, pa.string())]
        )

    def _flat_ids(self, sids: np.ndarray) -> pa.Array:
        """Span ids → indices into ``_texts()``."""
        return pa.array(np.where(sids >= 0, sids, len(self.base_text) + (-sids - 1)))

    def _row_lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def _insert(self, rows: np.ndarray, positions: np.ndarray, span_ids: np.ndarray, kind: int) -> None:
        """Insert new spans at global flat ``positions`` (pre-insert
        coordinates, sorted with stable tie order), attributing one
        extra span per event to ``rows`` for offset bookkeeping."""
        self.src = np.insert(self.src, positions, span_ids)
        self.kind = np.insert(self.kind, positions, np.int8(kind))
        self._pages = None
        extra = np.bincount(rows, minlength=len(self.offsets) - 1)
        self.offsets = _cum0(self._row_lengths() + extra)

    def _span_pages(self):
        """(row, is_pb, page, pages): per span its row, page-break flag
        and 0-based page within the row (a page break: the page before
        it); per row its page count."""
        if self._pages is None:
            lens = self._row_lengths()
            n_rows = len(lens)
            row = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
            is_pb = self.kind == PB
            pb_per_row = np.bincount(row[is_pb], minlength=n_rows)
            pb_before_row = _cum0(pb_per_row)[:-1]
            page = np.cumsum(is_pb) - is_pb - np.repeat(pb_before_row, lens)
            self._pages = (row, is_pb, page, pb_per_row + (lens > 0))
        return self._pages

    def _page_structure(self):
        """(pb_pos global, pb_row, pb_rank_in_row, pages_per_row)."""
        row, is_pb, page, pages = self._span_pages()
        pb_pos = np.nonzero(is_pb)[0]
        return pb_pos, row[pb_pos], page[pb_pos], pages

    # ------------------------------------------------------------- kernels
    def render_markdown(self, on: np.ndarray) -> None:
        """Render the TEXT spans of rows where ``on``."""
        row, _is_pb, _page, _pages = self._span_pages()
        idx = np.nonzero((self.kind == TEXT) & on[row])[0]
        if not len(idx):
            return
        # render each DISTINCT markdown body once per batch (documents
        # repeat across a crawl epoch), register one shared span per
        # distinct rendering, and gather span ids from the dictionary
        # indices — same output text as a span per occurrence
        enc = _no_nulls(self.base_text.take(pa.array(self.src[idx]))).dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        start = self._new_spans(
            [render_markdown_cached(t) for t in _strs(enc.dictionary)]
        )
        self.src[idx] = -(start + codes) - 1

    def header_footer(self, hdr: np.ndarray, ftr: np.ndarray, templates: list[str]) -> None:
        """Per row: header ``templates[hdr]`` atop and footer
        ``templates[ftr]`` under every page (-1: none)."""
        pb_pos, pb_row, pb_rank, pages = self._page_structure()
        starts = self.offsets[:-1]
        ends = self.offsets[1:]
        ev_pos, ev_row, ev_sub, ev_page = [], [], [], []
        for sub, tid in ((0, hdr), (1, ftr)):
            rows = np.nonzero((pages > 0) & (tid >= 0))[0]
            sel = tid[pb_row] >= 0
            if sub == 0:  # page 1 at the row start, page r+2 after pb r
                ev_pos += [starts[rows], pb_pos[sel] + 1]
                ev_page += [np.ones(len(rows), np.int64), pb_rank[sel] + 2]
            else:  # page r+1 before pb r, the last page at the row end
                ev_pos += [ends[rows], pb_pos[sel]]
                ev_page += [pages[rows], pb_rank[sel] + 1]
            ev_row += [rows, pb_row[sel]]
            ev_sub.append(np.full(len(rows) + int(sel.sum()), sub, np.int8))
        pos = np.concatenate(ev_pos)
        row = np.concatenate(ev_row)
        sub = np.concatenate(ev_sub)
        page = np.concatenate(ev_page)
        if not len(pos):
            return
        order = np.lexsort((sub, pos, row))
        pos, row, sub, page = pos[order], row[order], sub[order], page[order]
        total = pages[row]
        tpl = np.where(sub == 0, hdr[row], ftr[row])
        # distinct (template, page, total) triples are O(templates × max
        # pages per row) — render each ONCE as a shared new span and
        # gather event ids from the unique inverse (same output text as
        # giving every event its own span; materialize maps sid → text)
        combo = (tpl << 42) | (page << 21) | total
        uniq, inv = np.unique(combo, return_inverse=True)
        m = (1 << 21) - 1
        sid0 = self._new_spans(
            [_render_template(templates[u >> 42], (u >> 21) & m, u & m) for u in uniq.tolist()]
        )
        self._insert(row, pos, -(sid0 + inv.astype(np.int64)) - 1, TEXT)

    def outline_bookmarks(self, on: np.ndarray) -> list[str]:
        """Per-row bookmarks JSON (title = first TEXT span per page) for
        rows where ``on``; "[]" elsewhere. First TEXT span per (row,
        page) via one boundary diff, one Arrow take for all titles —
        only the per-row json.dumps stays Python. A page whose first
        TEXT span holds "" titles "" (None is the no-text sentinel)."""
        row, _is_pb, page, pages = self._span_pages()
        out = ["[]"] * len(pages)
        bm_base = _cum0(pages)
        titles = np.full(int(bm_base[-1]), None, dtype=object)
        t_idx = np.nonzero((self.kind == TEXT) & on[row])[0]
        if len(t_idx):
            slot = bm_base[row[t_idx]] + page[t_idx]  # nondecreasing
            first = np.concatenate(([True], slot[1:] != slot[:-1]))
            got = self._texts().take(self._flat_ids(self.src[t_idx[first]]))
            titles[slot[first]] = _strs(_no_nulls(got))
        for r in np.nonzero(on & (pages > 0))[0]:
            bms = [
                {
                    "title": (t if t is not None else f"Page {p + 1}")[:64],
                    "page": p + 1,
                    "children": [],
                }
                for p, t in enumerate(titles[bm_base[r] : bm_base[r + 1]])
            ]
            out[r] = json.dumps(bms)
        return out

    def split_intervals(self, k: np.ndarray) -> None:
        """Cut each row into parts of ``k[row]`` pages (0: one part)."""
        kk = np.where(k > 0, k, np.iinfo(np.int64).max)
        row, is_pb, page, pages = self._span_pages()
        k_span = kk[row]
        # drop page-breaks at part boundaries ((rank+1) % k == 0)
        keep = ~(is_pb & ((page + 1) % k_span == 0))
        # 0-page rows still yield ONE empty part (≡ spans.split_spans:
        # dropping the row entirely would lose the document silently)
        n_parts = np.maximum(1, -(-pages // kk))
        out_row_base = _cum0(n_parts)
        n_out = int(out_row_base[-1])
        oos = (out_row_base[row] + page // k_span)[keep]
        self.src = self.src[keep]
        self.kind = self.kind[keep]
        self.offsets = _cum0(np.bincount(oos, minlength=n_out))
        self._pages = None
        self.row_src = np.repeat(self.row_src, n_parts)
        self.part_index = (
            np.arange(n_out) - np.repeat(out_row_base[:-1], n_parts)
        ).astype(np.int32)
        self.split_many = np.repeat(n_parts > 1, n_parts)

    def mark_pages(
        self, kind: int, tid: np.ndarray, texts: list[str], at_start: bool,
        first_only: np.ndarray,
    ) -> None:
        """Per row with ``tid >= 0``: a ``kind`` span of text
        ``texts[tid]`` at the start (rotate markers) or end (overlays)
        of every page — of page 1 only where ``first_only`` (at_start)."""
        pb_pos, pb_row, _rank, pages = self._page_structure()
        rows = np.nonzero((pages > 0) & (tid >= 0))[0]
        sel = (tid[pb_row] >= 0) & ~first_only[pb_row]
        if at_start:
            pos = np.concatenate([self.offsets[:-1][rows], pb_pos[sel] + 1])
        else:
            pos = np.concatenate([self.offsets[1:][rows], pb_pos[sel]])
        row = np.concatenate([rows, pb_row[sel]])
        order = np.lexsort((pos, row))
        pos, row = pos[order], row[order]
        sid0 = self._new_spans(texts)
        self._insert(row, pos, -(sid0 + tid[row]) - 1, kind)

    def flatten(self, on: np.ndarray) -> None:
        """Per page of rows where ``on``: [rotate markers][one merged
        TEXT][other spans].

        Fully vectorized: one lexsort over (row, page-slot, class, pos)
        reorders every page at once; page boundaries keep their
        original slots (odd page-slot keys) so PBs land exactly
        between pages; all per-page text merges run as ONE segmented
        ``pc.binary_join``. Other rows keep their span order. Byte-equal
        to the per-row reference loop — pinned by test_convert_vec's
        kernel-vs-row-path parity.
        """
        total = len(self.src)
        if total == 0:
            return
        row, is_pb, page, _pages = self._span_pages()
        span_on = on[row]
        # page-slot: content of page p at 2p, the PB opening page p+1 at
        # 2p+1 — sorts each boundary between its neighboring pages
        slot = np.where(is_pb, 2 * page + 1, 2 * page)
        # within a page: rotate markers, then texts (merged), then rest
        cls = np.where(
            self.kind == ROT, 0, np.where(self.kind == TEXT, 1, 2)
        )
        # reorder the flattened rows' spans only; sorting by row first
        # keeps each inside its row's block
        order = np.arange(total)
        sel = order[span_on]
        order[sel] = sel[np.lexsort((sel, cls[sel], slot[sel], row[sel]))]
        src_o = self.src[order]
        kind_o = self.kind[order]
        row_o = row[order]
        slot_o = slot[order]
        on_o = span_on[order]

        pb_o = is_pb[order] & on_o
        if pb_o.any():
            src_o[pb_o] = self._pb_id()

        keep = np.ones(total, dtype=bool)
        t_idx = np.nonzero((kind_o == TEXT) & on_o)[0]
        if len(t_idx):
            # (row, page) text groups are adjacent among text spans
            first = np.concatenate((
                [True],
                (row_o[t_idx][1:] != row_o[t_idx][:-1])
                | (slot_o[t_idx][1:] != slot_o[t_idx][:-1]),
            ))
            # one segmented join for every group's texts, in span order
            texts = _no_nulls(self._texts().take(self._flat_ids(src_o[t_idx])))
            g_starts = np.nonzero(first)[0]
            g_offsets = np.append(g_starts, len(t_idx)).astype(np.int32)
            merged = _strs(
                pc.binary_join(
                    pa.ListArray.from_arrays(pa.array(g_offsets), texts),
                    pa.scalar(" "),
                )
            )
            sid0 = self._new_spans(merged)
            src_o[t_idx[first]] = -(sid0 + np.arange(len(merged), dtype=np.int64)) - 1
            keep[t_idx[~first]] = False

        self.src = src_o[keep]
        self.kind = kind_o[keep]
        counts = np.bincount(row_o[keep], minlength=len(self.offsets) - 1)
        self.offsets = _cum0(counts)
        self._pages = None

    _pb_sid: int | None = None

    def _pb_id(self) -> int:
        if self._pb_sid is None:
            self._pb_sid = -self._new_spans([""]) - 1
        return self._pb_sid

    # -------------------------------------------------------- materialize
    def materialize(self) -> tuple[pa.ListArray, np.ndarray]:
        """(spans list array, page_count per output row)."""
        take_idx = self._flat_ids(self.src)
        new_media = pa.array([""] * len(self.new_text), pa.string())
        media_all = pa.concat_arrays([self.base_media.cast(pa.string()), new_media])
        kind_str = _KINDS_ARR.take(pa.array(self.kind.astype(np.int64)))
        lens = self._row_lengths()
        within = np.arange(len(self.src), dtype=np.int64) - np.repeat(
            self.offsets[:-1], lens
        )
        struct = pa.StructArray.from_arrays(
            [
                kind_str,
                self._texts().take(take_idx),
                media_all.take(take_idx),
                pa.array(within.astype(np.int32)),
            ],
            names=["kind", "text", "media_ref", "offset"],
        )
        spans = pa.ListArray.from_arrays(
            pa.array(self.offsets.astype(np.int32)), struct
        )
        _row, _is_pb, _page, pages = self._span_pages()
        return spans, pages.astype(np.int32)


def convert_rows(
    spans_col, doc_ids: pa.Array, codes: np.ndarray, plans: list[KernelPlan]
) -> dict[str, pa.Array]:
    """Run the kernel chain once over rows of any number of option
    sets: row i runs ``plans[codes[i]]``. Returns output column arrays
    (same semantics as convert_row over each row; rows in input order,
    each row's parts ascending). Caller guarantees crawl input kinds
    only (``foreign_kind_rows``)."""
    g = _Group(spans_col)
    n_plans = len(plans)

    def per_row(field: str) -> np.ndarray:
        return np.array([getattr(p, field) for p in plans])[codes]

    def text_ids(field: str) -> tuple[np.ndarray, list[str]]:
        # per row: index of its plan's text, -1 where the text is empty
        texts = [getattr(p, field) for p in plans]
        return np.array([i if t else -1 for i, t in enumerate(texts)])[codes], texts

    md = per_row("markdown")
    if md.any():
        g.render_markdown(md)
    # apply_render_options: header/footer then outline (pre-split)
    hdr, headers = text_ids("header")
    ftr, footers = text_ids("footer")
    if (hdr >= 0).any() or (ftr >= 0).any():
        g.header_footer(hdr, np.where(ftr >= 0, ftr + n_plans, -1), headers + footers)
    outline = per_row("outline")
    bookmarks = g.outline_bookmarks(outline) if outline.any() else None
    split_k = per_row("split_k")
    if split_k.any():
        g.split_intervals(split_k)
    # post-split stages act on parts: per-row parameters follow row_src
    rs = g.row_src
    wm, wm_texts = text_ids("watermark")
    if (wm >= 0).any():
        g.mark_pages(WM, wm[rs], wm_texts, False, np.zeros(len(rs), bool))
    rot, rot_texts = text_ids("rotate")
    if (rot >= 0).any():
        g.mark_pages(ROT, rot[rs], rot_texts, True, per_row("rotate_first")[rs])
    flat = per_row("flatten")[rs]
    if flat.any():
        g.flatten(flat)

    spans, page_count = g.materialize()
    out_doc = names = doc_ids.take(pa.array(rs))
    if g.split_many.any():  # split naming: name_i when a doc has parts
        suffix = pc.binary_join_element_wise("_", pc.cast(pa.array(g.part_index), pa.string()), "")
        suffix = pc.if_else(pa.array(g.split_many), suffix, "")
        names = pc.binary_join_element_wise(out_doc, suffix, "")
    n = len(rs)
    out_codes = pa.array(codes[rs])

    def per_part(field: str, typ: pa.DataType) -> pa.Array:
        return pa.array([getattr(p, field) for p in plans], typ).take(out_codes)

    return {
        "doc_id": out_doc,
        "part_index": pa.array(g.part_index),
        "spans": spans,
        "output_name": names,
        "pdfa": per_part("pdfa", pa.string()),
        "pdfua": per_part("pdfua", pa.bool_()),
        "metadata_json": per_part("metadata_json", pa.string()),
        "bookmarks_json": (
            pa.array(bookmarks, pa.string()).take(pa.array(rs))
            if bookmarks is not None
            else pa.array(["[]"] * n, pa.string())
        ),
        "encrypt_json": pa.array([""] * n, pa.string()),
        "status": pa.array(["success"] * n, pa.string()),
        "error_type": pa.array([""] * n, pa.string()),
        "page_count": pa.array(page_count),
    }
