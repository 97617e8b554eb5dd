"""Span algebra — the PdfEngine operator set over interleaved span lists.

The reference's central transform interface is ``gotenberg.PdfEngine``
(/root/reference/pkg/gotenberg/pdfengine.go:266-338): Merge, Split,
Flatten, Convert, Read/WriteMetadata, PageCount, Read/WriteBookmarks,
Encrypt, EmbedFiles(+Metadata), Watermark, Stamp, Rotate,
InjectFacturXXMP, ReadPdfAConformance. Our documents are ordered span
sequences, not binary PDFs, so each method the engine runs becomes a
pure function over ``list[span]`` (span = dict(kind, text, media_ref,
offset)); Merge (with its bookmark shift) has no route here.

Representation contract:
- a *page boundary* is a ``kind="page_break"`` span BETWEEN pages;
  ``page_count = #page_breaks + 1`` for non-empty docs.
- page-level attributes (rotation) are marker spans at the START of the
  page's span run (``kind="rotate"``, text=angle).
- watermark/stamp spans are appended at the END of each selected page;
  embeds at the END of the document.
- offsets are always re-normalized to 0..n-1 after every op — order IS
  the per-row invariant (kind, text, media_ref, order).

Semantics preserved exactly from the reference (file:line cited per op):
split naming/unify (pdfengines/routes.go:279-331), metadata
write-is-merge + dangerous-tag drop (exiftool.go:33-158,354-400),
owner-only encryption defaulting (qpdf.go:366-369), perms-without-
password → 400 (routes.go:688-697), rotate angle domain
(routes.go:176-189), watermark/stamp source coupling
(routes.go:763-818,840-876), Factur-X PDF/A-3b coercion + idempotence
(routes.go:563-593, qpdf.go:722-799), PDF/A format domain
(pdfengine.go:75-101).
"""

from __future__ import annotations

import json
import re
from typing import Any

from .schemas import (
    KIND_EMBED,
    KIND_PAGE_BREAK,
    KIND_ROTATE,
    KIND_STAMP,
    KIND_TEXT,
    KIND_WATERMARK,
    make_span,
)

Span = dict


class InvalidInput(ValueError):
    """Maps to the reference's 400 family (SentinelHttpError 400)."""


class MethodNotSupported(ValueError):
    """Maps to ErrPdfEngineMethodNotSupported (pdfengine.go:13)."""


# --------------------------------------------------------------------------
# basics


def renumber(spans: list[Span]) -> list[Span]:
    """Re-assign offsets 0..n-1 preserving order (the ordering contract)."""
    return [
        {**s, "offset": i}
        for i, s in enumerate(spans)
    ]


def pages_of(spans: list[Span]) -> list[list[Span]]:
    """Split a span list into pages at page_break separators.

    The separators themselves are dropped; ``join_pages`` re-inserts
    them, so pages_of/join_pages round-trip.
    """
    if not spans:
        return []
    pages: list[list[Span]] = [[]]
    for s in spans:
        if s["kind"] == KIND_PAGE_BREAK:
            pages.append([])
        else:
            pages[-1].append(s)
    return pages


def join_pages(pages: list[list[Span]]) -> list[Span]:
    out: list[Span] = []
    for i, p in enumerate(pages):
        if i:
            out.append(make_span(KIND_PAGE_BREAK))
        out.extend(p)
    return renumber(out)


def page_count(spans: list[Span]) -> int:
    """PageCount (exiftool.go:403-453 semantics: whole-doc page count)."""
    if not spans:
        return 0
    return sum(1 for s in spans if s["kind"] == KIND_PAGE_BREAK) + 1


# --------------------------------------------------------------------------
# page selection — pdfcpu-style "1-3,5,7-" 1-based selections


def parse_page_selection(expr: str, n_pages: int) -> list[int]:
    """Parse "1-2,4", "2-", "-3" → sorted unique 0-based page indices."""
    expr = (expr or "").strip()
    if not expr or expr.lower() == "all":
        return list(range(n_pages))
    out: set[int] = set()
    for tok in expr.split(","):
        tok = tok.strip()
        if not tok:
            continue
        m = re.fullmatch(r"(\d+)?\s*-\s*(\d+)?", tok)
        open_hi = False
        if m and (m.group(1) or m.group(2)):
            lo = int(m.group(1)) if m.group(1) else 1
            hi = int(m.group(2)) if m.group(2) else n_pages
            open_hi = m.group(2) is None
        elif re.fullmatch(r"\d+", tok):
            lo = hi = int(tok)
        else:
            raise InvalidInput(f"invalid page selection {expr!r}")
        # 'N-' means "page N to the end": on a document shorter than N
        # it selects nothing, exactly like the bounded 'N-M' clipping —
        # the lo > hi rejection applies only when BOTH endpoints are
        # explicit (review-found: '2-' 400'd on a 1-page doc while
        # '2-99' silently selected nothing)
        if lo < 1 or (lo > hi and not open_hi):
            raise InvalidInput(f"invalid page selection {expr!r}")
        out.update(range(lo - 1, min(hi, n_pages)))
    return sorted(i for i in out if 0 <= i < n_pages)


# --------------------------------------------------------------------------
# Split (pdfcpu.go:164-230 modes; naming/unify pdfengines/routes.go:279-331)

SPLIT_INTERVALS = "intervals"
SPLIT_PAGES = "pages"


def split_spans(
    spans: list[Span], mode: str, span_arg: str, unify: bool = False
) -> list[list[Span]]:
    """Split → list of parts (part_index = list position).

    - mode="intervals", span=n: chunks of n pages (`split --mode span`).
    - mode="pages": pdfcpu extract semantics — one part per selected
      page; unify=True → a single part holding the selected pages (the
      qpdf/pdftk unify-only path, qpdf.go:124-171), base name kept.
    """
    n = page_count(spans)
    pages = pages_of(spans)
    if mode == SPLIT_INTERVALS:
        try:
            k = int(span_arg)
        except (TypeError, ValueError):
            raise InvalidInput(f"split span must be an int, got {span_arg!r}")
        if k < 1:
            raise InvalidInput("split span must be >= 1")
        if unify:
            raise InvalidInput("split unify is incompatible with mode=intervals")
        if not pages:
            # a zero-page document still yields ONE (empty) part —
            # returning [] would silently drop the document from the
            # output (no part row, no error row)
            return [[]]
        return [join_pages(pages[i : i + k]) for i in range(0, len(pages), k)]
    if mode == SPLIT_PAGES:
        sel = parse_page_selection(span_arg, n)
        if not sel:
            raise InvalidInput(f"empty page selection {span_arg!r}")
        if unify:
            return [join_pages([pages[i] for i in sel])]
        return [join_pages([pages[i]]) for i in sel]
    raise InvalidInput(f"invalid split mode {mode!r}")


# --------------------------------------------------------------------------
# Flatten (qpdf --flatten-annotations=all, qpdf.go:210-242): annotation
# overlays (watermark/stamp markers) become immutable page text; runs of
# text spans merge into one span per page.


def flatten_spans(spans: list[Span]) -> list[Span]:
    out_pages: list[list[Span]] = []
    for page in pages_of(spans):
        merged_text: list[str] = []
        kept: list[Span] = []
        for s in page:
            if s["kind"] == KIND_TEXT:
                merged_text.append(s["text"])
            elif s["kind"] in (KIND_WATERMARK, KIND_STAMP):
                label = "watermark" if s["kind"] == KIND_WATERMARK else "stamp"
                merged_text.append(f"[{label}:{s['text'] or s['media_ref']}]")
            else:
                kept.append(s)
        page_out: list[Span] = []
        # keep rotation markers first (page-attribute position contract)
        page_out.extend(s for s in kept if s["kind"] == KIND_ROTATE)
        if merged_text:
            page_out.append(make_span(KIND_TEXT, text=" ".join(merged_text)))
        page_out.extend(s for s in kept if s["kind"] != KIND_ROTATE)
        out_pages.append(page_out)
    return join_pages(out_pages)


# --------------------------------------------------------------------------
# Rotate (pdfcpu per-page rotate, pdfcpu.go:629-660; angle domain
# routes.go:176-189). Rotation accumulates mod 360; zero markers drop.

VALID_ANGLES = (90, 180, 270)


def rotate_spans(spans: list[Span], angle: int, pages_expr: str = "") -> list[Span]:
    if angle not in VALID_ANGLES:
        raise InvalidInput(f"rotate angle must be one of {VALID_ANGLES}, got {angle}")
    n = page_count(spans)
    sel = set(parse_page_selection(pages_expr, n))
    out_pages: list[list[Span]] = []
    for i, page in enumerate(pages_of(spans)):
        if i not in sel:
            out_pages.append(page)
            continue
        existing = 0
        rest = page
        if page and page[0]["kind"] == KIND_ROTATE:
            existing = int(page[0]["text"])
            rest = page[1:]
        total = (existing + angle) % 360
        marker = [make_span(KIND_ROTATE, text=str(total))] if total else []
        out_pages.append(marker + rest)
    return join_pages(out_pages)


# --------------------------------------------------------------------------
# Watermark / Stamp (pdfcpu.go:591-626; source validation
# routes.go:763-818,840-876: text needs an expression, image/pdf need a
# file reference). Applied to every selected page, appended at page end.

WATERMARK_SOURCES = ("text", "image", "pdf")


def _overlay(
    spans: list[Span],
    kind: str,
    source: str,
    expression: str,
    media_ref: str,
    pages_expr: str,
) -> list[Span]:
    if source not in WATERMARK_SOURCES:
        raise InvalidInput(f"{kind} source must be one of {WATERMARK_SOURCES}")
    if source == "text" and not expression:
        raise InvalidInput(f"{kind} with source=text requires an expression")
    if source in ("image", "pdf") and not media_ref:
        raise InvalidInput(f"{kind} with source={source} requires a file")
    n = page_count(spans)
    sel = set(parse_page_selection(pages_expr, n))
    overlay = make_span(
        kind,
        text=expression if source == "text" else "",
        media_ref=media_ref if source != "text" else "",
    )
    out_pages = [
        page + [dict(overlay)] if i in sel else page
        for i, page in enumerate(pages_of(spans))
    ]
    return join_pages(out_pages)


def watermark_spans(spans, source, expression="", media_ref="", pages_expr=""):
    return _overlay(spans, KIND_WATERMARK, source, expression, media_ref, pages_expr)


def stamp_spans(spans, source, expression="", media_ref="", pages_expr=""):
    return _overlay(spans, KIND_STAMP, source, expression, media_ref, pages_expr)


# --------------------------------------------------------------------------
# EmbedFiles (+metadata) (pdfcpu attachments add :497-533; qpdf filespec
# metadata patch :425-474). Embeds live at document end; metadata
# (mimeType/relationship) rides in the span text as canonical JSON.


def embed_files_spans(spans: list[Span], files: list[dict]) -> list[Span]:
    out = [dict(s) for s in spans]
    for f in files:
        ref = f.get("media_ref", "")
        if not ref:
            raise InvalidInput("embed requires a file reference")
        meta = {
            k: f[k]
            for k in ("name", "mimeType", "relationship", "description")
            if f.get(k)
        }
        out.append(
            make_span(
                KIND_EMBED,
                text=json.dumps(meta, sort_keys=True) if meta else "",
                media_ref=ref,
            )
        )
    return renumber(out)


# --------------------------------------------------------------------------
# Metadata (exiftool): Read = the column itself. Write = MERGE, never a
# rewrite (exiftool.go:354-357), dropping dangerous pseudo-tags and
# validating keys/values (exiftool.go:33-158).

DANGEROUS_METADATA_KEYS = frozenset(
    {"FileName", "Directory", "HardLink", "SymLink", "FilePermissions"}
)
_METADATA_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_:\-]*$")
_CTRL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


def write_metadata(existing_json: str, new_values: dict[str, Any]) -> str:
    meta = json.loads(existing_json) if existing_json else {}
    for k, v in new_values.items():
        if k in DANGEROUS_METADATA_KEYS:
            continue  # silently dropped, like the exiftool guard
        if not _METADATA_KEY_RE.match(k):
            raise InvalidInput(f"invalid metadata key {k!r}")
        if isinstance(v, str) and _CTRL_RE.search(v):
            raise InvalidInput(f"control characters in metadata value for {k!r}")
        meta[k] = v
    return json.dumps(meta, sort_keys=True)


# --------------------------------------------------------------------------
# Encrypt (qpdf.go:332-405): owner password defaults to the user
# password when empty (qpdf.go:366-369); restricting permissions without
# any password is a 400 (pdfengines/routes.go:688-697).

PERMISSION_FLAGS = (
    "allow_print",
    "allow_modify",
    "allow_copy",
    "allow_annotate",
    "allow_fill_forms",
    "allow_assemble",
)


def encrypt_options(
    user_password: str = "",
    owner_password: str = "",
    **perms: bool,
) -> dict:
    unknown = set(perms) - set(PERMISSION_FLAGS)
    if unknown:
        raise InvalidInput(f"unknown permission flags {sorted(unknown)}")
    restricting = any(perms.get(p) is False for p in PERMISSION_FLAGS)
    if (restricting or perms) and not (user_password or owner_password):
        raise InvalidInput("permissions require a user or owner password")
    if not (user_password or owner_password):
        raise InvalidInput("encrypt requires a password")
    if not owner_password:
        owner_password = user_password  # owner-only defaulting, qpdf.go:366-369
    resolved = {p: bool(perms.get(p, True)) for p in PERMISSION_FLAGS}
    return {
        "user_password": user_password,
        "owner_password": owner_password,
        **resolved,
    }


# --------------------------------------------------------------------------
# Convert — PDF/A / PDF/UA tagging (libreoffice pdfengine.go:67-81,
# format domain gotenberg/pdfengine.go:75-101). LibreOffice strips
# metadata on convert, which is why metadata writes happen AFTER convert
# in the route chain (chromium/routes.go:888-889) — model that by
# clearing the metadata column here.

PDFA_FORMATS = ("", "PDF/A-1b", "PDF/A-2b", "PDF/A-3b")


def convert_format(
    pdfa: str, pdfua: bool, metadata_json: str
) -> tuple[str, bool, str]:
    if pdfa not in PDFA_FORMATS:
        raise MethodNotSupported(f"PDF format {pdfa!r} is not supported")
    if not pdfa and not pdfua:
        return pdfa, pdfua, metadata_json
    return pdfa, pdfua, "{}"  # convert strips metadata


# --------------------------------------------------------------------------
# Factur-X (routes.go:563-593 coercion; qpdf.go:722-799 XMP idempotence)

FACTURX_EMBED_NAME = "factur-x.xml"


def facturx_coerce_format(pdfa: str) -> str:
    if pdfa in ("", "PDF/A-3b"):
        return "PDF/A-3b"
    raise InvalidInput(f"Factur-X requires PDF/A-3b, got {pdfa!r}")


def apply_facturx(spans: list[Span], xml_ref: str) -> list[Span]:
    """Embed factur-x.xml under its canonical name; idempotent."""
    for s in spans:
        if s["kind"] == KIND_EMBED and s["text"]:
            try:
                if json.loads(s["text"]).get("name") == FACTURX_EMBED_NAME:
                    return renumber([dict(x) for x in spans])  # already applied
            except json.JSONDecodeError:
                pass
    return embed_files_spans(
        spans,
        [{"media_ref": xml_ref, "name": FACTURX_EMBED_NAME, "mimeType": "text/xml"}],
    )
