"""Arrow schemas + bounded constants for every table the engine touches.

The data model (SURVEY.md §1.2, BASELINE.json input_hint): one logical
table of interleaved text+media documents,

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

plus the crawl-side tables (frontier, pages, seen_checkpoint, metrics)
from FIXTURES.md. Error taxonomy mirrors the reference's bounded set
(/root/reference/pkg/gotenberg/errortype.go:15-44).
"""

from __future__ import annotations

import pyarrow as pa

# --------------------------------------------------------------------------
# span kinds. "text"/"media" are input kinds (input_hint); the rest are
# produced by conversion stages (FIXTURES.md §1).
KIND_TEXT = "text"
KIND_MEDIA = "media"
KIND_PAGE_BREAK = "page_break"
KIND_WATERMARK = "watermark"
KIND_STAMP = "stamp"
KIND_EMBED = "embed"
KIND_ROTATE = "rotate"  # page-attribute marker emitted by the rotate op

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
SPANS_TYPE = pa.list_(SPAN_STRUCT)

DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPANS_TYPE),
    ]
)

# --------------------------------------------------------------------------
# crawl frontier row (FIXTURES.md §2). `options` is kept as a JSON string
# column to stay Arrow-native for the open parts (metadata, bookmarks).
FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_canon", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("priority", pa.int32()),
        ("next_fetch_time", pa.int64()),
        ("route", pa.string()),
        ("options_json", pa.string()),
        ("doc_id", pa.string()),
        ("seq", pa.int64()),
    ]
)

METRICS_STRUCT = pa.struct(
    [
        ("request_count", pa.int64()),
        ("bytes_total", pa.int64()),
        ("failed_count", pa.int64()),
        ("unique_origins", pa.int64()),
    ]
)

PAGES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("part_index", pa.int32()),
        ("spans", SPANS_TYPE),
        ("status", pa.string()),
        ("error_type", pa.string()),
        ("metrics", METRICS_STRUCT),
    ]
)

# --------------------------------------------------------------------------
# bounded error taxonomy — keep EXACTLY the reference's classes
# (errortype.go:15-21) plus the per-module families it maps into
# (chromium.go:1081-1097, libreoffice api.go:768-779, middlewares.go:38-88).
ERR_NONE = ""
ERR_TIMEOUT = "timeout"
ERR_CANCEL = "cancel"
ERR_QUEUE_FULL = "queue_full"
ERR_RESTART = "restart"
ERR_INVALID_INPUT = "invalid_input"
ERR_FILTERED = "filtered"  # deny-list / IP policy / scheme reject (403 family)
ERR_UNKNOWN = "unknown"

ERROR_TYPES = (
    ERR_NONE,
    ERR_TIMEOUT,
    ERR_CANCEL,
    ERR_QUEUE_FULL,
    ERR_RESTART,
    ERR_INVALID_INPUT,
    ERR_FILTERED,
    ERR_UNKNOWN,
)

STATUS_SUCCESS = "success"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

# error → HTTP status mapping (middlewares.go:38-88)
ERROR_HTTP_STATUS = {
    ERR_TIMEOUT: 503,
    ERR_CANCEL: 499,
    ERR_QUEUE_FULL: 429,
    ERR_RESTART: 503,
    ERR_INVALID_INPUT: 400,
    ERR_FILTERED: 403,
    ERR_UNKNOWN: 500,
}

# network-aggregate origin cap (network_aggregate.go:58-62)
MAX_UNIQUE_ORIGINS = 64

# downloadFrom / webhook retry bound (BASELINE.md §A)
DOWNLOAD_MAX_RETRIES = 4


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def make_span(kind: str, text: str = "", media_ref: str = "", offset: int = 0) -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}
