"""downloadFrom semantics: remote-input acquisition as a batch stage.

The reference downloads each ``downloadFrom`` form-field entry before a
conversion starts (/root/reference/pkg/modules/api/context.go:208-431):
SSRF-filter the URL (``FilterOutboundURL``), GET with bounded retries
(4 retries, 1–30 s backoff), require HTTP 200 **and** a
``Content-Disposition`` header, take its ``filename`` param, sanitize
it (path separators + control chars stripped, NFC — context.go:692-703
via scalars.sanitize_filename), store under a collision-proof disk name
that keeps only the extension (NAME_MAX defense, issue #1500), and
route the file into a form-field bucket (``embedded`` → embeds,
``watermark``, ``stamp``) for the conversion chain.

Here the network dial is injected (``transport(url, headers) ->
(status, content_disposition, bytes)``) — a real deployment passes an
HTTP client built once per actor; tests and the sandbox pass a
deterministic fake. Everything else — entry validation, SSRF decision,
retry envelope, header parsing, naming, field routing — is the
reference algebra, vectorized per batch.

Output: one row per downloadFrom entry with the 400-family error
taxonomy on failures (empty URL, filtered URL, bad JSON, non-200,
missing/invalid Content-Disposition)."""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from email.message import Message

import pyarrow as pa

from ..functions.hashing import fnv64
from ..functions.scalars import sanitize_filename
from ..functions.urlkit import UrlFilter, url_host
from ..schemas import DOWNLOAD_MAX_RETRIES, ERR_FILTERED, ERR_INVALID_INPUT, ERR_NONE

RESULT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("entry_index", pa.int32()),
        ("url", pa.string()),
        ("form_field", pa.string()),  # "" | embeds | watermark | stamp
        ("filename", pa.string()),  # sanitized original name
        ("disk_name", pa.string()),  # collision-proof name, original ext
        ("n_bytes", pa.int64()),
        ("attempts", pa.int32()),
        ("http_status", pa.int32()),
        ("error_type", pa.string()),
        ("error_detail", pa.string()),
    ]
)

# context.go:414-421 field routing
_FIELD_MAP = {"embedded": "embeds", "watermark": "watermark", "stamp": "stamp"}


def parse_content_disposition_filename(header: str) -> str | None:
    """``mime.ParseMediaType`` → params["filename"] analogue
    (context.go:322-346): RFC 2183/2231-aware, quoted strings and
    extended ``filename*=`` both handled; None when absent/invalid."""
    if not header or not header.strip():
        return None
    m = Message()
    m["content-disposition"] = header
    name = m.get_param("filename", header="content-disposition")
    if name is None:
        return None
    if isinstance(name, tuple):  # RFC 2231 (charset, lang, value)
        charset = name[0] or "utf-8"
        try:
            name = bytes(name[2], "latin-1").decode(charset, "replace")
        except (LookupError, UnicodeError):
            name = name[2]
    return str(name)


def disk_name_for(doc_id: str, url: str, filename: str, entry_index: int = 0) -> str:
    """UUID-on-disk analogue (issue #1500, context.go:349-352):
    collision-proof per (request, entry) — the ENTRY INDEX is part of
    the hash so two entries sharing a URL in one request (watermark +
    stamp from the same asset) get distinct files. Keeps only the
    extension so arbitrarily long original names can't exceed
    NAME_MAX. Deterministic (hash, not uuid4) — same inputs, same
    checkpointable name."""
    h = int(fnv64([f"{doc_id}\x00{url}\x00{entry_index}"])[0])
    ext = os.path.splitext(filename)[1][:16]
    return f"dl-{h:016x}{ext}"


class DownloadFromStage:
    """Actor-pool stage: rows ``(doc_id, download_from_json)`` → one
    result row per entry. Regexes compile and the transport builds once
    per actor (``__init__``); batches stream through ``__call__``."""

    def __init__(
        self,
        transport: Callable[[str, dict], tuple[int, str, bytes]] | None = None,
        allow: tuple[str, ...] = (),
        deny: tuple[str, ...] = (),
        deny_private_ips: bool = True,
        deny_public_ips: bool = False,
        max_retries: int = DOWNLOAD_MAX_RETRIES,
        sleep: Callable[[float], None] | None = None,
    ):
        self.transport = transport or _synthetic_transport
        self.policy = UrlFilter(allow, deny, deny_private_ips, deny_public_ips)
        self.max_retries = int(max_retries)
        self.sleep = sleep or (lambda s: None)

    def _fetch(self, url: str, headers: dict) -> tuple[int, str, bytes, int]:
        """Bounded-retry GET (context.go:286-295: RetryMax=4, wait
        1–30 s, default retry policy = retry on 5xx/connection error)."""
        attempts, backoff = 0, 1.0
        while True:
            attempts += 1
            try:
                status, cd, body = self.transport(url, headers)
            except Exception:  # noqa: BLE001 — connection errors retry
                status, cd, body = 0, "", b""
            if not (status == 0 or status >= 500) or attempts > self.max_retries:
                return status, cd, body, attempts
            self.sleep(backoff)
            backoff = min(backoff * 2, 30.0)

    def _one(self, doc_id: str, idx: int, dl: dict) -> dict:
        base = {
            "doc_id": doc_id,
            "entry_index": idx,
            "url": str(dl.get("url") or ""),
            "form_field": "",
            "filename": "",
            "disk_name": "",
            "n_bytes": 0,
            "attempts": 0,
            "http_status": 0,
            "error_type": ERR_NONE,
            "error_detail": "",
        }
        url = base["url"]
        if not url.strip():
            # context.go:240-245: URL must be set → 400
            base["error_type"] = ERR_INVALID_INPUT
            base["error_detail"] = f"Invalid 'downloadFrom' form field entry {idx}: URL must be set"
            return base
        reason = self.policy.reasons([url], [url_host(url)])[0]
        if reason:
            base["error_type"] = ERR_FILTERED
            base["error_detail"] = reason
            return base
        headers = {"User-Agent": "Gotenberg"}
        extra = dl.get("extraHttpHeaders") or {}
        if isinstance(extra, dict):
            headers.update({str(k): str(v) for k, v in extra.items()})
        status, cd, body, attempts = self._fetch(url, headers)
        base["attempts"] = attempts
        base["http_status"] = status
        if status != 200:
            base["error_type"] = ERR_INVALID_INPUT
            base["error_detail"] = f"Unable to download file from '{url}': got status: '{status}'"
            return base
        if not cd:
            base["error_type"] = ERR_INVALID_INPUT
            base["error_detail"] = f"No 'Content-Disposition' header from '{url}'"
            return base
        filename = parse_content_disposition_filename(cd)
        if not filename:
            base["error_type"] = ERR_INVALID_INPUT
            base["error_detail"] = (
                f"Invalid 'Content-Disposition' header '{cd}' from '{url}': no filename"
            )
            return base
        filename = sanitize_filename(filename)
        base["filename"] = filename
        base["disk_name"] = disk_name_for(doc_id, url, filename, idx)
        base["n_bytes"] = len(body)
        field = dl.get("field") or ("embedded" if dl.get("embedded") else "")
        base["form_field"] = _FIELD_MAP.get(str(field), "")
        return base

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        raws = batch.column("download_from_json").to_pylist()
        rows: list[dict] = []
        for doc_id, raw in zip(doc_ids, raws):
            try:
                entries = json.loads(raw or "[]")
                if not isinstance(entries, list):
                    raise ValueError("expected a JSON array")
            except ValueError as e:
                rows.append(
                    {
                        "doc_id": doc_id,
                        "entry_index": -1,
                        "url": "",
                        "form_field": "",
                        "filename": "",
                        "disk_name": "",
                        "n_bytes": 0,
                        "attempts": 0,
                        "http_status": 0,
                        "error_type": ERR_INVALID_INPUT,
                        "error_detail": f"Invalid 'downloadFrom' form field value: {e}",
                    }
                )
                continue
            for i, dl in enumerate(entries):
                rows.append(self._one(doc_id, i, dl if isinstance(dl, dict) else {}))
        if not rows:
            return RESULT_SCHEMA.empty_table()
        return pa.table(
            {f.name: pa.array([r[f.name] for r in rows], f.type) for f in RESULT_SCHEMA},
            schema=RESULT_SCHEMA,
        )


def _synthetic_transport(url: str, headers: dict) -> tuple[int, str, bytes]:
    """Deterministic sandbox transport: status/filename/payload derive
    from the URL hash (no network in this container). ~4% of URLs 404,
    ~4% return 500 (exercising the retry path), the rest 200 with a
    Content-Disposition filename."""
    h = int(fnv64([url])[0])
    roll = h % 100
    if roll < 4:
        return 404, "", b""
    if roll < 8:
        return 500, "", b""
    name = f"remote-{h % 100000:05d}.{('pdf', 'docx', 'png')[h % 3]}"
    body = bytes((h >> (8 * (i % 8))) & 0xFF for i in range(h % 2000 + 100))
    return 200, f'attachment; filename="{name}"', body
