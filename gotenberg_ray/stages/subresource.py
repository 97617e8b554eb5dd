"""Per-sub-resource admission: the Chromium pause-filter decision
algebra as a pure vectorized stage over media spans.

The reference intercepts every sub-resource request a page render makes
(``Fetch.requestPaused``) and decides allow/deny + extra headers before
the request leaves the browser:

- allow-list OR / deny-list always + IP-class policy —
  /root/reference/pkg/modules/chromium/events.go:46-189 delegating to
  pkg/gotenberg/outbound.go:69-114 (``FilterOutboundURL``);
- ``file://`` sub-resources default-deny unless inside an allowed
  working-directory prefix — events.go:95-98,277-287
  (``isAllowedFileSubResource``);
- scoped extraHttpHeaders: a header applies when it has no scope or its
  scope regex matches the sub-resource URL — events.go:123-150;
- the reference's pinning proxy then resolves each allowed host once
  and dials only those addresses — pinning_proxy.go:22-110. The engine
  opens no sockets, so the IP-class policy judges literal-IP hosts only
  and DNS names pass it unresolved.

In the span model a page's sub-resources are its media spans, so the
stage flattens ``spans`` (``list<struct>``) Arrow-natively, decides per
``media_ref`` (the outbound policy once per distinct ref in a batch),
and emits one decision row per sub-resource. Stateful setup (regex
compile, header memo) happens once per actor in ``__init__`` — pass
the class to ``map_batches(..., concurrency=N)``.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.scalars import parse_scoped_header
from ..functions.urlkit import UrlFilter, url_host
from ..schemas import ERR_FILTERED, KIND_MEDIA

DECISION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("allowed", pa.bool_()),
        ("reason", pa.string()),  # "" | filtered:* | file_prefix
        ("headers", pa.list_(pa.string())),  # "Name: value" applied entries
    ]
)

# the sub-resource reason beside the outbound ones (urlkit.REASON_*);
# all map to the ERR_FILTERED/403 family — schemas.ERROR_TYPES stays
# the outward taxonomy
REASON_FILE_PREFIX = "filtered:file_prefix"

assert ERR_FILTERED == "filtered"


def is_allowed_file_subresource(raw_url: str, prefixes: tuple[str, ...]) -> bool:
    """events.go:277-287: an empty prefix list rejects EVERY ``file://``
    sub-resource (default-deny blocks cross-request /tmp enumeration);
    otherwise the URL must start with ``file://`` + some prefix."""
    if not prefixes:
        return False
    return any(raw_url.startswith("file://" + p) for p in prefixes)


class SubResourceAdmission:
    """Actor-pool stage: flatten media spans → one decision row each.

    ``__call__`` input batches need columns ``doc_id``, ``spans`` and
    optionally ``route`` / ``options_json`` (both default to the
    ``convert/url`` posture: no local-file prefix, no extra headers).

    Routes that render local files (anything but ``*/url``) get the
    per-request working directory ``{workdir}/{doc_id}/`` as their one
    allowed file prefix, mirroring the reference populating
    ``allowedFilePrefixes`` with the request's working dir.
    """

    def __init__(
        self,
        allow: tuple[str, ...] = (),
        deny: tuple[str, ...] = (),
        deny_private_ips: bool = False,
        deny_public_ips: bool = False,
        workdir: str = "/tmp/gotenberg",
    ):
        self.policy = UrlFilter(allow, deny, deny_private_ips, deny_public_ips)
        self.workdir = workdir.rstrip("/")
        # parsed extraHttpHeaders per options_json string
        self._header_memo: dict[str, list[tuple[str, str, re.Pattern | None]]] = {}

    def _headers(self, options_json: str) -> list[tuple[str, str, re.Pattern | None]]:
        parsed = self._header_memo.get(options_json)
        if parsed is None:
            parsed = []
            try:
                raw = json.loads(options_json or "{}").get("extraHttpHeaders", {})
            except (ValueError, AttributeError):
                raw = {}
            if isinstance(raw, dict):
                for name, value in raw.items():
                    try:
                        val, scope = parse_scoped_header(str(value))
                    except re.error:
                        continue  # malformed scope: header skipped (logged upstream)
                    parsed.append((str(name), val, scope))
            self._header_memo[options_json] = parsed
        return parsed

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()  # child struct rows
        parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        kinds = flat.field("kind")
        is_media = pc.equal(kinds, KIND_MEDIA).to_numpy(zero_copy_only=False)
        if not is_media.any():
            return DECISION_SCHEMA.empty_table()
        midx = np.nonzero(is_media)[0]
        rows = parents[midx]
        # media refs repeat heavily across docs: one outbound decision
        # per distinct ref in the batch
        refs_arr = flat.field("media_ref").take(pa.array(midx))
        refs_enc = refs_arr.dictionary_encode()
        distinct = refs_enc.dictionary
        outbound = self.policy.reasons(
            distinct, [url_host(u) for u in distinct.to_pylist()]
        )[refs_enc.indices.to_numpy(zero_copy_only=False)]
        refs = refs_arr.to_pylist()

        doc_ids = batch.column("doc_id").to_pylist()
        routes = (
            batch.column("route").to_pylist()
            if "route" in batch.column_names
            else ["convert/url"] * batch.num_rows
        )
        options = (
            batch.column("options_json").to_pylist()
            if "options_json" in batch.column_names
            else ["{}"] * batch.num_rows
        )

        allowed = np.empty(len(refs), dtype=bool)
        reasons: list[str] = []
        headers_col: list[list[str]] = []
        for i, (ref, row, reason) in enumerate(zip(refs, rows, outbound)):
            if not reason and ref.startswith("file://"):
                # local-file routes allow exactly their own workdir
                route = routes[row] or ""
                prefixes = (
                    (f"{self.workdir}/{doc_ids[row]}/",)
                    if route and not route.endswith("/url")
                    else ()
                )
                if not is_allowed_file_subresource(ref, prefixes):
                    reason = REASON_FILE_PREFIX
            ok = not reason
            allowed[i] = ok
            reasons.append(reason)
            if ok:
                hdrs = [
                    f"{name}: {val}"
                    for name, val, scope in self._headers(options[row])
                    if scope is None or scope.search(ref)
                ]
            else:
                hdrs = []
            headers_col.append(hdrs)

        return pa.table(
            {
                "doc_id": pa.array([doc_ids[r] for r in rows], pa.string()),
                "media_ref": pa.array(refs, pa.string()),
                "allowed": pa.array(allowed),
                "reason": pa.array(reasons, pa.string()),
                "headers": pa.array(headers_col, pa.list_(pa.string())),
            },
            schema=DECISION_SCHEMA,
        )
