"""LibreOffice-route pipeline (SURVEY §3.2, /root/reference/pkg/modules/
libreoffice/routes.go:20-554): N input documents → per-file conversion
→ optional merge (input order, with bookmark offsets) → the shared
post-processing chain → zip-naming (``document.docx`` →
``document.docx.pdf``, routes.go:531-544).

The reference converts the files of one request SEQUENTIALLY because
one request is one thread; the semantics only require input ORDER for
the merge, so here the per-file dimension is the parallel one
(``map_batches`` over files, then ``groupby(merge_group).map_groups``
for the merge) — SURVEY §3.3's mapping.

The office backend runs under the reference's supervisor envelope:
maxConcurrency=1 per worker (api.go:380 — one in-flight conversion per
actor), restart after 10 conversions (api.go:330), core-dump retries
≤10 (api/api.go:674-739). The "conversion" itself is the deterministic
span normalization below — a real soffice/unoconverter call plugs into
``OfficeBackend.convert``.
"""

from __future__ import annotations


import pyarrow as pa

from .. import spans as S
from ..schemas import (
    ERR_INVALID_INPUT,    LIBREOFFICE_RESTART_AFTER,    STATUS_ERROR,)
from ..stages.supervisor import Supervisor, SupervisorConfig
from .convert import PAGES_OUT_SCHEMA, ConvertOptions, PartRow, convert_row

OFFICE_EXTENSIONS = (
    ".docx", ".doc", ".odt", ".xlsx", ".xls", ".ods", ".pptx", ".ppt", ".odp",
    ".rtf", ".txt", ".html",
)


class OfficeBackend:
    """The soffice/unoconverter seam. start/stop/healthy mirror the
    UNO-socket daemon lifecycle; convert() here is a deterministic
    normalization (office docs render text runs into pages)."""

    def __init__(self):
        self.running = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def healthy(self):
        return self.running

    def convert(self, spans: list[dict]) -> list[dict]:
        # "office rendering": merge text runs per page (soffice lays
        # text out itself), keep media placements
        return S.flatten_spans(spans)


class OfficeConverter:
    """Callable-class stage: one supervisor-wrapped backend per actor,
    ONE conversion in flight at a time (run with
    ``max_tasks_in_flight_per_actor=1`` / sequential batches).

    Input rows: (doc_id, filename, spans, merge_group:int, part_index,
    options_json). Output: PAGES_OUT_SCHEMA + merge_group + filename,
    with zip naming applied (``x.docx`` → ``x.docx.pdf``).
    """

    def __init__(self):
        self.supervisor = Supervisor(
            OfficeBackend(),
            SupervisorConfig(restart_after=LIBREOFFICE_RESTART_AFTER),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {name: [] for name, _ in
                                 [(f.name, f.type) for f in PAGES_OUT_SCHEMA]}
        cols["merge_group"] = []
        cols["filename"] = []
        doc_ids = batch.column("doc_id").to_pylist()
        fnames = batch.column("filename").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        opts_col = batch.column("options_json").to_pylist()
        merge_groups = batch.column("merge_group").to_pylist()
        for i in range(batch.num_rows):
            doc_id = doc_ids[i]
            fname = fnames[i]
            converted, err, _attempts = self.supervisor.run(
                self.supervisor.backend.convert, spans_col[i]
            )
            if err:
                parts = [
                    PartRow(0, [], fname, status="error", error_type=err)
                ]
            else:
                try:
                    opts = ConvertOptions.from_json(opts_col[i])
                    parts = convert_row(doc_id, converted, opts)
                except (S.InvalidInput, S.MethodNotSupported):
                    # invalid options become a 400-family error row, same
                    # as convert_batch (errors are data, middlewares.go)
                    parts = [
                        PartRow(
                            0, [], fname,
                            status=STATUS_ERROR, error_type=ERR_INVALID_INPUT,
                        )
                    ]
            for p in parts:
                cols["doc_id"].append(doc_id)
                cols["part_index"].append(p.part_index)
                cols["spans"].append(p.spans)
                # zip naming: original filename + ".pdf" (routes.go:531-544),
                # preserving convert_row's split-part suffix so multi-part
                # splits don't collide on one name
                if p.output_name != doc_id:
                    suffix = p.output_name[len(doc_id):]  # e.g. "_2"
                    cols["output_name"].append(f"{fname}{suffix}.pdf")
                else:
                    cols["output_name"].append(f"{fname}.pdf")
                cols["pdfa"].append(p.pdfa)
                cols["pdfua"].append(p.pdfua)
                cols["metadata_json"].append(p.metadata_json)
                cols["bookmarks_json"].append(p.bookmarks_json)
                cols["encrypt_json"].append(p.encrypt_json)
                cols["status"].append(p.status)
                cols["error_type"].append(p.error_type)
                cols["page_count"].append(S.page_count(p.spans))
                cols["merge_group"].append(merge_groups[i])
                cols["filename"].append(fname)
        arrays = [pa.array(cols[f.name], f.type) for f in PAGES_OUT_SCHEMA]
        arrays.append(pa.array(cols["merge_group"], pa.int64()))
        arrays.append(pa.array(cols["filename"], pa.string()))
        schema = PAGES_OUT_SCHEMA.append(pa.field("merge_group", pa.int64())).append(
            pa.field("filename", pa.string())
        )
        return pa.Table.from_arrays(arrays, schema=schema)

