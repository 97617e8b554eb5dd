"""LibreOffice route: per-file convert → merge → naming (SURVEY §3.2)."""

import json

import pyarrow as pa

from gotenberg_ray import spans as S
from gotenberg_ray.pipelines.convert import merge_group_batch
from gotenberg_ray.pipelines.office import OfficeConverter
from gotenberg_ray.schemas import KIND_TEXT, SPANS_TYPE, make_span


def doc(n_pages: int, prefix="Page") -> list[dict]:
    return S.join_pages(
        [[make_span(KIND_TEXT, text=f"{prefix} {i+1}")] for i in range(n_pages)]
    )


def files_table(specs, opts=None):
    return pa.table(
        {
            "doc_id": pa.array([s[0] for s in specs]),
            "filename": pa.array([s[1] for s in specs]),
            "spans": pa.array([s[2] for s in specs], SPANS_TYPE),
            "merge_group": pa.array([s[3] for s in specs], pa.int64()),
            "part_index": pa.array(list(range(len(specs))), pa.int32()),
            "options_json": pa.array([opts or "{}"] * len(specs)),
        }
    )


def test_office_convert_zip_naming_and_flatten():
    t = files_table([("d1", "report.docx", doc(2), 0)])
    out = OfficeConverter()(t)
    assert out.column("output_name").to_pylist() == ["report.docx.pdf"]
    assert out.column("status").to_pylist() == ["success"]
    assert out.column("page_count").to_pylist() == [2]


def test_office_merge_is_input_order_with_page_offsets():
    # two files in one merge group → one output of 3 pages, order a then b
    t = files_table(
        [("a", "a.docx", doc(2, "A"), 0), ("b", "b.odt", doc(1, "B"), 0)],
        opts=json.dumps({"generate_document_outline": True}),
    )
    conv = OfficeConverter()(t)
    merged = merge_group_batch(conv.sort_by([("part_index", "ascending")]))
    assert merged.num_rows == 1
    assert merged.column("page_count").to_pylist() == [3]
    texts = [
        s["text"] for s in merged.column("spans")[0].as_py() if s["kind"] == KIND_TEXT
    ]
    assert texts == ["A 1", "A 2", "B 1"]
    bms = json.loads(merged.column("bookmarks_json")[0].as_py())
    assert [b["page"] for b in bms] == [1, 2, 3]  # b's outline shifted by 2


def test_office_supervisor_recycles_after_10():
    conv = OfficeConverter()
    t = files_table([(f"d{i}", f"f{i}.docx", doc(1), i) for i in range(25)])
    conv(t)
    assert conv.supervisor.restart_count == 2  # restart-after-10 (api.go:330)
    assert conv.supervisor.total_count == 25


def test_office_route_runs_as_actor_pool(ray_session):
    import ray.data as rd

    t = files_table([(f"d{i}", f"f{i}.docx", doc(2), i) for i in range(40)])
    out = (
        rd.from_arrow(t)
        .map_batches(OfficeConverter, batch_format="pyarrow", batch_size=8, concurrency=2)
        .to_pandas()
    )
    assert len(out) == 40
    assert (out["status"] == "success").all()


def test_office_split_parts_get_distinct_names():
    # ADVICE r1 (low): split-mode office conversions must keep the split
    # suffix in the zip name — not N identical "f.docx.pdf" parts
    t = files_table(
        [("d1", "report.docx", doc(4), 0)],
        opts=json.dumps({"split_mode": "intervals", "split_span": "2"}),
    )
    out = OfficeConverter()(t)
    names = out.column("output_name").to_pylist()
    assert len(names) == 2
    assert len(set(names)) == 2
    assert names == ["report.docx_0.pdf", "report.docx_1.pdf"]


def test_office_invalid_options_become_error_row():
    # invalid options_json must become a 400-family error row, not raise
    t = files_table([("d1", "a.docx", doc(1), 0)], opts='{"nope": 1}')
    out = OfficeConverter()(t)
    assert out.column("status").to_pylist() == ["error"]
    assert out.column("error_type").to_pylist() == ["invalid_input"]
