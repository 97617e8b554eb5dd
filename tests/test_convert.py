"""Route-semantics conformance — the FIXTURES.md §4 golden cases,
transcribed from the reference's integration features (SURVEY §5.2)."""

import json

import pyarrow as pa
import pytest

from gotenberg_ray import spans as S
from gotenberg_ray.pipelines.convert import (
    ConvertOptions,
    convert_batch,
    convert_row,
    PAGES_OUT_SCHEMA,
)
from gotenberg_ray.schemas import KIND_TEXT, SPANS_TYPE, make_span


def doc(n_pages: int, prefix="Page") -> list[dict]:
    return S.join_pages(
        [[make_span(KIND_TEXT, text=f"{prefix} {i+1}")] for i in range(n_pages)]
    )


def texts(spans):
    return [s["text"] for s in spans if s["kind"] == KIND_TEXT]


def batch_of(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "spans": pa.array([r[1] for r in rows], SPANS_TYPE),
            "options_json": pa.array([json.dumps(r[2]) for r in rows], pa.string()),
        }
    )


def test_case1_defaults_one_page():
    parts = convert_row("d", doc(1), ConvertOptions())
    assert len(parts) == 1
    assert texts(parts[0].spans) == ["Page 1"]
    assert parts[0].output_name == "d"
    assert parts[0].metadata_json == "{}"


def test_case2_header_footer_i_of_n():
    opts = ConvertOptions(
        header_template='<span class="pageNumber"></span> of <span class="totalPages"></span>'
    )
    parts = convert_row("d", doc(12), opts)
    pages = S.pages_of(parts[0].spans)
    assert pages[0][0]["text"] == "1 of 12"
    assert pages[11][0]["text"] == "12 of 12"


def test_case3_page_ranges():
    parts = convert_row("d", doc(12), ConvertOptions(page_ranges="2-3"))
    assert len(parts) == 1
    assert texts(parts[0].spans) == ["Page 2", "Page 3"]


def test_case4_split_intervals_naming():
    opts = ConvertOptions(split_mode="intervals", split_span="2")
    parts = convert_row("pages_3", doc(3), opts)
    assert [p.output_name for p in parts] == ["pages_3_0", "pages_3_1"]
    assert texts(parts[0].spans) == ["Page 1", "Page 2"]
    assert texts(parts[1].spans) == ["Page 3"]


def test_case5_split_pages_unify_keeps_base_name():
    opts = ConvertOptions(split_mode="pages", split_span="2-", split_unify=True)
    parts = convert_row("pages_3", doc(3), opts)
    assert len(parts) == 1
    assert parts[0].output_name == "pages_3"
    assert texts(parts[0].spans) == ["Page 2", "Page 3"]


def test_case7_metadata_survives_convert():
    # routes.go:888-889: metadata written AFTER PDF/A convert
    opts = ConvertOptions(pdfa="PDF/A-2b", metadata={"Author": "me"})
    parts = convert_row("d", doc(1), opts)
    assert parts[0].pdfa == "PDF/A-2b"
    assert json.loads(parts[0].metadata_json) == {"Author": "me"}


def test_case8_encrypt_validation():
    parts = convert_row("d", doc(1), ConvertOptions(user_password="u"))
    enc = json.loads(parts[0].encrypt_json)
    assert enc["owner_password"] == "u"
    # perms without password → error ROW, not an exception
    b = convert_batch(batch_of([("d", doc(1), {"permissions": {"allow_print": False}})]))
    assert b.column("status").to_pylist() == ["error"]
    assert b.column("error_type").to_pylist() == ["invalid_input"]


def test_case10_watermark_missing_file_and_bad_rotate():
    b = convert_batch(
        batch_of(
            [
                ("d1", doc(1), {"watermark_source": "image"}),
                ("d2", doc(1), {"rotate_angle": 45}),
                ("d3", doc(1), {}),
            ]
        )
    )
    # output order within a batch is not a contract (pages are keyed by
    # doc_id/part_index) — compare as a mapping
    errs = dict(zip(b.column("doc_id").to_pylist(), b.column("error_type").to_pylist()))
    assert errs == {"d1": "invalid_input", "d2": "invalid_input", "d3": ""}
    assert b.schema.equals(PAGES_OUT_SCHEMA)


def test_facturx_coerces_pdfa_and_embeds():
    parts = convert_row("d", doc(1), ConvertOptions(facturx_xml="fx.xml"))
    assert parts[0].pdfa == "PDF/A-3b"
    embeds = [s for s in parts[0].spans if s["kind"] == "embed"]
    assert len(embeds) == 1
    assert json.loads(embeds[0]["text"])["name"] == "factur-x.xml"
    with pytest.raises(S.InvalidInput):
        convert_row("d", doc(1), ConvertOptions(facturx_xml="f", pdfa="PDF/A-1b"))


def test_omit_background_coupling_and_unknown_option():
    b = convert_batch(batch_of([("d", doc(1), {"omit_background": True})]))
    assert b.column("error_type").to_pylist() == ["invalid_input"]
    b = convert_batch(batch_of([("d", doc(1), {"nope": 1})]))
    assert b.column("error_type").to_pylist() == ["invalid_input"]


def test_error_rows_pass_through():
    t = pa.table(
        {
            "doc_id": pa.array(["d"]),
            "spans": pa.array([[]], SPANS_TYPE),
            "options_json": pa.array(["{}"]),
            "status": pa.array(["error"]),
            "error_type": pa.array(["invalid_input"]),
        }
    )
    out = convert_batch(t)
    assert out.column("status").to_pylist() == ["error"]
    assert out.column("page_count").to_pylist() == [0]


def test_full_chain_order_split_then_overlays():
    # overlays apply per split part (watermark on every page of every part)
    opts = ConvertOptions(
        split_mode="intervals",
        split_span="2",
        watermark_source="text",
        watermark_expression="W",
        rotate_angle=90,
        rotate_pages="1",
    )
    parts = convert_row("d", doc(3), opts)
    assert len(parts) == 2
    for p in parts:
        pages = S.pages_of(p.spans)
        assert all(pg[-1]["kind"] == "watermark" for pg in pages)
        assert pages[0][0]["kind"] == "rotate"


def test_markdown_route_renders_with_default_options():
    # ADVICE r1 (high): the row-level fast path must not skip markdown
    # rendering for convert/markdown rows carrying default options "{}" —
    # the reference always renders markdown (routes.go:709-782). Mix in a
    # non-identity row so the batch takes the row-by-row path.
    md = [make_span(KIND_TEXT, text="# Title **bold**")]
    t = pa.table(
        {
            "doc_id": pa.array(["m", "u"]),
            "spans": pa.array([md, doc(1)], SPANS_TYPE),
            "options_json": pa.array(["{}", json.dumps({"rotate_angle": 90})]),
            "route": pa.array(["convert/markdown", "convert/url"]),
        }
    )
    out = convert_batch(t)
    row_m = out.filter(pa.compute.equal(out.column("doc_id"), "m"))
    txt = [s["text"] for s in row_m.column("spans")[0].as_py() if s["kind"] == KIND_TEXT]
    assert len(txt) == 1
    assert "<h1>" in txt[0] and "<strong>bold</strong>" in txt[0]
    assert "# Title" not in txt[0]

    # all-markdown batch with all-default options must also render
    t2 = pa.table(
        {
            "doc_id": pa.array(["m2"]),
            "spans": pa.array([md], SPANS_TYPE),
            "options_json": pa.array(["{}"]),
            "route": pa.array(["convert/markdown"]),
        }
    )
    out2 = convert_batch(t2)
    txt2 = [s["text"] for s in out2.column("spans")[0].as_py() if s["kind"] == KIND_TEXT]
    assert "<h1>" in txt2[0]


def test_screenshot_route_semantics():
    """Screenshot routes produce single image parts (chromium.go:335-378,
    tasks.go:183-229), never the PDF chain."""
    t = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c", "d"]),
            "spans": pa.array([doc(3), doc(3), doc(3), doc(2)], SPANS_TYPE),
            "options_json": pa.array(
                [
                    "{}",
                    json.dumps({"format": "jpeg", "quality": 80}),
                    json.dumps({"clip": True, "width": 1280, "height": 720}),
                    json.dumps({"format": "webp", "optimize_for_speed": True}),
                ]
            ),
            "route": pa.array(["screenshot/url"] * 4),
        }
    )
    out = convert_batch(t)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert set(rows) == {"a", "b", "c", "d"}
    # default png; capture-beyond-viewport → whole doc page count in metadata
    a = rows["a"]
    assert a["output_name"] == "a.png" and a["status"] == "success"
    assert a["page_count"] == 1  # the image part itself is one page
    ma = json.loads(a["metadata_json"])
    assert ma["format"] == "png" and ma["captured_pages"] == 3
    assert "quality" not in ma  # quality is jpeg-only (tasks.go:199-202)
    assert a["spans"] == [
        {"kind": "media", "text": "", "media_ref": "a.png", "offset": 0}
    ]
    mb = json.loads(rows["b"]["metadata_json"])
    assert mb["quality"] == 80 and rows["b"]["output_name"] == "b.jpeg"
    # clip limits the capture to the viewport
    mc = json.loads(rows["c"]["metadata_json"])
    assert mc["captured_pages"] == 1 and mc["width"] == 1280
    md_ = json.loads(rows["d"]["metadata_json"])
    assert md_["format"] == "webp" and md_["optimizeForSpeed"] is True


def test_screenshot_route_validation_errors():
    """format/quality validation mirrors routes.go:337-410; PDF-chain
    options are unknown fields for the screenshot form."""
    t = pa.table(
        {
            "doc_id": pa.array(["x", "y", "z", "w"]),
            "spans": pa.array([doc(1)] * 4, SPANS_TYPE),
            "options_json": pa.array(
                [
                    json.dumps({"format": "gif"}),
                    json.dumps({"quality": 101}),
                    json.dumps({"quality": -1}),
                    json.dumps({"split_mode": "intervals"}),
                ]
            ),
            "route": pa.array(["screenshot/url"] * 4),
        }
    )
    out = convert_batch(t)
    assert out.num_rows == 4
    assert set(out.column("status").to_pylist()) == {"error"}
    assert set(out.column("error_type").to_pylist()) == {"invalid_input"}


def test_screenshot_omit_background_without_print_background():
    """Unlike the PDF chain, screenshots allow omitBackground alone
    (browser.go:380 passes allowWithoutPrintBackground=true)."""
    t = pa.table(
        {
            "doc_id": pa.array(["o"]),
            "spans": pa.array([doc(1)], SPANS_TYPE),
            "options_json": pa.array([json.dumps({"omit_background": True})]),
            "route": pa.array(["screenshot/url"]),
        }
    )
    out = convert_batch(t)
    assert out.column("status").to_pylist() == ["success"]
    assert json.loads(out.column("metadata_json")[0].as_py())["omitBackground"] is True


def test_malformed_typed_options_become_error_rows():
    """Wrongly-TYPED option values (right names, wrong JSON types) must
    yield 400-family error rows, never stage crashes — the reference
    maps every malformed request to a 400 (api/context.go)."""
    cases = [
        {"permissions": ["allow_print"]},  # list where dict belongs
        {"metadata": ["x"]},  # list where dict belongs
        {"rotate_angle": "ninety", "rotate_pages": "1"},
        {"pdfa": "PDF/A-9"},  # invalid level reaches convert_format
    ]
    for opts in cases:
        b = convert_batch(batch_of([("d", doc(2), opts)]))
        assert b.column("error_type").to_pylist() == ["invalid_input"], opts
        assert b.column("status").to_pylist() == ["error"], opts


def test_zero_page_doc_split_intervals_keeps_the_document():
    """A zero-page (empty-span) doc under split=intervals must emit one
    empty part, not vanish from the output."""
    b = convert_batch(
        batch_of([("d0", [], {"split_mode": "intervals", "split_span": "2"})])
    )
    assert b.num_rows == 1
    assert b.column("doc_id").to_pylist() == ["d0"]
    assert b.column("status").to_pylist() == ["success"]
    assert b.column("page_count").to_pylist() == [0]
