import json

import pytest

from gotenberg_ray import spans as S
from gotenberg_ray.schemas import (
    KIND_EMBED,
    KIND_PAGE_BREAK,
    KIND_ROTATE,
    KIND_STAMP,
    KIND_TEXT,
    KIND_WATERMARK,
    make_span,
)


def doc(n_pages: int, prefix="Page") -> list[dict]:
    pages = [[make_span(KIND_TEXT, text=f"{prefix} {i+1}")] for i in range(n_pages)]
    return S.join_pages(pages)


def texts(spans):
    return [s["text"] for s in spans if s["kind"] == KIND_TEXT]


def test_pages_roundtrip_and_count():
    d = doc(3)
    assert S.page_count(d) == 3
    assert S.join_pages(S.pages_of(d)) == d
    assert S.page_count([]) == 0
    assert [s["offset"] for s in d] == list(range(len(d)))


def test_page_selection():
    assert S.parse_page_selection("1-2,4", 5) == [0, 1, 3]
    assert S.parse_page_selection("2-", 4) == [1, 2, 3]
    assert S.parse_page_selection("-2", 4) == [0, 1]
    assert S.parse_page_selection("", 3) == [0, 1, 2]
    assert S.parse_page_selection("7", 3) == []
    with pytest.raises(S.InvalidInput):
        S.parse_page_selection("x-y", 3)


def test_split_intervals_fixture_case():
    # FIXTURES.md golden case 4: 3-page doc, intervals span=2 → (p1,p2), (p3)
    parts = S.split_spans(doc(3), S.SPLIT_INTERVALS, "2")
    assert len(parts) == 2
    assert texts(parts[0]) == ["Page 1", "Page 2"]
    assert texts(parts[1]) == ["Page 3"]
    assert S.page_count(parts[0]) == 2 and S.page_count(parts[1]) == 1


def test_split_pages_unify_fixture_case():
    # FIXTURES.md golden case 5: pages "2-" unify → one part (p2,p3)
    parts = S.split_spans(doc(3), S.SPLIT_PAGES, "2-", unify=True)
    assert len(parts) == 1
    assert texts(parts[0]) == ["Page 2", "Page 3"]
    # non-unify: one part per page
    parts = S.split_spans(doc(3), S.SPLIT_PAGES, "2-")
    assert len(parts) == 2
    assert texts(parts[0]) == ["Page 2"]


def test_split_validation():
    with pytest.raises(S.InvalidInput):
        S.split_spans(doc(3), S.SPLIT_INTERVALS, "0")
    with pytest.raises(S.InvalidInput):
        S.split_spans(doc(3), "bogus", "1")
    with pytest.raises(S.InvalidInput):
        S.split_spans(doc(3), S.SPLIT_INTERVALS, "2", unify=True)


def test_rotate_accumulates_and_drops_at_zero():
    d = doc(2)
    r = S.rotate_spans(d, 90, "1")
    assert r[0]["kind"] == KIND_ROTATE and r[0]["text"] == "90"
    r2 = S.rotate_spans(r, 270, "1")  # 90+270 = 360 ≡ 0 → marker dropped
    assert r2 == d
    with pytest.raises(S.InvalidInput):
        S.rotate_spans(d, 45, "")  # routes.go:176-189 domain


def test_watermark_stamp_validation_and_placement():
    d = doc(2)
    w = S.watermark_spans(d, "text", expression="DRAFT")
    pages = S.pages_of(w)
    assert all(p[-1]["kind"] == KIND_WATERMARK and p[-1]["text"] == "DRAFT" for p in pages)
    s = S.stamp_spans(d, "image", media_ref="img.png", pages_expr="2")
    pages = S.pages_of(s)
    assert pages[0][-1]["kind"] == KIND_TEXT
    assert pages[1][-1]["kind"] == KIND_STAMP and pages[1][-1]["media_ref"] == "img.png"
    with pytest.raises(S.InvalidInput):  # FIXTURES golden case 10
        S.watermark_spans(d, "image")
    with pytest.raises(S.InvalidInput):
        S.watermark_spans(d, "text")
    with pytest.raises(S.InvalidInput):
        S.watermark_spans(d, "gif", expression="x")


def test_flatten_merges_text_and_annotations():
    d = S.watermark_spans(doc(2), "text", expression="DRAFT")
    f = S.flatten_spans(d)
    assert texts(f) == ["Page 1 [watermark:DRAFT]", "Page 2 [watermark:DRAFT]"]
    assert not any(s["kind"] == KIND_WATERMARK for s in f)


def test_embed_files_and_metadata():
    d = doc(1)
    e = S.embed_files_spans(d, [{"media_ref": "a.xml", "mimeType": "text/xml"}])
    assert e[-1]["kind"] == KIND_EMBED
    assert json.loads(e[-1]["text"])["mimeType"] == "text/xml"
    with pytest.raises(S.InvalidInput):
        S.embed_files_spans(d, [{}])


def test_write_metadata_is_merge_with_guards():
    # exiftool.go:354-357 merge; :33-158 dangerous-tag drop
    m1 = S.write_metadata("", {"Author": "a", "Title": "t"})
    m2 = S.write_metadata(m1, {"Title": "t2", "FileName": "evil"})
    got = json.loads(m2)
    assert got == {"Author": "a", "Title": "t2"}
    with pytest.raises(S.InvalidInput):
        S.write_metadata("", {"bad key!": "v"})
    with pytest.raises(S.InvalidInput):
        S.write_metadata("", {"K": "a\x00b"})


def test_encrypt_owner_default_and_perm_validation():
    # qpdf.go:366-369 + routes.go:688-697 (FIXTURES golden case 8)
    e = S.encrypt_options(user_password="u")
    assert e["owner_password"] == "u"
    assert all(e[p] for p in S.PERMISSION_FLAGS)
    e = S.encrypt_options(user_password="u", owner_password="o", allow_print=False)
    assert e["allow_print"] is False and e["owner_password"] == "o"
    with pytest.raises(S.InvalidInput):
        S.encrypt_options(allow_print=False)  # perms w/o password → 400
    with pytest.raises(S.InvalidInput):
        S.encrypt_options()


def test_convert_strips_metadata_and_validates_format():
    pdfa, pdfua, meta = S.convert_format("PDF/A-2b", False, '{"Author":"a"}')
    assert meta == "{}"
    pdfa, pdfua, meta = S.convert_format("", False, '{"Author":"a"}')
    assert meta == '{"Author":"a"}'  # no convert → metadata survives
    with pytest.raises(S.MethodNotSupported):
        S.convert_format("PDF/A-9z", False, "{}")


def test_facturx_coercion_and_idempotence():
    assert S.facturx_coerce_format("") == "PDF/A-3b"
    assert S.facturx_coerce_format("PDF/A-3b") == "PDF/A-3b"
    with pytest.raises(S.InvalidInput):
        S.facturx_coerce_format("PDF/A-1b")
    d = doc(1)
    once = S.apply_facturx(d, "fx.xml")
    twice = S.apply_facturx(once, "fx.xml")
    assert once == twice  # qpdf.go XMP idempotence
    assert json.loads(once[-1]["text"])["name"] == S.FACTURX_EMBED_NAME


def test_open_ended_range_clips_like_bounded_range():
    """'N-' on a short document selects nothing, exactly like 'N-M'
    (review-found: it raised InvalidInput while the bounded form
    silently clipped); explicit backwards ranges still reject."""
    import pytest as _pytest

    from gotenberg_ray.spans import InvalidInput
    from gotenberg_ray.spans import parse_page_selection

    assert parse_page_selection("2-", 1) == []
    assert parse_page_selection("2-99", 1) == []
    assert parse_page_selection("2-", 5) == [1, 2, 3, 4]
    with _pytest.raises(InvalidInput):
        parse_page_selection("5-2", 9)
