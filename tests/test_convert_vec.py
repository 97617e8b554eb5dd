"""Kernel-vs-row-path parity: the Arrow-native convert kernels
(pipelines/convert_vec.py) must reproduce convert_row exactly for every
option/route combination they claim, on randomized span inputs."""

import json
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gotenberg_ray.frontier.crawler import (
    LINK_OPTIONS,
    LINK_ROUTES,
    SCREENSHOT_LINK_OPTIONS,
)
from gotenberg_ray.pipelines import convert as CM
from gotenberg_ray.pipelines import convert_vec as CV
from gotenberg_ray.pipelines.convert import PAGES_OUT_SCHEMA, convert_batch
from gotenberg_ray.schemas import (
    KIND_MEDIA,
    KIND_PAGE_BREAK,
    KIND_TEXT,
    SPANS_TYPE,
    make_span,
)


def random_spans(rng, allow_empty=True):
    n = int(rng.integers(0, 14 if allow_empty else 12) )
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.2:
            out.append(make_span(KIND_PAGE_BREAK))
        elif r < 0.35:
            out.append(make_span(KIND_MEDIA, media_ref=f"m{i}.png"))
        elif r < 0.45:
            out.append(make_span(KIND_TEXT, text=""))
        else:
            words = " ".join(
                rng.choice(["alpha", "# head", "**b**", "plain", "tail"], size=3)
            )
            out.append(make_span(KIND_TEXT, text=words))
    return [{**s, "offset": i} for i, s in enumerate(out)]


def batch_for(rows, opts_json, route):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "spans": pa.array([r[1] for r in rows], SPANS_TYPE),
            "options_json": pa.array([opts_json] * len(rows), pa.string()),
            "route": pa.array([route] * len(rows), pa.string()),
        }
    )


def canon(t: pa.Table):
    t = t.sort_by([("doc_id", "ascending"), ("part_index", "ascending")])
    return t.to_pylist()


# screenshot routes never take the row fallback — they dispatch to the
# vectorized image-part branch (covered by tests/test_convert.py)
PDF_ROUTES = sorted(set(LINK_ROUTES) - {"screenshot/url"})


@pytest.mark.parametrize("opts_json", sorted(set(LINK_OPTIONS)))
@pytest.mark.parametrize("route", PDF_ROUTES)
def test_kernels_match_row_path(opts_json, route):
    rng = np.random.default_rng(hash((opts_json, route)) % 2**32)
    rows = [(f"doc-{i:03d}", random_spans(rng)) for i in range(40)]
    # guarantee the edge shapes are present
    rows[0] = ("doc-edge0", [])  # empty doc
    rows[1] = ("doc-edge1", [make_span(KIND_PAGE_BREAK)])  # lone page break
    rows[2] = (
        "doc-edge2",
        [make_span(KIND_PAGE_BREAK), make_span(KIND_PAGE_BREAK)],  # empty pages
    )
    rows[3] = ("doc-edge3", [make_span(KIND_TEXT, text="# only *md*")])
    batch = batch_for(rows, opts_json, route)

    got = canon(convert_batch(batch))
    exp = canon(CM._convert_rows_fallback(batch))
    assert got == exp


def test_mixed_batch_groups_cover_all_rows():
    rng = np.random.default_rng(5)
    rows, opts, routes = [], [], []
    for i in range(120):
        rows.append(random_spans(rng))
        opts.append(LINK_OPTIONS[int(rng.integers(len(LINK_OPTIONS)))])
        routes.append(LINK_ROUTES[int(rng.integers(len(LINK_ROUTES)))])
    batch = pa.table(
        {
            "doc_id": pa.array([f"d{i:03d}" for i in range(120)], pa.string()),
            "spans": pa.array(rows, SPANS_TYPE),
            "options_json": pa.array(opts, pa.string()),
            "route": pa.array(routes, pa.string()),
        }
    )
    got = canon(convert_batch(batch))
    # expected: PDF-chain rows via the row-path reference; screenshot
    # rows via the (single-group) screenshot branch
    is_shot = pc.equal(batch.column("route"), "screenshot/url")
    pdf_rows = batch.filter(pc.invert(is_shot))
    shot_rows = batch.filter(is_shot)
    exp_parts = [CM._convert_rows_fallback(pdf_rows)]
    for opt in sorted(set(shot_rows.column("options_json").to_pylist())):
        exp_parts.append(
            convert_batch(shot_rows.filter(pc.equal(shot_rows.column("options_json"), opt)))
        )
    exp = canon(pa.concat_tables(exp_parts))
    assert got == exp
    assert shot_rows.num_rows > 0


def test_unsupported_options_fall_back():
    # encryption is outside the kernel set — must still work via fallback
    rows = [("d1", [make_span(KIND_TEXT, text="x")])]
    b = batch_for(rows, json.dumps({"user_password": "s3cret"}), "convert/url")
    out = convert_batch(b)
    assert out.schema.equals(PAGES_OUT_SCHEMA)
    assert json.loads(out.column("encrypt_json")[0].as_py())["user_password"] == "s3cret"


@pytest.mark.parametrize(
    "opts_json",
    [
        '{"rotate_angle": 90, "rotate_pages": "", "flatten": true}',
        '{"rotate_angle": 180, "rotate_pages": "1", "flatten": true}',
        '{"split_mode": "intervals", "split_span": "2", "flatten": true}',
        '{"header_template": "h <span class=\\"pageNumber\\"></span>", "flatten": true}',
        '{"flatten": true}',
    ],
)
def test_flatten_combos_match_row_path(opts_json):
    """flatten over inputs that already carry ROT / overlay spans from
    earlier kernels (rotate, header/footer, split) — the class-ordered
    page reassembly must equal the row path span for span."""
    rng = np.random.default_rng(hash(opts_json) % 2**32)
    rows = [(f"doc-{i:03d}", random_spans(rng)) for i in range(60)]
    rows[0] = ("doc-edge0", [])
    rows[1] = ("doc-edge1", [make_span(KIND_PAGE_BREAK)])
    rows[2] = (
        "doc-edge2",
        [make_span(KIND_PAGE_BREAK), make_span(KIND_PAGE_BREAK)],
    )
    batch = batch_for(rows, opts_json, "convert/url")
    got = canon(convert_batch(batch))
    exp = canon(CM._convert_rows_fallback(batch))
    assert got == exp


@pytest.mark.parametrize(
    "opts_json", ['{"flatten": true}', '{"metadata": {"Author": "a"}}']
)
def test_unknown_and_null_span_kinds_take_the_row_path(opts_json):
    """A kind outside the span model (or a null one) is no text span: the
    kernels must not relabel it, so such rows go to the row path."""
    rows = [
        (
            "bogus",
            [
                {"kind": "bogus", "text": "x", "media_ref": "m", "offset": 0},
                {"kind": KIND_TEXT, "text": "y", "media_ref": "", "offset": 1},
            ],
        ),
        (
            "null",
            [
                {"kind": None, "text": "x", "media_ref": "m", "offset": 0},
                {"kind": KIND_TEXT, "text": "y", "media_ref": "", "offset": 1},
            ],
        ),
        ("plain", [make_span(KIND_TEXT, text="z")]),
    ]
    batch = batch_for(rows, opts_json, "convert/url")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = canon(convert_batch(batch))
    assert got == canon(CM._convert_rows_fallback(batch))
    if "metadata" in opts_json:
        kinds = [s["kind"] for r in got if r["doc_id"] == "bogus" for s in r["spans"]]
        assert kinds == ["bogus", KIND_TEXT]
    codes = CV.kind_codes(pa.array(["bogus", None, KIND_TEXT, KIND_PAGE_BREAK]))
    assert codes.tolist() == [CV.OTHER, CV.OTHER, CV.TEXT, CV.PB]


def test_one_pass_over_every_option_group(monkeypatch):
    """Every crawl option group on every route plus the edge groups
    (invalid JSON, JSON that is no object, unknown key, omitBackground
    alone, non-kernel options, a bad screenshot format, fetch errors),
    shuffled into one batch: PDF-route rows equal the row path, the
    output keeps the pinned order, and the kernel rows are materialized
    once."""
    rng = np.random.default_rng(11)
    pdf = [(o, r) for o in sorted(set(LINK_OPTIONS)) for r in PDF_ROUTES]
    pdf += [
        (o, "convert/url")
        for o in (
            "not json",
            "5",
            "null",
            '{"nope": 1}',
            '{"omit_background": true}',
            '{"page_ranges": "1-2"}',
            '{"user_password": "pw"}',
        )
    ]
    shots = [(o, "screenshot/url") for o in SCREENSHOT_LINK_OPTIONS + ('{"format": "gif"}',)]
    combos = [c for c in pdf + shots for _ in range(3)]
    rng.shuffle(combos)
    n = len(combos)
    status = ["error" if i % 9 == 4 else "success" for i in range(n)]
    batch = pa.table(
        {
            "doc_id": pa.array([f"d{i:03d}" for i in range(n)], pa.string()),
            "spans": pa.array([random_spans(rng) for _ in range(n)], SPANS_TYPE),
            "options_json": pa.array([o for o, _ in combos], pa.string()),
            "route": pa.array([r for _, r in combos], pa.string()),
            "status": pa.array(status, pa.string()),
            "error_type": pa.array(
                ["timeout" if s == "error" else "" for s in status], pa.string()
            ),
        }
    )
    materialized = []
    real = CV._Group.materialize
    monkeypatch.setattr(
        CV._Group, "materialize", lambda g: materialized.append(g) or real(g)
    )
    out = convert_batch(batch)
    assert len(materialized) == 1

    # PDF routes: the row path is the reference
    pdf_rows = batch.filter(pc.not_equal(batch.column("route"), "screenshot/url"))
    got_pdf = out.filter(pc.is_in(out.column("doc_id"), value_set=pdf_rows.column("doc_id")))
    assert canon(got_pdf) == canon(CM._convert_rows_fallback(pdf_rows))

    # order: fetch errors in input order, then (options, route) groups
    # by first occurrence, input order within a group, parts ascending
    groups: dict = {}
    for i in range(n):
        if status[i] == "success":
            groups.setdefault(combos[i], []).append(i)
    expected = [i for i in range(n) if status[i] != "success"]
    expected += [i for rows in groups.values() for i in rows]
    docs = out.column("doc_id").to_pylist()
    parts = out.column("part_index").to_pylist()
    assert [d for d, p in zip(docs, parts) if p == 0] == [f"d{i:03d}" for i in expected]
    for k in range(1, len(parts)):
        if parts[k]:
            assert (docs[k], parts[k]) == (docs[k - 1], parts[k - 1] + 1)

    # screenshots: image parts, the bad format an invalid-input row
    for row in out.to_pylist():
        i = int(row["doc_id"][1:])
        opts, route = combos[i]
        if route != "screenshot/url" or status[i] != "success":
            continue
        if "gif" in opts:
            assert (row["status"], row["error_type"]) == ("error", "invalid_input")
        else:
            fmt = json.loads(opts).get("format", "png")
            assert row["output_name"] == f"{row['doc_id']}.{fmt}"
            assert row["spans"][0]["media_ref"] == row["output_name"]


def test_null_options_route_and_status_rows_are_kept():
    """A null options_json/route reads as the defaults (not as another
    row's options); a null status is no success — every row still
    yields its part."""
    spans = [make_span(KIND_TEXT, text="a"), make_span(KIND_TEXT, text="b")]
    batch = pa.table(
        {
            "doc_id": pa.array(["d", "a", "b", "c"], pa.string()),
            "spans": pa.array([spans] * 4, SPANS_TYPE),
            "options_json": pa.array(['{"flatten": true}', None, "{}", "{}"], pa.string()),
            "route": pa.array(["convert/url", "convert/url", None, "convert/url"], pa.string()),
            "status": pa.array(["success", "success", "success", None], pa.string()),
            "error_type": pa.array(["", "", "", ""], pa.string()),
        }
    )
    out = convert_batch(batch).to_pylist()
    assert [r["doc_id"] for r in out] == ["c", "d", "a", "b"]
    assert [r["status"] for r in out] == [None, "success", "success", "success"]
    assert [[s["text"] for s in r["spans"]] for r in out[1:]] == [["a b"], ["a", "b"], ["a", "b"]]
