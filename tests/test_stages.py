"""Media pipeline, webhook sink, scalar helpers."""

import pyarrow as pa
import pytest

from gotenberg_ray.functions import scalars as SC
from gotenberg_ray.stages.media import (
    FEATURES_SCHEMA,
    MediaFeatureExtractor,
    synth_media_table,
)
from gotenberg_ray.stages.webhook import WebhookSender, sniff_content_type


# ----------------------------------------------------------------- media


def test_media_extract_deterministic_and_schema():
    t = synth_media_table(50, seed=42)
    ex = MediaFeatureExtractor()
    out1, out2 = ex(t), ex(t)
    assert out1.equals(out2)
    assert out1.schema.equals(FEATURES_SCHEMA)
    assert out1.num_rows == 50
    ok = out1.column("decode_ok").to_pylist()
    assert all(ok)
    widths = out1.column("width").to_pylist()
    assert all(16 <= w < 1936 for w in widths)
    # images are single-frame
    for mt, nf in zip(out1.column("media_type").to_pylist(), out1.column("n_frames").to_pylist()):
        if mt == "image":
            assert nf == 1


def test_media_corrupt_payload_is_error_row_not_exception():
    t = pa.table(
        {
            "media_ref": pa.array(["x"]),
            "payload": pa.array([b"abc"], pa.binary()),
            "media_type": pa.array(["image"]),
            "meta_json": pa.array(["{}"]),
        }
    )
    out = MediaFeatureExtractor()(t)
    assert out.column("decode_ok").to_pylist() == [False]
    assert out.column("error").to_pylist() == ["payload too small"]


def test_media_real_backend_is_gated():
    from gotenberg_ray.stages.media import DecodeBackend

    with pytest.raises(NotImplementedError):
        DecodeBackend("real").decode(b"x" * 100, "image")


def test_media_stage_runs_in_ray_data(ray_session):
    import ray.data as rd

    t = synth_media_table(200, seed=7)
    ds = rd.from_arrow(t)
    out = ds.map_batches(
        MediaFeatureExtractor, batch_format="pyarrow", batch_size=64, concurrency=2
    )
    df = out.to_pandas()
    assert len(df) == 200
    assert df["decode_ok"].all()


# ---------------------------------------------------------------- webhook


def test_webhook_delivery_retry_and_error_json():
    calls = []

    def transport(method, url, headers, body):
        calls.append((method, url, headers["Content-Type"], body))
        if url == "http://hook/flaky" and len([c for c in calls if c[1] == url]) < 3:
            return 503
        return 200

    batch = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c"]),
            "webhook_url": pa.array(["http://hook/ok", "http://hook/flaky", "http://hook/x"]),
            "error_url": pa.array(["http://hook/err"] * 3),
            "body": pa.array([b"%PDF-1.7 data", b"PK\x03\x04zip", None], pa.binary()),
            "error_type": pa.array(["", "", "timeout"]),
        }
    )
    out = WebhookSender(transport)(batch)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows["a"]["event"] == "webhook.success"
    assert rows["a"]["content_type"] == "application/pdf"
    assert rows["b"]["attempts"] == 3  # retried with backoff
    assert rows["b"]["content_type"] == "application/zip"
    # error row → error URL with JSON body carrying the mapped status
    assert rows["c"]["url"] == "http://hook/err"
    err_call = [c for c in calls if c[1] == "http://hook/err"][0]
    assert err_call[2] == "application/json"
    assert b'"status": 503' in err_call[3]


def test_webhook_gives_up_after_max_retries():
    def transport(method, url, headers, body):
        return 500

    batch = pa.table(
        {
            "doc_id": pa.array(["a"]),
            "webhook_url": pa.array(["http://hook"]),
            "error_url": pa.array(["http://hook/e"]),
            "body": pa.array([b"hi"], pa.binary()),
            "error_type": pa.array([""]),
        }
    )
    out = WebhookSender(transport, max_retries=4)(batch)
    assert out.column("event").to_pylist() == ["webhook.error"]
    assert out.column("attempts").to_pylist() == [5]  # 1 + 4 retries


def test_sniff_content_type():
    assert sniff_content_type(b"%PDF-1.4") == "application/pdf"
    assert sniff_content_type(b"PK\x03\x04...") == "application/zip"
    assert sniff_content_type(b'  {"a": 1}') == "application/json"
    assert sniff_content_type("text".encode()) == "text/plain; charset=utf-8"
    assert sniff_content_type(b"\xff\xfe\x00binary") == "application/octet-stream"
    # a 4-byte UTF-8 sequence straddling the 512-byte cut at every
    # possible offset must still be judged text (needs up to 3 strips
    # plus a final decode)
    emoji = "🎉".encode()  # 4 bytes
    for cut in (1, 2, 3):
        head = (b"x" * (512 - cut) + emoji)[:512]
        assert sniff_content_type(head) == "text/plain; charset=utf-8", cut


# ----------------------------------------------------------------- scalars


def test_alphanumeric_sort_matches_reference_families():
    # sort.go: prefix-number, ext-suffix-number, trailing-number, lexicographic
    names = ["10.pdf", "2.pdf", "a_10.pdf", "a_2.pdf", "b.pdf", "a.pdf"]
    got = sorted(names, key=SC.alphanumeric_key)
    assert got == ["2.pdf", "10.pdf", "a_2.pdf", "a_10.pdf", "a.pdf", "b.pdf"]


def test_sanitize_filename_zip_slip():
    # separators and control chars stripped, NFC applied (context.go:692-703)
    assert SC.sanitize_filename("../../etc/passwd") == "....etcpasswd"
    assert "/" not in SC.sanitize_filename("a/../b.pdf")
    assert "\\" not in SC.sanitize_filename("a\\b.pdf")
    assert SC.sanitize_filename("a\x00\x1fb.pdf") == "ab.pdf"
    assert SC.sanitize_filename("café.pdf") == "café.pdf"  # NFC


def test_scoped_header_parser():
    v, scope = SC.parse_scoped_header("Bearer tok; scope=https://api\\..*")
    assert v == "Bearer tok" and scope.match("https://api.example.com/x")
    v, scope = SC.parse_scoped_header("plain-value")
    assert v == "plain-value" and scope is None


@pytest.mark.usefixtures("ray_session")
class TestMediaResizeAndFrames:
    def _features(self, n=200):
        import ray.data as rd

        from gotenberg_ray.stages.media import MediaFeatureExtractor, synth_media_table

        return rd.from_arrow(synth_media_table(n, seed=7)).map_batches(
            MediaFeatureExtractor, batch_format="pyarrow", batch_size=64, concurrency=2
        )

    def test_resize_preserves_aspect_and_bounds(self):
        from gotenberg_ray.stages.media import MediaResizer

        df = (
            self._features()
            .map_batches(MediaResizer, batch_format="pyarrow", batch_size=64,
                         concurrency=2)
            .to_pandas()
        )
        ok = df[df["decode_ok"]]
        assert (ok["out_width"] <= 512).all() and (ok["out_height"] <= 512).all()
        resized = ok[ok["resized"]]
        assert len(resized) > 0
        # aspect preserved within integer-floor tolerance
        for _, r in resized.iterrows():
            expect = r["width"] / r["height"]
            got = r["out_width"] / r["out_height"]
            # integer-floor error is bounded by one pixel of the
            # smaller output dimension (extreme ratios shrink it)
            tol = 1.0 / min(r["out_width"], r["out_height"]) + 0.01
            assert abs(expect - got) / expect <= tol
        untouched = ok[~ok["resized"]]
        assert (untouched["out_width"] == untouched["width"]).all()

    def test_frame_sampling_budget(self):
        from gotenberg_ray.stages.media import FrameSampler

        df = (
            self._features()
            .map_batches(FrameSampler, batch_format="pyarrow", batch_size=64,
                         concurrency=2)
            .to_pandas()
        )
        ok = df[df["decode_ok"]]
        assert (ok["n_sampled"] <= 8).all() and (ok["n_sampled"] >= 1).all()
        vids = ok[ok["media_type"] == "video"]
        assert len(vids) > 0
        for _, r in vids.iterrows():
            idx = list(r["frame_indices"])
            assert idx[0] == 0 and all(i < r["n_frames"] for i in idx)
            assert idx == sorted(idx)


def test_fetch_metrics_match_per_row_reference():
    """The fetcher's vectorized doc lookup + unique-origins accounting
    must equal the scalar per-row definition: origins = the doc's
    distinct asset hosts, plus the page host unless it already served
    an asset; error rows report (req=1, failed=1, origins=1)."""
    import numpy as np

    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.frontier.crawler import _options_for_hashes
    from gotenberg_ray.functions.hashing import fnv64
    from gotenberg_ray.stages.fetcher import SimulatedFetcher, synthetic_status

    docs = make_documents(400, seed=7)
    state = SimulatedFetcher.build_state(docs)
    fetcher = SimulatedFetcher(state, link_universe=500, max_links=3)
    stats = state[1]
    row_of = {d: i for i, d in enumerate(docs.column("doc_id").to_pylist())}
    origin_pool = sorted(set().union(*stats["origins"]) or {"assets.example.com"})
    pool = origin_pool + ["h1.example.com", "h2.example.com"]
    rng = np.random.default_rng(3)
    n = 3000
    hosts = [pool[i] for i in rng.integers(0, len(pool), n)]
    doc_ids = [f"doc-{int(i):06d}" for i in rng.integers(0, 440, n)]  # some missing
    urls = [f"https://{h}/x/{i}" for i, h in enumerate(hosts)]
    uh = fnv64(pa.array(urls, pa.string()))
    opts, routes = _options_for_hashes(uh)
    batch = pa.table(
        {
            "seq": pa.array(np.arange(n, dtype=np.int64)),
            "fetch_time": pa.array(np.zeros(n, np.int64)),
            "priority": pa.array(np.zeros(n, np.int32)),
            "url_hash": pa.array(uh),
            "url_canon": pa.array(urls),
            "host": pa.array(hosts),
            "route": routes,
            "doc_id": pa.array(doc_ids),
            "options_json": opts,
        }
    )
    out = fetcher(batch)
    got = out.column("metrics").combine_chunks()
    statuses = synthetic_status(uh)
    for i in range(n):
        ridx = row_of.get(doc_ids[i], -1)
        bad = statuses[i] in set(fetcher._fail_set(opts[i].as_py()).tolist())
        ok = ridx >= 0 and not bad
        if ok:
            exp = int(stats["origins_len"][ridx])
            if hosts[i] not in stats["origins"][ridx]:
                exp += 1
            exp = min(exp, 64)
        else:
            exp = 1
        assert got[i]["unique_origins"].as_py() == exp, i
        assert got[i]["request_count"].as_py() == (
            int(stats["req"][ridx]) if ok else 1
        ), i


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_composed_chain():
    """The composed decode→resize→frame-sample queries() entry is
    deterministic and its summary is consistent with the stage
    contracts (all three media kinds present; geometry within the box;
    video frame budget respected)."""
    import importlib.util

    import pandas as pd
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "entry_mod", Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    fn = m.queries()["media_pipeline"]
    a = fn("unused")
    b = fn("unused")
    pd.testing.assert_frame_equal(a, b)
    assert sorted(a["media_type"]) == ["audio", "image", "video"]
    assert (a["max_out_width"] <= 512).all() and (a["max_out_height"] <= 512).all()
    vid = a.set_index("media_type").loc["video"]
    assert 0 < vid["total_frames_sampled"] <= vid["n"] * 8


@pytest.mark.usefixtures("ray_session")
def test_media_rows_from_spans_matches_corpus_and_is_layout_invariant():
    """The span→media-item bridge: row count equals the corpus's media
    span count, payloads are a pure function of media_ref (identical
    across block layouts), and the output carries MEDIA_SCHEMA."""
    import pyarrow.compute as pc
    import ray.data as rd

    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.stages.media import MEDIA_SCHEMA, media_rows_from_spans

    corpus = make_documents(120, seed=42)
    flat = corpus.column("spans").combine_chunks().flatten()
    n_media = pc.sum(
        pc.equal(flat.field("kind"), "media").cast("int64")
    ).as_py()

    one = media_rows_from_spans(rd.from_arrow(corpus)).to_pandas()
    many = media_rows_from_spans(
        rd.from_arrow([corpus.slice(i, 7) for i in range(0, corpus.num_rows, 7)])
    ).to_pandas()
    assert len(one) == n_media > 0
    a = one.sort_values("media_ref").reset_index(drop=True)
    b = many.sort_values("media_ref").reset_index(drop=True)
    assert a.equals(b)  # payloads byte-identical under any layout
    got_schema = media_rows_from_spans(rd.from_arrow(corpus)).schema()
    assert got_schema.names == MEDIA_SCHEMA.names


@pytest.mark.usefixtures("ray_session")
def test_media_type_summary_equals_driver_pandas_fold():
    """The Dataset-aggregate fold must reproduce the old driver-pandas
    groupby exactly (the media_pipeline refactor guard)."""
    import pandas as pd
    import ray.data as rd

    from gotenberg_ray.stages.media import (
        FrameSampler,
        MediaFeatureExtractor,
        MediaResizer,
        media_type_summary,
        synth_media_table,
    )

    ds = (
        rd.from_arrow(synth_media_table(300, seed=7))
        .map_batches(
            MediaFeatureExtractor, batch_format="pyarrow", batch_size=64, concurrency=2
        )
        .map_batches(MediaResizer, batch_format="pyarrow", batch_size=64, concurrency=2)
        .map_batches(FrameSampler, batch_format="pyarrow", batch_size=64, concurrency=2)
    )
    got = media_type_summary(ds)
    df = ds.to_pandas()
    want = (
        df.groupby("media_type", sort=True)
        .agg(
            n=("media_ref", "size"),
            n_resized=("resized", "sum"),
            total_frames_sampled=("n_sampled", "sum"),
            max_out_width=("out_width", "max"),
            max_out_height=("out_height", "max"),
        )
        .reset_index()
    )
    for c in ("n", "n_resized", "total_frames_sampled", "max_out_width", "max_out_height"):
        want[c] = want[c].astype("int64")
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_media_crawl_pipeline_rows_only_pin():
    """media_crawl_pipeline on the sf0.001-sized crawl corpus: ≥1 row,
    deterministic across runs, item count equals the corpus's media
    span count."""
    import pyarrow.compute as pc

    from gotenberg_ray.corpus import make_documents
    from gotenberg_ray.io import table_rows
    from gotenberg_ray.pipelines.flagship import media_crawl_pipeline

    sf = "/root/testdata/sf0.001"
    out = media_crawl_pipeline(sf)
    again = media_crawl_pipeline(sf)
    assert out.equals(again)
    assert len(out) >= 1
    n = max(50, table_rows(sf, "documents"))
    flat = make_documents(n, seed=42).column("spans").combine_chunks().flatten()
    n_media = pc.sum(pc.equal(flat.field("kind"), "media").cast("int64")).as_py()
    assert int(out["n"].sum()) == n_media
    assert (out["max_out_width"] <= 512).all()
    assert (out["max_out_height"] <= 512).all()
