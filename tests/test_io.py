"""Storage IO seam: size-proportional block policy + resumable
partitioned writes."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import pytest

from gotenberg_ray import io as gio


def test_blocks_for_scales_with_file_size(tmp_path):
    small = tmp_path / "small.parquet"
    pq.write_table(pa.table({"x": list(range(100))}), small)
    assert gio.blocks_for(str(small)) == 2  # min clamp
    assert gio.blocks_for(str(tmp_path / "missing.parquet")) == 2
    # a 100 TB file would want ~3.3M blocks — clamped to the node cap,
    # raised on a real cluster
    import unittest.mock as mock

    with mock.patch("os.path.getsize", return_value=100 << 40):
        assert gio.blocks_for("huge.parquet") == 512
    with mock.patch("os.path.getsize", return_value=320 << 20):
        assert gio.blocks_for("mid.parquet") == 11  # ~32 MB per block


def test_read_table_respects_floor_and_columns(ray_session, tmp_path):
    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({"a": list(range(1000)), "b": [0] * 1000}), p)
    ds = gio.read_table(str(tmp_path), "t", columns=["a"], min_blocks=7)
    assert ds.schema().names == ["a"]
    assert ds.count() == 1000
    assert ds.materialize().num_blocks() >= 7


@pytest.mark.usefixtures("ray_session")
class TestResumablePartitionedWrite:
    def test_write_then_resume_skips_complete_buckets(self, tmp_path, sf_dir):
        import shutil

        import pandas as pd
        import ray.data as rd

        from gotenberg_ray.io import write_partitioned

        src = pd.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "lang"])
        ds = rd.from_pandas(src)
        out = str(tmp_path / "resumable")
        first = write_partitioned(ds, out, key="doc_id", num_partitions=8)
        assert first["written_rows"] == len(src)
        assert first["skipped_buckets"] == 0

        # simulate a crash: delete two buckets' markers (half-written);
        # a killed run also never wrote the layout-level marker
        os.remove(os.path.join(out, "_ALL_COMPLETE"))
        killed = 0
        buckets = sorted(d for d in os.listdir(out) if d.startswith("bucket-"))
        for d in buckets[:2]:
            os.remove(os.path.join(out, d, "_COMPLETE"))
            killed += 1

        # resume: only the killed buckets rewrite
        second = write_partitioned(rd.from_pandas(src), out,
                                   key="doc_id", num_partitions=8)
        assert second["skipped_buckets"] == 8 - killed
        assert second["written_buckets"] == killed

        # bucket-<i>/part.parquet files; markers start with "_" and are
        # skipped by the parquet dataset reader
        back = pq.read_table(out).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(
            back.reset_index(drop=True),
            src.sort_values("doc_id").reset_index(drop=True),
        )


class TestLanceSeam:
    """The Lance adapter is gated, real code; without the wheel the
    seam must (a) report unavailability, (b) read parquet untouched
    even when a .lance directory sits next to it, and (c) refuse a
    lance write loudly instead of silently landing parquet."""

    def test_unavailable_in_this_container(self):
        assert gio.lance_available() is False

    def test_read_ignores_lance_dir_without_package(self, ray_session, tmp_path):
        pq.write_table(
            pa.table({"a": pa.array([1, 2, 3], pa.int64())}),
            tmp_path / "t.parquet",
        )
        os.makedirs(tmp_path / "t.lance", exist_ok=True)
        ds = gio.read_table(str(tmp_path), "t")
        assert ds.count() == 3

    def test_read_dispatches_to_lance_when_available(self, tmp_path, monkeypatch):
        pq.write_table(
            pa.table({"a": pa.array([1], pa.int64())}), tmp_path / "t.parquet"
        )
        os.makedirs(tmp_path / "t.lance", exist_ok=True)
        calls = {}
        monkeypatch.setattr(gio, "lance_available", lambda: True)
        monkeypatch.setattr(
            gio.rd, "read_lance",
            lambda path, columns=None: calls.update(path=path, columns=columns),
        )
        gio.read_table(str(tmp_path), "t", columns=["a"])
        assert calls["path"].endswith("t.lance") and calls["columns"] == ["a"]

    def test_write_lance_without_package_is_loud(self, ray_session, tmp_path):
        import ray.data as rd

        ds = rd.from_items([{"a": 1}])
        with pytest.raises(ValueError, match="lance"):
            gio.write_table(ds, str(tmp_path / "out"), format="lance")


@pytest.mark.usefixtures("ray_session")
class TestReviewRegressions:
    def test_noop_resume_short_circuits_with_empty_buckets(self, tmp_path):
        """A finished layout whose key space occupied fewer than
        num_partitions buckets must still short-circuit on re-run
        (review-found: it re-scanned the corpus forever)."""
        import time

        import pandas as pd
        import ray.data as rd

        from gotenberg_ray.io import write_partitioned

        # 2 distinct keys over 8 partitions → ≤2 occupied buckets
        src = pd.DataFrame({"k": [1, 1, 2, 2], "v": [1, 2, 3, 4]})
        out = str(tmp_path / "sparse")
        first = write_partitioned(
            rd.from_pandas(src), out, key="k", num_partitions=8
        )
        assert 0 < first["written_buckets"] <= 2
        assert os.path.exists(os.path.join(out, "_ALL_COMPLETE"))
        mtimes = {
            d: os.stat(os.path.join(out, d, "part.parquet")).st_mtime_ns
            for d in os.listdir(out)
            if d.startswith("bucket-")
        }
        again = write_partitioned(
            rd.from_pandas(src), out, key="k", num_partitions=8
        )
        assert again["written_buckets"] == 0
        assert again["skipped_buckets"] == first["written_buckets"]
        for d, m in mtimes.items():
            assert os.stat(
                os.path.join(out, d, "part.parquet")
            ).st_mtime_ns == m
