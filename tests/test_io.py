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

        from gotenberg_ray.io import read_partitioned, write_partitioned

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

        back = read_partitioned(out).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(
            back.reset_index(drop=True),
            src.sort_values("doc_id").reset_index(drop=True),
        )

    def test_incomplete_bucket_is_invisible(self, tmp_path, sf_dir):
        import pandas as pd
        import ray.data as rd

        from gotenberg_ray.io import read_partitioned, write_partitioned

        src = pd.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "lang"])
        out = str(tmp_path / "partial")
        write_partitioned(rd.from_pandas(src), out, key="doc_id",
                          num_partitions=4)
        victim = sorted(
            d for d in os.listdir(out) if d.startswith("bucket-")
        )[0]
        os.remove(os.path.join(out, victim, "_COMPLETE"))
        visible = read_partitioned(out).to_pandas()
        assert 0 < len(visible) < len(src)


class TestAlternateSources:
    """CSV reader — same engine, different landing format."""

    def _docs(self, sf_dir):
        import pyarrow.parquet as pq

        return pq.read_table(f"{sf_dir}/documents.parquet")

    def test_csv_roundtrip_matches_parquet(self, ray_session, sf_dir, tmp_path):
        import pyarrow.csv as pacsv

        from gotenberg_ray import io as gio

        t = self._docs(sf_dir).select(["doc_id", "lang", "source", "n_chars"])
        p = tmp_path / "documents.csv"
        pacsv.write_csv(t, str(p))
        got = (
            gio.read_csv(str(p), columns=["doc_id", "source"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            t.select(["doc_id", "source"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want)


@pytest.mark.usefixtures("ray_session")
class TestAppendAndCompact:
    def _mk(self, tmp_path, runs=3, rows=64):
        import ray.data as rd

        out = str(tmp_path / "landing")
        total = 0
        for r in range(runs):
            t = pa.table(
                {
                    "doc_id": pa.array(
                        range(r * rows, (r + 1) * rows), pa.int64()
                    ),
                    "v": pa.array([r] * rows, pa.int64()),
                }
            )
            res = gio.write_partitioned(
                rd.from_arrow(t), out, key="doc_id",
                num_partitions=4, append=True,
            )
            total += res["written_rows"]
        return out, total

    def test_append_accumulates_and_compact_merges(self, tmp_path):
        out, total = self._mk(tmp_path)
        before = gio.read_partitioned(out).to_pandas()
        assert len(before) == total
        # each bucket holds several small files
        bdirs = [d for d in os.listdir(out) if d.startswith("bucket-")]
        n_files = sum(
            len([f for f in os.listdir(os.path.join(out, d)) if f.endswith(".parquet")])
            for d in bdirs
        )
        assert n_files > len(bdirs)
        res = gio.compact_partitioned(out)
        assert res["rows"] == total and res["removed_files"] > 0
        after = gio.read_partitioned(out).to_pandas()
        pd.testing.assert_frame_equal(
            before.sort_values("doc_id").reset_index(drop=True),
            after.sort_values("doc_id").reset_index(drop=True),
        )
        # idempotent: second run finds nothing to do
        assert gio.compact_partitioned(out)["compacted_buckets"] == 0
        # exactly one merged file remains per bucket
        for d in bdirs:
            files = [
                f for f in os.listdir(os.path.join(out, d))
                if f.endswith(".parquet")
            ]
            assert files == ["compacted.parquet"]

    def test_compact_heals_interrupted_bucket(self, tmp_path):
        out, total = self._mk(tmp_path, runs=2)
        bdir = os.path.join(
            out, sorted(d for d in os.listdir(out) if d.startswith("bucket-"))[0]
        )
        parts = sorted(
            f for f in os.listdir(bdir) if f.endswith(".parquet")
        )
        # simulate a crash AFTER the ready rename, BEFORE the unlinks:
        # manifest + merged file present alongside the superseded
        # originals — PLUS a part appended after the crash, which the
        # heal must preserve (it is not in the manifest)
        merged = pa.concat_tables(
            [pq.read_table(os.path.join(bdir, f)) for f in parts]
        )
        with open(os.path.join(bdir, "_compact.manifest"), "w") as f:
            f.write("\n".join(parts))
        pq.write_table(merged, os.path.join(bdir, "_compact.ready"))
        with open(os.path.join(bdir, "_compact.tmp"), "wb") as f:
            f.write(b"torn")
        late = pa.table(
            {"doc_id": pa.array([99999], pa.int64()),
             "v": pa.array([7], pa.int64())}
        )
        pq.write_table(late, os.path.join(bdir, f"part-{len(parts)}.parquet"))
        gio.compact_partitioned(out)
        after = gio.read_partitioned(out).to_pandas()
        assert len(after) == total + 1  # late-append row survived
        assert 99999 in set(after["doc_id"])
        for leftover in ("_compact.ready", "_compact.tmp", "_compact.manifest"):
            assert not os.path.exists(os.path.join(bdir, leftover))

    def test_heal_without_manifest_discards_and_remerges(self, tmp_path):
        out, total = self._mk(tmp_path, runs=2)
        bdir = os.path.join(
            out, sorted(d for d in os.listdir(out) if d.startswith("bucket-"))[0]
        )
        # a ready file with no manifest is unusable (superseded set
        # unknown) — the re-run must discard it and re-merge safely
        parts = sorted(f for f in os.listdir(bdir) if f.endswith(".parquet"))
        merged = pa.concat_tables(
            [pq.read_table(os.path.join(bdir, f)) for f in parts]
        )
        pq.write_table(merged, os.path.join(bdir, "_compact.ready"))
        gio.compact_partitioned(out)
        after = gio.read_partitioned(out).to_pandas()
        assert len(after) == total
        assert not os.path.exists(os.path.join(bdir, "_compact.ready"))


@pytest.mark.usefixtures("ray_session")
class TestTimeTravel:
    def test_as_of_reproduces_each_generation(self, tmp_path):
        import ray.data as rd

        out = str(tmp_path / "tt")
        per_run = []
        for r in range(3):
            rows = 32 * (r + 1)
            t = pa.table(
                {
                    "doc_id": pa.array(
                        range(r * 1000, r * 1000 + rows), pa.int64()
                    ),
                    "gen": pa.array([r] * rows, pa.int64()),
                }
            )
            gio.write_partitioned(
                rd.from_arrow(t), out, key="doc_id",
                num_partitions=4, append=True,
            )
            per_run.append(rows)
        for k in range(1, 4):
            df = gio.read_partitioned(out, as_of=k).to_pandas()
            assert len(df) == sum(per_run[:k])
            assert set(df["gen"]) == set(range(k))
        # no as_of → everything
        assert len(gio.read_partitioned(out).to_pandas()) == sum(per_run)


@pytest.mark.usefixtures("ray_session")
class TestSinkOperationFuzz:
    def test_random_append_compact_read_sequences(self, tmp_path):
        """Randomized op sequences (append / compact / as-of read /
        full read) against a driver-side reference: the sink's visible
        row multiset must always equal the sum of landings, and as-of
        reads must reproduce exactly the prefix generations."""
        import numpy as np
        import ray.data as rd

        rng = np.random.RandomState(1234)
        out = str(tmp_path / "fuzz")
        landed: list[pa.Table] = []
        next_id = 0
        for step in range(12):
            op = rng.choice(["append", "append", "compact", "read"])
            if op == "append":
                rows = int(rng.randint(5, 40))
                t = pa.table(
                    {
                        "doc_id": pa.array(
                            range(next_id, next_id + rows), pa.int64()
                        ),
                        "gen": pa.array([len(landed)] * rows, pa.int64()),
                    }
                )
                next_id += rows
                gio.write_partitioned(
                    rd.from_arrow(t), out, key="doc_id",
                    num_partitions=4, append=True,
                )
                landed.append(t)
            elif op == "compact" and landed:
                gio.compact_partitioned(out)
            elif landed:
                got = (
                    gio.read_partitioned(out)
                    .to_pandas()
                    .sort_values("doc_id")
                    .reset_index(drop=True)
                )
                want = (
                    pa.concat_tables(landed)
                    .to_pandas()
                    .sort_values("doc_id")
                    .reset_index(drop=True)
                )
                pd.testing.assert_frame_equal(got, want)
        # final full-state check
        if landed:
            got = (
                gio.read_partitioned(out)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            want = (
                pa.concat_tables(landed)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want)


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

    def test_as_of_consistent_when_landing_skips_buckets(self, tmp_path):
        """Landing generations are layout-uniform: a landing that
        hashes no rows into some bucket must not shift later landings'
        generation numbers there (review-found snapshot skew)."""
        import pandas as pd
        import ray.data as rd

        from gotenberg_ray.io import read_partitioned, write_partitioned

        out = str(tmp_path / "tt2")
        # landing 0: ONE key → one occupied bucket
        l0 = pd.DataFrame({"k": [7] * 5, "gen": [0] * 5})
        write_partitioned(
            rd.from_pandas(l0), out, key="k", num_partitions=4, append=True
        )
        # landing 1: many keys → several buckets (incl. 7's)
        l1 = pd.DataFrame({"k": list(range(12)), "gen": [1] * 12})
        write_partitioned(
            rd.from_pandas(l1), out, key="k", num_partitions=4, append=True
        )
        snap0 = read_partitioned(out, as_of=1).to_pandas()
        assert set(snap0["gen"]) == {0} and len(snap0) == 5
        snap1 = read_partitioned(out, as_of=2).to_pandas()
        assert len(snap1) == 17
        assert len(read_partitioned(out).to_pandas()) == 17
