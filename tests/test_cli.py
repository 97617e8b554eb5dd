"""CLI entry point (`python -m gotenberg_ray`) — each subcommand runs
in its own process with its own Ray session (the CLI owns init)."""

import json
import subprocess
import sys
from pathlib import Path

REPO = str(Path(__file__).resolve().parent.parent)


def _run(*argv, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "gotenberg_ray", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )


def test_list_names_every_query():
    r = _run("list")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    assert len(lines) >= 70
    assert any("oracle" in l for l in lines)
    assert any("rows-only" in l for l in lines)


def test_query_json_roundtrip():
    r = _run("query", "sample_bottomk", "--json")
    assert r.returncode == 0, r.stderr[-500:]
    rows = json.loads(r.stdout.strip().splitlines()[-1])
    assert len(rows) == 100 and {"doc_id", "lang"} <= set(rows[0])


def test_unknown_query_is_an_error():
    r = _run("query", "no_such_pipeline")
    assert r.returncode == 2
    assert "unknown query" in r.stderr


def test_crawl_resubmitted_with_a_larger_budget_resumes(ray_session, sf_dir, tmp_path, capsys):
    """A crawl stopped at 60 fetches and resubmitted with ``--resume`` at
    120 ends on the same snapshot and fetch count as one 120-fetch crawl."""
    from gotenberg_ray.__main__ import main
    from gotenberg_ray.frontier import checkpoint as ckpt

    def crawl(name, fetches, *flags):
        ck = str(tmp_path / name / "ck")
        argv = ["crawl", sf_dir, str(tmp_path / name / "pages"), "--fetches", str(fetches)]
        assert main([*argv, "--checkpoint-dir", ck, *flags]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        return out["urls_fetched"], ckpt.checkpoint_digest(ckpt.latest_epoch_dir(ck))

    first, _ = crawl("split", 60)
    resumed = crawl("split", 120, "--resume")
    whole = crawl("whole", 120)
    assert first < resumed[0]
    assert resumed == whole
    assert ray_session.is_initialized()  # the caller's session is left running
