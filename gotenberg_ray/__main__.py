"""CLI entry point — the engine's equivalent of invoking the
reference service, for users driving it outside a Python session:

    python -m gotenberg_ray convert  IN_PARQUET OUT_DIR
    python -m gotenberg_ray crawl    SF_DIR PAGES_DIR [--fetches N]
    python -m gotenberg_ray query    NAME [--sf-dir DIR]
    python -m gotenberg_ray list
    python -m gotenberg_ray curate   SF_DIR OUT_DIR [--ctx N]

The CLI owns the Ray session (guarded init, shutdown at exit) — the
library itself never calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_convert(args) -> int:
    import pyarrow as pa
    import ray.data as rd

    from .pipelines.convert import convert_batch

    _ray()

    def ensure_route_cols(batch: pa.Table) -> pa.Table:
        # accept any span corpus: default the per-row route/options the
        # reference would receive as form fields
        n = batch.num_rows
        if "route" not in batch.column_names:
            batch = batch.append_column(
                "route", pa.array([args.route] * n, pa.string())
            )
        if "options_json" not in batch.column_names:
            batch = batch.append_column(
                "options_json", pa.array(["{}"] * n, pa.string())
            )
        keep = [
            c for c in ("doc_id", "spans", "route", "options_json")
            if c in batch.column_names
        ]
        return batch.select(keep)

    ds = (
        rd.read_parquet(args.input)
        .map_batches(ensure_route_cols, batch_format="pyarrow")
        .map_batches(convert_batch, batch_format="pyarrow")
        # materialize once: write + count on a lazy plan would run the
        # whole conversion twice
        .materialize()
    )
    ds.write_parquet(args.output)
    print(json.dumps({"pages_written": ds.count(), "out": args.output}))
    return 0


def cmd_crawl(args) -> int:
    from .frontier.crawler import CrawlConfig, run_crawl
    from .pipelines.flagship import spanify_documents
    from .corpus import host_pool, make_frontier, make_robots

    _ray()
    docs = spanify_documents(args.sf_dir)
    frontier = make_frontier(args.urls, n_docs=docs.num_rows, seed=args.seed)
    robots = make_robots(host_pool(args.hosts), seed=args.seed)
    cfg = CrawlConfig(
        n_partitions=args.partitions,
        max_fetches=args.fetches,
        seed=args.seed,
    )
    res = run_crawl(frontier, docs, robots, cfg, mode="ray", pages_dir=args.pages_dir)
    print(
        json.dumps(
            {
                "urls_fetched": res.fetch_seq,
                "epochs": res.epochs,
                "pages_dir": args.pages_dir,
            }
        )
    )
    return 0


def _entry_module():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("entry_mod", path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def cmd_query(args) -> int:
    _ray()
    qs = _entry_module().queries()
    if args.name not in qs:
        print(f"unknown query {args.name!r}; try `list`", file=sys.stderr)
        return 2
    res = qs[args.name](args.sf_dir)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    if args.json:
        print(res.to_json(orient="records"))
    else:
        print(res.to_string(max_rows=args.max_rows))
    return 0


def cmd_list(args) -> int:
    m = _entry_module()
    qs, oq = m.queries(), m.oracle_sql()
    for name in sorted(qs):
        print(f"{name:32s} {'oracle' if name in oq else 'rows-only'}")
    return 0


def cmd_curate(args) -> int:
    from .pipelines.train import training_data_pipeline

    _ray()
    summary = training_data_pipeline(args.sf_dir, ctx=args.ctx, out_dir=args.output)
    print(summary.iloc[0].to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="gotenberg_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("convert", help="run the conversion chain over a parquet corpus")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--route", default="convert/html",
                   help="route for rows without a route column")
    c.set_defaults(fn=cmd_convert)

    c = sub.add_parser("crawl", help="crawl the span corpus built from a testdata dir")
    c.add_argument("sf_dir")
    c.add_argument("pages_dir")
    c.add_argument("--fetches", type=int, default=10_000)
    c.add_argument("--urls", type=int, default=400)
    c.add_argument("--hosts", type=int, default=20)
    c.add_argument("--partitions", type=int, default=4)
    c.add_argument("--seed", type=int, default=42)
    c.set_defaults(fn=cmd_crawl)

    c = sub.add_parser("query", help="run a named pipeline")
    c.add_argument("name")
    c.add_argument("--sf-dir", default="/root/testdata/sf0.001", dest="sf_dir")
    c.add_argument("--json", action="store_true")
    c.add_argument("--max-rows", type=int, default=20)
    c.set_defaults(fn=cmd_query)

    c = sub.add_parser("list", help="list pipelines and their check mode")
    c.set_defaults(fn=cmd_list)

    c = sub.add_parser("curate", help="crawl -> curate -> pack -> shards")
    c.add_argument("sf_dir")
    c.add_argument("output")
    c.add_argument("--ctx", type=int, default=512)
    c.set_defaults(fn=cmd_curate)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        try:
            import ray

            if ray.is_initialized():
                ray.shutdown()
        except Exception:
            pass


if __name__ == "__main__":
    sys.exit(main())
