"""Sub-resource admission pipeline: the pause-filter decision algebra
(stages/subresource.py) run distributed over a span corpus derived from
the documents table.

Each document gets one media span whose ref is a deterministic function
of ``doc_id % 5`` — the five templates cover every decision branch
(public https allow, metadata-IP deny, own-workdir file allow, non-/tmp
file deny, deny-list match). The aggregate (reason → count) is exactly
re-derivable in SQL, so this operator is oracle-checked end-to-end.

Scale notes: the spanify map and the admission stage are per-batch
Arrow transforms (no shuffle); only the tiny (reason, n) partials
reach the final groupby. The admission stage is a callable CLASS so
regex compilation and the header memo live once per actor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa

from ..io import read_table
from ..schemas import DOCUMENTS_SCHEMA

# the Chromium default deny posture (outbound_test.go:132-134) plus a
# tracker deny — templates 3 and 4 hit these
_POLICY = dict(
    deny=(r"^file:(?!//\/tmp/).*", r"^https://tracker\."),
    deny_private_ips=True,
    workdir="/tmp/gotenberg",
)
# hashable key for the per-worker-process stage memo below
_POLICY_KEY = tuple(sorted(_POLICY.items()))


def _spanify(batch: pa.Table) -> pa.Table:
    """documents row → one-media-span page row; ref by doc_id % 5.

    Columnar construction: the doc string, the five ref templates and
    the two-span list column are all built as whole numpy/Arrow arrays
    (ListArray.from_arrays over interleaved children) — no per-row
    Python."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    n = len(ids)
    span_type = DOCUMENTS_SCHEMA.field("spans").type
    if n == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "route": pa.array([], pa.string()),
                "options_json": pa.array([], pa.string()),
                "spans": pa.array([], span_type),
            }
        )
    d = np.char.add("doc-", np.char.zfill(ids.astype(str), 6))
    k = ids % 5
    ref = np.select(
        [k == 0, k == 1, k == 2, k == 3],
        [
            np.char.add(np.char.add("https://assets.example.com/", d), "/img.png"),
            np.char.add("http://169.254.169.254/meta/", d),
            np.char.add(np.char.add("file:///tmp/gotenberg/", d), "/logo.png"),
            np.char.add(np.char.add("file:///etc/", d), ".conf"),
        ],
        default=np.char.add("https://tracker.bad.example/", d),
    )
    # two struct children per row: a text span then the media span
    media_ref = np.full(2 * n, "", dtype=ref.dtype)
    media_ref[1::2] = ref
    struct_t = span_type.value_type
    children = pa.StructArray.from_arrays(
        [
            pa.array(np.tile(["text", "media"], n), pa.string()),
            pa.array(np.tile(["p", ""], n), pa.string()),
            pa.array(media_ref, pa.string()),
            pa.array(np.tile([0, 1], n).astype(np.int32), pa.int32()),
        ],
        fields=list(struct_t),
    )
    spans = pa.ListArray.from_arrays(
        pa.array(np.arange(0, 2 * n + 1, 2, dtype=np.int32), pa.int32()), children
    )
    return pa.table(
        {
            "doc_id": pa.array(d, pa.string()),
            # local-file route: own workdir allowed
            "route": pa.array(np.full(n, "convert/html"), pa.string()),
            "options_json": pa.array(np.full(n, "{}"), pa.string()),
            "spans": spans.cast(span_type),
        }
    )


@lru_cache(maxsize=4)
def _stage_for(policy_key) -> "SubResourceAdmission":
    """Once-per-worker-process stage instance (regex compile + memos).

    Setup is microseconds (two regex compiles), so per the measured
    actor-vs-task rule this runs as a TASK stage — an actor pool here
    costs ~1.5 s of spin-up per invocation for no state worth keeping."""
    from ..stages.subresource import SubResourceAdmission

    return SubResourceAdmission(**dict(policy_key))


def _decide(batch: pa.Table) -> pa.Table:
    return _stage_for(_POLICY_KEY)(batch)


def subresource_admission(sf_dir: str):
    """Per-sub-resource allow/deny counts by reason (pause filter,
    events.go:46-189) — distributed decide, tiny aggregate."""
    ds = (
        read_table(sf_dir, "documents", columns=["doc_id"])
        .map_batches(_spanify, batch_format="pyarrow")
        .map_batches(_decide, batch_format="pyarrow", batch_size=2048)
        .groupby("reason")
        .count()
    )
    df = ds.to_pandas().rename(columns={"count()": "n"})
    from ..functions.frames import ensure_columns

    df = ensure_columns(df, {"reason": "object", "n": "int64"})
    return df.sort_values("reason").reset_index(drop=True)


# the SQL twin re-derives each template's expected decision from
# doc_id % 5: 0 → allow, 1 → metadata IP (non-public), 2 → own-workdir
# file:// allow, 3 → non-/tmp file deny-list, 4 → tracker deny-list
ADMISSION_SQL = """
SELECT
  CASE doc_id % 5
    WHEN 0 THEN ''
    WHEN 1 THEN 'filtered:non_public_ip'
    WHEN 2 THEN ''
    WHEN 3 THEN 'filtered:deny_list'
    ELSE 'filtered:deny_list'
  END AS reason,
  COUNT(*) AS n
FROM documents
GROUP BY 1
ORDER BY reason
"""
