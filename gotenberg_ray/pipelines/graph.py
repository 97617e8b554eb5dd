"""Distributed connected components — near-dup cluster resolution.

The last step of a production dedup pipeline: near-dup PAIRS (from
minhash / ngram-Jaccard / embedding verification) form a graph whose
connected components are the duplicate clusters; training keeps one
canonical document per component (the minimum doc_id here, so the
result is deterministic).

Algorithm: hash-min label propagation. Every node starts with its own
id as label; each round every node takes the min of its own label and
its neighbours' labels; the fixed point assigns every node the minimum
id of its component. One round = one bucketed shuffle join
(``pipelines/joins.hash_join``: edges ⋈ labels on src) + one groupby
min — both hash-partitioned by node id, so a round moves O(E + V) rows
and nothing lands on the driver. Rounds needed = component diameter,
which for near-dup clusters (cliques plus a few bridges) is small and
bounded by ``max_iters``; a general deep graph would want the
large-star/small-star variant (O(log n) rounds), which this corpus
never needs.

Convergence detection without a second join: labels only ever
decrease, so ``sum(label)`` is strictly monotone until the fixed point
— one cheap distributed aggregate per round instead of an old-vs-new
comparison join.

Driver fast path: a verified near-dup pair list is tiny relative to
the corpus (it is the OUTPUT of dedup). Below ``driver_max_edges``
(16 bytes/edge → ≤32 MB) a fully vectorized numpy min-propagation
with pointer jumping (O(E) per round, O(log n) rounds, no Python per
edge) on the collected edge list is faster than any shuffle; above it
the distributed rounds engage unchanged — mirroring the adaptive
small-pairs path in ``textops._verify_pairs_distributed``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.frames import ensure_columns
from .joins import bucket_fold, hash_join

_I64 = pa.int64()
_EMPTY = pa.table(
    {"doc_id": pa.array([], _I64), "cluster_rep": pa.array([], _I64)}
)

DRIVER_MAX_EDGES = 2_000_000


def _numpy_components(u: np.ndarray, v: np.ndarray) -> pa.Table:
    """Vectorized min-label propagation with pointer jumping over the
    (small) collected edges — O(E) numpy work per round, O(log n)
    rounds, no Python per edge. At the fixed point every edge's
    endpoints share a label c with lbl[c] == c; labels only decrease
    and never leave the component, so c is the component's min node."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u) :]
    lbl = np.arange(len(nodes))
    while True:
        new = lbl.copy()
        np.minimum.at(new, ui, lbl[vi])
        np.minimum.at(new, vi, lbl[ui])
        new = new[new]  # pointer jumping: follow one label hop
        if np.array_equal(new, lbl):
            break
        lbl = new
    return pa.table(
        {
            "doc_id": pa.array(nodes, _I64),
            "cluster_rep": pa.array(nodes[lbl], _I64),
        }
    )


def connected_components(
    edges: rd.Dataset,
    *,
    num_partitions: int = 16,
    max_iters: int = 64,
    driver_max_edges: int = DRIVER_MAX_EDGES,
) -> pa.Table:
    """Components of an undirected edge list (columns ``u``, ``v``,
    int64). Returns (doc_id, cluster_rep) for every node that appears
    in at least one edge, sorted by doc_id; cluster_rep is the minimum
    node id of the component."""
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _EMPTY
    if n_edges <= driver_max_edges:
        df = edges.to_pandas()
        return _numpy_components(
            df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)
        )

    def bidir(b: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [
                pa.table({"src": b["u"], "dst": b["v"]}),
                pa.table({"src": b["v"], "dst": b["u"]}),
            ]
        )

    bi = edges.map_batches(bidir, batch_format="pyarrow").materialize()

    def init_labels(b: pa.Table) -> pa.Table:
        n = np.unique(b["src"].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(n, _I64), "lbl": pa.array(n, _I64)})

    from ray.data.aggregate import Min as _MinInit

    # global dedup before the loop: batch-local unique leaves one
    # (node, lbl) row PER BLOCK a node appears in, and every duplicate
    # multiplies round-1 join messages by the node's block fan-out
    labels = (
        bi.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node", num_partitions=num_partitions)
        .aggregate(_MinInit("lbl", alias_name="lbl"))
    )
    prev_sum: int | None = None
    converged = False
    for _ in range(max_iters):
        msgs = hash_join(
            bi,
            labels,
            on="src",
            right_on="node",
            num_partitions=num_partitions,
            left_schema=[("src", _I64), ("dst", _I64)],
            right_schema=[("node", _I64), ("lbl", _I64)],
        ).map_batches(
            lambda b: pa.table({"node": b["dst"], "lbl": b["lbl"]}),
            batch_format="pyarrow",
        )

        def partial_min(b: pa.Table) -> pa.Table:
            d = (
                pd.DataFrame(
                    {
                        "node": b["node"].to_numpy(zero_copy_only=False),
                        "lbl": b["lbl"].to_numpy(zero_copy_only=False),
                    }
                )
                .groupby("node", sort=False)["lbl"]
                .min()
            )
            return pa.table(
                {
                    "node": pa.array(d.index.to_numpy(), _I64),
                    "lbl": pa.array(d.to_numpy(), _I64),
                }
            )

        # per-batch combine, then the NATIVE Min aggregate: a per-key
        # map_groups would invoke Python once per node (O(V) calls per
        # round); the native path folds in C with one shuffle
        from ray.data.aggregate import Min as _Min

        new = (
            labels.union(msgs)
            .map_batches(partial_min, batch_format="pyarrow")
            .groupby("node", num_partitions=num_partitions)
            .aggregate(_Min("lbl", alias_name="lbl"))
            # block-count reset: the sort-shuffle preserves input block
            # count and the union adds blocks each round — unchecked,
            # block counts grow per round (see hierarchy_rollup)
            .repartition(num_partitions)
            .materialize()
        )
        s = int(new.sum("lbl"))
        labels = new
        if s == prev_sum:  # labels are monotone: equal sum ⇒ fixed point
            converged = True
            break
        prev_sum = s
    if not converged:
        # intermediate labels are NOT component representatives —
        # returning them would silently leak duplicate docs downstream
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "rounds; the graph has a component deeper than max_iters — "
            "raise max_iters (rounds needed = component diameter)"
        )

    out = labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b["node"], "cluster_rep": b["lbl"]}
        ),
        batch_format="pyarrow",
    ).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ------------------------------------------------------ PageRank


PR_SCALE = 1_000_000_000  # ranks as ×10⁹ ints — deterministic sums


def _doc_link_edges(sf_dir: str):
    """Deterministic link graph DERIVED from the documents table: doc
    ``i`` links to ``((i·2654435761 + j·40503) mod N)² mod N`` for
    j∈{1,2,3} — the squaring makes the map non-bijective, so in-degree
    is SKEWED (quadratic residues collect multiple preimages): some
    docs are hubs, some get no links, exactly the shape PageRank
    exists for. Fully reproducible from the ids alone; self-loops
    dropped.

    Range bound (documented, like the packing twins' HUGEINT note):
    the int64 product ``doc_id·2654435761`` is exact only for
    doc_id < 2⁶³/2654435761 ≈ 3.47·10⁹; beyond that the engine's
    int64 wrap and the twin's exact BIGINT product diverge (and DuckDB
    would overflow). The derived demo graph is defined on doc_ids
    within that bound; a 10¹⁰-node graph would switch both sides to
    an explicit mod-2⁶⁴ hash (as the packing family does)."""
    import pyarrow.compute as pc

    from ..io import read_table

    from ..io import table_rows

    n_nodes = table_rows(sf_dir, "documents")  # footer count, no read pass

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(ids))
        h = (src * 2654435761 + j * 40503) % n_nodes
        dst = (h * h) % n_nodes
        keep = src != dst
        return pa.table(
            {"src": pa.array(src[keep]), "dst": pa.array(dst[keep])}
        )

    edges = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        explode, batch_format="pyarrow"
    )
    return edges, n_nodes


def _driver_link_graph(sf_dir: str):
    """Size-gated driver copy of the derived link graph (the
    ``DRIVER_MAX_EDGES`` contract, same as components / pagerank): for
    n_docs·3 edges under the cap, the doc_id column ships to the
    driver once and the edge list regenerates in numpy — cheaper than
    K statically-planned join rounds whose per-round keyed exchange is
    a fixed cost regardless of how few rows move. Returns
    ``(ids, src, dst, n_nodes)`` or ``None`` above the gate; the
    iterative distributed solvers below remain the 100 TB path
    (pytest pins equality of both paths)."""
    from ..io import read_table, table_rows

    n_nodes = table_rows(sf_dir, "documents")
    if n_nodes == 0 or n_nodes * 3 > DRIVER_MAX_EDGES:
        return None
    import ray as _ray

    t = pa.concat_tables(
        _ray.get(read_table(sf_dir, "documents", ["doc_id"]).to_arrow_refs())
    )
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    src = np.repeat(ids, 3)
    j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(ids))
    h = (src * 2654435761 + j * 40503) % n_nodes
    dst = (h * h) % n_nodes
    keep = src != dst
    return ids, src[keep], dst[keep], n_nodes


def _numpy_pagerank(
    src: np.ndarray,
    dst: np.ndarray,
    n_nodes: int,
    iters: int,
    d_e3: int,
) -> np.ndarray:
    """Driver power iteration over the (small) collected edge list —
    bit-identical to the distributed rounds: the same ×10⁹ scaled-int
    shares with floor division and order-independent integer sums, so
    the two paths are interchangeable (tested for equality)."""
    out_deg = np.bincount(src, minlength=n_nodes).astype(np.int64)
    base = PR_SCALE // n_nodes
    teleport = (1000 - d_e3) * base // 1000
    ranks = np.full(n_nodes, base, dtype=np.int64)
    denom = out_deg[src] * 1000
    for _ in range(iters):
        share = ranks[src] * d_e3 // denom
        inflow = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(inflow, dst, share)
        ranks = inflow + teleport
    return ranks


def pagerank(
    sf_dir: str,
    iters: int = 10,
    d_e3: int = 850,
    k: int = 20,
    driver_max_edges: int = DRIVER_MAX_EDGES,
) -> pd.DataFrame:
    """PageRank over the derived document link graph — the ITERATIVE
    dataflow shape (power iteration): each round is one bucketed
    shuffle join (edges ⋈ ranks on src) + one groupby(dst) sum + the
    teleport term, with the O(nodes) rank table MATERIALIZED per round
    (the edges stream through every pass; only ranks persist — the
    standard iterative-solver layout at 100 TB).

    All arithmetic is scaled-integer (×10⁹ ranks, damping as
    ``d_e3/1000``), so reductions are order-independent and the result
    is bit-deterministic under any block layout. Integer floor loses
    ≤1 unit per edge per round (≲3·N per round over ~10⁹ total mass) —
    bounded, tested, and a price worth paying for exact
    reproducibility. Rows-only check (iterative, not SQL).

    Driver fast path (same adaptive rule as ``connected_components``):
    below ``driver_max_edges`` the per-round Ray exchange is pure fixed
    cost, so a vectorized numpy power iteration with IDENTICAL integer
    arithmetic runs on the collected edges instead; above it the
    distributed rounds engage unchanged. Equality of the two paths is
    pinned by ``tests/test_graph.py``."""
    from ray.data.aggregate import Sum

    from .joins import hash_join
    from .relational import JOIN_PARTITIONS

    edges, n_nodes = _doc_link_edges(sf_dir)
    if n_nodes == 0:  # empty corpus → typed empty ranking
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "rank_e9": pd.Series([], dtype="int64")}
        )

    if 3 * n_nodes <= driver_max_edges:  # edge count is ≤ 3·n_nodes
        # ≤16 B/edge and the rank vector is n_nodes ints: both fit the
        # driver comfortably under the threshold
        df = edges.to_pandas()
        ranks_np = _numpy_pagerank(
            df["src"].to_numpy(np.int64),
            df["dst"].to_numpy(np.int64),
            n_nodes,
            iters,
            d_e3,
        )
        out = pd.DataFrame(
            {
                "doc_id": np.arange(n_nodes, dtype=np.int64),
                "rank_e9": ranks_np,
            }
        )
        out = out.sort_values(
            ["rank_e9", "doc_id"], ascending=[False, True]
        ).head(k)
        return out.reset_index(drop=True)

    # out-degree per src (one tiny aggregate, reused every round)
    deg = (
        edges.map_batches(
            lambda b: b.select(["src"]).group_by("src").aggregate([([], "count_all")]),
            batch_format="pyarrow",
        )
        .groupby("src")
        .aggregate(Sum("count_all", alias_name="out_deg"))
    )
    edges_deg = hash_join(
        edges, deg, on="src", num_partitions=JOIN_PARTITIONS,
        left_schema=[("src", pa.int64()), ("dst", pa.int64())],
        right_schema=[("src", pa.int64()), ("out_deg", pa.int64())],
    ).materialize()

    base = PR_SCALE // n_nodes
    teleport = (1000 - d_e3) * base // 1000

    ranks = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(np.arange(n_nodes, dtype=np.int64)),
                "rank": pa.array(np.full(n_nodes, base, dtype=np.int64)),
            }
        )
    ).materialize()

    # P sized to the graph: this per-iteration exchange dominates the
    # solver's fixed cost, so tiny graphs use few partitions (∝ nodes
    # at scale — same rule as JOIN_PARTITIONS)
    p = max(2, min(JOIN_PARTITIONS, n_nodes // 200))
    zeros = pa.table(
        {
            "src": pa.array(np.arange(n_nodes, dtype=np.int64)),
            "c_sum": pa.array(np.zeros(n_nodes, dtype=np.int64)),
        }
    )
    for _ in range(iters):
        joined = hash_join(
            edges_deg, ranks, on="src", num_partitions=p,
            left_schema=[("src", pa.int64()), ("dst", pa.int64()),
                         ("out_deg", pa.int64())],
            right_schema=[("src", pa.int64()), ("rank", pa.int64())],
        )

        def contrib(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            share = pc.divide(
                pc.multiply(batch["rank"], pa.scalar(d_e3, pa.int64())),
                pc.multiply(batch["out_deg"], pa.scalar(1000, pa.int64())),
            )
            t = pa.table({"src": batch["dst"], "c": share})
            return t.group_by("src").aggregate([("c", "sum")])

        # ONE shuffle per round: contributions union a zero row per
        # node (so rankless nodes still appear), then a single
        # groupby-sum; the teleport term adds in the same pass
        def finish(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            r = pc.add(batch["inflow"], pa.scalar(teleport, pa.int64()))
            return pa.table({"src": batch["src"], "rank": r})

        ranks = (
            joined.map_batches(contrib, batch_format="pyarrow")
            .union(rd.from_arrow(zeros))
            .groupby("src")
            .aggregate(Sum("c_sum", alias_name="inflow"))
            .map_batches(finish, batch_format="pyarrow")
            .materialize()
        )

    df = ranks.to_pandas().rename(columns={"src": "doc_id", "rank": "rank_e9"})
    df = df.sort_values(["rank_e9", "doc_id"], ascending=[False, True]).head(k)
    df["doc_id"] = df["doc_id"].astype("int64")
    df["rank_e9"] = df["rank_e9"].astype("int64")
    return df.reset_index(drop=True)


# ------------------------------------------------- triangle counting


_DRIVER_MAX_WEDGES = 20_000_000


def _numpy_triangles(src: np.ndarray, dst: np.ndarray, n_nodes: int) -> int | None:
    """Driver triangle count over the collected edge list — the same
    orientation algebra as the distributed two-join path: canonical
    lo<hi edges, wedges a<m<c from an (a,m)+(m,c) middle-vertex join,
    closing-edge probe by searchsorted on the packed sorted edge set.
    Fully vectorized (segment cross-products via repeat + arange).
    Returns None when the wedge count exceeds ``_DRIVER_MAX_WEDGES`` —
    the caller then falls through to the distributed path, which never
    materializes the wedge set in one address space."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    pack = np.unique(lo * np.int64(n_nodes) + hi)  # distinct, sorted by (lo, hi)
    lo = pack // n_nodes
    hi = pack % n_nodes
    # C side (middle = lo, c = hi) is already grouped by lo in pack order
    cntC = np.bincount(lo, minlength=n_nodes)
    startC = np.concatenate([[0], np.cumsum(cntC)[:-1]])
    # A side (middle = hi, a = lo) grouped by sorting on hi
    order = np.argsort(hi, kind="stable")
    aA = lo[order]
    mA = hi[order]
    reps = cntC[mA]
    n_wedges = int(reps.sum())
    if n_wedges > _DRIVER_MAX_WEDGES:
        return None
    if n_wedges == 0:
        return 0
    seg_start = np.cumsum(reps) - reps
    idx = np.repeat(startC[mA] - seg_start, reps) + np.arange(n_wedges)
    wpack = np.repeat(aA, reps) * np.int64(n_nodes) + hi[idx]
    pos = np.minimum(np.searchsorted(pack, wpack), len(pack) - 1)
    return int((pack[pos] == wpack).sum())


def triangle_count(sf_dir: str) -> pd.DataFrame:
    """Distributed triangle count over the derived document link graph
    — the canonical two-join graph dataflow: orient every undirected
    edge low→high, self-join on the middle vertex to enumerate wedges
    a<b<c (each triangle yields exactly one oriented wedge), then a
    LEFT SEMI join probes the closing edge (a,c) against the edge set.
    Both joins are the bucketed ``hash_join`` (hash-partitioned by
    vertex / packed edge key), so the exchange carries edges and
    wedges, never adjacency materialized on the driver. The edge
    generator is pure modular arithmetic on doc_id, so the DuckDB twin
    reproduces the graph exactly — this one IS oracle-checked, unlike
    the iterative solvers.

    Under the ``DRIVER_MAX_EDGES`` gate (same contract as components /
    pagerank) the edge list regenerates on the driver and a vectorized
    numpy wedge count answers directly — two statically-planned
    bucketed joins are a fixed multi-exchange cost regardless of how
    few rows move. pytest pins both paths equal; a secondary wedge
    budget keeps the driver path from materializing a skew-blown
    wedge set."""
    from ray.data.aggregate import Count

    from .joins import hash_join
    from .relational import JOIN_PARTITIONS

    edges, n_nodes = _doc_link_edges(sf_dir)
    if n_nodes == 0:
        return pd.DataFrame({"n_triangles": pd.Series([0], dtype="int64")})

    g = _driver_link_graph(sf_dir)
    if g is not None:
        n_tri = _numpy_triangles(g[1], g[2], g[3])
        if n_tri is not None:  # wedge budget honored (see kernel)
            return pd.DataFrame(
                {"n_triangles": pd.Series([n_tri], dtype="int64")}
            )

    def canon_pack(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        pack = np.unique(lo * np.int64(n_nodes) + hi)  # batch-local dedup
        return pa.table({"pack": pa.array(pack, _I64)})

    def decode(b: pa.Table) -> pa.Table:
        pack = b["pack"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lo": pa.array(pack // n_nodes, _I64),
                "hi": pa.array(pack % n_nodes, _I64),
                "pack": pa.array(pack, _I64),
            }
        )

    # distinct undirected edges; reused by both joins → materialize
    e = (
        edges.map_batches(canon_pack, batch_format="pyarrow")
        .groupby("pack")
        .aggregate(Count(alias_name="_n"))
        .map_batches(decode, batch_format="pyarrow")
        .materialize()
    )

    left = e.map_batches(
        lambda b: pa.table({"m": b["hi"], "a": b["lo"]}),
        batch_format="pyarrow",
    )
    right = e.map_batches(
        lambda b: pa.table({"m": b["lo"], "c": b["hi"]}),
        batch_format="pyarrow",
    )
    wedges = hash_join(
        left, right, on="m", num_partitions=JOIN_PARTITIONS,
        left_schema=[("m", _I64), ("a", _I64)],
        right_schema=[("m", _I64), ("c", _I64)],
    ).map_batches(
        lambda b: pa.table(
            {
                "pack": pa.array(
                    b["a"].to_numpy(zero_copy_only=False) * np.int64(n_nodes)
                    + b["c"].to_numpy(zero_copy_only=False),
                    _I64,
                )
            }
        ),
        batch_format="pyarrow",
    )
    closed = hash_join(
        wedges,
        e.map_batches(
            lambda b: pa.table({"pack": b["pack"]}), batch_format="pyarrow"
        ),
        on="pack",
        num_partitions=JOIN_PARTITIONS,
        join_type="left semi",
        left_schema=[("pack", _I64)],
        right_schema=[("pack", _I64)],
    )
    n_tri = closed.count()
    return pd.DataFrame({"n_triangles": pd.Series([n_tri], dtype="int64")})


TRIANGLES_SQL = """
WITH n AS (SELECT count(*) AS nn FROM documents),
raw AS (
  SELECT doc_id AS src,
         (((doc_id*2654435761 + j*40503) % nn)
          * ((doc_id*2654435761 + j*40503) % nn)) % nn AS dst
  FROM documents, (VALUES (1),(2),(3)) t(j), n
),
e AS (
  SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
  FROM raw WHERE src <> dst
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM e e1
JOIN e e2 ON e2.lo = e1.hi
JOIN e e3 ON e3.lo = e1.lo AND e3.hi = e2.hi
"""


# ------------------------------------------------------- depth-k BFS

BFS_SEEDS = 5  # doc_id < BFS_SEEDS start the traversal
BFS_DEPTH = 3  # hop budget


def reachable_nodes(sf_dir: str) -> pd.DataFrame:
    """Depth-bounded BFS over the deterministic link graph: every node
    reachable from the seed set (doc_id < 5) within ≤ 3 directed hops,
    with its MINIMUM hop depth — the multi-hop expansion primitive
    (recursive CTE / graph-traversal shape) Ray Data has no native
    operator for.

    Distributed shape: classic frontier iteration, TWO all-to-alls per
    round: (1) one bucketed ``hash_join`` of the (node-sized) frontier
    against the edge table on ``src`` — the exchange carries the
    frontier and its out-edges only, never the whole adjacency; (2)
    one ``groupby(node).min(depth)`` over visited ∪ candidates, which
    folds same-round dedup, the anti join against earlier rounds, AND
    the visited merge into a single min-reduction (a node's depth is
    final the first round it appears, so min() preserves it). The next
    frontier is just the rows whose min depth equals the round number.
    The hop budget bounds the rounds, so the plan is statically K
    rounds long (no driver-side convergence loop over row data). The
    DuckDB twin is the recursive CTE over the same edge generator."""
    from ray.data.aggregate import Min

    from .joins import hash_join

    small = _driver_link_graph(sf_dir)
    if small is not None:
        ids, src, dst, _n = small
        m_dom = int(max(ids.max(), dst.max(initial=0))) + 1
        depth = np.full(m_dom, -1, np.int64)
        frontier = ids[ids < BFS_SEEDS]
        depth[frontier] = 0
        for k in range(1, BFS_DEPTH + 1):
            if not len(frontier):
                break
            in_f = np.zeros(m_dom, bool)
            in_f[frontier] = True
            cand = dst[in_f[src]]
            frontier = np.unique(cand[depth[cand] < 0])
            depth[frontier] = k
        keys = np.flatnonzero(depth >= 0)
        return pd.DataFrame(
            {"doc_id": keys.astype(np.int64), "depth": depth[keys]}
        ).reset_index(drop=True)

    # materialize the derived edge table ONCE — every BFS round joins
    # against it, and a lazy Dataset would re-derive it per round (at
    # scale: the one-time edge partitioning amortized across rounds)
    edges, _ = _doc_link_edges(sf_dir)
    edges = edges.materialize()

    def seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids < BFS_SEEDS
        return pa.table(
            {
                "node": pa.array(ids[keep].astype(np.int64)),
                "depth": pa.array(np.zeros(int(keep.sum()), np.int64)),
            }
        )

    from ..io import read_table

    visited = (
        read_table(sf_dir, "documents", ["doc_id"])
        .map_batches(seeds, batch_format="pyarrow")
        .materialize()
    )  # compact (node, min-depth) rows, one per discovered node
    frontier = visited
    edge_schema = [("src", pa.int64()), ("dst", pa.int64())]

    for k in range(1, BFS_DEPTH + 1):
        # expand: frontier ⋈ edges on node=src → candidate dst's at k
        def fr_prep(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or "node" not in b.column_names:
                return pa.table({"src": pa.array([], pa.int64())})
            return pa.table({"src": b["node"]})

        expanded = hash_join(
            frontier.map_batches(fr_prep, batch_format="pyarrow"),
            edges,
            on="src",
            num_partitions=8,
            left_schema=[("src", pa.int64())],
            right_schema=edge_schema,
        )

        def next_nodes(b: pa.Table, _k=k) -> pa.Table:
            if b.num_rows == 0 or "dst" not in b.column_names:
                return pa.table(
                    {"node": pa.array([], pa.int64()),
                     "depth": pa.array([], pa.int64())}
                )
            t = pa.table({"node": b["dst"]})
            t = t.group_by("node").aggregate([])  # batch-local dedup
            return t.append_column(
                "depth", pa.array(np.full(t.num_rows, _k, np.int64))
            )

        candidates = expanded.map_batches(next_nodes, batch_format="pyarrow")
        # one min-reduction = dedup + anti-join + visited merge
        visited = (
            visited.union(candidates)
            .groupby("node")
            .aggregate(Min("depth", alias_name="depth"))
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["node"], pa.int64()),
                        "depth": pc.cast(b["depth"], pa.int64()),
                    }
                )
                if b.num_rows and "node" in b.column_names
                else pa.table(
                    {"node": pa.array([], pa.int64()),
                     "depth": pa.array([], pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(8)  # the sort-shuffle preserves block count;
            # unchecked, blocks multiply per round (see hierarchy_rollup)
            .materialize()  # two consumers: next round + final collect
        )
        if k < BFS_DEPTH:
            frontier = visited.filter(
                expr=f"depth == {k}"
            )  # fresh nodes only — fused map, no extra exchange

    df = visited.to_pandas()
    df = ensure_columns(df, {"node": "int64", "depth": "int64"})
    df = df.rename(columns={"node": "doc_id"})
    for c in ("doc_id", "depth"):
        df[c] = df[c].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


REACHABLE_SQL = f"""
WITH RECURSIVE
n AS (SELECT count(*) AS nn FROM documents),
edges AS (
  SELECT DISTINCT doc_id AS src,
         (((doc_id*2654435761 + j*40503) % nn)
          * ((doc_id*2654435761 + j*40503) % nn)) % nn AS dst
  FROM documents, (VALUES (1),(2),(3)) t(j), n
  WHERE (((doc_id*2654435761 + j*40503) % nn)
         * ((doc_id*2654435761 + j*40503) % nn)) % nn <> doc_id
),
bfs AS (
  SELECT doc_id AS node, 0 AS depth FROM documents
  WHERE doc_id < {BFS_SEEDS}
  UNION ALL
  SELECT e.dst, b.depth + 1
  FROM bfs b JOIN edges e ON e.src = b.node
  WHERE b.depth < {BFS_DEPTH}
)
SELECT node AS doc_id, CAST(min(depth) AS BIGINT) AS depth
FROM bfs GROUP BY node ORDER BY doc_id
"""


# -------------------------------------------- weighted shortest path

SP_SEEDS = BFS_SEEDS  # same seed set as the BFS
SP_HOPS = 3  # relaxation rounds (Bellman-Ford bound)
_SP_COST_CAP = 64  # max cost < 64 at this hop budget → packs in 6 bits


def _weighted_edges(sf_dir: str):
    """Link graph + deterministic weight w = 1 + ((src+dst) mod 5)."""
    edges, n = _doc_link_edges(sf_dir)

    def add_w(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        return b.append_column("w", pa.array(1 + (src + dst) % 5))

    return edges.map_batches(add_w, batch_format="pyarrow"), n


def shortest_paths(sf_dir: str) -> pd.DataFrame:
    """Bounded-hop weighted shortest paths from the seed set (doc_id <
    5) — distributed Bellman-Ford: ``SP_HOPS`` relaxation rounds, each
    ONE bucketed frontier⋈edges join plus ONE min-cost groupby; the
    next frontier is exactly the set of nodes whose best cost IMPROVED
    (found with one anti join on packed (node, cost) keys — cost ≤ 63
    rides in the low 6 bits), so settled subgraphs stop generating
    traffic, the delta-stepping property that makes distributed SSSP
    tractable. Correctness: a node that improved in round k expanded
    with its optimal ≤k-hop prefix, so every ≤K-hop path cost is
    covered by induction. The DuckDB twin enumerates paths with a
    recursive CTE and takes min(cost)."""
    from ray.data.aggregate import Min

    from .joins import hash_join

    small = _driver_link_graph(sf_dir)
    if small is not None:
        ids, src, dst, _n = small
        w = 1 + (src + dst) % 5
        m_dom = int(max(ids.max(), dst.max(initial=0))) + 1
        inf = np.iinfo(np.int64).max // 4
        cost = np.full(m_dom, inf, np.int64)
        cost[ids[ids < SP_SEEDS]] = 0
        for _ in range(SP_HOPS):
            # layered Bellman-Ford DP: relax strictly from the
            # round-start snapshot so cost_k covers ≤k-edge paths only
            prev = cost[src]
            m = prev < inf
            np.minimum.at(cost, dst[m], prev[m] + w[m])
        keys = np.flatnonzero(cost < inf)
        return pd.DataFrame(
            {"doc_id": keys.astype(np.int64), "cost": cost[keys]}
        ).reset_index(drop=True)

    edges, _ = _weighted_edges(sf_dir)
    edges = edges.materialize()

    def seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids < SP_SEEDS
        return pa.table(
            {
                "node": pa.array(ids[keep].astype(np.int64)),
                "cost": pa.array(np.zeros(int(keep.sum()), np.int64)),
            }
        )

    from ..io import read_table

    visited = (
        read_table(sf_dir, "documents", ["doc_id"])
        .map_batches(seeds, batch_format="pyarrow")
        .materialize()
    )
    frontier = visited
    ew_schema = [("src", _I64), ("dst", _I64), ("w", _I64)]
    nc_schema = [("node", _I64), ("cost", _I64)]

    def _pairs(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "node" not in b.column_names:
            return pa.table({"pk": pa.array([], _I64)})
        n_ = b["node"].to_numpy(zero_copy_only=False)
        c_ = b["cost"].to_numpy(zero_copy_only=False)
        return pa.table({"pk": pa.array(n_ * _SP_COST_CAP + c_)})

    for k in range(1, SP_HOPS + 1):
        def fr_prep(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or "node" not in b.column_names:
                return pa.table(
                    {"src": pa.array([], _I64), "fcost": pa.array([], _I64)}
                )
            return pa.table({"src": b["node"], "fcost": b["cost"]})

        expanded = hash_join(
            frontier.map_batches(fr_prep, batch_format="pyarrow"),
            edges,
            on="src",
            num_partitions=8,
            left_schema=[("src", _I64), ("fcost", _I64)],
            right_schema=ew_schema,
        )

        def relax(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or "dst" not in b.column_names:
                return pa.table(
                    {"node": pa.array([], _I64), "cost": pa.array([], _I64)}
                )
            t = pa.table(
                {
                    "node": b["dst"],
                    "cost": pc.add(b["fcost"], b["w"]),
                }
            )
            return (
                t.group_by("node")
                .aggregate([("cost", "min")])  # batch-local relax
                .rename_columns(["node", "cost"])
            )

        candidates = expanded.map_batches(relax, batch_format="pyarrow")
        old = visited
        visited = (
            visited.union(candidates)
            .groupby("node")
            .aggregate(Min("cost", alias_name="cost"))
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["node"], _I64),
                        "cost": pc.cast(b["cost"], _I64),
                    }
                )
                if b.num_rows and "node" in b.column_names
                else pa.table(
                    {"node": pa.array([], _I64), "cost": pa.array([], _I64)}
                ),
                batch_format="pyarrow",
            )
            .repartition(8)  # block-count reset (see hierarchy_rollup)
            .materialize()
        )
        if k < SP_HOPS:
            # frontier = pairs that are NEW or IMPROVED vs the old map
            improved = hash_join(
                visited.map_batches(
                    lambda b: _pairs(b).append_column(
                        "node", b["node"]
                    ).append_column("cost", b["cost"])
                    if b.num_rows and "node" in b.column_names
                    else pa.table(
                        {"pk": pa.array([], _I64), "node": pa.array([], _I64),
                         "cost": pa.array([], _I64)}
                    ),
                    batch_format="pyarrow",
                ),
                old.map_batches(_pairs, batch_format="pyarrow"),
                on="pk",
                join_type="left anti",
                num_partitions=8,
                left_schema=[("pk", _I64), ("node", _I64), ("cost", _I64)],
                right_schema=[("pk", _I64)],
            )
            frontier = improved.map_batches(
                lambda b: pa.table({"node": b["node"], "cost": b["cost"]})
                if b.num_rows and "node" in b.column_names
                else pa.table(
                    {"node": pa.array([], _I64), "cost": pa.array([], _I64)}
                ),
                batch_format="pyarrow",
            ).materialize()

    df = visited.to_pandas()
    df = ensure_columns(df, {"node": "int64", "cost": "int64"})
    df = df.rename(columns={"node": "doc_id"})
    for c in ("doc_id", "cost"):
        df[c] = df[c].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SHORTEST_SQL = f"""
WITH RECURSIVE
n AS (SELECT count(*) AS nn FROM documents),
edges AS (
  SELECT DISTINCT doc_id AS src,
         (((doc_id*2654435761 + j*40503) % nn)
          * ((doc_id*2654435761 + j*40503) % nn)) % nn AS dst,
         1 + ((doc_id
               + (((doc_id*2654435761 + j*40503) % nn)
                  * ((doc_id*2654435761 + j*40503) % nn)) % nn) % 5) AS w
  FROM documents, (VALUES (1),(2),(3)) t(j), n
  WHERE (((doc_id*2654435761 + j*40503) % nn)
         * ((doc_id*2654435761 + j*40503) % nn)) % nn <> doc_id
),
sp AS (
  SELECT doc_id AS node, 0 AS cost, 0 AS hops FROM documents
  WHERE doc_id < {SP_SEEDS}
  UNION ALL
  SELECT e.dst, s.cost + e.w, s.hops + 1
  FROM sp s JOIN edges e ON e.src = s.node
  WHERE s.hops < {SP_HOPS}
)
SELECT node AS doc_id, CAST(min(cost) AS BIGINT) AS cost
FROM sp GROUP BY node ORDER BY doc_id
"""


# ------------------------------------- subtree rollup (closure by squaring)

HIER_MAX_ROUNDS = 6  # covers depth ≤ 2^6 = 64 (N ≤ 2^64 nodes)


def hierarchy_rollup(sf_dir: str) -> pd.DataFrame:
    """Subtree aggregation over a parent-pointer hierarchy (the
    org-chart / comment-thread / category-tree rollup): every doc's
    parent is ``doc_id // 2`` (doc 0 is the root), and the answer is
    each node's DESCENDANT-INCLUSIVE character total and count.

    Distributed shape: transitive closure by POINTER DOUBLING —
    J_k(node) is the ancestor exactly 2^k above, R_k holds every
    (node, ancestor) pair with distance ≤ 2^k, and each round adds
    R_{k+1} = R_k ∪ (J_k ∘ R_k), J_{k+1} = J_k ∘ J_k. In a TREE the
    composed pairs are brand-new by construction (each (node, anc)
    pair has one distance, reached through one midpoint), so the
    closure needs NO per-round dedup shuffle; the compose's left side
    is one jump row per live node (not the N·2^k accumulated pairs of
    plain R∘R squaring), and nodes whose jump reached the root leave
    the frontier — rounds stop at the OBSERVED depth (empty frontier),
    with HIER_MAX_ROUNDS as the safety cap. A depth-d tree closes in
    ⌈log₂ d⌉ rounds; the pair table tops out at N·depth rows. One
    final join against the value column + one groupby folds the
    rollup; self-contribution joins in arithmetically. The DuckDB twin
    climbs the same chains with a recursive CTE."""
    from ray.data.aggregate import Sum as _Sum

    from ..io import read_table, table_rows
    from .joins import hash_join

    def base(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids > 0  # the root has no proper ancestor
        ids = ids[keep]
        return pa.table(
            {
                "node": pa.array(ids),
                "anc": pa.array(ids // 2),
                "dist": pa.array(np.ones(len(ids), np.int64)),
            }
        )

    # size gate (same contract as DRIVER_MAX_EDGES for components): a
    # closure of N·depth pairs under ~2M is cheaper to walk on the
    # driver in numpy than to build with ⌈log₂ depth⌉ shuffle rounds —
    # each distributed round costs a fixed keyed exchange regardless of
    # how few pairs move. The distributed pointer-doubling path below
    # is the 100 TB plan; results are identical (pytest cross-checks).
    n_docs = table_rows(sf_dir, "documents")
    docs = read_table(sf_dir, "documents", ["doc_id"])
    max_id = docs.max("doc_id") if n_docs else None
    max_id = int(max_id) if max_id is not None else -1
    depth = int(np.floor(np.log2(max_id))) + 1 if max_id > 0 else 0
    if 0 <= max_id < 4_194_304 and n_docs * max(depth, 1) <= DRIVER_MAX_EDGES:
        import ray as _ray

        vals_t = pa.concat_tables(
            _ray.get(
                read_table(sf_dir, "documents", ["doc_id", "n_chars"])
                .to_arrow_refs()
            )
        )
        ids = vals_t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = vals_t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        acc_chars = np.zeros(max_id + 2, np.int64)
        acc_cnt = np.zeros(max_id + 2, np.int64)
        cur = ids
        while len(cur):
            np.add.at(acc_chars, cur, chars)
            np.add.at(acc_cnt, cur, 1)
            live = cur > 0
            cur, chars = cur[live] >> 1, chars[live]
        keys = np.flatnonzero(acc_cnt)
        return pd.DataFrame(
            {
                "doc_id": keys.astype(np.int64),
                "subtree_chars": acc_chars[keys],
                "n_desc": acc_cnt[keys],
            }
        ).reset_index(drop=True)

    pairs = docs.map_batches(base, batch_format="pyarrow").materialize()
    # for parent = id // 2 the depth of node id is exactly
    # ⌊log₂ id⌋ + 1, so the observed tree depth IS log₂(max_id) — one
    # metadata-cheap aggregate, no per-round count() sync barriers
    if max_id <= 0:
        rounds = 0
    else:
        rounds = min(HIER_MAX_ROUNDS, max(0, int(np.ceil(np.log2(depth)))))

    def frontier_of(step: int):
        # jumps of distance exactly 2^k whose target still has
        # ancestors of its own, shaped for the compose join
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or "anc" not in b.column_names:
                return pa.table(
                    {"mid": pa.array([], _I64), "node": pa.array([], _I64)}
                )
            b = b.filter(
                pc.and_(pc.equal(b["dist"], step), pc.greater(b["anc"], 0))
            )
            return pa.table({"mid": b["anc"], "node": b["node"]})

        return fn

    def as_mid_anc2(b: pa.Table) -> pa.Table:
        if b.num_rows and "node" in b.column_names:
            return pa.table(
                {"mid": b["node"], "anc2": b["anc"], "dist2": b["dist"]}
            )
        return pa.table(
            {
                "mid": pa.array([], _I64),
                "anc2": pa.array([], _I64),
                "dist2": pa.array([], _I64),
            }
        )

    def hop_of(step: int):
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows and "node" in b.column_names:
                return pa.table(
                    {
                        "node": b["node"],
                        "anc": b["anc2"],
                        "dist": pc.add(b["dist2"], step),
                    }
                )
            return pa.table(
                {
                    "node": pa.array([], _I64),
                    "anc": pa.array([], _I64),
                    "dist": pa.array([], _I64),
                }
            )

        return fn

    step = 1  # 2^k
    for _ in range(rounds):
        # new pairs: jump 2^k (the dist==2^k slice is the jump table —
        # a filter, not a second join), then collect the target's
        # ≤2^k-chain; in a TREE every composed pair is brand-new (one
        # distance, one midpoint), so no per-round dedup shuffle
        hop = hash_join(
            pairs.map_batches(frontier_of(step), batch_format="pyarrow"),
            pairs.map_batches(as_mid_anc2, batch_format="pyarrow"),
            on="mid",
            num_partitions=8,
            left_schema=[("mid", _I64), ("node", _I64)],
            right_schema=[("mid", _I64), ("anc2", _I64), ("dist2", _I64)],
        ).map_batches(hop_of(step), batch_format="pyarrow")
        # the join's sort-shuffle PRESERVES input block count, and the
        # input is pairs twice — without a reset blocks triple per
        # round (observed 162 tiny blocks by round 4). Repartition only
        # the NEW distance band: blocks stay ≤ 8·rounds and the moved
        # bytes are proportional to the new pairs, not the closure.
        pairs = pairs.union(hop.repartition(8)).materialize()
        step *= 2

    def vals(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(batch["doc_id"], _I64),
                "chars": pc.cast(batch["n_chars"], _I64),
            }
        )

    values = read_table(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        vals, batch_format="pyarrow"
    )
    # each node's value flows to every proper ancestor...
    contrib = hash_join(
        pairs.map_batches(
            lambda b: b.select(["node", "anc"])
            if b.num_rows and "node" in b.column_names
            else pa.table({"node": pa.array([], _I64), "anc": pa.array([], _I64)}),
            batch_format="pyarrow",
        ),
        values,
        on="node",
        num_partitions=8,
        left_schema=[("node", _I64), ("anc", _I64)],
        right_schema=[("node", _I64), ("chars", _I64)],
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["anc"],
                "subtree_chars": b["chars"],
                "n_desc": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )
        if b.num_rows and "anc" in b.column_names
        else pa.table(
            {
                "doc_id": pa.array([], _I64),
                "subtree_chars": pa.array([], _I64),
                "n_desc": pa.array([], _I64),
            }
        ),
        batch_format="pyarrow",
    )
    # ...and to itself (self-inclusive rollup)
    own = values.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["node"],
                "subtree_chars": b["chars"],
                "n_desc": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )
        if b.num_rows and "node" in b.column_names
        else pa.table(
            {
                "doc_id": pa.array([], _I64),
                "subtree_chars": pa.array([], _I64),
                "n_desc": pa.array([], _I64),
            }
        ),
        batch_format="pyarrow",
    )
    df = (
        contrib.union(own)
        .groupby("doc_id")
        .aggregate(
            _Sum("subtree_chars", alias_name="subtree_chars"),
            _Sum("n_desc", alias_name="n_desc"),
        )
        .to_pandas()
    )
    df = ensure_columns(
        df, {"doc_id": "int64", "subtree_chars": "int64", "n_desc": "int64"}
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


HIERARCHY_SQL = """
WITH RECURSIVE chain AS (
  SELECT doc_id AS node, doc_id AS anc FROM documents
  UNION ALL
  SELECT c.node, c.anc // 2
  FROM chain c WHERE c.anc > 0
)
SELECT chain.anc AS doc_id,
       sum(d.n_chars)::BIGINT AS subtree_chars,
       count(*)::BIGINT AS n_desc
FROM chain JOIN documents d ON d.doc_id = chain.node
GROUP BY chain.anc ORDER BY doc_id
"""


# ------------------------------------------------ k-core decomposition


def _sym_dedup_np(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize and dedup an edge list (numpy): one lexsort over the
    doubled list, boundary-diff unique."""
    u = np.concatenate([src, dst])
    v = np.concatenate([dst, src])
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
    return u[keep], v[keep]


def _numpy_kcore(
    src: np.ndarray, dst: np.ndarray, n_nodes: int, k: int
) -> pd.DataFrame:
    """Vectorized iterative peeling on the driver: each round one
    bincount + one mask filter; rounds = peel depth."""
    u, v = _sym_dedup_np(src, dst)
    while True:
        deg = np.bincount(u, minlength=n_nodes)
        alive = deg >= k  # isolated / under-k nodes die this round
        e_keep = alive[u] & alive[v]
        if e_keep.all():
            break
        u, v = u[e_keep], v[e_keep]
    deg = np.bincount(u, minlength=n_nodes)
    ids = np.flatnonzero(deg >= k)
    return pd.DataFrame(
        {
            "doc_id": ids.astype(np.int64),
            "core_degree": deg[ids].astype(np.int64),
        }
    )


def kcore_nodes(
    sf_dir: str, k: int = 3, driver_max_edges: int = DRIVER_MAX_EDGES
) -> pd.DataFrame:
    """k-CORE of the (symmetrized) derived link graph: iteratively peel
    every node with degree < k until the fixed point; survivors are the
    densely-connected core (the classic spam-farm / community filter a
    link-quality pipeline runs before trusting anchor signals —
    reference link handling: pkg/modules/chromium/chromium.go URL
    graph). Returns (doc_id, degree-within-core), doc_id-sorted.

    Iterative and therefore rows-only (peeling is not monotone, so no
    recursive-CTE twin); pinned by a slow-reference parity test plus
    driver≡distributed equality, like pagerank / components.

    Distributed rounds (above the ``DRIVER_MAX_EDGES`` gate): the
    symmetrized edge list is deduped once behind ONE keyed exchange;
    each round is groupby(src).count → filter survivors (nodes absent
    from the degree table are isolated and die implicitly) → two
    semi-joins shrink the edge list. Edges only ever shrink, the
    survivor table is O(alive nodes), and the stop test is one tiny
    count per round — nothing corpus-sized reaches the driver."""
    from ray.data.aggregate import Sum

    from .joins import hash_join
    from .relational import JOIN_PARTITIONS

    edges, n_nodes = _doc_link_edges(sf_dir)
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "core_degree": pd.Series([], dtype="int64"),
        }
    )
    if n_nodes == 0:
        return empty

    if 3 * n_nodes <= driver_max_edges:
        df = edges.to_pandas()
        return _numpy_kcore(
            df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64), n_nodes, k
        )

    # ---- distributed path: symmetrize + dedup behind one exchange
    def both_dirs(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d])),
                "dst": pa.array(np.concatenate([d, s])),
            }
        )

    def bucket_unique(g: pa.Table) -> pa.Table:
        u = g["src"].to_numpy(zero_copy_only=False)
        v = g["dst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
        return pa.table({"src": pa.array(u[keep]), "dst": pa.array(v[keep])})

    sym = bucket_fold(
        edges, "src", both_dirs, bucket_unique,
        pa.schema([("src", pa.int64()), ("dst", pa.int64())]), JOIN_PARTITIONS,
    ).materialize()

    n_alive = None
    while True:
        deg = (
            sym.map_batches(
                lambda b: b.select(["src"])
                .group_by("src")
                .aggregate([([], "count_all")]),
                batch_format="pyarrow",
            )
            .groupby("src")
            .aggregate(Sum("count_all", alias_name="deg"))
        )
        survivors = deg.map_batches(
            lambda b: b.filter(pc.greater_equal(b["deg"], k)).select(["src"]),
            batch_format="pyarrow",
        ).materialize()
        cnt = survivors.count()
        if cnt == 0:
            return empty
        if cnt == n_alive:
            break
        n_alive = cnt
        sym = hash_join(
            sym, survivors, on="src", num_partitions=JOIN_PARTITIONS,
            join_type="left semi",
            left_schema=[("src", pa.int64()), ("dst", pa.int64())],
            right_schema=[("src", pa.int64())],
        )
        sym = hash_join(
            sym, survivors, on="dst", right_on="src",
            num_partitions=JOIN_PARTITIONS, join_type="left semi",
            left_schema=[("src", pa.int64()), ("dst", pa.int64())],
            right_schema=[("src", pa.int64())],
        ).materialize()

    out = (
        sym.map_batches(
            lambda b: b.select(["src"]).group_by("src").aggregate([([], "count_all")]),
            batch_format="pyarrow",
        )
        .groupby("src")
        .aggregate(Sum("count_all", alias_name="core_degree"))
        .to_pandas()
    )
    out = ensure_columns(out, {"src": "int64", "core_degree": "int64"})
    out = out[out["core_degree"] >= k].rename(columns={"src": "doc_id"})
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)
