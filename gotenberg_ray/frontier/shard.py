"""FrontierShard — one partition of the URL frontier (north star core).

Each shard owns, for its partition of the host space:
- the cuckoo-filter URL-seen set: one ``add_if_absent`` call per
  applied batch decides every admission (a fast-reject tier in front
  of it would save no probe, since a key it calls new must still be
  inserted),
- the bulk-pop priority queue keyed (ready_time, priority desc, seq),
  whose entries are the pending URLs themselves: one
  ``PENDING_SCHEMA`` row each, queue key and payload together,
- per-host politeness token buckets + the robots.txt cache,
- its counters.

A snapshot holds the queue as one ``pending`` table in seq order, so
there is one record per pending URL on disk as in memory.

Partitioning is ``fnv64(host) % P`` so a host's politeness state and
all its URLs are local to one shard (the groupby-host politeness
accounting of the north rule happens shard-locally, with no extra
shuffle); the seen-key is ``fnv64(url_canon)``. The same class runs
sequentially (determinism reference) or wrapped in a Ray actor
(``ray.remote(FrontierShard)``) — ALL scheduling state lives here, so
the two orchestrations are bit-identical by construction.

Virtual-time semantics (shared contract with the reference scheduler,
SURVEY §7.5 "order assigned at schedule time"): pop order within a
shard is (ready_time, -priority, seq); a popped entry either gets a
politeness token and is GRANTED at fetch_time == ready_time, or is
pushed back at the host's next token time. Grant decisions depend only
on (entry, host state), never on a global clock, which is what lets
per-shard simulation reproduce the global sequential schedule exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.cuckoo import CuckooFilter
from ..state.heap import PENDING_SCHEMA, FrontierHeap
from ..state.politeness import HostBuckets
from ..state.robots import RobotsCache

# a granted pending URL: its ready_time became its fetch_time
GRANT_SCHEMA = PENDING_SCHEMA.set(1, pa.field("fetch_time", pa.int64()))

# the columns a pending URL carries besides its queue key
PAYLOAD_COLUMNS = PENDING_SCHEMA.names[4:]

# the offered columns a pending row is made of, in PENDING_SCHEMA order
_QUEUED_COLUMNS = ["seq", "next_fetch_time", "priority", "url_hash", *PAYLOAD_COLUMNS]

COUNTER_KEYS = ("offered", "admitted", "duplicate", "robots_denied", "granted")


class FrontierShard:
    def __init__(
        self,
        partition_id: int,
        capacity: int = 1 << 16,
        seed: int = 0,
        default_delay: int = 2,
        burst: int = 1,
        robots_texts: dict[str, str] | None = None,
        salt_hosts: tuple[str, ...] = (),
        salt_k: int = 1,
    ):
        self.partition_id = int(partition_id)
        self.default_delay = int(default_delay)
        self.burst = int(burst)
        self.salt_hosts = tuple(salt_hosts)
        self.salt_k = max(1, int(salt_k))
        self.cuckoo = CuckooFilter(capacity, seed=seed + partition_id)
        self.heap = FrontierHeap()
        self.buckets = HostBuckets(
            default_delay=default_delay,
            capacity=burst,
            salted=frozenset(salt_hosts),
            salt_k=self.salt_k,
        )
        robots_texts = robots_texts or {}
        self.robots = RobotsCache(robots_texts.get)
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self._delay_set: set[str] = set()  # hosts whose crawl-delay is applied
        self._pending: list[pa.Table] = []  # buffered offers, applied at flush

    # ------------------------------------------------------------------ offer
    def offer(self, batch: pa.Table) -> int:
        """Buffer candidate rows; they are APPLIED (seen-dedup, robots,
        heap insert) at the next flush, sorted by seq — so the admitted
        state is a pure function of the candidate SET, not of the order
        worker pushes happened to arrive in (bit-identical checkpoints
        across orchestrations)."""
        if batch.num_rows:
            self._pending.append(batch)
        return batch.num_rows

    def offer_assembled(
        self, parts: list[tuple], ready_time: int
    ) -> int:
        """Assemble candidate rows pushed by fetch workers: each part is
        (payload_handle, row_indices, seqs) where payload_handle is a
        LINK_CANDIDATE table or a ray.ObjectRef to one (resolved here,
        inside the shard — the driver never touches candidate payloads).
        """
        total = 0
        for handle, idx, seqs in parts:
            if not isinstance(handle, pa.Table):  # ObjectRef from a worker
                import ray

                handle = ray.get(handle)
            sub = handle.take(pa.array(np.asarray(idx, dtype=np.int64)))
            n = sub.num_rows
            batch = pa.table(
                {
                    "url_canon": sub.column("url_canon"),
                    "url_hash": sub.column("url_hash"),
                    "host": sub.column("host"),
                    "path": sub.column("path"),
                    "priority": sub.column("priority"),
                    "next_fetch_time": pa.array(
                        np.full(n, ready_time, dtype=np.int64)
                    ),
                    "route": sub.column("route"),
                    "doc_id": sub.column("doc_id"),
                    "options_json": sub.column("options_json"),
                    "seq": pa.array(np.asarray(seqs, dtype=np.int64)),
                }
            )
            self._pending.append(batch)
            total += n
        return total

    def flush(self) -> None:
        """Apply buffered offers in global seq order (deterministic)."""
        if not self._pending:
            return
        merged = (
            pa.concat_tables(self._pending, promote_options="none")
            if len(self._pending) > 1
            else self._pending[0]
        )
        self._pending = []
        self._apply_offer(merged.sort_by([("seq", "ascending")]))

    def _apply_offer(self, batch: pa.Table) -> None:
        """Admit candidate URLs: seen-dedup (cuckoo), robots gate,
        heap insert — all vectorized. Batch columns: url_canon, url_hash,
        host, path, priority, next_fetch_time, route, doc_id,
        options_json, seq.

        A URL enters the seen set the first time it is *considered* —
        robots-denied URLs are seen too (never reconsidered), mirroring
        a frontier that filters before enqueue.
        """
        n = batch.num_rows
        self.counters["offered"] += n
        if n == 0:
            return
        hashes = batch.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        fresh = self.cuckoo.add_if_absent(hashes)
        self.counters["duplicate"] += int(n - fresh.sum())
        if not fresh.any():
            return

        sub = batch.take(pa.array(np.nonzero(fresh)[0]))
        m = sub.num_rows
        paths = sub.column("path").combine_chunks()
        # robots gate, grouped by DISTINCT RULESET rather than by host:
        # RobotsCache dedups identical robots.txt bodies to shared rule
        # objects, so the ~60 distinct rulesets behind thousands of hosts
        # cost one argsort + one allowed_batch each — not a per-host
        # O(hosts × rows) scan. Decisions are identical to the per-host
        # loop (same rules object → same prefix match per path).
        enc = sub.column("host").combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uhosts = enc.dictionary.to_pylist()
        u = len(uhosts)
        rules_for = self.robots.rules_for
        rules_list = [rules_for(h) for h in uhosts]
        gid_of_host = np.empty(u, dtype=np.int64)
        gid_by_obj: dict[int, int] = {}
        gr_rules: list = []
        for ci, r in enumerate(rules_list):
            g = gid_by_obj.get(id(r))
            if g is None:
                g = len(gr_rules)
                gid_by_obj[id(r)] = g
                gr_rules.append(r)
            gid_of_host[ci] = g
        allowed = np.ones(m, dtype=bool)
        if any(r._compiled for r in gr_rules):
            gid_rows = gid_of_host[codes]
            order = np.argsort(gid_rows, kind="stable")
            sg = gid_rows[order]
            starts = np.nonzero(np.r_[True, sg[1:] != sg[:-1]])[0]
            ends = np.r_[starts[1:], m]
            for a, b in zip(starts, ends):
                r = gr_rules[int(sg[a])]
                if r._compiled:
                    rows = order[a:b]
                    allowed[rows] = r.allowed_batch(paths.take(pa.array(rows)))
        # crawl-delay bookkeeping: once per host, the first time a batch
        # grants it at least one allowed row (hosts without compiled
        # rules always have allowed rows here, so any_ok ≡ bincount > 0)
        new_hosts = [
            (ci, h) for ci, h in enumerate(uhosts) if h not in self._delay_set
        ]
        if new_hosts:
            per_host_ok = (
                np.bincount(codes[allowed], minlength=u) > 0
                if not allowed.all()
                else np.ones(u, dtype=bool)
            )
            for ci, host in new_hosts:
                if per_host_ok[ci]:
                    self._delay_set.add(host)
                    cd = rules_list[ci].crawl_delay
                    if cd is not None:
                        self.buckets.set_delay(host, cd)
        self.counters["robots_denied"] += int(m - allowed.sum())
        if not allowed.any():
            return
        adm = sub.filter(pa.array(allowed))
        self.counters["admitted"] += adm.num_rows
        queued = adm.select(_QUEUED_COLUMNS).columns
        self.heap.push_bulk(pa.Table.from_arrays(queued, schema=PENDING_SCHEMA))

    # ------------------------------------------------------------------- pop
    def pop_epoch(self, horizon: int) -> pa.Table:
        """Grant fetches for every heap entry ready by ``horizon``.

        Pops in (ready_time, -priority, seq) order; each popped entry is
        assigned its host's earliest politeness slot ≥ ready_time
        (``HostBuckets.grant``). Slots within the horizon are committed
        immediately (fetch_time = slot); slots beyond it push the entry
        back ONCE at that slot — so every entry costs at most one pop per
        epoch, independent of how deep its host's queue is. Per-host
        slots advance monotonically, so grant order per host follows pop
        order; globally the caller sorts by (fetch_time, -priority, seq)."""
        self.flush()
        popped = self.heap.pop_ready_bulk(horizon)
        n = popped.num_rows
        if n == 0:
            return GRANT_SCHEMA.empty_table()
        slots, granted = self.buckets.grant(
            popped.column("host").to_numpy(zero_copy_only=False).tolist(),
            popped.column("ready_time").to_numpy(),
            horizon,
        )
        n_grant = int(granted.sum())
        self.counters["granted"] += n_grant
        # a missed row waits for its slot; a granted one is fetched at it
        rows = popped.set_column(1, "ready_time", pa.array(slots, pa.int64()))
        if n_grant < n:
            self.heap.push_bulk(rows.filter(~granted))
        if n_grant == 0:
            return GRANT_SCHEMA.empty_table()
        return rows.filter(granted).rename_columns(GRANT_SCHEMA.names)

    def offer_and_pop(self, generations: list[tuple], horizon: int):
        """The actor's one round trip per epoch: deliver every due link
        generation ``[(parts, ready_time)]``, grant this epoch's
        fetches, and put the grant table in the object store — only
        (ref, key columns) return, so grant payloads never transit the
        driver. Requires a ray runtime (used via the actor path)."""
        import ray

        for parts, ready_time in generations:
            self.offer_assembled(parts, ready_time)
        grants = self.pop_epoch(horizon)
        return ray.put(grants), grants.select(["seq", "fetch_time", "priority"])

    def min_ready(self) -> int | None:
        self.flush()
        return self.heap.peek_ready_time()

    def get_counters(self) -> dict:
        self.flush()
        return dict(self.counters)

    # ------------------------------------------------------------ checkpoint
    def checkpoint(self) -> dict:
        """Canonical state snapshot (bit-identical across orchestrations):
        the pending URLs are one table in seq order."""
        self.flush()  # pending offers are part of the state
        return {
            "partition_id": self.partition_id,
            "cuckoo": self.cuckoo.to_bytes(),
            "pending": self.heap.entries().sort_by("seq"),
            "buckets": self.buckets.to_table(),
            "counters": dict(self.counters),
            "delay_hosts": sorted(self._delay_set),
        }

    def restore(self, state: dict) -> None:
        p = state["pending"]
        seq = p.column("seq").to_numpy(zero_copy_only=False)
        # one row per pending URL, in seq order (so no seq twice)
        if (np.diff(seq) <= 0).any():
            raise ValueError(
                f"snapshot of partition {state['partition_id']} is inconsistent: "
                f"the seqs of its {len(seq)} pending rows are not strictly increasing"
            )
        self.cuckoo = CuckooFilter.from_bytes(state["cuckoo"])
        self.heap = FrontierHeap()
        self.heap.push_bulk(p)
        self.buckets = HostBuckets.from_table(
            state["buckets"],
            default_delay=self.default_delay,
            capacity=self.burst,
            salted=frozenset(self.salt_hosts),
            salt_k=self.salt_k,
        )
        self.counters = dict(state["counters"])
        self._delay_set = set(state["delay_hosts"])
