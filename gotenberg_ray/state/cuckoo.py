"""Cuckoo filter — the exact-membership truth set for URL-seen dedup.

One shard per frontier partition (north star: "sharded cuckoo-filter
URL-seen set"). Standard (2,4)-cuckoo filter: two candidate buckets of
4 slots, 16-bit fingerprints, partial-key cuckoo hashing so the
alternate bucket is computable from (bucket, fingerprint) alone.

Determinism: eviction victims are chosen by a counter-seeded splitmix64
— a pure function of (filter seed, global kick counter) — so inserting
the same key sequence always produces the same table bytes, which is
what lets a resumed run be bit-identical to an uninterrupted one.

Sizing for 10^10 keys (SURVEY.md §7.5): 16-bit fingerprints at 4 slots
give ~0.012% fp-rate; 10^10 keys / P=4096 shards ≈ 2.4M keys/shard →
2^20 buckets/shard ≈ 8 MiB/shard table, 32 GiB total across the
cluster — held in actor memory. A snapshot scales with occupancy, not
capacity: one fill byte per bucket plus 2 bytes per stored key
(``to_bytes``), so a shard at 2.4M keys writes about 5.6 MiB and a
sparse one little more than its 1 MiB of fill bytes.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import splitmix64

_SLOTS = 4
_MAX_KICKS = 500


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 0):
        n_buckets = 1
        while n_buckets * _SLOTS < capacity:
            n_buckets <<= 1
        # ~0.95 load ceiling headroom
        if capacity / (n_buckets * _SLOTS) > 0.9:
            n_buckets <<= 1
        self.n_buckets = n_buckets
        self.mask = np.uint64(n_buckets - 1)
        self.seed = np.uint64(seed)
        self.table = np.zeros((n_buckets, _SLOTS), dtype=np.uint16)
        # buckets fill left-to-right; evictions swap in place, so
        # fill[i] is always the first empty slot of bucket i
        self.fill = np.zeros(n_buckets, dtype=np.int8)
        self.count = 0
        self.kicks = 0  # global eviction counter → deterministic victim choice

    # ---- hashing. fingerprint and bucket index MUST come from
    # decorrelated derivations: with e.g. fp=f(key^seed), i1=f(key+seed)
    # the inputs coincide whenever the xor carries nowhere (~25% of
    # keys), which couples fp↔bucket and inflates collisions ~10×.
    _FP_TWEAK = np.uint64(0xA24BAED4963EE407)
    _IDX_TWEAK = np.uint64(0x9FB21C651E98DF25)

    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = (
            splitmix64(np.asarray(keys, dtype=np.uint64) ^ self.seed ^ self._FP_TWEAK)
            & np.uint64(0xFFFF)
        ).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)  # 0 is the empty marker

    def _index1(self, keys: np.ndarray) -> np.ndarray:
        return (
            splitmix64(np.asarray(keys, dtype=np.uint64) ^ self.seed ^ self._IDX_TWEAK)
            & self.mask
        ).astype(np.int64)

    def _alt_index(self, idx: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # partial-key cuckoo: i2 = i1 ^ hash(fp)
        h = splitmix64(fp.astype(np.uint64) ^ np.uint64(0xC3A5C85C97CB3127))
        return (np.asarray(idx, dtype=np.uint64) ^ (h & self.mask)).astype(np.int64) & int(
            self.mask
        )

    # ---- eviction slow path (rare; only when both buckets are full) -------
    def _insert_evict(self, i1: int, fp: int) -> bool:
        i = i1
        cur = np.uint16(fp)
        for _ in range(_MAX_KICKS):
            victim = splitmix64(self.kicks ^ int(self.seed)) % _SLOTS
            self.kicks += 1
            cur, self.table[i, victim] = self.table[i, victim], cur
            i = int(self._alt_index(np.array([i]), np.array([cur], dtype=np.uint16))[0])
            f = self.fill[i]
            if f < _SLOTS:
                self.table[i, f] = cur
                self.fill[i] += 1
                self.count += 1
                return True
        return False  # table full — caller must treat as fatal sizing error

    def add_if_absent(self, keys: np.ndarray) -> np.ndarray:
        """Insert each key not already present. Returns bool mask of NEW keys.

        Duplicate keys within the same batch are deduped too (first
        occurrence wins) — the semi-join `frontier ∖ seen` per SURVEY
        §2.6. Vectorized: per round, the first candidate targeting each
        bucket is scattered in bulk; contenders retry next round after a
        re-probe (which also catches same-batch fingerprint duplicates).
        The scalar eviction path only runs when both buckets are full.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        fps = self._fingerprint(keys)
        i1s = self._index1(keys)
        i2s = self._alt_index(i1s, fps)
        # first occurrence wins for exact-duplicate keys in the batch
        _, first_pos = np.unique(keys, return_index=True)
        first = np.zeros(n, dtype=bool)
        first[first_pos] = True
        fresh = np.zeros(n, dtype=bool)

        pending = np.nonzero(first)[0]
        for bucket_choice in (i1s, i2s):
            while len(pending):
                bs = bucket_choice[pending]
                seen = (
                    (self.table[i1s[pending]] == fps[pending, None]).any(axis=1)
                    | (self.table[i2s[pending]] == fps[pending, None]).any(axis=1)
                )
                pending = pending[~seen]
                bs = bs[~seen]
                if not len(pending):
                    break
                room = self.fill[bs] < _SLOTS
                # first candidate per bucket this round
                _, first_b = np.unique(bs, return_index=True)
                winner = np.zeros(len(pending), dtype=bool)
                winner[first_b] = True
                go = room & winner
                if not go.any():
                    break  # every remaining candidate's bucket is full → next choice
                tgt = bs[go]
                self.table[tgt, self.fill[tgt]] = fps[pending[go]]
                self.fill[tgt] += 1
                self.count += len(tgt)
                fresh[pending[go]] = True
                pending = pending[~go]

        # leftover: both buckets full → eviction path, in batch order
        for j in pending:
            fp, i1, i2 = fps[j], int(i1s[j]), int(i2s[j])
            if (self.table[i1] == fp).any() or (self.table[i2] == fp).any():
                continue
            if not self._insert_evict(i1, int(fp)):
                raise RuntimeError("cuckoo filter over capacity — resize shards")
            fresh[j] = True
        return fresh

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fps = self._fingerprint(keys)
        i1s = self._index1(keys)
        i2s = self._alt_index(i1s, fps)
        in1 = (self.table[i1s] == fps[:, None]).any(axis=1)
        in2 = (self.table[i2s] == fps[:, None]).any(axis=1)
        return in1 | in2

    # ---- checkpoint format -------------------------------------------------
    def to_bytes(self) -> bytes:
        """Header, then ``fill`` (one int8 per bucket), then the occupied
        fingerprints in bucket order. Slots fill left to right and a
        fingerprint is never 0, so the nonzero slots are exactly the
        occupied ones and the bytes grow with ``count``, not capacity."""
        header = np.array(
            [self.n_buckets, int(self.seed), self.count, self.kicks], dtype=np.int64
        )
        flat = self.table.reshape(-1)
        return header.tobytes() + self.fill.tobytes() + flat[np.flatnonzero(flat)].tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CuckooFilter":
        header = np.frombuffer(raw[:32], dtype=np.int64)
        obj = cls.__new__(cls)
        obj.n_buckets = int(header[0])
        obj.seed = np.uint64(header[1])
        obj.count = int(header[2])
        obj.kicks = int(header[3])
        obj.mask = np.uint64(obj.n_buckets - 1)
        obj.fill = np.frombuffer(raw, dtype=np.int8, count=obj.n_buckets, offset=32).copy()
        obj.table = np.zeros((obj.n_buckets, _SLOTS), dtype=np.uint16)
        occupied = np.arange(_SLOTS) < obj.fill[:, None]
        obj.table[occupied] = np.frombuffer(raw, dtype=np.uint16, offset=32 + obj.n_buckets)
        return obj
