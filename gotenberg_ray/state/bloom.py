"""Bloom filter: a mergeable, probe-only key sketch.

Its users are the join and incremental pipelines: ``build_key_bloom``
(pipelines/joins.py) OR-merges per-batch filters of one join side so
``hash_join(bloom_prune_left=True)`` drops left rows whose key cannot
match, and ``dedup_incremental`` (pipelines/incremental.py) gates
incoming documents against the existing corpus before the exact join.
Both broadcast the filter through ``as_state``/``from_state``. The URL
frontier does not use it: the cuckoo filter alone is the seen-set.
Vectorized add/contains over uint64 key arrays; the byte form
(params + bit bytes) round-trips bit-identically.

Probes use double hashing h_i = h1 + i*h2 (Kirsch–Mitzenmacher) over
splitmix64-derived halves, so membership is a pure function of the key
— no RNG, no insertion-order effects on the bit array contents.
"""

from __future__ import annotations

import math

import numpy as np

from ..functions.hashing import splitmix64


class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.01):
        self.capacity = int(capacity)
        self.fp_rate = float(fp_rate)
        m = max(64, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.m = (m + 63) // 64 * 64  # round to whole words
        self.k = max(1, round(self.m / capacity * math.log(2)))
        self.bits = np.zeros(self.m // 64, dtype=np.uint64)
        self.count = 0

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        h1 = splitmix64(keys)
        h2 = splitmix64(keys ^ np.uint64(0xD6E8FEB86659FD93)) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[None, :]
        return (h1[:, None] + i * h2[:, None]) % np.uint64(self.m)

    def add(self, keys: np.ndarray) -> None:
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(
            self.bits, (pos >> np.uint64(6)).astype(np.int64), np.uint64(1) << (pos & np.uint64(63))
        )
        self.count += len(np.atleast_1d(keys))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        pos = self._positions(keys)
        word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        hit = (word >> (pos & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=1)

    # ---- byte format -------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = np.array([self.capacity, self.m, self.k, self.count], dtype=np.int64)
        return header.tobytes() + np.float64(self.fp_rate).tobytes() + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        header = np.frombuffer(raw[:32], dtype=np.int64)
        obj = cls.__new__(cls)
        obj.capacity, obj.m, obj.k, obj.count = (int(x) for x in header)
        obj.fp_rate = float(np.frombuffer(raw[32:40], dtype=np.float64)[0])
        obj.bits = np.frombuffer(raw[40:], dtype=np.uint64).copy()
        return obj

    # ---- broadcast probe format --------------------------------------------
    # to_bytes/from_bytes is the durable byte format; for
    # broadcasting a PROBE-ONLY filter through the object store, ship
    # the bits as a numpy array instead: ``ray.get`` maps it zero-copy
    # from plasma (bytes objects are copied out), so per-task
    # reconstruction costs ~µs and the filter never duplicates per
    # worker. ``contains`` only reads ``bits``; ``add`` on a view
    # would raise (read-only) — by design.
    def as_state(self) -> tuple:
        return (self.capacity, self.m, self.k, self.count, self.fp_rate, self.bits)

    @classmethod
    def from_state(cls, state: tuple) -> "BloomFilter":
        obj = cls.__new__(cls)
        (obj.capacity, obj.m, obj.k, obj.count, obj.fp_rate, obj.bits) = state
        return obj
