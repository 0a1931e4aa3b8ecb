"""Workload definitions, request generation and the reference model.

Every workload is a closed loop with one client: the client sends the
next request only after the previous one returned.  A workload is a
fixed *round* of requests that the client repeats; the number of
rounds in a run is ``ceil(seconds * rounds_per_s)``, so a run's work,
and therefore every modeled count, is a pure function of
``(workload, seed, seconds)``.  ``rounds_per_s`` was chosen so that a
run takes about ``seconds`` of wall time on a 2-core x86 host.

All inputs derive from ``--seed``: the stored keys, the request
stream and the fault-drill seed.  The service receives only the
generated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: the 64-bit sentinel the trees return for "not found"; stored keys
#: and values stay strictly below it
SENTINEL = np.uint64(2**64 - 1)

BATCH_KEYS = 4096
SCAN_BATCH = 256
#: scan length range in tuples, inclusive
SCAN_LEN = (80, 120)
#: upserts of stored keys / inserts of fresh keys / deletes per update batch
UPDATE_MIX = (960, 56, 8)
ZIPF_A = 1.3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    log2_keys: int
    #: ``ServiceConfig.kind``
    kind: str
    adaptive: bool
    #: per-operation rate of ``FaultPlan.uniform`` (0 = no drill)
    fault_rate: float
    #: the request kinds of one closed-loop round, in order
    round: Tuple[str, ...]
    rounds_per_s: float
    #: service builds per run whose median is ``setup_s``
    setup_reps: int

    @property
    def n_keys(self) -> int:
        return 1 << self.log2_keys

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.rounds_per_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read-uniform",
            why=("2^20 keys, bigger than L2, uniform 4096-key lookups: "
                 "kernel twin and leaf finish do the work; dedup, "
                 "adaptivity, faults and updates are bypassed"),
            log2_keys=20,
            kind="hb-regular",
            adaptive=False,
            fault_rate=0.0,
            round=("lookup_uniform",),
            rounds_per_s=120.0,
            setup_reps=3,
        ),
        Workload(
            name="read-zipf-scan",
            why=("2^15 keys, fits L2, implicit tree with adaptive split: "
                 "Zipf(1.3) lookups that dedup collapses plus 256 "
                 "~100-tuple scans after every third lookup batch"),
            log2_keys=15,
            kind="hb-implicit",
            adaptive=True,
            fault_rate=0.0,
            round=("lookup_zipf", "lookup_zipf", "lookup_zipf", "scan"),
            rounds_per_s=16.0,
            setup_reps=7,
        ),
        Workload(
            name="write-mix-drill",
            why=("2^17 keys, regular tree, adaptive and a seeded GPU "
                 "fault drill: 1024-op update batches alternate with "
                 "uniform lookups; the only writer of mirror and PCIe"),
            log2_keys=17,
            kind="hb-regular",
            adaptive=True,
            fault_rate=0.002,
            round=("update", "lookup_uniform"),
            rounds_per_s=2.5,
            setup_reps=3,
        ),
    )
}


def make_keys(n: int, rng: np.random.Generator):
    """``n`` distinct sorted uint64 keys and their values, all below
    the sentinel."""
    keys = np.empty(0, dtype=np.uint64)
    while len(keys) < n:
        draw = rng.integers(0, int(SENTINEL), size=n + n // 64 + 16,
                            dtype=np.uint64)
        keys = np.sort(np.concatenate([keys, draw]))
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    keys = np.sort(rng.permutation(keys)[:n])
    values = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    return keys, values


class Reference:
    """A sorted NumPy copy of the keyspace; the oracle every answer is
    checked against."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys = keys.copy()
        self.values = values.copy()

    def lookup(self, q: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.keys, q)
        pos_c = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos_c] == q
        return np.where(hit, self.values[pos_c], SENTINEL)

    def scan(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        a = np.searchsorted(self.keys, np.uint64(lo), side="left")
        b = np.searchsorted(self.keys, np.uint64(hi), side="right")
        return self.keys[a:b], self.values[a:b]

    def apply(self, keys: np.ndarray, values: np.ndarray,
              deletes: np.ndarray) -> None:
        """Upserts in arrival order (the last write of a key wins),
        then deletes: the order in which a shard applies one batch."""
        if len(keys):
            rev_keys = keys[::-1]
            uk, first = np.unique(rev_keys, return_index=True)
            uv = values[::-1][first]
            pos = np.searchsorted(self.keys, uk)
            pos_c = np.minimum(pos, len(self.keys) - 1)
            present = self.keys[pos_c] == uk
            self.values[pos_c[present]] = uv[present]
            self.keys = np.insert(self.keys, pos[~present], uk[~present])
            self.values = np.insert(self.values, pos[~present], uv[~present])
        if len(deletes):
            ud = np.unique(deletes)
            pos = np.minimum(np.searchsorted(self.keys, ud),
                             len(self.keys) - 1)
            present = self.keys[pos] == ud
            self.keys = np.delete(self.keys, pos[present])
            self.values = np.delete(self.values, pos[present])


class Client:
    """Generates one workload's request stream from a seeded RNG.

    Requests that depend on the keyspace (lookups of stored keys,
    inserts of absent keys, deletes of present keys) are drawn from the
    reference, which evolves deterministically, so the stream is a pure
    function of the seed.
    """

    def __init__(self, workload: Workload, ref: Reference,
                 rng: np.random.Generator):
        self.w = workload
        self.ref = ref
        self.rng = rng
        # Zipf popularity rank -> key: a fixed seeded scramble, so hot
        # keys spread over every shard instead of piling into the first
        self._zipf_perm: Optional[np.ndarray] = None
        if "lookup_zipf" in workload.round:
            self._zipf_perm = rng.permutation(len(ref.keys))

    def lookup_uniform(self) -> np.ndarray:
        keys = self.ref.keys
        return keys[self.rng.integers(0, len(keys), BATCH_KEYS)]

    def lookup_zipf(self) -> np.ndarray:
        ranks = (self.rng.zipf(ZIPF_A, BATCH_KEYS) - 1) % len(self._zipf_perm)
        return self.ref.keys[self._zipf_perm[ranks]]

    def scan(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = self.ref.keys
        lo_len, hi_len = SCAN_LEN
        lengths = self.rng.integers(lo_len, hi_len + 1, SCAN_BATCH)
        start = self.rng.integers(0, len(keys) - hi_len, SCAN_BATCH)
        return keys[start], keys[start + lengths - 1]

    def update(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_up, n_new, n_del = UPDATE_MIX
        keys = self.ref.keys
        rng = self.rng
        upserts = keys[rng.integers(0, len(keys), n_up)]
        fresh = rng.integers(0, int(SENTINEL), size=2 * n_new, dtype=np.uint64)
        fresh = fresh[self.ref.lookup(fresh) == SENTINEL][:n_new]
        ks = rng.permutation(np.concatenate([upserts, fresh]))
        vs = rng.integers(0, 1 << 63, size=len(ks), dtype=np.uint64)
        dels = keys[rng.choice(len(keys), n_del, replace=False)]
        return ks, vs, dels
