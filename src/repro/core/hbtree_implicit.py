"""The implicit HB+-tree (paper sections 5.1-5.4, 5.6).

Layout (Fig 4): the I-segment (all inner nodes, breadth-first) is
*mirrored* in CPU and GPU memory; the L-segment (leaves) resides in CPU
memory only.  Inner-node fanout is reduced to ``keys_per_line`` (8 for
64-bit keys) so one GPU thread per key searches a node without warp
divergence, with catch-all keys pinned to the maximum value.

A point-lookup bucket flows:

1. queries transfer to GPU memory            (T1)
2. the GPU kernel walks all inner levels      (T2)
3. leaf indexes transfer back                 (T3)
4. the CPU searches the target leaves         (T4)

Updates rebuild the whole tree and re-upload the I-segment
(section 5.6; Fig 15 measures the phases).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hbtree import GpuSearchResult
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.frontier_search import (
    FRONTIER,
    PER_QUERY,
    frontier_search_from_counted,
    frontier_search_vectorized,
    launch_frontier_search,
    validate_kernel,
)
from repro.gpusim.kernels.implicit_search import (
    implicit_search_from_counted,
    implicit_search_vectorized,
    launch_implicit_search,
)
from repro.gpusim.transfer import PcieLink
from repro.keys import key_spec
from repro.obs import NULL_OBS
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import (
    BucketCosts,
    CpuCostModel,
    CpuQueryProfile,
    hybrid_bucket_costs,
)


@dataclass
class RebuildTimes:
    """Phase times of one implicit-tree rebuild (Fig 15)."""

    l_segment_ns: float
    i_segment_ns: float
    transfer_ns: float

    @property
    def total_ns(self) -> float:
        return self.l_segment_ns + self.i_segment_ns + self.transfer_ns

    @property
    def transfer_fraction(self) -> float:
        rebuild = self.l_segment_ns + self.i_segment_ns
        return self.transfer_ns / rebuild if rebuild else 0.0


#: effective passes over the data a rebuild makes (merge of the update
#: batch + leaf packing + inner-level stacking); drives Fig 15's
#: rebuild-vs-transfer proportions
REBUILD_PASSES = 10.0

#: passes for the linear-merge rebuild path: the contents are already
#: sorted, so no re-sort is needed (merge + pack + stack)
MERGE_PASSES = 4.0


class ImplicitHBPlusTree:
    """Hybrid implicit B+-tree over a machine's CPU + GPU."""

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        machine: MachineConfig,
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_SMALL,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
    ):
        self.machine = machine
        self.spec = key_spec(key_bits)
        self.mem = mem if mem is not None else MemorySystem.from_spec(machine.cpu)
        self.device = GpuDevice(machine.gpu)
        self.link = PcieLink(machine.pcie)
        self.cpu_tree = ImplicitCpuBPlusTree(
            keys,
            values,
            key_bits=key_bits,
            fanout=self.spec.implicit_hybrid_fanout,
            mem=self.mem,
            page_config=page_config,
            algorithm=algorithm,
            segment_prefix="hb_implicit",
        )
        self.last_rebuild: Optional[RebuildTimes] = None
        #: :class:`repro.obs.Observability`; the shared disabled bundle
        #: until :meth:`attach_obs` threads a live one through
        self.obs = NULL_OBS
        #: default GPU search kernel for calls that do not pass one —
        #: ``"per_query"`` (Snippet 3) or ``"frontier"`` (level-wise);
        #: the engines/balancers override per bucket via ``kernel=``
        self.kernel = PER_QUERY
        #: serializes direct tree reads (range scans) against engine
        #: ``quiesce()`` windows — engines over this tree adopt the
        #: same lock (same contract as ``HBPlusTree.serve_lock``)
        self.serve_lock = threading.RLock()
        self._mirror_i_segment()

    def attach_obs(self, obs) -> None:
        """Thread a :class:`repro.obs.Observability` bundle through the
        PCIe link, the GPU device, and this tree (same contract as
        ``HBPlusTree.attach_obs``)."""
        self.obs = obs
        self.link.obs = obs
        self.device.obs = obs

    # ------------------------------------------------------------------
    # GPU mirror

    def _mirror_i_segment(self) -> float:
        """(Re)build + upload the flat breadth-first I-segment mirror.

        Returns the simulated transfer time in ns.
        """
        fanout = self.cpu_tree.fanout
        parts: List[np.ndarray] = []
        offsets: List[int] = []
        sizes: List[int] = []
        elem = 0
        for level in self.cpu_tree.inner_levels:
            flat = level.reshape(-1)
            offsets.append(elem)
            sizes.append(flat.size)
            parts.append(flat)
            elem += flat.size
        if parts:
            flat_iseg = np.concatenate(parts)
        else:  # single-leaf tree: a trivial one-node I-segment
            flat_iseg = np.full(fanout, self.spec.max_value, dtype=self.spec.dtype)
            offsets, sizes = [0], [fanout]
        self.level_offsets = offsets
        self.level_sizes = sizes
        self.gpu_depth = len(self.cpu_tree.inner_levels)
        t = self.link.to_device(self.device.memory, "iseg", flat_iseg)
        self.iseg_buffer = self.device.memory.get("iseg")
        return t

    @property
    def i_segment_bytes(self) -> int:
        return self.iseg_buffer.nbytes

    @property
    def l_segment_bytes(self) -> int:
        return self.cpu_tree.l_segment_bytes

    @property
    def height(self) -> int:
        return self.cpu_tree.height

    @property
    def teams_per_warp(self) -> int:
        return max(1, self.machine.gpu.warp_size // self.spec.gpu_threads_per_query)

    # ------------------------------------------------------------------
    # search

    def _resolve_kernel(self, kernel: Optional[str]) -> str:
        """``kernel`` argument, or this tree's default; validated."""
        return validate_kernel(kernel if kernel is not None else self.kernel)

    def gpu_descend(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent: ``(leaf_indices, transactions)``.

        No launch counting, no counter mutation.  ``gpu_depth == 0``
        yields all-zero leaf indices, matching :meth:`gpu_search_bucket`.
        ``kernel`` picks the per-query Snippet-3 descent or the
        level-wise frontier descent — identical leaf indices either
        way, different transaction accounting.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if len(q) == 0 or self.gpu_depth == 0:
            return np.zeros(len(q), dtype=np.int64), 0
        if kern == FRONTIER:
            return frontier_search_vectorized(
                self.iseg_buffer.array,
                self.level_offsets,
                self.level_sizes,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
            )
        return implicit_search_vectorized(
            self.iseg_buffer.array,
            self.level_offsets,
            self.level_sizes,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
            teams_per_warp=self.teams_per_warp,
        )

    def gpu_search_bucket(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> GpuSearchResult:
        """Stage 2: traverse all inner levels on the (simulated) GPU.

        The result's ``codes`` are the per-query leaf indices.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if len(q) == 0 or self.gpu_depth == 0:
            # nothing to launch: an empty bucket or a zero-depth slice
            return GpuSearchResult(
                codes=np.zeros(len(q), dtype=np.int64), transactions=0
            )
        self.device.kernel_launches += 1
        leaf, txns = self.gpu_descend(q, kernel=kern)
        self.device.memory.counters.transactions_64 += txns
        self.device.memory.counters.bytes_moved += txns * 64
        return GpuSearchResult(codes=leaf, transactions=txns)

    # -- load-balanced (D, R) split execution --------------------------

    #: the implicit layout supports resuming a GPU descent mid-tree,
    #: which is what the adaptive (D, R) split engines require
    supports_split_descent = True

    def cpu_descend_top(
        self, queries: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """Walk per-query ``levels`` top inner levels on the CPU.

        Pure (no counters, thread-safe); returns the node positions the
        GPU resumes from.  Same clamped descent the load balancer's
        serial path uses, so a split bucket lands in the same leaves.
        """
        tree = self.cpu_tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(tree.height):
            active = levels > level
            if not np.any(active):
                break
            keys = tree.inner_levels[level][node[active]]
            k = np.sum(keys < q[active, None], axis=1).astype(np.int64)
            next_size = (
                tree.inner_levels[level + 1].shape[0]
                if level + 1 < tree.height
                else tree.num_leaves
            )
            node[active] = np.minimum(
                node[active] * tree.fanout + k, next_size - 1
            )
        return node

    def gpu_descend_from(
        self,
        queries: np.ndarray,
        start_levels: np.ndarray,
        start_nodes: np.ndarray,
        kernel: Optional[str] = None,
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent resumed from per-query (level, node).

        The split-space twin of :meth:`gpu_descend`: no launch
        counting, no counter mutation.  With
        all ``start_levels`` at 0 both outputs are identical to
        :meth:`gpu_descend` (the unbalanced corner of the split space).
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        start = np.asarray(start_levels, dtype=np.int64)
        nodes = np.asarray(start_nodes, dtype=np.int64)
        if len(q) == 0 or self.gpu_depth == 0 or not np.any(
            start < self.gpu_depth
        ):
            return nodes.copy(), 0
        if kern == FRONTIER:
            return frontier_search_from_counted(
                self.iseg_buffer.array,
                self.level_offsets,
                self.level_sizes,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
                start_levels=start,
                start_nodes=nodes,
            )
        return implicit_search_from_counted(
            self.iseg_buffer.array,
            self.level_offsets,
            self.level_sizes,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
            start_levels=start,
            start_nodes=nodes,
            teams_per_warp=self.teams_per_warp,
        )

    def gpu_search_bucket_from(
        self,
        queries: np.ndarray,
        start_levels: np.ndarray,
        start_nodes: np.ndarray,
        kernel: Optional[str] = None,
    ) -> GpuSearchResult:
        """Stateful split-bucket GPU stage: screen, descend, account.

        An all-CPU bucket (every query already descended to the leaves
        by :meth:`cpu_descend_top`) launches no kernel and charges no
        transactions — the execution twin of the load balancer's
        ``sample_times`` fix for ``depth == h``.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        start = np.asarray(start_levels, dtype=np.int64)
        if self.gpu_depth == 0 or not np.any(start < self.gpu_depth):
            return GpuSearchResult(
                codes=np.asarray(start_nodes, dtype=np.int64).copy(),
                transactions=0,
            )
        self.device.kernel_launches += 1
        leaf, txns = self.gpu_descend_from(q, start, start_nodes, kernel=kern)
        self.device.memory.counters.transactions_64 += txns
        self.device.memory.counters.bytes_moved += txns * 64
        return GpuSearchResult(codes=leaf, transactions=txns)

    def modeled_transactions(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> int:
        """Transactions the GPU stage would charge for ``queries``.

        Pure measurement through the coalescing model — no launch, no
        device counters.  Used by the batch engine to price the
        arrival-order baseline of a sorted bucket, and by the load
        balancer to price each kernel when it profiles.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        _leaf, txns = self.gpu_descend(q, kernel=kernel)
        return txns

    def gpu_search_bucket_literal(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> np.ndarray:
        """Stage 2 on the literal SIMT interpreter (slow; for tests)."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if self._resolve_kernel(kernel) == FRONTIER:
            leaf, _stats = launch_frontier_search(
                self.device,
                self.iseg_buffer,
                self.level_offsets,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
                level_sizes=self.level_sizes,
            )
            return leaf
        leaf, _stats = launch_implicit_search(
            self.device,
            self.iseg_buffer,
            self.level_offsets,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
        )
        return leaf

    def cpu_finish_bucket(
        self, queries: np.ndarray, leaf_indices: np.ndarray
    ) -> np.ndarray:
        """Stage 4: search the target leaves on the CPU."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if len(q) == 0:
            return np.zeros(0, dtype=self.spec.dtype)
        leaf = np.minimum(leaf_indices, self.cpu_tree.num_leaves - 1)
        rows = self.cpu_tree.leaf_keys[leaf]
        pos = np.sum(rows < q[:, None], axis=1)
        pos_c = np.minimum(pos, rows.shape[1] - 1)
        found = rows[np.arange(len(q)), pos_c] == q
        out = np.full(len(q), self.spec.max_value, dtype=self.spec.dtype)
        out[found] = self.cpu_tree.leaf_values[leaf[found], pos_c[found]]
        return out

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Full hybrid lookup; the sentinel value marks not-found.

        Keys of any integer dtype (or Python ints) are coerced once via
        :meth:`repro.keys.KeySpec.coerce`, with an overflow check.
        """
        q = self.spec.coerce(queries)
        result = self.gpu_search_bucket(q)
        return self.cpu_finish_bucket(q, result.codes)

    def lookup(self, key: int) -> Optional[int]:
        out = self.lookup_batch(np.asarray([key], dtype=self.spec.dtype))
        val = int(out[0])
        return None if val == self.spec.max_value else val

    def range_query(self, lo: int, hi: int):
        """Sequential leaf scan, serialized against engine
        ``quiesce()`` windows via the shared serve lock."""
        with self.serve_lock:
            return self.cpu_tree.range_query(lo, hi)

    def cpu_scan_bucket(
        self, los: np.ndarray, his: np.ndarray, leaf_indices: np.ndarray
    ) -> List[List[Tuple[int, int]]]:
        """Stage 4 for range scans: one bucket-wide leaf walk from the
        GPU-located starts.

        ``leaf_indices`` are the per-start-key leaves the GPU stage
        produced for the ``lo`` bounds (clamped like
        :meth:`cpu_finish_bucket`); the scan resumes there without
        re-running the CPU descent.
        """
        leaves = np.minimum(
            np.asarray(leaf_indices, dtype=np.int64),
            self.cpu_tree.num_leaves - 1,
        )
        return self.cpu_tree.scan_batch_from(leaves, los, his)

    # ------------------------------------------------------------------
    # instrumented profiling (feeds the cost model)

    def profile_leaf_stage(self, sample_queries: np.ndarray) -> CpuQueryProfile:
        """Measure the CPU leaf stage's per-query memory behaviour."""
        q = np.asarray(sample_queries, dtype=self.spec.dtype)
        result = self.gpu_search_bucket(q)
        leaf = np.minimum(result.codes, self.cpu_tree.num_leaves - 1)
        self.mem.reset_counters()
        self.mem.touch_lines(self.cpu_tree.l_segment, leaf)
        counters = self.mem.counters
        counters.queries = len(q)
        return CpuQueryProfile.from_counters(counters, node_searches_per_query=1.0)

    def bucket_costs(
        self,
        bucket_size: Optional[int] = None,
        sample: Optional[np.ndarray] = None,
        cpu_model: Optional[CpuCostModel] = None,
        sort_batches: bool = False,
    ) -> BucketCosts:
        """Derive the paper's T1-T4 for this tree on this machine.

        ``sort_batches=True`` prices the sorted/deduplicated pipeline
        of :class:`repro.core.batching.BatchingEngine` (GPU stage on
        the sorted distinct sample, all stages scaled by the distinct
        fraction).
        """
        bucket_size = bucket_size or self.machine.bucket_size
        if sample is None:
            stored = self.cpu_tree.leaf_keys.reshape(-1)
            stored = stored[stored != self.spec.max_value]
            if len(stored) == 0:
                raise ValueError(
                    "bucket_costs needs stored keys to sample a workload; "
                    "the tree is empty — rebuild with keys or pass "
                    "sample= explicitly"
                )
            rng = np.random.default_rng(3)
            # draw without replacement whenever the tree can fill the
            # bucket — duplicate draws inflate the sample's
            # unique_fraction and bias the sorted gain the planner
            # commits; replacement survives only as the tiny-tree
            # fallback
            size = 4096
            sample = rng.choice(stored, size=size,
                                replace=len(stored) < size)
        sample = np.asarray(sample, dtype=self.spec.dtype)
        if len(sample) == 0:
            raise ValueError("bucket_costs sample must be non-empty")
        unique_fraction = 1.0
        if sort_batches:
            from repro.core.batching import plan_bucket

            plan = plan_bucket(sample, dtype=self.spec.dtype)
            unique_fraction = plan.n_unique / plan.n_queries
            gpu_result = self.gpu_search_bucket(plan.sorted_unique)
            leaf_profile = self.profile_leaf_stage(plan.sorted_unique)
        else:
            gpu_result = self.gpu_search_bucket(sample)
            leaf_profile = self.profile_leaf_stage(sample)
        return hybrid_bucket_costs(
            self.machine,
            self.spec,
            bucket_size,
            gpu_transactions_per_query=gpu_result.transactions_per_query,
            gpu_levels=float(self.gpu_depth),
            cpu_leaf_profile=leaf_profile,
            cpu_model=cpu_model,
            unique_fraction=unique_fraction,
        )

    # ------------------------------------------------------------------
    # updates (rebuild, section 5.6 / Fig 15)

    def rebuild(self, keys: Sequence[int], values: Sequence[int]) -> RebuildTimes:
        """Rebuild both segments in main memory, then re-upload the
        I-segment to GPU memory."""
        self.cpu_tree.rebuild(keys, values)
        transfer_ns = self._mirror_i_segment()
        bw = self.machine.cpu.mem_bandwidth_gbs
        l_ns = self.l_segment_bytes * REBUILD_PASSES / bw
        i_ns = self.i_segment_bytes * REBUILD_PASSES / bw
        times = RebuildTimes(
            l_segment_ns=l_ns, i_segment_ns=i_ns, transfer_ns=transfer_ns
        )
        self.last_rebuild = times
        return times

    def merge_rebuild(
        self,
        upsert_keys: Sequence[int] = (),
        upsert_values: Sequence[int] = (),
        deletes: Sequence[int] = (),
    ) -> RebuildTimes:
        """Batch update by linear merge instead of a full re-sort.

        Functionally identical to :meth:`rebuild` over the merged
        contents, but cheaper: the existing contents are already sorted
        (``MERGE_PASSES`` vs ``REBUILD_PASSES``).
        """
        self.cpu_tree.merge_update(upsert_keys, upsert_values, deletes)
        transfer_ns = self._mirror_i_segment()
        bw = self.machine.cpu.mem_bandwidth_gbs
        times = RebuildTimes(
            l_segment_ns=self.l_segment_bytes * MERGE_PASSES / bw,
            i_segment_ns=self.i_segment_bytes * MERGE_PASSES / bw,
            transfer_ns=transfer_ns,
        )
        self.last_rebuild = times
        return times

    def __repr__(self) -> str:
        return (
            f"ImplicitHBPlusTree(n={len(self.cpu_tree)}, "
            f"height={self.height}, machine={self.machine.name!r}, "
            f"iseg={self.i_segment_bytes}B)"
        )

    def __len__(self) -> int:
        return len(self.cpu_tree)

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None
