"""A general CPU-GPU framework for arbitrary leaf-stored trees.

The paper's second future-work direction (section 7): "develop a
general framework which enables the use of a CPU-GPU hybrid platform
for any arbitrary leaf-stored tree structure, such that using the node
structure and search/update function as input, the framework would
determine the parameters for an approach that best utilizes the
resources of both CPU and GPU."

This module implements that framework:

* :class:`LeafStoredTreeAdapter` — the interface a tree structure
  provides (inner-segment device image, CPU partial descent, GPU
  resume, leaf finish, instrumented profiles);
* adapters for the three structures in this repository — the implicit
  HB+-tree, the regular HB+-tree and the CSS-tree;
* :class:`HybridFramework` — measures per-level CPU and GPU costs for
  the *given* structure on the *given* machine and derives an execution
  :class:`HybridPlan`: pure-CPU, plain hybrid, or a load-balanced split
  (D, R) with a bucket size, whichever the cost model predicts fastest.
  ``execute`` then runs queries functionally according to the plan.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.pipeline import BucketStrategy, strategy_throughput_qps
from repro.cpu.css_tree import CssTree
from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.implicit_search import (
    implicit_search_from,
    implicit_search_vectorized,
)
from repro.gpusim.transfer import PcieLink
from repro.keys import KeySpec
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import (
    BucketCosts,
    CpuCostModel,
    CpuQueryProfile,
    HYBRID_STAGE_OVERHEAD_NS,
)

BUCKET_CANDIDATES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)


class LeafStoredTreeAdapter(abc.ABC):
    """The node-structure/search interface the framework consumes."""

    #: human-readable structure name
    name: str = "leaf-stored-tree"

    #: whether the structure can resume a GPU descent from a mid-tree
    #: position (required for the load-balanced (D, R) split)
    supports_partial_descent: bool = True

    @property
    @abc.abstractmethod
    def spec(self) -> KeySpec:
        """Key width constants of the structure."""

    @property
    @abc.abstractmethod
    def height(self) -> int:
        """Number of inner (directory) levels above the leaves."""

    @abc.abstractmethod
    def cpu_descend(self, queries: np.ndarray,
                    levels: np.ndarray) -> np.ndarray:
        """Walk per-query ``levels`` inner levels on the CPU.

        Returns the per-query node positions where the GPU resumes.
        """

    @abc.abstractmethod
    def gpu_resume(self, queries: np.ndarray, start_levels: np.ndarray,
                   start_nodes: np.ndarray) -> Tuple[np.ndarray, int]:
        """Continue the descent on the GPU; returns (leaf refs, txns)."""

    @abc.abstractmethod
    def cpu_finish(self, queries: np.ndarray,
                   leaf_refs: np.ndarray) -> np.ndarray:
        """Resolve queries in the leaves; sentinel marks not-found."""

    @abc.abstractmethod
    def level_profiles(
        self, sample: np.ndarray
    ) -> Tuple[List[CpuQueryProfile], CpuQueryProfile]:
        """Instrumented per-inner-level CPU profiles plus the leaf
        profile, measured on a sample."""

    @abc.abstractmethod
    def gpu_transactions_per_query(self, sample: np.ndarray) -> float:
        """Measured device transactions per query for a full descent."""

    # -- conveniences ---------------------------------------------------

    def full_search(self, queries: np.ndarray) -> np.ndarray:
        """Plain hybrid search: GPU does every inner level."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        zeros = np.zeros(len(q), dtype=np.int64)
        refs, _txn = self.gpu_resume(q, zeros, zeros)
        return self.cpu_finish(q, refs)


@dataclass
class HybridPlan:
    """The framework's decision for one structure on one machine."""

    mode: str  # "cpu-only" | "hybrid" | "balanced"
    depth: int
    ratio: float
    bucket_size: int
    buffers: int
    predicted_qps: float
    alternatives: dict = field(default_factory=dict)

    def describe(self) -> str:
        alts = ", ".join(
            f"{k}={v / 1e6:.1f}M" for k, v in sorted(self.alternatives.items())
        )
        return (
            f"{self.mode} (D={self.depth}, R={self.ratio:.2f}, "
            f"M={self.bucket_size}, buffers={self.buffers}) "
            f"-> {self.predicted_qps / 1e6:.1f} MQPS [{alts}]"
        )


class HybridFramework:
    """Plans and executes hybrid search for any adapted tree."""

    def __init__(
        self,
        adapter: LeafStoredTreeAdapter,
        machine: MachineConfig,
        sample: Optional[np.ndarray] = None,
        cpu_model: Optional[CpuCostModel] = None,
    ):
        self.adapter = adapter
        self.machine = machine
        self.cpu_model = cpu_model or CpuCostModel(machine.cpu)
        self._sample = sample
        self.plan_result: Optional[HybridPlan] = None

    # ------------------------------------------------------------------
    # measurement

    def _measure(self, sample: np.ndarray) -> None:
        profiles, leaf_profile = self.adapter.level_profiles(sample)
        model = self.cpu_model
        self.cpu_level_ns = [model.query_ns(p) for p in profiles]
        self.leaf_ns = (
            model.query_ns(leaf_profile) + HYBRID_STAGE_OVERHEAD_NS
        )
        txn_pq = self.adapter.gpu_transactions_per_query(sample)
        h = max(1, self.adapter.height)
        gpu = self.machine.gpu
        self.gpu_level_ns = [txn_pq / h * 64.0 / gpu.effective_bandwidth_gbs] * h

    # ------------------------------------------------------------------
    # cost evaluation

    def _split_times(self, depth: int, ratio: float,
                     bucket: int) -> Tuple[float, float]:
        """(Time_GPU, Time_CPU) for one bucket under a (D, R) split."""
        h = self.adapter.height
        depth = min(depth, h)
        cpu_pq = self.leaf_ns + sum(self.cpu_level_ns[:depth])
        gpu_pq = sum(self.gpu_level_ns[depth + 1:])
        if depth < h:
            cpu_pq += ratio * self.cpu_level_ns[depth]
            gpu_pq += (1.0 - ratio) * self.gpu_level_ns[depth]
        t_cpu = bucket * cpu_pq / self.cpu_model.threads
        t_gpu = self.machine.gpu.kernel_init_ns + bucket * gpu_pq
        return t_gpu, t_cpu

    def _bucket_costs(self, depth: int, ratio: float,
                      bucket: int) -> BucketCosts:
        t_gpu, t_cpu = self._split_times(depth, ratio, bucket)
        payload = self.adapter.spec.size_bytes + (8 if depth > 0 else 0)
        t1 = self.machine.pcie.transfer_ns(bucket * payload)
        t3 = self.machine.pcie.transfer_ns(bucket * 8)
        return BucketCosts(t1=t1, t2=t_gpu, t3=t3, t4=t_cpu)

    def _hybrid_qps(self, depth: int, ratio: float, bucket: int,
                    buffers: int = 2) -> float:
        costs = self._bucket_costs(depth, ratio, bucket)
        return strategy_throughput_qps(
            costs, BucketStrategy.DOUBLE_BUFFERED, bucket,
            n_buckets=32 * buffers,
        )

    def _cpu_only_qps(self) -> float:
        per_query = self.leaf_ns + sum(self.cpu_level_ns)
        return self.cpu_model.threads * 1e9 / per_query

    # ------------------------------------------------------------------
    # planning

    def plan(self) -> HybridPlan:
        """Measure, sweep the knobs, and pick the fastest mode."""
        sample = self._sample
        if sample is None:
            raise ValueError(
                "HybridFramework needs a query sample for planning; "
                "pass one at construction"
            )
        self._measure(np.asarray(sample, dtype=self.adapter.spec.dtype))
        h = self.adapter.height

        cpu_qps = self._cpu_only_qps()
        best = HybridPlan(
            mode="cpu-only", depth=h, ratio=1.0,
            bucket_size=self.machine.bucket_size, buffers=1,
            predicted_qps=cpu_qps,
        )
        alternatives = {"cpu-only": cpu_qps}
        for bucket in BUCKET_CANDIDATES:
            plain = self._hybrid_qps(0, 0.0, bucket)
            alternatives[f"hybrid@{bucket // 1024}K"] = plain
            if plain > best.predicted_qps:
                best = HybridPlan(
                    mode="hybrid", depth=0, ratio=0.0, bucket_size=bucket,
                    buffers=2, predicted_qps=plain,
                )
        # load-balanced candidates: Algorithm 1 per bucket size
        balanced_buckets = (
            BUCKET_CANDIDATES if self.adapter.supports_partial_descent
            else ()
        )
        for bucket in balanced_buckets:
            depth, ratio = self._discover(bucket)
            qps = self._hybrid_qps(depth, ratio, bucket, buffers=3)
            alternatives[f"balanced@{bucket // 1024}K"] = qps
            if qps > best.predicted_qps * 1.02 and (depth, ratio) != (0, 0.0):
                best = HybridPlan(
                    mode="balanced", depth=depth, ratio=ratio,
                    bucket_size=bucket, buffers=3, predicted_qps=qps,
                )
        best.alternatives = alternatives
        self.plan_result = best
        return best

    def _discover(self, bucket: int) -> Tuple[int, float]:
        """Algorithm 1 against the measured per-level costs."""
        h = self.adapter.height
        depth, ratio = 0, 1.0
        t_gpu, t_cpu = self._split_times(depth, ratio, bucket)
        while t_gpu > t_cpu and depth < h:
            depth += 1
            t_gpu, t_cpu = self._split_times(depth, ratio, bucket)
        ratio = 0.5
        for step in range(2, 6):
            t_gpu, t_cpu = self._split_times(depth, ratio, bucket)
            if t_gpu > t_cpu:
                ratio += 1.0 / (2 ** step)
            else:
                ratio -= 1.0 / (2 ** step)
        return depth, ratio

    # ------------------------------------------------------------------
    # execution

    def execute(self, queries: Sequence[int]) -> np.ndarray:
        """Run queries according to the current plan (functionally)."""
        if self.plan_result is None:
            self.plan()
        plan = self.plan_result
        q = np.asarray(queries, dtype=self.adapter.spec.dtype)
        h = self.adapter.height
        if plan.mode == "cpu-only":
            levels = np.full(len(q), h, dtype=np.int64)
            nodes = self.adapter.cpu_descend(q, levels)
            return self.adapter.cpu_finish(q, nodes)
        if plan.mode == "hybrid":
            return self.adapter.full_search(q)
        # balanced: Equation 4 semantics — an R fraction descends D+1
        # levels on the CPU, the rest D
        cut = int(round(plan.ratio * len(q)))
        levels = np.full(len(q), min(plan.depth + 1, h), dtype=np.int64)
        levels[cut:] = min(plan.depth, h)
        nodes = self.adapter.cpu_descend(q, levels)
        refs, _txn = self.adapter.gpu_resume(q, levels, nodes)
        return self.adapter.cpu_finish(q, refs)


# ----------------------------------------------------------------------
# adapters


class ImplicitHBAdapter(LeafStoredTreeAdapter):
    """Adapter over :class:`ImplicitHBPlusTree`."""

    name = "implicit-hb+tree"

    def __init__(self, tree: ImplicitHBPlusTree):
        self.tree = tree

    @property
    def spec(self) -> KeySpec:
        return self.tree.spec

    @property
    def height(self) -> int:
        return self.tree.height

    def cpu_descend(self, queries, levels):
        t = self.tree.cpu_tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(t.height):
            active = levels > level
            if not np.any(active):
                break
            keys = t.inner_levels[level][node[active]]
            k = np.sum(keys < q[active, None], axis=1).astype(np.int64)
            next_size = (
                t.inner_levels[level + 1].shape[0]
                if level + 1 < t.height else t.num_leaves
            )
            node[active] = np.minimum(
                node[active] * t.fanout + k, next_size - 1
            )
        return node

    def gpu_resume(self, queries, start_levels, start_nodes):
        t = self.tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        if t.gpu_depth == 0:
            return np.asarray(start_nodes, dtype=np.int64), 0
        leaf = implicit_search_from(
            t.iseg_buffer.array, t.level_offsets, t.level_sizes,
            t.gpu_depth, t.cpu_tree.fanout, q,
            start_levels=np.asarray(start_levels, dtype=np.int64),
            start_nodes=np.asarray(start_nodes, dtype=np.int64),
        )
        remaining = np.maximum(
            t.gpu_depth - np.asarray(start_levels, dtype=np.int64), 0
        )
        return leaf, int(np.sum(remaining))

    def cpu_finish(self, queries, leaf_refs):
        return self.tree.cpu_finish_bucket(
            np.asarray(queries, dtype=self.spec.dtype), leaf_refs
        )

    def level_profiles(self, sample):
        return _implicit_style_profiles(
            self.tree.mem, self.tree.cpu_tree, sample, self.spec
        )

    def gpu_transactions_per_query(self, sample):
        result = self.tree.gpu_search_bucket(
            np.asarray(sample, dtype=self.spec.dtype)
        )
        return result.transactions_per_query


class CssTreeAdapter(LeafStoredTreeAdapter):
    """Adapter over :class:`CssTree` — the directory mirrors to the GPU,
    the sorted data array stays in host memory."""

    name = "css-tree"

    def __init__(self, tree: CssTree, machine: MachineConfig):
        self.tree = tree
        self.machine = machine
        self.device = GpuDevice(machine.gpu)
        self.link = PcieLink(machine.pcie)
        self._mirror()

    def _mirror(self) -> None:
        t = self.tree
        parts, offsets, sizes = [], [], []
        elem = 0
        for level in t.directory:
            flat = level.reshape(-1)
            offsets.append(elem)
            sizes.append(flat.size)
            parts.append(flat)
            elem += flat.size
        if parts:
            image = np.concatenate(parts)
        else:
            image = np.full(t.fanout, t.spec.max_value, dtype=t.spec.dtype)
            offsets, sizes = [0], [t.fanout]
        self.level_offsets, self.level_sizes = offsets, sizes
        self.link.to_device(self.device.memory, "css_dir", image)
        self.dir_buffer = self.device.memory.get("css_dir")

    @property
    def spec(self) -> KeySpec:
        return self.tree.spec

    @property
    def height(self) -> int:
        return self.tree.height

    def cpu_descend(self, queries, levels):
        t = self.tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(t.height):
            active = levels > level
            if not np.any(active):
                break
            keys = t.directory[level][node[active]]
            k = np.sum(keys < q[active, None], axis=1).astype(np.int64)
            next_size = (
                t.directory[level + 1].shape[0]
                if level + 1 < t.height else t.num_runs
            )
            node[active] = np.minimum(
                node[active] * t.fanout + k, next_size - 1
            )
        return node

    def gpu_resume(self, queries, start_levels, start_nodes):
        t = self.tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        if t.height == 0:
            return np.asarray(start_nodes, dtype=np.int64), 0
        run = implicit_search_from(
            self.dir_buffer.array, self.level_offsets, self.level_sizes,
            t.height, t.fanout, q,
            start_levels=np.asarray(start_levels, dtype=np.int64),
            start_nodes=np.asarray(start_nodes, dtype=np.int64),
        )
        remaining = np.maximum(
            t.height - np.asarray(start_levels, dtype=np.int64), 0
        )
        return np.minimum(run, t.num_runs - 1), int(np.sum(remaining))

    def cpu_finish(self, queries, leaf_refs):
        t = self.tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        run = np.minimum(np.asarray(leaf_refs, dtype=np.int64),
                         t.num_runs - 1)
        lo = run * t.fanout
        idx = lo[:, None] + np.arange(t.fanout)
        idx = np.minimum(idx, t.num_tuples - 1)
        rows = t.sorted_keys[idx]
        pos = np.sum(rows < q[:, None], axis=1)
        pos_c = np.minimum(pos, t.fanout - 1)
        flat = np.minimum(lo + pos_c, t.num_tuples - 1)
        found = t.sorted_keys[flat] == q
        out = np.full(len(q), self.spec.max_value, dtype=self.spec.dtype)
        out[found] = t.sorted_values[flat[found]]
        return out

    def level_profiles(self, sample):
        return _css_profiles(self.tree, sample)

    def gpu_transactions_per_query(self, sample):
        q = np.asarray(sample, dtype=self.spec.dtype)
        if self.tree.height == 0:
            return 0.0
        _leaf, txns = implicit_search_vectorized(
            self.dir_buffer.array, self.level_offsets, self.level_sizes,
            self.tree.height, self.tree.fanout, q,
            teams_per_warp=max(
                1, self.machine.gpu.warp_size // self.spec.gpu_threads_per_query
            ),
        )
        return txns / max(1, len(q))


class RegularHBAdapter(LeafStoredTreeAdapter):
    """Adapter over the regular :class:`HBPlusTree`.

    The regular tree's 3-step node search has no sub-tree resume path in
    this implementation, so the framework plans it between cpu-only and
    plain-hybrid modes (depth 0 only)."""

    name = "regular-hb+tree"
    supports_partial_descent = False

    def __init__(self, tree: HBPlusTree):
        self.tree = tree

    @property
    def spec(self) -> KeySpec:
        return self.tree.spec

    @property
    def height(self) -> int:
        return self.tree.cpu_tree.height

    def cpu_descend(self, queries, levels):
        # full descent only (used by cpu-only mode): returns leaf codes
        t = self.tree.cpu_tree
        node, line = t.descend_batch(queries)
        return node * t.fanout + line

    def gpu_resume(self, queries, start_levels, start_nodes):
        if np.any(np.asarray(start_levels) > 0):
            raise NotImplementedError(
                "the regular HB+-tree supports only full GPU descents"
            )
        result = self.tree.gpu_search_bucket(
            np.asarray(queries, dtype=self.spec.dtype)
        )
        return result.codes, result.transactions

    def cpu_finish(self, queries, leaf_refs):
        return self.tree.cpu_finish_bucket(
            np.asarray(queries, dtype=self.spec.dtype), leaf_refs
        )

    def level_profiles(self, sample):
        tree = self.tree.cpu_tree
        mem = self.tree.mem
        q = np.asarray(sample, dtype=self.spec.dtype)
        tree._ensure_segments()
        segments = (tree.i_segment, tree.l_segment)
        mem.reset_counters()
        profiles: List[CpuQueryProfile] = []
        # each level's lines replay in the scalar loop's order (per
        # query: index, key, ref line), then level 0's leaf lines
        for level, node, slot in tree.descend_levels(q):
            lines = tree.inner_lines(level, node, slot)
            misses = mem.touch_stream(
                segments, np.zeros(lines.shape, dtype=np.int64), lines
            ) / len(q)
            profiles.append(CpuQueryProfile(
                lines=3.0, misses=misses, tlb_small=0.0, tlb_huge=0.0,
                node_searches=2.0,
            ))
        leaf_lines = node * tree.leaves.lines_per_leaf + slot
        leaf_misses = mem.touch_stream(
            segments, np.ones(len(q), dtype=np.int64), leaf_lines
        ) / len(q)
        leaf = CpuQueryProfile(
            lines=1.0, misses=leaf_misses, tlb_small=0.5, tlb_huge=0.0,
            node_searches=1.0,
        )
        return profiles, leaf

    def gpu_transactions_per_query(self, sample):
        result = self.tree.gpu_search_bucket(
            np.asarray(sample, dtype=self.spec.dtype)
        )
        return result.transactions_per_query


# ----------------------------------------------------------------------
# shared instrumented measurement for implicit-style structures


def _implicit_style_profiles(mem, tree, sample, spec):
    q = np.asarray(sample, dtype=spec.dtype)
    mem.reset_counters()
    profiles: List[CpuQueryProfile] = []
    node = np.zeros(len(q), dtype=np.int64)
    for level in range(tree.height):
        offset = tree._level_line_offset(level)
        before = mem.counters.cache_misses
        for n in node.tolist():
            mem.touch_line(tree.i_segment, offset + int(n))
        misses = (mem.counters.cache_misses - before) / len(q)
        profiles.append(CpuQueryProfile(
            lines=1.0, misses=misses, tlb_small=0.0, tlb_huge=0.0,
            node_searches=1.0,
        ))
        keys = tree.inner_levels[level][node]
        k = np.sum(keys < q[:, None], axis=1).astype(np.int64)
        next_size = (
            tree.inner_levels[level + 1].shape[0]
            if level + 1 < tree.height else tree.num_leaves
        )
        node = np.minimum(node * tree.fanout + k, next_size - 1)
    before = mem.counters.cache_misses
    tlb_before = mem.counters.tlb_misses_small
    for n in node.tolist():
        mem.touch_line(tree.l_segment, int(n))
    leaf = CpuQueryProfile(
        lines=1.0,
        misses=(mem.counters.cache_misses - before) / len(q),
        tlb_small=(mem.counters.tlb_misses_small - tlb_before) / len(q),
        tlb_huge=0.0,
        node_searches=1.0,
    )
    return profiles, leaf


def _css_profiles(tree: CssTree, sample):
    mem = tree.mem
    if mem is None:
        raise ValueError("CssTree must be built with a MemorySystem")
    q = np.asarray(sample, dtype=tree.spec.dtype)
    mem.reset_counters()
    profiles: List[CpuQueryProfile] = []
    node = np.zeros(len(q), dtype=np.int64)
    for level in range(tree.height):
        offset = tree._level_line_offset(level)
        before = mem.counters.cache_misses
        for n in node.tolist():
            mem.touch_line(tree.i_segment, offset + int(n))
        misses = (mem.counters.cache_misses - before) / len(q)
        profiles.append(CpuQueryProfile(
            lines=1.0, misses=misses, tlb_small=0.0, tlb_huge=0.0,
            node_searches=1.0,
        ))
        keys = tree.directory[level][node]
        k = np.sum(keys < q[:, None], axis=1).astype(np.int64)
        next_size = (
            tree.directory[level + 1].shape[0]
            if level + 1 < tree.height else tree.num_runs
        )
        node = np.minimum(node * tree.fanout + k, next_size - 1)
    before = mem.counters.cache_misses
    tlb_before = mem.counters.tlb_misses_small
    pair = 2 * tree.spec.size_bytes
    for n in node.tolist():
        lo = int(n) * tree.fanout
        hi = min(lo + tree.fanout, tree.num_tuples)
        mem.touch(tree.l_segment, lo * pair, max(pair, (hi - lo) * pair))
    leaf = CpuQueryProfile(
        lines=2.0,
        misses=(mem.counters.cache_misses - before) / len(q),
        tlb_small=(mem.counters.tlb_misses_small - tlb_before) / len(q),
        tlb_huge=0.0,
        node_searches=1.0,
    )
    return profiles, leaf
