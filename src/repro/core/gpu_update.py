"""GPU-assisted batch updates (paper section 7, future work #1).

"So far, updates are performed sequentially by the CPU with
asynchronous data transfer to the GPU; this could be further improved
by employing GPU cycles in support of parallel update query execution."

The expensive part of an update is *locating* the target leaf — the
same inner-node descent a lookup performs.  This updater offloads that
descent to the GPU exactly like the search path does:

1. the update batch's keys transfer to GPU memory           (T1)
2. the search kernel resolves every key to its big-leaf line (T2)
3. the (node, line) codes transfer back                      (T3)
4. the CPU applies the modifications grouped by leaf — no descent
   needed; keys whose leaf splits mid-group re-descend on the CPU
   (the same <1% tail the asynchronous method defers)
5. the whole I-segment uploads once (as in the asynchronous method)

Compared with :class:`AsyncBatchUpdater`, the CPU-side cost per update
drops from (descent + modify) to (group + modify), and the descent cost
moves to the GPU where it overlaps via the bucket pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.update import (
    ASYNC_PARALLEL_SPEEDUP,
    LOCK_OVERHEAD_FACTOR,
    UpdateStats,
    _measure_update_cost_ns,
)


@dataclass
class GpuUpdateStats(UpdateStats):
    """Update statistics plus the GPU offload's own step times."""

    gpu_locate_ns: float = 0.0
    transfer_in_ns: float = 0.0
    transfer_out_ns: float = 0.0
    redescended: int = 0

    @property
    def total_ns(self) -> float:
        return (self.modify_ns + self.transfer_ns + self.gpu_locate_ns
                + self.transfer_in_ns + self.transfer_out_ns)


class GpuAssistedUpdater:
    """Batch upserts with GPU-located target leaves."""

    def __init__(self, tree: HBPlusTree, threads: int = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        transfer: bool = True,
    ) -> GpuUpdateStats:
        tree = self.tree
        cpu_tree = tree.cpu_tree
        spec = tree.spec
        keys = np.asarray(keys, dtype=spec.dtype)
        values = np.asarray(values, dtype=spec.dtype)
        stats = GpuUpdateStats()
        if len(keys) == 0:
            return stats

        # steps 1-3: locate every key's (node, line) on the GPU
        result = tree.gpu_search_bucket(keys)
        nodes = (result.codes // cpu_tree.fanout).astype(np.int64)
        machine = tree.machine
        stats.transfer_in_ns = machine.pcie.transfer_ns(keys.nbytes)
        stats.transfer_out_ns = machine.pcie.transfer_ns(len(keys) * 8)
        from repro.platform.costmodel import GpuCostModel
        gpu_model = GpuCostModel(machine.gpu, spec.gpu_threads_per_query)
        stats.gpu_locate_ns = gpu_model.kernel_ns(
            result.transactions, len(keys), 3.0 * cpu_tree.height
        )

        # step 4: apply grouped by target leaf (the codes tell us where)
        per_update_ns = _measure_update_cost_ns(tree, keys[:512])
        # GPU already descended: only the leaf modification remains
        leaf_modify_ns = per_update_ns * 0.45
        groups: Dict[int, List[int]] = {}
        for i, node in enumerate(nodes.tolist()):
            groups.setdefault(int(node), []).append(i)
        applied_without_descent = 0
        for node, members in groups.items():
            structure_before = cpu_tree.structure_changes
            for i in members:
                key, value = int(keys[i]), int(values[i])
                if cpu_tree.structure_changes != structure_before:
                    # this leaf split while we were applying the group:
                    # the remaining GPU codes are stale, re-descend
                    cpu_tree.insert(key, value)
                    stats.redescended += 1
                    continue
                size = int(cpu_tree.leaves.size[node])
                will_split = (
                    size >= cpu_tree.leaves.capacity_pairs
                    and cpu_tree.lookup(key, instrument=False) is None
                )
                if will_split:
                    cpu_tree.insert(key, value)
                    stats.redescended += 1
                    continue
                # in-place apply at the located leaf (no descent)
                self._apply_at_leaf(node, key, value)
                applied_without_descent += 1
            stats.lock_acquisitions += 1
        stats.applied = len(keys)
        stats.deferred = stats.redescended

        stats.modify_ns = (
            applied_without_descent * leaf_modify_ns * LOCK_OVERHEAD_FACTOR
            / min(ASYNC_PARALLEL_SPEEDUP, self.threads)
            + stats.redescended * per_update_ns * 4.0
        )
        if transfer:
            stats.transfer_ns = tree.mirror_i_segment()
        else:
            tree.mirror_i_segment()
        return stats

    def _apply_at_leaf(self, node: int, key: int, value: int) -> None:
        """Insert/overwrite inside an already-located big leaf."""
        cpu_tree = self.tree.cpu_tree
        leaf_keys = cpu_tree.leaves.keys[node]
        size = int(cpu_tree.leaves.size[node])
        # scalar must carry the array dtype (uint64 precision!)
        pos = int(np.searchsorted(leaf_keys[:size],
                                  cpu_tree.spec.dtype(key)))
        if pos < size and int(leaf_keys[pos]) == key:
            cpu_tree.leaves.values[node, pos] = value
            return
        leaf_keys[pos + 1: size + 1] = leaf_keys[pos:size]
        cpu_tree.leaves.values[node, pos + 1: size + 1] = (
            cpu_tree.leaves.values[node, pos:size]
        )
        leaf_keys[pos] = key
        cpu_tree.leaves.values[node, pos] = value
        cpu_tree.leaves.size[node] = size + 1
        cpu_tree._refresh_last_level_keys(node)
        # raise routing keys up the tree for keys beyond the old max
        child = node
        parent = int(cpu_tree.last.parent[node])
        level = 1
        while parent != -1:
            psize = int(cpu_tree.upper.size[parent])
            refs = cpu_tree.upper.refs[parent, :psize]
            slot = int(np.where(refs == child)[0][0])
            if int(cpu_tree.upper.keys[parent, slot]) < key:
                cpu_tree._set_parent_key(level, parent, slot, key)
            child = parent
            parent = int(cpu_tree.upper.parent[parent])
            level += 1
        cpu_tree.num_tuples += 1
