"""Batch update execution for the regular HB+-tree (paper section 5.6).

Two methods with a batch-size-dependent trade-off (Figs 13-14):

* **asynchronous** — updates run in main memory in parallel groups of
  16K.  Each logical thread descends to the last-level inner node,
  takes that node's lock and resolves the update in place; queries that
  would split or merge a node are deferred to a single-threaded pass
  (thanks to the 256-entry big leaves this is <1% of updates).  When
  the whole batch is done, the *entire* I-segment transfers to GPU
  memory once.
* **synchronized** — a single *modifying* thread executes updates and
  enqueues every modified inner node; a *synchronizing* thread streams
  each node's 1 + 2K cache lines to the GPU mirror concurrently.
  Per-node pushes ride an open copy stream, so their cost is dominated
  by bandwidth, but the method cannot amortize like the bulk transfer —
  hence the crossover: synchronized wins for small batches, asynchronous
  for large ones.

Both methods are *functionally* executed against the real tree (every
insert/delete mutates it and the GPU mirror ends up consistent); the
thread-level parallelism is modeled in time, with lock conflicts and
deferrals counted from the actual access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.faults import FaultError
from repro.platform.costmodel import CpuCostModel, CpuQueryProfile

#: group size of the asynchronous method (section 5.6)
ASYNC_GROUP_SIZE = 16 * 1024

#: parallel speedup of the locked multi-threaded async modify phase —
#: the paper measures 3x over single-threaded (Fig 13a); lock and cache
#: coherence traffic, not core count, is the limit
ASYNC_PARALLEL_SPEEDUP = 3.0

#: per-update slowdown of lock acquisition in the async method
LOCK_OVERHEAD_FACTOR = 1.6

#: per-node push overhead on the synchronizing thread's open stream
#: (request bookkeeping; the stream amortizes the big T_init)
SYNC_NODE_OVERHEAD_NS = 40.0


@dataclass
class UpdateStats:
    """Result of applying one update batch."""

    applied: int = 0
    deferred: int = 0
    lock_acquisitions: int = 0
    lock_conflicts: int = 0
    modify_ns: float = 0.0
    transfer_ns: float = 0.0
    synced_nodes: int = 0
    #: per-node pushes aborted by an injected fault; each one forces
    #: the end-of-batch full mirror rebuild that restores consistency
    sync_faults: int = 0

    @property
    def total_ns(self) -> float:
        return self.modify_ns + self.transfer_ns

    @property
    def deferred_fraction(self) -> float:
        total = self.applied + self.deferred
        return self.deferred / total if total else 0.0

    def throughput_qps(self, include_transfer: bool = True) -> float:
        total = self.applied + self.deferred
        t = self.total_ns if include_transfer else self.modify_ns
        if t <= 0:
            # empty/zero-cost batches report 0.0, not inf — the same
            # convention as the pipeline/engine throughput metrics, so
            # downstream aggregation (means, JSON) never sees inf
            return 0.0
        return total * 1e9 / t


@dataclass
class ImplicitRebuildStats:
    """Phase breakdown of an implicit HB+-tree update (Fig 15)."""

    l_segment_ns: float
    i_segment_ns: float
    transfer_ns: float

    @property
    def total_ns(self) -> float:
        return self.l_segment_ns + self.i_segment_ns + self.transfer_ns


def _measure_update_cost_ns(tree: HBPlusTree, sample_keys: np.ndarray) -> float:
    """Per-update cost of one thread: descend + leaf modification.

    Measured by instrumented descents over a sample (one batched
    replay, counter- and state-identical to the scalar
    :func:`_measure_update_cost_scalar_ns` oracle), converted by the
    cost model without software pipelining (updates are dependent
    operations and cannot be pipelined like lookups).
    """
    tree.mem.reset_counters()
    tree.cpu_tree.lookup_batch_instrumented(sample_keys)
    return _update_cost_from_counters(tree)


def _measure_update_cost_scalar_ns(tree: HBPlusTree,
                                   sample_keys: np.ndarray) -> float:
    """Scalar oracle of :func:`_measure_update_cost_ns`: one
    instrumented ``lookup`` per sample key."""
    tree.mem.reset_counters()
    for key in np.asarray(sample_keys).tolist():
        tree.cpu_tree.lookup(int(key), instrument=True)
    return _update_cost_from_counters(tree)


def _update_cost_from_counters(tree: HBPlusTree) -> float:
    """Price the memory counters of a calibration run per update."""
    cpu_tree = tree.cpu_tree
    profile = CpuQueryProfile.from_counters(
        tree.mem.counters, node_searches_per_query=2.0 * cpu_tree.height + 1
    )
    model = CpuCostModel(tree.machine.cpu, pipeline_len=1, threads=1)
    # leaf modification: shifting half a big leaf on average (write
    # bandwidth), plus routing-key maintenance
    shift_bytes = cpu_tree.leaves.capacity_pairs * tree.spec.size_bytes
    shift_ns = shift_bytes / tree.machine.cpu.mem_bandwidth_gbs
    return model.query_ns(profile) + shift_ns


class AsyncBatchUpdater:
    """The asynchronous parallel update method."""

    def __init__(self, tree: HBPlusTree, threads: Optional[int] = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        deletes: Sequence[int] = (),
        transfer: bool = True,
    ) -> UpdateStats:
        """Apply a batch of upserts (and optional deletes)."""
        keys = np.asarray(keys, dtype=self.tree.spec.dtype)
        values = np.asarray(values, dtype=self.tree.spec.dtype)
        deletes = np.asarray(deletes, dtype=self.tree.spec.dtype)
        stats = UpdateStats()
        cpu_tree = self.tree.cpu_tree
        cost_sample = keys[: min(len(keys), 512)]
        per_update_ns = (
            _measure_update_cost_ns(self.tree, cost_sample) if len(keys) else 0.0
        )

        spec = self.tree.spec
        op_kind = np.concatenate([
            np.zeros(len(keys), dtype=np.int8),
            np.ones(len(deletes), dtype=np.int8),
        ])
        op_key = np.concatenate([keys, deletes])
        op_val = np.concatenate([values, np.zeros(len(deletes), dtype=spec.dtype)])
        for start in range(0, len(op_key), ASYNC_GROUP_SIZE):
            gk = op_key[start: start + ASYNC_GROUP_SIZE]
            gkind = op_kind[start: start + ASYNC_GROUP_SIZE]
            gv = op_val[start: start + ASYNC_GROUP_SIZE]
            # classify the whole group in one vectorised pass: batch
            # descent + batch presence check + projected leaf occupancy
            # replace the former per-op descend/lookup pair
            nodes, _lines = cpu_tree.descend_batch(gk)
            present = cpu_tree.lookup_batch(gk) != spec.max_value
            # live occupancy, not raw extent: on a gapped tree the
            # extent includes interleaved gaps and would over-defer
            sizes0 = cpu_tree.leaf_occupancy(nodes)
            _u, first_idx = np.unique(gk, return_index=True)
            is_first = np.zeros(len(gk), dtype=bool)
            is_first[first_idx] = True
            is_up = gkind == 0
            is_new = is_up & ~present & is_first
            # per-op projected leaf size: starting occupancy plus the
            # net effect of every earlier op in the group on that leaf
            # (grouped exclusive cumsum over the op order)
            delta = is_new.astype(np.int64)
            delta -= (~is_up & present).astype(np.int64)
            order = np.argsort(nodes, kind="stable")
            sn, sd = nodes[order], delta[order]
            csum = np.cumsum(sd)
            newrun = np.r_[True, sn[1:] != sn[:-1]]
            run_id = np.cumsum(newrun) - 1
            run_start = np.flatnonzero(newrun)
            base = np.where(run_start > 0, csum[run_start - 1], 0)
            prior = np.empty(len(gk), dtype=np.int64)
            prior[order] = csum - sd - base[run_id]
            projected = sizes0 + prior
            causes_split = is_new & (
                projected >= cpu_tree.leaves.capacity_pairs
            )
            causes_merge = ~is_up & (projected <= 1)
            deferred_mask = causes_split | causes_merge
            keep = np.flatnonzero(~deferred_mask)
            defer = np.flatnonzero(deferred_mask)
            stats.lock_acquisitions += len(keep)
            keep_up = keep[is_up[keep]]
            keep_del = keep[~is_up[keep]]
            if len(keep_del) and len(keep_up) and len(
                np.intersect1d(gk[keep_up], gk[keep_del])
            ):
                # an upsert and a delete of the same key inside one
                # group: phase reordering would flip their order, so
                # keep the original per-op interleaving for this group
                for i in keep.tolist():
                    if is_up[i]:
                        cpu_tree.insert(int(gk[i]), int(gv[i]))
                    else:
                        cpu_tree.delete(int(gk[i]))
            else:
                # the vectorised scatter: every touched leaf is merged
                # and rewritten once, reusing this group's batch
                # descent instead of descending again per op
                cpu_tree.insert_batch(
                    gk[keep_up], gv[keep_up], nodes=nodes[keep_up]
                )
                for i in keep_del.tolist():
                    cpu_tree.delete(int(gk[i]))
            stats.applied += len(keep)
            # lock conflicts: two logical threads hitting the same
            # last-level node simultaneously; estimated from collisions
            # within thread-count-sized windows of the actual pattern
            t = max(1, self.threads)
            touched = nodes[keep]
            if len(touched):
                pad = (-len(touched)) % t
                # pad with distinct sentinels so they never collide
                w = np.concatenate(
                    [touched, -np.arange(1, pad + 1, dtype=np.int64)]
                )
                w = np.sort(w.reshape(-1, t), axis=1)
                stats.lock_conflicts += int(np.sum(w[:, 1:] == w[:, :-1]))
            # single-threaded pass over the deferred (splitting) updates
            for i in defer.tolist():
                if is_up[i]:
                    cpu_tree.insert(int(gk[i]), int(gv[i]))
                else:
                    cpu_tree.delete(int(gk[i]))
            stats.deferred += len(defer)
            parallel_ns = len(keep) * per_update_ns * LOCK_OVERHEAD_FACTOR / min(
                ASYNC_PARALLEL_SPEEDUP, self.threads
            )
            conflict_ns = stats.lock_conflicts * per_update_ns * 0.5
            serial_ns = len(defer) * per_update_ns * 4.0  # splits are costly
            stats.modify_ns += parallel_ns + conflict_ns + serial_ns
        if transfer:
            stats.transfer_ns = self.tree.mirror_i_segment()
        else:
            self.tree.mirror_i_segment()  # keep the mirror consistent
        return stats


class SyncUpdater:
    """The synchronized update method (modifying + synchronizing thread).

    ``batched=True`` (the default) drains the synchronizing thread's
    queue through :meth:`HBPlusTree.sync_nodes`, which deduplicates
    repeatedly-modified nodes and coalesces adjacent dirty mirror slots
    into ranged transfers — fewer pushes on the open copy stream for
    the same final mirror state.  ``batched=False`` keeps the original
    per-node push, one transfer per modified node, pushed as each op
    lands: it runs the per-op loop of :meth:`apply_scalar`.

    The batched path classifies the upserts once.  Every upsert of a
    stored key becomes one value scatter; only the first occurrence of
    each new key runs :meth:`insert`, in arrival order and with the
    batch's final value for that key; deletes run per op after the
    upserts.  :meth:`apply_scalar` is the per-op oracle: the same
    stats, contents, pool arrays, mirror, link stats and memory state,
    except that a leaf's ``version`` is bumped once per batch rather
    than once per write.
    """

    def __init__(self, tree: HBPlusTree, batched: bool = True):
        self.tree = tree
        self.batched = batched

    def _prepare(self, keys, values, deletes):
        """Typed, validated batch arrays plus the per-update cost.

        The whole batch is checked before the calibration touches the
        simulated memory, so a rejected batch has no effect."""
        spec = self.tree.spec
        keys = np.asarray(keys, dtype=spec.dtype)
        values = np.asarray(values, dtype=spec.dtype)
        deletes = np.asarray(deletes, dtype=spec.dtype)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) and int(keys.max()) >= spec.max_value:
            raise ValueError("key outside the valid (non-sentinel) domain")
        cost_sample = keys[: min(len(keys), 512)]
        per_update_ns = (
            _measure_update_cost_ns(self.tree, cost_sample) if len(keys) else 0.0
        )
        return keys, values, deletes, per_update_ns

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        deletes: Sequence[int] = (),
    ) -> UpdateStats:
        if not self.batched:
            return self.apply_scalar(keys, values, deletes)
        keys, values, deletes, per_update_ns = self._prepare(
            keys, values, deletes
        )
        cpu_tree = self.tree.cpu_tree
        all_op_keys = np.concatenate([keys, deletes])
        op_nodes, op_lines = cpu_tree.descend_batch(all_op_keys)
        n_up = len(keys)
        # classify the distinct upsert keys: stored keys become one
        # value scatter with the last write; new keys insert once, at
        # their first occurrence
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        run_first = np.ones(n_up, dtype=bool)
        run_first[1:] = sk[1:] != sk[:-1]
        run_last = np.ones(n_up, dtype=bool)
        run_last[:-1] = run_first[1:]
        first, last = order[run_first], order[run_last]
        found, slot, _pos = cpu_tree.locate_batch(
            keys[first], op_nodes[first], op_lines[first]
        )
        if found.any():
            cpu_tree.overwrite_batch(
                op_nodes[first[found]], slot[found], values[last[found]]
            )
        # every op enqueues its pre-batch node, except one that changed
        # the structure: that one forces the full rebuild instead
        dirty = np.ones(len(all_op_keys), dtype=bool)
        structural = 0
        new = np.flatnonzero(~found)
        new = new[np.argsort(first[new])]  # arrival order
        for op, value_at in zip(first[new].tolist(), last[new].tolist()):
            before = cpu_tree.structure_changes
            cpu_tree.insert(int(keys[op]), int(values[value_at]))
            if cpu_tree.structure_changes != before:
                structural += 1
                dirty[op] = False
        for op in range(n_up, len(all_op_keys)):
            before = cpu_tree.structure_changes
            cpu_tree.delete(int(all_op_keys[op]))
            if cpu_tree.structure_changes != before:
                structural += 1
                dirty[op] = False
        stats = UpdateStats(applied=len(all_op_keys))
        return self._finish(stats, op_nodes[dirty].tolist(), structural,
                            per_update_ns)

    def apply_scalar(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        deletes: Sequence[int] = (),
    ) -> UpdateStats:
        """The per-op loop: one :meth:`insert` or :meth:`delete` per
        op, in arrival order.  The batched :meth:`apply`'s oracle, and
        the path of ``batched=False``."""
        keys, values, deletes, per_update_ns = self._prepare(
            keys, values, deletes
        )
        stats = UpdateStats()
        cpu_tree = self.tree.cpu_tree
        ops = [("upsert", int(k), int(v)) for k, v in zip(keys, values)]
        ops += [("delete", int(k), 0) for k in deletes]
        # one batch descent over the whole op stream replaces the old
        # per-op `_descend`: the ids are exact while the structure
        # holds, and any structural change triggers the full mirror
        # rebuild below, which restores consistency regardless
        op_nodes = cpu_tree.descend_batch(np.concatenate([keys, deletes]))[0]
        structural = 0
        dirty: List[int] = []
        for (op, key, value), node in zip(ops, op_nodes.tolist()):
            before = cpu_tree.structure_changes
            if op == "upsert":
                cpu_tree.insert(key, value)
            else:
                cpu_tree.delete(key)
            stats.applied += 1
            if cpu_tree.structure_changes != before:
                structural += 1
            elif self.batched:
                dirty.append(node)
            else:
                # enqueue the modified last-level inner node
                try:
                    self.tree.sync_node(0, node)
                    stats.synced_nodes += 1
                except FaultError:
                    # the push aborted mid-flight; the mirror is stale
                    # for this node — repair with the full rebuild below
                    stats.sync_faults += 1
                    structural += 1
        return self._finish(stats, dirty, structural, per_update_ns)

    def _finish(self, stats: UpdateStats, dirty: List[int], structural: int,
                per_update_ns: float) -> UpdateStats:
        """Drain the dirty queue, rebuild the mirror after a structural
        change, and price the batch."""
        node_bytes = self.tree.node_stride * 8
        rebuilt = False
        # per-push bookkeeping on the open stream: the per-node path
        # pushed once per synced node
        push_overhead_units = stats.synced_nodes
        if self.batched and dirty:
            # drain the queue once: dedup + coalesce into ranged pushes
            try:
                mirror_stats = self.tree.sync_nodes(
                    [(0, n) for n in dirty]
                )
                stats.synced_nodes = mirror_stats.nodes
                push_overhead_units = mirror_stats.transfers
                rebuilt = mirror_stats.rebuilt
            except FaultError:
                stats.sync_faults += 1
                structural += 1
        rebuild_ns = 0.0
        if structural and not rebuilt:
            # splits/merges change node identities (and aborted pushes
            # leave stale nodes): fall back to a full mirror rebuild,
            # exactly once at the end
            rebuild_ns = self.tree.mirror_i_segment()
        stats.modify_ns = stats.applied * per_update_ns
        # the synchronizing thread overlaps the modifying thread; only
        # the excess shows up as extra time.  Pushes ride one open copy
        # stream: bandwidth per node plus bookkeeping per push (the
        # batched path issues fewer pushes for the same nodes)
        modeled_push = (
            stats.synced_nodes * node_bytes
            / self.tree.machine.pcie.bandwidth_gbs
            + push_overhead_units * SYNC_NODE_OVERHEAD_NS
        )
        stats.transfer_ns = (
            max(0.0, modeled_push - stats.modify_ns)
            + (self.tree.machine.pcie.t_init_ns if stats.synced_nodes else 0.0)
            + rebuild_ns
        )
        return stats


def apply_cpu_only(
    cpu_tree, keys: Sequence[int], values: Sequence[int]
) -> int:
    """Upsert a batch into a plain CPU tree (baseline for Fig 13)."""
    n = 0
    for k, v in zip(np.asarray(keys).tolist(), np.asarray(values).tolist()):
        cpu_tree.insert(int(k), int(v))
        n += 1
    return n
