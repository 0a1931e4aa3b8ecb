"""The synchronized updater's batched ``apply`` against its per-op oracle.

``SyncUpdater.apply`` classifies an update batch once: every upsert of
a stored key becomes one value scatter, only the first occurrence of
each new key runs ``insert``, and deletes run per op afterwards.  It
must be indistinguishable from ``apply_scalar``, the per-op loop:

* equal ``UpdateStats``, PCIe link stats, GPU mirror, fault-injector
  stats and simulated memory state;
* every pool array equal, the gapped leaves' ``gap``/``live`` included.
  The leaves' ``version`` stamps are the one exception: the scatter
  bumps a written leaf once per batch, the loop once per write, but
  both bump exactly the same leaves.

Also here: structure changes that leave the pool counts alone (a
delete that empties a leaf, a split that reuses its id) still force
the mirror rebuild, and a rejected batch has no effect.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hbtree import HBPlusTree
from repro.core.update import SyncUpdater
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.faults import FaultError, FaultInjector, FaultPlan
from repro.service import IndexService, ServiceConfig
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_insert_batch

LAYOUTS = {
    "regular": dict(key_bits=64),
    "gapped": dict(key_bits=64, gapped=True),
    "32bit": dict(key_bits=32),
}

TWIN = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: one batch: (stored upserts, fresh inserts, repeats of fresh keys,
#: deletes of stored keys, deletes of this batch's fresh keys, whether
#: one whole leaf is deleted).  Counts are often tiny, so that a leaf
#: may see one op only: a split whose node no other op dirties.
def _count(hi):
    return st.integers(0, 2) | st.integers(0, hi)


batch_specs = st.tuples(
    _count(300), _count(80), _count(20), _count(12), _count(4),
    st.booleans(),
)


def _twins(m1, layout, n, fill, fault_seed=None):
    kwargs = LAYOUTS[layout]
    keys, values = generate_dataset(n, key_bits=kwargs["key_bits"], seed=n)

    def build():
        tree = HBPlusTree(keys, values, machine=m1, fill=fill, **kwargs)
        if fault_seed is not None:
            tree.attach_injector(
                FaultInjector(FaultPlan.uniform(0.05, seed=fault_seed))
            )
        return tree

    return build(), build()


def _batch(tree, rng, spec):
    n_stored, n_fresh, n_repeat, n_del, n_del_fresh, empty_leaf = spec
    cpu = tree.cpu_tree
    stored = cpu.stored_keys()
    dtype = tree.spec.dtype
    fresh, _v = make_insert_batch(stored, n_fresh, tree.spec.bits,
                                  seed=int(rng.integers(1 << 30)))
    old = rng.choice(stored, n_stored) if len(stored) else stored[:0]
    repeats = rng.choice(fresh, n_repeat) if n_fresh else fresh[:0]
    keys = rng.permutation(np.concatenate([old, fresh, repeats]))
    keys = keys.astype(dtype)
    values = rng.integers(0, 1 << 30, size=len(keys)).astype(dtype)
    deletes = [rng.choice(stored, n_del) if len(stored) else stored[:0],
               fresh[:n_del_fresh]]
    if empty_leaf and cpu.height > 1:
        chain = cpu.leaf_chain()
        deletes.append(cpu._leaf_pairs(int(rng.choice(chain)))[0])
    return keys, values, np.concatenate(deletes).astype(dtype)


def _pool_state(tree):
    """Every pool array but the leaves' version stamps, plus the
    tree's scalar shape."""
    cpu = tree.cpu_tree
    state = {"root": cpu.root, "height": cpu.height,
             "num_tuples": cpu.num_tuples, "first_leaf": cpu._first_leaf,
             "structure_changes": cpu.structure_changes}
    for name, pool in (("upper", cpu.upper), ("last", cpu.last),
                       ("leaves", cpu.leaves)):
        for attr, value in vars(pool).items():
            if name == "leaves" and attr == "version":
                continue
            if isinstance(value, np.ndarray):
                state[f"{name}.{attr}"] = value.tolist()
            elif attr in ("count", "_free", "capacity_pairs"):
                state[f"{name}.{attr}"] = list(np.atleast_1d(value))
    return state


def _changed(after, before):
    return after != np.pad(before, (0, len(after) - len(before)))


def _apply_both(fast, slow, keys, values, deletes):
    """Run the batch through both paths; both must raise alike."""
    out = []
    for run in (SyncUpdater(fast).apply, SyncUpdater(slow).apply_scalar):
        try:
            out.append(run(keys, values, deletes))
        except FaultError as exc:  # an injected fault; compared by type
            out.append(type(exc))
    return out


def _assert_twins(fast, slow, got, want):
    assert got == want
    assert vars(fast.link.stats) == vars(slow.link.stats)
    assert np.array_equal(fast.iseg_buffer.array, slow.iseg_buffer.array)
    assert fast.mirror_stale == slow.mirror_stale
    assert fast.mem.state() == slow.mem.state()
    if fast.injector is not None:
        assert vars(fast.injector.stats) == vars(slow.injector.stats)
    assert _pool_state(fast) == _pool_state(slow)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@given(seed=st.integers(0, 2**16), fill=st.sampled_from([0.5, 0.8, 1.0]),
       faults=st.booleans(),
       specs=st.lists(batch_specs, min_size=1, max_size=4))
@TWIN
def test_batched_apply_matches_per_op_oracle(m1, layout, seed, fill,
                                             faults, specs):
    rng = np.random.default_rng(seed)
    # 32-bit big leaves hold 2048 pairs: a bigger tree for several
    n = int(rng.integers(2000, 6000 if layout == "32bit" else 3000))
    fast, slow = _twins(m1, layout, n, fill, seed if faults else None)
    for spec in specs:
        keys, values, deletes = _batch(fast, rng, spec)
        v0 = [t.cpu_tree.leaves.version.copy() for t in (fast, slow)]
        got, want = _apply_both(fast, slow, keys, values, deletes)
        _assert_twins(fast, slow, got, want)
        # the scatter stamps each leaf once, the loop once per write,
        # but exactly the same leaves move
        assert np.array_equal(
            _changed(fast.cpu_tree.leaves.version, v0[0]),
            _changed(slow.cpu_tree.leaves.version, v0[1]),
        )
        fast.cpu_tree.check_invariants()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_overwrite_only_batch_writes_every_copy(m1, layout):
    """Repeated overwrites of stored keys: the last write wins, on the
    gapped layout in every gap copy of the pair too."""
    fast, slow = _twins(m1, layout, 3000, 0.6)
    rng = np.random.default_rng(3)
    stored = fast.cpu_tree.stored_keys()
    keys = rng.choice(stored, 2000).astype(fast.spec.dtype)
    values = np.arange(len(keys)).astype(fast.spec.dtype)
    got, want = _apply_both(fast, slow, keys, values, keys[:0])
    _assert_twins(fast, slow, got, want)
    last = {int(k): int(v) for k, v in zip(keys, values)}
    probe = np.asarray(sorted(last), dtype=fast.spec.dtype)
    assert fast.lookup_batch(probe).tolist() == [last[int(k)] for k in probe]


def _empty_then_refill(m1, batched, layout):
    """Delete every key of one interior leaf, then insert fresh keys
    into its old range: the leaf's freed id is reused by a split, and
    neither pool count moves."""
    kwargs = LAYOUTS[layout]
    keys, values = generate_dataset(8192, key_bits=kwargs["key_bits"],
                                    seed=3)
    tree = HBPlusTree(keys, values, machine=m1, **kwargs)
    cpu = tree.cpu_tree
    leaf = int(cpu.leaf_chain()[3])
    victims = cpu._leaf_pairs(leaf)[0]
    counts = (cpu.leaves.count, cpu.upper.count)
    SyncUpdater(tree, batched=batched).apply([], [], victims)
    assert np.array_equal(tree.iseg_buffer.array, tree.pack_i_segment())
    lo, hi = int(victims[0]), int(victims[-1])
    rng = np.random.default_rng(0)
    fresh = np.setdiff1d(
        rng.integers(lo, hi, size=400, dtype=np.uint64).astype(tree.spec.dtype),
        keys,
    )[:37]
    SyncUpdater(tree, batched=batched).apply(fresh, fresh + 1)
    assert (cpu.leaves.count, cpu.upper.count) == counts
    return tree, fresh


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("layout", ["regular", "gapped"])
def test_freed_leaf_reuse_rebuilds_mirror(m1, batched, layout):
    tree, fresh = _empty_then_refill(m1, batched, layout)
    assert np.array_equal(tree.iseg_buffer.array, tree.pack_i_segment())
    assert np.array_equal(tree.lookup_batch(fresh), fresh + 1)
    # the GPU descent over the mirror lands where the CPU tree does
    nodes, lines = tree.cpu_tree.descend_batch(fresh)
    codes = tree.gpu_search_bucket(fresh).codes
    assert np.array_equal(codes, nodes * tree.cpu_tree.fanout + lines)


def test_structure_changes_count_id_reuse():
    """Emptying a leaf and re-splitting into its freed id bump the
    counter though neither pool count moves."""
    keys, values = generate_dataset(4096, seed=8)
    cpu = RegularCpuBPlusTree(keys, values)
    leaf = int(cpu.leaf_chain()[2])
    before = cpu.structure_changes
    for k in cpu._leaf_pairs(leaf)[0].tolist():
        cpu.delete(k)
    assert cpu.structure_changes == before + 1
    assert cpu.leaves._free == [leaf]
    neighbour = int(cpu.leaf_chain()[2])
    lo = int(cpu.leaves.keys[neighbour, 0])
    for k in range(lo - 1, lo - 200, -1):
        if cpu.leaves._free == []:
            break
        cpu.insert(k, 0)
    assert cpu.leaves._free == []
    assert cpu.structure_changes >= before + 2
    cpu.check_invariants()


def test_service_serves_refilled_leaf(m1):
    """Through the service: a 2-shard range-routed service over 8192
    keys, one leaf emptied then refilled with fresh keys; the hybrid
    path must find every fresh key, as the CPU tree does."""
    keys, values = generate_dataset(8192, seed=3)
    svc = IndexService.build(keys, values, ServiceConfig(n_shards=2))
    shard = svc.shards[0]
    cpu = shard.tree.cpu_tree
    victims = cpu._leaf_pairs(int(cpu.leaf_chain()[3]))[0]
    svc.apply_updates([], [], victims)
    lo, hi = int(victims[0]), int(victims[-1])
    rng = np.random.default_rng(0)
    fresh = np.setdiff1d(rng.integers(lo, hi, size=400, dtype=np.uint64),
                         keys)[:37]
    svc.apply_updates(fresh, fresh + np.uint64(1))
    assert np.array_equal(svc.lookup_batch(fresh), fresh + np.uint64(1))
    assert np.array_equal(cpu.lookup_batch(fresh), fresh + np.uint64(1))
    for s in svc.shards:
        assert np.array_equal(s.tree.iseg_buffer.array,
                              s.tree.pack_i_segment())


def _snapshot(tree):
    cpu = tree.cpu_tree
    return (_pool_state(tree), cpu.leaves.version.tolist(),
            vars(tree.link.stats).copy(), tree.iseg_buffer.array.copy(),
            tree.mem.state())


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("batched", [True, False])
def test_rejected_batch_has_no_effect(m1, layout, batched):
    """A sentinel key in the middle of the batch is rejected before
    the calibration or any op touches the tree."""
    kwargs = LAYOUTS[layout]
    keys, values = generate_dataset(3000, key_bits=kwargs["key_bits"], seed=4)
    tree = HBPlusTree(keys, values, machine=m1, fill=0.7, **kwargs)
    stored = tree.cpu_tree.stored_keys()
    keys = np.concatenate([
        stored[:50], make_insert_batch(stored, 30, tree.spec.bits)[0],
        np.asarray([tree.spec.max_value], dtype=tree.spec.dtype),
        stored[50:80],
    ]).astype(tree.spec.dtype)
    before = _snapshot(tree)
    updater = SyncUpdater(tree, batched=batched)
    with pytest.raises(ValueError):
        updater.apply(keys, np.ones(len(keys), tree.spec.dtype), stored[:5])
    with pytest.raises(ValueError):
        updater.apply(stored[:10], np.ones(9, tree.spec.dtype))
    after = _snapshot(tree)
    assert after[:3] == before[:3]
    assert np.array_equal(after[3], before[3])
    assert after[4] == before[4]


def test_service_rejects_sentinel_before_any_shard(m1):
    keys, values = generate_dataset(8192, seed=3)
    svc = IndexService.build(keys, values, ServiceConfig(n_shards=2))
    sentinel = np.uint64(np.iinfo(np.uint64).max)
    # shard 0's key first, the sentinel routes to the last shard
    batch = np.asarray([keys.min(), sentinel], dtype=np.uint64)
    with pytest.raises(ValueError):
        svc.apply_updates(batch, np.asarray([7, 7], dtype=np.uint64))
    assert int(svc.lookup_batch([keys.min()])[0]) == int(
        values[np.argmin(keys)]
    )
