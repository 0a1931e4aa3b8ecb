"""The write path's batched profiling against its scalar oracles.

Update-cost calibration (``_measure_update_cost_ns``) and the regular
adapter's ``level_profiles`` replay their instrumented line streams in
one batch; the plain (uninstrumented) descent picks its slot with one
``searchsorted``.  Each must be indistinguishable from the scalar path
it replaces: the same floats, the same modeled counters and the same
simulated cache / TLB / prefetcher state afterwards.
"""

import numpy as np
import pytest

from repro.core import update as update_mod
from repro.core.framework import RegularHBAdapter
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.update import SyncUpdater
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.cpu.node_search import (
    NodeSearchAlgorithm,
    get_search_function,
    search_costs,
    search_leaf_line,
)
from repro.memsim.mainmem import MemorySystem
from repro.memsim.metrics import AccessCounters
from repro.platform.costmodel import CpuQueryProfile
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_insert_batch


TREES = [
    pytest.param(dict(key_bits=64), id="regular"),
    pytest.param(dict(key_bits=64, gapped=True), id="gapped"),
    pytest.param(dict(key_bits=32), id="32bit"),
]


def _hybrid(m1, kwargs):
    """A hybrid tree built deterministically: two calls give twins
    (the tree holds a lock, so it cannot be deep-copied)."""
    keys, values = generate_dataset(20000, key_bits=kwargs["key_bits"],
                                    seed=5)
    return HBPlusTree(keys, values, machine=m1, fill=0.7, **kwargs), keys


def _sample(tree, keys, n=400, seed=9):
    """Stored keys mixed with keys absent from the tree, plus both
    ends of the domain."""
    rng = np.random.default_rng(seed)
    spec = tree.spec
    absent = rng.integers(0, spec.max_value, size=n // 2, dtype=np.uint64)
    edge = np.asarray([0, spec.max_value - 1], dtype=np.uint64)
    return np.concatenate([
        rng.choice(keys, size=n // 2), absent.astype(spec.dtype),
        edge.astype(spec.dtype),
    ]).astype(spec.dtype)


def _level_profiles_scalar(adapter, sample):
    """The per-line oracle of ``RegularHBAdapter.level_profiles``: a
    scalar descent, then one ``_touch_inner`` / ``_touch_leaf_line``
    call per query and level."""
    tree = adapter.tree.cpu_tree
    mem = adapter.tree.mem
    kpl = adapter.spec.keys_per_line
    tree._ensure_segments()
    mem.reset_counters()
    paths = [tree._descend(int(k), instrument=False)[2] for k in sample]
    profiles = []
    for depth in range(tree.height):
        before = mem.counters.cache_misses
        for path in paths:
            level, node, slot = path[depth]
            tree._touch_inner(level, node, slot // kpl)
        profiles.append(CpuQueryProfile(
            lines=3.0, misses=(mem.counters.cache_misses - before) / len(sample),
            tlb_small=0.0, tlb_huge=0.0, node_searches=2.0,
        ))
    before = mem.counters.cache_misses
    for path in paths:
        _level, node, slot = path[-1]
        tree._touch_leaf_line(node, slot)
    leaf = CpuQueryProfile(
        lines=1.0, misses=(mem.counters.cache_misses - before) / len(sample),
        tlb_small=0.5, tlb_huge=0.0, node_searches=1.0,
    )
    return profiles, leaf


@pytest.mark.parametrize("kwargs", TREES)
class TestReplayMatchesScalarOracle:
    def test_update_cost(self, m1, kwargs):
        tree, keys = _hybrid(m1, kwargs)
        twin, _keys = _hybrid(m1, kwargs)
        # warm both hierarchies so carried-over state matters
        for t in (tree, twin):
            t.cpu_tree.lookup_batch_instrumented(keys[:64])
        sample = _sample(tree, keys)
        for _round in range(2):
            fast = update_mod._measure_update_cost_ns(tree, sample)
            slow = update_mod._measure_update_cost_scalar_ns(twin, sample)
            assert fast == slow
            assert tree.mem.state() == twin.mem.state()

    def test_level_profiles(self, m1, kwargs):
        tree, keys = _hybrid(m1, kwargs)
        twin, _keys = _hybrid(m1, kwargs)
        sample = _sample(tree, keys, seed=10)
        for _round in range(2):
            fast = RegularHBAdapter(tree).level_profiles(sample)
            slow = _level_profiles_scalar(RegularHBAdapter(twin), sample)
            assert fast == slow
            assert tree.mem.state() == twin.mem.state()

    def test_batched_lookup_values(self, m1, kwargs):
        tree, keys = _hybrid(m1, kwargs)
        sample = _sample(tree, keys, seed=11)
        out = tree.cpu_tree.lookup_batch_instrumented(sample)
        assert np.array_equal(out, tree.cpu_tree.lookup_batch(sample))

    def test_sync_update_batch_identical(self, m1, kwargs, monkeypatch):
        tree, keys = _hybrid(m1, kwargs)
        upk, upv = make_insert_batch(keys, 900, kwargs["key_bits"], seed=3)
        twin, _keys = _hybrid(m1, kwargs)
        fast = SyncUpdater(tree).apply(upk, upv, deletes=keys[:16])
        monkeypatch.setattr(update_mod, "_measure_update_cost_ns",
                            update_mod._measure_update_cost_scalar_ns)
        slow = SyncUpdater(twin).apply(upk, upv, deletes=keys[:16])
        assert fast == slow
        assert vars(tree.link.stats) == vars(twin.link.stats)
        assert np.array_equal(tree.iseg_buffer.array, twin.iseg_buffer.array)
        assert tree.mem.state() == twin.mem.state()


def test_empty_batched_lookup_touches_nothing(m1):
    tree, _keys = _hybrid(m1, dict(key_bits=64))
    state = tree.mem.state()
    out = tree.cpu_tree.lookup_batch_instrumented(np.zeros(0, np.uint64))
    assert len(out) == 0
    assert tree.mem.state() == state


@pytest.mark.parametrize("cls", [RegularCpuBPlusTree, GappedCpuBPlusTree])
@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("algorithm", list(NodeSearchAlgorithm))
def test_plain_slot_equals_emulated_search(cls, bits, algorithm):
    """The uninstrumented ``searchsorted`` slot is the slot the node
    search emulation picks — below the minimum, above the maximum, on
    every separator and its neighbours, on part-filled nodes."""
    keys, values = generate_dataset(3000, key_bits=bits, seed=21)
    # fill < 1 leaves every last-level node part-filled
    tree = cls(keys, values, key_bits=bits, algorithm=algorithm,
               mem=MemorySystem(), fill=0.6)
    top = tree.spec.max_value
    rng = np.random.default_rng(4)
    probes = [0, 1, int(keys.min()), int(keys.max()), int(keys.max()) + 1,
              top - 1, top]
    probes += rng.integers(0, top, size=40, dtype=np.uint64).tolist()
    for pool in (tree.upper, tree.last):
        for node in range(pool.count):
            size = int(pool.size[node])
            seps = pool.keys[node, :size].tolist()
            mine = probes + seps + [s - 1 for s in seps if s] + [
                s + 1 for s in seps if s < top
            ]
            for key in mine:
                want = tree._search_inner(pool, node, key, AccessCounters())
                assert tree._search_inner(pool, node, key) == want


@pytest.mark.parametrize("cls", [RegularCpuBPlusTree, GappedCpuBPlusTree])
def test_plain_descent_casts_wide_keys(cls):
    """A Python int above 2**53 must be compared in uint64, not as a
    rounded float64."""
    base = 2**60
    keys = np.asarray([base + 2 * i for i in range(5000)], dtype=np.uint64)
    tree = cls(keys, keys, mem=MemorySystem(), fill=0.5)
    for key in [base + 2 * i + 1 for i in range(0, 5000, 97)]:
        node, line, _ = tree._descend(key, instrument=False)
        inst = tree._descend(key, instrument=True)
        assert (node, line) == inst[:2]


@pytest.mark.parametrize("kwargs", TREES)
def test_stored_keys_match_items_walk(m1, kwargs):
    """Reprofile and calibration sample from ``stored_keys()``; it must
    give the ``items()`` walk's order and dtype, after splits and
    deletes, so ``rng.choice`` draws the same sample."""
    tree, keys = _hybrid(m1, kwargs)
    upk, upv = make_insert_batch(keys, 900, kwargs["key_bits"], seed=4)
    SyncUpdater(tree).apply(upk, upv, deletes=keys[::50])
    walk = np.asarray([k for k, _v in tree.cpu_tree.items()],
                      dtype=tree.spec.dtype)
    got = tree.cpu_tree.stored_keys()
    assert got.dtype == walk.dtype
    assert np.array_equal(got, walk)


@pytest.mark.parametrize("bits", [64, 32])
def test_implicit_stored_keys_match_items_walk(m1, bits):
    keys, values = generate_dataset(5000, key_bits=bits, seed=6)
    tree = ImplicitHBPlusTree(keys, values, machine=m1, key_bits=bits)
    walk = np.asarray([k for k, _v in tree.cpu_tree.items()],
                      dtype=tree.spec.dtype)
    got = tree.cpu_tree.stored_keys()
    assert got.dtype == walk.dtype
    assert np.array_equal(got, walk)


@pytest.mark.parametrize("algorithm", list(NodeSearchAlgorithm))
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("leaf", [False, True])
def test_search_costs_match_scalar_charges(algorithm, n, leaf):
    """``search_costs`` charges what the scalar searches charge, on
    full and sentinel-padded lines, for queries below, on, between
    and above the keys."""
    rng = np.random.default_rng(n)
    width = n // 2 if leaf else n  # a leaf line holds P_L keys
    lines = [np.sort(rng.choice(1000, size=width, replace=False))
             for _ in range(20)]
    lines.append(np.concatenate([np.arange(3), np.full(width - 3, 2**32 - 1)]))
    scalar = (
        (lambda row, q, c: search_leaf_line(row, q, c, algorithm)) if leaf
        else get_search_function(algorithm)
    )
    for row in lines:
        queries = [0, int(row[0]), int(row[-1]), int(row[-1]) + 1, 2**32 - 1]
        queries += [int(x) + d for x in row for d in (-1, 0, 1)]
        queries = [q for q in queries if 0 <= q < 2**32]
        want = AccessCounters()
        ks = [scalar(row, q, want) for q in queries]
        comparisons, simd_ops = search_costs(algorithm, np.asarray(ks), width,
                                             leaf=leaf)
        assert (comparisons, simd_ops) == (want.key_comparisons,
                                           want.simd_ops)


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("algorithm", list(NodeSearchAlgorithm))
def test_batched_lookup_matches_scalar_loop(bits, algorithm):
    """Every node-search algorithm and key width: values, counters and
    memory state equal a ``lookup(k, instrument=True)`` loop."""
    keys, values = generate_dataset(6000, key_bits=bits, seed=12)
    trees = [RegularCpuBPlusTree(keys, values, key_bits=bits,
                                 algorithm=algorithm, fill=0.6,
                                 mem=MemorySystem(llc_bytes=1 << 15))
             for _ in range(2)]
    top = trees[0].spec.max_value
    rng = np.random.default_rng(2)
    sample = np.concatenate([
        rng.choice(keys, size=150),
        rng.integers(0, top, size=150, dtype=np.uint64).astype(keys.dtype),
        np.asarray([0, top - 1], dtype=keys.dtype),
    ])
    out = trees[0].lookup_batch_instrumented(sample)
    ref = [trees[1].lookup(int(k), instrument=True) for k in sample]
    assert out.tolist() == [top if r is None else r for r in ref]
    assert trees[0].mem.state() == trees[1].mem.state()
