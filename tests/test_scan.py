"""The batched range-scan path (PR 9).

Covers, in one place, what DESIGN.md §15 promises:

* the vectorised leaf-chain scan is result- AND modeled-counter-
  identical to the scalar reference walk, full path and leaf stage,
  on every leaf layout (regular, gapped, half-full gapped, implicit);
* every engine entry point (``BatchingEngine.run_scans`` and
  ``ResilientHBPlusTree.run_scans`` with and without an injected
  fault plan) is bit-identical to the sequential ``range_query`` walk;
* scans serialize against quiesce/snapshot windows through the shared
  serve lock, in both directions;
* ``bucket_costs`` samples its workload without replacement whenever
  the tree can fill the bucket (the PR-9 sampling regression);
* property-based: all three layouts agree with each other and with a
  sorted reference model on arbitrary spans;
* a bucket of scans served in one pass (``scan_batch_from``) is
  identical to the per-scan loop — rows, every modeled counter and the
  whole simulated memory state — on all four leaf layouts, and the
  service's vectorised scan scatter is identical to the per-(scan,
  shard) loop it replaced.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.memsim.mainmem import MemorySystem
from repro.platform.configs import machine_m1
from repro.service import IndexService, RangeRouter, ServiceConfig
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_scan_queries


@pytest.fixture(scope="module")
def data():
    return generate_dataset(4096, seed=17)


def _spans(keys, n, width, seed=3):
    sk = np.sort(np.asarray(keys))
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(sk) - width, size=n)
    return [(int(sk[s]), int(sk[s + width - 1])) for s in starts]


def _edge_spans(keys):
    """The boundary shapes the scan loops special-case."""
    sk = np.sort(np.asarray(keys))
    return [
        (int(sk[0]), int(sk[0])),              # single first key
        (int(sk[-1]), int(sk[-1])),            # single last key
        (int(sk[-1]), int(sk[-1]) + 4096),     # hi past the last leaf
        (0, int(sk[2])),                       # lo before the first key
        (int(sk[100]), int(sk[50])),           # lo > hi
        (int(sk[7]) + 1, int(sk[7]) + 1) if sk[7] + 1 < sk[8]
        else (int(sk[7]), int(sk[7])),         # span between stored keys
    ]


def _counter_delta(tree, fn):
    before = dict(vars(tree.mem.counters))
    out = fn()
    after = vars(tree.mem.counters)
    return out, {k: v - before[k] for k, v in after.items()}


TREE_VARIANTS = [
    ("regular", dict()),
    ("gapped", dict(gapped=True)),
    ("gapped-half", dict(gapped=True, fill=0.5)),
]


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("name,kwargs", TREE_VARIANTS,
                             ids=[v[0] for v in TREE_VARIANTS])
    def test_full_path_results_and_counters(self, data, m1, name, kwargs):
        keys, values = data
        cases = _spans(keys, 24, 80) + _edge_spans(keys)
        ts = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        tv = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        rs, ds = _counter_delta(
            ts, lambda: [ts.range_query_scalar(lo, hi) for lo, hi in cases]
        )
        rv, dv = _counter_delta(
            tv, lambda: [tv.range_query(lo, hi) for lo, hi in cases]
        )
        assert rs == rv
        assert ds == dv

    def test_full_path_implicit(self, data, m1):
        keys, values = data
        cases = _spans(keys, 24, 80) + _edge_spans(keys)
        ts = ImplicitHBPlusTree(keys, values, machine=m1).cpu_tree
        tv = ImplicitHBPlusTree(keys, values, machine=m1).cpu_tree
        rs, ds = _counter_delta(
            ts, lambda: [ts.range_query_scalar(lo, hi) for lo, hi in cases]
        )
        rv, dv = _counter_delta(
            tv, lambda: [tv.range_query(lo, hi) for lo, hi in cases]
        )
        assert rs == rv
        assert ds == dv

    @pytest.mark.parametrize("name,kwargs", TREE_VARIANTS,
                             ids=[v[0] for v in TREE_VARIANTS])
    def test_leaf_stage_from_exact_and_early_leaves(self, data, m1,
                                                    name, kwargs):
        """``range_scan_from_scalar`` vs ``range_scan_from``, both from
        the exact descend leaf and from the leaf before it (the GPU
        bucket stage may hand the walk an at-or-before start leaf)."""
        keys, values = data
        cases = _spans(keys, 16, 200) + _edge_spans(keys)
        ts = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        tv = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        triples = []
        for lo, hi in cases:
            node = ts._descend(int(lo), instrument=False)[0]
            triples.append((node, lo, hi))
            prev = int(ts.leaves.prev[node])
            if prev >= 0:
                triples.append((prev, lo, hi))
        rs, ds = _counter_delta(ts, lambda: [
            ts.range_scan_from_scalar(n, lo, hi) for n, lo, hi in triples
        ])
        rv, dv = _counter_delta(tv, lambda: [
            tv.range_scan_from(n, lo, hi) for n, lo, hi in triples
        ])
        assert rs == rv
        assert ds == dv

    def test_leaf_stage_matches_full_path_results(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1).cpu_tree
        for lo, hi in _spans(keys, 8, 120, seed=9):
            node = tree._descend(int(lo), instrument=False)[0]
            assert tree.range_scan_from(node, lo, hi) \
                == tree.range_query(lo, hi)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("cls", [HBPlusTree, ImplicitHBPlusTree],
                             ids=["regular", "implicit"])
    def test_batching_matches_walk(self, data, m1, cls):
        keys, values = data
        los, his = make_scan_queries(keys, 96, 48, dist="geometric",
                                     seed=5)
        ref_tree = cls(keys, values, machine=m1)
        ref = [ref_tree.range_query(int(lo), int(hi))
               for lo, hi in zip(los.tolist(), his.tolist())]
        batch = BatchingEngine(cls(keys, values, machine=m1),
                               bucket_size=32)
        assert batch.run_scans(los, his) == ref
        assert batch.stats.scan_tuples == sum(len(r) for r in ref)

    def test_resilient_matches_walk_under_faults(self, data, m1):
        keys, values = data
        los, his = make_scan_queries(keys, 64, 32, dist="geometric",
                                     seed=6)
        ref_tree = HBPlusTree(keys, values, machine=m1)
        ref = [ref_tree.range_query(int(lo), int(hi))
               for lo, hi in zip(los.tolist(), his.tolist())]
        plain = ResilientHBPlusTree(HBPlusTree(keys, values, machine=m1))
        assert plain.run_scans(los, his) == ref
        faulted_tree = HBPlusTree(keys, values, machine=m1)
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=23))
        faulted_tree.attach_injector(injector)
        faulted = ResilientHBPlusTree(faulted_tree, injector=injector)
        assert faulted.run_scans(los, his) == ref
        assert faulted.stats.faults_handled > 0


class TestServeLockSerialization:
    """Scans and quiesce/snapshot windows exclude each other through
    the tree's shared serve lock — in both directions."""

    @pytest.mark.concurrency
    def test_scan_waits_for_quiesce_window(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        lo, hi = _spans(keys, 1, 64)[0]
        ref = tree.range_query(lo, hi)
        done = threading.Event()
        out = []

        def scanner():
            out.append(tree.range_query(lo, hi))
            done.set()

        with tree.serve_lock:  # an open quiesce/snapshot window
            worker = threading.Thread(target=scanner)
            worker.start()
            # the scan must not slip inside the window
            assert not done.wait(0.2)
        worker.join(5)
        assert done.is_set()
        assert out[0] == ref

    @pytest.mark.concurrency
    def test_quiesce_waits_for_inflight_scan(self, data, m1,
                                             monkeypatch):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        engine = BatchingEngine(tree)
        lo, hi = _spans(keys, 1, 64)[0]
        inside = threading.Event()
        release = threading.Event()
        real = tree.cpu_tree.range_query

        def held_open(lo_, hi_):
            inside.set()
            release.wait(5)
            return real(lo_, hi_)

        monkeypatch.setattr(tree.cpu_tree, "range_query", held_open)
        out = []
        scanner = threading.Thread(
            target=lambda: out.append(tree.range_query(lo, hi))
        )
        scanner.start()
        assert inside.wait(5)
        quiesced = threading.Event()

        def snapshot():
            with engine.quiesce():
                pass
            quiesced.set()

        snapshotter = threading.Thread(target=snapshot)
        snapshotter.start()
        # the snapshot window must wait for the scan to drain
        assert not quiesced.wait(0.2)
        release.set()
        scanner.join(5)
        snapshotter.join(5)
        assert quiesced.is_set()
        monkeypatch.undo()
        assert out[0] == tree.range_query(lo, hi)


class TestBucketCostsSampling:
    def test_sample_drawn_without_replacement(self, data, m1,
                                              monkeypatch):
        """With >= 4096 stored keys the sampled bucket must be all
        distinct: duplicate draws inflate the sample's unique fraction
        and bias the sorted-pipeline gain the planner commits (the
        PR-9 sampling regression)."""
        import repro.core.batching as batching_mod

        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        assert len(tree.cpu_tree.stored_keys()) >= 4096
        captured = {}
        real_plan = batching_mod.plan_bucket

        def spy(sample, dtype=None):
            captured["n"] = len(sample)
            captured["unique"] = len(np.unique(sample))
            return real_plan(sample, dtype=dtype)

        monkeypatch.setattr(batching_mod, "plan_bucket", spy)
        tree.bucket_costs(sort_batches=True)
        assert captured["n"] == 4096
        assert captured["unique"] == captured["n"]


# -- property-based: the three layouts agree with a sorted model ------

_KEYS = st.lists(st.integers(min_value=0, max_value=1 << 48),
                 min_size=2, max_size=220, unique=True)


@settings(max_examples=30, deadline=None)
@given(keys=_KEYS, data=st.data())
def test_layouts_agree_with_sorted_model(keys, data):
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    values = np.arange(1, len(keys) + 1, dtype=np.uint64)
    lo = data.draw(st.one_of(
        st.sampled_from(keys.tolist()),
        st.integers(min_value=0, max_value=1 << 48),
    ), label="lo")
    hi = data.draw(st.one_of(
        st.sampled_from(keys.tolist()),
        st.integers(min_value=0, max_value=1 << 48),
    ), label="hi")
    lo, hi = int(lo), int(hi)
    model = [
        (int(k), int(v)) for k, v in zip(keys.tolist(), values.tolist())
        if lo <= k <= hi
    ]
    trees = [
        RegularCpuBPlusTree(keys, values),
        GappedCpuBPlusTree(keys, values, fill=0.6),
        ImplicitCpuBPlusTree(keys, values),
    ]
    for tree in trees:
        assert tree.range_query(lo, hi) == model
        assert tree.range_query_scalar(lo, hi) == model


@settings(max_examples=15, deadline=None)
@given(keys=_KEYS)
def test_leaf_stage_twins_agree_on_any_start_leaf(keys):
    """``range_scan_from`` ≡ ``range_scan_from_scalar`` from *every*
    leaf in the chain, not just the descend leaf."""
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    values = np.arange(1, len(keys) + 1, dtype=np.uint64)
    lo, hi = int(keys[len(keys) // 3]), int(keys[2 * len(keys) // 3])
    for cls, kwargs in ((RegularCpuBPlusTree, {}),
                        (GappedCpuBPlusTree, {"fill": 0.5})):
        tree = cls(keys, values, **kwargs)
        for node in tree.leaf_chain().tolist():
            assert tree.range_scan_from(node, lo, hi) \
                == tree.range_scan_from_scalar(node, lo, hi)


def test_empty_and_single_leaf_trees():
    empty_keys = np.asarray([], dtype=np.uint64)
    for cls in (RegularCpuBPlusTree, GappedCpuBPlusTree):
        tree = cls(empty_keys, empty_keys)
        assert tree.range_query(0, 1 << 40) == []
        assert tree.range_query_scalar(0, 1 << 40) == []
    keys = np.asarray([10, 20, 30], dtype=np.uint64)
    values = np.asarray([1, 2, 3], dtype=np.uint64)
    for cls in (RegularCpuBPlusTree, GappedCpuBPlusTree,
                ImplicitCpuBPlusTree):
        tree = cls(keys, values)
        assert tree.range_query(10, 30) == [(10, 1), (20, 2), (30, 3)]
        assert tree.range_query(15, 25) == [(20, 2)]
        assert tree.range_query(31, 40) == []
        assert tree.range_query(25, 15) == []


# -- bucket-wide scans: one pass ≡ the per-scan loop ------------------


def _layout_tree(layout, keys, values):
    """A CPU tree of ``layout`` with its own simulated memory."""
    mem = MemorySystem.from_spec(machine_m1().cpu)
    if layout == "implicit64":
        return ImplicitCpuBPlusTree(keys, values, key_bits=64, mem=mem)
    if layout == "implicit32":
        return ImplicitCpuBPlusTree(keys, values, key_bits=32, mem=mem)
    if layout == "regular":
        return RegularCpuBPlusTree(keys, values, mem=mem)
    return GappedCpuBPlusTree(keys, values, fill=0.6, mem=mem)


LAYOUTS = ["implicit64", "implicit32", "regular", "gapped"]


def _leaf_order(tree):
    """Start leaves in key order (implicit index / regular chain)."""
    if isinstance(tree, ImplicitCpuBPlusTree):
        return list(range(tree.num_leaves))
    return tree.leaf_chain().tolist()


def _true_leaf(tree, lo):
    if isinstance(tree, ImplicitCpuBPlusTree):
        return tree._descend(int(lo), instrument=False)
    return tree._descend(int(lo), instrument=False)[0]


def _assert_batch_matches_loop(layout, keys, values, starts, los, his):
    """Three twins serve the same bucket: ``scan_batch_from`` once, a
    ``range_scan_from`` loop, and (regular layouts) the scalar walk."""
    batch = _layout_tree(layout, keys, values)
    loop = _layout_tree(layout, keys, values)
    got = batch.scan_batch_from(np.asarray(starts, dtype=np.int64),
                                np.asarray(los, dtype=batch.spec.dtype),
                                np.asarray(his, dtype=batch.spec.dtype))
    want = [loop.range_scan_from(s, lo, hi)
            for s, lo, hi in zip(starts, los, his)]
    assert got == want
    assert batch.mem.counters.queries == loop.mem.counters.queries \
        == sum(lo <= hi for lo, hi in zip(los, his))
    assert batch.mem.state() == loop.mem.state()
    if not isinstance(batch, ImplicitCpuBPlusTree):
        scalar = _layout_tree(layout, keys, values)
        assert [scalar.range_scan_from_scalar(s, lo, hi)
                for s, lo, hi in zip(starts, los, his)] == got
        assert scalar.mem.state() == batch.mem.state()


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 300),
       data=st.data())
def test_scan_batch_matches_per_scan_loop(layout, n, data):
    """Any bucket — start leaves at, before or after the true leaf,
    repeated starts, ``lo > hi``, empty spans, spans off the last
    leaf — over any tree size, a one-leaf tree and partial last leaves
    included."""
    bits = 32 if layout == "implicit32" else 64
    top = (1 << (bits - 1)) if bits == 32 else (1 << 48)
    keys = np.asarray(sorted(data.draw(st.lists(
        st.integers(0, top), min_size=n, max_size=n, unique=True),
        label="keys")), dtype=np.uint64 if bits == 64 else np.uint32)
    values = np.arange(1, n + 1, dtype=keys.dtype)
    probe = _layout_tree(layout, keys, values)
    order = _leaf_order(probe)
    bound = st.one_of(st.sampled_from(keys.tolist()),
                      st.integers(0, top + 10))
    scans = data.draw(st.lists(st.tuples(bound, bound, st.one_of(
        st.just(0), st.integers(0, 3), st.integers(-len(order), -1),
    )), min_size=1, max_size=24), label="scans")
    starts, los, his = [], [], []
    for lo, hi, back in scans:
        if back < 0:   # an arbitrary leaf, possibly after the true one
            start = order[back]
        else:          # the true leaf, or ``back`` leaves before it
            true = order.index(_true_leaf(probe, lo))
            start = order[max(0, true - back)]
        starts.append(start)
        los.append(lo)
        his.append(hi)
    _assert_batch_matches_loop(layout, keys, values, starts, los, his)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_scan_batch_edge_buckets(layout):
    """The named edge shapes, deterministically: ``lo > hi``, empty
    results, early starts, scans off the last leaf of a partial last
    leaf, repeated starts, and a one-leaf tree."""
    dtype = np.uint32 if layout == "implicit32" else np.uint64
    for n in (1003, 3):   # partial last leaf; one leaf
        keys = np.arange(n, dtype=dtype) * 10 + 10
        values = np.arange(n, dtype=dtype) + 1
        probe = _layout_tree(layout, keys, values)
        order = _leaf_order(probe)
        last = int(keys[-1])
        first_leaf, last_leaf = order[0], order[-1]
        cases = [
            (first_leaf, 500, 100),            # lo > hi
            (first_leaf, 15, 19),              # empty: between keys
            (first_leaf, 10, last + 1000),     # whole tree, off the end
            (last_leaf, last, last + 1000),    # off the last leaf
            (last_leaf, last + 1, last + 9),   # past every key
            (first_leaf, last // 2, last // 2 + 300),  # early start
            (first_leaf, last // 2, last // 2 + 300),  # repeated start
            (last_leaf, 10, 40),               # start after the span
        ]
        starts, los, his = zip(*cases)
        _assert_batch_matches_loop(layout, keys, values, list(starts),
                                   list(los), list(his))


def test_scan_batch_on_empty_regular_tree():
    for cls in (RegularCpuBPlusTree, GappedCpuBPlusTree):
        mem = MemorySystem.from_spec(machine_m1().cpu)
        tree = cls(np.zeros(0, np.uint64), np.zeros(0, np.uint64), mem=mem)
        before = mem.state()
        start = int(tree.leaf_chain()[0]) if len(tree.leaf_chain()) else 0
        assert tree.scan_batch_from([start, start], [0, 5], [1 << 40, 1]) \
            == [[], []]
        assert mem.state() == before


# -- the service's vectorised scan scatter ≡ the per-scan loop --------


def _scatter_loop(svc, los, his):
    """The per-(scan, shard) ``shard_span`` loop ``run_scans`` used
    before its scatter was vectorised — the oracle."""
    router, shards = svc._table
    parts = [[] for _ in range(len(los))]
    for pos in range(router.n_shards):
        idx, plos, phis = [], [], []
        for i in range(len(los)):
            first, last = router.shard_span(int(los[i]), int(his[i]))
            if not first <= pos <= last:
                continue
            lo, hi = int(los[i]), int(his[i])
            if isinstance(router, RangeRouter):
                slo, shi = router.shard_bounds(pos)
                lo, hi = max(lo, slo), min(hi, shi)
            idx.append(i)
            plos.append(lo)
            phis.append(hi)
        if not idx:
            continue
        for i, r in zip(idx, shards[pos].run_scans(plos, phis)):
            parts[i].append(r)
    if isinstance(router, RangeRouter):
        return [sum(p, []) for p in parts]
    return [sorted(row for p in parts_i for row in p) for parts_i in parts]


def _service_state(svc):
    """Every shard's scan count, engine stats (deduplicated start keys,
    modeled transactions) and simulated CPU memory state."""
    return [(s.stats().scans, vars(s.engine.stats), s.tree.mem.state())
            for s in svc.shards]


@pytest.mark.parametrize("router", ["range", "hash"])
@pytest.mark.parametrize("kind", ["hb-implicit", "hb-regular"])
def test_service_scatter_matches_per_scan_loop(data, router, kind):
    keys, values = data
    sk = np.sort(keys)
    cfg = ServiceConfig(n_shards=4, router=router, kind=kind)
    vec = IndexService.build(keys, values, cfg)
    old = IndexService.build(keys, values, cfg)
    rng = np.random.default_rng(31)
    starts = rng.integers(0, len(sk) - 1200, size=40)
    los = [int(sk[s]) for s in starts]
    his = [int(sk[s + w]) for s, w in zip(starts, rng.integers(0, 1200, 40))]
    top = int(sk[-1])
    los += [int(sk[0]), 0, top + 1, int(sk[900]), int(sk[5]) + 1]
    his += [top, int(sk[0]) - 1, top + 500, int(sk[100]), int(sk[5]) + 1]
    # whole keyspace (every shard), below every key, above every key,
    # lo > hi, and a one-key gap between stored keys
    if router == "range":
        for svc in (vec, old):
            svc.split_shard(1)
    assert vec.run_scans(los, his) == _scatter_loop(old, los, his)
    assert _service_state(vec) == _service_state(old)
    assert vec.run_scans([], []) == []
