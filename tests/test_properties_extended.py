"""Second wave of property-based tests: CSS-tree, merge updates,
framework split-equivalence, pipeline-simulator invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import BucketStrategy, PipelineSimulator
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.platform.costmodel import BucketCosts

SLOW = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

key_lists = st.lists(
    st.integers(min_value=0, max_value=2**62),
    min_size=1, max_size=150, unique=True,
)


class TestCssProperties:
    @given(keys=key_lists)
    @SLOW
    def test_css_is_faithful_map(self, keys):
        values = [k % 811 for k in keys]
        tree = CssTree(keys, values)
        model = dict(zip(keys, values))
        for k in keys:
            assert tree.lookup(k, instrument=False) == model[k]

    @given(keys=key_lists, lo=st.integers(0, 2**62),
           hi=st.integers(0, 2**62))
    @SLOW
    def test_css_range_matches_filter(self, keys, lo, hi):
        tree = CssTree(keys, keys)
        lo, hi = min(lo, hi), max(lo, hi)
        got = tree.range_query(lo, hi)
        assert [k for k, _v in got] == sorted(
            k for k in keys if lo <= k <= hi
        )

    @given(keys=key_lists, probe=st.integers(0, 2**62))
    @SLOW
    def test_css_agrees_with_btree(self, keys, probe):
        css = CssTree(keys, keys)
        bt = ImplicitCpuBPlusTree(keys, keys)
        assert (css.lookup(probe, instrument=False)
                == bt.lookup(probe, instrument=False))


class TestMergeProperties:
    @given(
        base=key_lists,
        upserts=st.lists(
            st.tuples(st.integers(0, 2**62), st.integers(0, 1000)),
            max_size=60,
        ),
        deletes=st.lists(st.integers(0, 2**62), max_size=30),
    )
    @SLOW
    def test_merge_update_matches_dict_model(self, base, upserts, deletes):
        tree = ImplicitCpuBPlusTree(base, base)
        # semantics (SyncUpdater's): upserts insert/overwrite in arrival
        # order, so the last write to a key wins; deletes apply after
        # them, so a key in both batches ends up deleted
        model = dict(zip(base, base))
        for k, v in upserts:
            model[k] = v
        for k in deletes:
            model.pop(k, None)
        up_keys = [k for k, _v in upserts]
        up_vals = [v for _k, v in upserts]
        try:
            tree.merge_update(up_keys, up_vals, deletes)
        except ValueError:
            assert not model  # only an emptying merge may raise
            return
        assert dict(tree.items()) == model

    @given(base=key_lists)
    @SLOW
    def test_merge_noop_preserves_contents(self, base):
        tree = ImplicitCpuBPlusTree(base, base)
        before = tree.items()
        tree.merge_update()
        assert tree.items() == before


class TestPipelineProperties:
    costs = st.builds(
        BucketCosts,
        t1=st.floats(1e3, 1e5),
        t2=st.floats(1e3, 5e5),
        t3=st.floats(1e3, 1e5),
        t4=st.floats(1e3, 5e5),
    )

    @given(c=costs)
    @SLOW
    def test_strategy_ordering_always_holds(self, c):
        """Overlap can never hurt steady-state throughput."""
        def qps(strategy):
            sim = PipelineSimulator(c, strategy, 16384)
            return 16384 * 1e9 / sim.run(48).steady_state_bucket_ns

        seq = qps(BucketStrategy.SEQUENTIAL)
        pipe = qps(BucketStrategy.PIPELINED)
        db = qps(BucketStrategy.DOUBLE_BUFFERED)
        assert pipe >= seq * 0.999
        assert db >= pipe * 0.999

    @given(c=costs, n=st.integers(1, 40))
    @SLOW
    def test_timelines_always_monotone(self, c, n):
        run = PipelineSimulator(c, BucketStrategy.DOUBLE_BUFFERED,
                                16384).run(n)
        for t in run.timelines:
            assert (t.t1_start <= t.t1_end <= t.t2_end
                    <= t.t3_end <= t.t4_end)
        completions = [t.completion for t in run.timelines]
        assert completions == sorted(completions)

    @given(c=costs)
    @SLOW
    def test_throughput_never_exceeds_bottleneck(self, c):
        sim = PipelineSimulator(c, BucketStrategy.DOUBLE_BUFFERED, 16384)
        qps = 16384 * 1e9 / sim.run(48).steady_state_bucket_ns
        bottleneck = 16384 * 1e9 / max(c.t2, c.t4)
        assert qps <= bottleneck * 1.001

    @given(c=costs, p=st.floats(1.0, 100.0))
    @SLOW
    def test_percentiles_monotone(self, c, p):
        run = PipelineSimulator(c, BucketStrategy.PIPELINED, 16384).run(16)
        lo = run.latency_percentile_ns(min(p, 50.0))
        hi = run.latency_percentile_ns(max(p, 50.0))
        assert lo <= hi
