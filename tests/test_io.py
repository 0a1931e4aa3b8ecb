"""Index persistence round trips."""

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.io import load_index, save_index
from repro.memsim.mainmem import MemorySystem
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def data():
    return generate_dataset(3000, seed=55)


class TestRoundTrips:
    def test_implicit_cpu(self, data, tmp_path):
        keys, values = data
        tree = ImplicitCpuBPlusTree(keys, values, fanout=8)
        path = save_index(tree, tmp_path / "idx")
        loaded = load_index(path)
        assert isinstance(loaded, ImplicitCpuBPlusTree)
        assert loaded.fanout == 8
        assert np.array_equal(loaded.lookup_batch(keys), values)

    def test_regular_cpu(self, data, tmp_path):
        keys, values = data
        tree = RegularCpuBPlusTree(keys, values)
        # mutate before saving: dynamic state must round trip by content
        tree.insert(int(keys.max()) + 10, 7)
        path = save_index(tree, tmp_path / "idx.npz")
        loaded = load_index(path)
        assert loaded.lookup(int(keys.max()) + 10) == 7
        assert np.array_equal(loaded.lookup_batch(keys), values)
        loaded.check_invariants()

    def test_css(self, data, tmp_path):
        keys, values = data
        path = save_index(CssTree(keys, values), tmp_path / "css")
        loaded = load_index(path)
        assert isinstance(loaded, CssTree)
        assert np.array_equal(loaded.lookup_batch(keys), values)

    def test_fast(self, data, tmp_path):
        keys, values = data
        path = save_index(FastTree(keys, values), tmp_path / "fast")
        loaded = load_index(path)
        assert isinstance(loaded, FastTree)
        assert np.array_equal(loaded.lookup_batch(keys), values)

    def test_hybrid_implicit(self, data, tmp_path, m1):
        keys, values = data
        tree = ImplicitHBPlusTree(keys, values, machine=m1)
        path = save_index(tree, tmp_path / "hb")
        loaded = load_index(path, machine=m1)
        assert isinstance(loaded, ImplicitHBPlusTree)
        assert np.array_equal(loaded.lookup_batch(keys), values)

    def test_hybrid_regular(self, data, tmp_path, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        path = save_index(tree, tmp_path / "hbr")
        loaded = load_index(path, machine=m1)
        assert isinstance(loaded, HBPlusTree)
        assert np.array_equal(loaded.lookup_batch(keys), values)

    def test_32bit_round_trip(self, tmp_path):
        keys, values = generate_dataset(500, key_bits=32, seed=56)
        path = save_index(CssTree(keys, values, key_bits=32),
                          tmp_path / "k32")
        loaded = load_index(path)
        assert loaded.spec.bits == 32
        assert np.array_equal(loaded.lookup_batch(keys), values)


class TestErrors:
    def test_hybrid_requires_machine(self, data, tmp_path, m1):
        keys, values = data
        path = save_index(
            ImplicitHBPlusTree(keys, values, machine=m1), tmp_path / "hb"
        )
        with pytest.raises(ValueError):
            load_index(path)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_index(object(), tmp_path / "x")

    def test_mem_passthrough(self, data, tmp_path):
        keys, values = data
        path = save_index(CssTree(keys, values), tmp_path / "css")
        mem = MemorySystem()
        loaded = load_index(path, mem=mem)
        loaded.lookup(int(keys[0]))
        assert mem.counters.line_accesses > 0

    def test_npz_suffix_appended(self, data, tmp_path):
        keys, values = data
        path = save_index(CssTree(keys, values), tmp_path / "noext")
        assert path.suffix == ".npz"


class TestMergeRebuild:
    def test_merge_update_correct(self, data):
        keys, values = data
        tree = ImplicitCpuBPlusTree(keys, values)
        new_keys = np.asarray(
            [int(keys.max()) + i for i in range(1, 101)], dtype=np.uint64
        )
        new_vals = np.arange(100, dtype=np.uint64)
        tree.merge_update(new_keys, new_vals, deletes=keys[:50])
        assert np.array_equal(tree.lookup_batch(new_keys), new_vals)
        out = tree.lookup_batch(keys[:50])
        assert np.all(out == tree.spec.max_value)
        assert len(tree) == len(keys) - 50 + 100

    def test_merge_upsert_overwrites(self, data):
        keys, values = data
        tree = ImplicitCpuBPlusTree(keys, values)
        tree.merge_update(keys[:10], np.arange(10, dtype=np.uint64))
        assert np.array_equal(tree.lookup_batch(keys[:10]),
                              np.arange(10, dtype=np.uint64))
        assert len(tree) == len(keys)

    def test_merge_equals_full_rebuild(self, data):
        keys, values = data
        merged = ImplicitCpuBPlusTree(keys, values)
        new_keys = np.asarray([1, 2, 3], dtype=np.uint64)
        new_vals = np.asarray([11, 22, 33], dtype=np.uint64)
        merged.merge_update(new_keys, new_vals)
        rebuilt = ImplicitCpuBPlusTree(
            np.concatenate([keys, new_keys]),
            np.concatenate([values, new_vals]),
        )
        assert merged.items() == rebuilt.items()

    def test_merge_duplicate_batch_last_write_wins(self, data):
        keys, values = data
        tree = ImplicitCpuBPlusTree(keys, values)
        tree.merge_update([5, 5], [1, 2])
        assert tree.lookup_batch([5]).tolist() == [2]
        assert len(tree) == len(keys) + 1

    def test_merge_to_empty_rejected(self):
        tree = ImplicitCpuBPlusTree([1, 2], [1, 2])
        with pytest.raises(ValueError):
            tree.merge_update(deletes=[1, 2])

    def test_hybrid_merge_rebuild_cheaper(self, data, m1):
        keys, values = data
        tree = ImplicitHBPlusTree(keys, values, machine=m1)
        new_keys = np.asarray([int(keys.max()) + 1], dtype=np.uint64)
        merge_times = tree.merge_rebuild(new_keys, [9])
        assert tree.lookup(int(new_keys[0])) == 9
        items = tree.cpu_tree.items()
        ks = np.asarray([k for k, _v in items], dtype=np.uint64)
        vs = np.asarray([v for _k, v in items], dtype=np.uint64)
        full_times = tree.rebuild(ks, vs)
        rebuild_work = full_times.l_segment_ns + full_times.i_segment_ns
        merge_work = merge_times.l_segment_ns + merge_times.i_segment_ns
        assert merge_work < rebuild_work


class TestAtomicity:
    def test_save_leaves_no_temp_file(self, data, tmp_path):
        keys, values = data
        save_index(CssTree(keys, values), tmp_path / "idx")
        assert [p.name for p in tmp_path.iterdir()] == ["idx.npz"]

    def test_save_replaces_existing_archive(self, data, tmp_path):
        keys, values = data
        path = save_index(RegularCpuBPlusTree(keys, values),
                          tmp_path / "idx")
        save_index(CssTree(keys, values), tmp_path / "idx")
        loaded = load_index(path)
        assert isinstance(loaded, CssTree)


class TestVersionGate:
    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, keys=np.arange(4, dtype=np.uint64),
                 values=np.arange(4, dtype=np.uint64),
                 meta=np.array(["kind=css", "key_bits=64"]))
        with pytest.raises(ValueError, match="no version meta"):
            load_index(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "new.npz"
        np.savez(path, keys=np.arange(4, dtype=np.uint64),
                 values=np.arange(4, dtype=np.uint64),
                 meta=np.array(["version=99", "kind=css", "key_bits=64"]))
        with pytest.raises(ValueError, match="version"):
            load_index(path)


class TestEmptyTrees:
    """Empty-tree round trips must preserve key dtype exactly.

    Only the insert-capable kinds can represent zero tuples; the
    bulk-only kinds reject empty construction, and this matrix
    documents which is which.
    """

    @pytest.mark.parametrize("build", [
        lambda m1: RegularCpuBPlusTree((), ()),
        lambda m1: HBPlusTree((), (), machine=m1),
    ], ids=["regular-cpu", "hb-regular"])
    def test_empty_round_trip(self, build, m1, tmp_path):
        tree = build(m1)
        loaded = load_index(save_index(tree, tmp_path / "empty"),
                            machine=m1)
        assert type(loaded) is type(tree)
        got = loaded.lookup_batch(np.array([1, 2], dtype=np.uint64))
        assert got.dtype == np.uint64
        assert np.array_equal(
            got, np.full(2, loaded.spec.max_value, dtype=np.uint64)
        )
        # and the reloaded empty tree still accepts inserts
        target = loaded.cpu_tree if isinstance(loaded, HBPlusTree) \
            else loaded
        target.insert(42, 7)
        assert target.lookup(42) == 7

    def test_empty_round_trip_32bit(self, tmp_path):
        tree = RegularCpuBPlusTree((), (), key_bits=32)
        loaded = load_index(save_index(tree, tmp_path / "e32"))
        got = loaded.lookup_batch(np.array([1], dtype=np.uint32))
        assert got.dtype == np.uint32

    @pytest.mark.parametrize("build", [
        lambda m1: ImplicitCpuBPlusTree((), ()),
        lambda m1: CssTree((), ()),
        lambda m1: FastTree((), ()),
        lambda m1: ImplicitHBPlusTree((), (), machine=m1),
    ], ids=["implicit-cpu", "css", "fast", "hb-implicit"])
    def test_bulk_only_kinds_reject_empty(self, build, m1):
        with pytest.raises(ValueError):
            build(m1)
