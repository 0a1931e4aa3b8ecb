"""Span tracing from outside the program, for the traced run only.

The traced run replaces the public entry points of each layer with a
wrapper that records a span (name, layer, start, end, parent span,
request id) around the original call, and restores the originals when
it ends.  Nothing under ``src/`` records a span for this benchmark.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Calls are single-threaded and strictly nested, so
the self times of all layers add up to the time the root spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Dict, List

import numpy as np

import repro.core.batching as batching_mod
import repro.core.resilience as resilience_mod
import repro.service.shard as shard_mod
from repro.core.adaptive import AdaptiveController, RegularModeBalancer
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import SyncUpdater
from repro.service.service import IndexService
from repro.service.shard import Shard

#: every layer a span can belong to; ``setup`` is the client-side root
#: of one service build
LAYERS = ("setup", "service", "shard", "resilience", "adaptive", "engine",
          "kernel", "leaf", "update", "mirror", "bulkload")

#: (layer, owner, attribute) wrapped while the service is being built
SETUP_TARGETS = (
    ("bulkload", shard_mod, "bulk_load"),
    ("adaptive", RegularModeBalancer, "reprofile"),
    ("adaptive", LoadBalancer, "reprofile"),
)

#: (layer, owner, attribute) wrapped while the workload is served
SERVE_TARGETS = (
    ("service", IndexService, "lookup_batch"),
    ("service", IndexService, "run_scans"),
    ("service", IndexService, "apply_updates"),
    ("shard", Shard, "lookup_batch"),
    ("shard", Shard, "run_scans"),
    ("shard", Shard, "apply_updates"),
    ("resilience", ResilientHBPlusTree, "lookup_batch"),
    ("resilience", ResilientHBPlusTree, "run_scans"),
    ("resilience", ResilientHBPlusTree, "apply_updates"),
    ("adaptive", AdaptiveController, "note_bucket"),
    ("adaptive", AdaptiveController, "note_scan_bucket"),
    ("adaptive", RegularModeBalancer, "reprofile"),
    ("adaptive", LoadBalancer, "reprofile"),
    ("engine", BatchingEngine, "lookup_batch"),
    ("engine", BatchingEngine, "run_scans"),
    ("engine", BatchingEngine, "execute_bucket"),
    ("engine", BatchingEngine, "scan_bucket"),
    ("engine", batching_mod, "plan_bucket"),
    ("engine", resilience_mod, "plan_bucket"),
    ("kernel", HBPlusTree, "gpu_search_bucket"),
    ("kernel", ImplicitHBPlusTree, "gpu_search_bucket"),
    ("kernel", ImplicitHBPlusTree, "gpu_search_bucket_from"),
    ("leaf", ImplicitHBPlusTree, "cpu_descend_top"),
    ("leaf", HBPlusTree, "cpu_finish_bucket"),
    ("leaf", ImplicitHBPlusTree, "cpu_finish_bucket"),
    ("leaf", HBPlusTree, "cpu_scan_bucket"),
    ("leaf", ImplicitHBPlusTree, "cpu_scan_bucket"),
    ("update", SyncUpdater, "apply"),
    ("update", ImplicitHBPlusTree, "merge_rebuild"),
    ("mirror", HBPlusTree, "sync_nodes"),
    ("mirror", HBPlusTree, "mirror_i_segment"),
)

_MISSING = object()


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        #: one ``[name, layer, start_ns, end_ns, parent, request, phase]``
        #: per span
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: request id stamped on every span opened while it is set
        self.request = None
        #: phase stamped on every span: "setup" or "serve"
        self.phase = "setup"
        #: simulated-memory counter deltas measured around each leaf scan
        self.memsim = Counter()
        self._patched: List[tuple] = []

    def span(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            rec = [name, layer, 0, 0, stack[-1] if stack else -1,
                   tracer.request, tracer.phase]
            tracer.spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter_ns()
                stack.pop()

        return traced

    def _scan_probe(self, fn):
        """Count simulated cache-line, hit and TLB-miss deltas around
        one leaf-chain scan (no counter reset happens inside it)."""
        memsim = self.memsim

        @functools.wraps(fn)
        def probed(tree, *args, **kwargs):
            c = tree.mem.counters
            before = (c.line_accesses, c.cache_hits,
                      c.tlb_misses_small + c.tlb_misses_huge)
            try:
                return fn(tree, *args, **kwargs)
            finally:
                c = tree.mem.counters
                memsim["line_accesses"] += c.line_accesses - before[0]
                memsim["cache_hits"] += c.cache_hits - before[1]
                memsim["tlb_misses"] += (c.tlb_misses_small
                                         + c.tlb_misses_huge - before[2])

        return probed

    def install(self, targets) -> None:
        for layer, owner, attr in targets:
            original = owner.__dict__.get(attr, _MISSING)
            fn = getattr(owner, attr)
            if attr == "cpu_scan_bucket":
                fn = self._scan_probe(fn)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, self.span(name, layer, fn))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Per-layer self time and calls, per-span-name totals."""
        n = len(self.spans)
        start = np.fromiter((s[2] for s in self.spans), np.int64, n)
        end = np.fromiter((s[3] for s in self.spans), np.int64, n)
        parent = np.fromiter((s[4] for s in self.spans), np.int64, n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_ns = dur - child
        serve = np.fromiter((s[6] == "serve" for s in self.spans), bool, n)
        layer_self = Counter()
        layer_calls = Counter()
        name_total = Counter()
        name_self = Counter()
        serve_calls = Counter()
        for i, (name, layer, *_rest) in enumerate(self.spans):
            layer_self[layer] += float(self_ns[i])
            layer_calls[layer] += 1
            name_total[name] += float(dur[i])
            name_self[name] += float(self_ns[i])
            if serve[i]:
                serve_calls[name] += 1
        roots = ~has_parent
        return {
            "root_ns": float(dur[roots].sum()),
            "layer_self_ns": dict(layer_self),
            "layer_calls": dict(layer_calls),
            "name_total_ns": dict(name_total),
            "name_self_ns": dict(name_self),
            "serve_calls": dict(serve_calls),
        }

    def dump(self, path: str) -> None:
        """Write the spans as one JSON list of span records."""
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))
