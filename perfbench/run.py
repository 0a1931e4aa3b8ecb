"""End-to-end benchmark of ``repro.service.IndexService``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-uniform --seed 1 \
        --seconds 25 --trace 0

One client drives the public service API in a closed loop, in one
process with no helper threads, and checks every answer against a
sorted NumPy reference of the keyspace.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs the same workload twice, first
untraced and then with every layer's public entry points wrapped in
spans, and prints the per-layer breakdown, the tracing overhead, and
the end-to-end metrics the gated set leaves out.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The gated wall-clock metrics are scaled to a reference host speed.
After every serving call, and around the service builds, the client
times a fixed probe that shares nothing with the program; each time is
divided by how much slower than ``HOST_REF_MS`` the probes ran beside
it.  The unscaled times are printed too.

See ``perfbench/NOTES.md`` for the metric definitions, the layer to
end-to-end mapping and the comparison with the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(HERE, ".state")

#: largest |1 - (sum of layer self times) / (externally timed traced
#: wall time)| the trace may show
TRACE_TOLERANCE = 0.05

#: median time of ``host_probe_ns`` that defines the reference host
#: speed the gated wall-clock metrics are scaled to; about the probe's
#: median on the 2-vCPU Xeon VM the bounds were set on
HOST_REF_MS = 0.15
#: host probes timed before each service build and after the last one
SETUP_PROBES = 25

#: metrics of the JSON line under ``--trace 0`` (BENCHMARK.json
#: ``end_to_end``): the ones every workload produces whose run-to-run
#: spread fits the largest bound the benchmark may set.  The four
#: wall-clock ones are scaled to the reference host speed (see
#: ``host_factor``)
E2E_UNITS = {
    "setup_s": "s",
    "lookup_ops_s": "1/s",
    "lookup_p50_ms": "ms",
    "round_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "modeled_txn_per_lookup": "txn/op",
}

#: end-to-end metrics printed but not gated: the unscaled wall-clock
#: metrics and the host probe they are scaled by, the tails, too noisy
#: on a shared host to gate, and the metrics of one operation kind,
#: which a workload that does not issue the operation reports as 0
UNGATED_UNITS = {
    "setup_raw_s": "s",
    "lookup_raw_ops_s": "1/s",
    "lookup_raw_p50_ms": "ms",
    "round_raw_p50_ms": "ms",
    "host_probe_ms": "ms",
    "host_probe_setup_ms": "ms",
    "lookup_tail_ms": "ms",
    "round_tail_ms": "ms",
    "scan_tuples_s": "tuples/s",
    "scan_p50_ms": "ms",
    "scan_tail_ms": "ms",
    "update_ops_s": "1/s",
    "update_p50_ms": "ms",
    "update_tail_ms": "ms",
    "modeled_pcie_bytes_per_update": "B/op",
    "failed_ops_frac": "frac",
}


#: unit of a per-layer metric by name suffix; anything else is a count
LAYER_UNIT_SUFFIXES = (
    ("_ms", "ms"), ("_share", "frac"), ("_frac", "frac"), ("_rate", "frac"),
    ("_ns", "ns"), (".bytes_to_device", "B"), (".fanout", "count/op"),
)


def layer_unit(name: str) -> str:
    if name in UNGATED_UNITS:
        return UNGATED_UNITS[name]
    for suffix, unit in LAYER_UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
# statistics


def nearest_rank(sorted_vals: List[float], p: float) -> float:
    """Ceil nearest-rank percentile of an ascending list."""
    n = len(sorted_vals)
    return sorted_vals[max(0, math.ceil(p * n / 100.0) - 1)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile (50 at least) whose nearest rank
    leaves at least ten samples above it."""
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100.0) >= 10:
            best = p
    return best


def latency_stats(lat_ns: List[int]) -> Dict[str, float]:
    if not lat_ns:
        return {"n": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0}
    s = sorted(lat_ns)
    pct = tail_percentile(len(s))
    return {"n": len(s), "p50_ms": nearest_rank(s, 50) / 1e6,
            "tail_ms": nearest_rank(s, pct) / 1e6, "tail_pct": pct}


# ----------------------------------------------------------------------
# host speed

_PROBE_DATA = []


def _probe_once(data) -> int:
    import numpy as np

    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(1500):
        acc += i * i
    np.sort(data)
    return time.perf_counter_ns() - t0


def host_probe_ns() -> int:
    """Time a fixed reference workload, a Python loop and a NumPy sort:
    the two kinds of work the service's calls are made of.  It shares no
    code or data with the program.  It runs twice and the second, warm
    time is kept, so the caches the last call left behind do not move
    it; only the host's speed at that moment does."""
    import numpy as np

    if not _PROBE_DATA:
        _PROBE_DATA.append(np.random.default_rng(0).random(10_000))
    _probe_once(_PROBE_DATA[0])
    return _probe_once(_PROBE_DATA[0])


def host_factor(probe_ns: List[int]) -> float:
    """How much slower than the reference speed the host ran while
    ``probe_ns`` were timed: their median over ``HOST_REF_MS``.

    On a shared VM the host's speed swings by up to 1.7x within seconds
    and drifts over minutes as other tenants load the machine; the
    program's times and the probe's move together.  Dividing a time by
    the factor of the probes timed beside it cancels most of that
    common swing, and a change to the program still moves the scaled
    time in full, since the probe does not run program code."""
    if not probe_ns:
        return 1.0
    return nearest_rank(sorted(probe_ns), 50) / 1e6 / HOST_REF_MS


# ----------------------------------------------------------------------
# program counters


def program_counters(svc) -> Counter:
    """Cumulative modeled and event counts read from the program's own
    statistics, summed over shards."""
    c = Counter()
    for shard in svc.shards:
        tree = shard.tree
        c["kernel.launches"] += tree.device.kernel_launches
        c["kernel.txn"] += tree.device.memory.counters.transactions_64
        ls = tree.link.stats
        c["pcie.transfers"] += ls.transfers
        c["pcie.bytes_to_device"] += ls.bytes_to_device
        c["pcie.failed_transfers"] += ls.failed_transfers
        es = shard.engine.stats
        c["engine.buckets"] += es.buckets
        c["engine.queries"] += es.queries
        c["engine.unique"] += es.unique
        qs = shard.queue.stats
        c["shard.blocked_waits"] += qs.blocked_waits
        c["shard.shed_ops"] += qs.shed_ops
        c["shard.batches"] += shard.stats().batches
        if shard.controller is not None:
            st = shard.controller.stats
            c["adaptive.reprofiles"] += st.evaluations + st.rediscoveries
            c["adaptive.split_changes"] += st.rebalances
        if shard.resilient is not None:
            rs = shard.resilient.stats
            c["resilience.faults_handled"] += rs.faults_handled
            c["resilience.kernel_retries"] += rs.kernel_retries
            c["resilience.transfer_retries"] += rs.transfer_retries
            c["resilience.served_hybrid"] += rs.served_hybrid
            c["resilience.served_cpu"] += rs.served_cpu
            c["resilience.modeled_penalty_ns"] += rs.penalty_ns
        if shard.injector is not None:
            c["faults.injected"] += shard.injector.stats.total_faults
    return c


def modeled_meter(svc):
    """(GPU transactions, PCIe bytes to device) so far, all shards."""
    txn = pcie = 0
    for shard in svc.shards:
        txn += shard.tree.device.memory.counters.transactions_64
        pcie += shard.tree.link.stats.bytes_to_device
    return txn, pcie


# ----------------------------------------------------------------------
# one pass: build, then serve the closed loop


def build_service(w, keys, values, seed):
    from repro.faults.plan import FaultPlan
    from repro.platform.configs import machine_m1
    from repro.service import IndexService, ServiceConfig

    plan = FaultPlan.uniform(w.fault_rate, seed=seed) if w.fault_rate else None
    config = ServiceConfig(n_shards=4, router="range", kind=w.kind,
                           adaptive=w.adaptive, fault_plan=plan,
                           machine=machine_m1())
    return IndexService.build(keys, values, config)


def _rows_match(rows, exp_keys, exp_values) -> bool:
    import numpy as np

    if len(rows) != len(exp_keys):
        return False
    if not rows:
        return True
    got = np.array(rows, dtype=np.uint64).reshape(-1, 2)
    return bool(np.array_equal(got[:, 0], exp_keys)
                and np.array_equal(got[:, 1], exp_values))


class Pass:
    """Outcome of serving one workload once."""

    def __init__(self):
        self.lat: Dict[str, List[int]] = {"lookup": [], "scan": [],
                                          "update": []}
        self.round_lat: List[int] = []
        self.ops = Counter()      # attempted ops per operation kind
        self.failed = Counter()   # failed ops per operation kind
        self.calls = 0
        self.errors = Counter()   # exception type name -> failed ops
        self.mismatches = 0       # calls with a wrong answer
        self.scan_tuples = 0
        self.lookup_txn = 0
        self.update_pcie = 0
        self.serve_ns = 0         # sum of externally timed call latencies
        self.setup_ns: List[int] = []
        # host probes timed during set-up, and after every serving call
        self.setup_probe_ns: List[int] = []
        self.probe_ns: List[int] = []
        self.counters = Counter()
        self.contents_ok = True

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def serve(w, svc, ref, seed, rounds, res: Pass, tracer=None) -> None:
    """Run ``rounds`` closed-loop rounds; check every answer."""
    import numpy as np
    from workloads import Client

    client = Client(w, ref, np.random.default_rng([seed, 1]))
    base = program_counters(svc)
    clock = time.perf_counter_ns
    out = None
    # keep collections of the long-lived set-up objects out of the
    # timed calls
    gc.collect()
    gc.freeze()

    for r in range(rounds):
        round_ns = 0
        for i, kind in enumerate(w.round):
            if tracer is not None:
                tracer.request = f"{r}.{i}"
            op = "lookup" if kind.startswith("lookup") else kind
            req = getattr(client, kind)()
            txn0, pcie0 = modeled_meter(svc)
            error = None
            t0 = clock()
            try:
                if op == "lookup":
                    out = svc.lookup_batch(req)
                elif op == "scan":
                    out = svc.run_scans(*req)
                else:
                    svc.apply_updates(*req)
            except Exception as err:  # tallied, and the loop goes on
                error = err
            dt = clock() - t0
            res.probe_ns.append(host_probe_ns())
            txn1, pcie1 = modeled_meter(svc)
            n = len(req) if op == "lookup" else (
                len(req[0]) if op == "scan" else len(req[0]) + len(req[2]))
            res.calls += 1
            res.ops[op] += n
            res.serve_ns += dt
            round_ns += dt
            if error is not None:
                res.failed[op] += n
                if not res.errors[type(error).__name__]:
                    print(f"perfbench: {op} raised {error!r}",
                          file=sys.stderr)
                res.errors[type(error).__name__] += n
                if op == "update":
                    # the batch may be partly applied: resynchronise the
                    # oracle so later answers are judged on their own
                    k, v = svc.contents()
                    ref.keys, ref.values = k.copy(), v.copy()
                continue
            res.lat[op].append(dt)
            if op == "lookup":
                res.lookup_txn += txn1 - txn0
                if not np.array_equal(out, ref.lookup(req)):
                    res.mismatches += 1
                    res.failed[op] += n
            elif op == "scan":
                bad = False
                for (lo, hi), rows in zip(zip(*req), out):
                    ek, ev = ref.scan(lo, hi)
                    res.scan_tuples += len(ek)
                    bad = bad or not _rows_match(rows, ek, ev)
                if bad or len(out) != n:
                    res.mismatches += 1
                    res.failed[op] += n
            else:
                res.update_pcie += pcie1 - pcie0
                ref.apply(*req)
            # free the answer here, not when the next call's result
            # replaces it inside the timed region
            out = None
        res.round_lat.append(round_ns)
    if tracer is not None:
        tracer.request = None
    end = program_counters(svc)
    res.counters = Counter({k: end[k] - base[k] for k in end})
    gc.unfreeze()
    if "update" in w.round:
        k, v = svc.contents()
        res.contents_ok = bool(np.array_equal(k, ref.keys)
                               and np.array_equal(v, ref.values))


def run_pass(w, seed, rounds, setup_reps, tracer=None) -> Pass:
    import numpy as np
    from workloads import Reference, make_keys

    res = Pass()
    keys, values = make_keys(w.n_keys, np.random.default_rng([seed, 0]))
    ref = Reference(keys, values)
    build = build_service
    if tracer is not None:
        from tracing import SERVE_TARGETS, SETUP_TARGETS

        build = tracer.span("client.build", "setup", build_service)
    svc = None
    for _ in range(setup_reps):
        svc = None
        gc.collect()
        res.setup_probe_ns += [host_probe_ns() for _ in range(SETUP_PROBES)]
        if tracer is not None:
            tracer.request = "setup"
            tracer.install(SETUP_TARGETS)
        try:
            t0 = time.perf_counter_ns()
            svc = build(w, keys, values, seed)
            res.setup_ns.append(time.perf_counter_ns() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
    res.setup_probe_ns += [host_probe_ns() for _ in range(SETUP_PROBES)]
    del keys, values
    if tracer is not None:
        tracer.phase = "serve"
        tracer.install(SERVE_TARGETS)
    try:
        serve(w, svc, ref, seed, rounds, res, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return res


# ----------------------------------------------------------------------
# metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def raw_wall_clock(res: Pass) -> Dict[str, float]:
    return {
        "setup_raw_s": nearest_rank(sorted(res.setup_ns), 50) / 1e9,
        "lookup_raw_ops_s": _ratio(res.ops["lookup"] - res.failed["lookup"],
                                   sum(res.lat["lookup"]) / 1e9),
        "lookup_raw_p50_ms": latency_stats(res.lat["lookup"])["p50_ms"],
        "round_raw_p50_ms": latency_stats(res.round_lat)["p50_ms"],
    }


def end_to_end(res: Pass) -> Dict[str, float]:
    raw = raw_wall_clock(res)
    serve_f = host_factor(res.probe_ns)
    return {
        "setup_s": raw["setup_raw_s"] / host_factor(res.setup_probe_ns),
        "lookup_ops_s": raw["lookup_raw_ops_s"] * serve_f,
        "lookup_p50_ms": raw["lookup_raw_p50_ms"] / serve_f,
        "round_p50_ms": raw["round_raw_p50_ms"] / serve_f,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "modeled_txn_per_lookup": _ratio(res.lookup_txn, res.ops["lookup"]),
    }


def ungated_metrics(res: Pass) -> Dict[str, float]:
    sc = latency_stats(res.lat["scan"])
    up = latency_stats(res.lat["update"])
    return {
        **raw_wall_clock(res),
        "host_probe_ms": host_factor(res.probe_ns) * HOST_REF_MS,
        "host_probe_setup_ms": host_factor(res.setup_probe_ns) * HOST_REF_MS,
        "lookup_tail_ms": latency_stats(res.lat["lookup"])["tail_ms"],
        "round_tail_ms": latency_stats(res.round_lat)["tail_ms"],
        "scan_tuples_s": _ratio(res.scan_tuples, sum(res.lat["scan"]) / 1e9),
        "scan_p50_ms": sc["p50_ms"],
        "scan_tail_ms": sc["tail_ms"],
        "update_ops_s": _ratio(res.ops["update"] - res.failed["update"],
                               sum(res.lat["update"]) / 1e9),
        "update_p50_ms": up["p50_ms"],
        "update_tail_ms": up["tail_ms"],
        "modeled_pcie_bytes_per_update": _ratio(res.update_pcie,
                                                res.ops["update"]),
        "failed_ops_frac": _ratio(res.n_failed, res.attempted),
    }


def modeled_counts(res: Pass) -> Dict[str, float]:
    """Everything that must repeat exactly for the same inputs."""
    out = {k: res.counters[k] for k in sorted(res.counters)}
    out["modeled_txn_per_lookup"] = _ratio(res.lookup_txn, res.ops["lookup"])
    out["modeled_pcie_bytes_per_update"] = _ratio(res.update_pcie,
                                                  res.ops["update"])
    out["scan_tuples"] = res.scan_tuples
    return out


def per_layer(res: Pass, plain: Pass, tracer, summ) -> Dict[str, float]:
    from tracing import LAYERS

    c = res.counters
    wall_ns = sum(res.setup_ns) + res.serve_ns
    lself = summ["layer_self_ns"]
    lcalls = summ["layer_calls"]
    ntotal = summ["name_total_ns"]
    nself = summ["name_self_ns"]

    def total_ms(*names):
        return sum(ntotal.get(n, 0.0) for n in names) / 1e6

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = lcalls.get(layer, 0)
        m[f"{layer}.self_share"] = _ratio(lself.get(layer, 0.0), wall_ns)
    for layer in ("kernel", "engine", "service", "shard", "resilience",
                  "update", "bulkload", "setup"):
        m[f"{layer}.self_ms"] = lself.get(layer, 0.0) / 1e6
    m["kernel.launches"] = c["kernel.launches"]
    m["kernel.txn"] = c["kernel.txn"]
    m["leaf.finish_ms"] = total_ms("HBPlusTree.cpu_finish_bucket",
                                   "ImplicitHBPlusTree.cpu_finish_bucket")
    m["leaf.top_descent_ms"] = total_ms("ImplicitHBPlusTree.cpu_descend_top")
    m["leaf.scan_ms"] = total_ms("HBPlusTree.cpu_scan_bucket",
                                 "ImplicitHBPlusTree.cpu_scan_bucket")
    m["leaf.scan_tuples"] = res.scan_tuples
    m["engine.plan_ms"] = total_ms("batching.plan_bucket",
                                   "resilience.plan_bucket")
    m["engine.buckets"] = c["engine.buckets"]
    m["engine.unique_frac"] = _ratio(c["engine.unique"], c["engine.queries"])
    mem = tracer.memsim
    m["memsim.line_accesses"] = mem["line_accesses"]
    m["memsim.cache_hit_rate"] = _ratio(mem["cache_hits"],
                                        mem["line_accesses"])
    m["memsim.tlb_misses"] = mem["tlb_misses"]
    m["service.fanout"] = _ratio(c["shard.batches"], res.calls)
    m["service.quota_rejected_ops"] = res.errors.get("QuotaExceeded", 0)
    m["shard.blocked_waits"] = c["shard.blocked_waits"]
    m["shard.shed_ops"] = c["shard.shed_ops"]
    m["adaptive.note_ms"] = sum(
        nself.get(n, 0.0) for n in ("AdaptiveController.note_bucket",
                                    "AdaptiveController.note_scan_bucket")
    ) / 1e6
    m["adaptive.reprofile_ms"] = total_ms("RegularModeBalancer.reprofile",
                                          "LoadBalancer.reprofile")
    m["adaptive.reprofiles"] = c["adaptive.reprofiles"]
    m["adaptive.split_changes"] = c["adaptive.split_changes"]
    m["resilience.faults_handled"] = c["resilience.faults_handled"]
    m["resilience.kernel_retries"] = c["resilience.kernel_retries"]
    m["resilience.transfer_retries"] = c["resilience.transfer_retries"]
    m["resilience.hybrid_frac"] = _ratio(
        c["resilience.served_hybrid"],
        c["resilience.served_hybrid"] + c["resilience.served_cpu"])
    m["resilience.modeled_penalty_ns"] = c["resilience.modeled_penalty_ns"]
    m["mirror.sync_ms"] = lself.get("mirror", 0.0) / 1e6
    m["mirror.full_rebuilds"] = summ["serve_calls"].get(
        "HBPlusTree.mirror_i_segment", 0)
    m["pcie.transfers"] = c["pcie.transfers"]
    m["pcie.bytes_to_device"] = c["pcie.bytes_to_device"]
    m["pcie.failed_transfers"] = c["pcie.failed_transfers"]
    m["faults.injected"] = c["faults.injected"]
    traced_p50 = (latency_stats(res.round_lat)["p50_ms"]
                  / host_factor(res.probe_ns))
    plain_p50 = (latency_stats(plain.round_lat)["p50_ms"]
                 / host_factor(plain.probe_ns))
    m["trace.overhead_frac"] = _ratio(traced_p50 - plain_p50, plain_p50)
    m["trace.accounted_frac"] = _ratio(summ["root_ns"], wall_ns)
    m.update(ungated_metrics(plain))
    return m


# ----------------------------------------------------------------------
# repeatability ledger


def source_digest() -> str:
    """Digest of the program and benchmark sources, so recorded counts
    are only compared against runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_ledger(key: str, counts: Dict[str, float]) -> List[str]:
    """Compare ``counts`` with an earlier run recorded under ``key``,
    or record them; returns the names that differ."""
    path = os.path.join(STATE_DIR, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    if key in ledger:
        return diff_counts(ledger[key], counts)
    ledger[key] = {k: float(v) for k, v in counts.items()}
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, sort_keys=True)
    os.replace(tmp, path)
    return []


def diff_counts(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return sorted(k for k in set(a) | set(b)
                  if float(a.get(k, 0)) != float(b.get(k, 0)))


# ----------------------------------------------------------------------
# output


def print_table(title: str, metrics: Dict[str, float], unit_of) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>18.6g} {unit_of(name)}")


def print_layers(summ, res: Pass) -> None:
    from tracing import LAYERS

    wall = sum(res.setup_ns) + res.serve_ns
    print("== per-layer self time (traced pass, setup + serve)")
    print(f"  {'layer':12s} {'calls':>8s} {'self_ms':>12s} {'share':>8s}")
    for layer in LAYERS:
        self_ns = summ["layer_self_ns"].get(layer, 0.0)
        print(f"  {layer:12s} {summ['layer_calls'].get(layer, 0):8d} "
              f"{self_ns / 1e6:12.3f} {_ratio(self_ns, wall):8.4f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    rounds = w.rounds(args.seconds)
    print(f"workload {w.name}: 2^{w.log2_keys} keys, kind={w.kind}, "
          f"adaptive={w.adaptive}, fault_rate={w.fault_rate}, "
          f"round={'+'.join(w.round)}, rounds={rounds}, seed={args.seed}")
    print(f"  why: {w.why}")
    key = f"{w.name}|seed={args.seed}|rounds={rounds}|src={source_digest()}"
    problems: List[str] = []

    if args.trace == 0:
        res = run_pass(w, args.seed, rounds, w.setup_reps)
        metrics = end_to_end(res)
        counts = modeled_counts(res)
        print_table("end-to-end (gated; wall-clock scaled to the "
                    "reference host speed)", metrics, E2E_UNITS.get)
        print_table("end-to-end (not gated)", ungated_metrics(res),
                    UNGATED_UNITS.get)
        lk, rd = latency_stats(res.lat["lookup"]), latency_stats(res.round_lat)
        print(f"  tails: lookup p{lk['tail_pct']} of {lk['n']} batches, "
              f"round p{rd['tail_pct']} of {rd['n']} rounds, scan "
              f"p{latency_stats(res.lat['scan'])['tail_pct']}, update "
              f"p{latency_stats(res.lat['update'])['tail_pct']}")
        unit_of = E2E_UNITS.get
        passes = [res]
    else:
        from tracing import Tracer

        plain = run_pass(w, args.seed, rounds, 1)
        gc.collect()
        tracer = Tracer()
        res = run_pass(w, args.seed, rounds, 1, tracer)
        counts = modeled_counts(plain)
        traced_diff = diff_counts(modeled_counts(res), counts)
        if traced_diff:
            problems.append(f"traced and untraced counts differ: "
                            f"{traced_diff}")
        summ = tracer.summary()
        metrics = per_layer(res, plain, tracer, summ)
        spans_key = key + "|traced"
        span_counts = {k: v for k, v in metrics.items()
                       if k.endswith(".calls") or k.startswith("memsim.")
                       or k == "mirror.full_rebuilds"}
        diff = check_ledger(spans_key, span_counts)
        if diff:
            problems.append(f"traced counts differ from an earlier run "
                            f"of the same code and seed: {diff}")
        if abs(1.0 - metrics["trace.accounted_frac"]) > TRACE_TOLERANCE:
            problems.append(
                f"layer self times cover {metrics['trace.accounted_frac']:.4f}"
                f" of the traced wall time (tolerance {TRACE_TOLERANCE})")
        os.makedirs(STATE_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            STATE_DIR, f"trace_{w.name}_seed{args.seed}.json"))
        print_layers(summ, res)
        unit_of = layer_unit
        print_table("per-layer metrics", metrics, unit_of)
        passes = [plain, res]
        res = plain
    diff = check_ledger(key, counts)
    if diff:
        problems.append(f"modeled counts differ from an earlier run of "
                        f"the same code and seed: {diff}")
    if w.fault_rate and counts.get("faults.injected", 0) == 0:
        print("perfbench: fault drill idle (no fault injected)",
              file=sys.stderr)
    for p in passes:
        if p.mismatches:
            problems.append(f"{p.mismatches} calls returned wrong answers")
        if not p.contents_ok:
            problems.append("service contents differ from the reference")
        if p.errors:
            print(f"perfbench: failed ops by exception type: "
                  f"{dict(p.errors)}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"  attempted {res.attempted} ops, failed {res.n_failed}, "
          f"mismatched calls {res.mismatches}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(res.attempted),
        "failed": int(res.n_failed),
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
