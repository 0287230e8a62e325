"""EXP-Z1 — Zoom-in performance under the RCO cache policy.

Replays a Zipf-skewed zoom-in reference stream (interactive users keep
drilling into a few hot results) over a constrained result cache, for RCO
against LRU / LFU / FIFO / SIZE and a no-cache lower bound, sweeping the
cache size.  A miss re-executes the referenced query — exactly the cost
the materialization cache exists to avoid (§2.2).

Shape expected: every policy beats no-cache; RCO matches or beats the
classical policies on hit ratio and total latency at constrained sizes,
because it also weighs recomputation cost and result size; all policies
converge once the cache is large enough to hold everything.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from benchmarks.conftest import time_call, write_report
from repro.workloads import QueryWorkload, WorkloadConfig, build_workload
from repro.workloads.zoomin_workload import ZoomInWorkload
from repro.zoomin.admission import (
    REJECTED_CHEAP,
    AdmissionPolicy,
    AdmissionVerdict,
    AdmitAll,
    CostAwareAdmission,
)
from repro.zoomin.executor import ZoomInExecutor
from repro.zoomin.policies import FIFOPolicy, LFUPolicy, LRUPolicy, SizePolicy
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.tiered import TieredZoomInCache

POLICIES = {
    "RCO": RCOPolicy,
    "LRU": LRUPolicy,
    "LFU": LFUPolicy,
    "FIFO": FIFOPolicy,
    "SIZE": SizePolicy,
}

STREAM_LENGTH = 150
QUERY_COUNT = 14

_STATE: dict[str, object] = {}


def _setup():
    """Workload + query log + zoom-in stream, built once."""
    if _STATE:
        return _STATE
    workload = build_workload(
        WorkloadConfig(
            num_birds=8,
            num_sightings=16,
            annotations_per_row=20,
            seed=61,
        )
    )
    session = workload.session
    queries = QueryWorkload(seed=5)
    sqls: dict[int, str] = {}
    results: dict[int, object] = {}
    for query in queries.mixed(QUERY_COUNT):
        result = session.query(query.sql)
        sqls[result.qid] = query.sql
        results[result.qid] = result
    stream = ZoomInWorkload(
        qids=sorted(sqls),
        instances=["ClassBird1", "ClassBird2", "SimCluster"],
        exponent=1.2,
        max_index=3,
        seed=19,
    ).stream(STREAM_LENGTH)
    _STATE.update(session=session, sqls=sqls, results=results, stream=stream)
    return _STATE


def _replay(policy_factory, capacity_fraction: float):
    """Replay the stream against a fresh cache; returns (cache, misses)."""
    state = _setup()
    session = state["session"]
    sqls = state["sqls"]

    total_bytes = sum(
        result.size_estimate() for result in state["results"].values()
    )
    capacity = max(1024, int(total_bytes * capacity_fraction))
    cache = TieredZoomInCache(
        memory_bytes=capacity,
        disk_bytes=0,
        policy=policy_factory(),
        admission=AdmitAll(),
    )

    def recompute(qid: int):
        # A miss re-runs the query (the result registry plays the role of
        # the database here; re-parsing and re-executing is the honest
        # recompute cost).
        fresh = session.query(sqls[qid])
        fresh.qid = qid  # keep the stream's identity
        return fresh

    executor = ZoomInExecutor(session.annotations, cache, recompute)
    for reference in state["stream"]:
        executor.execute(reference.command_text())
    return cache


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_replay_policy(benchmark, policy_name):
    _setup()
    benchmark.extra_info["policy"] = policy_name
    benchmark.pedantic(
        lambda: _replay(POLICIES[policy_name], capacity_fraction=0.3),
        rounds=3,
        iterations=1,
    )


def test_report_series(benchmark):
    rows = []
    hit_ratios: dict[tuple[str, float], float] = {}
    times: dict[tuple[str, float], float] = {}
    for fraction in (0.15, 0.3, 0.6, 1.0):
        for name in POLICIES:
            seconds = time_call(
                lambda: _replay(POLICIES[name], fraction), repeats=1
            )
            cache = _replay(POLICIES[name], fraction)
            hit_ratios[(name, fraction)] = cache.counters.hit_ratio
            times[(name, fraction)] = seconds
            rows.append(
                (f"{fraction:.2f}", name, cache.counters.hit_ratio,
                 cache.counters.memory_evictions, seconds * 1000)
            )
        # no-cache lower bound: every reference recomputes
        no_cache = time_call(
            lambda: _replay(lambda: LRUPolicy(), 1e-9), repeats=1
        )
        rows.append((f"{fraction:.2f}", "none", 0.0, 0, no_cache * 1000))
    write_report(
        "exp_z1_policy_sweep",
        "EXP-Z1: zoom-in stream replay (hit ratio / evictions / total ms)",
        ["capacity", "policy", "hit ratio", "evictions", "total ms"],
        rows,
    )
    # Shape: at the constrained sizes RCO is at least as good as the
    # classical baselines on hit ratio.
    for fraction in (0.15, 0.3):
        rco = hit_ratios[("RCO", fraction)]
        for name in ("LRU", "LFU", "FIFO", "SIZE"):
            assert rco >= hit_ratios[(name, fraction)] - 0.02
    # At full capacity everything converges.
    full = {hit_ratios[(name, 1.0)] for name in POLICIES}
    assert max(full) - min(full) < 0.05
    benchmark(lambda: None)


def test_disk_store_variant(benchmark):
    """The paper's disk-based materialization: RCO over a SQLite store.

    The same budget runs as a memory tier, then as a disk tier behind a
    one-byte memory tier, so every result is served from SQLite.  Hit
    ratios stay close (replacement logic is storage-agnostic); latency
    differs by the serialization cost.
    """
    from repro.zoomin.stores import SQLiteResultStore

    state = _setup()
    session = state["session"]
    sqls = state["sqls"]
    total_bytes = sum(r.size_estimate() for r in state["results"].values())

    def replay_with_store(store=None):
        capacity = max(1024, int(total_bytes * 0.5))
        cache = TieredZoomInCache(
            memory_bytes=1 if store is not None else capacity,
            disk_bytes=capacity if store is not None else 0,
            policy=RCOPolicy(),
            disk_store=store,
            admission=AdmitAll(),
        )

        def recompute(qid: int):
            fresh = session.query(sqls[qid])
            fresh.qid = qid
            return fresh

        executor = ZoomInExecutor(session.annotations, cache, recompute)
        for reference in state["stream"]:
            executor.execute(reference.command_text())
        return cache

    memory_seconds = time_call(lambda: replay_with_store(None), repeats=1)
    disk_seconds = time_call(
        lambda: replay_with_store(
            SQLiteResultStore(registry=session.catalog.registry)
        ),
        repeats=1,
    )
    memory_cache = replay_with_store(None)
    disk_cache = replay_with_store(
        SQLiteResultStore(registry=session.catalog.registry)
    )
    write_report(
        "exp_z1_disk_store",
        "EXP-Z1 variant: in-memory vs disk-based (SQLite) result store",
        ["store", "hit ratio", "total ms"],
        [
            ("memory", memory_cache.counters.hit_ratio, memory_seconds * 1000),
            ("sqlite", disk_cache.counters.hit_ratio, disk_seconds * 1000),
        ],
    )
    # Replacement behaviour is storage-agnostic; note the charged sizes
    # differ (object estimate vs serialized bytes), so allow slack.
    assert abs(
        memory_cache.counters.hit_ratio - disk_cache.counters.hit_ratio
    ) < 0.15
    benchmark(lambda: None)


# -- EXP-Z2: the tiered production path under concurrent Zipf load ----------
#
# Importable helpers driven by ``run_bench.py --bench zoomin``: four
# threads replay a Zipf-skewed zoom-in stream against the two-tier
# cache in three modes at two byte-budget points, plus a single-flight
# stampede cell.  Routing even the no-cache mode through the tiered
# cache keeps the rest of the path (executor, single-flight, tracing)
# identical, so the comparison isolates caching itself.

TIERED_MODES = ("nocache", "lru", "rco")

REPLAY_THREADS = 4
STAMPEDE_THREADS = 16


class RejectAll(AdmissionPolicy):
    """Admission that caches nothing — the no-cache lower bound."""

    def assess(
        self,
        size_bytes: int,
        recompute_cost: float,
        capacity_bytes: int,
        pinned_bytes: int = 0,
    ) -> AdmissionVerdict:
        return AdmissionVerdict(
            admitted=False,
            pinned=False,
            reason=REJECTED_CHEAP,
            recompute_cost=recompute_cost,
            size_bytes=size_bytes,
        )


def make_tiered_cache(
    mode: str, memory_bytes: int, disk_bytes: int
) -> TieredZoomInCache:
    """A fresh two-tier cache in one of the three benchmark modes."""
    if mode == "nocache":
        return TieredZoomInCache(
            memory_bytes=memory_bytes,
            disk_bytes=disk_bytes,
            admission=RejectAll(),
        )
    if mode == "lru":
        return TieredZoomInCache(
            memory_bytes=memory_bytes,
            disk_bytes=disk_bytes,
            policy=LRUPolicy(),
            admission=AdmitAll(),
        )
    if mode == "rco":
        return TieredZoomInCache(
            memory_bytes=memory_bytes,
            disk_bytes=disk_bytes,
            policy=RCOPolicy(),
            admission=CostAwareAdmission(),
        )
    raise ValueError(f"unknown tiered mode {mode!r}")


def build_tiered_state(quick: bool = False) -> dict:
    """Workload session + query log + Zipf zoom-in stream.

    Unlike :func:`_setup` this builds fresh state per call (the driver
    owns its lifetime and closes the session when done).
    """
    workload = build_workload(
        WorkloadConfig(
            num_birds=4 if quick else 8,
            num_sightings=8 if quick else 16,
            annotations_per_row=10 if quick else 20,
            seed=61,
        )
    )
    session = workload.session
    queries = QueryWorkload(seed=5)
    sqls: dict[int, str] = {}
    results: dict[int, object] = {}
    for query in queries.mixed(8 if quick else QUERY_COUNT):
        result = session.query(query.sql)
        sqls[result.qid] = query.sql
        results[result.qid] = result
    stream = ZoomInWorkload(
        qids=sorted(sqls),
        instances=["ClassBird1", "ClassBird2", "SimCluster"],
        exponent=1.2,
        max_index=3,
        seed=19,
    ).stream(60 if quick else STREAM_LENGTH)
    total_bytes = sum(r.size_estimate() for r in results.values())
    return {
        "session": session,
        "sqls": sqls,
        "stream": stream,
        "total_bytes": total_bytes,
    }


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def replay_tiered(
    state: dict,
    mode: str,
    memory_bytes: int,
    disk_bytes: int,
    n_threads: int = REPLAY_THREADS,
) -> dict:
    """One concurrent replay of the stream; per-reference latencies."""
    session = state["session"]
    sqls = state["sqls"]
    cache = make_tiered_cache(mode, memory_bytes, disk_bytes)

    def recompute(qid: int):
        fresh = session.query(sqls[qid])
        fresh.qid = qid  # keep the stream's identity
        return fresh

    executor = ZoomInExecutor(session.annotations, cache, recompute)
    chunks = [state["stream"][i::n_threads] for i in range(n_threads)]
    latencies: list[list[float]] = [[] for _ in range(n_threads)]
    gate = threading.Barrier(n_threads + 1)

    def worker(index: int) -> None:
        gate.wait()
        for reference in chunks[index]:
            started = time.perf_counter()
            executor.execute(reference.command_text())
            latencies[index].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return {
        "seconds": time.perf_counter() - started,
        "latencies": [sample for lane in latencies for sample in lane],
        "counters": cache.counters,
    }


def measure_tiered(
    state: dict,
    mode: str,
    memory_bytes: int,
    disk_bytes: int,
    repeats: int,
    n_threads: int = REPLAY_THREADS,
) -> dict:
    """Median-of-``repeats`` replay cell for one mode at one budget."""
    runs = [
        replay_tiered(state, mode, memory_bytes, disk_bytes, n_threads)
        for _ in range(repeats)
    ]
    latencies = [sample for run in runs for sample in run["latencies"]]
    counters = runs[0]["counters"]
    return {
        "median_s": round(
            statistics.median(run["seconds"] for run in runs), 6
        ),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "hit_ratio": round(counters.hit_ratio, 3),
        "memory_hits": counters.memory_hits,
        "disk_hits": counters.disk_hits,
        "recomputes": counters.recomputes,
        "coalesced": counters.coalesced,
        "memory_bytes": memory_bytes,
        "disk_bytes": disk_bytes,
    }


def measure_stampede(
    state: dict, n_threads: int = STAMPEDE_THREADS
) -> dict:
    """N concurrent zoom-ins referencing one cold qid, counted.

    The single-flight guarantee under test: however the scheduler
    interleaves the threads, the referenced query executes exactly once.
    """
    session = state["session"]
    sqls = state["sqls"]
    cache = TieredZoomInCache(memory_bytes=1 << 22, disk_bytes=1 << 24)
    calls: list[int] = []
    call_lock = threading.Lock()

    def recompute(qid: int):
        with call_lock:
            calls.append(1)
        fresh = session.query(sqls[qid])
        fresh.qid = qid
        return fresh

    executor = ZoomInExecutor(session.annotations, cache, recompute)
    command = state["stream"][0].command_text()
    gate = threading.Barrier(n_threads + 1)
    latencies: list[float] = []
    lat_lock = threading.Lock()

    def worker() -> None:
        gate.wait()
        started = time.perf_counter()
        executor.execute(command)
        elapsed = time.perf_counter() - started
        with lat_lock:
            latencies.append(elapsed)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return {
        "median_s": round(time.perf_counter() - started, 6),
        "threads": n_threads,
        "computes": len(calls),
        "recomputes": cache.counters.recomputes,
        "coalesced": cache.counters.coalesced,
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
    }


def test_rco_weight_ablation(benchmark):
    """DESIGN.md ablation: sweep RCO's factor weights."""
    from repro.zoomin.rco import RCOWeights

    variants = {
        "balanced": RCOWeights(),
        "recency-only": RCOWeights(frequency=0.0, complexity=0.0, overhead=0.0),
        "no-size-discount": RCOWeights(overhead=0.0),
        "cost-heavy": RCOWeights(complexity=3.0),
    }
    rows = []
    for name, weights in variants.items():
        cache = _replay(lambda w=weights: RCOPolicy(w), capacity_fraction=0.3)
        rows.append(
            (name, cache.counters.hit_ratio, cache.counters.memory_evictions)
        )
    write_report(
        "exp_z1_rco_ablation",
        "EXP-Z1 ablation: RCO weight variants at 0.3x capacity",
        ["weights", "hit ratio", "evictions"],
        rows,
    )
    benchmark(lambda: None)
