"""Per-layer metrics of the traced run.

:func:`install` wraps the public functions below with
:class:`~perfbench.tracing.Recorder` spans; :func:`metrics` turns the
recorded spans, counts and before/after counter snapshots into the
per-layer metrics.  Times are self times (a span minus its children),
so on a single client the layer times of one operation class add up to
its request latency.  Each time or count is a mean per request of the
operation class named in :data:`LAYERS`, over the requests sent in
traced windows; ratios are counter deltas over the whole stretch.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Callable
from typing import Any

from perfbench.tracing import Recorder, in_context, self_times
from repro.engine import session as session_module
from repro.engine.cost import CostModel
from repro.engine.planner import Planner
from repro.engine.results import QueryResult, ResultRegistry
from repro.maintenance.incremental import SummaryManager
from repro.maintenance.invariants import ContributionCache
from repro.serve.server import AnnotationServer
from repro.storage.annotations import AnnotationStore
from repro.storage.catalog import SummaryCatalog
from repro.storage.database import Database, QueryCounter
from repro.storage.pool import ConnectionPool
from repro.storage.sharded import ShardedBackend
from repro.summaries.base import SummaryObject
from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterSummary
from repro.summaries.snippet import SnippetSummary
from repro.zoomin.executor import ZoomInExecutor, ZoomInResult

QUERY = "query"
ZOOMIN = "zoomin"
INGEST = "add_annotations"
ALL = "*"

#: metric -> (span or count name, operation class it is averaged over).
#: A name ending in ``_ms`` is a span self time; the rest are counts.
LAYERS: dict[str, tuple[str, str]] = {
    "serve.self_ms": ("serve.handle", ALL),
    "serve.encode_ms": ("serve.encode", ALL),
    "engine.session_self_ms": ("serve.worker", ALL),
    "engine.parse_ms": ("engine.parse", QUERY),
    "engine.plan_ms": ("engine.plan", QUERY),
    "engine.cost_ms": ("engine.cost", QUERY),
    "engine.execute_self_ms": ("engine.execute", QUERY),
    "engine.register_ms": ("engine.register", QUERY),
    "engine.size_estimate_calls_per_query": ("engine.size_estimate", QUERY),
    "engine.rows_scanned_per_query": ("engine.rows_scanned", QUERY),
    "engine.rows_hydrated_per_query": ("engine.rows_hydrated", QUERY),
    "zoomin.execute_ms": ("zoomin.execute", ZOOMIN),
    "zoomin.cache_put_ms": ("zoomin.cache_put", QUERY),
    "zoomin.cache_get_ms": ("zoomin.cache_get", ZOOMIN),
    "storage.scan_ms": ("storage.scan", QUERY),
    "storage.scan_calls_per_query": ("storage.scan_call", QUERY),
    "storage.hydrate_ms": ("storage.hydrate", QUERY),
    "storage.read_checkouts_per_query": ("storage.read_checkout", QUERY),
    "storage.statements_per_query": ("storage.statement", QUERY),
    "storage.statements_per_ingest": ("storage.statement", INGEST),
    "storage.annotation_write_ms": ("storage.annotation_write", INGEST),
    "storage.summary_write_ms": ("storage.summary_write", INGEST),
    "maintenance.fold_ms": ("maintenance.fold", INGEST),
    "summaries.analyze_ms": ("summaries.analyze", INGEST),
    "summaries.classifier.merge_ms": ("summaries.classifier.merge", QUERY),
    "summaries.cluster.merge_ms": ("summaries.cluster.merge", QUERY),
    "summaries.snippet.merge_ms": ("summaries.snippet.merge", QUERY),
    "summaries.merge_calls_per_query": ("summaries.merge_call", QUERY),
}

#: Every per-layer metric with its unit, including the ones computed
#: from counter snapshots rather than spans.
UNITS: dict[str, str] = {
    **{
        name: ("ms" if name.endswith("_ms") else "count")
        for name in LAYERS
    },
    "serve.read_queue_ms": "ms",
    "serve.write_queue_ms": "ms",
    "zoomin.hit_ratio": "ratio",
    "storage.object_cache_hit_ratio": "ratio",
    "storage.write_wait_ms": "ms",
    "storage.summary_bytes_per_annotation_byte": "ratio",
    "maintenance.summarize_once_hit_ratio": "ratio",
    "maintenance.objects_written_per_annotation": "ratio",
    "trace.ops_per_s": "req/s",
    "trace.overhead_ratio": "ratio",
}

#: (owner, attribute, span name) of every function timed as a span.
_SPANS: list[tuple[Any, str, str]] = [
    (session_module, "parse_sql", "engine.parse"),
    (session_module, "build_logical", "engine.plan"),
    (Planner, "prepare", "engine.plan"),
    (Planner, "physical", "engine.plan"),
    (CostModel, "estimate", "engine.cost"),
    (ResultRegistry, "register", "engine.register"),
    (QueryResult, "to_json", "serve.encode"),
    (ZoomInResult, "to_json", "serve.encode"),
    (ZoomInExecutor, "execute", "zoomin.execute"),
    (SummaryManager, "objects_for_rows", "storage.hydrate"),
    (SummaryManager, "attachments_for_rows", "storage.hydrate"),
    (AnnotationStore, "attachments_for_rows", "storage.hydrate"),
    (AnnotationStore, "add_many", "storage.annotation_write"),
    (SummaryCatalog, "save_objects", "storage.summary_write"),
    (SummaryManager, "add_annotations", "maintenance.fold"),
    (ContributionCache, "analyze_many", "summaries.analyze"),
    (SummaryObject, "fold_many", "summaries.analyze"),
    (ClassifierSummary, "fold_many", "summaries.analyze"),
    (ClusterSummary, "fold_many", "summaries.analyze"),
]

_MERGES = [
    (ClassifierSummary, "summaries.classifier.merge"),
    (ClusterSummary, "summaries.cluster.merge"),
    (SnippetSummary, "summaries.snippet.merge"),
]


def install(recorder: Recorder, session: Any) -> None:
    """Patch the timed functions; :meth:`Recorder.restore` undoes it."""
    for owner, attr, name in _SPANS:
        recorder.wrap(owner, attr, name)
    cache_type = type(session.cache)
    recorder.wrap(cache_type, "put", "zoomin.cache_put")
    recorder.wrap(cache_type, "get", "zoomin.cache_get")
    for owner, name in _MERGES:
        recorder.wrap_counted(owner, "merge", name, "summaries.merge_call")
    recorder.count_calls(QueryResult, "size_estimate", "engine.size_estimate")
    recorder.count_calls(ConnectionPool, "read", "storage.read_checkout")
    # Called once per SQL statement on the thread that ran it, while
    # Database.track_queries is open.
    recorder.count_calls(QueryCounter, "_record", "storage.statement")
    recorder.wrap_counted(Database, "scan_aggregate", "storage.scan", "storage.scan_call")
    _patch_scan(recorder)
    _patch_execute_plan(recorder)
    _patch_threads(recorder)


def _patch_scan(recorder: Recorder) -> None:
    original = Database.scan

    @functools.wraps(original)
    def scan(*args: Any, **kw: Any) -> Any:
        recorder.count("storage.scan_call")
        rows = recorder.call("storage.scan", original, *args, **kw)
        return recorder.iterate("storage.scan", rows)

    recorder.patch(Database, "scan", scan)


def _patch_execute_plan(recorder: Recorder) -> None:
    original = session_module.execute_plan

    @functools.wraps(original)
    def execute_plan(*args: Any, **kw: Any) -> Any:
        result = recorder.call("engine.execute", original, *args, **kw)
        if result.stats is not None:
            recorder.count("engine.rows_scanned", result.stats.rows_scanned)
            recorder.count("engine.rows_hydrated", result.stats.rows_hydrated)
        return result

    recorder.patch(session_module, "execute_plan", execute_plan)


def _patch_threads(recorder: Recorder) -> None:
    """Carry the request context onto the threads that do its work."""
    submit = AnnotationServer.submit

    @functools.wraps(submit)
    async def traced_submit(
        self: AnnotationServer,
        lane_name: str,
        op: str,
        fn: Callable[[], Any],
        *args: Any,
        **kw: Any,
    ) -> Any:
        worker = functools.partial(recorder.call, "serve.worker", fn)
        return await submit(self, lane_name, op, in_context(worker), *args, **kw)

    recorder.patch(AnnotationServer, "submit", traced_submit)

    submit_scan = ShardedBackend.submit_scan

    @functools.wraps(submit_scan)
    def traced_submit_scan(self: ShardedBackend, fn: Callable[..., Any], *args: Any) -> Any:
        return submit_scan(self, in_context(fn), *args)

    recorder.patch(ShardedBackend, "submit_scan", traced_submit_scan)

    fanout = ShardedBackend.run_write_fanout

    @functools.wraps(fanout)
    def traced_fanout(self: ShardedBackend, thunks: Any) -> Any:
        return fanout(self, [in_context(thunk) for thunk in thunks])

    recorder.patch(ShardedBackend, "run_write_fanout", traced_fanout)


def snapshot(server: AnnotationServer) -> dict[str, float]:
    """The cumulative counters the ratio metrics are deltas of, by name."""
    session = server.session
    counters: dict[str, float] = {}
    for name, lane in server.stats.snapshot()["lanes"].items():
        counters[f"lane.{name}.queue_seconds"] = lane["queue_seconds"]
        counters[f"lane.{name}.completed"] = lane["completed"]
    zoomin = session.cache.stats_json()
    counters["zoomin.hits"] = zoomin["memory_hits"] + zoomin["disk_hits"]
    counters["zoomin.misses"] = zoomin["misses"]
    object_cache = session.catalog.object_cache_info()
    counters["object_cache.hits"] = object_cache["hits"]
    counters["object_cache.misses"] = object_cache["misses"]
    counters["write_wait_ms"] = sum(
        shard["write_wait_ms"] for shard in session.db.backend.counters().values()
    )
    contributions = session.manager.contributions.stats
    counters["summarize_once.hits"] = contributions.hits
    counters["summarize_once.misses"] = contributions.misses
    counters["maintenance.written"] = session.manager.stats.objects_updated
    counters["maintenance.processed"] = session.manager.stats.annotations_processed
    return counters


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """How far each counter of :func:`snapshot` moved."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _ratio(moved: dict[str, float], name: str) -> float:
    hits, misses = moved.get(f"{name}.hits", 0), moved.get(f"{name}.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _per(moved: dict[str, float], numerator: str, denominator: str, scale: float = 1.0) -> float:
    count = moved.get(denominator, 0)
    return moved.get(numerator, 0) * scale / count if count else 0.0


def metrics(
    recorder: Recorder,
    records: list[Any],
    moved: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the traced requests among ``records`` and
    the counters ``moved`` while they ran (summed :func:`delta` values)."""
    op_of = {r.rid: r.op for r in records if r.ok and r.traced}
    requests: dict[str, int] = defaultdict(int)
    for op in op_of.values():
        requests[op] += 1
        requests[ALL] += 1
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for rid, name, seconds in self_times(recorder.spans):
        op = op_of.get(rid)
        if op is not None:
            totals[(name, op)] += seconds * 1000
            totals[(name, ALL)] += seconds * 1000
    for rid, name, value in recorder.counts:
        op = op_of.get(rid)
        if op is not None:
            totals[(name, op)] += value
            totals[(name, ALL)] += value
    values = {
        metric: totals[(source, op)] / requests[op] if requests[op] else 0.0
        for metric, (source, op) in LAYERS.items()
    }
    for lane, metric in (("read", "serve.read_queue_ms"), ("write", "serve.write_queue_ms")):
        values[metric] = _per(
            moved, f"lane.{lane}.queue_seconds", f"lane.{lane}.completed", 1000
        )
    values["zoomin.hit_ratio"] = _ratio(moved, "zoomin")
    values["storage.object_cache_hit_ratio"] = _ratio(moved, "object_cache")
    ingests = requests[INGEST]
    values["storage.write_wait_ms"] = (
        moved.get("write_wait_ms", 0) / ingests if ingests else 0.0
    )
    values["maintenance.summarize_once_hit_ratio"] = _ratio(moved, "summarize_once")
    values["maintenance.objects_written_per_annotation"] = _per(
        moved, "maintenance.written", "maintenance.processed"
    )
    return values
