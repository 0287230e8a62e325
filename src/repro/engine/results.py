"""Query results and the QID registry.

Every executed query gets a unique **QID** and its materialized result is
kept in a registry, because zoom-in commands reference results by QID
("ZoomIn Reference QID = 101 ...").  The registry is bounded; evicted
results can still be recomputed by re-running their plan, which is exactly
the cost the zoom-in cache (RCO policy) exists to avoid.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.concurrency import make_lock
from repro.errors import UnknownQueryIdError
from repro.model.tuple import AnnotatedTuple


@dataclass
class QueryResult:
    """A materialized query result with its annotation summaries.

    Attributes
    ----------
    qid:
        Unique id assigned at execution time; zoom-in references it.
    columns:
        Output schema (qualified column names).
    tuples:
        The result tuples, each carrying its summary objects.
    sql:
        The originating SQL text ("" for programmatic plans).
    plan_text:
        Rendering of the executed physical plan.
    plan_cost:
        Structural cost estimate of the plan (RCO's complexity factor).
    cost_estimate:
        The cost model's abstract-unit estimate of re-running the plan
        (:class:`~repro.engine.cost.CostModel`); 0.0 when the session
        did not price the plan.  The zoom-in cache's admission policy
        uses this as the recompute price.
    elapsed_seconds:
        Wall-clock execution time.
    trace:
        The :class:`~repro.engine.operators.Tracer` holding per-operator
        intermediate tuples when the query ran with tracing enabled.
    stats:
        The :class:`~repro.engine.operators.ExecutionStats` counters
        (``rows_scanned``, ``rows_hydrated``, ``hydration_blocks``)
        populated during execution; None for deserialized or
        programmatically assembled results.
    """

    qid: int
    columns: tuple[str, ...]
    tuples: list[AnnotatedTuple]
    sql: str = ""
    plan_text: str = ""
    plan_cost: int = 1
    cost_estimate: float = 0.0
    elapsed_seconds: float = 0.0
    trace: Any | None = None
    stats: Any | None = None
    #: Memo of :meth:`size_estimate`; results are immutable once executed.
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tuples)

    def rows(self) -> list[tuple[Any, ...]]:
        """Plain value rows, without summaries."""
        return [row.values for row in self.tuples]

    def column_index(self, name: str) -> int:
        """Resolve an output column name (qualified or suffix)."""
        from repro.engine.expressions import resolve_column

        return resolve_column(self.columns, name)

    def size_estimate(self) -> int:
        """Approximate in-memory footprint (RCO's overhead factor).

        Walks the tuples once; later calls return the memo.
        """
        if self._size is None:
            total = 64
            for row in self.tuples:
                total += 16
                for value in row.values:
                    total += len(value) if isinstance(value, str) else 8
                total += row.total_summary_size()
                total += 16 * len(row.attachments)
            self._size = total
        return self._size

    def summary_instances(self) -> list[str]:
        """Names of summary instances present anywhere in the result."""
        names: set[str] = set()
        for row in self.tuples:
            names.update(row.summaries)
        return sorted(names)

    # -- serialization (disk-based result cache) -----------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-able form of the full result, summaries included.

        The operator trace is not serialized — it is a debugging view,
        not part of the result.
        """
        return {
            "qid": self.qid,
            "columns": list(self.columns),
            "sql": self.sql,
            "plan_text": self.plan_text,
            "plan_cost": self.plan_cost,
            "cost_estimate": self.cost_estimate,
            "elapsed_seconds": self.elapsed_seconds,
            "tuples": [
                {
                    "values": list(row.values),
                    "summaries": {
                        name: obj.to_json()
                        for name, obj in row.summaries.items()
                    },
                    "attachments": {
                        str(annotation_id): sorted(columns)
                        for annotation_id, columns in row.attachments.items()
                    },
                    "source_rows": sorted(
                        [table, row_id] for table, row_id in row.source_rows
                    ),
                }
                for row in self.tuples
            ],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any], registry) -> "QueryResult":
        """Rebuild a result serialized by :meth:`to_json`.

        ``registry`` is the summary-type registry used to revive the
        summary objects.
        """
        tuples = []
        for entry in data["tuples"]:
            tuples.append(
                AnnotatedTuple(
                    values=tuple(entry["values"]),
                    summaries={
                        name: registry.object_from_json(obj)
                        for name, obj in entry["summaries"].items()
                    },
                    attachments={
                        int(annotation_id): frozenset(columns)
                        for annotation_id, columns in entry["attachments"].items()
                    },
                    source_rows=frozenset(
                        (table, row_id)
                        for table, row_id in entry["source_rows"]
                    ),
                )
            )
        return cls(
            qid=data["qid"],
            columns=tuple(data["columns"]),
            tuples=tuples,
            sql=data.get("sql", ""),
            plan_text=data.get("plan_text", ""),
            plan_cost=data.get("plan_cost", 1),
            cost_estimate=data.get("cost_estimate", 0.0),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


class ResultRegistry:
    """Bounded QID -> :class:`QueryResult` map, oldest-first eviction.

    Results must remain addressable long enough for a user to issue
    zoom-in commands against them; the bounds keep an interactive session
    from accumulating every result ever produced.  Two bounds apply:
    ``capacity`` caps the result *count* (the original FIFO behaviour)
    and ``capacity_bytes`` caps the total estimated footprint using
    :meth:`QueryResult.size_estimate` — the RCO overhead factor — so a
    handful of huge results can no longer pin an unbounded number of
    bytes behind a generous count limit.  The newest result is always
    retained, even when it alone exceeds the byte budget (evicting the
    result just handed to the caller would be absurd).

    qids start at 101, or past ``reserved_through`` — the highest qid a
    previous process left in the zoom-in cache's disk tier — so a qid
    never names two results.
    """

    #: Default byte budget: 64 MiB of estimated result footprint.
    DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024

    def __init__(
        self,
        capacity: int = 256,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        reserved_through: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if capacity_bytes < 1:
            raise ValueError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        self._capacity = capacity
        self._capacity_bytes = capacity_bytes
        self._results: OrderedDict[int, QueryResult] = OrderedDict()
        self._total_bytes = 0
        # itertools.count.__next__ is atomic under the GIL, but the
        # registry map and its eviction loop are not — one lock for both.
        self._lock = make_lock("engine.results")
        # 101 matches the paper's QID=101.
        self._qid_counter = itertools.count(max(101, reserved_through + 1))

    def next_qid(self) -> int:
        """Allocate the next query id."""
        return next(self._qid_counter)

    @property
    def total_bytes(self) -> int:
        """Current estimated footprint of every retained result."""
        with self._lock:
            return self._total_bytes

    def register(self, result: QueryResult) -> None:
        """Store a result, evicting oldest-first past either bound."""
        size = result.size_estimate()
        with self._lock:
            replaced = self._results.pop(result.qid, None)
            if replaced is not None:
                self._total_bytes -= replaced.size_estimate()
            self._results[result.qid] = result
            self._total_bytes += size
            while len(self._results) > 1 and (
                len(self._results) > self._capacity
                or self._total_bytes > self._capacity_bytes
            ):
                _, evicted = self._results.popitem(last=False)
                self._total_bytes -= evicted.size_estimate()

    def get(self, qid: int) -> QueryResult:
        """Look up a result or raise :class:`UnknownQueryIdError`."""
        with self._lock:
            try:
                return self._results[qid]
            except KeyError:
                raise UnknownQueryIdError(qid) from None

    def __contains__(self, qid: int) -> bool:
        with self._lock:
            return qid in self._results

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def latest(self) -> QueryResult | None:
        """The most recently registered result, if any."""
        with self._lock:
            if not self._results:
                return None
            return next(reversed(self._results.values()))
