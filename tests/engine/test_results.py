"""Tests for repro.engine.results."""

import pytest

from repro.engine.results import QueryResult, ResultRegistry
from repro.errors import UnknownQueryIdError
from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierSummary


def make_result(qid: int, rows: int = 2) -> QueryResult:
    tuples = []
    for i in range(rows):
        summary = ClassifierSummary("C", ["a"])
        summary.add(i + 1, "a")
        tuples.append(
            AnnotatedTuple(values=(i, f"text{i}"), summaries={"C": summary})
        )
    return QueryResult(qid=qid, columns=("t.n", "t.s"), tuples=tuples)


class TestQueryResult:
    def test_len_and_rows(self):
        result = make_result(1, rows=3)
        assert len(result) == 3
        assert result.rows()[0] == (0, "text0")

    def test_column_index(self):
        result = make_result(1)
        assert result.column_index("s") == 1
        assert result.column_index("t.n") == 0

    def test_size_estimate_grows_with_rows(self):
        assert make_result(1, rows=10).size_estimate() > make_result(
            1, rows=1
        ).size_estimate()

    def test_size_estimate_walks_the_tuples_once(self, monkeypatch):
        result = make_result(1, rows=3)
        walked: list[int] = []
        original = AnnotatedTuple.total_summary_size

        def counting(row):
            walked.append(1)
            return original(row)

        monkeypatch.setattr(AnnotatedTuple, "total_summary_size", counting)
        first = result.size_estimate()
        assert len(walked) == 3
        assert result.size_estimate() == first
        assert len(walked) == 3  # the second call reads the memo

    def test_summary_instances(self):
        assert make_result(1).summary_instances() == ["C"]


class TestResultRegistry:
    def test_qids_start_at_101(self):
        registry = ResultRegistry()
        assert registry.next_qid() == 101
        assert registry.next_qid() == 102

    def test_register_and_get(self):
        registry = ResultRegistry()
        result = make_result(registry.next_qid())
        registry.register(result)
        assert registry.get(result.qid) is result
        assert result.qid in registry

    def test_get_unknown_raises(self):
        registry = ResultRegistry()
        with pytest.raises(UnknownQueryIdError):
            registry.get(999)

    def test_capacity_evicts_oldest(self):
        registry = ResultRegistry(capacity=2)
        results = [make_result(registry.next_qid()) for _ in range(3)]
        for result in results:
            registry.register(result)
        assert len(registry) == 2
        assert results[0].qid not in registry
        assert results[2].qid in registry

    def test_latest(self):
        registry = ResultRegistry()
        assert registry.latest() is None
        first = make_result(registry.next_qid())
        second = make_result(registry.next_qid())
        registry.register(first)
        registry.register(second)
        assert registry.latest() is second

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultRegistry(capacity=0)

    def test_invalid_capacity_bytes(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            ResultRegistry(capacity_bytes=0)

    def test_byte_budget_evicts_oldest(self):
        # A generous count bound with a byte budget that holds ~3 of
        # the 10-row results: eviction must be driven by bytes, not
        # count, and the retained footprint must respect the budget.
        size = make_result(1, rows=10).size_estimate()
        registry = ResultRegistry(capacity=100, capacity_bytes=3 * size)
        results = [
            make_result(registry.next_qid(), rows=10) for _ in range(6)
        ]
        for result in results:
            registry.register(result)
        assert len(registry) == 3
        assert registry.total_bytes <= 3 * size
        for stale in results[:3]:
            assert stale.qid not in registry
        for kept in results[3:]:
            assert kept.qid in registry

    def test_huge_newest_result_is_retained(self):
        # One result alone over the budget must still be addressable —
        # evicting the result just handed to the caller is never right.
        registry = ResultRegistry(capacity=100, capacity_bytes=64)
        big = make_result(registry.next_qid(), rows=50)
        assert big.size_estimate() > 64
        registry.register(big)
        assert registry.get(big.qid) is big
        assert len(registry) == 1

    def test_byte_accounting_tracks_evictions(self):
        size = make_result(1, rows=4).size_estimate()
        registry = ResultRegistry(capacity=2, capacity_bytes=10 * size)
        for _ in range(5):
            registry.register(make_result(registry.next_qid(), rows=4))
        assert len(registry) == 2
        assert registry.total_bytes == 2 * size

    def test_qids_start_past_the_reserved_ones(self):
        assert ResultRegistry().next_qid() == 101
        assert ResultRegistry(reserved_through=57).next_qid() == 101
        assert ResultRegistry(reserved_through=250).next_qid() == 251

    def test_reregistering_same_qid_does_not_double_count(self):
        registry = ResultRegistry()
        result = make_result(registry.next_qid(), rows=4)
        registry.register(result)
        once = registry.total_bytes
        registry.register(result)
        assert registry.total_bytes == once
        assert len(registry) == 1
