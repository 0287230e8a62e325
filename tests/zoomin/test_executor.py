"""Tests for repro.zoomin.executor."""

import pytest

from repro import InsightNotes
from repro.errors import UnknownQueryIdError, ZoomInError
from tests.conftest import TRAINING


@pytest.fixture
def stack():
    notes = InsightNotes()
    notes.create_table("T", ["C1", "C2", "C3"])
    notes.insert("T", ("x", "y", 5))
    notes.insert("T", ("x", "y", 10))
    notes.define_classifier("NB", ["refute", "approve"], [
        ("value is wrong needs fixing", "refute"),
        ("invalid experiment reject", "refute"),
        ("confirmed and verified correct", "approve"),
        ("looks correct to me", "approve"),
    ])
    notes.link("NB", "T")
    notes.add_annotation("value 5 is wrong", table="T", row_id=1)
    notes.add_annotation("needs fixing invalid", table="T", row_id=2)
    notes.add_annotation("invalid experiment", table="T", row_id=2)
    notes.add_annotation("confirmed correct", table="T", row_id=1)
    yield notes
    notes.close()


class TestExecution:
    def test_figure3a_refuting_annotations(self, stack):
        result = stack.query("SELECT C1, C2, C3 FROM T")
        zoom = stack.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} WHERE C1 = 'x' "
            f"ON NB INDEX 1"
        )
        counts = [len(match.annotations) for match in zoom.matches]
        assert counts == [1, 2]  # one refute on r1, two on r2

    def test_predicate_filters_tuples(self, stack):
        result = stack.query("SELECT C1, C2, C3 FROM T")
        zoom = stack.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} WHERE C3 = 5 ON NB INDEX 2"
        )
        assert len(zoom.matches) == 1
        assert zoom.matches[0].annotations[0].text == "confirmed correct"

    def test_no_index_expands_all_components(self, stack):
        result = stack.query("SELECT C1 FROM T LIMIT 1")
        zoom = stack.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} ON NB"
        )
        labels = [match.component.label for match in zoom.matches]
        assert labels == ["refute", "approve"]

    def test_annotation_count(self, stack):
        result = stack.query("SELECT C1, C2, C3 FROM T")
        zoom = stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB")
        assert zoom.annotation_count() == 4

    def test_unknown_qid_raises(self, stack):
        with pytest.raises(UnknownQueryIdError):
            stack.zoomin("ZOOMIN REFERENCE QID = 9999 ON NB")

    def test_index_out_of_range(self, stack):
        result = stack.query("SELECT C1 FROM T")
        with pytest.raises(ZoomInError, match="out of range"):
            stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB INDEX 7")

    def test_unknown_instance_raises_with_available_list(self, stack):
        result = stack.query("SELECT C1 FROM T")
        with pytest.raises(ZoomInError, match="available"):
            stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON Nope")

    def test_no_matching_tuples_is_empty_not_error(self, stack):
        result = stack.query("SELECT C1, C2, C3 FROM T")
        zoom = stack.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} WHERE C3 = 999 ON NB"
        )
        assert zoom.matches == []


class TestCacheInteraction:
    def test_query_result_pre_populates_cache(self, stack):
        result = stack.query("SELECT C1 FROM T")
        zoom = stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB")
        assert zoom.cache_hit

    def test_miss_falls_back_to_registry_and_refills(self, stack):
        result = stack.query("SELECT C1 FROM T")
        stack.cache.invalidate(result.qid)
        zoom = stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB")
        assert not zoom.cache_hit
        assert result.qid in stack.cache  # refilled
        second = stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB")
        assert second.cache_hit

    def test_repeated_zoomins_bump_reference_counts(self, stack):
        result = stack.query("SELECT C1 FROM T")
        for _ in range(3):
            stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON NB INDEX 1")
        assert stack.cache._entries_memory[result.qid].access_count == 3
