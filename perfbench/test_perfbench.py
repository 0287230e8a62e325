"""Self-tests of the benchmark's own arithmetic and request streams.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from pathlib import Path

import pytest

from perfbench.checks import canonical, point_read_names, referenced_qid
from perfbench import driver, layers
from perfbench.driver import END_TO_END, Segment, Stretch, percentile
from perfbench.layers import UNITS
from perfbench.tracing import CURRENT, Recorder, covered, in_context, self_times
from perfbench.workloads import WORKLOADS, Bird, Client, DataView, client_rng, quote

# -- percentiles ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(10, 0, -1)]
    assert percentile(samples, 0.5) == 5.0
    assert percentile(samples, 0.9) == 9.0
    assert percentile(samples, 1.0) == 10.0
    assert percentile([float(v) for v in range(1, 101)], 0.9) == 90.0
    assert percentile([float(v) for v in range(1, 102)], 0.9) == 91.0


def test_percentile_of_one_sample_and_of_none():
    assert percentile([3.5], 0.9) == 3.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        (1, 1, 0, "outer", 0.0, 10.0),
        (1, 2, 1, "mid", 1.0, 6.0),
        (1, 3, 2, "inner", 2.0, 3.0),
        (1, 4, 1, "mid", 7.0, 8.0),
    ]
    got = {(sid, name): seconds for sid, (_, name, seconds) in
           zip((1, 2, 3, 4), self_times(spans))}
    assert got == {(1, "outer"): 4.0, (2, "mid"): 4.0, (3, "inner"): 1.0,
                   (4, "mid"): 1.0}
    assert sum(got.values()) == 10.0


def test_parallel_children_on_other_threads_count_once():
    # Two shard threads working 2..6 and 4..8 under one 0..10 span.
    spans = [
        (7, 1, 0, "lane", 0.0, 10.0),
        (7, 2, 1, "shard", 2.0, 6.0),
        (7, 3, 1, "shard", 4.0, 8.0),
    ]
    assert self_times(spans)[0] == (7, "lane", 4.0)


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 5.0), (2.0, 3.0)], 0.0, 10.0) == 4.0


def test_spans_follow_the_request_onto_another_thread():
    recorder = Recorder()
    token = CURRENT.set((42, 0))
    try:
        def work():
            return recorder.call("child", lambda: None)

        parent_done = []

        def parent():
            worker = threading.Thread(target=in_context(work))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            parent_done.append(True)

        recorder.call("parent", parent)
    finally:
        CURRENT.reset(token)
    assert parent_done == [True]
    by_name = {name: (rid, sid, parent) for rid, sid, parent, name, _, _ in recorder.spans}
    assert by_name["child"][0] == 42
    assert by_name["child"][2] == by_name["parent"][1]
    assert by_name["parent"][2] == 0


def test_iterate_times_each_pull_and_closes_early():
    recorder = Recorder()
    closed = []

    def rows():
        try:
            yield from range(5)
        finally:
            closed.append(True)

    token = CURRENT.set((1, 0))
    try:
        wrapped = recorder.iterate("scan", rows())
        assert [next(wrapped), next(wrapped)] == [0, 1]
        wrapped.close()
    finally:
        CURRENT.reset(token)
    assert closed == [True]
    assert [span[3] for span in recorder.spans] == ["scan", "scan"]


def test_patches_are_restored():
    class Thing:
        def f(self):
            return 1

    class Child(Thing):
        pass

    recorder = Recorder()
    original = Thing.f
    recorder.wrap(Thing, "f", "thing.f")
    recorder.count_calls(Child, "f", "child.f")
    assert Child().f() == 1
    recorder.restore()
    assert Thing.f is original
    assert "f" not in Child.__dict__


# -- digests --------------------------------------------------------------------


def _query(qid: int, order: list[int], weight: float = 3.2) -> dict:
    rows = {
        1: {"values": ["Brant", weight], "summaries": {}, "attachments": {},
            "source_rows": [["birds", 1]]},
        2: {"values": ["Mute Swan", 9.1], "summaries": {}, "attachments": {},
            "source_rows": [["birds", 2]]},
    }
    return {"qid": qid, "columns": ["name", "weight"], "sql": "x",
            "plan_text": f"plan {qid}", "plan_cost": qid, "cost_estimate": 1.5 * qid,
            "elapsed_seconds": 0.01 * qid, "tuples": [rows[i] for i in order]}


def test_query_digest_ignores_qid_timing_plan_and_row_order():
    assert canonical("query", _query(101, [1, 2])) == canonical("query", _query(7, [2, 1]))


def test_query_digest_sees_a_changed_value():
    assert canonical("query", _query(1, [1, 2])) != canonical(
        "query", _query(1, [1, 2], weight=3.3)
    )


def test_zoomin_digest_ignores_the_referenced_qid_and_cache_source():
    match = {"values": ["Brant"], "component": {"index": 1, "label": "x", "detail": ""},
             "annotations": [{"annotation_id": 5, "text": "t"}]}
    served = {"command": "ZOOMIN REFERENCE QID = 101 ON C", "cache_hit": True,
              "source": "memory", "elapsed_seconds": 0.1, "annotation_count": 1,
              "matches": [match]}
    replayed = dict(served, command="ZOOMIN REFERENCE QID = 3 ON C", cache_hit=False,
                    source="recomputed", elapsed_seconds=0.2)
    assert canonical("zoomin", served) == canonical("zoomin", replayed)
    changed = dict(served, matches=[dict(match, annotations=[])])
    assert canonical("zoomin", served) != canonical("zoomin", changed)


def test_request_parsers():
    assert referenced_qid("ZOOMIN REFERENCE QID = 117 ON SimCluster") == 117
    listed = ", ".join(quote(n) for n in ("Brant 2", "O'Hara (x)", "Brant 2"))
    sql = f"SELECT name FROM birds WHERE name IN ({listed})"
    assert point_read_names(sql) == ("Brant 2", "O'Hara (x)")


# -- request streams ---------------------------------------------------------------


def _view() -> DataView:
    regions = ["northeast", "southeast", "midwest", "mountain", "pacific"]
    birds = [
        Bird(i, f"Bird {i}", f"species{i % 3}", regions[i % 5], 1.0 + i % 12)
        for i in range(1, 201)
    ]
    return DataView(birds=birds, species=sorted({b.species for b in birds}))


def _stream(kind: str, seed: int, steps: int, recent: deque | None = None,
            grow_recent: bool = False) -> list[tuple[str, dict]]:
    view = _view()
    client = Client(kind, client_rng(seed, "w", 0), view, recent)
    out = []
    for step in range(steps):
        if grow_recent:
            client.recent.extend(view.birds[: step % 7])
        tag, request = client.next_request()
        client.observe(tag, request, _response(request, qid=100 + step))
        out.append((tag, request))
    return out


def _response(request: dict, qid: int) -> dict:
    """A successful response of the shape the server sends."""
    if request["op"] == "query":
        row = {"values": [], "summaries": {"ClassBird1": {}, "SimCluster": {}}}
        return {"ok": True, "result": {"qid": qid, "tuples": [row]}}
    if request["op"] == "add_annotations":
        count = len(request["specs"])
        return {"ok": True, "result": {"count": count,
                                       "annotation_ids": list(range(count))}}
    return {"ok": True, "result": {}}


@pytest.mark.parametrize("kind", ["curator", "loader", "reader", "analyst"])
def test_streams_repeat_for_a_seed_and_differ_across_seeds(kind):
    first = _stream(kind, 3, 60)
    assert first == _stream(kind, 3, 60)
    assert first != _stream(kind, 4, 60)


def test_client_streams_are_independent_of_each_other():
    assert client_rng(5, "browse", 0).random() != client_rng(5, "browse", 1).random()
    # Client 0's stream is the same whether or not client 1 exists.
    alone = _stream("curator", 5, 40)
    view = _view()
    other = Client("curator", client_rng(5, "w", 1), view)
    mine = Client("curator", client_rng(5, "w", 0), view)
    interleaved = []
    for step in range(40):
        other_tag, other_request = other.next_request()
        other.observe(other_tag, other_request, _response(other_request, qid=999))
        tag, request = mine.next_request()
        mine.observe(tag, request, _response(request, qid=100 + step))
        interleaved.append((tag, request))
    assert interleaved == alone


@pytest.mark.parametrize("kind", ["curator", "reader", "analyst"])
def test_every_template_is_dealt_including_zoomins(kind):
    from perfbench.workloads import MIX

    stream = _stream(kind, 2, 300)
    assert {tag for tag, _ in stream} == set(MIX[kind])
    for step, (_tag, request) in enumerate(stream):
        if request["op"] == "zoomin":
            earlier = referenced_qid(request["command"]) - 100
            assert 0 <= earlier < step
            assert stream[earlier][1]["op"] == "query"


def test_reader_templates_do_not_depend_on_loader_progress():
    """The reader's rows come from the loader's acknowledged batches, so
    they vary with timing; its template sequence must not."""
    idle = [tag for tag, _ in _stream("reader", 9, 80, deque(maxlen=64))]
    busy = [tag for tag, _ in _stream("reader", 9, 80, deque(maxlen=64), grow_recent=True)]
    assert idle == busy


def test_reads_of_split_workloads_avoid_the_write_region():
    view = _view()
    write_names = {b.name for b in view.write_rows}
    for kind in ("curator", "analyst"):
        for tag, request in _stream(kind, 11, 300):
            if request["op"] == "query":
                assert "pacific" not in request["sql"]
                assert not any(f"'{name}'" in request["sql"] for name in write_names)
            if request["op"] == "add_annotations":
                rows = {s.get("row_id") for s in request["specs"]}
                rows |= {c.row_id for s in request["specs"] for c in s.get("cells", ())}
                assert rows - {None} <= {b.row_id for b in view.write_rows}


def test_curator_zooms_into_range_results_only():
    stream = _stream("curator", 4, 400)
    zoomins = [r for _, r in stream if r["op"] == "zoomin"]
    assert len(zoomins) > 50
    for request in zoomins:
        earlier = referenced_qid(request["command"]) - 100
        assert stream[earlier][0] == "range"


# -- measured stretches and counters ---------------------------------------


def _segment(started: float, ended: float) -> Segment:
    return Segment(started=started, ended=ended)


def test_stretch_sums_its_sessions():
    stretch = Stretch([_segment(0.0, 2.5), _segment(10.0, 11.5)])
    assert stretch.elapsed == pytest.approx(4.0)
    # Windows restart with each session: [1, 2) of the first, [1, 1.5)
    # of the second.
    assert stretch.traced_seconds() == pytest.approx(1.5)


def test_sessions_run_until_the_seconds_are_spent(monkeypatch):
    restarts: list[str] = []
    calls: list[tuple[str, float, int | None]] = []

    async def fake_restart(deployment, stream):
        restarts.append(stream)

    monkeypatch.setattr(driver, "restart", fake_restart)
    monkeypatch.setattr(driver, "traffic", lambda deployment, stream: stream)

    async def run_session(clients, limit, quota=None):
        calls.append((clients, limit, quota))
        return _segment(0.0, min(limit, 4.0))

    class Spec:
        session_requests = 7

    class Deployment:
        spec = Spec()

    stretch = asyncio.run(driver._stretch(Deployment(), 10.0, run_session))
    assert restarts == [":session0", ":session1", ":session2"]
    assert [c[0] for c in calls] == restarts
    assert [c[1] for c in calls] == pytest.approx([10.0, 6.0, 2.0])
    assert {c[2] for c in calls} == {7}
    assert stretch.elapsed == pytest.approx(10.0)

    Spec.session_requests = None
    restarts.clear()
    calls.clear()
    stretch = asyncio.run(driver._stretch(Deployment(), 10.0, run_session))
    assert restarts == [] and calls == [("", 10.0, None)]


def test_counter_deltas_and_ratios():
    before = {"zoomin.hits": 5, "zoomin.misses": 5, "lane.read.queue_seconds": 1.0,
              "lane.read.completed": 10}
    after = {"zoomin.hits": 8, "zoomin.misses": 6, "lane.read.queue_seconds": 1.5,
             "lane.read.completed": 20, "lane.write.completed": 4}
    moved = layers.delta(before, after)
    assert moved["zoomin.hits"] == 3 and moved["lane.write.completed"] == 4
    values = layers.metrics(Recorder(), [], moved)
    assert values["zoomin.hit_ratio"] == pytest.approx(0.75)
    assert values["serve.read_queue_ms"] == pytest.approx(50.0)
    assert values["serve.write_queue_ms"] == 0.0
    assert values["storage.object_cache_hit_ratio"] == 0.0


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
