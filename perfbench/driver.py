"""Set up a served annotation database, drive it, and report metrics.

One run of one workload:

1. **Set-up**, repeated ``setup_repeats`` times and reported as the
   median ``setup_s``: build the annotated database with
   ``build_workload``, start an :class:`AnnotationServer`
   (``readers=2, writers=1``) over it and warm it up by sending each
   request template once, so lazy statistics seeding and the caches are
   paid here and not by the first timed requests.  The last set-up is
   the one measured; the others are stopped and deleted.
2. **Measurement**: the workload's closed-loop clients run for
   ``--seconds`` on one event loop.  A workload with
   ``session_requests`` measures a series of equal server sessions
   instead of one: each restarts the server on a fresh session over the
   same files, warms it up untimed and sends that many requests per
   client.  Each request is a decoded protocol
   request handed to ``repro.serve.protocol.handle_request``; its
   response goes back through ``encode_response``.  Latency is timed
   around both.  With ``--trace 1`` the stretch alternates between
   untraced and traced windows of ``TRACE_WINDOW_S``; the per-layer
   metrics come from the requests sent in traced windows, and the ratio
   of the two windows' throughputs is the tracing overhead.
3. **Checks**, outside the timed region: see :mod:`perfbench.checks`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import itertools
import json
import math
import os
import random
import resource
import shutil
import sqlite3
import statistics
import sys
import time
from collections import defaultdict, deque
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import checks, layers
from perfbench.tracing import CURRENT, Recorder
from perfbench.workloads import (
    MIX,
    WORKLOADS,
    Bird,
    Client,
    DataView,
    WorkloadSpec,
    client_rng,
)
from repro.engine.session import InsightNotes
from repro.serve.protocol import encode_response, handle_request
from repro.serve.server import AnnotationServer, ServerConfig
from repro.storage.backend import shard_path
from repro.workloads.generator import WorkloadConfig, build_workload

#: Most requests a warm-up client may draw looking for unseen templates.
WARM_UP_DRAWS = 2000

#: Requests each client sends before timing starts, so every run starts
#: measuring from the same cache state (see ``run_workload``).  A
#: workload measured in server sessions needs none: every session starts
#: from the same state.
FILL_REQUESTS = {"ingest": 200, "analytic": 350}

#: Longest the cache fill may take, in seconds.
FILL_LIMIT_S = 90.0

#: Length of the alternating untraced and traced windows of a traced run.
TRACE_WINDOW_S = 1.0

#: Share of each client's reads kept for the serial replay check.
REPLAY_SAMPLE = {"browse": 0.15, "analytic": 0.2}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "req/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "zoomin_p50_ms": "ms",
    "zoomin_p90_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "ingest_annotations_per_s": "ann/s",
    "stats_p50_ms": "ms",
    "stored_bytes_per_annotation_byte": "ratio",
    "peak_rss_mb": "MiB",
}

DB_NAME = "notes.db"


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank ``fraction``-quantile: the smallest sample with at
    least ``fraction`` of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    # round() first: 0.9 * 10 is 9.000000000000002 in binary floating point.
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


@dataclass
class Record:
    """One request as a client saw it."""

    rid: int
    client: int
    tag: str
    op: str
    start: float
    end: float
    ok: bool
    traced: bool = False
    annotations: int = 0


@dataclass
class Segment:
    """What one measured stretch of closed-loop traffic produced."""

    records: list[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    def traced_seconds(self) -> float:
        """Time spent in the traced (odd-numbered) windows."""
        elapsed = self.elapsed
        windows = math.ceil(elapsed / TRACE_WINDOW_S)
        return sum(
            min(TRACE_WINDOW_S, elapsed - k * TRACE_WINDOW_S)
            for k in range(1, windows, 2)
        )


@dataclass
class Stretch:
    """The measured segments of one run, one per server session."""

    segments: list[Segment] = field(default_factory=list)

    @property
    def records(self) -> list[Record]:
        return [r for segment in self.segments for r in segment.records]

    @property
    def elapsed(self) -> float:
        return sum(segment.elapsed for segment in self.segments)

    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.ok)

    def traced_seconds(self) -> float:
        return sum(segment.traced_seconds() for segment in self.segments)


@dataclass
class Deployment:
    """A set-up database with its server and the checks' bookkeeping."""

    spec: WorkloadSpec
    directory: Path
    server: AnnotationServer
    view: DataView
    setup_seconds: float
    seed: int
    sampled: list[checks.Served] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    sql_by_qid: dict[int, str] = field(default_factory=dict)
    touched_rows: set[int] = field(default_factory=set)
    acknowledged: int = 0
    point_reads: dict[tuple[str, ...], list[list[Any]]] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return str(self.directory / DB_NAME)


#: Sends one request with its request id; returns the response and its
#: encoded line.
Handler = Callable[
    [AnnotationServer, dict[str, Any], int],
    Awaitable[tuple[dict[str, Any], bytes]],
]


async def plain_handler(
    server: AnnotationServer, request: dict[str, Any], rid: int
) -> tuple[dict[str, Any], bytes]:
    response = await handle_request(server, request)
    return response, encode_response(response)


def traced_handler(recorder: Recorder) -> Handler:
    async def handler(
        server: AnnotationServer, request: dict[str, Any], rid: int
    ) -> tuple[dict[str, Any], bytes]:
        token = CURRENT.set((rid, 0))
        try:
            response = await recorder.acall(
                "serve.handle", handle_request(server, request)
            )
            return response, recorder.call("serve.encode", encode_response, response)
        finally:
            CURRENT.reset(token)

    return handler


# -- set-up ---------------------------------------------------------------


def _data_view(session: InsightNotes) -> DataView:
    birds = [
        Bird(row_id, name, species, region, weight)
        for row_id, (name, species, region, weight) in session.db.rows("birds")
    ]
    return DataView(birds=birds, species=sorted({b.species for b in birds}))


def _clients(spec: WorkloadSpec, seed: int, view: DataView, stream: str) -> list[Client]:
    recent: deque[Bird] = deque(maxlen=64)
    return [
        Client(kind, client_rng(seed, f"{spec.name}{stream}", index), view, recent)
        for index, kind in enumerate(spec.clients)
    ]


async def _warm_up(server: AnnotationServer, clients: list[Client]) -> int:
    """Send every request template of every client once; returns how
    many annotations the server acknowledged."""
    acknowledged = 0
    for client in clients:
        seen: set[str] = set()
        tags = set(MIX[client.kind])
        for _ in range(WARM_UP_DRAWS):
            if seen >= tags:
                break
            tag, request = client.next_request()
            if tag in seen:
                continue
            response = await handle_request(server, request)
            encode_response(response)
            if not response["ok"]:
                raise RuntimeError(f"warm-up request failed: {response}")
            seen.add(tag)
            client.observe(tag, request, response)
            if request["op"] == "add_annotations":
                acknowledged += response["result"]["count"]
        else:
            raise RuntimeError(f"warm-up never produced {tags - seen}")
    return acknowledged


async def set_up(
    spec: WorkloadSpec, seed: int, directory: Path
) -> tuple[AnnotationServer, DataView, float]:
    """Build, serve and warm one database; returns its set-up seconds."""
    directory.mkdir(parents=True)
    started = time.perf_counter()
    session = InsightNotes(path=str(directory / DB_NAME), shards=spec.shards)
    build_workload(
        WorkloadConfig(
            num_birds=spec.birds,
            num_sightings=spec.sightings,
            annotations_per_row=spec.annotations_per_row,
            seed=seed,
        ),
        session=session,
    )
    server = AnnotationServer(session, ServerConfig(readers=2, writers=1))
    await server.start()
    view = _data_view(session)
    await _warm_up(server, _clients(spec, seed, view, ":warmup"))
    return server, view, time.perf_counter() - started


async def deploy(spec: WorkloadSpec, seed: int, work: Path) -> Deployment:
    """Set up ``spec.setup_repeats`` times; keep and return the last."""
    timings = []
    for repeat in range(spec.setup_repeats):
        directory = work / f"setup{repeat}"
        server, view, seconds = await set_up(spec, seed, directory)
        timings.append(seconds)
        if repeat < spec.setup_repeats - 1:
            await server.stop()
            shutil.rmtree(directory)
    deployment = Deployment(
        spec=spec,
        directory=directory,
        server=server,
        view=view,
        setup_seconds=statistics.median(timings),
        seed=seed,
    )
    # Every annotation stored so far, warm-up batches included.
    deployment.acknowledged = server.session.annotations.count()
    if spec.name in REPLAY_SAMPLE:
        _copy_database(deployment, work / "replay")
    return deployment


async def restart(deployment: Deployment, stream: str) -> None:
    """Stop the server and serve the same files from a fresh session,
    warmed up like a set-up's (on RNG streams named ``stream``)."""
    await deployment.server.stop()
    spec = deployment.spec
    session = InsightNotes(path=deployment.path, shards=spec.shards)
    deployment.server = AnnotationServer(session, ServerConfig(readers=2, writers=1))
    await deployment.server.start()
    # A fresh registry numbers its results from the start again.
    deployment.sql_by_qid.clear()
    deployment.acknowledged += await _warm_up(
        deployment.server,
        _clients(spec, deployment.seed, deployment.view, f"{stream}:warmup"),
    )


def traffic(deployment: Deployment, stream: str) -> list[tuple[Client, random.Random]]:
    """The workload's clients on RNG streams named ``stream``, each with
    the private RNG that picks which of its reads the replay check gets."""
    spec, seed = deployment.spec, deployment.seed
    return [
        (client, random.Random(f"perfbench:{spec.name}{stream}:{seed}:sample{index}"))
        for index, client in enumerate(_clients(spec, seed, deployment.view, stream))
    ]


def _copy_database(deployment: Deployment, target: Path) -> None:
    """Snapshot every shard file with SQLite's online backup."""
    target.mkdir()
    for shard in range(deployment.spec.shards):
        source = sqlite3.connect(shard_path(deployment.path, shard))
        copy = sqlite3.connect(shard_path(str(target / DB_NAME), shard))
        try:
            source.backup(copy)
        finally:
            copy.close()
            source.close()


# -- measurement --------------------------------------------------------------


async def _client_loop(
    deployment: Deployment,
    index: int,
    client: Client,
    sampler: random.Random,
    run: _Run,
    segment: Segment,
) -> None:
    rate = REPLAY_SAMPLE.get(deployment.spec.name, 0.0)
    server = deployment.server
    sent = 0
    while not run.over(sent):
        sent += 1
        tag, request = client.next_request()
        rid = next(run.rids)
        started = time.perf_counter()
        traced = run.traced_at(started)
        handler = run.traced if traced else plain_handler
        response, line = await handler(server, request, rid)
        ended = time.perf_counter()
        ok = bool(response["ok"])
        op = request["op"]
        record = Record(rid, index, tag, op, started, ended, ok, traced)
        segment.records.append(record)
        client.observe(tag, request, response)
        if not ok:
            continue
        if op == "add_annotations":
            record.annotations = response["result"]["count"]
            _note_write(deployment, request, response)
        elif op == "query":
            deployment.sql_by_qid[response["result"]["qid"]] = request["sql"]
            if client.kind == "reader":
                _note_point_read(deployment, request, response)
        keep = sampler.random() < rate
        if keep and op == "query":
            deployment.sampled.append(checks.Served(request, line))
        elif keep and op == "zoomin":
            qid = checks.referenced_qid(request["command"])
            deployment.sampled.append(
                checks.Served(request, line, deployment.sql_by_qid[qid])
            )


def _note_write(
    deployment: Deployment, request: dict[str, Any], response: dict[str, Any]
) -> None:
    count = response["result"]["count"]
    if count != len(request["specs"]) or len(
        set(response["result"]["annotation_ids"])
    ) != count:
        deployment.problems.append(f"bad add_annotations acknowledgement: {response}")
    deployment.acknowledged += count
    for spec in request["specs"]:
        if "row_id" in spec:
            deployment.touched_rows.add(spec["row_id"])
        else:
            deployment.touched_rows.update(cell.row_id for cell in spec["cells"])


def _note_point_read(
    deployment: Deployment, request: dict[str, Any], response: dict[str, Any]
) -> None:
    names = checks.point_read_names(request["sql"])
    rows = [row["values"] for row in response["result"]["tuples"]]
    if deployment.point_reads.setdefault(names, rows) != rows:
        deployment.problems.append(f"point read of {names} changed between requests")


@dataclass
class _Run:
    """One stretch of traffic.  A client's part ends at ``deadline`` or
    after ``quota`` requests, whichever comes first.  With a ``traced``
    handler, requests sent in odd-numbered windows go through it."""

    rids: itertools.count
    started: float
    deadline: float
    quota: int | None = None
    traced: Handler | None = None

    def traced_at(self, now: float) -> bool:
        if self.traced is None:
            return False
        return int((now - self.started) / TRACE_WINDOW_S) % 2 == 1

    def over(self, sent: int) -> bool:
        if self.quota is not None and sent >= self.quota:
            return True
        return time.perf_counter() >= self.deadline


async def measure(
    deployment: Deployment,
    clients: list[tuple[Client, random.Random]],
    seconds: float,
    rids: itertools.count,
    quota: int | None = None,
    traced: Handler | None = None,
) -> Segment:
    """Run ``clients`` closed-loop for ``seconds`` (or ``quota`` requests
    each)."""
    segment = Segment()
    segment.started = time.perf_counter()
    run = _Run(rids, segment.started, segment.started + seconds, quota, traced)
    await asyncio.gather(
        *(
            _client_loop(deployment, index, client, sampler, run, segment)
            for index, (client, sampler) in enumerate(clients)
        )
    )
    segment.ended = time.perf_counter()
    return segment


# -- metrics -------------------------------------------------------------------


def end_to_end(
    deployment: Deployment, stretch: Stretch, stored_ratio: float, peak_rss_mb: float
) -> dict[str, float]:
    latencies: dict[str, list[float]] = defaultdict(list)
    for record in stretch.records:
        if record.ok:
            latencies[record.op].append((record.end - record.start) * 1000)
    missing = {"query", "zoomin", "add_annotations", "stats"} - set(latencies)
    if missing:
        raise RuntimeError(f"run produced no successful {sorted(missing)} requests")
    acknowledged = sum(r.annotations for r in stretch.records)
    return {
        "setup_s": deployment.setup_seconds,
        "ops_per_s": stretch.ok_count() / stretch.elapsed,
        "query_p50_ms": percentile(latencies["query"], 0.50),
        "query_p90_ms": percentile(latencies["query"], 0.90),
        "zoomin_p50_ms": percentile(latencies["zoomin"], 0.50),
        "zoomin_p90_ms": percentile(latencies["zoomin"], 0.90),
        "ingest_p50_ms": percentile(latencies["add_annotations"], 0.50),
        "ingest_p90_ms": percentile(latencies["add_annotations"], 0.90),
        "ingest_annotations_per_s": acknowledged / stretch.elapsed,
        "stats_p50_ms": percentile(latencies["stats"], 0.50),
        "stored_bytes_per_annotation_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mb,
    }


def _stored_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one run ---------------------------------------------------------------------


async def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work: Path
) -> dict[str, Any]:
    spec = WORKLOADS[name]
    deployment = await deploy(spec, seed, work)
    rids = itertools.count(1)
    try:
        if name in FILL_REQUESTS:
            # Fill the caches before timing.  Every query result joins
            # the zoom-in cache, whose per-put cost grows with its entry
            # count, and the catalog's object cache fills as rows are
            # first read; a fixed amount of traffic puts every run at the
            # same point of that curve.
            await measure(
                deployment, traffic(deployment, ":fill"), FILL_LIMIT_S, rids,
                quota=FILL_REQUESTS[name],
            )
        if trace:
            stretch, per_layer = await _traced(deployment, seconds, rids)
        else:
            stretch = await _stretch(
                deployment, seconds, functools.partial(measure, deployment, rids=rids)
            )
        peak_rss = _peak_rss_mb()
        annotation_bytes = deployment.server.session.annotations.total_text_bytes()
    finally:
        await deployment.server.stop()
    stored_ratio = _stored_bytes(deployment.directory) / annotation_bytes

    problems = deployment.problems + _verify(deployment)
    if trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in per_layer.items()}
    else:
        values = end_to_end(deployment, stretch, stored_ratio, peak_rss)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    records = stretch.records
    _report_templates(records)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - stretch.ok_count(),
        "metrics": metrics,
    }


#: Runs one server session's clients for at most the given seconds and
#: ``quota`` requests each; returns what they produced.
SessionRun = Callable[..., Awaitable[Segment]]


async def _stretch(
    deployment: Deployment, seconds: float, run_session: SessionRun
) -> Stretch:
    """The measured stretch of ``seconds``.

    A workload with ``session_requests`` is measured in server sessions
    of that many requests per client, each on a freshly restarted
    server, until ``seconds`` of traffic are spent.  The zoom-in cache of
    one long session keeps filling, and past its memory tier the latency
    of every request keeps climbing; equal sessions give every run the
    same mix of session ages, however fast the machine is.
    """
    per_session = deployment.spec.session_requests
    if per_session is None:
        return Stretch([await run_session(traffic(deployment, ""), seconds)])
    stretch = Stretch()
    while stretch.elapsed < seconds:
        stream = f":session{len(stretch.segments)}"
        await restart(deployment, stream)
        clients = traffic(deployment, stream)
        stretch.segments.append(
            await run_session(clients, seconds - stretch.elapsed, quota=per_session)
        )
    return stretch


async def _traced(
    deployment: Deployment,
    seconds: float,
    rids: itertools.count,
) -> tuple[Stretch, dict[str, float]]:
    """Measure with tracing in every other window; per-layer metrics.

    The wrappers stay installed for the whole stretch, so untraced
    windows pay only their pass-through cost.  Alternating windows put
    both kinds at the same point of any drift the workload has.
    """
    recorder = Recorder()
    handler = traced_handler(recorder)
    moved: dict[str, float] = defaultdict(float)

    async def run_session(
        clients: list[tuple[Client, random.Random]], limit: float, quota: int | None = None
    ) -> Segment:
        server = deployment.server
        before = layers.snapshot(server)
        with server.session.db.track_queries():
            segment = await measure(
                deployment, clients, limit, rids, quota=quota, traced=handler
            )
        for key, value in layers.delta(before, layers.snapshot(server)).items():
            moved[key] += value
        return segment

    layers.install(recorder, deployment.server.session)
    try:
        stretch = await _stretch(deployment, seconds, run_session)
    finally:
        recorder.restore()
    per_layer = layers.metrics(recorder, stretch.records, moved)
    traced_seconds = stretch.traced_seconds()
    traced = sum(1 for r in stretch.records if r.ok and r.traced)
    traced_rate = traced / traced_seconds
    plain_rate = (stretch.ok_count() - traced) / (stretch.elapsed - traced_seconds)
    per_layer["trace.ops_per_s"] = traced_rate
    per_layer["trace.overhead_ratio"] = plain_rate / traced_rate
    session = deployment.server.session
    per_layer["storage.summary_bytes_per_annotation_byte"] = (
        session.catalog.summary_bytes() / session.annotations.total_text_bytes()
    )
    return stretch, per_layer


def _verify(deployment: Deployment) -> list[str]:
    spec = deployment.spec
    problems = checks.check_stored(
        deployment.path, spec.shards, deployment.touched_rows, deployment.acknowledged
    )
    problems += checks.check_point_reads(deployment.path, deployment.point_reads)
    if spec.name in REPLAY_SAMPLE:
        replica = InsightNotes(
            path=str(deployment.directory.parent / "replay" / DB_NAME),
            shards=spec.shards,
        )
        try:
            problems += checks.replay(replica, deployment.sampled)
        finally:
            replica.close()
    return problems


def _report_templates(records: list[Record]) -> None:
    """Per-template latency of the measured stretch, on stderr."""
    by_tag: dict[str, list[float]] = defaultdict(list)
    for record in records:
        by_tag[record.tag].append((record.end - record.start) * 1000)
    for tag, samples in sorted(by_tag.items()):
        print(f"  template {tag:10s} n={len(samples):5d} "
              f"p50={percentile(samples, 0.5):9.3f} ms "
              f"p90={percentile(samples, 0.9):9.3f} ms", file=sys.stderr)


def report(name: str, result: dict[str, Any]) -> None:
    """Human-readable summary on stderr."""
    failed_ratio = result["failed"] / result["attempted"]
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={failed_ratio:.4f}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = asyncio.run(run_workload(workload, seed, seconds, trace, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(workload, result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_work"
    work = scratch / str(os.getpid())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run(name, args.seed, args.seconds, bool(args.trace), work / name)
            for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1

