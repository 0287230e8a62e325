"""Correctness checks the benchmark runs outside its timed region.

* :func:`canonical` reduces a served ``query`` or ``zoomin`` result to
  the part that must not depend on when or where it ran: qids, timings,
  plan text and cost estimates go; rows are compared as a multiset.
* :func:`replay` re-runs sampled read requests one at a time against a
  copy of the post-setup database and compares canonical digests.
* :func:`check_stored` checks the paper's incremental-maintenance claim
  on every row the run annotated: the persisted summary objects equal a
  rebuild from the raw annotations (``maintenance/rebuild.py``).  It
  also checks that every acknowledged annotation was stored.
* :func:`check_point_reads` compares served rows with direct SQLite
  reads.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.engine.session import InsightNotes
from repro.maintenance.rebuild import rebuild_row

#: Result fields that legitimately differ between two runs of one read.
_QUERY_VOLATILE = ("qid", "sql", "plan_text", "plan_cost", "cost_estimate",
                   "elapsed_seconds")
_ZOOMIN_VOLATILE = ("command", "cache_hit", "source", "elapsed_seconds")
_QID = re.compile(r"QID\s*=\s*(\d+)")
_NAMES = re.compile(r"WHERE name IN \(((?:[^()']|'(?:[^']|'')*')*)\)")
_LITERAL = re.compile(r"'((?:[^']|'')*)'")


def _multiset(items: Iterable[Any]) -> list[str]:
    return sorted(json.dumps(item, sort_keys=True) for item in items)


def canonical(op: str, result: dict[str, Any]) -> str:
    """A digest of the run-independent content of one read result."""
    if op == "query":
        kept = {k: v for k, v in result.items() if k not in _QUERY_VOLATILE}
        kept["tuples"] = _multiset(kept["tuples"])
    elif op == "zoomin":
        kept = {k: v for k, v in result.items() if k not in _ZOOMIN_VOLATILE}
        kept["matches"] = _multiset(kept["matches"])
    else:
        raise ValueError(f"no canonical form for op {op!r}")
    encoded = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def point_read_names(sql: str) -> tuple[str, ...]:
    """The bird names a point read (``WHERE name IN ('...', ...)``) looks
    up, sorted and without repeats."""
    match = _NAMES.search(sql)
    if match is None:
        raise ValueError(f"not a point read: {sql!r}")
    return tuple(sorted({
        literal.replace("''", "'") for literal in _LITERAL.findall(match.group(1))
    }))


def referenced_qid(command: str) -> int:
    """The qid a ZOOMIN command references."""
    match = _QID.search(command)
    if match is None:
        raise ValueError(f"no QID in {command!r}")
    return int(match.group(1))


@dataclass
class Served:
    """One sampled served read: its request and encoded response line;
    for a zoom-in, also the SQL of the query whose qid it references."""

    request: dict[str, Any]
    line: bytes
    referenced_sql: str | None = None


def replay(session: InsightNotes, sampled: list[Served]) -> list[str]:
    """Re-run ``sampled`` serially on ``session``; returns mismatches.

    A sampled zoom-in first re-runs the query it references and is
    rewritten to the replay's qid.
    """
    problems: list[str] = []
    for served in sampled:
        request = served.request
        response = json.loads(served.line)
        op = request["op"]
        if op == "query":
            expected = session.query(request["sql"]).to_json()
        else:
            if served.referenced_sql is None:
                raise ValueError(f"sampled zoom-in without its query: {request}")
            fresh = session.query(served.referenced_sql).qid
            command = _QID.sub(f"QID = {fresh}", request["command"], count=1)
            expected = session.zoomin(command).to_json()
        if canonical(op, response["result"]) != canonical(op, expected):
            problems.append(f"{op} differs on replay: {request}")
    return problems


def _object_json(obj: Any) -> str | None:
    return None if obj is None else json.dumps(obj.to_json(), sort_keys=True)


def check_stored(
    path: str,
    shards: int,
    touched_rows: Iterable[int],
    expected_annotations: int,
) -> list[str]:
    """Checks of the stopped database after a run that wrote."""
    problems: list[str] = []
    session = InsightNotes(path=path, shards=shards)
    try:
        stored = session.annotations.count()
        if stored != expected_annotations:
            problems.append(
                f"{stored} annotations stored, {expected_annotations} acknowledged"
            )
        instances = session.catalog.instances_for_table("birds")
        for row_id in sorted(set(touched_rows)):
            for instance in instances:
                persisted = session.catalog.load_object(instance.name, "birds", row_id)
                rebuilt = rebuild_row(
                    session.annotations, session.catalog, instance, "birds",
                    row_id, persist=False,
                )
                if _object_json(persisted) != _object_json(rebuilt):
                    problems.append(
                        f"{instance.name} summary of birds row {row_id} differs "
                        "from a rebuild"
                    )
    finally:
        session.close()
    return problems


def check_point_reads(
    path: str, point_reads: dict[tuple[str, ...], list[list[Any]]]
) -> list[str]:
    """``point_reads`` maps each set of bird names a reader looked up to
    the value rows it was served; they must equal a direct SQLite read
    of the same predicate on the stopped database."""
    problems: list[str] = []
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        for names, served in point_reads.items():
            marks = ", ".join("?" for _ in names)
            direct = [
                list(row)
                for row in connection.execute(
                    "SELECT name, species, region, weight FROM birds "
                    f"WHERE name IN ({marks}) ORDER BY rowid",
                    names,
                )
            ]
            if direct != served:
                problems.append(f"point read of {names}: served {served}, "
                                f"stored {direct}")
    finally:
        connection.close()
    return problems
