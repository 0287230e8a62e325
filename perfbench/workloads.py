"""Workload definitions and per-client request streams.

A workload fixes the annotated database the benchmark builds
(``repro.workloads.generator.build_workload`` with the paper's Figure 1
instances) and the closed-loop clients that drive it.  Every client
draws from its own RNG stream, derived from the run seed and the
client's index, so one client's request sequence never depends on how
the threads of the server interleave the others.

Each client yields decoded protocol requests (``{"op": ..., ...}``) and
is told the response to each, which is how zoom-ins learn the qids
they may reference.  Nothing here touches the server.

``browse`` and ``analytic`` keep their reads off the rows their writes
target: reads only name rows of the ``READ_REGIONS`` and writes only
annotate ``WRITE_REGION`` rows, so a serial replay of the reads against
a copy of the post-setup database must reproduce every served answer.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.model.cell import CellRef
from repro.workloads.corpus import AnnotationFactory

READ_REGIONS = ("northeast", "southeast", "midwest", "mountain")
WRITE_REGION = "pacific"
BIRD_COLUMNS = ("name", "species", "region", "weight")


@dataclass(frozen=True)
class WorkloadSpec:
    """The database and client set of one workload."""

    name: str
    birds: int
    sightings: int
    annotations_per_row: int
    shards: int
    clients: tuple[str, ...]
    setup_repeats: int
    #: Requests each client sends to one server session before the
    #: measurement restarts the server on a fresh session over the same
    #: files; ``None`` measures one session throughout.
    session_requests: int | None = None


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="browse",
            birds=2000,
            sightings=200,
            annotations_per_row=3,
            shards=1,
            clients=("curator",),
            setup_repeats=3,
            session_requests=1200,
        ),
        WorkloadSpec(
            name="ingest",
            birds=2000,
            sightings=200,
            annotations_per_row=3,
            shards=1,
            clients=("loader", "reader"),
            setup_repeats=3,
        ),
        WorkloadSpec(
            name="analytic",
            birds=3000,
            sightings=1200,
            annotations_per_row=8,
            shards=4,
            clients=("analyst",),
            setup_repeats=2,
        ),
    )
}


@dataclass(frozen=True)
class Bird:
    """One ``birds`` row as the generator stored it."""

    row_id: int
    name: str
    species: str
    region: str
    weight: float


@dataclass
class DataView:
    """What the clients know about the database after set-up."""

    birds: list[Bird]
    species: list[str]
    read_rows: list[Bird] = field(default_factory=list)
    write_rows: list[Bird] = field(default_factory=list)
    by_id: dict[int, Bird] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_id = {b.row_id: b for b in self.birds}
        self.read_rows = [b for b in self.birds if b.region != WRITE_REGION]
        self.write_rows = [b for b in self.birds if b.region == WRITE_REGION]


def client_rng(seed: int, workload: str, index: int) -> random.Random:
    """The private RNG stream of one client (string seeds hash stably)."""
    return random.Random(f"perfbench:{workload}:{seed}:client{index}")


def quote(value: str) -> str:
    """A SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


class Client:
    """A closed-loop client: one request out, wait, the next one.

    ``next_request`` returns the name of a request template
    (``point``, ``group``, ...) and a decoded protocol request;
    ``observe`` feeds back the response, so later zoom-ins can reference
    the qids this client has seen.
    """

    def __init__(
        self,
        kind: str,
        rng: random.Random,
        view: DataView,
        recent: deque[Bird] | None = None,
    ) -> None:
        self.kind = kind
        self.rng = rng
        self.view = view
        self.factory = AnnotationFactory(seed=rng.randrange(1 << 30))
        #: Rows of the loader's acknowledged batches, newest last; shared
        #: between the ``ingest`` loader (which fills it) and reader.
        self.recent: deque[Bird] = recent if recent is not None else deque()
        self.issued = 0
        self.deck: list[str] = []
        #: (qid, instances present in the result, issue number) of this
        #: client's zoomable results, oldest first.
        self.history: list[tuple[int, tuple[str, ...], int]] = []

    # -- stream --------------------------------------------------------

    def next_request(self) -> tuple[str, dict[str, Any]]:
        """The next ``(template, request)`` of this client's stream.

        Templates are dealt from a shuffled deck holding each template
        as often as :data:`MIX` says, so every 100 requests carry the
        same mix and only their order and literals are random.
        """
        self.issued += 1
        if not self.deck:
            self.deck = [tag for tag, count in MIX[self.kind].items()
                         for _ in range(count)]
            self.rng.shuffle(self.deck)
        tag = self.deck.pop()
        if tag == "zoomin" and not self.history:
            tag = FALLBACK[self.kind]
        return tag, getattr(self, f"_{self.kind}_{tag}")()

    def observe(
        self, tag: str, request: dict[str, Any], response: dict[str, Any]
    ) -> None:
        if not response.get("ok"):
            return
        if self.kind == "loader":
            by_id = self.view.by_id
            for spec in request["specs"]:
                if "row_id" in spec:
                    self.recent.append(by_id[spec["row_id"]])
                else:
                    self.recent.extend(by_id[c.row_id] for c in spec["cells"])
            return
        if request["op"] != "query":
            return
        result = response["result"]
        present = sorted(
            {name for row in result["tuples"] for name in row["summaries"]}
        )
        if not present:
            return
        entry = (result["qid"], tuple(present), self.issued)
        if tag in ZOOMABLE[self.kind]:
            self.history.append(entry)
            # The session registry retains the 256 newest results; keep
            # references well inside it so no zoom-in misses its qid.
            horizon = self.issued - HISTORY_HORIZON
            while self.history and self.history[0][2] <= horizon:
                self.history.pop(0)

    # -- shared request builders ----------------------------------------

    def _pick(self, items: Sequence[Any]) -> Any:
        """A uniform pick that consumes one draw whatever ``len(items)``,
        so a list whose length depends on timing cannot shift the rest
        of this client's stream."""
        return items[int(self.rng.random() * len(items))]

    def _zoomin(
        self, entry: tuple[int, tuple[str, ...], int], detail: str = ""
    ) -> dict[str, Any]:
        qid, present, _ = entry
        # Snippets summarize only the rare documents, so a zoom-in on one
        # is far cheaper than on the others; keeping them out keeps the
        # zoom-in latency one distribution instead of two.
        instance = self.rng.choice(
            [name for name in present if name != "TextSummary1"] or present
        )
        command = f"ZOOMIN REFERENCE QID = {qid} ON {instance}"
        if detail:
            command += f" DETAIL {detail}"
        return {"op": "zoomin", "command": command}

    def _annotation_specs(
        self, rows: Sequence[Bird], shape: Sequence[str]
    ) -> list[dict[str, Any]]:
        """One spec per entry of ``shape`` (``document``, ``two_rows``,
        ``column`` or ``row``), each on random ``rows``.

        A fixed shape keeps every batch of a workload equally expensive;
        a batch drawn at random would mix one-, two- and zero-document
        batches, and the p90 would flip between those modes.
        """
        rng = self.rng
        specs: list[dict[str, Any]] = []
        for kind in shape:
            bird = rng.choice(rows)
            if kind == "document":
                title, body = self.factory.draw_document(sentence_count=6)
                specs.append(
                    {
                        "text": body,
                        "table": "birds",
                        "row_id": bird.row_id,
                        "document": True,
                        "title": title,
                        "author": "loader",
                    }
                )
                continue
            text, _category = self.factory.draw()
            if kind == "two_rows":
                other = rng.choice(rows)
                column = rng.choice(BIRD_COLUMNS)
                # The wire protocol has no JSON form for explicit cells;
                # in-process requests carry CellRef values instead.
                specs.append(
                    {
                        "text": text,
                        "cells": [
                            CellRef("birds", bird.row_id, column),
                            CellRef("birds", other.row_id, column),
                        ],
                        "author": "curator",
                    }
                )
                continue
            spec: dict[str, Any] = {
                "text": text,
                "table": "birds",
                "row_id": bird.row_id,
                "author": "curator",
            }
            if kind == "column":
                spec["columns"] = [rng.choice(BIRD_COLUMNS)]
            specs.append(spec)
        return specs

    def _stats(self) -> dict[str, Any]:
        return {"op": "stats"}

    # -- browse: an InsightNotesGate curator --------------------------

    def _curator_stats(self) -> dict[str, Any]:
        return self._stats()

    def _curator_annotate(self) -> dict[str, Any]:
        return {
            "op": "add_annotations",
            "specs": self._annotation_specs(self.view.write_rows, NOTES),
        }

    def _curator_zoomin(self) -> dict[str, Any]:
        # Zipf-skewed over the recent results: rank 1 is the newest.
        ranks = len(self.history)
        weights = [1.0 / (rank**1.2) for rank in range(1, ranks + 1)]
        pick = self.rng.choices(range(ranks), weights=weights)[0]
        return self._zoomin(self.history[-1 - pick])

    def _curator_point(self) -> dict[str, Any]:
        # A few hot rows: the same point lookups recur.
        bird = self.view.read_rows[self.rng.randrange(40)]
        return {
            "op": "query",
            "sql": "SELECT name, species, region, weight FROM birds "
            f"WHERE name = {quote(bird.name)}",
        }

    def _curator_range(self) -> dict[str, Any]:
        rng = self.rng
        low = rng.choice((2, 4, 6, 8))
        return {
            "op": "query",
            "sql": "SELECT name, species, weight FROM birds "
            f"WHERE region = {quote(rng.choice(READ_REGIONS))} "
            f"AND weight BETWEEN {low} AND {low + 2} LIMIT 10",
        }

    def _curator_species(self) -> dict[str, Any]:
        rng = self.rng
        return {
            "op": "query",
            "sql": "SELECT name, weight FROM birds "
            f"WHERE species = {quote(rng.choice(self.view.species))} "
            f"AND region = {quote(rng.choice(READ_REGIONS))} LIMIT 5",
        }

    # -- ingest: a bulk loader and a reader ------------------------------

    def _loader_batch(self) -> dict[str, Any]:
        return {
            "op": "add_annotations",
            "specs": self._annotation_specs(self.view.birds, BATCH),
        }

    def _reader_stats(self) -> dict[str, Any]:
        return self._stats()

    def _reader_zoomin(self) -> dict[str, Any]:
        return self._zoomin(self.history[-1])

    def _reader_point(self) -> dict[str, Any]:
        # Between one and six rows: a zoom-in into a result of varying
        # size costs a spread of times, not one so small that its latency
        # only counts the 5 ms GIL hand-offs the loader's thread imposes.
        rows = self.recent or self.view.birds
        names = [self._pick(rows).name for _ in range(self.rng.randint(1, 6))]
        listed = ", ".join(quote(name) for name in names)
        return {
            "op": "query",
            "sql": "SELECT name, species, region, weight FROM birds "
            f"WHERE name IN ({listed})",
        }

    # -- analytic: one analyst exploring aggregates ---------------------

    def _analyst_stats(self) -> dict[str, Any]:
        return self._stats()

    def _analyst_annotate(self) -> dict[str, Any]:
        return {
            "op": "add_annotations",
            "specs": self._annotation_specs(self.view.write_rows, BATCH),
        }

    def _analyst_zoomin(self) -> dict[str, Any]:
        return self._zoomin(self._pick(self.history), detail="FULL")

    def _window(self, width: float) -> tuple[str, float, float]:
        """A read region and a weight window ``width`` kg wide."""
        rng = self.rng
        region = quote(rng.choice(READ_REGIONS))
        low = round(rng.uniform(1.5, 12.0), 2)
        return region, low, round(low + width, 2)

    def _analyst_group(self) -> dict[str, Any]:
        region, low, high = self._window(1.2)
        return {
            "op": "query",
            "sql": "SELECT species, COUNT(*) FROM birds "
            f"WHERE region = {region} AND weight BETWEEN {low} AND {high} "
            "GROUP BY species",
        }

    def _analyst_spj(self) -> dict[str, Any]:
        region, low, high = self._window(0.6)
        rng = self.rng
        return {
            "op": "query",
            "sql": "SELECT b.name, b.weight, s.observer, s.count "
            "FROM birds b, sightings s "
            f"WHERE b.species = s.species AND b.region = {region} "
            f"AND b.weight BETWEEN {low} AND {high} "
            f"AND s.region = {quote(rng.choice(READ_REGIONS))} "
            f"AND s.count > {rng.randint(95, 105)}",
        }

    def _analyst_topk(self) -> dict[str, Any]:
        region, low, high = self._window(2.5)
        rng = self.rng
        instance, label = rng.choice(
            (("ClassBird1", "Disease"), ("ClassBird1", "Behavior"),
             ("ClassBird2", "Question"), ("ClassBird2", "Provenance"))
        )
        return {
            "op": "query",
            "sql": "SELECT name, species, weight FROM birds "
            f"WHERE region = {region} AND weight BETWEEN {low} AND {high} "
            f"ORDER BY SUMMARY_COUNT('{instance}', '{label}') DESC "
            f"LIMIT {rng.randint(5, 15)}",
        }

    def _analyst_scan(self) -> dict[str, Any]:
        region, low, high = self._window(1.5)
        return {
            "op": "query",
            "sql": "SELECT name, species, region, weight FROM birds "
            f"WHERE region = {region} AND weight BETWEEN {low} AND {high}",
        }


#: Requests per 100 of each client kind, by template.
MIX: dict[str, dict[str, int]] = {
    "curator": {"stats": 3, "annotate": 8, "zoomin": 25, "point": 26,
                "range": 25, "species": 13},
    "loader": {"batch": 1},
    "reader": {"stats": 5, "zoomin": 25, "point": 70},
    "analyst": {"stats": 10, "annotate": 25, "zoomin": 13, "group": 13,
                "spj": 12, "topk": 13, "scan": 14},
}

#: What a client sends instead of a zoom-in before it has a result.
FALLBACK = {"curator": "range", "reader": "point", "analyst": "scan"}

#: A curator's notes: one on a whole row, one on a single column.
NOTES = ("row", "column")

#: A bulk batch: documents and multi-row annotations mixed in.
BATCH = ("document", "two_rows") + ("column",) * 3 + ("row",) * 5

#: Request templates whose results later zoom-ins may reference.
ZOOMABLE = {
    # Only the ten-row range results: zoom-ins into one-, five- and
    # ten-row results cost three distinct amounts, and a p50 taken over
    # their random mix would move with the mix.
    "curator": ("range",),
    "reader": ("point",),
    "analyst": ("scan",),
}

#: Zoom-ins reference only results this many requests old or newer.
HISTORY_HORIZON = 120
