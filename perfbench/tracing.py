"""In-memory spans around the engine's public functions.

The benchmark's traced run wraps a fixed set of public functions of the
program (listed in :mod:`perfbench.layers`) from the outside.  Each
call records one span ``(request id, span id, parent span id, name,
start, end)`` into a list kept in memory and read once the run ends.
Nothing inside the program changes.

The current request and parent span travel in a :mod:`contextvars`
variable.  A client's coroutine sets it around ``handle_request``; the
server's ``submit`` wrapper copies the coroutine's context into the
lane thread that runs the work, and the shard scan/write fan-out
wrappers copy it into their pool threads, so engine spans on any
thread hang off the request that caused them.

A span's **self time** is its duration minus the part of its interval
that its child spans cover (children on other threads included);
:func:`self_times` computes it after the run.  Calls that only need
counting record a count event instead of a span.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from collections.abc import Awaitable, Callable, Iterable, Iterator
from typing import Any

#: (request id, parent span id) of the code running now, or None.
CURRENT: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_current", default=None
)

Span = tuple[int, int, int, str, float, float]

_INHERITED = object()


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (request id, counter, value); appended, never updated in place,
        #: because shard pool threads of one request count concurrently.
        self.counts: list[tuple[int, str, float]] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        current = CURRENT.get()
        if current is not None:
            self.counts.append((current[0], name, value))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        """Run ``fn`` as a span named ``name`` under the current one."""
        current = CURRENT.get()
        if current is None:
            return fn(*args, **kw)
        rid, parent = current
        sid = next(self._ids)
        token = CURRENT.set((rid, sid))
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            CURRENT.reset(token)
            self.spans.append((rid, sid, parent, name, start, end))

    async def acall(self, name: str, awaitable: Awaitable[Any]) -> Any:
        """Await ``awaitable`` as a span named ``name``."""
        current = CURRENT.get()
        if current is None:
            return await awaitable
        rid, parent = current
        sid = next(self._ids)
        token = CURRENT.set((rid, sid))
        start = time.perf_counter()
        try:
            return await awaitable
        finally:
            end = time.perf_counter()
            CURRENT.reset(token)
            self.spans.append((rid, sid, parent, name, start, end))

    def iterate(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``iterator``, one span per ``next``: a lazy scan's
        work happens while its consumer pulls rows, not when it is
        created.  Closing the wrapper closes the wrapped iterator."""
        try:
            while True:
                current = CURRENT.get()
                if current is None:
                    item = next(iterator)
                else:
                    rid, parent = current
                    sid = next(self._ids)
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    finally:
                        self.spans.append(
                            (rid, sid, parent, name, start, time.perf_counter())
                        )
                yield item
        except StopIteration:
            return
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- patching ----------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span ``name``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kw: Any) -> Any:
            return recorder.call(name, original, *args, **kw)

        self.patch(owner, attr, traced)

    def wrap_counted(self, owner: Any, attr: str, name: str, counter: str) -> None:
        """Like :meth:`wrap`, also counting calls as ``counter``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kw: Any) -> Any:
            recorder.count(counter)
            return recorder.call(name, original, *args, **kw)

        self.patch(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def counted(*args: Any, **kw: Any) -> Any:
            recorder.count(counter)
            return original(*args, **kw)

        self.patch(owner, attr, counted)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def in_context(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` bound to a copy of the caller's context, for another thread."""
    return functools.partial(contextvars.copy_context().run, fn)


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> list[tuple[int, str, float]]:
    """``(request id, name, self seconds)`` for every span.

    Self time is the span's duration minus the part of its interval its
    direct children cover; children running in parallel on several
    threads are counted once, not once each.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _rid, _sid, parent, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return [
        (rid, name, (end - start) - covered(children.get(sid, ()), start, end))
        for rid, sid, _parent, name, start, end in spans
    ]
