"""Structured tracing for the AGENP loop: per-operation aggregates.

The paper's closed loop needs "a history of the decisions that have been
made ... and the effects they have had"; ILASP reports per-run search
statistics.  Both need summaries of where the work went, so this tracer
keeps summaries only, at a flat, bounded cost per recorded operation:

* every closing span folds into its name's row: count, errors,
  inclusive and self seconds (inclusive minus direct children), max,
  and a log-bucket histogram for p50/p95 whose buckets are the same in
  every tracer, so summaries merge exactly;
* :func:`incr` adds to the tracer-wide counters and the open root span;
  a closing root span leaves the only record kept (name, trace id,
  duration, status, counters), so ``DecisionRecord.trace_id`` links a
  decision to the grounding and solving under it, at root granularity.

A tracer is installed for a dynamic extent with :func:`tracer_scope`
(as :mod:`repro.runtime.budget` installs budgets), so one scope traces a
whole call tree with no signature changes.  With none installed,
:func:`span` returns the shared :data:`NULL_SPAN` and :func:`incr`
returns after one context-variable read.  Trace ids come from a
per-tracer counter, so identical runs give identical root records.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN", "current_tracer", "tracer_scope", "span", "incr"]

# Histogram buckets: BUCKETS_PER_OCTAVE per doubling from BUCKET_FLOOR_S,
# so BUCKET_COUNT of them reach about 71 minutes.  Bucket 0 also takes
# anything shorter and the last bucket anything longer.
BUCKET_FLOOR_S = 1e-6
BUCKETS_PER_OCTAVE = 4
BUCKET_COUNT = 128


def bucket_of(seconds: float) -> int:
    """The histogram bucket a duration falls into."""
    if seconds <= BUCKET_FLOOR_S:
        return 0
    index = int(math.log2(seconds / BUCKET_FLOOR_S) * BUCKETS_PER_OCTAVE)
    return min(index, BUCKET_COUNT - 1)


def bucket_value(index: int) -> float:
    """The representative duration of a bucket: its geometric midpoint."""
    return BUCKET_FLOOR_S * 2.0 ** ((index + 0.5) / BUCKETS_PER_OCTAVE)


def empty_row() -> Dict[str, Any]:
    """A fresh operation row (see :class:`Tracer`)."""
    return {"count": 0, "errors": 0, "total": 0.0, "self": 0.0, "max": 0.0, "buckets": {}}


class Span:
    """One open timed operation; ``trace_id`` is its root's, set on entry."""

    __slots__ = ("name", "trace_id", "_tracer", "_t0", "_children")

    def __init__(self, tracer: "Tracer", name: str):
        self.name = name
        self.trace_id: Optional[int] = None
        self._tracer = tracer
        self._t0 = 0.0
        self._children = 0.0  # inclusive seconds of direct children

    def incr(self, name: str, n: int = 1) -> None:
        self._tracer.incr(name, n)

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._tracer._close(self, exc_type is not None)
        return False


class _NullSpan:
    """Shared do-nothing span returned when no tracer is installed, so
    instrumentation (``with span("asp.solve") as sp: sp.incr(...)``) is
    written unconditionally."""

    __slots__ = ()

    trace_id: Optional[int] = None

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Folds closing spans into per-operation aggregates.

    ``operations`` maps each span name to its running row (``count``,
    ``errors``, ``total`` and ``self`` seconds, ``max``, and ``buckets``:
    histogram bucket -> count); ``counters`` holds the tracer-wide
    counter totals; ``roots`` the record of every finished root span.
    ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.operations: Dict[str, Dict[str, Any]] = {}
        self.counters: Dict[str, int] = {}
        self.roots: List[Dict[str, Any]] = []
        self._clock = clock
        self._trace_ids = itertools.count(1)
        self._stack: List[Span] = []
        self._root_counters: Dict[str, int] = {}

    def span(self, name: str) -> Span:
        return Span(self, name)

    def _open(self, span: Span) -> None:
        if self._stack:
            span.trace_id = self._stack[0].trace_id
        else:
            span.trace_id = next(self._trace_ids)
            self._root_counters = {}
        self._stack.append(span)
        span._t0 = self._clock()

    def _close(self, span: Span, error: bool) -> None:
        elapsed = self._clock() - span._t0
        stack = self._stack
        # tolerate exceptions unwinding through several instrumented frames
        while stack and stack.pop() is not span:
            pass
        row = self.operations.get(span.name)
        if row is None:
            row = self.operations[span.name] = empty_row()
        row["count"] += 1
        row["errors"] += error
        row["total"] += elapsed
        row["self"] += elapsed - span._children
        if elapsed > row["max"]:
            row["max"] = elapsed
        buckets = row["buckets"]
        index = bucket_of(elapsed)
        buckets[index] = buckets.get(index, 0) + 1
        if stack:
            stack[-1]._children += elapsed
        else:
            self.roots.append(
                {
                    "name": span.name,
                    "trace_id": span.trace_id,
                    "duration": elapsed,
                    "status": "error" if error else "ok",
                    "counters": self._root_counters,
                }
            )

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        if self._stack:
            self._root_counters[name] = self._root_counters.get(name, 0) + n


_AMBIENT: ContextVar[Optional[Tracer]] = ContextVar("repro_ambient_tracer", default=None)


def current_tracer() -> Optional[Tracer]:
    """The innermost ambient tracer, or None outside any scope."""
    return _AMBIENT.get()


@contextlib.contextmanager
def tracer_scope(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` as the ambient tracer for the dynamic extent.

    ``tracer_scope(None)`` masks any outer scope (useful to exempt a
    subcomputation from tracing).
    """
    token = _AMBIENT.set(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.reset(token)


def span(name: str):
    """Open a span on the ambient tracer (shared no-op outside a scope)."""
    tracer = _AMBIENT.get()
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name)


def incr(name: str, n: int = 1) -> None:
    """Increment a counter on the ambient tracer (no-op outside a scope)."""
    tracer = _AMBIENT.get()
    if tracer is not None:
        tracer.incr(name, n)
