"""Monitoring of PDP/PEP operations (Figure 2's "Monitoring" arrows).

The AGENP loop requires "a history of the decisions that have been made,
the actions that have been taken, and the effects that they have had on
the state of the system".  :class:`MonitoringLog` is that history; the
PAdaP turns flagged records into new training examples, and degradation
events (budget-exhausted or circuit-broken decisions served from a
fallback) are recorded here so the adaptation loop can see when the
system is running in a degraded mode.

Record ids are assigned *by the log* from a per-log counter, so two
logs built in one process produce reproducible, independent id
sequences (cross-run determinism; no module-level global counter).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.contexts import Context
from repro.policy.model import Decision, Request

__all__ = ["DecisionRecord", "LogStats", "MonitoringLog"]


class DecisionRecord:
    """One decision/enforcement event and (later) its observed outcome.

    ``degraded`` marks decisions that were *not* produced by the normal
    solver-backed path: the PDP fell back to its default decision or the
    last-known-good policy set (``note`` says why).  ``trace_id`` links
    the record to the telemetry trace of the solve that produced it
    (when the PDP ran under an ambient tracer; None otherwise) —
    Figure 2's monitoring arrows joined to low-level engine behaviour.
    """

    __slots__ = (
        "record_id",
        "request",
        "decision",
        "policy_text",
        "context",
        "enforced",
        "outcome_ok",
        "degraded",
        "note",
        "trace_id",
    )

    def __init__(
        self,
        request: Request,
        decision: Decision,
        policy_text: str,
        context: Context,
        enforced: bool = False,
        degraded: bool = False,
        note: str = "",
        trace_id: Optional[int] = None,
    ):
        self.record_id: Optional[int] = None  # assigned by MonitoringLog.append
        self.request = request
        self.decision = decision
        self.policy_text = policy_text
        self.context = context
        self.enforced = enforced
        self.outcome_ok: Optional[bool] = None
        self.degraded = degraded
        self.note = note
        self.trace_id = trace_id

    def __repr__(self) -> str:
        outcome = (
            "?" if self.outcome_ok is None else ("ok" if self.outcome_ok else "BAD")
        )
        ident = "?" if self.record_id is None else str(self.record_id)
        flag = " DEGRADED" if self.degraded else ""
        return (
            f"DecisionRecord(#{ident} {self.decision.value} "
            f"via {self.policy_text!r} [{outcome}]{flag})"
        )


class LogStats(NamedTuple):
    """Aggregate view of a :class:`MonitoringLog` (Figure 2 dashboard).

    ``by_decision`` counts records per decision effect;
    ``degraded_rate`` is the fraction of decisions served from a
    fallback path and ``enforcement_rate`` the fraction that reached
    the PEP — the two numbers the adaptation loop watches.
    """

    total: int
    by_decision: Dict[str, int]
    degraded: int
    degraded_rate: float
    enforced: int
    enforcement_rate: float
    violations: int
    confirmations: int
    unreviewed: int

    def lines(self) -> List[str]:
        """Human-readable report lines (benchmark/CLI output)."""
        effects = " ".join(f"{k}={v}" for k, v in sorted(self.by_decision.items()))
        return [
            f"decisions: {self.total} ({effects or 'none'})",
            f"degraded: {self.degraded} ({self.degraded_rate:.1%})  "
            f"enforced: {self.enforced} ({self.enforcement_rate:.1%})",
            f"outcomes: {self.confirmations} ok, {self.violations} flagged, "
            f"{self.unreviewed} unreviewed",
        ]


class MonitoringLog:
    """Append-only history of decision records with outcome feedback.

    Every per-decision step costs O(1) whatever the history length:

    * an id → position index makes :meth:`mark_outcome` and
      :meth:`mark_enforced` dict lookups.  When ids repeat (logs merged
      from several parties, each numbering from 1) the first appended
      record owns the id;
    * running counts, kept by :meth:`append` and the two ``mark_*``
      methods, make :meth:`stats` read counters instead of scanning;
    * a review journal lists the position of each record reviewed, in
      review order, so :meth:`reviewed_since` hands a consumer (the
      PAdaP) only what changed since its last read.

    The counts stay exact only if outcome and enforcement writes go
    through the log (``mark_outcome``/``mark_enforced``), never by
    setting a record's attributes directly.  A record appended to two
    logs is counted by each as it stood when appended.
    """

    def __init__(self) -> None:
        self._records: List[DecisionRecord] = []
        self._ids = itertools.count(1)
        self._epoch = 0  # bumped by clear(), so stale review cursors restart
        self._reset()

    def _reset(self) -> None:
        self._index: Dict[int, int] = {}
        self._journal: List[int] = []
        self._by_decision: Dict[str, int] = {}
        # keyed by outcome_ok: None = unreviewed, True = ok, False = flagged
        self._outcomes: Dict[Optional[bool], int] = {None: 0, True: 0, False: 0}
        self._degraded = 0
        self._enforced = 0

    def append(self, record: DecisionRecord) -> DecisionRecord:
        if record.record_id is None:
            record.record_id = next(self._ids)
        position = len(self._records)
        self._records.append(record)
        self._index.setdefault(record.record_id, position)
        effect = record.decision.value
        self._by_decision[effect] = self._by_decision.get(effect, 0) + 1
        self._degraded += bool(record.degraded)
        self._enforced += bool(record.enforced)
        self._outcomes[record.outcome_ok] += 1
        if record.outcome_ok is not None:
            self._journal.append(position)
        return record

    def records(self) -> List[DecisionRecord]:
        return list(self._records)

    def _position(self, record_id: int) -> int:
        position = self._index.get(record_id)
        if position is None:
            raise KeyError(f"no record with id {record_id}")
        return position

    def mark_outcome(self, record_id: int, ok: bool) -> None:
        position = self._position(record_id)
        record = self._records[position]
        ok = bool(ok)
        self._outcomes[record.outcome_ok] -= 1
        self._outcomes[ok] += 1
        record.outcome_ok = ok
        self._journal.append(position)

    def mark_enforced(self, record_id: int) -> None:
        """Record that the PEP applied the decision of ``record_id``."""
        record = self._records[self._position(record_id)]
        if not record.enforced:
            record.enforced = True
            self._enforced += 1

    def reviewed_since(
        self, cursor: Optional[Tuple[int, int]] = None
    ) -> Tuple[List[DecisionRecord], Tuple[int, int]]:
        """Records reviewed since ``cursor``, once each and in log order,
        plus the cursor to pass next time.

        ``None`` (or a cursor from before a :meth:`clear`) reads the whole
        journal.  The cost grows with the reviews since ``cursor``, not
        with the history length.
        """
        start = cursor[1] if cursor is not None and cursor[0] == self._epoch else 0
        positions = sorted(set(self._journal[start:]))
        return (
            [self._records[position] for position in positions],
            (self._epoch, len(self._journal)),
        )

    def violations(self) -> List[DecisionRecord]:
        """Records whose outcome was flagged bad — adaptation triggers."""
        return [r for r in self._records if r.outcome_ok is False]

    def confirmations(self) -> List[DecisionRecord]:
        return [r for r in self._records if r.outcome_ok is True]

    def unreviewed(self) -> List[DecisionRecord]:
        return [r for r in self._records if r.outcome_ok is None]

    def degradations(self) -> List[DecisionRecord]:
        """Decisions served from a fallback path (budget/breaker events)."""
        return [r for r in self._records if r.degraded]

    def stats(self) -> LogStats:
        """The history as a :class:`LogStats` aggregate, read from the
        running counts in O(1)."""
        total = len(self._records)
        return LogStats(
            total=total,
            by_decision=dict(self._by_decision),
            degraded=self._degraded,
            degraded_rate=self._degraded / total if total else 0.0,
            enforced=self._enforced,
            enforcement_rate=self._enforced / total if total else 0.0,
            violations=self._outcomes[False],
            confirmations=self._outcomes[True],
            unreviewed=self._outcomes[None],
        )

    def clear(self) -> None:
        self._records.clear()
        self._epoch += 1
        self._reset()

    def __len__(self) -> int:
        return len(self._records)
