"""The Policy Enforcement Point (PEP).

Enforces PDP decisions on managed resources.  In this reproduction the
managed resources are in-process objects exposing ``perform(action)``;
the PEP gates calls on the decision and records what happened, feeding
the monitoring loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.policy.model import Decision

__all__ = ["EnforcementResult", "PolicyEnforcementPoint", "ManagedResource"]


class ManagedResource:
    """A simulated managed resource: counts performed/blocked actions."""

    def __init__(self, name: str):
        self.name = name
        self.performed: List[str] = []
        self.blocked: List[str] = []

    def perform(self, action: str) -> None:
        self.performed.append(action)

    def block(self, action: str) -> None:
        self.blocked.append(action)


class EnforcementResult:
    """What the PEP did for one decision."""

    __slots__ = ("record", "executed", "action")

    def __init__(self, record: DecisionRecord, executed: bool, action: str):
        self.record = record
        self.executed = executed
        self.action = action

    def __repr__(self) -> str:
        verb = "executed" if self.executed else "blocked"
        return f"EnforcementResult({verb} {self.action!r})"


class PolicyEnforcementPoint:
    """Applies decisions: permit -> perform, anything else -> block.

    With a ``log``, enforcement is recorded through
    :meth:`MonitoringLog.mark_enforced` so the log's enforced count stays
    exact; the records enforced must then be that log's.
    """

    def __init__(
        self,
        resource: Optional[ManagedResource] = None,
        log: Optional[MonitoringLog] = None,
    ):
        self.resource = resource if resource is not None else ManagedResource("default")
        self.log = log
        self.results: List[EnforcementResult] = []

    def enforce(self, record: DecisionRecord, action: str) -> EnforcementResult:
        executed = record.decision is Decision.PERMIT
        if executed:
            self.resource.perform(action)
        else:
            self.resource.block(action)
        if self.log is not None:
            self.log.mark_enforced(record.record_id)
        else:
            record.enforced = True
        result = EnforcementResult(record, executed, action)
        self.results.append(result)
        return result
