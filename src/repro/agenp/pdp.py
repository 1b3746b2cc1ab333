"""The Policy Decision Point (PDP).

"When the managed parties require a decision ... the PDP obtains all the
policies pertinent to that decision and uses them to determine the
actions that must be performed by the PEP."  Decisions are monitored
(each produces a :class:`~repro.agenp.monitoring.DecisionRecord`).

Graceful degradation: policy interpretation may be solver-backed (an
interpreter may run ASG membership or ASP solving), so one hard policy
instance could stall every decision.  The PDP therefore runs the
interpretation path under an optional per-decision
:class:`~repro.runtime.budget.Budget` and a
:class:`~repro.runtime.breaker.CircuitBreaker`:

* a resource error (budget exhausted, deadline passed) trips a breaker
  failure and the decision is served from the *last-known-good* compiled
  policy set, or from ``default_decision`` when none exists yet;
* after ``failure_threshold`` consecutive failures the breaker opens and
  the expensive path is skipped entirely until the recovery window
  passes;
* every fallback decision is logged with ``degraded=True`` so the PAdaP
  can see that the system is running degraded.

Non-resource errors still propagate (they are bugs or bad policies, not
load), but they too count toward opening the breaker.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.contexts import Context
from repro.agenp.interpreters import PolicyInterpreter
from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.errors import ReproError, ResourceError
from repro.policy.conflicts import ResolutionStrategy, deny_overrides
from repro.policy.evaluation import applicable_rules
from repro.policy.model import Decision, Request
from repro.policy.xacml import Policy
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import span as _tele_span

__all__ = ["PolicyDecisionPoint", "evaluate_compiled"]


def evaluate_compiled(
    compiled: Sequence[Tuple[StoredPolicy, Policy]],
    request: Request,
    strategy: ResolutionStrategy = deny_overrides,
    default_decision: Decision = Decision.DENY,
) -> Tuple[Decision, str]:
    """Resolve one request against an already-compiled policy set.

    Returns ``(decision, winning policy text)`` — the pure, stateless
    core of :meth:`PolicyDecisionPoint.decide`, shared with the serving
    engine's batch path (:meth:`repro.engine.PolicyEngine.decide_many`).
    """
    hits = []
    for stored, policy in compiled:
        for rule, decision in applicable_rules(policy, request):
            hits.append((stored, policy, rule, decision))
    if not hits:
        return default_decision, ""
    decision = strategy([(p, r, d) for __, p, r, d in hits])
    winning = [stored.text for stored, __, __r, d in hits if d == decision]
    policy_text = winning[0] if winning else hits[0][0].text
    return decision, policy_text


class PolicyDecisionPoint:
    """Evaluates requests against the current policy repository."""

    def __init__(
        self,
        repository: PolicyRepository,
        interpreter: PolicyInterpreter,
        log: Optional[MonitoringLog] = None,
        strategy: ResolutionStrategy = deny_overrides,
        default_decision: Decision = Decision.DENY,
        budget_factory: Optional[Callable[[], Budget]] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.repository = repository
        self.interpreter = interpreter
        self.log = log if log is not None else MonitoringLog()
        self.strategy = strategy
        self.default_decision = default_decision
        self.budget_factory = budget_factory
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._compiled: List[Tuple[StoredPolicy, Policy]] = []
        self._compiled_generation: Optional[int] = None
        # last compiled set that served a decision successfully
        self._last_good: Optional[List[Tuple[StoredPolicy, Policy]]] = None

    def _compile(self) -> List[Tuple[StoredPolicy, Policy]]:
        """The compiled policy set, recompiled only when the repository's
        ``generation`` counter moved (O(1) on the serving hot path)."""
        generation = self.repository.generation
        if generation != self._compiled_generation:
            self._compiled = [
                (p, self.interpreter(p.tokens)) for p in self.repository.all()
            ]
            self._compiled_generation = generation
        return self._compiled

    def compiled(self) -> List[Tuple[StoredPolicy, Policy]]:
        """The up-to-date compiled policy set (public, for the engine)."""
        return list(self._compile())

    def _scope(self):
        if self.budget_factory is not None:
            return budget_scope(self.budget_factory())
        return contextlib.nullcontext()

    def decide(self, request: Request, context: Optional[Context] = None) -> DecisionRecord:
        """Evaluate the request; log and return the decision record.

        If no policy applies, the configurable ``default_decision`` is
        used (deny-by-default for safety) and the record notes the gap —
        the Section V.A "completeness" situation that may trigger
        adaptation.  If the interpretation path runs out of budget (or
        the circuit is open), the decision is served degraded — see the
        module docstring.
        """
        context = context if context is not None else Context.empty()
        with _tele_span("pdp.decide") as sp:
            sp.incr("pdp.decisions")
            if not self.breaker.allow():
                sp.incr("pdp.breaker_rejections")
                return self._degrade(request, context, "circuit open", sp)
            try:
                with self._scope():
                    decision, policy_text = evaluate_compiled(
                        self._compile(), request, self.strategy, self.default_decision
                    )
            except ResourceError as error:
                self.breaker.record_failure()
                sp.incr("pdp.resource_errors")
                return self._degrade(
                    request, context, f"resource exhausted: {error}", sp
                )
            except ReproError:
                # a bug or uninterpretable policy: propagate, but count it —
                # repeated failures open the breaker and decisions degrade
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            self._last_good = list(self._compiled)
            record = DecisionRecord(
                request, decision, policy_text, context, trace_id=sp.trace_id
            )
            return self.log.append(record)

    def _degrade(
        self,
        request: Request,
        context: Context,
        reason: str,
        sp=None,
    ) -> DecisionRecord:
        """Serve a fallback decision and record the degradation event."""
        decision = self.default_decision
        policy_text = ""
        note = f"degraded ({reason}): default decision"
        if self._last_good is not None:
            try:
                decision, policy_text = evaluate_compiled(
                    self._last_good, request, self.strategy, self.default_decision
                )
                note = f"degraded ({reason}): last-known-good policies"
            except ReproError:
                decision, policy_text = self.default_decision, ""
        trace_id = sp.trace_id if sp is not None else None
        if sp is not None:
            sp.incr("pdp.degraded_decisions")
        record = DecisionRecord(
            request,
            decision,
            policy_text,
            context,
            degraded=True,
            note=note,
            trace_id=trace_id,
        )
        return self.log.append(record)

    def coverage_gap(self, record: DecisionRecord) -> bool:
        """True if the record came from the default (no policy applied)."""
        return record.policy_text == ""
