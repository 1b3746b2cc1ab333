"""The Autonomous Managed System (AMS): the full Figure 2 wiring.

An AMS owns one of each AGENP component and exposes the lifecycle the
paper describes:

1. ``bootstrap`` — receive the PBMS specification, build the initial GPM
   (PReP), generate policies for the current context.
2. ``decide``/``enforce`` — serve requests (PDP → PEP), monitored.
3. ``give_feedback`` — outcomes flow back into the monitoring log.
4. ``adapt`` — when goals are missed or context changes, the PAdaP
   relearns the GPM and the PReP regenerates the policy set.
5. ``share``/``import_shared`` — exchange policies via CASWiki, with the
   PCP validating imports against the local context.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.contexts import Context
from repro.core.gpm import GenerativePolicyModel
from repro.core.workflow import LabeledExample
from repro.agenp.caswiki import CASWiki, Contribution
from repro.agenp.interpreters import PolicyInterpreter
from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.padap import PolicyAdaptationPoint
from repro.agenp.pbms import PolicySpecification
from repro.agenp.pcp import PolicyCheckingPoint
from repro.agenp.pdp import PolicyDecisionPoint
from repro.agenp.pep import ManagedResource, PolicyEnforcementPoint
from repro.agenp.pip_point import PolicyInformationPoint
from repro.agenp.prep import PolicyRefinementPoint
from repro.agenp.repositories import (
    ContextRepository,
    PolicyRepository,
    RepresentationsRepository,
    StoredPolicy,
)
from repro.policy.goals import GoalMonitor
from repro.policy.model import DomainSchema, Request
from repro.runtime.breaker import CircuitBreaker

__all__ = ["AutonomousManagedSystem"]


class AutonomousManagedSystem:
    """One autonomous coalition party under policy-based management.

    Resource governance: ``breaker`` (optional) is the circuit breaker
    guarding the PDP's solver-backed interpretation path.  A
    :func:`~repro.runtime.budget.budget_scope` around any lifecycle call
    bounds it; around :meth:`adapt`, the learner returns a hypothesis
    marked degraded when the budget runs out instead of raising.
    """

    def __init__(
        self,
        name: str,
        specification: PolicySpecification,
        interpreter: PolicyInterpreter,
        schema: Optional[DomainSchema] = None,
        max_policy_length: int = 12,
        max_learn_violations: int = 0,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.name = name
        self.specification = specification
        self.policy_repository = PolicyRepository()
        self.representations = RepresentationsRepository()
        self.contexts = ContextRepository()
        self.log = MonitoringLog()
        self.pip = PolicyInformationPoint()
        self.pcp = PolicyCheckingPoint(interpreter=interpreter, schema=schema)
        self.prep = PolicyRefinementPoint(
            specification,
            self.representations,
            self.policy_repository,
            pcp=self.pcp,
            max_policy_length=max_policy_length,
        )
        self.padap = PolicyAdaptationPoint(
            specification.hypothesis_space,
            self.representations,
            pcp=self.pcp,
            max_violations=max_learn_violations,
        )
        self.pdp = PolicyDecisionPoint(
            self.policy_repository,
            interpreter,
            self.log,
            breaker=breaker,
        )
        self.pep = PolicyEnforcementPoint(ManagedResource(name), log=self.log)
        goal_objects = specification.goal_objects()
        self.goal_monitor = GoalMonitor(goal_objects) if goal_objects else None

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self, context: Optional[Context] = None) -> List[StoredPolicy]:
        """Build the initial GPM and generate the first policy set."""
        if context is not None:
            if context.name:
                self.contexts.store(context)
                self.contexts.set_current(context.name)
        self.prep.bootstrap()
        return self.refresh_policies()

    def current_context(self) -> Context:
        """Local current context enriched with PIP-acquired externals."""
        return self.pip.acquire(self.contexts.current())

    def set_context(self, context: Context) -> None:
        self.contexts.store(context)
        self.contexts.set_current(context.name)

    def refresh_policies(self) -> List[StoredPolicy]:
        """(Re)generate the policy set for the current context."""
        installed, __ = self.prep.generate(self.current_context())
        return installed

    def model(self) -> GenerativePolicyModel:
        return self.representations.latest()

    # -- request serving --------------------------------------------------------

    def decide(self, request: Request) -> DecisionRecord:
        return self.pdp.decide(request, self.current_context())

    def decide_and_enforce(self, request: Request, action: str):
        record = self.decide(request)
        return self.pep.enforce(record, action)

    # -- feedback and adaptation ---------------------------------------------------

    def give_feedback(self, record: DecisionRecord, ok: bool) -> None:
        self.log.mark_outcome(record.record_id, ok)

    def add_example(self, example: LabeledExample) -> None:
        """Directly inject a labelled example (e.g. operator guidance)."""
        self.padap.add_example(example)

    def report_metrics(self, metrics) -> list:
        """Feed one tick of system metrics to the goal monitor (if any).

        Returns the goal statuses — the Section III.A trigger: "the
        operation of the system is not meeting the goals set by the
        global PBMS".
        """
        if self.goal_monitor is None:
            return []
        return self.goal_monitor.observe(metrics)

    def adapt_if_needed(self) -> bool:
        """Run the adaptation loop when monitoring shows missed goals —
        flagged decision outcomes or violated PBMS goals.

        Returns True when a new model version was learned and policies
        were regenerated.
        """
        goals_missed = (
            self.goal_monitor is not None and self.goal_monitor.needs_adaptation()
        )
        if not self.padap.needs_adaptation(self.log) and not goals_missed:
            return False
        return self.adapt()

    def adapt(self) -> bool:
        self.padap.ingest_feedback(self.log)
        before = self.model().version
        new_model, __ = self.padap.adapt()
        if new_model.version == before:
            return False
        self.refresh_policies()
        return True

    # -- coalition sharing -----------------------------------------------------------

    def share(self, wiki: CASWiki) -> List[Contribution]:
        """Contribute the current locally generated policies to CASWiki."""
        context_name = self.current_context().name
        return [
            wiki.contribute(self.name, policy.tokens, context_name)
            for policy in self.policy_repository.by_source("local")
        ]

    def import_shared(
        self, wiki: CASWiki, min_trust: float = 0.5
    ) -> Tuple[List[StoredPolicy], List]:
        """Adopt trusted shared policies that pass local PCP validation."""
        context = self.current_context()
        model = self.model()
        adopted: List[StoredPolicy] = []
        rejected = []
        for contribution in wiki.retrieve(
            min_trust=min_trust, exclude_agent=self.name
        ):
            candidate = StoredPolicy(
                contribution.policy.tokens,
                context.name,
                model.version,
                source=contribution.policy.source,
            )
            outcome = self.pcp.check_policy(candidate, model, context)
            if outcome.accepted:
                self.policy_repository.add(candidate)
                adopted.append(candidate)
                wiki.rate(contribution, True)
            else:
                rejected.append(outcome)
                wiki.rate(contribution, False)
        return adopted, rejected
