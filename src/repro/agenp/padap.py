"""The Policy Adaptation Point (PAdaP): ASG solver + ASG learner.

"The PAdaP analyzes context information, the previous learned policy
model, and previously selected policies, to generate, validate, and
update the ASG."  Concretely: monitoring feedback becomes labelled
examples; the learner re-solves the Definition 3 task over the
accumulated examples; the new model version is stored in the
Representations Repository.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.gpm import GenerativePolicyModel
from repro.core.workflow import LabeledExample, learn_gpm
from repro.agenp.monitoring import MonitoringLog
from repro.agenp.pcp import PolicyCheckingPoint
from repro.agenp.repositories import RepresentationsRepository
from repro.errors import UnsatisfiableTaskError
from repro.learning.ilasp import LearnedHypothesis
from repro.learning.mode_bias import CandidateRule

__all__ = ["PolicyAdaptationPoint"]


def _key(example: LabeledExample) -> tuple:
    return (example.tokens, example.context, example.valid)


class PolicyAdaptationPoint:
    """Adapts the GPM from monitoring feedback.

    Feedback is consumed incrementally: the PAdaP keeps the keys of the
    examples it holds and, per log, a cursor into that log's review
    journal, so each :meth:`ingest_feedback` reads only the records
    reviewed since the previous one.
    """

    def __init__(
        self,
        hypothesis_space: Sequence[CandidateRule],
        representations: RepresentationsRepository,
        pcp: Optional[PolicyCheckingPoint] = None,
        max_violations: int = 0,
    ):
        self.hypothesis_space = list(hypothesis_space)
        self.representations = representations
        self.pcp = pcp
        self.max_violations = max_violations
        self.examples: List[LabeledExample] = []
        self._known: Set[tuple] = set()
        self._cursors = weakref.WeakKeyDictionary()  # log -> review cursor

    # -- example management -----------------------------------------------

    def add_example(self, example: LabeledExample) -> None:
        self.examples.append(example)
        self._known.add(_key(example))
        if self.pcp is not None and not example.valid:
            self.pcp.record_violation(example)

    def ingest_feedback(self, log: MonitoringLog) -> int:
        """Convert reviewed monitoring records into labelled examples.

        A confirmed-bad outcome whose decision was driven by policy ``p``
        in context ``C`` becomes the negative example ``<p, C>``; a
        confirmed-good one becomes positive.  Returns how many new
        examples were ingested.

        A record whose key the PAdaP already holds adds nothing, so only
        records reviewed (or re-marked) since the last ingest from ``log``
        can add examples; those are the only ones read.
        """
        records, self._cursors[log] = log.reviewed_since(self._cursors.get(log))
        added = 0
        for record in records:
            if not record.policy_text:
                continue
            example = LabeledExample(
                tuple(record.policy_text.split()), record.context, valid=record.outcome_ok
            )
            if _key(example) not in self._known:
                self.add_example(example)
                added += 1
        return added

    # -- adaptation -----------------------------------------------------------

    def needs_adaptation(self, log: MonitoringLog) -> bool:
        """Adaptation triggers when the system "is not meeting the goals":
        any decision outcome was flagged bad, or decisions were served
        degraded (the PDP fell back because of resource exhaustion).
        Reads the log's running counts, not its records."""
        stats = log.stats()
        return stats.violations > 0 or stats.degraded > 0

    def adapt(self) -> Tuple[GenerativePolicyModel, Optional[LearnedHypothesis]]:
        """Relearn the GPM over all accumulated examples and store it.

        On an unsatisfiable task the learner retries with growing
        violation budgets (noisy feedback is a fact of coalition life —
        paper Section IV.C); the last resort keeps the current model.
        Under an ambient budget, a budget-exhausted attempt yields the
        learner's degraded best-so-far hypothesis rather than stalling.
        """
        model = self.representations.latest()
        allowed = self.max_violations
        while True:
            try:
                new_model, result = learn_gpm(
                    model, self.hypothesis_space, self.examples, max_violations=allowed
                )
                self.representations.store(new_model)
                return new_model, result
            except UnsatisfiableTaskError:
                allowed += 1
                if allowed > self.max_violations + len(self.examples):
                    return model, None
