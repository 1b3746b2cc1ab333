"""Decision explanations, including counterfactuals (paper Section V.B).

Two levels, as the paper requires:

* **enforcement-time** — which rules applied to a request and which
  attribute matches made them apply (:func:`explain_decision`);
* **counterfactual** — the minimal attribute changes that would flip the
  decision (:func:`counterfactuals`), in the style of Wachter et al.:
  "you were denied because role=dev; had role been dba, you would have
  been permitted".

Both run under a ``policy.explain`` telemetry span.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.policy.evaluation import applicable_rules, evaluate_policy_set
from repro.policy.model import Decision, DomainSchema, Request
from repro.policy.xacml import Match, Policy, XacmlRule
from repro.telemetry import span as _tele_span

__all__ = ["DecisionExplanation", "Counterfactual", "explain_decision", "counterfactuals"]


class DecisionExplanation:
    """Why a request received its decision."""

    def __init__(
        self,
        request: Request,
        decision: Decision,
        fired: List[Tuple[str, XacmlRule, Decision]],
        relevant_matches: List[Match],
    ):
        self.request = request
        self.decision = decision
        self.fired = fired
        self.relevant_matches = relevant_matches

    def text(self) -> str:
        """A human-readable explanation."""
        if not self.fired:
            return (
                f"Decision {self.decision.value}: no rule applied to this request."
            )
        lines = [f"Decision {self.decision.value} because:"]
        for policy_id, rule, decision in self.fired:
            conditions = ", ".join(repr(m) for m in rule.all_matches()) or "always"
            lines.append(
                f"  - rule {policy_id}.{rule.rule_id} ({decision.value}) applied: {conditions}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DecisionExplanation({self.decision!r}, {len(self.fired)} rules fired)"


class Counterfactual:
    """A minimal attribute change that flips the decision."""

    def __init__(
        self,
        changes: Dict[Tuple[str, str], Tuple[object, object]],
        new_decision: Decision,
    ):
        self.changes = changes
        self.new_decision = new_decision

    @property
    def size(self) -> int:
        return len(self.changes)

    def text(self) -> str:
        parts = [
            f"{category}.{attribute} were {new!r} instead of {old!r}"
            for (category, attribute), (old, new) in sorted(self.changes.items())
        ]
        return (
            f"If {' and '.join(parts)}, the decision would have been "
            f"{self.new_decision.value}."
        )

    def __repr__(self) -> str:
        return f"Counterfactual({self.changes}, -> {self.new_decision!r})"


def explain_decision(
    policies: Sequence[Policy],
    request: Request,
    combining: str = "deny-overrides",
) -> DecisionExplanation:
    """Explain the decision for ``request`` under ``policies``.

    Only the attributes actually tested by fired rules are reported as
    relevant, per the paper's observation that "not all attributes may
    be relevant for the request".
    """
    with _tele_span("policy.explain"):
        decision = evaluate_policy_set(policies, request, combining)
        fired: List[Tuple[str, XacmlRule, Decision]] = []
        for policy in policies:
            for rule, rule_decision in applicable_rules(policy, request):
                fired.append((policy.policy_id, rule, rule_decision))
        agreeing = [
            (pid, rule, d) for pid, rule, d in fired if d == decision
        ] or fired
        matches: List[Match] = []
        seen = set()
        for __, rule, __d in agreeing:
            for match in rule.all_matches():
                if match.key() not in seen:
                    seen.add(match.key())
                    matches.append(match)
        return DecisionExplanation(request, decision, agreeing, matches)


def counterfactuals(
    policies: Sequence[Policy],
    request: Request,
    schema: DomainSchema,
    combining: str = "deny-overrides",
    target: Optional[Decision] = None,
    max_changes: int = 2,
    max_results: int = 10,
) -> List[Counterfactual]:
    """Minimal attribute flips that change the decision.

    ``target`` restricts the desired new decision (default: any decision
    different from the current one, excluding indeterminate outcomes).
    Results are sorted by number of changed attributes; only minimal
    ones are returned (no counterfactual whose change set is a superset
    of another's).
    """
    with _tele_span("policy.explain"):
        original = evaluate_policy_set(policies, request, combining)
        keys = schema.attributes()
        results: List[Counterfactual] = []
        accepted_changes: List[frozenset] = []
        for size in range(1, max_changes + 1):
            for combo in itertools.combinations(keys, size):
                if any(set(prev) <= set(combo) for prev in accepted_changes):
                    continue
                pools = []
                for category, attribute in combo:
                    current = request.get(category, attribute)
                    pools.append(
                        [
                            value
                            for value in schema.domain(category, attribute).values()
                            if value != current
                        ]
                    )
                for values in itertools.product(*pools):
                    changed = request
                    changes: Dict[Tuple[str, str], Tuple[object, object]] = {}
                    for (category, attribute), value in zip(combo, values):
                        changes[(category, attribute)] = (
                            request.get(category, attribute),
                            value,
                        )
                        changed = changed.with_value(category, attribute, value)
                    new_decision = evaluate_policy_set(policies, changed, combining)
                    if new_decision == original:
                        continue
                    if new_decision in (Decision.INDETERMINATE, Decision.NOT_APPLICABLE):
                        continue
                    if target is not None and new_decision != target:
                        continue
                    results.append(Counterfactual(changes, new_decision))
                    accepted_changes.append(frozenset(combo))
                    if len(results) >= max_results:
                        return results
                    break  # one witness per attribute combination is enough
        return results
