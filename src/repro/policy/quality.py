"""Policy quality assessment (paper Section V.A; Bertino et al. [14]).

Four requirements, each with a detector:

* **Consistency** — no two rules with contradictory effects can apply to
  the same request.  Detected by symbolic overlap analysis of the rules'
  match sets against the declared attribute domains.
* **Relevance** — every policy applies to at least one possible request
  of the domain schema (and optionally to at least one request of an
  observed workload).
* **Minimality** — no rule is redundant: removing it leaves every
  decision unchanged.  A sound syntactic subsumption check flags rules
  whose match region is contained in an earlier same-effect rule; an
  exact semantic check verifies on the full request space.
* **Completeness** — every request of the schema receives a Permit or
  Deny (no NOT_APPLICABLE gaps).

The report structure feeds the AGENP Policy Checking Point's Quality
Checker (Figure 2).  Each detector runs under a ``policy.quality``
telemetry span, so :func:`assess` records four.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.policy.evaluation import evaluate_policy, evaluate_policy_set
from repro.policy.model import Decision, DomainSchema, Request
from repro.policy.xacml import Match, Policy, Target, XacmlRule
from repro.telemetry import span as _tele_span

__all__ = [
    "Conflict",
    "QualityReport",
    "rules_overlap",
    "find_conflicts",
    "find_irrelevant",
    "find_redundant",
    "find_coverage_gaps",
    "assess",
]


class Conflict:
    """Two rules with contradictory effects and overlapping applicability."""

    __slots__ = ("policy_a", "rule_a", "policy_b", "rule_b", "witness")

    def __init__(self, policy_a, rule_a, policy_b, rule_b, witness: Optional[Request]):
        self.policy_a = policy_a
        self.rule_a = rule_a
        self.policy_b = policy_b
        self.rule_b = rule_b
        self.witness = witness

    def __repr__(self) -> str:
        return (
            f"Conflict({self.policy_a}.{self.rule_a.rule_id} vs "
            f"{self.policy_b}.{self.rule_b.rule_id})"
        )


def _region(rule: XacmlRule, policy: Policy, schema: DomainSchema):
    """Allowed value sets per attribute for policy target + rule matches.

    Returns None when the conjunction is unsatisfiable within the schema.
    """
    region: Dict[Tuple[str, str], Set] = {}
    for match in policy.target.matches + rule.all_matches():
        key = (match.category, match.attribute)
        domain = schema.domain(*key)
        if domain is None:
            # attribute outside the schema: treat as unconstrained
            continue
        allowed = set(match.allowed_values(domain))
        if key in region:
            region[key] &= allowed
        else:
            region[key] = allowed
        if not region[key]:
            return None
    return region


def rules_overlap(
    policy_a: Policy,
    rule_a: XacmlRule,
    policy_b: Policy,
    rule_b: XacmlRule,
    schema: DomainSchema,
) -> Optional[Request]:
    """If the two rules can apply to one request, return a witness request."""
    region_a = _region(rule_a, policy_a, schema)
    region_b = _region(rule_b, policy_b, schema)
    if region_a is None or region_b is None:
        return None
    merged: Dict[Tuple[str, str], Set] = dict(region_a)
    for key, allowed in region_b.items():
        if key in merged:
            merged[key] = merged[key] & allowed
            if not merged[key]:
                return None
        else:
            merged[key] = set(allowed)
    # Build a witness over the full schema (unconstrained attributes take
    # any domain value).
    attributes: Dict[str, Dict[str, object]] = {}
    for category, attribute in schema.attributes():
        key = (category, attribute)
        if key in merged:
            value = sorted(merged[key], key=repr)[0]
        else:
            value = list(schema.domain(category, attribute).values())[0]
        attributes.setdefault(category, {})[attribute] = value
    return Request(attributes)


def find_conflicts(
    policies: Sequence[Policy], schema: DomainSchema
) -> List[Conflict]:
    """All pairs of contradictory-effect rules with overlapping regions.

    Within a single policy the combining algorithm resolves overlaps, so
    only *cross-policy* contradictions are reported, plus within-policy
    contradictions when the algorithm is ``first-applicable`` (where
    ordering silently masks the later rule).
    """
    with _tele_span("policy.quality"):
        conflicts: List[Conflict] = []
        indexed = [
            (policy, rule) for policy in policies for rule in policy.rules
        ]
        for (pol_a, rule_a), (pol_b, rule_b) in itertools.combinations(indexed, 2):
            if rule_a.effect == rule_b.effect:
                continue
            same_policy = pol_a.policy_id == pol_b.policy_id
            if same_policy and pol_a.combining != "first-applicable":
                continue
            witness = rules_overlap(pol_a, rule_a, pol_b, rule_b, schema)
            if witness is not None:
                conflicts.append(
                    Conflict(pol_a.policy_id, rule_a, pol_b.policy_id, rule_b, witness)
                )
        return conflicts


def find_irrelevant(
    policies: Sequence[Policy],
    schema: DomainSchema,
    workload: Optional[Sequence[Request]] = None,
) -> List[str]:
    """Policy ids that can never produce a decision.

    With a ``workload``, relevance means applying to at least one
    workload request; otherwise it is checked symbolically against the
    schema.
    """
    with _tele_span("policy.quality"):
        irrelevant = []
        for policy in policies:
            if workload is not None:
                applies = any(
                    evaluate_policy(policy, request)
                    in (Decision.PERMIT, Decision.DENY)
                    for request in workload
                )
            else:
                applies = any(
                    _region(rule, policy, schema) is not None for rule in policy.rules
                )
            if not applies:
                irrelevant.append(policy.policy_id)
        return irrelevant


def find_redundant(
    policies: Sequence[Policy],
    schema: DomainSchema,
    exact: bool = False,
    max_requests: int = 200_000,
) -> List[Tuple[str, str]]:
    """Redundant rules as ``(policy id, rule id)`` pairs.

    The default syntactic check flags rule r2 subsumed by an earlier
    same-effect rule r1 of the same policy (r1's region contains r2's).
    With ``exact=True``, each flagged rule is verified semantically:
    dropping it must leave every decision over the schema unchanged.
    """
    with _tele_span("policy.quality"):
        redundant: List[Tuple[str, str]] = []
        for policy in policies:
            regions = [(rule, _region(rule, policy, schema)) for rule in policy.rules]
            for i, (rule_i, region_i) in enumerate(regions):
                if region_i is None:
                    redundant.append((policy.policy_id, rule_i.rule_id))
                    continue
                for j in range(i):
                    rule_j, region_j = regions[j]
                    if region_j is None or rule_j.effect != rule_i.effect:
                        continue
                    if _contains(region_j, region_i, schema):
                        if not exact or _drop_is_safe(policy, rule_i, schema, max_requests):
                            redundant.append((policy.policy_id, rule_i.rule_id))
                        break
        return redundant


def _contains(outer: Dict, inner: Dict, schema: DomainSchema) -> bool:
    """Does region ``outer`` contain region ``inner``?"""
    for key, allowed in outer.items():
        domain = schema.domain(*key)
        full = set(domain.values()) if domain else None
        inner_allowed = inner.get(key, full)
        if inner_allowed is None:
            return False
        if not inner_allowed <= allowed:
            return False
    return True


def _drop_is_safe(
    policy: Policy, rule: XacmlRule, schema: DomainSchema, max_requests: int
) -> bool:
    remaining = [r for r in policy.rules if r.rule_id != rule.rule_id]
    if not remaining:
        return False
    reduced = Policy(policy.policy_id, remaining, policy.target, policy.combining)
    for request in schema.all_requests(max_requests=max_requests):
        if evaluate_policy(policy, request) != evaluate_policy(reduced, request):
            return False
    return True


def find_coverage_gaps(
    policies: Sequence[Policy],
    schema: DomainSchema,
    combining: str = "deny-overrides",
    max_requests: int = 200_000,
    max_gaps: int = 100,
) -> List[Request]:
    """Requests for which the policy set yields no Permit/Deny decision."""
    with _tele_span("policy.quality"):
        gaps: List[Request] = []
        for request in schema.all_requests(max_requests=max_requests):
            decision = evaluate_policy_set(policies, request, combining)
            if decision in (Decision.NOT_APPLICABLE, Decision.INDETERMINATE):
                gaps.append(request)
                if len(gaps) >= max_gaps:
                    break
        return gaps


class QualityReport:
    """The combined result of the four quality checks."""

    def __init__(
        self,
        conflicts: List[Conflict],
        irrelevant: List[str],
        redundant: List[Tuple[str, str]],
        gaps: List[Request],
    ):
        self.conflicts = conflicts
        self.irrelevant = irrelevant
        self.redundant = redundant
        self.gaps = gaps

    @property
    def consistent(self) -> bool:
        return not self.conflicts

    @property
    def relevant(self) -> bool:
        return not self.irrelevant

    @property
    def minimal(self) -> bool:
        return not self.redundant

    @property
    def complete(self) -> bool:
        return not self.gaps

    @property
    def ok(self) -> bool:
        return self.consistent and self.relevant and self.minimal and self.complete

    def summary(self) -> Dict[str, int]:
        return {
            "conflicts": len(self.conflicts),
            "irrelevant": len(self.irrelevant),
            "redundant": len(self.redundant),
            "coverage_gaps": len(self.gaps),
        }

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.summary().items())
        return f"QualityReport({parts})"


def assess(
    policies: Sequence[Policy],
    schema: DomainSchema,
    workload: Optional[Sequence[Request]] = None,
    combining: str = "deny-overrides",
    check_completeness: bool = True,
    max_requests: int = 200_000,
) -> QualityReport:
    """Run all four quality checks and bundle the results."""
    gaps: List[Request] = []
    if check_completeness:
        gaps = find_coverage_gaps(
            policies, schema, combining, max_requests=max_requests
        )
    return QualityReport(
        conflicts=find_conflicts(policies, schema),
        irrelevant=find_irrelevant(policies, schema, workload),
        redundant=find_redundant(policies, schema),
        gaps=gaps,
    )
