"""The CAV ASG-based generative policy model and its symbolic learner.

The initial ASG (the PBMS handout) fixes the policy syntax and the
*derived-feature background knowledge* — how raw context (LOA numbers,
weather) maps to the abstract conditions constraints may mention.  The
learnable part is which constraints govern the ``accept`` production,
exactly the paper's split between known syntax and learned semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asg.annotated import ASG
from repro.asg.asg_parser import parse_asg
from repro.core.contexts import Context
from repro.learning.decomposable import learn_auto
from repro.learning.mode_bias import CandidateRule, constraint_space
from repro.learning.tasks import ASGLearningTask, ContextExample
from repro.apps.cav.domain import TASKS, TASK_LOA, CavScenario

__all__ = [
    "cav_asg",
    "cav_hypothesis_space",
    "scenario_to_context",
    "CavSymbolicLearner",
]

_ASG_TEXT = """
decision -> "accept" task {
    veh_insufficient :- task(T)@2, requires(T, L), vehicle_loa(V), V < L.
    reg_insufficient :- task(T)@2, requires(T, L), region_loa(V), V < L.
    risky :- task(T)@2, risky_task(T).
}
decision -> "reject" task
task -> "lane_keep"   { task(lane_keep). }
task -> "lane_change" { task(lane_change). }
task -> "overtake"    { task(overtake). }
task -> "park"        { task(park). }
"""

ACCEPT_PRODUCTION = 0


def cav_asg() -> ASG:
    """The initial CAV ASG (syntax + background feature rules)."""
    return parse_asg(_ASG_TEXT)


def cav_hypothesis_space(max_body: int = 2) -> List[CandidateRule]:
    """Constraints over the derived conditions, attachable to ``accept``."""
    pool = []
    for name in ("veh_insufficient", "reg_insufficient", "risky", "severe", "night"):
        pool.append(Literal(Atom(name), True))
        pool.append(Literal(Atom(name), False))
    return constraint_space(pool, prod_ids=(ACCEPT_PRODUCTION,), max_body=max_body)


def scenario_to_context(scenario: CavScenario) -> Context:
    """Encode a scenario's context as ASP facts (the request's task is
    carried by the policy string, not the context)."""
    lines = [
        f"vehicle_loa({scenario.vehicle_loa}).",
        f"region_loa({scenario.region_loa}).",
        f"weather({scenario.weather}).",
    ]
    if scenario.weather in ("snow", "fog"):
        lines.append("severe.")
    if scenario.time_of_day == "night":
        lines.append("night.")
    for task, loa in TASK_LOA.items():
        lines.append(f"requires({task}, {loa}).")
    lines.append("risky_task(lane_change). risky_task(overtake).")
    return Context.from_text("\n".join(lines))


class CavSymbolicLearner:
    """Train/predict wrapper giving the ASG-GPM a classifier interface,
    so experiment E5 can put it on the same learning curve as the
    shallow-ML baselines."""

    def __init__(self, max_body: int = 2, max_violations: int = 0):
        self.asg = cav_asg()
        self.space = cav_hypothesis_space(max_body)
        self.max_violations = max_violations
        self.learned: Optional[ASG] = None

    def fit(self, data: Sequence[Tuple[CavScenario, bool]]) -> "CavSymbolicLearner":
        positive: List[ContextExample] = []
        negative: List[ContextExample] = []
        for scenario, accepted in data:
            example = ContextExample(
                ("accept", scenario.task),
                scenario_to_context(scenario).program,
            )
            (positive if accepted else negative).append(example)
        task = ASGLearningTask(self.asg, self.space, positive, negative)
        budget = self.max_violations
        result = learn_auto(task, max_violations=budget)
        self.learned = self.asg.with_rules(result.rules)
        return self

    def predict_one(self, scenario: CavScenario) -> bool:
        if self.learned is None:
            raise RuntimeError("learner not fitted")
        grammar = self.learned.with_context(scenario_to_context(scenario).program)
        from repro.asg.semantics import accepts

        return accepts(grammar, ("accept", scenario.task))

    def predict(self, scenarios: Sequence[CavScenario]) -> List[bool]:
        return [self.predict_one(s) for s in scenarios]

    def learned_constraints(self) -> List[str]:
        if self.learned is None:
            return []
        out = []
        for prod_id, program in sorted(self.learned.annotations.items()):
            base = set(self.asg.annotation(prod_id))
            for rule in program:
                if rule not in base:
                    out.append(repr(rule))
        return sorted(out)
