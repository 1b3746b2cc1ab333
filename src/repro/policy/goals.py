"""Goal-based policies (paper Section I's second policy type).

"Goal-based policies ... direct the managed parties to achieve a
specific goal, e.g., maintain a minimum threshold of utilization or try
to finish a task before a specific deadline."

Goals are evaluated against a metric stream fed by monitoring; a
:class:`GoalMonitor` tracks compliance over time, and its violations
are exactly the "system is not meeting the goals set by the global
PBMS" trigger that starts the PAdaP adaptation loop (Section III.A).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Union

from repro.errors import PolicyError

__all__ = ["GoalStatus", "ThresholdGoal", "DeadlineGoal", "GoalMonitor"]

Number = Union[int, float]

_OPS = {
    "ge": lambda value, bound: value >= bound,
    "gt": lambda value, bound: value > bound,
    "le": lambda value, bound: value <= bound,
    "lt": lambda value, bound: value < bound,
}


class GoalStatus(NamedTuple):
    """One goal's evaluation at one tick."""

    goal_name: str
    satisfied: bool
    detail: str


class ThresholdGoal:
    """Maintain ``metric <op> bound`` (the paper's utilization example)."""

    def __init__(self, name: str, metric: str, op: str, bound: Number):
        if op not in _OPS:
            raise PolicyError(f"unknown threshold operator {op!r}")
        self.name = name
        self.metric = metric
        self.op = op
        self.bound = bound

    def evaluate(self, tick: int, metrics: Mapping[str, Number]) -> GoalStatus:
        value = metrics.get(self.metric)
        if value is None:
            return GoalStatus(
                self.name, False, f"metric {self.metric!r} not reported"
            )
        ok = _OPS[self.op](value, self.bound)
        return GoalStatus(
            self.name,
            ok,
            f"{self.metric}={value} {'meets' if ok else 'violates'} "
            f"{self.op} {self.bound}",
        )

    def __repr__(self) -> str:
        return f"ThresholdGoal({self.name}: {self.metric} {self.op} {self.bound})"


class DeadlineGoal:
    """Finish a task (boolean metric turns true) before a deadline tick."""

    def __init__(self, name: str, task_metric: str, deadline: int):
        self.name = name
        self.task_metric = task_metric
        self.deadline = deadline

    def evaluate(self, tick: int, metrics: Mapping[str, Number]) -> GoalStatus:
        done = bool(metrics.get(self.task_metric, False))
        if done:
            return GoalStatus(self.name, True, f"completed by tick {tick}")
        if tick <= self.deadline:
            return GoalStatus(
                self.name, True, f"in progress, {self.deadline - tick} ticks left"
            )
        return GoalStatus(
            self.name, False, f"missed deadline {self.deadline} (now {tick})"
        )

    def __repr__(self) -> str:
        return f"DeadlineGoal({self.name}: {self.task_metric} by {self.deadline})"


class GoalMonitor:
    """Track a set of goals over a metric stream.

    ``observe`` ingests one tick of metrics and returns the statuses;
    ``violations`` accumulates every failed evaluation, and
    ``needs_adaptation`` is the PBMS-goals trigger for the AGENP loop.
    ``violation_count`` is a running count of the failed evaluations, so
    the trigger costs O(1) however long the history grows.
    """

    def __init__(self, goals: Sequence[Union[ThresholdGoal, DeadlineGoal]]):
        names = [goal.name for goal in goals]
        if len(set(names)) != len(names):
            raise PolicyError("goal names must be unique")
        self.goals = list(goals)
        self.tick = 0
        self.history: List[GoalStatus] = []
        self.violation_count = 0

    def observe(self, metrics: Mapping[str, Number]) -> List[GoalStatus]:
        self.tick += 1
        statuses = [goal.evaluate(self.tick, metrics) for goal in self.goals]
        self.history.extend(statuses)
        self.violation_count += sum(not status.satisfied for status in statuses)
        return statuses

    def violations(self) -> List[GoalStatus]:
        return [status for status in self.history if not status.satisfied]

    def needs_adaptation(self) -> bool:
        return self.violation_count > 0

    def compliance_rate(self, goal_name: Optional[str] = None) -> float:
        relevant = [
            status
            for status in self.history
            if goal_name is None or status.goal_name == goal_name
        ]
        if not relevant:
            return 1.0
        return sum(1 for status in relevant if status.satisfied) / len(relevant)
