"""The Policy-Based Management System (PBMS) side of Figure 2.

The PBMS "provid[es] a characterization of the policy space within
which the AMS will operate in terms of a CFG, goals, and constraints".
:class:`PolicySpecification` is that characterization; global refinement
turns it into the initial ASG the PReP starts from.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.asp.parser import parse_program
from repro.asg.annotated import ASG
from repro.asg.asg_parser import parse_asg
from repro.errors import AgenpError
from repro.learning.mode_bias import CandidateRule

__all__ = ["PolicySpecification", "PolicyBasedManagementSystem"]


class PolicySpecification:
    """What the PBMS hands to an AMS.

    * ``grammar_text`` — the policy-language syntax (ASG text format; may
      already carry baseline semantic annotations, e.g. attribute facts);
    * ``global_constraints`` — ASP text of high-level constraints every
      generated policy must respect (added to the start productions);
    * ``goals`` — the goals monitoring judges outcomes against: either
      free-text descriptions or live goal objects
      (:class:`~repro.policy.goals.ThresholdGoal` /
      :class:`~repro.policy.goals.DeadlineGoal`), which the AMS tracks
      with a :class:`~repro.policy.goals.GoalMonitor`;
    * ``hypothesis_space`` — the learnable rules the AMS may adopt.
    """

    def __init__(
        self,
        grammar_text: str,
        global_constraints: str = "",
        goals: Sequence = (),
        hypothesis_space: Sequence[CandidateRule] = (),
    ):
        self.grammar_text = grammar_text
        self.global_constraints = global_constraints
        self.goals = list(goals)
        self.hypothesis_space = list(hypothesis_space)

    def goal_objects(self) -> List:
        """The live (non-string) goals, for the AMS's goal monitor."""
        return [goal for goal in self.goals if not isinstance(goal, str)]

    def initial_asg(self) -> ASG:
        """Global refinement: grammar + global constraints -> initial ASG."""
        asg = parse_asg(self.grammar_text)
        if self.global_constraints.strip():
            constraints = parse_program(self.global_constraints)
            asg = asg.with_context(constraints, where="start")
        return asg


class PolicyBasedManagementSystem:
    """The managing party: distributes specifications to AMSs."""

    def __init__(self) -> None:
        self._specifications: dict = {}

    def publish(self, name: str, specification: PolicySpecification) -> None:
        self._specifications[name] = specification

    def specification(self, name: str) -> PolicySpecification:
        try:
            return self._specifications[name]
        except KeyError:
            raise AgenpError(f"no specification published under {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._specifications)
