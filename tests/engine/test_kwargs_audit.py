"""Kwarg alignment across the public solving surface.

The serving API redesign promises one vocabulary everywhere: anything
that grounds or solves accepts ``budget=``; anything that enumerates
models accepts ``max_models=``.  These tests pin the signatures *and*
exercise the threading (a knob accepted but dropped would pass a pure
signature check).
"""

import inspect

import pytest

from repro.asp.api import is_satisfiable, is_satisfiable_text, solve_program, solve_text
from repro.asp.parser import parse_program
from repro.asp.solver import SolveResult, solve
from repro.asg import accepting_witness, accepts, parse_asg, tree_answer_sets
from repro.engine import PolicyEngine
from repro.learning.decomposable import DecomposableLearner
from repro.learning.ilasp import ILASPLearner
from repro.runtime.budget import Budget


def params(func):
    return set(inspect.signature(func).parameters)


@pytest.mark.parametrize(
    "func", [solve, solve_program, solve_text, PolicyEngine.solve, PolicyEngine.solve_text]
)
def test_solver_entrypoints_share_knobs(func):
    # the Budget is the one limit: no per-call step knob beside it
    knobs = params(func) - {"self", "program", "text"}
    assert knobs == {"max_models", "budget"}
    assert "max_steps" not in params(func)


@pytest.mark.parametrize("func", [is_satisfiable, is_satisfiable_text])
def test_satisfiability_entrypoints(func):
    assert {"budget"} <= params(func)


@pytest.mark.parametrize(
    "func", [accepts, accepting_witness, PolicyEngine.accepts]
)
def test_membership_entrypoints(func):
    assert {"max_trees", "budget"} <= params(func)


def test_tree_answer_sets_knobs():
    assert {"max_models", "budget"} <= params(tree_answer_sets)


@pytest.mark.parametrize("cls", [ILASPLearner, DecomposableLearner])
def test_learners_accept_budget(cls):
    assert "budget" in params(cls.__init__)


@pytest.mark.parametrize("func", [solve_text, solve_program, solve])
def test_entrypoints_return_solve_result(func):
    program_or_text = "a. b :- a."
    if func is not solve_text:
        program_or_text = parse_program(program_or_text)
    result = func(program_or_text)
    assert isinstance(result, SolveResult)
    assert isinstance(result, list)  # list-compatible for legacy callers
    assert result.stats.models == len(result) == 1


def test_budget_is_actually_threaded():
    from repro.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        solve_text(" ".join("{ a%d }." % i for i in range(12)), budget=Budget(max_steps=200))


def test_asg_fast_path_threaded_through_membership():
    asg = parse_asg(
        """
start -> elem { :- value(2)@1. }
elem -> "x" { value(1). }
elem -> "y" { value(2). }
"""
    )
    assert accepts(asg, ("x",)) is True
    assert accepts(asg, ("y",)) is False


def test_engine_constructor_forwards_pdp_kwargs():
    # budget_factory / strategy / breaker reach the inner PDP untouched
    assert {"budget_factory", "strategy", "breaker"} <= params(
        __import__("repro.agenp.pdp", fromlist=["PolicyDecisionPoint"])
        .PolicyDecisionPoint.__init__
    )
