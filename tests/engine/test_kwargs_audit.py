"""Kwarg alignment across the public solving surface.

The serving API promises one vocabulary everywhere: anything that
enumerates models accepts ``max_models=``, and nothing takes a
``budget=`` — a budget reaches a computation only through the ambient
``budget_scope``.  These tests pin the signatures *and* exercise the
threading (a scope installed but not read would pass a pure signature
check).
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.agenp.ams import AutonomousManagedSystem
from repro.asp.api import solve_text
from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.solver import AnswerSetSolver, SolveResult, solve, solve_optimal
from repro.asg import accepting_witness, accepts, parse_asg, tree_answer_sets
from repro.core.workflow import learn_gpm
from repro.engine import PolicyEngine
from repro.grammar.earley import parse_trees, recognize
from repro.learning.decomposable import DecomposableLearner, learn_auto
from repro.learning.ilasp import ILASPLearner, learn
from repro.runtime.budget import Budget, budget_scope


def params(func):
    return set(inspect.signature(func).parameters)


@pytest.mark.parametrize(
    "func", [solve, solve_text, PolicyEngine.solve, PolicyEngine.solve_text]
)
def test_solver_entrypoints_share_knobs(func):
    # the ambient Budget is the one limit: no per-call limit beside it
    knobs = params(func) - {"self", "program", "text"}
    assert knobs == {"max_models"}


@pytest.mark.parametrize("func", [accepts, accepting_witness])
def test_membership_entrypoints(func):
    assert "max_trees" in params(func)
    assert "budget" not in params(func)


def test_tree_answer_sets_knobs():
    assert params(tree_answer_sets) == {"asg", "tree", "max_models"}


@pytest.mark.parametrize(
    "func",
    [
        ground_program,
        AnswerSetSolver.__init__,
        solve_optimal,
        PolicyEngine.ground,
        recognize,
        parse_trees,
        learn,
        learn_auto,
        learn_gpm,
        ILASPLearner.__init__,
        DecomposableLearner.__init__,
        AutonomousManagedSystem.__init__,
    ],
    ids=lambda func: func.__qualname__,
)
def test_entrypoints_take_no_budget(func):
    assert not {p for p in params(func) if "budget" in p}


def _public_callables():
    """Every public function, class and method defined under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # the CLI entry point runs on import
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_budget_parameter():
    # budget_scope installs the budget; the PDP's per-decision factory
    # installs one through it.  Nothing else takes a budget.
    found = {
        (qualname, p)
        for qualname, func in _public_callables()
        for p in params(func)
        if "budget" in p
    }
    assert found == {
        ("repro.runtime.budget.budget_scope", "budget"),
        ("repro.agenp.pdp.PolicyDecisionPoint.__init__", "budget_factory"),
    }


@pytest.mark.parametrize("func", [solve_text, solve])
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

    with pytest.raises(BudgetExceededError), budget_scope(Budget(max_steps=200)):
        solve_text(" ".join("{ a%d }." % i for i in range(12)))


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
