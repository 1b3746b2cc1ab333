"""Resource-governed learning: degraded best-so-far hypotheses."""

import pytest

from repro.asp.atoms import Atom, Literal
from repro.asp.terms import Constant
from repro.asg import parse_asg
from repro.errors import BudgetExceededError
from repro.learning import ASGLearningTask, ContextExample, constraint_space, learn
from repro.runtime.budget import Budget, budget_scope

GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
"""


def make_task():
    pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob")]
    pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write")]
    return ASGLearningTask(
        parse_asg(GRAMMAR),
        constraint_space(pool, prod_ids=(0,), max_body=2),
        positive=[
            ContextExample.from_text("allow alice read"),
            ContextExample.from_text("allow bob write"),
        ],
        negative=[
            ContextExample.from_text("allow alice write"),
            ContextExample.from_text("allow bob read"),
        ],
    )


def test_unbudgeted_learning_is_not_degraded():
    result = learn(make_task())
    assert not result.degraded
    assert result.cost == 4


def short_budget() -> Budget:
    """Half the steps an unlimited, metered learn of the same task uses,
    so the budget always runs out mid-search."""
    meter = Budget()
    with budget_scope(meter):
        learn(make_task())
    return Budget(max_steps=meter.steps_used // 2)


def test_exhausted_budget_returns_degraded_best_so_far():
    with budget_scope(short_budget()):
        result = learn(make_task())
    assert result.degraded
    # a usable (possibly imperfect) hypothesis, not an exception
    assert result.cost >= 0
    assert isinstance(result.candidates, list)


def test_degradation_can_be_disabled():
    with pytest.raises(BudgetExceededError), budget_scope(short_budget()):
        learn(make_task(), degrade_on_exhaustion=False)


def test_generous_budget_matches_unbudgeted_result():
    budget = Budget(max_steps=50_000_000)
    with budget_scope(budget):
        governed = learn(make_task())
    free = learn(make_task())
    assert not governed.degraded
    assert governed.cost == free.cost
    assert budget.steps_used > 0


def test_scoped_budget_ticks_once_per_oracle_check():
    # a pure-Python oracle never solves, so the learner's own tick per
    # check is the only spending the ambient budget can see
    task = make_task()
    task.positive_holds = lambda hypothesis, example: True
    task.negative_holds = lambda hypothesis, example: bool(hypothesis)
    meter = Budget()
    with budget_scope(meter):
        result = learn(task)
    assert not result.degraded
    assert result.checks > 0
    assert meter.steps_used == result.checks
