"""Resource-governed solving: budgets through the ASP pipeline."""

import pytest

from repro.asp import solve_text, solver as solver_module
from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.solver import AnswerSetSolver, solve
from repro.errors import BudgetExceededError, SolveTimeoutError
from repro.runtime.budget import Budget, budget_scope

# every subset of 14 atoms: trivial to ground, 2^14 answer sets to
# enumerate — a hard instance for any small step budget
HARD = " ".join("{ a%d }." % i for i in range(14))


class TestExplicitBudget:
    """A budget installed with ``budget_scope`` directly around one call."""

    def test_budget_exhausts_mid_solve_with_steps_attached(self):
        with pytest.raises(BudgetExceededError) as err, budget_scope(
            Budget(max_steps=2_000)
        ):
            solve_text(HARD)
        assert err.value.steps_used >= 2_000
        assert err.value.max_steps == 2_000

    def test_generous_budget_solves_and_reports_usage(self):
        budget = Budget(max_steps=50_000_000)
        with budget_scope(budget):
            models = solve_text("a :- not b. b :- not a.")
        assert len(models) == 2
        assert budget.steps_used > 0

    def test_budget_bounds_grounding_too(self):
        text = (
            "num(1). num(2). num(3). num(4). num(5). num(6). num(7). num(8)."
            "pair(X, Y) :- num(X), num(Y)."
            "quad(A, B, C, D) :- pair(A, B), pair(C, D)."
        )
        with pytest.raises(BudgetExceededError), budget_scope(Budget(max_steps=500)):
            ground_program(parse_program(text))

    def test_wall_clock_deadline_raises_timeout(self):
        ticking = iter(range(100_000))

        def clock():
            # each consultation advances "time" one second
            return float(next(ticking))

        budget = Budget(wall_clock=0.5, clock=clock)
        with pytest.raises(SolveTimeoutError), budget_scope(budget):
            solve_text(HARD)


class TestAmbientBudget:
    def test_scope_bounds_nested_solve(self):
        with budget_scope(Budget(max_steps=2_000)):
            with pytest.raises(BudgetExceededError):
                solve_text(HARD)

    def test_inner_scope_wins_over_outer(self):
        with budget_scope(Budget(max_steps=1)):
            # the inner (generous) budget is used, not the outer one
            with budget_scope(Budget(max_steps=100_000)):
                models = solve_text("a.")
        assert len(models) == 1

    def test_no_budget_solves_unbounded(self):
        assert len(solve_text("{ a } . { b }.")) == 4


class TestSolverStepLimit:
    def test_max_steps_exhaustion_is_typed(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_MAX_STEPS", 1_000)
        ground = ground_program(parse_program(HARD))
        solver = AnswerSetSolver(ground)
        with pytest.raises(BudgetExceededError) as err:
            solver.solve()
        assert err.value.steps_used >= 1_000
        assert err.value.max_steps == 1_000
        assert solver.steps_used >= 1_000

    def test_default_step_limit_is_runaway_guard(self):
        ground = ground_program(parse_program("a."))
        AnswerSetSolver(ground).solve()
        assert solver_module._MAX_STEPS == 50_000_000
