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
    def test_budget_exhausts_mid_solve_with_steps_attached(self):
        with pytest.raises(BudgetExceededError) as err:
            solve_text(HARD, budget=Budget(max_steps=2_000))
        assert err.value.steps_used >= 2_000
        assert err.value.max_steps == 2_000

    def test_generous_budget_solves_and_reports_usage(self):
        budget = Budget(max_steps=50_000_000)
        models = solve_text("a :- not b. b :- not a.", budget=budget)
        assert len(models) == 2
        assert budget.steps_used > 0

    def test_budget_bounds_grounding_too(self):
        text = (
            "num(1). num(2). num(3). num(4). num(5). num(6). num(7). num(8)."
            "pair(X, Y) :- num(X), num(Y)."
            "quad(A, B, C, D) :- pair(A, B), pair(C, D)."
        )
        with pytest.raises(BudgetExceededError):
            ground_program(parse_program(text), budget=Budget(max_steps=500))

    def test_wall_clock_deadline_raises_timeout(self):
        ticking = iter(range(100_000))

        def clock():
            # each consultation advances "time" one second
            return float(next(ticking))

        budget = Budget(wall_clock=0.5, clock=clock)
        with pytest.raises(SolveTimeoutError):
            solve_text(HARD, budget=budget)


class TestAmbientBudget:
    def test_scope_bounds_nested_solve(self):
        with budget_scope(Budget(max_steps=2_000)):
            with pytest.raises(BudgetExceededError):
                solve_text(HARD)

    def test_explicit_budget_wins_over_ambient(self):
        with budget_scope(Budget(max_steps=1)):
            # the explicit (generous) budget is used, not the ambient one
            models = solve_text("a.", budget=Budget(max_steps=100_000))
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
