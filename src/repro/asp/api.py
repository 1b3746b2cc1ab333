"""Convenience entry points for the ASP engine.

These wrap parse → ground → solve into one-liners used throughout the
higher layers::

    >>> from repro.asp import solve_text
    >>> models = solve_text("a :- not b. b :- not a.")
    >>> sorted(sorted(str(x) for x in m) for m in models)
    [['a'], ['b']]

All entry points return a :class:`~repro.asp.solver.SolveResult` — a
``list`` of answer sets that also carries the run's
:class:`~repro.asp.solver.SolveStats` (``result.stats``), so existing
list-consuming callers keep working while telemetry-aware ones read the
counters.  They accept ``max_models`` and an optional
:class:`~repro.runtime.budget.Budget`, the one limit on grounding +
solving (the ambient budget installed by
:func:`~repro.runtime.budget.budget_scope` is honoured too), raising
:class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.SolveTimeoutError` when exhausted.
"""

from __future__ import annotations

from typing import Optional

from repro.asp.parser import parse_program
from repro.asp.rules import Program
from repro.asp.solver import SolveResult, solve

from repro.runtime.budget import Budget

__all__ = ["solve_text", "is_satisfiable_text", "solve_program", "is_satisfiable"]


def solve_text(
    text: str,
    max_models: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Parse, ground, and solve ASP source text."""
    return solve(parse_program(text), max_models=max_models, budget=budget)


def is_satisfiable_text(
    text: str,
    budget: Optional[Budget] = None,
) -> bool:
    """True iff the program given as source text has at least one answer set."""
    return bool(solve_text(text, max_models=1, budget=budget))


def solve_program(
    program: Program,
    max_models: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Ground and solve an in-memory :class:`Program`."""
    return solve(program, max_models=max_models, budget=budget)


def is_satisfiable(
    program: Program,
    budget: Optional[Budget] = None,
) -> bool:
    """True iff ``program`` has at least one answer set."""
    return bool(solve(program, max_models=1, budget=budget))
