"""Convenience entry point for the ASP engine.

:func:`solve_text` wraps parse → ground → solve into the one-liner used
throughout the higher layers::

    >>> from repro.asp import solve_text
    >>> models = solve_text("a :- not b. b :- not a.")
    >>> sorted(sorted(str(x) for x in m) for m in models)
    [['a'], ['b']]

It returns a :class:`~repro.asp.solver.SolveResult` — a ``list`` of
answer sets that also carries the run's
:class:`~repro.asp.solver.SolveStats` (``result.stats``), so
list-consuming callers keep working while telemetry-aware ones read the
counters.  An in-memory :class:`~repro.asp.rules.Program` goes to
:func:`~repro.asp.solver.solve` directly.  Grounding and solving are
bounded by the ambient :class:`~repro.runtime.budget.Budget` installed
with :func:`~repro.runtime.budget.budget_scope`, raising
:class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.SolveTimeoutError` when exhausted.
"""

from __future__ import annotations

from typing import Optional

from repro.asp.parser import parse_program
from repro.asp.solver import SolveResult, solve

__all__ = ["solve_text"]


def solve_text(text: str, max_models: Optional[int] = None) -> SolveResult:
    """Parse, ground, and solve ASP source text."""
    return solve(parse_program(text), max_models=max_models)
