"""The no-tracer path must stay no-op cheap (ISSUE acceptance guard).

Instrumented hot paths run unconditionally in production code, so the
cost of *not* tracing matters as much as the fidelity of tracing.  The
contract: outside any ``tracer_scope`` the module-level helpers return
the shared ``NULL_SPAN`` singleton (no allocation) or return after a
single context-variable read, and instrumented engine entry points add
no measurable overhead versus a hand-rolled no-op baseline.
"""

import time

from repro.asp.parser import parse_program
from repro.asp.solver import solve
from repro.telemetry import NULL_SPAN, current_tracer, incr, span


def test_span_outside_scope_is_shared_singleton():
    assert current_tracer() is None
    first = span("asp.solve")
    second = span("earley.recognize")
    assert first is NULL_SPAN
    assert second is NULL_SPAN


def test_null_span_absorbs_full_api():
    with span("anything") as sp:
        sp.incr("solver.models", 3)
    assert sp is NULL_SPAN
    assert sp.trace_id is None
    # ambient helpers are also no-ops
    incr("widgets", 5)


def test_uninstrumented_overhead_is_negligible():
    """Opening a no-op span must cost on the order of a dict lookup.

    Timing bound is deliberately generous (10x a baseline function
    call) so the test is robust on loaded CI machines while still
    catching accidental per-call allocation or I/O on the no-op path.
    """

    def baseline():
        return None

    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        baseline()
    base = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n):
        with span("x") as sp:
            sp.incr("c")
    traced = time.perf_counter() - t0

    # one ContextVar read + two no-op method calls; never 10x a call
    assert traced < max(base * 10, 0.25)


def test_solver_runs_identically_without_tracer():
    """Instrumented engine code must not change results when untraced."""
    program = parse_program("a :- not b. b :- not a.")
    result = solve(program)
    assert len(result) == 2
    # stats are still collected on the result object (satellite a) ...
    assert result.stats.decisions >= 1
    assert result.stats.models == 2
    # ... but nothing was traced
    assert current_tracer() is None
