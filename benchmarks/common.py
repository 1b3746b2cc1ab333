"""Shared benchmark telemetry: one summary artifact per experiment.

Every benchmark module runs under :func:`telemetry_session` (wired up as
an autouse fixture in ``conftest.py``), which installs an ambient
:class:`~repro.telemetry.Tracer` and, when the module finishes, writes
its :func:`~repro.telemetry.summarize` report plus wall time to
``benchmarks/artifacts/BENCH_<name>.json``.  That is the perf
trajectory: every CI run leaves behind, per experiment and operation,
count, p50/p95 latency, inclusive and self time, and the engine
counters (rules grounded, solver decisions/propagations, learner
checks, coalition retransmits).  No per-span records are written.

Merge and print artifacts with::

    PYTHONPATH=src python -m repro.telemetry.report benchmarks/artifacts/BENCH_*.json
"""

import contextlib
import json
import os
import time

from repro.analysis import lint_program
from repro.asp.solver import solve
from repro.telemetry import Tracer, summarize, tracer_scope

ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts")

__all__ = [
    "ARTIFACT_DIR",
    "artifact_path",
    "telemetry_session",
    "lint_and_solve",
]


def lint_and_solve(program, source=None, roots=(), **solve_kwargs):
    """One lint+solve benchmark cell: static analysis, then the solver.

    Returns ``(diagnostics, result)`` where ``result.stats`` carries the
    run's :class:`~repro.asp.solver.SolveStats` (including
    ``stability_skips``, the Gelfond–Lifschitz checks skipped because
    the ground program is tight).  Both phases run under the ambient tracer, so
    the BENCH_* artifacts record lint findings next to solver counters.
    """
    diagnostics = lint_program(program, source=source, roots=roots)
    result = solve(program, **solve_kwargs)
    return diagnostics, result


def artifact_path(name):
    """The summary artifact path for one experiment name."""
    return os.path.join(ARTIFACT_DIR, f"BENCH_{name}.json")


@contextlib.contextmanager
def telemetry_session(name):
    """Trace a benchmark experiment and persist its telemetry summary."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    tracer = Tracer()
    start = time.monotonic()
    try:
        with tracer_scope(tracer):
            yield tracer
    finally:
        summary = summarize(tracer)
        summary["experiment"] = name
        summary["wall_time_s"] = time.monotonic() - start
        with open(artifact_path(name), "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
