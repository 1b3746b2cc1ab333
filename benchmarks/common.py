"""Shared benchmark telemetry: per-experiment trace artifacts.

Every benchmark module runs under :func:`telemetry_session` (wired up as
an autouse fixture in ``conftest.py``), which installs an ambient
:class:`~repro.telemetry.Tracer` writing ``BENCH_<name>.jsonl`` (raw
spans, via the JSONL exporter) and ``BENCH_<name>.json`` (the
``summarize()`` report plus wall time) into ``benchmarks/artifacts/``.
That populates the perf trajectory: every CI run leaves behind the
per-operation p50/p95 latencies and engine counters (rules grounded,
solver decisions/propagations, learner checks, coalition retransmits)
for each experiment.

Inspect an artifact with::

    PYTHONPATH=src python -m repro.telemetry.report benchmarks/artifacts/BENCH_e3_fig3a_xacml_correct.jsonl
"""

import contextlib
import json
import os
import time

from repro.analysis import lint_program
from repro.asp.solver import solve
from repro.telemetry import JsonlExporter, Tracer, summarize, tracer_scope

ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts")

__all__ = [
    "ARTIFACT_DIR",
    "artifact_paths",
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


def artifact_paths(name):
    """The (jsonl, json) artifact paths for one experiment name."""
    return (
        os.path.join(ARTIFACT_DIR, f"BENCH_{name}.jsonl"),
        os.path.join(ARTIFACT_DIR, f"BENCH_{name}.json"),
    )


@contextlib.contextmanager
def telemetry_session(name):
    """Trace a benchmark experiment and persist its telemetry artifacts."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    jsonl_path, json_path = artifact_paths(name)
    tracer = Tracer(exporters=[JsonlExporter(jsonl_path)])
    start = time.monotonic()
    try:
        with tracer_scope(tracer):
            yield tracer
    finally:
        tracer.close()
        summary = summarize(tracer.spans)
        summary["experiment"] = name
        summary["wall_time_s"] = time.monotonic() - start
        summary["spans"] = len(tracer.spans)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
