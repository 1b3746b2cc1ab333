"""Telemetry: per-operation tracing summaries for AGENP.

The observability counterpart to :mod:`repro.runtime`'s governance: where
budgets *bound* the engine's hot paths, telemetry *measures* them.  A
:class:`Tracer` installed with :func:`tracer_scope` folds the timed spans
of every instrumented layer — grounder, solver, Earley parser, ASG
membership, both learners, PDP, coalition fabric, policy quality and
explanation — into per-operation aggregates (count, errors, inclusive
and self time, p50/p95 from a log histogram) plus counters, and keeps
one record per root span.  :func:`summarize` turns a tracer into the
JSON summary that benchmarks write and the
``python -m repro.telemetry.report`` CLI merges and prints.

With no tracer installed every instrumentation point is no-op cheap
(one context-variable read), so the tier-1 suite and ungoverned callers
pay nothing.
"""

from repro.telemetry.summary import format_summary, merge, summarize
from repro.telemetry.tracer import NULL_SPAN, Span, Tracer, current_tracer, incr, span, tracer_scope

__all__ = [
    "NULL_SPAN", "Span", "Tracer", "current_tracer", "format_summary",
    "incr", "merge", "span", "summarize", "tracer_scope",
]
