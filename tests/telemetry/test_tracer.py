"""Tracer core: per-operation aggregates, self time, root records, ambient helpers."""

import random

import pytest

from repro.telemetry import (
    NULL_SPAN,
    Tracer,
    current_tracer,
    incr,
    merge,
    span,
    summarize,
    tracer_scope,
)
from repro.telemetry.tracer import bucket_of


def ticking_clock(*times):
    return iter(times).__next__


def test_span_records_name_and_duration():
    tracer = Tracer(clock=ticking_clock(0.0, 2.5))
    with tracer.span("op"):
        pass
    row = tracer.operations["op"]
    assert row["count"] == 1
    assert row["total"] == pytest.approx(2.5)
    assert row["max"] == pytest.approx(2.5)
    assert row["errors"] == 0
    assert tracer.roots == [
        {"name": "op", "trace_id": 1, "duration": 2.5, "status": "ok", "counters": {}}
    ]


def test_span_nesting_links_parents_and_shares_trace():
    # root 0..10, child 1..7, grandchild 2..4, second child 8..9
    tracer = Tracer(clock=ticking_clock(0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 10.0))
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                assert grandchild.trace_id == child.trace_id == root.trace_id
        with tracer.span("child"):
            pass
    ops = tracer.operations
    assert ops["grandchild"]["self"] == pytest.approx(2.0)
    # each child's self time excludes only its own direct children
    assert ops["child"]["total"] == pytest.approx(7.0)
    assert ops["child"]["self"] == pytest.approx(5.0)
    assert ops["root"]["self"] == pytest.approx(3.0)
    # only the root leaves a record, and self time adds up to it
    assert [r["name"] for r in tracer.roots] == ["root"]
    assert sum(row["self"] for row in ops.values()) == pytest.approx(10.0)
    assert summarize(tracer)["roots"] == {"count": 1, "total": 10.0}


def test_sibling_roots_get_fresh_traces():
    tracer = Tracer()
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    first, second = tracer.roots
    assert (first["trace_id"], second["trace_id"]) == (1, 2)


def test_counters_bubble_to_ancestors_and_tracer_totals():
    tracer = Tracer()
    with tracer_scope(tracer):
        incr("outside", 7)
        with tracer.span("root"):
            with tracer.span("child"):
                incr("widgets", 3)
            incr("widgets", 1)
        with tracer.span("next"):
            incr("widgets", 2)
    # each root holds its own tree's counters
    assert [r["counters"] for r in tracer.roots] == [{"widgets": 4}, {"widgets": 2}]
    assert tracer.counters == {"outside": 7, "widgets": 6}
    assert summarize(tracer)["counters"] == {"outside": 7, "widgets": 6}


def test_exception_marks_span_error_and_still_exports():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("boom"):
                raise ValueError("no")
    assert tracer.operations["boom"]["errors"] == 1
    assert tracer.operations["outer"]["errors"] == 1
    assert tracer.roots[0]["status"] == "error"
    # the stack unwound: the next span is a fresh root
    with tracer.span("after"):
        pass
    assert [r["name"] for r in tracer.roots] == ["outer", "after"]


def test_tracer_scope_installs_and_masks():
    tracer = Tracer()
    assert current_tracer() is None
    with tracer_scope(tracer):
        assert current_tracer() is tracer
        with tracer_scope(None):
            assert current_tracer() is None
            assert span("anything") is NULL_SPAN
        assert current_tracer() is tracer
    assert current_tracer() is None


def test_module_level_span_uses_ambient_tracer():
    tracer = Tracer()
    with tracer_scope(tracer):
        with span("ambient.op") as sp:
            sp.incr("ticks", 2)
    assert tracer.operations["ambient.op"]["count"] == 1
    assert tracer.roots[0]["counters"] == {"ticks": 2}


def test_summarize_counts_root_counters_once():
    tracer = Tracer()
    with tracer_scope(tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                incr("events", 5)
    summary = summarize(tracer)
    assert summary["counters"]["events"] == 5
    assert summary["operations"]["inner"]["count"] == 1
    assert summary["operations"]["outer"]["count"] == 1


def trace(spans):
    """A tracer that recorded one root span per (name, duration)."""
    times = []
    for __, duration in spans:
        times += [0.0, duration]
    tracer = Tracer(clock=ticking_clock(*times))
    with tracer_scope(tracer):
        for name, __ in spans:
            with tracer.span(name):
                incr(f"{name}.calls")
    return tracer


def test_histogram_quantiles_within_one_bucket_of_nearest_rank():
    rng = random.Random(7)
    durations = [rng.lognormvariate(-7.0, 2.0) for __ in range(5000)]
    row = summarize(trace([("op", d) for d in durations]))["operations"]["op"]
    exact = sorted(durations)
    for key, fraction in (("p50", 0.50), ("p95", 0.95)):
        nearest = exact[round(fraction * (len(exact) - 1))]
        assert abs(bucket_of(row[key]) - bucket_of(nearest)) <= 1, key
    assert row["max"] == exact[-1]


def test_merging_summaries_equals_summary_of_concatenated_spans():
    # dyadic durations keep every float sum exact in any order
    rng = random.Random(3)
    first = [("op", rng.randrange(1, 2**20) / 2**24) for __ in range(300)]
    second = [
        (rng.choice(["op", "other"]), rng.randrange(1, 2**14) / 2**16) for __ in range(200)
    ]
    merged = merge([summarize(trace(first)), summarize(trace(second))])
    assert merged == summarize(trace(first + second))
    assert merge([merged]) == merged
