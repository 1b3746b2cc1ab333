"""End-to-end telemetry: decisions link to traces; learning runs trace.

Covers the two ISSUE acceptance criteria:

* a PDP decision's ``DecisionRecord`` carries the trace id of its root
  span, whose record holds the counters of the solves under it;
* running the E3 learning pipeline under a tracer produces a
  ``summarize()`` report with named operations for ground / solve /
  learn and nonzero counters.
"""

import pytest

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import PolicyDecisionPoint
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.apps.xacml_case_study import XacmlLearningPipeline
from repro.asp.parser import parse_program
from repro.asp.solver import solve
from repro.datasets import default_ground_truth, default_schema, sample_log
from repro.policy import Decision, Request, assess, counterfactuals, explain_decision
from repro.telemetry import Tracer, summarize, tracer_scope

CHECK_PROGRAM = parse_program("a :- not b. b :- not a.")


class SolverBackedInterpreter:
    """A field interpreter that consults the ASP solver while compiling.

    Stands in for the solver-backed interpretation path the PDP module
    documents ("an interpreter may run ASG membership or ASP solving"):
    each policy compilation performs one ASP solve, so a traced decision
    has engine spans inside its trace.
    """

    def __init__(self):
        self._inner = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})

    def __call__(self, tokens):
        assert len(solve(CHECK_PROGRAM)) == 2
        return self._inner(tokens)


def test_decision_record_links_to_trace_with_solver_spans():
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    pdp = PolicyDecisionPoint(repository, SolverBackedInterpreter())
    tracer = Tracer()
    with tracer_scope(tracer):
        record = pdp.decide(
            Request({"subject": {"id": "alice"}, "action": {"id": "read"}})
        )
    assert record.decision is Decision.PERMIT
    assert record.trace_id is not None

    # the record names the decision's root record, which holds the
    # counters of the solver work under it
    (root,) = [r for r in tracer.roots if r["trace_id"] == record.trace_id]
    assert root["name"] == "pdp.decide"
    assert root["counters"]["solver.decisions"] >= 1
    assert root["counters"]["solver.models"] >= 2
    assert root["counters"]["pdp.decisions"] == 1
    assert tracer.operations["asp.solve"]["count"] >= 1


def test_degraded_decision_still_carries_trace_id():
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    pdp = PolicyDecisionPoint(repository, interpreter)
    for _ in range(pdp.breaker.failure_threshold):
        pdp.breaker.record_failure()
    assert not pdp.breaker.allow()
    tracer = Tracer()
    with tracer_scope(tracer):
        record = pdp.decide(
            Request({"subject": {"id": "alice"}, "action": {"id": "read"}})
        )
    assert record.degraded
    assert record.trace_id == tracer.roots[-1]["trace_id"]
    assert tracer.roots[-1]["counters"]["pdp.breaker_rejections"] == 1


def test_e3_pipeline_trace_shows_ground_solve_learn():
    """A traced learning run at bench_e3's small end, then the quality
    check (E9) and explanation (E10) of the ground truth it learns from."""
    tracer = Tracer()
    ground_truth = default_ground_truth()
    log = sample_log(ground_truth, 40, seed=1)
    with tracer_scope(tracer):
        model = XacmlLearningPipeline().learn(log)
        assert assess(ground_truth, default_schema()).consistent
        explain_decision(ground_truth, log[0].request)
        counterfactuals(ground_truth, log[0].request, default_schema())
    assert model.rules  # learning actually happened

    summary = summarize(tracer)
    operations = summary["operations"]
    assert operations["asp.ground"]["count"] >= 1
    assert operations["asp.solve"]["count"] >= 1
    learn_ops = [name for name in operations if name.startswith("learn.")]
    assert learn_ops, f"no learn.* span among {sorted(operations)}"
    assert operations["policy.quality"]["count"] == 4  # one per detector
    assert operations["policy.explain"]["count"] == 2

    counters = summary["counters"]
    assert counters["grounder.rules_grounded"] > 0
    assert counters["grounder.fixpoint_iterations"] > 0
    assert counters["solver.models"] > 0
    assert counters["solver.propagations"] > 0
    assert counters["learner.checks"] > 0
    assert counters["learner.hypotheses_learned"] >= 1
