"""Unit tests for the decomposable (set-cover) learner.

The key property: on decomposable tasks it agrees with the exact
learner; on non-decomposable ones it detects the mismatch and
``learn_auto`` falls back.
"""

import pytest

from repro.asp import parse_atom, parse_program
from repro.asp.atoms import Atom, Literal
from repro.asp.terms import Constant
from repro.asg import accepts, parse_asg
from repro.errors import UnsatisfiableTaskError
from repro.learning import (
    ASGLearningTask,
    ContextExample,
    DecomposableLearner,
    LASTask,
    PartialInterpretation,
    constraint_space,
    learn,
    learn_auto,
)

GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
"""


def pool():
    out = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob")]
    out += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write")]
    return out


def asg_task(positive, negative):
    asg = parse_asg(GRAMMAR)
    space = constraint_space(pool(), prod_ids=(0,), max_body=2)
    return ASGLearningTask(asg, space, positive, negative)


class TestAgreementWithExactLearner:
    def test_same_solution_on_constraint_task(self):
        task = asg_task(
            positive=[
                ContextExample.from_text("allow alice read"),
                ContextExample.from_text("allow bob write"),
            ],
            negative=[ContextExample.from_text("allow alice write")],
        )
        exact = learn(task)
        fast = DecomposableLearner(task).learn()
        assert {c.key() for c in fast.candidates} == {c.key() for c in exact.candidates}

    def test_multi_rule_set_cover(self):
        task = asg_task(
            positive=[
                ContextExample.from_text("allow alice read"),
                ContextExample.from_text("allow bob write"),
            ],
            negative=[
                ContextExample.from_text("allow alice write"),
                ContextExample.from_text("allow bob read"),
            ],
        )
        exact = learn(task)
        fast = DecomposableLearner(task).learn()
        assert fast.cost == exact.cost == 4
        learned = task.initial.with_rules([(c.rule, c.prod_id) for c in fast.candidates])
        assert not accepts(learned, ("allow", "alice", "write"))
        assert not accepts(learned, ("allow", "bob", "read"))
        assert accepts(learned, ("allow", "alice", "read"))

    def test_unsat_detected(self):
        same = ContextExample.from_text("allow alice read")
        task = asg_task(positive=[same], negative=[same])
        with pytest.raises(UnsatisfiableTaskError):
            DecomposableLearner(task).learn()


class TestViolationBudgets:
    def test_skip_branch_absorbs_contradiction(self):
        same = ContextExample.from_text("allow alice read")
        task = asg_task(
            positive=[same, ContextExample.from_text("allow bob write")],
            negative=[same],
        )
        result = DecomposableLearner(task, max_violations=1).learn()
        assert result.violations <= 1

    def test_learn_auto_grows_budget(self):
        same = ContextExample.from_text("allow alice read")
        task = asg_task(
            positive=[same, ContextExample.from_text("allow bob write")],
            negative=[same],
        )
        result = learn_auto(task, fallback=False)
        assert result.violations >= 1


def definite_task():
    from repro.learning import ModeAtom, ModeBias, Placeholder

    bias = ModeBias(
        head_modes=[ModeAtom(Atom("decision", [Constant("permit")]))],
        body_modes=[ModeAtom(Atom("role", [Placeholder("role")]))],
        pools={"role": [Constant("dba"), Constant("dev"), Constant("guest")]},
        max_body=1,
        allow_constraints=False,
        allow_negation=False,
    )
    background = parse_program("decision(deny) :- not decision(permit).")

    def example(decision, role):
        other = "deny" if decision == "permit" else "permit"
        return PartialInterpretation(
            inclusions=[parse_atom(f"decision({decision})")],
            exclusions=[parse_atom(f"decision({other})")],
            context=parse_program(f"role({role})."),
        )

    return LASTask(
        background,
        bias.generate(),
        [
            example("permit", "dba"),
            example("permit", "dev"),
            example("deny", "guest"),
        ],
        [],
    )


class TestLASDecomposition:
    def test_definite_rule_cover(self):
        result = DecomposableLearner(definite_task()).learn()
        texts = {repr(c.rule) for c in result.candidates}
        assert texts == {
            "decision(permit) :- role(dba).",
            "decision(permit) :- role(dev).",
        }

    def test_repeated_learn_counts_the_build_once(self):
        """A second learn() reuses the coverage model: its span records
        only the verification's oracle calls, while each result reports
        the build plus its own calls."""
        from repro.telemetry import Tracer, summarize, tracer_scope

        learner = DecomposableLearner(definite_task())
        tracer = Tracer()
        with tracer_scope(tracer):
            first = learner.learn()
            built = learner._checks
            second = learner.learn()
        verify = learner._checks - built
        assert verify == 3  # one full-oracle call per distinct example
        assert first.checks == built
        assert second.checks == built
        assert summarize(tracer.spans)["counters"]["learner.checks"] == built + verify
        assert second.elapsed >= learner._build_s

    def test_deny_examples_block_overbroad_rules(self):
        """A deny log entry is a *positive* example satisfied by the
        background; selecting a rule that fires on it must count as a
        violation (the regression that once sent the fast path into the
        exact learner)."""
        from repro.learning import ModeAtom, ModeBias, Placeholder

        bias = ModeBias(
            head_modes=[ModeAtom(Atom("decision", [Constant("permit")]))],
            body_modes=[
                ModeAtom(Atom("role", [Placeholder("role")])),
                ModeAtom(Atom("action", [Placeholder("action")])),
            ],
            pools={
                "role": [Constant("dba")],
                "action": [Constant("read"), Constant("write")],
            },
            max_body=2,
            allow_constraints=False,
            allow_negation=False,
        )
        background = parse_program("decision(deny) :- not decision(permit).")
        examples = [
            PartialInterpretation(
                inclusions=[parse_atom("decision(permit)")],
                exclusions=[parse_atom("decision(deny)")],
                context=parse_program("role(dba). action(read)."),
            ),
            PartialInterpretation(
                inclusions=[parse_atom("decision(deny)")],
                exclusions=[parse_atom("decision(permit)")],
                context=parse_program("role(dba). action(write)."),
            ),
        ]
        task = LASTask(background, bias.generate(), examples, [])
        result = DecomposableLearner(task).learn()
        assert result.violations == 0
        # the overbroad `decision(permit) :- role(dba).` must not be chosen
        texts = {repr(c.rule) for c in result.candidates}
        assert "decision(permit) :- role(dba)." not in texts
        # and the solution must satisfy both examples exactly
        assert task.positive_holds(result.candidates, examples[0])
        assert task.positive_holds(result.candidates, examples[1])
