"""Unit tests for Learning-from-Answer-Sets (plain ASP) tasks.

This is the mode the XACML case study (paper Section IV.C) uses: learn
``decision`` rules from request/response logs, where each log entry is a
context program plus a partial interpretation over decisions.
"""

import pytest

from repro.asp import parse_atom, parse_program
from repro.asp.atoms import Atom, Literal
from repro.asp.rules import Program, fact
from repro.asp.terms import Constant, Integer
from repro.errors import UnsatisfiableTaskError
from repro.learning import (
    LASTask,
    ModeAtom,
    ModeBias,
    PartialInterpretation,
    Placeholder,
    learn,
)


def example(decision, context_text):
    other = "deny" if decision == "permit" else "permit"
    return PartialInterpretation(
        inclusions=[parse_atom(f"decision({decision})")],
        exclusions=[parse_atom(f"decision({other})")],
        context=parse_program(context_text),
    )


def xacml_bias():
    return ModeBias(
        head_modes=[ModeAtom(Atom("decision", [Placeholder("verdict")]))],
        body_modes=[
            ModeAtom(Atom("role", [Placeholder("role")])),
            ModeAtom(Atom("action", [Placeholder("action")])),
        ],
        pools={
            "verdict": [Constant("permit"), Constant("deny")],
            "role": [Constant("dba"), Constant("dev")],
            "action": [Constant("read"), Constant("write")],
        },
        max_body=2,
        allow_constraints=False,
        allow_negation=False,
    )


class TestLASLearning:
    def test_learns_role_rule(self):
        space = xacml_bias().generate()
        positives = [
            example("permit", "role(dba). action(write)."),
            example("permit", "role(dba). action(read)."),
            example("deny", "role(dev). action(write)."),
        ]
        # default decision is deny unless a permit rule fires
        background = parse_program("decision(deny) :- not decision(permit).")
        task = LASTask(background, space, positives, negative=[])
        result = learn(task)
        learned = {repr(c.rule) for c in result.candidates}
        assert learned == {"decision(permit) :- role(dba)."}

    def test_learns_conjunction(self):
        space = xacml_bias().generate()
        positives = [
            example("permit", "role(dba). action(read)."),
            example("deny", "role(dba). action(write)."),
            example("deny", "role(dev). action(read)."),
        ]
        background = parse_program("decision(deny) :- not decision(permit).")
        result = learn(LASTask(background, space, positives, []))
        learned = {repr(c.rule) for c in result.candidates}
        assert learned == {"decision(permit) :- role(dba), action(read)."}

    def test_negative_examples_forbid_coverage(self):
        space = xacml_bias().generate()
        background = parse_program("decision(deny) :- not decision(permit).")
        positives = [example("permit", "role(dba). action(read).")]
        negatives = [
            PartialInterpretation(
                inclusions=[parse_atom("decision(permit)")],
                context=parse_program("role(dev). action(read)."),
            )
        ]
        result = learn(LASTask(background, space, positives, negatives))
        learned = next(iter(result.candidates)).rule
        # "permit anyone who reads" would cover the negative; the learner
        # must pick a dba-specific rule instead.
        assert "dba" in repr(learned)

    def test_unsat_when_no_rule_separates(self):
        space = xacml_bias().generate()
        background = parse_program("decision(deny) :- not decision(permit).")
        same_ctx = "role(dba). action(read)."
        task = LASTask(
            background,
            space,
            [example("permit", same_ctx), example("deny", same_ctx)],
            [],
        )
        with pytest.raises(UnsatisfiableTaskError):
            learn(task)

    def test_partial_interpretation_coverage(self):
        pi = PartialInterpretation(
            inclusions=[parse_atom("a")], exclusions=[parse_atom("b")]
        )
        assert pi.covered_by(frozenset({parse_atom("a")}))
        assert not pi.covered_by(frozenset({parse_atom("a"), parse_atom("b")}))
        assert not pi.covered_by(frozenset())


class TestOracleMemo:
    def test_integer_and_constant_contexts_are_distinct_examples(self):
        # p(1) with an integer and p(1) with the constant "1" print the
        # same; only the integer fires q :- p(1).
        task = LASTask(parse_program("q :- p(1)."), [], [], [])

        def needs_q(value):
            context = Program([fact(Atom("p", (value,)))])
            return PartialInterpretation(inclusions=[parse_atom("q")], context=context)

        assert task.positive_holds([], needs_q(Integer(1)))
        assert not task.positive_holds([], needs_q(Constant("1")))


class TestConstraintLAS:
    def test_learning_a_constraint(self):
        from repro.learning import constraint_space

        space = constraint_space(
            [
                Literal(parse_atom("p"), True),
                Literal(parse_atom("q"), True),
            ],
            max_body=2,
        )
        background = parse_program("{ p ; q }.")
        positives = [
            PartialInterpretation(inclusions=[parse_atom("p")]),
            PartialInterpretation(inclusions=[parse_atom("q")]),
        ]
        negatives = [
            PartialInterpretation(
                inclusions=[parse_atom("p"), parse_atom("q")]
            )
        ]
        result = learn(LASTask(background, space, positives, negatives))
        assert repr(result.candidates[0].rule) == ":- p, q."
