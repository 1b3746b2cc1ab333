"""Unit tests for the grounder."""

import random
import re
from typing import List, Set, Tuple

import pytest

from repro.asp import grounder
from repro.asp.atoms import Comparison, Literal
from repro.asp.grounder import ground_program, match_atom
from repro.asp.parser import parse_atom, parse_program
from repro.asp.rules import ChoiceRule, NormalRule, WeakConstraint
from repro.errors import GroundingError, UnsafeRuleError

from tests.asp.test_solver_fast_path import random_program


def ground(text: str):
    return ground_program(parse_program(text))


class TestPossibleAtoms:
    def test_facts_are_possible(self):
        result = ground("p(a). p(b).")
        assert parse_atom("p(a)") in result.atoms
        assert parse_atom("p(b)") in result.atoms

    def test_derived_atoms_are_possible(self):
        result = ground("p(a). q(X) :- p(X).")
        assert parse_atom("q(a)") in result.atoms

    def test_negation_ignored_for_possibility(self):
        result = ground("p(a). q(X) :- p(X), not r(X).")
        assert parse_atom("q(a)") in result.atoms

    def test_choice_elements_are_possible(self):
        result = ground("d(1). { pick(X) } :- d(X).")
        assert parse_atom("pick(1)") in result.atoms

    def test_transitive_closure(self):
        result = ground(
            "edge(1, 2). edge(2, 3)."
            "path(X, Y) :- edge(X, Y)."
            "path(X, Z) :- path(X, Y), edge(Y, Z)."
        )
        assert parse_atom("path(1, 3)") in result.atoms


class TestInstantiation:
    def test_rule_instances_per_binding(self):
        result = ground("p(1). p(2). q(X) :- p(X).")
        non_facts = [r for r in result.normal_rules if r.body]
        assert len(non_facts) == 2

    def test_failed_comparison_drops_instance(self):
        result = ground("p(1). p(5). q(X) :- p(X), X < 3.")
        heads = {r.head for r in result.normal_rules if r.head is not None}
        assert parse_atom("q(1)") in heads
        assert parse_atom("q(5)") not in heads

    def test_impossible_negative_literal_dropped(self):
        result = ground("p(a). q(X) :- p(X), not never(X).")
        rule = next(r for r in result.normal_rules if r.head == parse_atom("q(a)"))
        assert len(rule.body) == 1  # the `not never(a)` literal was dropped

    def test_possible_negative_literal_kept(self):
        result = ground("p(a). r(a). q(X) :- p(X), not r(X).")
        rule = next(r for r in result.normal_rules if r.head == parse_atom("q(a)"))
        assert len(rule.body) == 2

    def test_arithmetic_evaluated_in_head(self):
        result = ground("p(1). q(Y) :- p(X), Y = X + 1.")
        assert parse_atom("q(2)") in result.atoms

    def test_constraints_instantiated(self):
        result = ground("p(1). p(2). :- p(X), X > 1.")
        constraints = [r for r in result.normal_rules if r.is_constraint]
        assert len(constraints) == 1

    def test_annotations_respected_in_matching(self):
        result = ground("a@1. b :- a@1. c :- a@2.")
        heads = {r.head for r in result.normal_rules}
        assert parse_atom("b") in heads
        assert parse_atom("c") not in heads

    def test_duplicate_instances_deduplicated(self):
        result = ground("p(a). q :- p(a). q :- p(a).")
        with_body = [r for r in result.normal_rules if r.body]
        assert len(with_body) == 1


class TestSafety:
    def test_unsafe_fact_rejected(self):
        with pytest.raises(UnsafeRuleError):
            ground("p(X).")

    def test_unsafe_negative_only_rejected(self):
        with pytest.raises(UnsafeRuleError):
            ground("p :- not q(X).")

    def test_assignment_makes_variable_safe(self):
        result = ground("p(1). q(Y) :- p(X), Y = X * 2.")
        assert parse_atom("q(2)") in result.atoms

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(UnsafeRuleError):
            ground("q(Y) :- p(X). p(1).")

    def test_atom_bomb_guard(self, monkeypatch):
        monkeypatch.setattr(grounder, "_MAX_ATOMS", 100)
        text = (
            "n(1..9). p(A, B, C) :- n(A), n(B), n(C)."
        )
        with pytest.raises(GroundingError):
            ground_program(parse_program(text))


class TestMatching:
    def test_match_binds_variables(self):
        theta = match_atom(parse_atom("p(X, a)"), parse_atom("p(1, a)"), {})
        assert theta == {"X": parse_atom("p(1)").args[0]}

    def test_match_respects_existing_bindings(self):
        pattern = parse_atom("p(X, X)")
        assert match_atom(pattern, parse_atom("p(1, 1)"), {}) is not None
        assert match_atom(pattern, parse_atom("p(1, 2)"), {}) is None

    def test_match_fails_on_predicate_mismatch(self):
        assert match_atom(parse_atom("p(X)"), parse_atom("q(1)"), {}) is None

    def test_match_fails_on_annotation_mismatch(self):
        assert match_atom(parse_atom("p(X)@1"), parse_atom("p(1)@2"), {}) is None

    def test_match_nested_function(self):
        theta = match_atom(parse_atom("p(f(X))"), parse_atom("p(f(q))"), {})
        assert theta is not None
        assert repr(theta["X"]) == "q"


class TestOneEnumeration:
    def test_instantiation_reuses_the_last_fixpoint_pass(self):
        # pass 1 derives p(1), p(2), q(1), q(2); pass 2 adds nothing and
        # its 4 substitutions are the ones instantiated: no third pass
        result = ground("p(1). p(2). q(X) :- p(X).")
        stats = result.stats
        assert stats.fixpoint_iterations == 2
        assert stats.rules_grounded == 4
        assert stats.substitutions == stats.fixpoint_iterations * stats.rules_grounded == 8


def reference_ground(program) -> Tuple[list, list, list, Set]:
    """The grounder with a separate instantiation pass: the possible-atom
    fixpoint first, then a fresh enumeration of every rule against the
    complete possible-atom set."""
    plans = [(rule, grounder.order_body(rule)) for rule in program]
    index = grounder._AtomIndex()
    changed = True
    while changed:
        changed = False
        for rule, plan in plans:
            for theta in grounder._enumerate(plan, index, {}):
                heads = []
                if isinstance(rule, NormalRule):
                    if rule.head is not None:
                        heads = [rule.head.substitute(theta)]
                elif isinstance(rule, ChoiceRule):
                    heads = [a.substitute(theta) for a in rule.elements]
                for head in heads:
                    evaluated = grounder._evaluate_atom(head)
                    if evaluated is not None and index.add(evaluated):
                        changed = True
    normal: List[NormalRule] = []
    choice: List[ChoiceRule] = []
    weak: List[WeakConstraint] = []
    for rule, plan in plans:
        for theta in grounder._enumerate(plan, index, {}):
            body = []
            viable = True
            for elem in rule.body:
                if isinstance(elem, Comparison):
                    continue
                literal = elem.substitute(theta)
                atom = grounder._evaluate_atom(literal.atom)
                if atom is None:
                    viable = False
                    break
                if literal.positive or atom in index:
                    body.append(Literal(atom, literal.positive))
            if not viable:
                continue
            if isinstance(rule, NormalRule):
                head = None
                if rule.head is not None:
                    head = grounder._evaluate_atom(rule.head.substitute(theta))
                    if head is None:
                        continue
                instance = NormalRule(head, body)
                if instance not in normal:
                    normal.append(instance)
            elif isinstance(rule, WeakConstraint):
                instance = WeakConstraint(
                    body, rule.weight.substitute(theta).evaluate(), rule.priority
                )
                if instance not in weak:
                    weak.append(instance)
            else:
                elements = [
                    grounder._evaluate_atom(a.substitute(theta)) for a in rule.elements
                ]
                if None in elements:
                    continue
                instance = ChoiceRule(elements, body, rule.lower, rule.upper)
                if instance not in choice:
                    choice.append(instance)
    return normal, choice, weak, set(index.atoms)


def lifted(text: str) -> str:
    """Give every atom of a propositional program an argument ranging
    over ``d/1``, so instantiation order depends on the atom index."""
    rules = ["d(1). d(2). d(3). d(X + 1) :- d(X), X < 4."]
    for line in text.splitlines():
        line = re.sub(r"\b([a-f])\b", r"\1(X)", line)
        if ":-" in line:
            line = line.replace(":-", ":- d(X),", 1)
        else:
            line = line[:-1] + " :- d(X)."
        rules.append(line)
    rules.append(":~ a(X), d(X). [X@1]")
    return "\n".join(rules)


def test_random_programs_ground_as_with_a_separate_instantiation_pass():
    rng = random.Random(20190707)
    passes = set()
    for _ in range(300):
        propositional = random_program(rng)
        for text in (propositional, lifted(propositional)):
            program = parse_program(text)
            result = ground_program(program)
            normal, choice, weak, atoms = reference_ground(program)
            assert result.normal_rules == normal, text
            assert result.choice_rules == choice, text
            assert result.weak_constraints == weak, text
            assert result.atoms == atoms, text
            passes.add(result.stats.fixpoint_iterations)
    # multi-pass fixpoints are exercised, not just one-pass programs
    assert max(passes) >= 4
