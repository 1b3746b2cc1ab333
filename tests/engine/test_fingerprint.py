"""Cache identity: equal content hits, any structural difference misses.

Every engine cache is keyed on structural values (source text, rule
tuples), so these invariants are checked
through ``PolicyEngine``'s hit and miss counters.
"""

from repro.asp.atoms import Atom, Literal
from repro.asp.parser import parse_program
from repro.asp.rules import ChoiceRule, NormalRule, Program, WeakConstraint
from repro.asp.terms import Constant, Integer
from repro.engine import PolicyEngine

def solve_all(*programs):
    """Solve each program through one engine; return its solve-cache stats."""
    engine = PolicyEngine()
    for program in programs:
        engine.solve(program)
    return engine.solve_cache.stats


def test_same_text_same_fingerprint():
    text = "p(1). q(X) :- p(X), not r(X)."
    stats = solve_all(parse_program(text), parse_program(text))
    assert (stats.misses, stats.hits) == (1, 1)

    engine = PolicyEngine()
    engine.solve_text(text)
    engine.solve_text(text)
    assert (engine.parse_cache.stats.misses, engine.parse_cache.stats.hits) == (1, 1)


def test_rebuilt_program_same_fingerprint():
    parsed = parse_program("q(X) :- p(X). p(1).")
    rebuilt = Program(list(parsed.rules))
    stats = solve_all(parsed, rebuilt)
    assert (stats.misses, stats.hits) == (1, 1)


def test_rule_order_changes_fingerprint():
    stats = solve_all(parse_program("a. b."), parse_program("b. a."))
    assert (stats.misses, stats.hits) == (2, 0)


def test_any_structural_change_changes_fingerprint():
    base = "p(1). q(X) :- p(X), not r(X)."
    variants = [
        "p(1). q(X) :- p(X), r(X).",  # flipped sign
        "p(1). q(Y) :- p(Y), not r(Y).",  # renamed variable
        "p(1). q(X, X) :- p(X), not r(X).",  # changed arity
        "p(1). s(X) :- p(X), not r(X).",  # renamed head predicate
        "p(1). q(X) :- p(X).",  # dropped literal
    ]
    stats = solve_all(*(parse_program(text) for text in [base, *variants]))
    assert (stats.misses, stats.hits) == (1 + len(variants), 0)


def test_typed_terms_disambiguate():
    # Constant("1") and Integer(1) print identically; structural
    # equality must keep them apart.
    with_const = Program([NormalRule(Atom("p", (Constant("c"),)), [])])
    with_int = Program([NormalRule(Atom("p", (Integer(1),)), [])])
    as_const_1 = Program([NormalRule(Atom("p", (Constant("1"),)), [])])
    stats = solve_all(with_const, with_int, as_const_1, with_int, as_const_1)
    assert (stats.misses, stats.hits) == (3, 2)


def test_annotation_changes_fingerprint():
    plain = Program([NormalRule(Atom("p"), [])])
    annotated = Program([NormalRule(Atom("p", annotation=(1,)), [])])
    stats = solve_all(plain, annotated)
    assert (stats.misses, stats.hits) == (2, 0)


def test_rule_kinds_are_tagged():
    body = [Literal(Atom("p"), True)]
    constraint = Program([NormalRule(None, list(body))])
    choice = Program([ChoiceRule([Atom("q")], list(body), 0, 1)])
    weak = Program([WeakConstraint(list(body), Integer(1), 0)])
    stats = solve_all(constraint, choice, weak)
    assert (stats.misses, stats.hits) == (3, 0)


def test_choice_bounds_matter():
    a = Program([ChoiceRule([Atom("q")], [], 0, 1)])
    b = Program([ChoiceRule([Atom("q")], [], 1, 1)])
    stats = solve_all(a, b)
    assert (stats.misses, stats.hits) == (2, 0)


def test_comparison_bodies_fingerprint():
    greater = "q(X) :- p(X), X > 1. p(1..3)."
    less = "q(X) :- p(X), X < 1. p(1..3)."
    stats = solve_all(
        parse_program(greater), parse_program(less), parse_program(greater)
    )
    assert (stats.misses, stats.hits) == (2, 1)


def test_rule_fingerprint_is_stable_across_programs():
    rule = parse_program("q(X) :- p(X).").rules[0]
    same = parse_program("a. q(X) :- p(X).").rules[1]
    stats = solve_all(Program([rule]), Program([same]))
    assert (stats.misses, stats.hits) == (1, 1)


def test_text_and_token_fingerprints():
    engine = PolicyEngine()
    for text in ["a.", "a.", "a. "]:
        engine.parse(text)
    parse = engine.parse_cache.stats
    assert (parse.misses, parse.hits) == (2, 1)
