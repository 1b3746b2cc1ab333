"""Differential tests for the reduced LAS oracle.

``LASTask.positive_holds`` solves ``B ∪ C ∪ {f.}`` for the heads ``f`` of
the candidates that fire in the bottom model, instead of ``B ∪ C ∪ H``.
Every answer here is checked against a reference computed independently:
solve ``B ∪ C ∪ H`` and ask whether some answer set covers the example.
The fallback cases check that the task took the full solve.
"""

import itertools
import random

import pytest

from repro.asp import parse_atom, parse_program, parse_rule, solve
from repro.asp.rules import Program
from repro.learning import CandidateRule, LASTask, PartialInterpretation
from repro.learning.tasks import _KILLED


def reference(task, hypothesis, example):
    program = Program(list(task.background))
    program.extend(example.context)
    for candidate in hypothesis:
        program.add(candidate.rule)
    models = solve(program, max_models=task.max_models)
    return any(example.covered_by(model) for model in models)


def candidates(*texts):
    return [CandidateRule(parse_rule(text)) for text in texts]


def example(inc=(), exc=(), context=""):
    return PartialInterpretation(
        [parse_atom(a) for a in inc],
        [parse_atom(a) for a in exc],
        parse_program(context) if context else None,
    )


def hypotheses(space, rng, subsets=10):
    yield []
    for candidate in space:
        yield [candidate]
    for pair in itertools.combinations(space, 2):
        yield list(pair)
    for __ in range(subsets if len(space) > 2 else 0):
        yield rng.sample(space, rng.randint(3, len(space)))


def check_all(task, examples, rng):
    for ex in examples:
        for hypothesis in hypotheses(task.hypothesis_space, rng):
            expected = reference(task, hypothesis, ex)
            assert task.positive_holds(hypothesis, ex) == expected, (hypothesis, ex)
            assert task.negative_holds(hypothesis, ex) == (not expected)


# -- seeded random tasks ------------------------------------------------------

BACKGROUND_POOL = [
    # bottom: reads only context predicates
    "r(X) :- p(X), not q(X).",
    "s(a) :- q(a).",
    ":- p(a), q(a), p(b), q(b).",
    # top: reads a candidate head
    "d(X) :- h(X), not k(X).",
    "e :- not h(a).",
    ":- k(b), not h(b).",
    "d(b) :- k(a), r(a).",
    # mixed: a choice rule deriving a candidate head and a bottom predicate
    "{ h(a); p(a) }.",
]
BODY_LITERALS = [
    "p(a)", "p(b)", "q(a)", "q(b)", "r(a)", "r(b)", "s(a)",
    "not p(a)", "not q(b)", "not r(b)", "not s(a)",
]
HEADS = ["h(a)", "h(b)", "k(a)", "k(b)"]
ATOMS = ["d(a)", "d(b)", "e", "h(a)", "k(b)", "r(a)", "r(b)"]
FACTS = ["p(a).", "p(b).", "q(a).", "q(b)."]


def random_task(seed, constraints=0):
    rng = random.Random(seed)
    background = parse_program(
        "\n".join(rng.sample(BACKGROUND_POOL, rng.randint(2, len(BACKGROUND_POOL))))
    )
    texts = set()
    while len(texts) < 7:
        body = rng.sample(BODY_LITERALS, rng.randint(1, 2))
        texts.add(f"{rng.choice(HEADS)} :- {', '.join(body)}.")
    space = candidates(*sorted(texts))
    examples = []
    for __ in range(4):
        atoms = rng.sample(ATOMS, 3)
        context = " ".join(f for f in FACTS if rng.random() < 0.5)
        if rng.random() < 0.3:
            context += " q(X) :- p(X), not s(a)."  # a non-fact, bottom context rule
        examples.append(example(atoms[:1], atoms[1:rng.randint(1, 3)], context))
    # ground constraints, over bottom literals and (irreducible) heads
    for __ in range(constraints):
        body = rng.sample(BODY_LITERALS + HEADS, rng.randint(1, 2))
        space += candidates(f":- {', '.join(body)}.")
    return LASTask(background, space, examples, []), examples, rng


@pytest.mark.parametrize("seed", range(12))
def test_random_tasks_match_reference(seed):
    task, examples, rng = random_task(seed)
    check_all(task, examples, rng)
    assert task._reduced_cache  # the reduction did the work


@pytest.mark.parametrize("seed", range(12))
def test_random_tasks_with_constraints_match_reference(seed):
    task, examples, rng = random_task(seed, constraints=3)
    check_all(task, examples, rng)
    assert task._reduced_cache


# -- each fallback --------------------------------------------------------------


def test_reduced_path_is_taken_for_plain_definite_spaces():
    space = candidates("h(a) :- p(a).", "h(b) :- p(b), not q(b).", "k(a) :- q(a).")
    ex = example(["d(a)"], ["d(b)"], "p(a). p(b).")
    task = LASTask(parse_program("d(X) :- h(X), not k(X)."), space, [ex], [])
    check_all(task, [ex], random.Random(0))
    assert task._reduced_cache and not task._oracle_cache


def test_candidate_head_read_by_candidate_body_falls_back():
    space = candidates("h(a) :- p(a).", "k(a) :- h(a).", "k(b) :- d(a).")
    ex = example(["k(a)"], ["d(a)"], "p(a).")
    task = LASTask(parse_program("d(X) :- h(X), not k(X)."), space, [ex], [])
    check_all(task, [ex], random.Random(1))
    # k(a) :- h(a) reads a head; k(b) :- d(a) reads a dependent of one
    assert task._split(ex, ex.key()).fired_heads(space[1:2]) is None
    assert task._split(ex, ex.key()).fired_heads(space[2:]) is None
    assert task._oracle_cache


def test_even_loop_in_bottom_falls_back():
    background = parse_program("p(a) :- not q(a). q(a) :- not p(a). d :- h.")
    space = candidates("h :- p(a).", "h :- q(a).")
    examples = [example(["d"]), example(["p(a)"], ["d"]), example([], ["d"])]
    task = LASTask(background, space, examples, [])
    check_all(task, examples, random.Random(2))
    assert all(task._split(ex, ex.key()) is None for ex in examples)
    assert not task._reduced_cache


@pytest.mark.parametrize(
    "background", [":- p(a).", "z :- not z.", "z :- p(a), not z. d :- h."]
)
def test_unsatisfiable_bottom_fails_every_hypothesis(background):
    space = candidates("h :- p(a).", "h :- not p(b).")
    ex = example([], [], "p(a).")
    task = LASTask(parse_program(background + " d :- h."), space, [ex], [])
    check_all(task, [ex], random.Random(3))
    assert task._split(ex, ex.key()).model is None


def test_context_rules_join_the_right_part():
    space = candidates("h(a) :- r(a).", "k(a) :- t.", "k(b) :- s.")
    # r is derived in the bottom by a context rule; s depends on a head
    # through two more context rules, so the candidate reading it falls back
    context = "p(a). r(X) :- p(X). s :- u. u :- h(a). t :- not p(b)."
    examples = [example(["d(a)"], ["k(a)"], context), example(["k(b)"], [], context)]
    task = LASTask(parse_program("d(X) :- h(X), not k(X)."), space, examples, [])
    check_all(task, examples, random.Random(4))
    ex = examples[0]
    split = task._split(ex, ex.key())
    assert split.fired_heads(space[:2]) is not None
    assert split.fired_heads(space[2:]) is None


def test_choice_rule_sharing_a_candidate_head_pulls_its_elements_into_top():
    # p(a) is derived by the same choice rule as the candidate head h(a),
    # so p has no definition in the bottom and the candidate reading it
    # must take the full solve (its answer set {p(a), k} covers k)
    space = candidates("k :- p(a).", "h(a) :- q(a).")
    ex = example(["k"])
    task = LASTask(parse_program("{ h(a); p(a) }."), space, [ex], [])
    check_all(task, [ex], random.Random(7))
    split = task._split(ex, ex.key())
    assert ("p", 1) in split.top
    assert split.fired_heads(space[:1]) is None
    assert task.positive_holds(space[:1], ex)


def test_unbounded_max_models_is_exhaustive():
    space = candidates("h :- p.", "h :- not q.")
    examples = [example(["d"], [], "p."), example([], ["d"], "q.")]
    task = LASTask(parse_program("d :- h."), space, examples, [], max_models=None)
    check_all(task, examples, random.Random(8))
    assert task._reduced_cache and not task._oracle_cache


def test_top_with_max_models_answer_sets_falls_back():
    background = parse_program("{ t(1); t(2); t(3) } :- h. d :- t(3), t(2), t(1).")
    space = candidates("h :- p.", "h :- not q.")
    examples = [example(["d"], [], "p."), example(["h"], ["t(1)"])]
    task = LASTask(background, space, examples, [], max_models=4)
    check_all(task, examples, random.Random(5))
    # with h the top part has 8 answer sets, so the reduced solve is
    # inconclusive and the full solve (capped like it) decides
    assert None in task._reduced_cache.values()
    assert task._oracle_cache


def test_ground_constraint_over_the_bottom_reduces():
    space = candidates("h(b) :- p(b).", ":- p(a).", ":- p(b).")
    ex = example(["p(a)"], ["d(b)"], "p(a).")
    task = LASTask(parse_program("d(X) :- h(X)."), space, [ex], [])
    check_all(task, [ex], random.Random(6))
    split = task._split(ex, ex.key())
    # p(a) holds in the bottom model, so ":- p(a)." kills every answer
    # set; p(b) does not, so ":- p(b)." drops out
    assert split.fired_heads(space[1:2]) is _KILLED
    assert split.fired_heads(space[2:]) == []
    assert task.positive_holds([], ex)
    assert not task.positive_holds(space[1:2], ex)
    assert task.positive_holds(space[2:], ex)
    assert not task._oracle_cache  # no full-program solve ran


@pytest.mark.parametrize(
    "odd",
    [
        "{ h(a) } :- p(a).",  # choice
        "h(X) :- p(X).",  # non-ground
    ],
)
def test_non_normal_or_non_ground_candidates_fall_back(odd):
    space = candidates("h(b) :- p(b).", odd)
    ex = example(["d(a)"], ["d(b)"], "p(a).")
    task = LASTask(parse_program("d(X) :- h(X)."), space, [ex], [])
    check_all(task, [ex], random.Random(6))
    assert task._split(ex, ex.key()).fired_heads(space[1:]) is None
    assert task._oracle_cache
