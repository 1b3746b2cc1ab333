"""Differential tests for the reduced ASG oracle.

``ASGLearningTask.positive_holds`` splits ``G(C)[t]`` once per parse tree
of an example and evaluates each hypothesis against the bottom model,
instead of parsing, grounding and solving ``G(C) : H`` per hypothesis.
Every answer here is checked against a reference computed independently:
run :func:`accepts` on ``initial.with_rules(H).with_context(C)``.  The
fallback cases check that the task took the full oracle.
"""

import random

import pytest

from repro.asg import accepts, parse_asg
from repro.asp import parse_program, parse_rule
from repro.errors import GrammarError
from repro.grammar import parse_trees
from repro.learning import ASGLearningTask, CandidateRule, ContextExample

from .test_oracle_reduction import hypotheses

# Production ids: 0 start, 1 part "a", 2 part "a" "a", 3 part "b".  The
# string "a a a" has two trees, (a)(a a) and (a a)(a).  The start
# annotation reads the candidate heads h and k, so normal-rule
# candidates fire heads into a top part.
GRAMMAR = """
start -> part part { both :- p@1, p@2.  :- k, not h. }
part -> "a"     { p. one. val(1). }
part -> "a" "a" { p. two. val(2). }
part -> "b"     { q. :- q, c2. }
"""

CANDIDATE_POOL = [
    (":- one@1.", 0),
    (":- two@2, c1.", 0),
    (":- p@1, not c2.", None),
    (":- both.", 0),
    (":- q@2.", 0),
    (":- one, c1.", 1),
    (":- two.", 2),
    (":- q.", 3),
    (":- one@2.", None),
    ("h :- one@1.", 0),
    ("k :- two@2.", 0),
    ("h :- c1.", None),
    ("k :- q@1, not c2.", 0),
    ("k :- one.", 1),
    ("k :- h.", 0),  # reads a candidate head: does not reduce
]
STRINGS = ["a a", "a a a", "a b", "b a a", "b b", "a a a a", "b"]
CONTEXT_POOL = ["c1.", "c2.", "c1 :- c2."]


def candidate(text, prod_id):
    return CandidateRule(parse_rule(text), prod_id)


def example(string, context=""):
    return ContextExample.from_text(string, context)


def reference(task, hypothesis, ex):
    grammar = task.initial.with_rules(
        (c.rule, c.prod_id if c.prod_id is not None else 0) for c in hypothesis
    ).with_context(ex.context, where=task.context_placement)
    return accepts(grammar, ex.tokens, max_trees=task.max_trees)


def check_all(task, examples, rng):
    for ex in examples:
        for hypothesis in hypotheses(task.hypothesis_space, rng):
            expected = reference(task, hypothesis, ex)
            assert task.positive_holds(hypothesis, ex) == expected, (hypothesis, ex)
            assert task.negative_holds(hypothesis, ex) == (not expected)


def make_task(space, examples, **kw):
    return ASGLearningTask(parse_asg(GRAMMAR), space, examples, [], **kw)


def splits(task, ex):
    return task._trees[ex.key()]


# -- seeded random tasks ------------------------------------------------------


def random_task(seed):
    rng = random.Random(seed)
    space = [candidate(*entry) for entry in rng.sample(CANDIDATE_POOL, 7)]
    examples = [
        example(
            rng.choice(STRINGS),
            " ".join(c for c in CONTEXT_POOL if rng.random() < 0.5),
        )
        for __ in range(4)
    ]
    task = make_task(
        space,
        examples,
        context_placement=rng.choice(["all", "start"]),
        max_trees=rng.choice([1, 256]),
    )
    return task, examples, rng


@pytest.mark.parametrize("seed", range(10))
def test_random_tasks_match_reference(seed):
    task, examples, rng = random_task(seed)
    check_all(task, examples, rng)
    assert any(trees for trees in task._trees.values())  # the reduction did work


def test_random_tasks_cover_both_placements_and_truncation():
    tasks = [random_task(seed)[0] for seed in range(10)]
    assert {t.context_placement for t in tasks} == {"all", "start"}
    assert {t.max_trees for t in tasks} == {1, 256}


# -- the cases the reduction must get right -----------------------------------


def test_constraint_only_space_needs_no_solve_per_hypothesis():
    space = [candidate(*entry) for entry in CANDIDATE_POOL[:9]]
    examples = [example(s, "c1.") for s in ("a a", "a a a", "a b", "b a a")]
    task = make_task(space, examples)
    check_all(task, examples, random.Random(1))
    for ex in examples:
        for tree in splits(task, ex):
            assert tree.split.whole and not tree.solved
    assert not task._oracle_cache


@pytest.mark.parametrize("max_trees", [1, 256])
def test_ambiguous_string_with_truncation(max_trees):
    space = [candidate(":- one@1.", 0), candidate(":- one@2.", None)]
    ex = example("a a a")
    assert len(parse_trees(parse_asg(GRAMMAR).cfg, ex.tokens)) == 2
    task = make_task(space, [ex], max_trees=max_trees)
    check_all(task, [ex], random.Random(2))
    assert len(splits(task, ex)) == min(max_trees, 2)
    # each constraint kills one tree: only truncation can reject the string
    accepted = [task.positive_holds([c], ex) for c in space]
    assert accepted.count(True) == (1 if max_trees == 1 else 2)
    assert not task._oracle_cache


@pytest.mark.parametrize("placement", ["all", "start"])
def test_context_placement(placement):
    # c1 reaches the "a" nodes only when the context goes to every production
    space = [candidate(":- one, c1.", 1), candidate("h :- c1.", None)]
    ex = example("a a", "c1.")
    task = make_task(space, [ex], context_placement=placement)
    check_all(task, [ex], random.Random(3))
    assert task.positive_holds(space[:1], ex) == (placement == "start")


def test_candidate_heads_fire_into_the_top_part():
    space = [candidate("k :- two@2.", 0), candidate("h :- one@1.", 0)]
    ex = example("a a a")  # (a)(a a) fires both, (a a)(a) neither
    task = make_task(space, [ex])
    check_all(task, [ex], random.Random(4))
    assert any(tree.solved for tree in splits(task, ex))
    assert not task._oracle_cache


def test_top_part_is_solved_even_when_no_head_fires():
    # ":- not h." is in the top part: with no fired head it kills the tree
    grammar = GRAMMAR.replace(":- k, not h.", ":- k, not h.  :- not h.")
    space = [candidate("h :- one@1.", 0), candidate(":- two.", 2)]
    examples = [example("a a"), example("a a a")]
    task = ASGLearningTask(parse_asg(grammar), space, examples, [])
    check_all(task, examples, random.Random(10))
    assert not task.positive_holds(space[1:], examples[0])
    assert not any(tree.split.whole for tree in splits(task, examples[0]))


def test_even_loop_annotation_falls_back():
    grammar = GRAMMAR + 'part -> "c" { e :- not f. f :- not e. }\n'
    space = [candidate(":- e@1.", 0), candidate(":- f@2.", 0)]
    ex = example("c c")
    task = ASGLearningTask(parse_asg(grammar), space, [ex], [])
    check_all(task, [ex], random.Random(5))
    assert splits(task, ex) is None
    assert task._oracle_cache


def test_unsatisfiable_tree_bottom_rejects_every_hypothesis():
    space = [candidate(":- one@1.", 0), candidate("h :- c1.", None)]
    ex = example("a b", "c2.")  # c2 reaches the "b" node: ":- q, c2." fires
    task = make_task(space, [ex])
    check_all(task, [ex], random.Random(6))
    assert [tree.split.model for tree in splits(task, ex)] == [None]
    assert not task.positive_holds([], ex)


def test_string_outside_the_cfg_is_rejected():
    space = [candidate(":- one@1.", 0), candidate("h :- c1.", None)]
    examples = [example("b"), example("a c")]
    task = make_task(space, examples)
    check_all(task, examples, random.Random(7))
    assert all(splits(task, ex) == [] for ex in examples)


def test_non_ground_constraint_falls_back():
    space = [candidate(":- val(X)@1, val(X)@2.", 0), candidate(":- two.", 2)]
    examples = [example("a a"), example("a a a")]
    task = make_task(space, examples)
    check_all(task, examples, random.Random(8))
    for ex in examples:
        assert all(t.split.fired_heads(space[:1]) is None for t in splits(task, ex))
    assert task._oracle_cache
    assert not task.positive_holds(space[:1], examples[0])  # val(1) twice


def test_candidate_head_read_by_candidate_body_falls_back():
    space = [candidate("h :- one@1.", 0), candidate("k :- h.", 0)]
    ex = example("a a")
    task = make_task(space, [ex])
    check_all(task, [ex], random.Random(9))
    (tree,) = splits(task, ex)
    assert tree.split.fired_heads(space[1:]) is None
    assert task._oracle_cache


@pytest.mark.parametrize(
    "odd",
    [
        (":- p@3.", 0),  # start has two children
        (":- q@2.", 3),  # part -> "b" has one
        (":- p@1.", 9),  # no such production
    ],
)
@pytest.mark.parametrize("string", ["a a", "b"])
def test_unattachable_candidate_raises_like_the_full_oracle(odd, string):
    space = [candidate(":- one@1.", 0), candidate(*odd)]
    ex = example(string, "c1.")
    task = make_task(space, [ex])
    for hypothesis in (space[1:], space):
        with pytest.raises(GrammarError) as expected:
            reference(task, hypothesis, ex)
        with pytest.raises(GrammarError) as raised:
            task.positive_holds(hypothesis, ex)
        assert str(raised.value) == str(expected.value)
    # the valid candidate alone still takes the reduced path
    assert task.positive_holds(space[:1], ex) == reference(task, space[:1], ex)


def test_context_outside_the_grammar_raises_like_the_full_oracle():
    space = [candidate(":- one@1.", 0)]
    ex = ContextExample(("a", "a"), parse_program("c1@3."))
    task = make_task(space, [ex])
    with pytest.raises(GrammarError) as expected:
        reference(task, space, ex)
    with pytest.raises(GrammarError) as raised:
        task.positive_holds(space, ex)
    assert str(raised.value) == str(expected.value)
