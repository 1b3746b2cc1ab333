"""Differential tests: cached serving must be byte-identical to fresh.

Random programs (seeded, reproducible) are solved through a caching
:class:`PolicyEngine` twice and through the plain solver; every answer
set list must match element-for-element, in order, including on
non-stratified programs.
"""

import random

import pytest

from repro.asp.api import solve_text
from repro.asp.solver import solve
from repro.engine import PolicyEngine

ATOMS = ["a", "b", "c", "d", "e"]


def random_program(rng: random.Random, n_rules: int = 7) -> str:
    """A random propositional program; negation makes many of these
    non-stratified (even/odd loops appear regularly)."""
    rules = []
    for _ in range(n_rules):
        head = rng.choice(ATOMS)
        n_body = rng.randint(0, 3)
        body = []
        for _ in range(n_body):
            atom = rng.choice(ATOMS)
            body.append(("not " if rng.random() < 0.5 else "") + atom)
        if body:
            rules.append(f"{head} :- {', '.join(body)}.")
        else:
            rules.append(f"{head}.")
    if rng.random() < 0.5:  # sprinkle a constraint
        atom = rng.choice(ATOMS)
        rules.append(f":- {atom}, not {rng.choice(ATOMS)}.")
    return "\n".join(rules)


@pytest.mark.parametrize("seed", range(25))
def test_cached_solving_matches_fresh(seed):
    text = random_program(random.Random(seed))
    fresh = solve_text(text)
    engine = PolicyEngine()
    cold = engine.solve_text(text)
    warm = engine.solve_text(text)
    assert list(cold) == list(fresh)
    assert list(warm) == list(fresh)  # element-for-element, same order
    assert engine.solve_cache.stats.hits >= 1


def test_non_stratified_even_loop_cached():
    text = "a :- not b. b :- not a."
    engine = PolicyEngine()
    fresh = solve_text(text)
    assert len(fresh) == 2
    assert list(engine.solve_text(text)) == list(fresh)
    assert list(engine.solve_text(text)) == list(fresh)


def test_solver_options_partition_the_cache():
    text = "a :- not b. b :- not a."
    engine = PolicyEngine()
    truncated = engine.solve_text(text, max_models=1)
    assert len(truncated) == 1
    full = engine.solve_text(text)
    assert len(full) == 2  # the max_models=1 entry must not serve this
    assert len(engine.solve_text(text, max_models=1)) == 1


def test_variable_programs_cached():
    text = "p(1..4). q(X) :- p(X), not r(X). r(2)."
    engine = PolicyEngine()
    fresh = solve(engine.parse(text))
    assert list(engine.solve_text(text)) == list(fresh)
    assert list(engine.solve_text(text)) == list(fresh)
    assert engine.ground_cache.stats.misses == 1


def test_equivalent_text_shares_one_entry():
    engine = PolicyEngine()
    engine.solve_text("a.  b :- a.")  # different whitespace, same rules
    engine.solve_text("a. b :- a.")
    # parse cache misses twice (text differs) but the rule tuple
    # coincides, so grounding and solving happen once
    assert engine.parse_cache.stats.misses == 2
    assert engine.ground_cache.stats.misses + engine.ground_cache.stats.hits == 1
    assert engine.solve_cache.stats.hits == 1


def test_disabled_caches_still_correct():
    text = "a :- not b. b :- not a."
    engine = PolicyEngine(
        parse_cache_size=0, ground_cache_size=0, solve_cache_size=0
    )
    fresh = solve_text(text)
    assert list(engine.solve_text(text)) == list(fresh)
    assert list(engine.solve_text(text)) == list(fresh)
    assert engine.solve_cache.stats.hits == 0
    assert len(engine.solve_cache) == 0
