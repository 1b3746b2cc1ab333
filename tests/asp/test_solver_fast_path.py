"""The tightness-driven stability-check skip.

Every candidate that reaches verification is a supported model, so by
Fages' theorem the Gelfond–Lifschitz check is redundant exactly when the
ground positive dependency graph is acyclic.  On a tight program the
solver must return the same answer sets as an always-verifying reference
with ``stability_checks == 0``; on a non-tight one it must keep checking.
"""

import random

from repro.asp.graphs import check_stratification, has_cycle, tarjan_scc
from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.solver import AnswerSetSolver, solve


class AlwaysVerifySolver(AnswerSetSolver):
    """Reference solver: every candidate takes the reduct check."""

    def is_tight(self) -> bool:
        return False


def reference_solve(program, max_models=None):
    return AlwaysVerifySolver(ground_program(program)).solve(max_models=max_models)


def models_of(result):
    return sorted(sorted(str(a) for a in m) for m in result)


def differential(text, **kwargs):
    """Solve with the solver and the reference; models must be identical."""
    program = parse_program(text)
    fast = solve(program, **kwargs)
    slow = reference_solve(program, **kwargs)
    assert models_of(fast) == models_of(slow)
    assert slow.stats.stability_skips == 0
    return fast


class TestStratifiedPrograms:
    def test_definite_program_skips_all_checks(self):
        result = differential("q(1). q(2). p(X) :- q(X).")
        assert result.stats.stability_checks == 0
        assert result.stats.stability_skips > 0

    def test_stratified_negation_skips(self):
        result = differential("q(1). q(2). r(1). p(X) :- q(X), not r(X).")
        assert result.stats.stability_checks == 0
        assert result.stats.stability_skips > 0
        assert models_of(result) == [["p(2)", "q(1)", "q(2)", "r(1)"]]

    def test_constraints_do_not_disable_fast_path(self):
        result = differential("q(1). q(2). p(X) :- q(X). :- p(2), q(2).")
        assert result.stats.stability_checks == 0
        assert models_of(result) == []  # constraint kills the only candidate


class TestUnstratifiedPrograms:
    def test_even_loop_unchanged(self):
        # only negative edges: tight, so no candidate pays the check
        result = differential("q(1). r(X) :- not s(X), q(X). s(X) :- not r(X), q(X).")
        assert len(result) == 2
        assert result.stats.stability_checks == 0
        assert result.stats.stability_skips == 2

    def test_odd_loop_unchanged(self):
        result = differential("p :- not p.")
        assert models_of(result) == []
        assert result.stats.stability_skips == 0


class TestTightnessGuard:
    def test_surviving_positive_loop_disables_fast_path(self):
        # 'a' is possible at grounding time (not t may hold) but false at
        # runtime, so the p/q loop survives grounding; {t, p, q} is a
        # supported model that is NOT stable.  Skipping here would be wrong.
        result = differential("t. a :- not t. q :- a. p :- q. q :- p.")
        assert models_of(result) == [["t"]]
        assert result.stats.stability_skips == 0
        assert result.stats.stability_checks > 0

    def test_choice_rules_disable_fast_path(self):
        # the choice encoding adds only negative aux edges: tight
        result = differential("1 { a; b } 1.")
        assert models_of(result) == [["a"], ["b"]]
        assert result.stats.stability_checks == 0
        assert result.stats.stability_skips == 2

    def test_uses_fast_path_is_cached(self):
        ground = ground_program(parse_program("q(1). p(X) :- q(X)."))
        solver = AnswerSetSolver(ground)
        assert solver.is_tight()
        assert solver._tight is True  # decided once
        solver.solve()
        assert solver.stats.stability_checks == 0


ATOMS = ["a", "b", "c", "d", "e", "f"]


def random_program(rng: random.Random) -> str:
    """A random propositional program mixing facts, normal rules (whose
    bodies form even, odd and positive loops), choice rules with and
    without bounds, and constraints."""

    def body(max_len):
        return [
            ("not " if rng.random() < 0.4 else "") + rng.choice(ATOMS)
            for _ in range(rng.randint(0, max_len))
        ]

    rules = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.random()
        if kind < 0.15:
            rules.append(f"{rng.choice(ATOMS)}.")
        elif kind < 0.65:
            literals = body(3)
            head = rng.choice(ATOMS)
            rules.append(f"{head} :- {', '.join(literals)}." if literals else f"{head}.")
        elif kind < 0.85:
            elements = "; ".join(rng.sample(ATOMS, rng.randint(1, 3)))
            lower = f"{rng.randint(0, 1)} " if rng.random() < 0.4 else ""
            upper = f" {rng.randint(1, 2)}" if rng.random() < 0.4 else ""
            literals = body(2)
            suffix = f" :- {', '.join(literals)}." if literals else "."
            rules.append(f"{lower}{{ {elements} }}{upper}{suffix}")
        else:
            literals = body(2) or [rng.choice(ATOMS)]
            rules.append(f":- {', '.join(literals)}.")
    return "\n".join(rules)


def positive_graph_acyclic(ground) -> bool:
    """Tightness of the ground program, computed independently of the
    solver: peel off atoms with no remaining positive successors."""
    successors = {}
    for rule in ground.normal_rules:
        if rule.head is not None:
            successors.setdefault(rule.head, set()).update(
                lit.atom for lit in rule.body if lit.positive
            )
    for choice in ground.choice_rules:
        for element in choice.elements:
            successors.setdefault(element, set()).update(
                lit.atom for lit in choice.body if lit.positive
            )
    remaining = {atom: set(succ) for atom, succ in successors.items()}
    while True:
        sinks = [atom for atom, succ in remaining.items() if not succ & remaining.keys()]
        if not sinks:
            return not remaining
        for atom in sinks:
            del remaining[atom]


def test_random_programs_match_always_verify_reference():
    rng = random.Random(20190707)
    tight_with_models = non_tight_checked = 0
    for _ in range(1200):
        text = random_program(rng)
        ground = ground_program(parse_program(text))
        result = AnswerSetSolver(ground).solve()
        reference = AlwaysVerifySolver(ground).solve()
        assert list(result) == list(reference), text
        checks = reference.stats.stability_checks
        if positive_graph_acyclic(ground):
            assert result.stats.stability_checks == 0, text
            assert result.stats.stability_skips == checks, text
            tight_with_models += checks > 0
        else:
            assert result.stats.stability_checks == checks, text
            assert result.stats.stability_skips == 0, text
            non_tight_checked += checks > 0
    # both sides of the rule are exercised, not just vacuously true
    assert tight_with_models >= 300
    assert non_tight_checked >= 50


class TestStatsPlumbing:
    def test_stability_skips_in_as_dict(self):
        result = solve(parse_program("q(1)."))
        assert "stability_skips" in result.stats.as_dict()


class TestGraphAlgorithms:
    def test_tarjan_components(self):
        sccs = tarjan_scc([1, 2, 3, 4], {1: [2], 2: [1], 3: [4]})
        as_sets = sorted(map(frozenset, sccs), key=sorted)
        assert as_sets == [{1, 2}, {3}, {4}]

    def test_tarjan_deep_chain_no_recursion_error(self):
        n = 50_000
        successors = {i: [i + 1] for i in range(n)}
        assert len(tarjan_scc(range(n + 1), successors)) == n + 1

    def test_has_cycle_self_loop(self):
        assert has_cycle([1], {1: [1]})
        assert not has_cycle([1, 2], {1: [2]})

    def test_check_stratification(self):
        verdict = check_stratification([1, 2], [(1, 2)], [(2, 1)])
        assert not verdict.stratified
        assert verdict.offending_edges == [(2, 1)]
        assert verdict.tight

    def test_tightness_detected(self):
        verdict = check_stratification([1, 2], [(1, 2), (2, 1)], [])
        assert verdict.stratified
        assert not verdict.tight
