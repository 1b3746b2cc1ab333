"""A fast learner for *decomposable* tasks.

Many of the paper's learning tasks have hypothesis spaces whose rules do
not interact:

* **definite-rule spaces** (e.g. ``decision(permit) :- role(dba).`` over
  a deny-by-default background): a hypothesis covers a permit example
  iff *some* selected rule fires, and violates a deny example iff some
  selected rule fires on it;
* **constraint spaces over unambiguous grammars with definite
  annotations**: a hypothesis rejects a negative example iff *some*
  selected constraint kills its (unique) answer set, and breaks a
  positive iff some selected constraint does.

For such tasks coverage decomposes over single candidates, so learning
reduces to weighted set cover: pre-compute per-candidate coverage
vectors with single-rule oracle calls (linear in the space), then
branch-and-bound for the minimum-cost selection.  Because
decomposability is an *assumption*, the result is always re-verified
with the full oracle; on mismatch the caller should fall back to
:class:`~repro.learning.ilasp.ILASPLearner` (see :func:`learn_auto`).

The coverage model is built once per learner, from the *distinct*
examples (grouped by ``key()``, weights summed), and each coverage row
is an int bitmask over the hypothesis space, so the search works with
mask operations.  :func:`learn_auto` reuses one learner across its
violation budgets.  When the candidates are ground normal rules or
constraints over a bottom part with a unique answer set, the task
oracles themselves ground once per distinct example (once per parse
tree for an :class:`~repro.learning.tasks.ASGLearningTask`) rather than
once per candidate (see their docstrings), so building the model costs
a few solves per distinct example.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.mode_lint import lint_task
from repro.errors import LearningError, ResourceError, UnsatisfiableTaskError
from repro.learning.ilasp import ILASPLearner, LearnedHypothesis
from repro.learning.mode_bias import CandidateRule
from repro.telemetry import span as _tele_span

__all__ = ["DecomposableLearner", "learn_auto"]


class _ExampleModel:
    """How one distinct example constrains candidate selection.

    Candidate sets are int bitmasks over the hypothesis space (bit ``i``
    is candidate ``i``).  ``needs_one`` examples are satisfied when the
    selection meets ``flags`` (or ``already`` — satisfied by the empty
    hypothesis) *and* misses ``bad`` (a candidate may derive a decision
    the example excludes, breaking it regardless of coverage).
    ``needs_none`` examples are satisfied when the selection misses
    ``flags`` (and ``already`` must hold for the empty hypothesis).
    """

    __slots__ = ("kind", "flags", "bad", "already", "weight")

    def __init__(self, kind: str, flags: int, already: bool, weight: int, bad: int = 0):
        self.kind = kind
        self.flags = flags
        self.bad = bad
        self.already = already
        self.weight = weight


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _restrict(mask: int, kept: Sequence[int]) -> int:
    """Re-index ``mask`` onto the positions listed in ``kept``."""
    return sum(1 << j for j, i in enumerate(kept) if mask >> i & 1)


class DecomposableLearner:
    """Set-cover learning with final full-oracle verification.

    The coverage model (and the task lint) is built by the first
    :meth:`learn` call and reused by later ones, so ``max_violations``
    may be raised between calls without repeating oracle work.  Each
    result's ``checks`` and ``elapsed`` count the build plus that call's
    own search and verification.
    """

    def __init__(
        self,
        task,
        max_rules: int = 6,
        max_violations: int = 0,
        max_nodes: int = 200_000,
    ):
        self.task = task
        self.max_rules = max_rules
        self.max_violations = max_violations
        self.max_nodes = max_nodes
        self._constraints_only = task.constraints_only()
        # static task diagnostics, populated by the first learn()
        self.diagnostics: List[Diagnostic] = []
        self._positives = self._group(task.positive)
        self._negatives = self._group(task.negative)
        self._models: Optional[List[_ExampleModel]] = None
        self._checks = 0  # oracle calls made so far
        self._build_checks = 0  # ... of which by the coverage build
        self._build_s = 0.0

    @staticmethod
    def _group(examples) -> List[Tuple[object, int]]:
        """Distinct examples by ``key()``, first occurrence first, with
        summed weights (repeated log entries are common in sampled
        datasets)."""
        groups: Dict[tuple, list] = {}
        for example in examples:
            groups.setdefault(example.key(), [example, 0])[1] += example.weight
        return [(example, weight) for example, weight in groups.values()]

    def _positive(self, hypothesis: Sequence[CandidateRule], example) -> bool:
        self._checks += 1
        return self.task.positive_holds(hypothesis, example)

    def _negative(self, hypothesis: Sequence[CandidateRule], example) -> bool:
        self._checks += 1
        return self.task.negative_holds(hypothesis, example)

    # -- building the decomposed model ------------------------------------

    def _build_models(self, space: Sequence[CandidateRule]) -> List[_ExampleModel]:
        models: List[_ExampleModel] = []
        for example, weight in self._positives:
            base = self._positive([], example)
            flags = 0
            for index, candidate in enumerate(space):
                holds = self._positive([candidate], example)
                if self._constraints_only or base:
                    flags |= (not holds) << index  # bit = candidate *breaks* it
                else:
                    flags |= holds << index  # bit = candidate covers it
            if self._constraints_only or base:
                # already satisfied (or constraint-style): stay unbroken
                models.append(_ExampleModel("needs_none", flags, base, weight))
            else:
                bad = self._bad_mask(space, example, flags)
                models.append(_ExampleModel("needs_one", flags, base, weight, bad))
        for example, weight in self._negatives:
            base = self._negative([], example)
            flags = 0
            for index, candidate in enumerate(space):
                rejected = self._negative([candidate], example)
                if self._constraints_only:
                    flags |= (rejected and not base) << index  # bit = candidate rejects it
                else:
                    flags |= (not rejected) << index  # bit = candidate violates it
            kind = "needs_one" if self._constraints_only else "needs_none"
            models.append(_ExampleModel(kind, flags, base, weight))
        return models

    def _bad_mask(self, space: Sequence[CandidateRule], example, good: int) -> int:
        """The bits of the candidates that *break* this example, for
        union-semantics tasks: candidate c breaks example e when pairing c
        with a known covering candidate g still fails (so c derives
        something e excludes).  Requires at
        least one covering candidate; without one the example is hopeless
        anyway and bad bits are moot."""
        if not good:
            return 0
        witness = space[next(_bits(good))]
        bad = 0
        for index, candidate in enumerate(space):
            if good >> index & 1:
                continue
            bad |= (not self._positive([witness, candidate], example)) << index
        return bad

    @staticmethod
    def _dedupe(models: List[_ExampleModel]) -> List[_ExampleModel]:
        """Merge identical example models, summing weights."""
        merged: dict = {}
        for model in models:
            key = (model.kind, model.flags, model.bad, model.already)
            existing = merged.get(key)
            if existing is None:
                merged[key] = _ExampleModel(
                    model.kind, model.flags, model.already, model.weight, model.bad
                )
            else:
                existing.weight += model.weight
        return list(merged.values())

    # -- search --------------------------------------------------------------

    def _search(
        self, space: Sequence[CandidateRule], models: Sequence[_ExampleModel]
    ) -> Optional[List[int]]:
        """Branch-and-bound set cover, branching on uncovered examples.

        At each node, pick the unsatisfied needs-one example with the
        fewest coverers and branch over (a) each candidate covering it,
        and (b) skipping it when the violation budget allows.  Depth is
        bounded by ``max_rules`` selections plus the budgeted skips, so
        the search stays polynomial in practice.
        """
        needs_one = [m for m in models if m.kind == "needs_one" and not m.already]
        costs = [c.cost for c in space]
        # an uncovered example has none of its coverers selected, so its
        # branching list is fixed: cheapest first, lower index on ties,
        # capped as a beam (bounded branching, greedy bound keeps quality)
        coverer_counts = [bin(m.flags).count("1") for m in needs_one]
        coverers = [
            sorted(_bits(m.flags), key=costs.__getitem__)[:16] for m in needs_one
        ]
        # violations every node pays, and (mask, weight) pairs paid when
        # the selection meets the mask: needs_none examples it violates,
        # needs_one examples it breaks
        fixed = sum(
            m.weight for m in models if m.kind == "needs_none" and not m.already
        )
        watched = [
            (m.flags if m.kind == "needs_none" else m.bad, m.weight)
            for m in models
            if (m.kind == "needs_none" and m.already) or (m.kind == "needs_one" and m.bad)
        ]
        best: Optional[List[int]] = None
        best_cost = float("inf")
        nodes = 0

        # Greedy warm start: a quick feasible cover gives the B&B a tight
        # upper bound to prune against.
        greedy = self._greedy(space, models, needs_one)
        if greedy is not None:
            best = greedy
            best_cost = sum(costs[i] for i in greedy)

        def dfs(
            selected: List[int], mask: int, cost: float, skipped: int, skipped_weight: int
        ) -> None:
            nonlocal best, best_cost, nodes
            nodes += 1
            if nodes > self.max_nodes or cost >= best_cost:
                return
            violations = fixed + skipped_weight
            for watch, weight in watched:
                if watch & mask:
                    violations += weight
            if violations > self.max_violations:
                return
            # branch on the hardest uncovered, unbroken, unskipped example
            pick = -1
            for j, model in enumerate(needs_one):
                if skipped >> j & 1 or (model.flags | model.bad) & mask:
                    continue
                if pick < 0 or coverer_counts[j] < coverer_counts[pick]:
                    pick = j
            if pick < 0:
                best = list(selected)
                best_cost = cost
                return
            if len(selected) < self.max_rules:
                for index in coverers[pick]:
                    selected.append(index)
                    dfs(selected, mask | 1 << index, cost + costs[index], skipped, skipped_weight)
                    selected.pop()
            weight = needs_one[pick].weight
            if skipped_weight + weight <= self.max_violations:
                dfs(selected, mask, cost, skipped | 1 << pick, skipped_weight + weight)

        dfs([], 0, 0.0, 0, 0)
        return best

    def _greedy(
        self,
        space: Sequence[CandidateRule],
        models: Sequence[_ExampleModel],
        needs_one: Sequence[_ExampleModel],
    ) -> Optional[List[int]]:
        """Greedy weighted set cover; returns a feasible selection or None.

        Only valid as a warm start in strict mode (violating candidates
        already filtered); with a violation budget the B&B handles skips.
        """
        if self.max_violations > 0:
            return None
        selected: List[int] = []
        uncovered = list(needs_one)
        while uncovered and len(selected) < self.max_rules:
            gains = [0] * len(space)
            for model in uncovered:
                for index in _bits(model.flags):
                    gains[index] += model.weight
            best_index = None
            best_ratio = 0.0
            for index, gain in enumerate(gains):
                if gain <= 0 or index in selected:
                    continue
                ratio = gain / space[index].cost
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_index = index
            if best_index is None:
                return None
            selected.append(best_index)
            uncovered = [m for m in uncovered if not m.flags >> best_index & 1]
        if uncovered:
            return None
        # needs_none examples must also hold (candidates are pre-filtered
        # in strict mode, but an already-violated example is fatal)
        for model in models:
            if model.kind == "needs_none" and not model.already:
                return None
        return selected

    def learn(self) -> LearnedHypothesis:
        with _tele_span("learn.decomposable") as sp:
            checks_before = self._checks
            space = list(self.task.hypothesis_space)
            if self._models is None:
                start = time.monotonic()
                self.diagnostics = lint_task(self.task)
                if self.diagnostics:
                    sp.incr("learner.lint_findings", len(self.diagnostics))
                    sp.incr(
                        "learner.lint_errors",
                        sum(1 for d in self.diagnostics if d.is_error),
                    )
                self._models = self._dedupe(self._build_models(space))
                self._build_checks = self._checks
                self._build_s = time.monotonic() - start
            result = self._learn(space, self._models, time.monotonic(), self._checks)
            # only this call's oracle work, so repeated calls add up right
            sp.incr("learner.checks", self._checks - checks_before)
            sp.incr("learner.hypotheses_learned")
            return result

    def _learn(
        self,
        space: List[CandidateRule],
        models: List[_ExampleModel],
        start: float,
        first_check: int,
    ) -> LearnedHypothesis:
        # Hard-filter candidates that break any example (a needs_none
        # example's flag, or a needs_one example's bad bit), unless a
        # violation budget could absorb it (then keep them in play).
        if self.max_violations == 0:
            breaking = 0
            for m in models:
                breaking |= m.flags if m.kind == "needs_none" else m.bad
            allowed = [i for i in range(len(space)) if not breaking >> i & 1]
            space = [space[i] for i in allowed]
            models = [
                _ExampleModel(
                    m.kind,
                    _restrict(m.flags, allowed),
                    m.already,
                    m.weight,
                    _restrict(m.bad, allowed),
                )
                for m in models
            ]

        selected = self._search(space, models)
        if selected is None:
            raise UnsatisfiableTaskError(
                "no decomposable hypothesis within limits "
                f"({self.max_rules} rules, {self.max_violations} violations)"
            )
        hypothesis = [space[i] for i in selected]
        violations = self._verify(hypothesis)
        if violations > self.max_violations:
            raise LearningError(
                "decomposability assumption failed verification; "
                "use the exact learner (learn_auto falls back automatically)"
            )
        return LearnedHypothesis(
            hypothesis,
            int(sum(c.cost for c in hypothesis)),
            violations,
            checks=self._build_checks + self._checks - first_check,
            elapsed=self._build_s + time.monotonic() - start,
            space_size=len(self.task.hypothesis_space),
        )

    def _verify(self, hypothesis: Sequence[CandidateRule]) -> int:
        """Full-oracle violation weight of the found hypothesis."""
        total = 0
        for example, weight in self._positives:
            if not self._positive(hypothesis, example):
                total += weight
        for example, weight in self._negatives:
            if not self._negative(hypothesis, example):
                total += weight
        return total


def learn_auto(
    task,
    max_rules: int = 6,
    max_violations: int = 0,
    auto_violations: bool = True,
    fallback: bool = True,
    **ilasp_kwargs,
) -> LearnedHypothesis:
    """Try the fast decomposable learner; optionally fall back to the exact one.

    With ``auto_violations`` (the default), an unsatisfiable task is
    retried with exponentially growing violation budgets before any
    fallback — noisy or contradictory example sets (planning-phase data,
    flipped log entries) are the common case in the paper's domains, and
    the decomposable learner absorbs them cheaply via its skip branches.
    The decomposable result is verified against the full oracle before
    being returned, so a successful fast path is always a correct
    solution (though, unlike the exact learner, not guaranteed
    cost-minimal when rules interact).
    """
    violation_budgets = [max_violations]
    if auto_violations:
        total_weight = sum(e.weight for e in task.positive) + sum(
            e.weight for e in task.negative
        )
        allowed = max(max_violations, 1)
        while allowed < total_weight:
            allowed *= 2
            violation_budgets.append(min(allowed, total_weight))
    last_error: Optional[LearningError] = None
    # one learner, so every budget reuses its coverage model
    fast = DecomposableLearner(task, max_rules=max_rules)
    for allowed in violation_budgets:
        fast.max_violations = allowed
        try:
            return fast.learn()
        except UnsatisfiableTaskError as error:
            last_error = error
        except ResourceError:
            if not fallback:
                raise
            break  # out of budget on the fast path: let the exact
            # learner degrade gracefully with its best-so-far
        except LearningError as error:
            last_error = error
            break  # verification failure: budgets will not help
    if fallback:
        learner = ILASPLearner(
            task,
            max_rules=min(max_rules, 4),
            max_violations=max_violations,
            **ilasp_kwargs,
        )
        return learner.learn()
    assert last_error is not None
    raise last_error
