"""Learning-task definitions.

Two task families, both with *context-dependent* examples:

* :class:`ASGLearningTask` — the paper's Definition 3: given an initial
  ASG ``G``, a hypothesis space ``S_M``, and examples ``<s, C>`` of
  policy strings under contexts, find ``H ⊆ S_M`` such that every
  positive ``s ∈ L(G(C) : H)`` and every negative ``s ∉ L(G(C) : H)``.
* :class:`LASTask` — ILASP's Learning-from-Answer-Sets for plain ASP
  programs: examples are partial interpretations ``<inc, exc>`` under a
  context; a positive example requires an answer set of
  ``B ∪ H ∪ C`` covering it, a negative requires none.

Both expose the same oracle interface (``positive_holds`` /
``negative_holds``) consumed by :mod:`repro.learning.ilasp`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.asp.atoms import Atom
from repro.asp.parser import parse_program
from repro.asp.rules import Program, Rule
from repro.asp.solver import solve
from repro.asg.annotated import ASG
from repro.asg.semantics import accepts
from repro.grammar.cfg import SymbolString
from repro.learning.mode_bias import CandidateRule

__all__ = ["ContextExample", "ASGLearningTask", "PartialInterpretation", "LASTask"]


class ContextExample:
    """An example ``<s, C>``: a policy string under an ASP context program."""

    __slots__ = ("tokens", "context", "name", "weight")

    def __init__(
        self,
        tokens: Sequence[str],
        context: Optional[Program] = None,
        name: str = "",
        weight: int = 1,
    ):
        self.tokens: SymbolString = tuple(tokens)
        self.context = context if context is not None else Program()
        self.name = name or " ".join(self.tokens)
        self.weight = weight

    @classmethod
    def from_text(cls, string: str, context_text: str = "", **kw) -> "ContextExample":
        """Build from a space-separated policy string and ASP context text."""
        context = parse_program(context_text) if context_text else Program()
        return cls(tuple(string.split()), context, **kw)

    def key(self) -> tuple:
        """Content identity (used for oracle memoization)."""
        return (self.tokens, frozenset(self.context.rules))

    def __repr__(self) -> str:
        ctx = f" | {len(self.context.rules)} ctx rules" if len(self.context) else ""
        return f"<{' '.join(self.tokens)}{ctx}>"


class ASGLearningTask:
    """A context-dependent ASG learning task ``<G, S_M, E+, E->`` (Definition 3)."""

    def __init__(
        self,
        initial: ASG,
        hypothesis_space: Sequence[CandidateRule],
        positive: Sequence[ContextExample],
        negative: Sequence[ContextExample],
        context_placement: str = "all",
        max_trees: int = 256,
        use_fast_path: bool = True,
    ):
        self.initial = initial
        self.hypothesis_space = list(hypothesis_space)
        self.positive = list(positive)
        self.negative = list(negative)
        self.context_placement = context_placement
        self.max_trees = max_trees
        self.use_fast_path = use_fast_path
        self._grammar_cache: Dict[FrozenSet[CandidateRule], ASG] = {}
        self._oracle_cache: Dict[tuple, bool] = {}

    def constraints_only(self) -> bool:
        """True iff every candidate is an integrity constraint.

        In that case acceptance is anti-monotone in the hypothesis, which
        the learner exploits for pruning.
        """
        return all(
            getattr(c.rule, "head", None) is None and not hasattr(c.rule, "elements")
            for c in self.hypothesis_space
        )

    def _grammar(self, hypothesis: Sequence[CandidateRule]) -> ASG:
        key = frozenset(hypothesis)
        cached = self._grammar_cache.get(key)
        if cached is None:
            cached = self.initial.with_rules(
                [(c.rule, c.prod_id if c.prod_id is not None else 0) for c in hypothesis]
            )
            self._grammar_cache[key] = cached
        return cached

    def positive_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 1 of Definition 3: ``s ∈ L(G(C) : H)``."""
        key = (frozenset(hypothesis), example.key())
        cached = self._oracle_cache.get(key)
        if cached is None:
            grammar = self._grammar(hypothesis).with_context(
                example.context, where=self.context_placement
            )
            cached = accepts(
                grammar,
                example.tokens,
                max_trees=self.max_trees,
                use_fast_path=self.use_fast_path,
            )
            self._oracle_cache[key] = cached
        return cached

    def negative_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 2 of Definition 3: ``s ∉ L(G(C) : H)``."""
        return not self.positive_holds(hypothesis, example)


class PartialInterpretation:
    """An ILASP example: atoms to include/exclude, under a context program."""

    __slots__ = ("inclusions", "exclusions", "context", "name", "weight")

    def __init__(
        self,
        inclusions: Iterable[Atom] = (),
        exclusions: Iterable[Atom] = (),
        context: Optional[Program] = None,
        name: str = "",
        weight: int = 1,
    ):
        self.inclusions = frozenset(inclusions)
        self.exclusions = frozenset(exclusions)
        self.context = context if context is not None else Program()
        self.name = name
        self.weight = weight

    def covered_by(self, answer_set: FrozenSet[Atom]) -> bool:
        return self.inclusions <= answer_set and not (self.exclusions & answer_set)

    def key(self) -> tuple:
        """Content identity (used for oracle memoization)."""
        return (self.inclusions, self.exclusions, frozenset(self.context.rules))

    def __repr__(self) -> str:
        inc = ", ".join(sorted(map(str, self.inclusions)))
        exc = ", ".join(sorted(map(str, self.exclusions)))
        return f"<inc: {{{inc}}} exc: {{{exc}}}>"


class LASTask:
    """A Learning-from-Answer-Sets task ``<B, S_M, E+, E->``."""

    def __init__(
        self,
        background: Program,
        hypothesis_space: Sequence[CandidateRule],
        positive: Sequence[PartialInterpretation],
        negative: Sequence[PartialInterpretation],
        max_models: int = 64,
        use_fast_path: bool = True,
    ):
        self.background = background
        self.hypothesis_space = list(hypothesis_space)
        self.positive = list(positive)
        self.negative = list(negative)
        self.max_models = max_models
        self.use_fast_path = use_fast_path
        self._oracle_cache: Dict[tuple, bool] = {}

    def constraints_only(self) -> bool:
        return all(
            getattr(c.rule, "head", None) is None and not hasattr(c.rule, "elements")
            for c in self.hypothesis_space
        )

    def _program(self, hypothesis: Sequence[CandidateRule], context: Program) -> Program:
        program = Program(list(self.background))
        program.extend(context)
        for candidate in hypothesis:
            program.add(candidate.rule)
        return program

    def positive_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """Some answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        key = (frozenset(hypothesis), example.key())
        cached = self._oracle_cache.get(key)
        if cached is not None:
            return cached
        program = self._program(hypothesis, example.context)
        result = False
        for model in solve(
            program, max_models=self.max_models, use_fast_path=self.use_fast_path
        ):
            if example.covered_by(model):
                result = True
                break
        self._oracle_cache[key] = result
        return result

    def negative_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """No answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        return not self.positive_holds(hypothesis, example)
