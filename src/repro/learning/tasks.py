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

from repro.asp.atoms import Atom, Comparison
from repro.asp.parser import parse_program
from repro.asp.rules import NormalRule, Program, Rule, body_literals, fact, head_atoms
from repro.asp.solver import solve
from repro.asg.annotated import ASG
from repro.asg.semantics import accepts
from repro.errors import GroundingError
from repro.grammar.cfg import SymbolString
from repro.learning.mode_bias import CandidateRule

__all__ = ["ContextExample", "ASGLearningTask", "PartialInterpretation", "LASTask"]

_UNSOLVED = object()
_IRREDUCIBLE = object()


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


class _Split:
    """One example's program ``B ∪ C`` split below the candidate heads.

    ``top`` holds the candidate heads and, closed under the rules of
    ``B ∪ C``, every head of a rule that reads or derives a ``top``
    predicate; the rules mentioning none of them form the *bottom*.
    ``model`` is the bottom's unique answer set, or ``None`` when the
    bottom has no answer set.
    """

    __slots__ = ("top", "model", "_fired")

    def __init__(self, top: FrozenSet[Tuple[str, int]], model: Optional[FrozenSet[Atom]]):
        self.top = top
        self.model = model
        # rule -> its head if it fires, None if not, _IRREDUCIBLE
        self._fired: Dict[Rule, object] = {}

    def fired_heads(self, hypothesis: Sequence[CandidateRule]) -> Optional[List[Atom]]:
        """Heads of the candidates whose bodies hold in the bottom model,
        in hypothesis order; ``None`` when some candidate does not reduce."""
        heads: List[Atom] = []
        for candidate in hypothesis:
            head = self._fired.get(candidate.rule, _UNSOLVED)
            if head is _UNSOLVED:
                head = self._fired[candidate.rule] = self._fire(candidate.rule)
            if head is _IRREDUCIBLE:
                return None
            if head is not None:
                heads.append(head)
        return heads

    def _fire(self, rule: Rule) -> object:
        """A ground normal rule with its head in ``top`` and a body that
        reads no ``top`` predicate reduces to its head or to nothing."""
        if (
            not isinstance(rule, NormalRule)
            or rule.head is None
            or rule.head.signature not in self.top
            or not rule.is_ground()
            or any(lit.atom.signature in self.top for lit in body_literals(rule))
        ):
            return _IRREDUCIBLE
        if self.model is not None and _body_holds(rule, self.model):
            return rule.head
        return None


def _body_holds(rule: NormalRule, model: FrozenSet[Atom]) -> bool:
    """Whether a ground body holds in ``model``, evaluated as the grounder
    does: arithmetic is computed, and a failing evaluation drops the rule."""
    try:
        for elem in rule.body:
            if isinstance(elem, Comparison):
                if not elem.holds():
                    return False
            elif (elem.atom.evaluate() in model) != elem.positive:
                return False
    except GroundingError:
        return False
    return True


class LASTask:
    """A Learning-from-Answer-Sets task ``<B, S_M, E+, E->``.

    The oracle solves a reduced program when it can.  Let ``top`` be the
    predicates that depend, in ``B ∪ C``, on a head of the hypothesis
    space, together with the other heads of any rule deriving one (a
    choice rule's elements stay on one side), and the *bottom* the rules
    of ``B ∪ C`` that mention none of them.  When every candidate of
    ``H`` is a ground normal rule whose body reads no ``top`` predicate,
    and the bottom has at most one answer set, the splitting-set
    theorem gives ``B ∪ C ∪ H`` the same answer sets as ``B ∪ C ∪ F``,
    where ``F`` holds the heads of the candidates whose bodies are true
    in the bottom's answer set.  So
    ``positive_holds`` solves once per ``(F, example)`` instead of once
    per ``(H, example)``, and an unsatisfiable bottom fails every ``H``.
    Otherwise, or when the reduced solve reaches ``max_models`` answer
    sets (and so might not have seen the ones the full solve would), the
    oracle solves ``B ∪ C ∪ H`` itself.
    """

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
        self._heads = frozenset(
            atom.signature for c in self.hypothesis_space for atom in head_atoms(c.rule)
        )
        # example key -> its split, or None when the bottom is ambiguous
        self._splits: Dict[tuple, Optional[_Split]] = {}
        # (frozenset of fired heads, example key) -> covered, or None
        # when the reduced solve was inconclusive
        self._reduced_cache: Dict[tuple, Optional[bool]] = {}
        self._oracle_cache: Dict[tuple, bool] = {}

    def constraints_only(self) -> bool:
        return all(
            getattr(c.rule, "head", None) is None and not hasattr(c.rule, "elements")
            for c in self.hypothesis_space
        )

    def _program(self, rules: Iterable[Rule], context: Program) -> Program:
        program = Program(list(self.background))
        program.extend(context)
        program.extend(rules)
        return program

    def _split(self, example: PartialInterpretation, key: tuple) -> Optional[_Split]:
        """The example's split, memoised; ``None`` when its bottom has
        more than one answer set."""
        split = self._splits.get(key, _UNSOLVED)
        if split is not _UNSOLVED:
            return split
        rules = list(self.background) + list(example.context)
        shapes = [
            (
                {atom.signature for atom in head_atoms(rule)},
                {lit.atom.signature for lit in body_literals(rule)},
            )
            for rule in rules
        ]
        top = set(self._heads)
        changed = True
        while changed:
            changed = False
            for heads, body in shapes:
                # a rule that reads or derives a top predicate puts all
                # its heads in top: the choice rule ``{ h; p }.`` with h
                # in top leaves p no bottom definition
                touches = not (top.isdisjoint(heads) and top.isdisjoint(body))
                if touches and not heads <= top:
                    top |= heads
                    changed = True
        bottom = Program(
            rule
            for rule, (heads, body) in zip(rules, shapes)
            if top.isdisjoint(heads) and top.isdisjoint(body)
        )
        models = solve(bottom, max_models=2, use_fast_path=self.use_fast_path)
        split = None
        if len(models) < 2:
            split = _Split(frozenset(top), models[0] if models else None)
        self._splits[key] = split
        return split

    def _covered(
        self, program: Program, example: PartialInterpretation
    ) -> Tuple[bool, int]:
        """Whether some answer set found covers ``example``, and how many
        answer sets the solve returned."""
        models = solve(
            program, max_models=self.max_models, use_fast_path=self.use_fast_path
        )
        return any(example.covered_by(model) for model in models), len(models)

    def positive_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """Some answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        example_key = example.key()
        split = self._split(example, example_key)
        heads = split.fired_heads(hypothesis) if split is not None else None
        if heads is not None:
            if split.model is None:
                return False
            key = (frozenset(heads), example_key)
            result = self._reduced_cache.get(key, _UNSOLVED)
            if result is _UNSOLVED:
                facts = [fact(head) for head in dict.fromkeys(heads)]
                covered, found = self._covered(
                    self._program(facts, example.context), example
                )
                exhaustive = self.max_models is None or found < self.max_models
                result = covered if exhaustive else None
                self._reduced_cache[key] = result
            if result is not None:
                return result
        key = (frozenset(hypothesis), example_key)
        cached = self._oracle_cache.get(key)
        if cached is None:
            cached, __ = self._covered(
                self._program([c.rule for c in hypothesis], example.context), example
            )
            self._oracle_cache[key] = cached
        return cached

    def negative_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """No answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        return not self.positive_holds(hypothesis, example)
