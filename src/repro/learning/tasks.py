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
``negative_holds``) consumed by :mod:`repro.learning.ilasp`.  Both
oracles evaluate a hypothesis against a program split once per example
(for ASG tasks, once per parse tree of the example) below the heads of
the hypothesis space: a candidate whose body reads only the bottom part
either fires its head, kills every answer set (a constraint), or drops
out, so most checks need no grounding at all.  Whatever does not reduce
takes the full per-hypothesis oracle.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.asp.atoms import Atom, Comparison
from repro.asp.parser import parse_program
from repro.asp.rules import NormalRule, Program, Rule, body_literals, fact, head_atoms
from repro.asp.solver import solve
from repro.asg.annotated import ASG
from repro.asg.semantics import accepts, reroot_rule, tree_program
from repro.errors import GrammarError, GroundingError
from repro.grammar.cfg import SymbolString
from repro.grammar.earley import parse_trees
from repro.grammar.parse_tree import Trace
from repro.learning.mode_bias import CandidateRule

__all__ = ["ContextExample", "ASGLearningTask", "PartialInterpretation", "LASTask"]

_UNSOLVED = object()
_IRREDUCIBLE = object()
_KILLED = object()


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
    """A context-dependent ASG learning task ``<G, S_M, E+, E->`` (Definition 3).

    ``G(C) : H[t]`` is ``G(C)[t]`` plus every candidate of ``H`` rerooted
    at the nodes of ``t`` whose production is the candidate's (``None``
    means production 0).  So the oracle parses each distinct example
    once (the first ``max_trees`` trees, as :func:`accepts` does), builds
    ``G(C)[t]`` once per tree, and splits it below the hypothesis
    space's heads as :class:`LASTask` splits ``B ∪ C``.  A hypothesis
    then reduces, per tree, to the heads its rerooted candidates fire in
    the bottom model, or to the tree's death when one of them is a
    constraint whose body holds there; the string is accepted iff some
    tree has a bottom model, is not killed, and has an answer set once
    its fired heads are added as facts (one solve per tree and set of
    fired heads, none when the bottom is the whole program).  When a
    bottom has more than one answer set, a rerooted candidate does not
    reduce, or ``G : H`` or ``G(C)`` would not build, the oracle runs the
    full :func:`accepts` on ``G : H (C)`` instead.
    """

    def __init__(
        self,
        initial: ASG,
        hypothesis_space: Sequence[CandidateRule],
        positive: Sequence[ContextExample],
        negative: Sequence[ContextExample],
        context_placement: str = "all",
        max_trees: int = 256,
    ):
        self.initial = initial
        self.hypothesis_space = list(hypothesis_space)
        self.positive = list(positive)
        self.negative = list(negative)
        self.context_placement = context_placement
        self.max_trees = max_trees
        self._heads = _head_signatures(self.hypothesis_space)
        # candidate -> whether G : {candidate} builds
        self._attachable: Dict[CandidateRule, bool] = {}
        # example key -> its trees, or None when one does not split
        self._trees: Dict[tuple, Optional[List["_TreeSplit"]]] = {}
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

    def _attaches(self, candidate: CandidateRule) -> bool:
        """Whether ``G : {candidate}`` builds (``G : H`` builds iff each
        of its candidates does)."""
        ok = self._attachable.get(candidate)
        if ok is None:
            prod_id = candidate.prod_id if candidate.prod_id is not None else 0
            try:
                self.initial.with_rules([(candidate.rule, prod_id)])
                ok = True
            except GrammarError:
                ok = False
            self._attachable[candidate] = ok
        return ok

    def _tree_splits(
        self, example: ContextExample, key: tuple
    ) -> Optional[List["_TreeSplit"]]:
        """The example's parse trees, each with ``G(C)[t]`` split, memoised;
        ``None`` when ``G(C)`` does not build or some bottom is ambiguous."""
        trees = self._trees.get(key, _UNSOLVED)
        if trees is not _UNSOLVED:
            return trees
        try:
            grammar = self.initial.with_context(
                example.context, where=self.context_placement
            )
        except GrammarError:
            trees = None
        else:
            trees = []
            for tree in parse_trees(
                grammar.cfg, example.tokens, max_trees=self.max_trees
            ):
                program = tree_program(grammar, tree)
                traces: Dict[int, List[Trace]] = {}
                for node, trace in tree.interior_nodes():
                    traces.setdefault(node.production.prod_id, []).append(trace)
                split = _split_below(
                    program.rules,
                    self._heads,
                    functools.partial(_rerooted, traces),
                )
                if split is None:
                    trees = None
                    break
                trees.append(_TreeSplit(program, split))
        self._trees[key] = trees
        return trees

    def _reduced(
        self, hypothesis: Sequence[CandidateRule], trees: List["_TreeSplit"]
    ) -> Optional[bool]:
        """Membership decided on the split trees; ``None`` when some
        rerooted candidate does not reduce."""
        for tree in trees:
            split = tree.split
            heads = split.fired_heads(hypothesis)
            if heads is None:
                return None
            if split.model is None or heads is _KILLED:
                continue
            if not heads and split.whole:
                return True
            key = frozenset(heads)
            satisfiable = tree.solved.get(key)
            if satisfiable is None:
                program = Program(tree.program.rules)
                program.extend(fact(head) for head in dict.fromkeys(heads))
                satisfiable = tree.solved[key] = bool(solve(program, max_models=1))
            if satisfiable:
                return True
        return False

    def positive_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 1 of Definition 3: ``s ∈ L(G(C) : H)``."""
        example_key = example.key()
        if all(self._attaches(c) for c in hypothesis):
            trees = self._tree_splits(example, example_key)
            if trees is not None:
                accepted = self._reduced(hypothesis, trees)
                if accepted is not None:
                    return accepted
        key = (frozenset(hypothesis), example_key)
        cached = self._oracle_cache.get(key)
        if cached is None:
            grammar = self._grammar(hypothesis).with_context(
                example.context, where=self.context_placement
            )
            cached = accepts(grammar, example.tokens, max_trees=self.max_trees)
            self._oracle_cache[key] = cached
        return cached

    def negative_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 2 of Definition 3: ``s ∉ L(G(C) : H)``."""
        return not self.positive_holds(hypothesis, example)


class _TreeSplit:
    """One parse tree's ``G(C)[t]``, its split, and the satisfiability of
    ``G(C)[t]`` plus each set of fired heads solved so far."""

    __slots__ = ("program", "split", "solved")

    def __init__(self, program: Program, split: "_Split"):
        self.program = program
        self.split = split
        self.solved: Dict[FrozenSet[Atom], bool] = {}


def _rerooted(traces: Dict[int, List[Trace]], candidate: CandidateRule) -> List[Rule]:
    """The candidate's rule at every node of a tree with its production."""
    prod_id = candidate.prod_id if candidate.prod_id is not None else 0
    return [reroot_rule(candidate.rule, trace) for trace in traces.get(prod_id, ())]


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
    """A program split below the candidate heads.

    ``top`` holds the candidate heads and, closed under the program's
    rules, every head of a rule that reads or derives a ``top``
    predicate; the rules mentioning none of them form the *bottom*.
    ``model`` is the bottom's unique answer set, or ``None`` when the
    bottom has no answer set, and ``whole`` says whether the bottom is
    the whole program.  ``instances`` maps a candidate to its rules in
    the program (the rule itself, or its rerooted copies in a tree).
    """

    __slots__ = ("top", "model", "whole", "_instances", "_fired")

    def __init__(
        self,
        top: FrozenSet[Tuple[str, int]],
        model: Optional[FrozenSet[Atom]],
        whole: bool,
        instances: Callable[[CandidateRule], Sequence[Rule]],
    ):
        self.top = top
        self.model = model
        self.whole = whole
        self._instances = instances
        # candidate -> the heads its instances fire, _KILLED, or _IRREDUCIBLE
        self._fired: Dict[CandidateRule, object] = {}

    def fired_heads(self, hypothesis: Sequence[CandidateRule]) -> object:
        """Heads of the candidates whose bodies hold in the bottom model,
        in hypothesis order; ``_KILLED`` when a candidate constraint's
        body holds there, so that no answer set survives; ``None`` when
        some candidate does not reduce."""
        heads: List[Atom] = []
        for candidate in hypothesis:
            fired = self._fired.get(candidate, _UNSOLVED)
            if fired is _UNSOLVED:
                fired = self._fired[candidate] = self._fire_all(
                    self._instances(candidate)
                )
            if fired is _IRREDUCIBLE:
                return None
            if fired is _KILLED:
                return _KILLED
            heads.extend(fired)
        return heads

    def _fire_all(self, rules: Sequence[Rule]) -> object:
        heads: List[Atom] = []
        for rule in rules:
            fired = self._fire(rule)
            if fired is _IRREDUCIBLE or fired is _KILLED:
                return fired
            if fired is not None:
                heads.append(fired)
        return tuple(heads)

    def _fire(self, rule: Rule) -> object:
        """A ground normal rule whose body reads no ``top`` predicate
        either fires (a head in ``top``, or ``_KILLED`` for a constraint)
        or drops out (``None``)."""
        if (
            not isinstance(rule, NormalRule)
            or not rule.is_ground()
            or (rule.head is not None and rule.head.signature not in self.top)
            or any(lit.atom.signature in self.top for lit in body_literals(rule))
        ):
            return _IRREDUCIBLE
        if self.model is None or not _body_holds(rule, self.model):
            return None
        return rule.head if rule.head is not None else _KILLED


def _head_signatures(space: Sequence[CandidateRule]) -> FrozenSet[Tuple[str, int]]:
    return frozenset(atom.signature for c in space for atom in head_atoms(c.rule))


def _as_written(candidate: CandidateRule) -> Tuple[Rule]:
    return (candidate.rule,)


def _split_below(
    rules: Sequence[Rule],
    heads: FrozenSet[Tuple[str, int]],
    instances: Callable[[CandidateRule], Sequence[Rule]],
) -> Optional[_Split]:
    """Split ``rules`` below the candidate ``heads`` and solve the bottom;
    ``None`` when the bottom has more than one answer set."""
    shapes = [
        (
            {atom.signature for atom in head_atoms(rule)},
            {lit.atom.signature for lit in body_literals(rule)},
        )
        for rule in rules
    ]
    top = set(heads)
    changed = True
    while changed:
        changed = False
        for rule_heads, body in shapes:
            # a rule that reads or derives a top predicate puts all its
            # heads in top: the choice rule ``{ h; p }.`` with h in top
            # leaves p no bottom definition
            touches = not (top.isdisjoint(rule_heads) and top.isdisjoint(body))
            if touches and not rule_heads <= top:
                top |= rule_heads
                changed = True
    bottom = Program(
        rule
        for rule, (rule_heads, body) in zip(rules, shapes)
        if top.isdisjoint(rule_heads) and top.isdisjoint(body)
    )
    models = solve(bottom, max_models=2)
    if len(models) > 1:
        return None
    return _Split(
        frozenset(top),
        models[0] if models else None,
        len(bottom) == len(rules),
        instances,
    )


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
    ``H`` is a ground normal rule or integrity constraint whose body
    reads no ``top`` predicate, and the bottom has at most one answer
    set, the splitting-set theorem gives ``B ∪ C ∪ H`` the same answer
    sets as ``B ∪ C ∪ F``, where ``F`` holds the heads of the rules whose
    bodies are true in the bottom's answer set, or none at all when a
    constraint's body is true there.  So ``positive_holds`` solves once
    per ``(F, example)`` instead of once per ``(H, example)``, and an
    unsatisfiable bottom, or a constraint that fires, fails every ``H``.
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
    ):
        self.background = background
        self.hypothesis_space = list(hypothesis_space)
        self.positive = list(positive)
        self.negative = list(negative)
        self.max_models = max_models
        self._heads = _head_signatures(self.hypothesis_space)
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
        if split is _UNSOLVED:
            split = self._splits[key] = _split_below(
                list(self.background) + list(example.context),
                self._heads,
                _as_written,
            )
        return split

    def _covered(
        self, program: Program, example: PartialInterpretation
    ) -> Tuple[bool, int]:
        """Whether some answer set found covers ``example``, and how many
        answer sets the solve returned."""
        models = solve(program, max_models=self.max_models)
        return any(example.covered_by(model) for model in models), len(models)

    def positive_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """Some answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        example_key = example.key()
        split = self._split(example, example_key)
        heads = split.fired_heads(hypothesis) if split is not None else None
        if heads is not None:
            if split.model is None or heads is _KILLED:
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
