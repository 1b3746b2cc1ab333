"""Answer-set solver for ground programs.

The solver enumerates answer sets of a :class:`~repro.asp.grounder.GroundProgram`
by backtracking search with propagation, then verifies each candidate
against the Gelfond–Lifschitz reduct, so results are exact answer sets —
propagation is an optimization, stability is the ground truth.  On tight
programs the reduct check is provably redundant and skipped (see
:class:`AnswerSetSolver`).

Choice rules ``l { a1; ...; ak } u :- body`` are translated into pairs of
normal rules over fresh complement atoms::

    ai      :- body, not __naux_i.
    __naux_i :- body, not ai.

which is the standard encoding of a free choice; cardinality bounds are
enforced as a check on complete candidates.

Propagation implements four sound inferences over partial assignments:

* *forward*: a rule with a fully-true body forces its head true
  (a constraint with a fully-true body is a conflict);
* *head-false*: a rule whose head is false and whose body has exactly one
  unassigned literal (rest true) falsifies that literal;
* *no-support*: an atom all of whose potentially-supporting rules are
  dead (contain a false body literal) must be false;
* *last-support*: a true atom with exactly one alive supporting rule
  forces that rule's body true (supportedness of answer sets).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asp.graphs import has_cycle
from repro.asp.grounder import GroundProgram, ground_program
from repro.asp.rules import Program
from repro.errors import BudgetExceededError
from repro.runtime.budget import Budget, current_budget
from repro.telemetry import span as _tele_span

__all__ = ["AnswerSetSolver", "solve", "AnswerSet", "SolveResult", "SolveStats"]

AnswerSet = FrozenSet[Atom]

_AUX_PREFIX = "__naux"

_TRUE = 1
_FALSE = -1
_UNKNOWN = 0


class SolveStats:
    """Search statistics for one solver run (the ILASP-style per-run
    numbers the paper's tooling reports as first-class output).

    * ``decisions`` — branch assignments tried by the search;
    * ``propagations`` — literal assignments forced by propagation;
    * ``conflicts`` — propagation dead-ends (backtrack triggers);
    * ``stability_checks`` — Gelfond–Lifschitz reduct verifications;
    * ``stability_skips`` — candidate models accepted without a reduct
      check because the ground program is tight (see
      :meth:`AnswerSetSolver.is_tight`);
    * ``models`` — answer sets found;
    * ``steps`` — propagation passes (the unit the PR-1 Budget ticks).
    """

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "stability_checks",
        "stability_skips",
        "models",
        "steps",
    )

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.stability_checks = 0
        self.stability_skips = 0
        self.models = 0
        self.steps = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolveStats({inner})"


class SolveResult(List[AnswerSet]):
    """The answer sets of a solve plus its search statistics.

    A list subclass: every existing call site that iterates, indexes, or
    truth-tests the models keeps working, while ``result.stats`` exposes
    the :class:`SolveStats` instead of discarding them.
    """

    def __init__(self, models: Iterable[AnswerSet], stats: Optional[SolveStats] = None):
        super().__init__(models)
        self.stats = stats if stats is not None else SolveStats()


class _Rule:
    """Internal ground normal rule over atom ids."""

    __slots__ = ("head", "body", "index")

    def __init__(self, head: Optional[int], body: Tuple[Tuple[int, bool], ...], index: int):
        self.head = head
        self.body = body  # (atom_id, positive)
        self.index = index


class AnswerSetSolver:
    """Enumerate the answer sets of a ground program.

    Resource governance: ``max_steps`` (default 50 million propagation
    passes — effectively "never" for the policy-layer programs, a
    runaway guard for adversarial ones) bounds the internal step count;
    exhausting it raises :class:`~repro.errors.BudgetExceededError`
    carrying ``steps_used``.  An explicit ``budget`` (or, when omitted,
    the ambient :func:`~repro.runtime.budget.current_budget`) is ticked
    once per propagation pass, so wall-clock deadlines and shared step
    budgets interrupt the solver mid-solve.

    Stability skip: every complete candidate reaching verification is a
    *supported* model (no-support propagation runs to fixpoint before
    the branch selector can report "all assigned", and every rule is
    checked).  When the ground program is tight (its positive dependency
    graph is acyclic), supported models coincide with stable models
    (Fages' theorem), so the Gelfond–Lifschitz reduct check is provably
    redundant and is skipped — counted in ``stats.stability_skips``
    instead of ``stats.stability_checks``.  Negation plays no part: even
    loops and the choice-rule encoding add only negative edges.  A
    positive loop such as ``p :- q. q :- p.`` has the supported model
    ``{p, q}`` that is not stable, so non-tight programs take the check.
    """

    def __init__(
        self,
        ground: GroundProgram,
        max_steps: int = 50_000_000,
        budget: Optional[Budget] = None,
    ):
        self._max_steps = max_steps
        self._steps = 0
        self._budget = budget if budget is not None else current_budget()
        self._tight: Optional[bool] = None  # decided lazily on first verify
        self.stats = SolveStats()

        self._atoms: List[Atom] = []
        self._ids: Dict[Atom, int] = {}
        self._rules: List[_Rule] = []
        # choice bounds: (body ids, element ids, lower, upper)
        self._bounds: List[Tuple[Tuple[Tuple[int, bool], ...], Tuple[int, ...], Optional[int], Optional[int]]] = []

        self._visible: List[bool] = []
        self._build(ground)

        n = len(self._atoms)
        self._supports: List[List[int]] = [[] for _ in range(n)]
        self._occurrences: List[List[int]] = [[] for _ in range(n)]
        for rule in self._rules:
            if rule.head is not None:
                self._supports[rule.head].append(rule.index)
            for atom_id, __ in rule.body:
                self._occurrences[atom_id].append(rule.index)
            if rule.head is not None:
                self._occurrences[rule.head].append(rule.index)

    # -- construction ------------------------------------------------------

    def _atom_id(self, atom: Atom) -> int:
        existing = self._ids.get(atom)
        if existing is not None:
            return existing
        new_id = len(self._atoms)
        self._ids[atom] = new_id
        self._atoms.append(atom)
        self._visible.append(not atom.predicate.startswith(_AUX_PREFIX))
        return new_id

    def _build(self, ground: GroundProgram) -> None:
        def body_ids(body: Iterable[Literal]) -> Tuple[Tuple[int, bool], ...]:
            return tuple((self._atom_id(lit.atom), lit.positive) for lit in body)

        for rule in ground.normal_rules:
            head = self._atom_id(rule.head) if rule.head is not None else None
            self._rules.append(_Rule(head, body_ids(rule.body), len(self._rules)))

        for counter, choice in enumerate(ground.choice_rules):
            cbody = body_ids(choice.body)
            element_ids: List[int] = []
            for j, atom in enumerate(choice.elements):
                elem_id = self._atom_id(atom)
                aux_atom = Atom(f"{_AUX_PREFIX}_{counter}_{j}")
                aux_id = self._atom_id(aux_atom)
                element_ids.append(elem_id)
                self._rules.append(
                    _Rule(elem_id, cbody + ((aux_id, False),), len(self._rules))
                )
                self._rules.append(
                    _Rule(aux_id, cbody + ((elem_id, False),), len(self._rules))
                )
            if choice.lower is not None or choice.upper is not None:
                self._bounds.append((cbody, tuple(element_ids), choice.lower, choice.upper))

    # -- solving -------------------------------------------------------------

    @property
    def steps_used(self) -> int:
        """Propagation passes consumed so far (for post-mortem telemetry)."""
        return self._steps

    def solve(self, max_models: Optional[int] = None) -> "SolveResult":
        """Return up to ``max_models`` answer sets (all if ``None``).

        Atoms of internal auxiliary predicates are projected out.  The
        result is a :class:`SolveResult`: a plain list of answer sets
        carrying the run's :class:`SolveStats`, which are also added, as
        ``solver.*`` counters under an ``asp.solve`` span, to the ambient
        tracer when one is installed.
        """
        with _tele_span("asp.solve") as sp:
            models: List[AnswerSet] = []
            n = len(self._atoms)
            assignment = [_UNKNOWN] * n
            trail: List[int] = []
            before = self.stats.as_dict()

            try:
                for model in self._search(assignment, trail):
                    models.append(model)
                    if max_models is not None and len(models) >= max_models:
                        break
            finally:
                stats = self.stats
                stats.models += len(models)
                stats.steps = self._steps
                # deltas, so re-solving on one instance never double-counts
                for name, start in before.items():
                    sp.incr(f"solver.{name}", getattr(stats, name) - start)
            return SolveResult(models, stats)

    def is_satisfiable(self) -> bool:
        return bool(self.solve(max_models=1))

    # The search is written iteratively-recursively: _search yields models.

    def _search(self, assignment: List[int], trail: List[int]) -> Iterator[AnswerSet]:
        if not self._propagate(assignment, trail):
            return
        unassigned = self._pick_branch(assignment)
        if unassigned is None:
            if self._verify(assignment):
                yield self._extract(assignment)
            return
        for value in (_FALSE, _TRUE):
            mark = len(trail)
            self.stats.decisions += 1
            self._assign(unassigned, value, assignment, trail)
            yield from self._search(assignment, trail)
            self._undo(mark, assignment, trail)

    def _assign(self, atom_id: int, value: int, assignment: List[int], trail: List[int]) -> None:
        assignment[atom_id] = value
        trail.append(atom_id)

    def _undo(self, mark: int, assignment: List[int], trail: List[int]) -> None:
        while len(trail) > mark:
            assignment[trail.pop()] = _UNKNOWN

    def _pick_branch(self, assignment: List[int]) -> Optional[int]:
        best = None
        best_score = -1
        for atom_id, value in enumerate(assignment):
            if value == _UNKNOWN:
                score = len(self._occurrences[atom_id])
                if score > best_score:
                    best = atom_id
                    best_score = score
        return best

    # -- propagation ---------------------------------------------------------

    def _literal_value(self, atom_id: int, positive: bool, assignment: List[int]) -> int:
        value = assignment[atom_id]
        if value == _UNKNOWN:
            return _UNKNOWN
        truth = value == _TRUE
        return _TRUE if truth == positive else _FALSE

    def _propagate(self, assignment: List[int], trail: List[int]) -> bool:
        """Run propagation to fixpoint; return False on conflict."""
        changed = True
        while changed:
            self._steps += 1
            if self._steps > self._max_steps:
                raise BudgetExceededError(
                    "solver step limit exceeded",
                    steps_used=self._steps,
                    max_steps=self._max_steps,
                )
            if self._budget is not None:
                self._budget.tick()
            changed = False
            # rule-based propagation
            for rule in self._rules:
                n_unknown = 0
                n_false = 0
                last_unknown: Optional[Tuple[int, bool]] = None
                for atom_id, positive in rule.body:
                    value = self._literal_value(atom_id, positive, assignment)
                    if value == _UNKNOWN:
                        n_unknown += 1
                        last_unknown = (atom_id, positive)
                    elif value == _FALSE:
                        n_false += 1
                        break
                if n_false:
                    continue
                head_value = (
                    assignment[rule.head] if rule.head is not None else _FALSE
                )
                if n_unknown == 0:
                    # body fully true
                    if rule.head is None:
                        self.stats.conflicts += 1
                        return False  # constraint violated
                    if head_value == _FALSE:
                        self.stats.conflicts += 1
                        return False
                    if head_value == _UNKNOWN:
                        self._assign(rule.head, _TRUE, assignment, trail)
                        self.stats.propagations += 1
                        changed = True
                elif n_unknown == 1 and last_unknown is not None:
                    must_falsify = rule.head is None or head_value == _FALSE
                    if must_falsify:
                        atom_id, positive = last_unknown
                        value = _FALSE if positive else _TRUE
                        self._assign(atom_id, value, assignment, trail)
                        self.stats.propagations += 1
                        changed = True
            # support-based propagation
            for atom_id in range(len(self._atoms)):
                value = assignment[atom_id]
                if value == _FALSE:
                    continue
                alive: List[_Rule] = []
                for rule_index in self._supports[atom_id]:
                    rule = self._rules[rule_index]
                    dead = False
                    for body_atom, positive in rule.body:
                        if self._literal_value(body_atom, positive, assignment) == _FALSE:
                            dead = True
                            break
                    if not dead:
                        alive.append(rule)
                if not alive:
                    if value == _TRUE:
                        self.stats.conflicts += 1
                        return False
                    self._assign(atom_id, _FALSE, assignment, trail)
                    self.stats.propagations += 1
                    changed = True
                elif value == _TRUE and len(alive) == 1:
                    # supportedness: the single alive rule's body must be true
                    for body_atom, positive in alive[0].body:
                        lit_value = self._literal_value(body_atom, positive, assignment)
                        if lit_value == _UNKNOWN:
                            self._assign(
                                body_atom,
                                _TRUE if positive else _FALSE,
                                assignment,
                                trail,
                            )
                            self.stats.propagations += 1
                            changed = True
        return True

    # -- verification ----------------------------------------------------------

    def is_tight(self) -> bool:
        """Whether the ground positive dependency graph is acyclic.

        Decided once, lazily: edges run from each rule head to its
        positive body atoms (constraints contribute none).
        """
        if self._tight is None:
            successors: Dict[int, List[int]] = {}
            for rule in self._rules:
                if rule.head is None:
                    continue
                for atom_id, positive in rule.body:
                    if positive:
                        successors.setdefault(rule.head, []).append(atom_id)
            self._tight = not has_cycle(list(successors), successors)
        return self._tight

    def _verify(self, assignment: List[int]) -> bool:
        """Check a complete assignment: rules, choice bounds, stability."""
        for rule in self._rules:
            body_true = all(
                self._literal_value(a, p, assignment) == _TRUE for a, p in rule.body
            )
            if body_true:
                if rule.head is None or assignment[rule.head] != _TRUE:
                    return False
        for body, elements, lower, upper in self._bounds:
            body_true = all(
                self._literal_value(a, p, assignment) == _TRUE for a, p in body
            )
            if not body_true:
                continue
            count = sum(1 for e in elements if assignment[e] == _TRUE)
            if lower is not None and count < lower:
                return False
            if upper is not None and count > upper:
                return False
        if self.is_tight():
            self.stats.stability_skips += 1
            return True
        return self._stable(assignment)

    def _stable(self, assignment: List[int]) -> bool:
        """Gelfond–Lifschitz check: least model of the reduct == candidate."""
        self.stats.stability_checks += 1
        candidate = {i for i, v in enumerate(assignment) if v == _TRUE}
        # Build the reduct: keep rules whose negative body is satisfied.
        reduct: List[Tuple[Optional[int], Tuple[int, ...]]] = []
        for rule in self._rules:
            keep = True
            positive: List[int] = []
            for atom_id, pos in rule.body:
                if pos:
                    positive.append(atom_id)
                elif atom_id in candidate:
                    keep = False
                    break
            if keep and rule.head is not None:
                reduct.append((rule.head, tuple(positive)))
        # Least model by forward chaining.
        least: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for head, body in reduct:
                if head not in least and all(b in least for b in body):
                    least.add(head)
                    changed = True
        return least == candidate

    def _extract(self, assignment: List[int]) -> AnswerSet:
        return frozenset(
            self._atoms[i]
            for i, value in enumerate(assignment)
            if value == _TRUE and self._visible[i]
        )


def solve(
    program: Program,
    max_models: Optional[int] = None,
    max_steps: int = 50_000_000,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Ground and solve ``program``; return its answer sets.

    ``budget`` (explicit or ambient) governs both phases: grounding and
    solving tick the same budget.  The returned :class:`SolveResult`
    behaves as a plain list of answer sets and additionally carries the
    run's :class:`SolveStats`.
    """
    ground = ground_program(program, budget=budget)
    return AnswerSetSolver(ground, max_steps=max_steps, budget=budget).solve(
        max_models=max_models
    )


CostVector = Tuple[Tuple[int, int], ...]
"""((priority, total weight), ...) sorted by descending priority."""


def cost_of(ground: GroundProgram, model: AnswerSet) -> CostVector:
    """The weak-constraint cost of an answer set (clingo semantics).

    Each ground weak constraint whose body holds in ``model``
    contributes its weight at its priority level; vectors compare
    lexicographically by descending priority.
    """
    priorities = sorted(
        {w.priority for w in ground.weak_constraints}, reverse=True
    )
    totals = {priority: 0 for priority in priorities}
    atoms = set(model)
    for weak in ground.weak_constraints:
        holds = True
        for literal in weak.body:
            if isinstance(literal, Literal):
                if (literal.atom in atoms) != literal.positive:
                    holds = False
                    break
        if holds:
            totals[weak.priority] += getattr(weak.weight, "value", 0)
    return tuple((priority, totals[priority]) for priority in priorities)


def solve_optimal(
    program: Program,
    max_steps: int = 50_000_000,
    max_candidates: int = 100_000,
    budget: Optional[Budget] = None,
) -> Tuple[List[AnswerSet], CostVector]:
    """All cost-optimal answer sets of a program with weak constraints.

    Enumerates answer sets (up to ``max_candidates``), scores each with
    :func:`cost_of`, and returns the minimum-cost ones together with
    the optimal cost vector.  Without weak constraints every answer set
    is optimal at the empty cost.
    """
    ground = ground_program(program, budget=budget)
    solver = AnswerSetSolver(ground, max_steps=max_steps, budget=budget)
    models = solver.solve(max_models=max_candidates)
    if not models:
        return SolveResult([], solver.stats), ()
    scored = [(cost_of(ground, model), model) for model in models]
    best = min(cost for cost, __ in scored)
    optimal = [model for cost, model in scored if cost == best]
    return SolveResult(optimal, solver.stats), best
