"""Grounding: from first-order programs to ground programs.

The grounder works in two phases:

1. **Possible-atom fixpoint** — treat every rule as if its negative
   literals were absent and every choice element were derivable; compute
   the least set of atoms that could possibly hold. This over-approximates
   every answer set, so it is a sound basis for instantiation.
2. **Instantiation** — for every rule, enumerate all substitutions whose
   positive body matches the possible-atom set, evaluate builtin
   comparisons and arithmetic, and emit the ground instance. Negative
   literals over atoms that are not possible are trivially true and
   dropped; ground rules whose body contains a failed comparison are
   dropped entirely.

Safety (every variable bound by a positive body literal, or by an
``=`` assignment whose right-hand side is bound) is checked before
grounding; unsafe rules raise :class:`~repro.errors.UnsafeRuleError`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.asp.atoms import Atom, Comparison, Literal
from repro.asp.rules import (
    BodyElement,
    ChoiceRule,
    NormalRule,
    Program,
    Rule,
    WeakConstraint,
)
from repro.asp.terms import (
    ArithTerm,
    Constant,
    Function,
    Integer,
    Substitution,
    Term,
    Variable,
)
from repro.errors import GroundingError, UnsafeRuleError
from repro.runtime.budget import Budget, current_budget
from repro.telemetry import span as _tele_span

__all__ = [
    "ground_program",
    "GroundProgram",
    "GroundStats",
    "match_atom",
    "binding_schedule",
    "order_body",
]


class GroundStats:
    """Per-run grounding statistics (naive bottom-up fixpoint with indexing).

    * ``fixpoint_iterations`` — passes of the possible-atom fixpoint;
    * ``substitutions`` — substitutions enumerated across both phases;
    * ``atoms`` — size of the final possible-atom set;
    * ``rules_grounded`` — ground rules emitted (normal + choice + weak).
    """

    __slots__ = ("fixpoint_iterations", "substitutions", "atoms", "rules_grounded")

    def __init__(self) -> None:
        self.fixpoint_iterations = 0
        self.substitutions = 0
        self.atoms = 0
        self.rules_grounded = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"GroundStats({inner})"


class GroundProgram:
    """The result of grounding: ground rules plus the possible-atom set.

    ``stats`` carries the :class:`GroundStats` of the run that produced
    this program (a fresh zeroed instance when constructed directly).
    """

    __slots__ = ("normal_rules", "choice_rules", "weak_constraints", "atoms", "stats")

    def __init__(
        self,
        normal_rules: List[NormalRule],
        choice_rules: List[ChoiceRule],
        atoms: Set[Atom],
        weak_constraints: Optional[List[WeakConstraint]] = None,
        stats: Optional[GroundStats] = None,
    ):
        self.normal_rules = normal_rules
        self.choice_rules = choice_rules
        self.weak_constraints = weak_constraints if weak_constraints is not None else []
        self.atoms = atoms
        self.stats = stats if stats is not None else GroundStats()

    def __repr__(self) -> str:
        lines = (
            [repr(r) for r in self.normal_rules]
            + [repr(r) for r in self.choice_rules]
            + [repr(r) for r in self.weak_constraints]
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Matching


def match_term(pattern: Term, ground: Term, theta: Substitution) -> Optional[Substitution]:
    """One-way matching of ``pattern`` against a ground term.

    Returns an extension of ``theta`` or ``None``. ``theta`` is not
    mutated.
    """
    if isinstance(pattern, Variable):
        bound = theta.get(pattern.name)
        if bound is None:
            out = dict(theta)
            out[pattern.name] = ground
            return out
        return theta if bound == ground else None
    if isinstance(pattern, (Constant, Integer)):
        return theta if pattern == ground else None
    if isinstance(pattern, Function):
        if (
            not isinstance(ground, Function)
            or pattern.functor != ground.functor
            or len(pattern.args) != len(ground.args)
        ):
            return None
        current: Optional[Substitution] = theta
        for p_arg, g_arg in zip(pattern.args, ground.args):
            current = match_term(p_arg, g_arg, current)
            if current is None:
                return None
        return current
    if isinstance(pattern, ArithTerm):
        # Arithmetic in a matched position: evaluate (must be ground under theta).
        substituted = pattern.substitute(theta)
        if not substituted.is_ground():
            return None
        return theta if substituted.evaluate() == ground else None
    raise GroundingError(f"cannot match term {pattern!r}")


def match_atom(pattern: Atom, ground: Atom, theta: Substitution) -> Optional[Substitution]:
    """One-way matching of an atom pattern against a ground atom."""
    if (
        pattern.predicate != ground.predicate
        or len(pattern.args) != len(ground.args)
        or pattern.annotation != ground.annotation
    ):
        return None
    current: Optional[Substitution] = theta
    for p_arg, g_arg in zip(pattern.args, ground.args):
        current = match_term(p_arg, g_arg, current)
        if current is None:
            return None
    return current


# ---------------------------------------------------------------------------
# Safety and body ordering


def _bound_by_assignment(comp: Comparison, bound: Set[str]) -> Optional[str]:
    """If ``comp`` can act as an assignment given ``bound`` vars, return
    the variable name it binds."""
    if comp.op != "==":
        return None
    left_vars = {v.name for v in comp.left.variables()}
    right_vars = {v.name for v in comp.right.variables()}
    if isinstance(comp.left, Variable) and comp.left.name not in bound and right_vars <= bound:
        return comp.left.name
    if isinstance(comp.right, Variable) and comp.right.name not in bound and left_vars <= bound:
        return comp.right.name
    return None


def binding_schedule(rule: Rule) -> Tuple[List[BodyElement], Set[str]]:
    """The grounder's body-ordering/safety analysis, without grounding.

    Positive literals and assignment-comparisons are scheduled as soon as
    they can bind; tests (negative literals, non-assignment comparisons)
    are scheduled once all their variables are bound.  Returns the
    evaluation order achieved and the set of variable names that could
    not be bound — empty iff the rule is safe.

    This single function backs both :func:`order_body` (which turns a
    non-empty unbound set into :class:`UnsafeRuleError`) and the static
    ASP linter (:mod:`repro.analysis.asp_lint`), so grounding and lint
    diagnostics agree by construction.
    """
    remaining = list(rule.body)
    ordered: List[BodyElement] = []
    bound: Set[str] = set()
    while remaining:
        progressed = False
        for elem in list(remaining):
            if isinstance(elem, Literal) and elem.positive:
                ordered.append(elem)
                remaining.remove(elem)
                bound.update(v.name for v in elem.variables())
                progressed = True
            elif isinstance(elem, Comparison):
                var = _bound_by_assignment(elem, bound)
                elem_vars = {v.name for v in elem.variables()}
                if var is not None:
                    ordered.append(elem)
                    remaining.remove(elem)
                    bound.add(var)
                    progressed = True
                elif elem_vars <= bound:
                    ordered.append(elem)
                    remaining.remove(elem)
                    progressed = True
            else:  # negative literal
                elem_vars = {v.name for v in elem.variables()}
                if elem_vars <= bound:
                    ordered.append(elem)
                    remaining.remove(elem)
                    progressed = True
        if not progressed:
            break
    unbound: Set[str] = set()
    for elem in remaining:
        unbound.update(v.name for v in elem.variables())
    head_vars: Set[str] = set()
    if isinstance(rule, NormalRule):
        if rule.head is not None:
            head_vars = {v.name for v in rule.head.variables()}
    elif isinstance(rule, WeakConstraint):
        head_vars = {v.name for v in rule.weight.variables()}
    else:
        for atom in rule.elements:
            head_vars |= {v.name for v in atom.variables()}
    unbound |= head_vars
    unbound -= bound
    return ordered, unbound


def order_body(rule: Rule) -> List[BodyElement]:
    """Produce an evaluation order for a rule body.

    Raises :class:`UnsafeRuleError` (carrying the rule's source span,
    when known, and the offending variable names) if no complete
    schedule exists.
    """
    ordered, unbound = binding_schedule(rule)
    if unbound:
        raise UnsafeRuleError(
            f"rule is unsafe (cannot bind variables {sorted(unbound)}): {rule!r}",
            span=getattr(rule, "span", None),
            variables=tuple(sorted(unbound)),
        )
    return ordered


# ---------------------------------------------------------------------------
# Substitution enumeration


class _AtomIndex:
    """Atoms indexed by (predicate, arity, annotation) for fast matching."""

    def __init__(self) -> None:
        self._by_sig: Dict[tuple, List[Atom]] = defaultdict(list)
        self._all: Set[Atom] = set()

    def add(self, atom: Atom) -> bool:
        if atom in self._all:
            return False
        self._all.add(atom)
        self._by_sig[(atom.predicate, len(atom.args), atom.annotation)].append(atom)
        return True

    def candidates(self, pattern: Atom) -> Sequence[Atom]:
        return self._by_sig.get(
            (pattern.predicate, len(pattern.args), pattern.annotation), ()
        )

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._all

    @property
    def atoms(self) -> Set[Atom]:
        return self._all


def _enumerate(
    plan: Sequence[BodyElement],
    index: _AtomIndex,
    theta: Substitution,
    positives_only: bool,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying the body plan against ``index``.

    When ``positives_only`` is true (possible-atom fixpoint), negative
    literals are ignored; otherwise a negative literal only *prunes* when
    its ground atom cannot possibly hold — the solver handles the rest.
    """
    if not plan:
        yield theta
        return
    elem, rest = plan[0], plan[1:]
    if isinstance(elem, Literal) and elem.positive:
        for candidate in index.candidates(elem.atom):
            extended = match_atom(elem.atom, candidate, theta)
            if extended is not None:
                yield from _enumerate(rest, index, extended, positives_only)
    elif isinstance(elem, Comparison):
        comp = elem.substitute(theta)
        var = _bound_by_assignment(comp, set())
        if var is not None:
            assigned = comp.right if isinstance(comp.left, Variable) else comp.left
            try:
                value = assigned.evaluate()
            except GroundingError:
                return
            extended = dict(theta)
            extended[var] = value
            yield from _enumerate(rest, index, extended, positives_only)
        else:
            if not comp.is_ground():
                return
            try:
                holds = comp.holds()
            except GroundingError:
                return
            if holds:
                yield from _enumerate(rest, index, theta, positives_only)
    else:  # negative literal: never binds
        yield from _enumerate(rest, index, theta, positives_only)


def _evaluate_atom(atom: Atom) -> Optional[Atom]:
    try:
        return atom.evaluate()
    except GroundingError:
        return None


# ---------------------------------------------------------------------------
# Main entry point


def ground_program(
    program: Program,
    max_atoms: int = 2_000_000,
    budget: Optional[Budget] = None,
) -> GroundProgram:
    """Ground ``program``.

    ``max_atoms`` bounds the possible-atom set as a runaway guard
    (raises :class:`GroundingError` when exceeded).  ``budget``
    (explicit or ambient) is ticked once per enumerated substitution in
    both phases, so step budgets and deadlines interrupt grounding
    before the possible-atom set explodes.

    The returned program carries :class:`GroundStats` (``.stats``);
    the same numbers are added, as ``grounder.*`` counters under an
    ``asp.ground`` span, to the ambient tracer when one is installed.
    """
    with _tele_span("asp.ground") as sp:
        ground = _ground(program, max_atoms, budget)
        for name, value in ground.stats.as_dict().items():
            sp.incr(f"grounder.{name}", value)
        return ground


def _ground(
    program: Program,
    max_atoms: int,
    budget: Optional[Budget],
) -> GroundProgram:
    if budget is None:
        budget = current_budget()
    stats = GroundStats()
    plans: List[Tuple[Rule, List[BodyElement]]] = []
    for rule in program:
        plans.append((rule, order_body(rule)))

    index = _AtomIndex()

    # Phase 1: possible-atom fixpoint (naive iteration with indexing; the
    # programs produced by the policy layer are small and shallow).
    changed = True
    while changed:
        changed = False
        stats.fixpoint_iterations += 1
        for rule, plan in plans:
            for theta in _enumerate(plan, index, {}, positives_only=True):
                stats.substitutions += 1
                if budget is not None:
                    budget.tick()
                heads: List[Atom] = []
                if isinstance(rule, NormalRule):
                    if rule.head is not None:
                        heads = [rule.head.substitute(theta)]
                elif isinstance(rule, ChoiceRule):
                    heads = [a.substitute(theta) for a in rule.elements]
                for head in heads:
                    evaluated = _evaluate_atom(head)
                    if evaluated is None:
                        continue
                    if index.add(evaluated):
                        changed = True
                        if len(index.atoms) > max_atoms:
                            raise GroundingError(
                                f"possible-atom set exceeded {max_atoms} atoms"
                            )

    # Phase 2: instantiation against the complete possible-atom set.
    normal_rules: List[NormalRule] = []
    choice_rules: List[ChoiceRule] = []
    weak_constraints: List[WeakConstraint] = []
    seen_normal: Set[NormalRule] = set()
    seen_choice: Set[ChoiceRule] = set()
    seen_weak: Set[WeakConstraint] = set()
    for rule, plan in plans:
        for theta in _enumerate(plan, index, {}, positives_only=False):
            stats.substitutions += 1
            if budget is not None:
                budget.tick()
            body: List[BodyElement] = []
            viable = True
            for elem in rule.body:
                if isinstance(elem, Comparison):
                    continue  # already checked during enumeration
                literal = elem.substitute(theta)
                atom = _evaluate_atom(literal.atom)
                if atom is None:
                    viable = False
                    break
                if literal.positive:
                    body.append(Literal(atom, True))
                else:
                    if atom in index:
                        body.append(Literal(atom, False))
                    # else: trivially true, drop
            if not viable:
                continue
            if isinstance(rule, NormalRule):
                head = None
                if rule.head is not None:
                    head = _evaluate_atom(rule.head.substitute(theta))
                    if head is None:
                        continue
                ground = NormalRule(head, body)
                if ground not in seen_normal:
                    seen_normal.add(ground)
                    normal_rules.append(ground)
            elif isinstance(rule, WeakConstraint):
                try:
                    weight = rule.weight.substitute(theta).evaluate()
                except GroundingError:
                    continue
                ground_weak = WeakConstraint(body, weight, rule.priority)
                if ground_weak not in seen_weak:
                    seen_weak.add(ground_weak)
                    weak_constraints.append(ground_weak)
            else:
                elements = []
                for atom in rule.elements:
                    evaluated = _evaluate_atom(atom.substitute(theta))
                    if evaluated is None:
                        break
                    elements.append(evaluated)
                else:
                    ground_choice = ChoiceRule(elements, body, rule.lower, rule.upper)
                    if ground_choice not in seen_choice:
                        seen_choice.add(ground_choice)
                        choice_rules.append(ground_choice)
    stats.atoms = len(index.atoms)
    stats.rules_grounded = len(normal_rules) + len(choice_rules) + len(weak_constraints)
    return GroundProgram(
        normal_rules, choice_rules, set(index.atoms), weak_constraints, stats=stats
    )
