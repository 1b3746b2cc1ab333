"""Static linter for ASP programs.

Runs entirely on parsed :class:`~repro.asp.rules.Program` values —
before grounding, solving, or learning — and reports
:class:`~repro.analysis.diagnostics.Diagnostic` findings with stable
codes and source spans:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
ASP001    error     unsafe rule (a variable cannot be bound); mirrors the
                    grounder's :class:`~repro.errors.UnsafeRuleError`
                    one-to-one via the shared binding schedule
ASP002    warning   unstratified program: negation inside a recursive
                    component (the solver keeps full stability checking)
ASP003    warning   predicate used in a body but never defined by any
                    head or fact (may legitimately come from a context
                    program at runtime — hence not an error)
ASP004    info      predicate defined but never used (modulo ``roots``,
                    the output predicates of the program)
ASP005    warning   predicate used with more than one arity
ASP006    warning   duplicate rule
ASP007    warning   trivially dead rule (body contains ``l`` and
                    ``not l``)
========  ========  =====================================================

The predicate-level stratification verdict is exposed via
:func:`stratification`, built on :mod:`repro.asp.graphs`, the same graph
code the solver uses for its ground-level tightness check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.asp.atoms import Atom
from repro.asp.grounder import binding_schedule
from repro.asp.rules import Program, Rule, body_literals, head_atoms
from repro.analysis.diagnostics import ERROR, INFO, WARNING, Diagnostic
from repro.asp.graphs import StratificationResult, check_stratification

__all__ = [
    "lint_program",
    "lint_rules",
    "stratification",
    "predicate_dependencies",
]


def predicate_dependencies(
    program: Program,
) -> Tuple[Set[str], List[Tuple[str, str]], List[Tuple[str, str]]]:
    """The predicate dependency graph ``(nodes, positive, negative)``.

    Edges run from a head predicate to each predicate its rule body
    depends on; constraints and weak constraints have no head and
    contribute no edges.
    """
    nodes: Set[str] = set()
    positive: List[Tuple[str, str]] = []
    negative: List[Tuple[str, str]] = []
    for rule in program:
        heads = head_atoms(rule)
        literals = body_literals(rule)
        for atom in heads:
            nodes.add(atom.predicate)
        for literal in literals:
            nodes.add(literal.atom.predicate)
        for head in heads:
            for literal in literals:
                edge = (head.predicate, literal.atom.predicate)
                (positive if literal.positive else negative).append(edge)
    return nodes, positive, negative


def stratification(program: Program) -> StratificationResult:
    """The predicate-level stratification/tightness verdict of a program."""
    nodes, positive, negative = predicate_dependencies(program)
    return check_stratification(nodes, positive, negative)


# ---------------------------------------------------------------------------
# Rule-local checks (shared with the ASG annotation linter)


def _check_unsafe(rule: Rule, source: Optional[str]) -> Optional[Diagnostic]:
    __, unbound = binding_schedule(rule)
    if not unbound:
        return None
    names = ", ".join(sorted(unbound))
    return Diagnostic(
        "ASP001",
        ERROR,
        f"unsafe rule: variable(s) {names} cannot be bound in {rule!r}",
        span=rule.span,
        source=source,
        hint="bind each variable in a positive body literal or an '=' assignment",
    )


def _check_dead(rule: Rule, source: Optional[str]) -> Optional[Diagnostic]:
    literals = body_literals(rule)
    positive = {lit.atom for lit in literals if lit.positive}
    for lit in literals:
        if not lit.positive and lit.atom in positive:
            return Diagnostic(
                "ASP007",
                WARNING,
                f"rule can never fire: body contains both "
                f"{lit.atom!r} and 'not {lit.atom!r}'",
                span=lit.atom.span or rule.span,
                source=source,
                hint="remove the rule or one of the contradictory literals",
            )
    return None


def lint_rules(
    program: Program, source: Optional[str] = None
) -> List[Diagnostic]:
    """The rule-local lints only: ASP001 (unsafe), ASP006 (duplicate),
    ASP007 (trivially dead).

    Used directly for production-local ASG annotation programs, where
    whole-program lints (definedness, stratification) would misfire —
    annotated atoms are defined by *other* productions' programs.
    """
    out: List[Diagnostic] = []
    seen: Dict[Rule, Rule] = {}
    for rule in program:
        unsafe = _check_unsafe(rule, source)
        if unsafe is not None:
            out.append(unsafe)
        dead = _check_dead(rule, source)
        if dead is not None:
            out.append(dead)
        if rule in seen:
            out.append(
                Diagnostic(
                    "ASP006",
                    WARNING,
                    f"duplicate rule: {rule!r}",
                    span=rule.span,
                    source=source,
                    hint="delete the repeated rule",
                )
            )
        else:
            seen[rule] = rule
    return out


# ---------------------------------------------------------------------------
# Whole-program checks


def _check_stratification(
    program: Program, source: Optional[str]
) -> List[Diagnostic]:
    result = stratification(program)
    if result.stratified:
        return []
    out: List[Diagnostic] = []
    reported: Set[Tuple[str, str]] = set()
    for head_pred, body_pred in result.offending_edges:
        if (head_pred, body_pred) in reported:
            continue
        reported.add((head_pred, body_pred))
        span = None
        for rule in program:
            if any(a.predicate == head_pred for a in head_atoms(rule)):
                for literal in body_literals(rule):
                    if not literal.positive and literal.atom.predicate == body_pred:
                        span = literal.atom.span or rule.span
                        break
            if span is not None:
                break
        out.append(
            Diagnostic(
                "ASP002",
                WARNING,
                f"program is unstratified: 'not {body_pred}' occurs inside a "
                f"recursive component containing '{head_pred}'",
                span=span,
                source=source,
                hint="break the negative cycle to enable the solver's "
                "stratified fast path",
            )
        )
    return out


def _check_definedness(
    program: Program, source: Optional[str], roots: Set[str]
) -> List[Diagnostic]:
    defined: Set[str] = set()
    used: Dict[str, Atom] = {}
    head_witness: Dict[str, Atom] = {}
    for rule in program:
        for atom in head_atoms(rule):
            defined.add(atom.predicate)
            head_witness.setdefault(atom.predicate, atom)
        for literal in body_literals(rule):
            used.setdefault(literal.atom.predicate, literal.atom)
    out: List[Diagnostic] = []
    for predicate in sorted(set(used) - defined):
        atom = used[predicate]
        out.append(
            Diagnostic(
                "ASP003",
                WARNING,
                f"predicate '{predicate}/{atom.arity}' is used but never "
                f"defined by any head or fact",
                span=atom.span,
                source=source,
                hint="add a defining rule/fact, or expect it from the "
                "context program",
            )
        )
    for predicate in sorted(defined - set(used) - roots):
        atom = head_witness[predicate]
        out.append(
            Diagnostic(
                "ASP004",
                INFO,
                f"predicate '{predicate}/{atom.arity}' is defined but never used",
                span=atom.span,
                source=source,
                hint="declare it a root/output predicate if it is the "
                "program's result",
            )
        )
    return out


def _check_arities(program: Program, source: Optional[str]) -> List[Diagnostic]:
    arities: Dict[str, Dict[int, Atom]] = {}
    for rule in program:
        atoms = head_atoms(rule) + [lit.atom for lit in body_literals(rule)]
        for atom in atoms:
            arities.setdefault(atom.predicate, {}).setdefault(atom.arity, atom)
    out: List[Diagnostic] = []
    for predicate in sorted(arities):
        seen = arities[predicate]
        if len(seen) < 2:
            continue
        ordered = sorted(seen)
        witness = seen[ordered[-1]]
        out.append(
            Diagnostic(
                "ASP005",
                WARNING,
                f"predicate '{predicate}' is used with multiple arities: "
                f"{', '.join(str(a) for a in ordered)}",
                span=witness.span,
                source=source,
                hint="atoms of different arity never unify; rename one of them",
            )
        )
    return out


def lint_program(
    program: Program,
    source: Optional[str] = None,
    roots: Iterable[str] = (),
) -> List[Diagnostic]:
    """Run every ASP lint over ``program``.

    ``source`` attributes the findings to a file or logical unit;
    ``roots`` names the output predicates exempt from the
    unused-predicate lint (ASP004) — the fragment has no ``#show``
    directive, so roots are declared by the caller.
    """
    root_set = set(roots)
    out = lint_rules(program, source)
    out.extend(_check_stratification(program, source))
    out.extend(_check_definedness(program, source, root_set))
    out.extend(_check_arities(program, source))
    return out
