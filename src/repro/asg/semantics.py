"""Answer Set Grammar semantics: ``G[PT]`` and language membership.

Paper Section II.A: for an ASG ``G`` and parse tree ``PT``,

    ``G[PT] = { rule(n)@trace(n) | n in PT }``

where for a production annotated with program ``P`` at a node with trace
``t``, ``P@t`` replaces every annotated atom ``a@i`` with ``a@(t ++ [i])``
and every unannotated atom ``a`` with ``a@t``.  A string ``s`` is in
``L(G)`` iff some parse tree's program has at least one answer set.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asp.rules import ChoiceRule, NormalRule, Program, Rule
from repro.asp.solver import AnswerSet, solve
from repro.asg.annotated import ASG
from repro.grammar.cfg import SymbolString
from repro.grammar.earley import parse_trees
from repro.grammar.parse_tree import ParseTree, Trace
from repro.telemetry import span as _tele_span

__all__ = [
    "reroot_rule",
    "tree_program",
    "accepts",
    "accepting_witness",
    "tree_answer_sets",
]


def _reroot_atom(atom: Atom, trace: Trace) -> Atom:
    if atom.annotation is None:
        return atom.with_annotation(trace)
    return atom.with_annotation(trace + atom.annotation)


def reroot_rule(rule: Rule, trace: Trace) -> Rule:
    """``P@t``: prefix every annotation in ``rule`` with ``trace``;
    unannotated atoms get annotation ``trace`` itself."""

    def reroot_body(body) -> List:
        out = []
        for elem in body:
            if isinstance(elem, Literal):
                out.append(Literal(_reroot_atom(elem.atom, trace), elem.positive))
            else:  # Comparison: term-level, no atoms to annotate
                out.append(elem)
        return out

    if isinstance(rule, NormalRule):
        head = _reroot_atom(rule.head, trace) if rule.head is not None else None
        return NormalRule(head, reroot_body(rule.body))
    return ChoiceRule(
        [_reroot_atom(a, trace) for a in rule.elements],
        reroot_body(rule.body),
        rule.lower,
        rule.upper,
    )


def tree_program(asg: ASG, tree: ParseTree) -> Program:
    """Build ``G[PT]`` for a parse tree of the underlying CFG."""
    program = Program()
    for node, trace in tree.interior_nodes():
        assert node.production is not None
        annotation = asg.annotation(node.production.prod_id)
        for rule in annotation:
            program.add(reroot_rule(rule, trace))
    return program


def tree_answer_sets(
    asg: ASG,
    tree: ParseTree,
    max_models: Optional[int] = None,
) -> List[AnswerSet]:
    """Answer sets of ``G[PT]`` for one parse tree."""
    return solve(tree_program(asg, tree), max_models=max_models)


def accepts(
    asg: ASG,
    tokens: SymbolString,
    max_trees: int = 256,
) -> bool:
    """Membership: is ``tokens`` in ``L(G)``?

    True iff some parse tree of the underlying CFG induces a satisfiable
    program.  A string outside the CFG language is trivially rejected.
    The ambient budget bounds parsing and every per-tree solve —
    membership is the hot path of PCP validation, so one budget covers
    the whole check.
    """
    return accepting_witness(asg, tokens, max_trees=max_trees) is not None


def accepting_witness(
    asg: ASG,
    tokens: SymbolString,
    max_trees: int = 256,
) -> Optional[Tuple[ParseTree, AnswerSet]]:
    """Return a witness ``(parse tree, answer set)`` for membership, or None.

    The witness is the raw material for *explaining* why a policy string
    is valid (paper Section V.B): the tree shows the syntactic derivation
    and the answer set shows which semantic conditions held.  Under an
    ambient tracer an ``asg.membership`` span records how many candidate
    trees were solver-checked and whether one accepted.
    """
    with _tele_span("asg.membership") as sp:
        trees_tried = 0
        for tree in parse_trees(asg.cfg, tuple(tokens), max_trees=max_trees):
            trees_tried += 1
            models = tree_answer_sets(asg, tree, max_models=1)
            if models:
                sp.incr("asg.trees_tried", trees_tried)
                sp.incr("asg.accepted")
                return tree, models[0]
        sp.incr("asg.trees_tried", trees_tried)
        sp.incr("asg.rejected")
        return None
