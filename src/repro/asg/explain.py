"""Explainability at the policy-*generation* level (paper Section V.B).

The paper requires explanations "at two different levels: policy
learning, and policy enforcement".  Enforcement-level explanations live
in :mod:`repro.policy.explain`; this module covers the generation side:

* :func:`explain_rejection` — why is a policy string *not* in
  ``L(G(C))``?  For each parse tree, identify the learned/annotated
  constraints whose removal would make the tree's program satisfiable
  (the blocking conditions).
* :func:`context_counterfactuals` — under which *other* contexts would
  the string be valid?  ("You may not take the river route because it
  is night; by day the route would be permitted.")
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.asp.atoms import Atom
from repro.asp.rules import NormalRule, Program, Rule, fact
from repro.asp.solver import solve
from repro.asg.annotated import ASG
from repro.asg.semantics import accepts, reroot_rule
from repro.grammar.cfg import SymbolString
from repro.grammar.earley import parse_trees

__all__ = [
    "BlockingConstraint",
    "RejectionExplanation",
    "explain_rejection",
    "context_counterfactuals",
]


class BlockingConstraint(NamedTuple):
    """A constraint that blocks one parse tree of the rejected string."""

    rule_text: str
    production_id: int
    trace: Tuple[int, ...]


class RejectionExplanation:
    """Why a string is outside ``L(G(C))``."""

    def __init__(
        self,
        tokens: SymbolString,
        syntactic: bool,
        blockers_per_tree: List[List[BlockingConstraint]],
    ):
        self.tokens = tokens
        self.syntactic = syntactic
        self.blockers_per_tree = blockers_per_tree

    def text(self) -> str:
        string = " ".join(self.tokens)
        if self.syntactic:
            return f"{string!r} is not in the policy language (syntax)."
        lines = [f"{string!r} is syntactically valid but semantically rejected:"]
        for index, blockers in enumerate(self.blockers_per_tree):
            if len(self.blockers_per_tree) > 1:
                lines.append(f"  parse {index + 1}:")
            if not blockers:
                lines.append(
                    "    rejected by an interaction of conditions "
                    "(no single constraint is responsible)"
                )
            for blocker in blockers:
                lines.append(
                    f"    {blocker.rule_text} (production {blocker.production_id})"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        total = sum(len(b) for b in self.blockers_per_tree)
        return f"RejectionExplanation({' '.join(self.tokens)!r}, {total} blockers)"


def _is_constraint(rule: Rule) -> bool:
    return isinstance(rule, NormalRule) and rule.head is None


def explain_rejection(
    asg: ASG,
    tokens: Sequence[str],
    context: Optional[Program] = None,
    max_trees: int = 16,
) -> Optional[RejectionExplanation]:
    """Explain why ``tokens ∉ L(G(C))``; None if it is actually valid.

    For each parse tree, each *constraint* in the induced program is
    tested individually: dropping it and checking satisfiability.  A
    constraint whose removal (alone) restores an answer set is a
    blocker.  Non-constraint causes (e.g. odd loops) yield an empty
    blocker list for that tree.
    """
    grammar = asg if context is None else asg.with_context(context)
    tokens = tuple(tokens)
    trees = parse_trees(grammar.cfg, tokens, max_trees=max_trees)
    if not trees:
        return RejectionExplanation(tokens, syntactic=True, blockers_per_tree=[])
    blockers_per_tree: List[List[BlockingConstraint]] = []
    any_satisfiable = False
    for tree in trees:
        # Build the program with provenance: (rule, prod_id, trace).
        pieces: List[Tuple[Rule, int, Tuple[int, ...]]] = []
        for node, trace in tree.interior_nodes():
            assert node.production is not None
            for rule in grammar.annotation(node.production.prod_id):
                pieces.append(
                    (reroot_rule(rule, trace), node.production.prod_id, trace)
                )
        program = Program([piece[0] for piece in pieces])
        if solve(program, max_models=1):
            any_satisfiable = True
            break
        blockers: List[BlockingConstraint] = []
        for index, (rule, prod_id, trace) in enumerate(pieces):
            if not _is_constraint(rule):
                continue
            reduced = Program(
                [p[0] for j, p in enumerate(pieces) if j != index]
            )
            if solve(reduced, max_models=1):
                blockers.append(BlockingConstraint(repr(rule), prod_id, trace))
        blockers_per_tree.append(blockers)
    if any_satisfiable:
        return None
    return RejectionExplanation(tokens, syntactic=False, blockers_per_tree=blockers_per_tree)


def context_counterfactuals(
    asg: ASG,
    tokens: Sequence[str],
    context_atoms: Iterable[Atom],
    current: Optional[Program] = None,
    max_changes: int = 2,
    max_results: int = 5,
) -> List[Tuple[frozenset, bool]]:
    """Context flips that change the string's validity.

    ``context_atoms`` is the universe of boolean context facts to toggle.
    Returns up to ``max_results`` minimal fact-sets (as frozensets of
    atoms *present*) whose adoption flips validity, each with the new
    validity value — the generation-level analogue of the paper's
    counterfactual explanations.
    """
    atoms = list(context_atoms)
    current_facts = frozenset(current.facts()) if current is not None else frozenset()
    base_context = Program([fact(a) for a in sorted(current_facts, key=repr)])
    originally_valid = accepts(asg.with_context(base_context), tuple(tokens))

    results: List[Tuple[frozenset, bool]] = []
    seen_supersets: List[frozenset] = []
    for size in range(1, max_changes + 1):
        for combo in itertools.combinations(atoms, size):
            flipped = set(current_facts)
            for atom in combo:
                if atom in flipped:
                    flipped.discard(atom)
                else:
                    flipped.add(atom)
            flip_key = frozenset(combo)
            if any(prev <= flip_key for prev in seen_supersets):
                continue
            program = Program([fact(a) for a in sorted(flipped, key=repr)])
            valid = accepts(asg.with_context(program), tuple(tokens))
            if valid != originally_valid:
                results.append((frozenset(flipped), valid))
                seen_supersets.append(flip_key)
                if len(results) >= max_results:
                    return results
    return results
