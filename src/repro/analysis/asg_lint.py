"""Static linter for Answer Set Grammars.

Combines the grammar lints (GRM*) over the underlying CFG, the
rule-local ASP lints (ASP001/ASP006/ASP007) over every production's
annotation program, and the ASG-specific annotation lints:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
ASG001    error     annotation references a child index out of range
                    (Definition 1: annotations must be ``@i`` with
                    ``1 <= i <= k`` for a production of rhs length k)
ASG002    warning   annotation ``p@i`` references child ``i`` but no
                    production of that child defines predicate ``p``
                    (a terminal child defines nothing)
========  ========  =====================================================

Findings inside a production's annotation program are attributed to the
logical source ``production <id> (<lhs> -> <rhs>)``, suffixed onto any
file-level ``source`` the caller supplies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.asg.annotated import ASG, annotation_violations
from repro.asp.rules import body_literals, head_atoms
from repro.analysis.asp_lint import lint_rules
from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.analysis.grammar_lint import lint_cfg

__all__ = ["lint_asg"]


def _production_source(asg: ASG, prod_id: int, source: Optional[str]) -> str:
    label = f"production {prod_id} ({asg.cfg.production(prod_id)!r})"
    return f"{source}: {label}" if source else label


def _defined_by_nonterminal(asg: ASG) -> Dict[str, Set[str]]:
    """Predicates each nonterminal's productions define (heads + facts)."""
    defined: Dict[str, Set[str]] = {nt: set() for nt in asg.cfg.nonterminals}
    for prod in asg.cfg.productions:
        predicates = defined.setdefault(prod.lhs, set())
        for rule in asg.annotation(prod.prod_id):
            for atom in head_atoms(rule):
                predicates.add(atom.predicate)
    return defined


def lint_asg(asg: ASG, source: Optional[str] = None) -> List[Diagnostic]:
    """Run grammar, annotation-program, and annotation-reference lints."""
    out = lint_cfg(asg.cfg, source=source)
    defined = _defined_by_nonterminal(asg)

    for prod in asg.cfg.productions:
        program = asg.annotation(prod.prod_id)
        if not len(program):
            continue
        prod_source = _production_source(asg, prod.prod_id, source)
        out.extend(lint_rules(program, source=prod_source))

        arity = len(prod.rhs)
        for rule, atom in annotation_violations(prod, program):
            out.append(
                Diagnostic(
                    "ASG001",
                    ERROR,
                    f"annotation {atom.annotation} on {atom.predicate!r} is "
                    f"out of range 1..{arity} in rule {rule!r}",
                    span=atom.span or rule.span,
                    source=prod_source,
                    hint="annotations must name a child position of this "
                    "production's right-hand side",
                )
            )

        # Annotated body atoms must be derivable by the referenced child.
        for rule in program:
            for literal in body_literals(rule):
                atom = literal.atom
                trace = atom.annotation
                if trace is None or len(trace) != 1:
                    continue
                child = trace[0]
                if not (1 <= child <= arity):
                    continue  # already an ASG001
                symbol = prod.rhs[child - 1]
                if symbol in asg.cfg.terminals:
                    out.append(
                        Diagnostic(
                            "ASG002",
                            WARNING,
                            f"annotation '{atom.predicate}@{child}' references "
                            f"terminal child {child} ('{symbol}'), which "
                            f"defines no predicates",
                            span=atom.span or rule.span,
                            source=prod_source,
                            hint="point the annotation at a nonterminal child",
                        )
                    )
                elif atom.predicate not in defined.get(symbol, set()):
                    out.append(
                        Diagnostic(
                            "ASG002",
                            WARNING,
                            f"annotation '{atom.predicate}@{child}' references "
                            f"child {child} ('{symbol}'), but no production of "
                            f"'{symbol}' defines predicate '{atom.predicate}'",
                            span=atom.span or rule.span,
                            source=prod_source,
                            hint=f"define '{atom.predicate}' in an annotation "
                            f"of a '{symbol}' production",
                        )
                    )
    return out
