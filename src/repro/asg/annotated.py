"""Answer Set Grammars (paper Section II.A, Definitions 1 and 2).

An *annotated production rule* is a CFG production ``n0 -> n1 ... nk``
together with an annotated ASP program ``P`` whose atom annotations are
integers between 1 and k, referring to the production's children.  An
ASG is a CFG whose productions are annotated.

This module holds the data model; the language semantics (``G[PT]``,
membership, ``G(C)``) lives in :mod:`repro.asg.semantics`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.asp.rules import Program, Rule
from repro.errors import GrammarError
from repro.grammar.cfg import CFG, Production

__all__ = ["ASG", "annotation_violations", "validate_annotation"]


def annotation_violations(production: Production, program: Program) -> List[tuple]:
    """The Definition-1 violations of a production-local program.

    Returns ``(rule, atom)`` pairs whose annotation is not a singleton
    ``(i,)`` with ``1 <= i <= k`` (``k`` the production's rhs length).
    Shared by :func:`validate_annotation` (which raises on the first)
    and the static ASG linter (which reports all as diagnostics).
    """
    arity = len(production.rhs)
    violations: List[tuple] = []
    for rule in program:
        atoms = []
        if hasattr(rule, "head") and rule.head is not None:
            atoms.append(rule.head)
        if hasattr(rule, "elements"):
            atoms.extend(rule.elements)
        for elem in rule.body:
            atom = getattr(elem, "atom", None)
            if atom is not None:
                atoms.append(atom)
        for atom in atoms:
            if atom.annotation is None:
                continue
            if len(atom.annotation) != 1 or not (1 <= atom.annotation[0] <= arity):
                violations.append((rule, atom))
    return violations


def validate_annotation(production: Production, program: Program) -> None:
    """Check Definition 1: every annotation is an integer in ``1..k``.

    (Our atoms carry trace-tuple annotations; in a production-local
    program each must be a singleton ``(i,)`` with ``1 <= i <= k``.)
    """
    violations = annotation_violations(production, program)
    if violations:
        rule, atom = violations[0]
        arity = len(production.rhs)
        raise GrammarError(
            f"annotation {atom.annotation} out of range 1..{arity} "
            f"in rule {rule!r} of production {production!r}"
        )


class ASG:
    """An Answer Set Grammar: a CFG plus per-production ASP annotations.

    ``annotations`` maps production ids (as assigned by the CFG) to ASP
    programs; productions without an entry have the empty annotation.

    ``strict`` (the default) validates every annotation program against
    Definition 1 at construction time; ``strict=False`` defers that to
    the static analyzer (:func:`repro.analysis.lint_asg`), which reports
    violations as diagnostics instead of raising.
    """

    def __init__(
        self,
        cfg: CFG,
        annotations: Optional[Mapping[int, Program]] = None,
        strict: bool = True,
    ):
        self.cfg = cfg
        self.strict = strict
        self.annotations: Dict[int, Program] = {}
        if annotations:
            for prod_id, program in annotations.items():
                if not (0 <= prod_id < len(cfg.productions)):
                    raise GrammarError(f"no production with id {prod_id}")
                if strict:
                    validate_annotation(cfg.production(prod_id), program)
                self.annotations[prod_id] = Program(list(program))

    # -- accessors -----------------------------------------------------------

    @property
    def start(self) -> str:
        return self.cfg.start

    def annotation(self, prod_id: int) -> Program:
        """The ASP program annotating production ``prod_id`` (possibly empty)."""
        return self.annotations.get(prod_id, Program())

    def underlying_cfg(self) -> CFG:
        """``G_CF`` — the CFG obtained by stripping all annotations."""
        return self.cfg

    # -- construction of derived grammars (paper Sections II.B, III.A) --------

    def with_rules(self, additions: Iterable[Tuple[Rule, int]]) -> "ASG":
        """``G : H`` — add each hypothesis rule to its production's annotation.

        ``additions`` is an iterable of ``(rule, production_id)`` pairs,
        matching the hypothesis representation of Definition 3.
        """
        annotations = {pid: Program(list(prog)) for pid, prog in self.annotations.items()}
        for rule, prod_id in additions:
            if not (0 <= prod_id < len(self.cfg.productions)):
                raise GrammarError(f"no production with id {prod_id}")
            program = annotations.setdefault(prod_id, Program())
            program.add(rule)
        result = ASG(self.cfg, strict=self.strict)
        for prod_id, program in annotations.items():
            if self.strict:
                validate_annotation(self.cfg.production(prod_id), program)
            result.annotations[prod_id] = program
        return result

    def with_context(self, context: Program, where: str = "all") -> "ASG":
        """``G(C)`` — add the context program to production annotations.

        ``where='all'`` follows Definition 3 literally (add ``C`` to
        every production's annotation, so any semantic rule can reference
        context atoms unannotated); ``where='start'`` adds it only to the
        start node's productions, as described in Section III.A.
        """
        if where not in ("all", "start"):
            raise ValueError("where must be 'all' or 'start'")
        if where == "all":
            targets = [p.prod_id for p in self.cfg.productions]
        else:
            targets = [p.prod_id for p in self.cfg.productions_for(self.cfg.start)]
        additions = [(rule, pid) for pid in targets for rule in context]
        return self.with_rules(additions)

    def __repr__(self) -> str:
        lines = [f"start: {self.cfg.start}"]
        for prod in self.cfg.productions:
            lines.append(f"  [{prod.prod_id}] {prod!r}")
            for rule in self.annotation(prod.prod_id):
                lines.append(f"        {rule!r}")
        return "\n".join(lines)
