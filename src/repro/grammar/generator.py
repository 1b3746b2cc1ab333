"""Language enumeration: generate strings and parse trees of a CFG.

The generative-policy setting needs to *enumerate* the policies a
grammar admits (the PReP "generates the policies for the AMS", paper
Section III.A).  Strings are enumerated by breadth-first search over
*sentential forms* (leftmost expansion) with visited-state
deduplication, which keeps even nullable cyclic grammars
(``s -> s s | eps``) finite; parse trees are recovered per string with
the Earley extractor.

Bounds: ``max_length`` on the yielded string length, ``max_form_slack``
on how much longer than ``max_length`` an intermediate sentential form
may grow (derivations that must pass through longer forms are missed —
irrelevant for policy grammars, documented for completeness), and
``max_steps`` on total expansion work.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Set, Tuple

from repro.errors import GrammarError
from repro.grammar.cfg import CFG, Symbol, SymbolString
from repro.grammar.earley import parse_trees
from repro.grammar.parse_tree import ParseTree

__all__ = ["generate_trees", "generate_strings"]


def _min_lengths(grammar: CFG) -> dict:
    """Minimum terminal-yield length per nonterminal (infinity if none)."""
    inf = float("inf")
    min_len = {nt: inf for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for prod in grammar.productions:
            total = 0
            for sym in prod.rhs:
                total += 1 if sym in grammar.terminals else min_len[sym]
            if total < min_len[prod.lhs]:
                min_len[prod.lhs] = total
                changed = True
    return min_len


def generate_strings(
    grammar: CFG,
    max_length: int = 12,
    max_strings: int = 10_000,
    max_steps: int = 1_000_000,
    max_form_slack: int = 8,
) -> Iterator[SymbolString]:
    """Yield distinct strings of the CFG language, shortest-form first."""
    min_len = _min_lengths(grammar)

    def min_yield(form: Tuple[Symbol, ...]) -> float:
        total = 0.0
        for sym in form:
            total += 1 if sym in grammar.terminals else min_len[sym]
        return total

    start_form = (grammar.start,)
    if min_yield(start_form) > max_length:
        return
    form_cap = max_length + max_form_slack
    queue: deque = deque([start_form])
    visited: Set[Tuple[Symbol, ...]] = {start_form}
    yielded: Set[SymbolString] = set()
    steps = 0
    while queue:
        steps += 1
        if steps > max_steps:
            raise GrammarError(f"generation exceeded {max_steps} expansion steps")
        form = queue.popleft()
        expand_at = None
        for index, sym in enumerate(form):
            if sym in grammar.nonterminals:
                expand_at = index
                break
        if expand_at is None:
            if len(form) <= max_length and form not in yielded:
                yielded.add(form)
                yield form
                if len(yielded) >= max_strings:
                    return
            continue
        head = form[:expand_at]
        tail = form[expand_at + 1 :]
        for prod in grammar.productions_for(form[expand_at]):
            new_form = head + prod.rhs + tail
            if len(new_form) > form_cap:
                continue
            if min_yield(new_form) > max_length:
                continue
            if new_form not in visited:
                visited.add(new_form)
                queue.append(new_form)


def generate_trees(
    grammar: CFG,
    max_length: int = 12,
    max_trees: int = 10_000,
    max_steps: int = 1_000_000,
    max_trees_per_string: int = 64,
) -> Iterator[ParseTree]:
    """Yield parse trees of the language, grouped by string, shortest first.

    For each generated string, up to ``max_trees_per_string`` distinct
    parse trees are produced (ambiguous grammars have several; the ASG
    layer needs them all because any one may carry the satisfiable
    annotation program).
    """
    produced = 0
    for string in generate_strings(
        grammar, max_length=max_length, max_strings=max_trees, max_steps=max_steps
    ):
        for tree in parse_trees(grammar, string, max_trees=max_trees_per_string):
            yield tree
            produced += 1
            if produced >= max_trees:
                return
