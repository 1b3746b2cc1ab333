"""Text format for context-free grammars.

One rule per line; alternatives with ``|``; terminals quoted; the first
rule's left-hand side is the start symbol; ``#`` starts a comment;
``eps`` denotes the empty right-hand side:

.. code-block:: none

    policy  -> "allow" subject action | "deny" subject action
    subject -> "alice" | "bob"
    action  -> "read" | "write"

Continuation lines starting with ``|`` extend the previous rule.
"""

from __future__ import annotations

import re
from typing import List, Set, Tuple

from repro.errors import GrammarSyntaxError
from repro.grammar.cfg import CFG, Production

__all__ = ["parse_cfg"]

_TOKEN_RE = re.compile(r'"([^"]*)"|([A-Za-z_][A-Za-z0-9_]*)')
_ARROW_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:->|::=)\s*(.*)$")


def _parse_rhs(text: str, line_no: int) -> List[Tuple[str, bool]]:
    """Parse one alternative into (symbol, is_terminal) pairs."""
    symbols: List[Tuple[str, bool]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise GrammarSyntaxError(
                f"line {line_no}: cannot parse RHS near {text[pos:pos + 20]!r}"
            )
        if match.group(1) is not None:
            symbols.append((match.group(1), True))
        else:
            symbols.append((match.group(2), False))
        pos = match.end()
    return symbols


def parse_cfg(text: str, strict: bool = True) -> CFG:
    """Parse grammar source text into a :class:`CFG`.

    ``strict=False`` defers structural defects (nonterminals without
    productions) to the static analyzer instead of raising.
    """
    raw_rules: List[Tuple[str, List[List[Tuple[str, bool]]]]] = []
    current_lhs = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("|"):
            if current_lhs is None:
                raise GrammarSyntaxError(f"line {line_no}: continuation without a rule")
            alternatives = stripped[1:]
            lhs = current_lhs
        else:
            match = _ARROW_RE.match(line)
            if match is None:
                raise GrammarSyntaxError(
                    f"line {line_no}: expected 'lhs -> rhs', got {stripped!r}"
                )
            lhs = match.group(1)
            alternatives = match.group(2)
            current_lhs = lhs
        for alt in alternatives.split("|"):
            alt = alt.strip()
            if alt in ("eps", "epsilon", ""):
                rhs: List[Tuple[str, bool]] = []
            else:
                rhs = _parse_rhs(alt, line_no)
            raw_rules.append((lhs, [rhs]))

    if not raw_rules:
        raise GrammarSyntaxError("empty grammar")

    nonterminals: Set[str] = {lhs for lhs, __ in raw_rules}
    terminals: Set[str] = set()
    productions: List[Production] = []
    for lhs, alternatives in raw_rules:
        for rhs in alternatives:
            symbols = []
            for name, is_terminal in rhs:
                if is_terminal:
                    terminals.add(name)
                elif name not in nonterminals:
                    raise GrammarSyntaxError(
                        f"nonterminal {name!r} used but never defined "
                        f"(quote it if it is a terminal)"
                    )
                symbols.append(name)
            productions.append(Production(lhs, symbols))
    start = raw_rules[0][0]
    return CFG(nonterminals, terminals, productions, start, strict=strict)
