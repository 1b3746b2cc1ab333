"""Context-free grammars.

A CFG is a tuple ``(N, T, PR, S)`` (paper Section II.A): nonterminal
symbols, terminal symbols, production rules ``n0 -> n1 ... nk``, and a
start symbol.  Symbols are plain strings; terminals and nonterminals are
distinguished by membership in the grammar's symbol sets, and in the
text format (:mod:`repro.grammar.cfg_parser`) terminals are quoted.

Strings of the language are tuples of terminal symbols (tokens), e.g.
``("allow", "alice", "read")``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import GrammarError

__all__ = ["Production", "CFG"]

Symbol = str
SymbolString = Tuple[Symbol, ...]


class Production:
    """A production rule ``lhs -> rhs`` with a stable integer id.

    Ids are assigned by the owning :class:`CFG` and are what the ASG
    hypothesis space uses to say *which* production a learned rule may be
    attached to (paper Definition 3).
    """

    __slots__ = ("lhs", "rhs", "prod_id")

    def __init__(self, lhs: Symbol, rhs: Sequence[Symbol], prod_id: int = -1):
        self.lhs = lhs
        self.rhs: SymbolString = tuple(rhs)
        self.prod_id = prod_id

    def __repr__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else "eps"
        return f"{self.lhs} -> {rhs}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Production)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))


class CFG:
    """A context-free grammar ``(nonterminals, terminals, productions, start)``.

    ``strict`` (the default) preserves the historical construction-time
    validation: nonterminals without productions raise
    :class:`~repro.errors.GrammarError`.  With ``strict=False``
    construction always succeeds and such defects are left to the static
    analyzer (:func:`repro.analysis.lint_cfg`), which reports them as
    diagnostics with stable codes instead of hard failures.
    """

    def __init__(
        self,
        nonterminals: Iterable[Symbol],
        terminals: Iterable[Symbol],
        productions: Iterable[Production],
        start: Symbol,
        strict: bool = True,
    ):
        self.nonterminals: FrozenSet[Symbol] = frozenset(nonterminals)
        self.terminals: FrozenSet[Symbol] = frozenset(terminals)
        if self.nonterminals & self.terminals:
            overlap = sorted(self.nonterminals & self.terminals)
            raise GrammarError(f"symbols are both terminal and nonterminal: {overlap}")
        if start not in self.nonterminals:
            raise GrammarError(f"start symbol {start!r} is not a nonterminal")
        self.start = start
        self.productions: List[Production] = []
        self._by_lhs: Dict[Symbol, List[Production]] = {}
        for prod in productions:
            self._add(prod)
        for nt in self.nonterminals:
            self._by_lhs.setdefault(nt, [])
        if strict:
            self._validate()

    def _add(self, prod: Production) -> None:
        if prod.lhs not in self.nonterminals:
            raise GrammarError(f"production lhs {prod.lhs!r} is not a nonterminal")
        for sym in prod.rhs:
            if sym not in self.nonterminals and sym not in self.terminals:
                raise GrammarError(f"unknown symbol {sym!r} in production {prod!r}")
        registered = Production(prod.lhs, prod.rhs, len(self.productions))
        self.productions.append(registered)
        self._by_lhs.setdefault(prod.lhs, []).append(registered)

    def _validate(self) -> None:
        unproductive = [
            nt for nt in sorted(self.nonterminals) if not self._by_lhs.get(nt)
        ]
        if unproductive:
            raise GrammarError(f"nonterminals without productions: {unproductive}")

    def productions_for(self, nonterminal: Symbol) -> List[Production]:
        """All productions whose left-hand side is ``nonterminal``."""
        return self._by_lhs.get(nonterminal, [])

    def production(self, prod_id: int) -> Production:
        return self.productions[prod_id]

    def is_terminal(self, symbol: Symbol) -> bool:
        return symbol in self.terminals

    def reachable_set(self) -> Set[Symbol]:
        """Symbols reachable from the start symbol (terminals included)."""
        reachable: Set[Symbol] = {self.start}
        frontier = [self.start]
        while frontier:
            symbol = frontier.pop()
            for prod in self._by_lhs.get(symbol, ()):
                for sym in prod.rhs:
                    if sym not in reachable:
                        reachable.add(sym)
                        if sym in self.nonterminals:
                            frontier.append(sym)
        return reachable

    def generating_set(self) -> Set[Symbol]:
        """Nonterminals that derive at least one terminal string.

        A nonterminal outside this set is *unproductive*: it has no
        productions at all, or every production loops through another
        unproductive nonterminal.
        """
        generating: Set[Symbol] = set()
        changed = True
        while changed:
            changed = False
            for prod in self.productions:
                if prod.lhs in generating:
                    continue
                if all(
                    sym in self.terminals or sym in generating for sym in prod.rhs
                ):
                    generating.add(prod.lhs)
                    changed = True
        return generating

    def nullable_set(self) -> Set[Symbol]:
        """Nonterminals that derive the empty string."""
        nullable: Set[Symbol] = set()
        changed = True
        while changed:
            changed = False
            for prod in self.productions:
                if prod.lhs in nullable:
                    continue
                if all(sym in nullable for sym in prod.rhs):
                    nullable.add(prod.lhs)
                    changed = True
        return nullable

    def tokenize(self, text: str) -> SymbolString:
        """Split whitespace-separated source text into a token string,
        checking every token is a terminal of this grammar."""
        tokens = tuple(text.split())
        for token in tokens:
            if token not in self.terminals:
                raise GrammarError(f"token {token!r} is not a terminal of this grammar")
        return tokens

    def __repr__(self) -> str:
        lines = [f"start: {self.start}"]
        lines += [f"  [{p.prod_id}] {p!r}" for p in self.productions]
        return "\n".join(lines)
