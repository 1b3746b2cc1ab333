"""Dependency-graph algorithms shared by the linters and the solver.

Pure, self-contained graph machinery over hashable nodes: an iterative
Tarjan SCC decomposition, a stratification check (a program is
*stratified* iff no negative dependency edge lies inside a strongly
connected component of its full dependency graph), and a positive-cycle
(tightness) check.  The ASP linter runs these at the predicate level for
diagnostics; :class:`~repro.asp.solver.AnswerSetSolver` runs the
tightness check at the ground-atom level to decide whether the
Gelfond–Lifschitz stability check can be skipped.

This module imports nothing from the rest of the package, so every layer
above ``repro.asp`` can use it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

__all__ = ["tarjan_scc", "has_cycle", "StratificationResult", "check_stratification"]

Node = Hashable
Edge = Tuple[Node, Node]


def tarjan_scc(
    nodes: Iterable[Node], successors: Mapping[Node, Iterable[Node]]
) -> List[List[Node]]:
    """Strongly connected components in reverse topological order.

    Iterative Tarjan (explicit stack), so deep positive chains — e.g.
    the ground dependency graph of a long transitive closure — do not
    hit the recursion limit.
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # (node, iterator over successors) work stack
        work: List[Tuple[Node, Iterable[Node]]] = [(root, iter(successors.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def has_cycle(nodes: Iterable[Node], successors: Mapping[Node, Iterable[Node]]) -> bool:
    """True iff the directed graph has a cycle (including self-loops)."""
    for component in tarjan_scc(nodes, successors):
        if len(component) > 1:
            return True
        node = component[0]
        if node in set(successors.get(node, ())):
            return True
    return False


class StratificationResult:
    """The verdict of a stratification check.

    * ``stratified`` — no negative edge inside any SCC;
    * ``sccs`` — the strongly connected components (reverse topological);
    * ``offending_edges`` — negative edges ``(from, to)`` whose endpoints
      share an SCC (empty iff stratified);
    * ``tight`` — the positive subgraph is acyclic.  For tight programs
      supported models coincide with stable models (Fages' theorem),
      which is what licenses the solver's stability-check skip.
    """

    __slots__ = ("stratified", "sccs", "offending_edges", "tight")

    def __init__(
        self,
        stratified: bool,
        sccs: List[List[Node]],
        offending_edges: List[Edge],
        tight: bool,
    ):
        self.stratified = stratified
        self.sccs = sccs
        self.offending_edges = offending_edges
        self.tight = tight

    def __repr__(self) -> str:
        return (
            f"StratificationResult(stratified={self.stratified}, "
            f"tight={self.tight}, sccs={len(self.sccs)})"
        )


def check_stratification(
    nodes: Iterable[Node],
    positive_edges: Sequence[Edge],
    negative_edges: Sequence[Edge],
) -> StratificationResult:
    """Analyze a dependency graph with positive and negative edges.

    Edges run from the depending node (rule head) to the node depended
    on (body atom/predicate).  The program is stratified iff no negative
    edge has both endpoints in one SCC of the combined graph, and tight
    iff the positive-edge subgraph is acyclic.
    """
    node_list = list(nodes)
    node_set = set(node_list)
    combined: Dict[Node, List[Node]] = {}
    positive_only: Dict[Node, List[Node]] = {}
    for src, dst in positive_edges:
        node_set.add(src)
        node_set.add(dst)
        combined.setdefault(src, []).append(dst)
        positive_only.setdefault(src, []).append(dst)
    for src, dst in negative_edges:
        node_set.add(src)
        node_set.add(dst)
        combined.setdefault(src, []).append(dst)
    all_nodes = list(node_set)

    sccs = tarjan_scc(all_nodes, combined)
    component_of: Dict[Node, int] = {}
    for i, component in enumerate(sccs):
        for member in component:
            component_of[member] = i

    offending = [
        (src, dst)
        for src, dst in negative_edges
        if component_of.get(src) == component_of.get(dst)
    ]
    tight = not has_cycle(all_nodes, positive_only)
    return StratificationResult(not offending, sccs, offending, tight)
