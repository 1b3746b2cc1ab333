"""CASWiki: community-based sharing of policies (paper refs [16], Section III.A.3).

Agents "contribute policies to a shared knowledge base.  Policies shared
by different agents implicitly contain knowledge learned from the
application of policies in different contexts."  This module implements
the shared repository with per-agent trust scores: retrieval filters by
minimum trust, and consumers rate contributions, updating trust
(a small exponential moving average — coalition trust is never absolute).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.agenp.repositories import StoredPolicy
from repro.errors import AgenpError
from repro.grammar.cfg import SymbolString

__all__ = ["Contribution", "CASWiki"]


class Contribution:
    """A shared policy with provenance."""

    __slots__ = ("agent", "policy", "context_name", "ratings")

    def __init__(self, agent: str, policy: StoredPolicy, context_name: str):
        self.agent = agent
        self.policy = policy
        self.context_name = context_name
        self.ratings: List[bool] = []

    def __repr__(self) -> str:
        return f"Contribution({self.agent!r}: {self.policy.text!r} @ {self.context_name!r})"


class CASWiki:
    """The shared knowledge base of community policies."""

    def __init__(self, initial_trust: float = 0.5, trust_alpha: float = 0.25):
        self._contributions: List[Contribution] = []
        self._trust: Dict[str, float] = {}
        self.initial_trust = initial_trust
        self.trust_alpha = trust_alpha

    # -- contributing -------------------------------------------------------

    def contribute(
        self,
        agent: str,
        tokens: SymbolString,
        context_name: str = "",
    ) -> Contribution:
        policy = StoredPolicy(tokens, context_name, source=f"shared:{agent}")
        contribution = Contribution(agent, policy, context_name)
        self._contributions.append(contribution)
        self._trust.setdefault(agent, self.initial_trust)
        return contribution

    # -- retrieving ------------------------------------------------------------

    def trust(self, agent: str) -> float:
        return self._trust.get(agent, self.initial_trust)

    def retrieve(
        self,
        context_name: Optional[str] = None,
        min_trust: float = 0.0,
        exclude_agent: str = "",
    ) -> List[Contribution]:
        """Contributions for a context (or all), from trusted-enough agents."""
        out = []
        for contribution in self._contributions:
            if exclude_agent and contribution.agent == exclude_agent:
                continue
            if context_name is not None and contribution.context_name != context_name:
                continue
            if self.trust(contribution.agent) < min_trust:
                continue
            out.append(contribution)
        return out

    # -- trust feedback -----------------------------------------------------------

    def rate(self, contribution: Contribution, useful: bool) -> float:
        """Rate a contribution; returns the contributor's updated trust."""
        if contribution not in self._contributions:
            raise AgenpError("cannot rate an unknown contribution")
        contribution.ratings.append(useful)
        current = self.trust(contribution.agent)
        target = 1.0 if useful else 0.0
        updated = (1 - self.trust_alpha) * current + self.trust_alpha * target
        self._trust[contribution.agent] = updated
        return updated

    def agents(self) -> List[Tuple[str, float]]:
        return sorted(self._trust.items())

    def __len__(self) -> int:
        return len(self._contributions)
