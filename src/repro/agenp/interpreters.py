"""Interpreters: from policy *strings* to executable policies.

The generative framework produces policies as grammar strings; the PDP
needs structured :class:`~repro.policy.xacml.Policy` objects to evaluate
requests.  An interpreter bridges the two.  :class:`FieldInterpreter`
covers the common ``<effect> <attr1> <attr2> ...`` token layout; apps
with richer grammars supply their own callable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import AgenpError
from repro.grammar.cfg import SymbolString
from repro.policy.model import Effect
from repro.policy.xacml import Match, Policy, Target, XacmlRule

__all__ = ["PolicyInterpreter", "FieldInterpreter"]

PolicyInterpreter = Callable[[SymbolString], Policy]


class FieldInterpreter:
    """Interpret fixed-layout policy strings.

    ``fields`` maps token positions to ``(category, attribute)`` pairs;
    the token at ``effect_index`` selects Permit (== ``permit_token``)
    or Deny.  Wildcard tokens (default ``"any"``) produce no match.

    Example: with ``fields={1: ("subject", "id"), 2: ("action", "id")}``
    the string ``allow alice read`` becomes a single-rule policy
    permitting requests with ``subject.id == alice`` and
    ``action.id == read``.
    """

    def __init__(
        self,
        fields: Dict[int, Tuple[str, str]],
        effect_index: int = 0,
        permit_token: str = "allow",
        wildcard: str = "any",
    ):
        self.fields = dict(fields)
        self.effect_index = effect_index
        self.permit_token = permit_token
        self.wildcard = wildcard

    def __call__(self, tokens: SymbolString) -> Policy:
        tokens = tuple(tokens)
        needed = max([self.effect_index, *self.fields]) + 1
        if len(tokens) < needed:
            raise AgenpError(
                f"policy string {' '.join(tokens)!r} too short for interpreter "
                f"(needs {needed} tokens)"
            )
        effect = (
            Effect.PERMIT
            if tokens[self.effect_index] == self.permit_token
            else Effect.DENY
        )
        matches: List[Match] = []
        for index, (category, attribute) in sorted(self.fields.items()):
            value = tokens[index]
            if value == self.wildcard:
                continue
            matches.append(Match(category, attribute, "eq", value))
        policy_id = "_".join(tokens)
        rule = XacmlRule("r0", effect, Target(matches))
        return Policy(policy_id, [rule], combining="first-applicable")
