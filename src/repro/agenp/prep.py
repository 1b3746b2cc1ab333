"""The Policy Refinement Point (PReP).

"The PReP takes the information provided by the PBMS and produces an
ASG that is pertinent to the context within which the AMS is operating.
The PReP then uses the ASG to learn its GPM and generates the policies
for the AMS which are captured in the Policy Repository."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.contexts import Context
from repro.core.gpm import GenerativePolicyModel
from repro.agenp.pbms import PolicySpecification
from repro.agenp.pcp import CheckOutcome, PolicyCheckingPoint
from repro.agenp.repositories import (
    PolicyRepository,
    RepresentationsRepository,
    StoredPolicy,
)

__all__ = ["PolicyRefinementPoint"]


class PolicyRefinementPoint:
    """Turns the PBMS specification into a GPM and generates policies."""

    def __init__(
        self,
        specification: PolicySpecification,
        representations: RepresentationsRepository,
        policies: PolicyRepository,
        pcp: Optional[PolicyCheckingPoint] = None,
        max_policy_length: int = 12,
        max_policies: int = 10_000,
    ):
        self.specification = specification
        self.representations = representations
        self.policies = policies
        self.pcp = pcp
        self.max_policy_length = max_policy_length
        self.max_policies = max_policies

    def bootstrap(self) -> GenerativePolicyModel:
        """Build the initial GPM from the specification and store it."""
        model = GenerativePolicyModel(self.specification.initial_asg())
        self.representations.store(model)
        return model

    def current_model(self) -> GenerativePolicyModel:
        if len(self.representations) == 0:
            return self.bootstrap()
        return self.representations.latest()

    def generate(self, context: Context) -> Tuple[List[StoredPolicy], List[CheckOutcome]]:
        """Generate the policy set for ``context`` and install it.

        Candidates are enumerated from ``L(G(C))``, filtered by the PCP
        (if attached), and the accepted set replaces the repository
        contents.  Returns (installed policies, PCP rejections).
        """
        model = self.current_model()
        strings = model.generate(
            context,
            max_length=self.max_policy_length,
            max_policies=self.max_policies,
        )
        candidates = [
            StoredPolicy(tokens, context.name, model.version) for tokens in strings
        ]
        rejections: List[CheckOutcome] = []
        if self.pcp is not None:
            candidates, rejections = self.pcp.filter_policies(
                candidates, model, context
            )
        self.policies.replace(candidates)
        return candidates, rejections
