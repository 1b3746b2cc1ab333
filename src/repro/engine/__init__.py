"""The high-throughput serving engine (caching + batching front door).

:class:`PolicyEngine` wraps parse → ground → solve and PDP decisions
behind LRU caches with generation-based invalidation and batched
decision serving.  Cache keys are plain values: source text,
rule tuples and :class:`~repro.core.contexts.Context` values (compared
by the AST's own structural ``__eq__``/``__hash__``).  See
:mod:`repro.engine.engine` for the serving semantics and
:mod:`repro.engine.caches` for admission rules.
"""

from repro.engine.caches import (
    CacheStats,
    GroundCache,
    LRUCache,
    ParseCache,
    SolveCache,
    admissible,
)
from repro.engine.engine import EngineStats, PolicyEngine

__all__ = [
    "PolicyEngine",
    "EngineStats",
    "CacheStats",
    "LRUCache",
    "ParseCache",
    "GroundCache",
    "SolveCache",
    "admissible",
]
