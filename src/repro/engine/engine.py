"""The serving engine: cached, batched policy evaluation.

:class:`PolicyEngine` is the one front door for high-throughput policy
serving.  It wraps the substrate entry points that the rest of the
framework exposes piecemeal (``parse`` → ``ground`` → ``solve``, PDP
decisions) behind content-keyed caches with generation-based
invalidation.  Every key is a plain value compared by the AST's
structural ``__eq__``/``__hash__``, so ``Integer(1)`` and
``Constant("1")`` never share an entry:

* **Solve path** — ``engine.solve_text(text)`` / ``engine.solve(program)``
  consult a parse cache (source text → program), a
  :class:`~repro.engine.caches.GroundCache` (rule tuple → ground
  program) and a :class:`~repro.engine.caches.SolveCache` (rule tuple +
  ``max_models`` → answer sets).  Results are byte-identical to the
  uncached path: the key covers rule order and the only knob that can
  change the answer, and cached models are returned in their original
  order.
* **Decision path** — ``engine.decide(request)`` serves PDP decisions
  from a decision cache keyed by (context, policy and context
  generations, request); ``engine.decide_many(requests)`` groups
  duplicate requests so each distinct decision is computed once.
* **Invalidation** — PAdaP policy updates bump
  ``PolicyRepository.generation`` and context changes bump
  ``ContextRepository.generation``; the engine folds both counters into
  its decision keys and purges the decision cache when either moves, so
  a stale entry can never be served.
* **Admission** — results computed under an exhausted budget and
  degraded (fallback) decisions are never cached; see
  :func:`repro.engine.caches.admissible`.

Every cache reports ``cache.<name>.{hits,misses,evictions}`` counters
through the ambient :mod:`repro.telemetry` tracer, and ``engine.*``
spans wrap the serving operations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.asp.grounder import GroundProgram, ground_program
from repro.asp.parser import parse_program
from repro.asp.rules import Program
from repro.asp.solver import AnswerSetSolver, SolveResult
from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.pdp import PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import ContextRepository, PolicyRepository
from repro.core.contexts import Context
from repro.engine.caches import GroundCache, LRUCache, ParseCache, SolveCache
from repro.policy.model import Decision, Request
from repro.telemetry import span as _tele_span

__all__ = ["PolicyEngine", "EngineStats"]


class EngineStats:
    """A point-in-time snapshot of every cache's counters."""

    __slots__ = ("caches", "decisions", "batches")

    def __init__(self, caches: Dict[str, Dict[str, float]], decisions: int, batches: int):
        self.caches = caches
        self.decisions = decisions
        self.batches = batches

    def as_dict(self) -> Dict[str, Any]:
        return {
            "caches": self.caches,
            "decisions": self.decisions,
            "batches": self.batches,
        }

    def __repr__(self) -> str:
        inner = " ".join(
            f"{name}[h={c['hits']} m={c['misses']}]" for name, c in self.caches.items()
        )
        return f"EngineStats({inner} decisions={self.decisions} batches={self.batches})"


class PolicyEngine:
    """High-throughput serving façade over the AGENP substrate.

    Construction takes the same collaborators as
    :class:`~repro.agenp.pdp.PolicyDecisionPoint` (or an existing PDP via
    ``pdp=``) plus cache-size knobs.  A repository/interpreter pair is
    only required for the decision path; the ``solve*`` methods work on
    a bare engine::

        engine = PolicyEngine()                      # solve caching
        engine = PolicyEngine(repository, interp)    # + PDP decision serving

    Setting any ``*_cache_size`` to 0 disables that cache (used by the
    differential tests and the cold legs of benchmark E15).
    """

    def __init__(
        self,
        repository: Optional[PolicyRepository] = None,
        interpreter=None,
        *,
        pdp: Optional[PolicyDecisionPoint] = None,
        contexts: Optional[ContextRepository] = None,
        log: Optional[MonitoringLog] = None,
        parse_cache_size: int = 512,
        ground_cache_size: int = 256,
        solve_cache_size: int = 1024,
        decision_cache_size: int = 4096,
        **pdp_kwargs: Any,
    ):
        if pdp is not None:
            self.pdp: Optional[PolicyDecisionPoint] = pdp
        elif repository is not None and interpreter is not None:
            self.pdp = PolicyDecisionPoint(
                repository, interpreter, log=log, **pdp_kwargs
            )
        else:
            self.pdp = None
        self.contexts = contexts
        self.parse_cache = ParseCache(parse_cache_size)
        self.ground_cache = GroundCache(ground_cache_size)
        self.solve_cache = SolveCache(solve_cache_size)
        self.decision_cache: LRUCache = LRUCache(decision_cache_size, name="decision")
        self._decisions_served = 0
        self._batches_served = 0
        # generations the decision cache was built against
        self._seen_generations: Optional[Tuple[int, int]] = None

    # -- solve path ---------------------------------------------------------

    def parse(self, text: str) -> Program:
        """Parse ASP source text through the parse cache."""
        cached = self.parse_cache.get(text)
        if cached is not None:
            return cached
        program = parse_program(text)
        self.parse_cache.put(text, program)
        return program

    def ground(self, program: Program) -> GroundProgram:
        """Ground ``program`` through the ground cache."""
        rules = tuple(program.rules)
        cached = self.ground_cache.get(rules)
        if cached is not None:
            return cached
        ground = ground_program(program)
        self.ground_cache.put(rules, ground)
        return ground

    def solve(self, program: Program, max_models: Optional[int] = None) -> SolveResult:
        """Ground and solve ``program`` through both engine caches.

        Identical in signature and results to
        :func:`repro.asp.solver.solve`; a warm hit skips parsing,
        grounding, and solving entirely.
        """
        rules = tuple(program.rules)
        key = (rules, max_models)
        with _tele_span("engine.solve"):
            cached = self.solve_cache.get_result(key)
            if cached is not None:
                return cached
            result = AnswerSetSolver(self.ground(program)).solve(max_models=max_models)
            self.solve_cache.put_result(key, result)
            return result

    def solve_text(self, text: str, max_models: Optional[int] = None) -> SolveResult:
        """Parse, ground, and solve source text through every cache."""
        return self.solve(self.parse(text), max_models=max_models)

    # -- decision path ------------------------------------------------------

    def _require_pdp(self) -> PolicyDecisionPoint:
        if self.pdp is None:
            raise ValueError(
                "this PolicyEngine has no decision path: construct it with a "
                "policy repository and interpreter (or pdp=...)"
            )
        return self.pdp

    def _generations(self) -> Tuple[int, int]:
        policy_gen = self.pdp.repository.generation if self.pdp is not None else -1
        context_gen = (
            self.contexts.generation
            if self.contexts is not None
            else -1
        )
        return (policy_gen, context_gen)

    def _check_invalidation(self) -> Tuple[int, int]:
        """Purge the decision cache if either repository moved."""
        generations = self._generations()
        if self._seen_generations is None:
            self._seen_generations = generations
        elif generations != self._seen_generations:
            self.decision_cache.clear()
            self._seen_generations = generations
        return generations

    def decide(
        self, request: Request, context: Optional[Context] = None
    ) -> DecisionRecord:
        """One cached PDP decision.

        Cache hits skip policy compilation and rule matching but still
        append a fresh :class:`DecisionRecord` to the monitoring log —
        the AGENP feedback loop sees every served decision either way.
        Degraded (fallback) decisions are never admitted to the cache.
        """
        pdp = self._require_pdp()
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        generations = self._check_invalidation()
        key = (context, generations, request.key())
        with _tele_span("engine.decide") as sp:
            self._decisions_served += 1
            cached = self.decision_cache.get(key)
            if cached is not None:
                decision, policy_text = cached
                record = DecisionRecord(
                    request, decision, policy_text, context, trace_id=sp.trace_id
                )
                return pdp.log.append(record)
            record = pdp.decide(request, context)
            if not record.degraded:
                self.decision_cache.put(key, (record.decision, record.policy_text))
            return record

    def decide_many(
        self,
        requests: Iterable[Request],
        context: Optional[Context] = None,
    ) -> List[DecisionRecord]:
        """Batched decisions: each distinct request is resolved once.

        Requests are grouped by content key; the unique cold group is
        resolved against one compiled policy set.  Every input request
        still yields its own monitoring record, in input order.
        """
        pdp = self._require_pdp()
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        requests = list(requests)
        generations = self._check_invalidation()

        with _tele_span("engine.decide_many") as sp:
            self._batches_served += 1
            # group duplicates; preserve first-seen order of unique keys
            order: List[tuple] = []
            by_key: Dict[tuple, List[int]] = {}
            exemplar: Dict[tuple, Request] = {}
            for index, request in enumerate(requests):
                key = request.key()
                if key not in by_key:
                    by_key[key] = []
                    exemplar[key] = request
                    order.append(key)
                by_key[key].append(index)

            # split unique requests into cache hits and the cold group
            outcomes: Dict[tuple, Tuple[Decision, str]] = {}
            cold: List[tuple] = []
            for key in order:
                cached = self.decision_cache.get((context, generations, key))
                if cached is not None:
                    outcomes[key] = cached
                else:
                    cold.append(key)
            sp.incr("engine.batch_cold", len(cold))

            if cold:
                compiled = pdp.compiled()
                for key in cold:
                    outcome = evaluate_compiled(
                        compiled, exemplar[key], pdp.strategy, pdp.default_decision
                    )
                    outcomes[key] = outcome
                    self.decision_cache.put((context, generations, key), outcome)

            # one monitoring record per input request, in input order
            records: List[DecisionRecord] = [None] * len(requests)  # type: ignore[list-item]
            for key in order:
                decision, policy_text = outcomes[key]
                for index in by_key[key]:
                    record = DecisionRecord(
                        requests[index],
                        decision,
                        policy_text,
                        context,
                        trace_id=sp.trace_id,
                    )
                    records[index] = pdp.log.append(record)
            self._decisions_served += len(requests)
            return records

    # -- maintenance --------------------------------------------------------

    def invalidate(self) -> None:
        """Manually purge every cache (content caches included)."""
        for cache in (
            self.parse_cache,
            self.ground_cache,
            self.solve_cache,
            self.decision_cache,
        ):
            cache.clear()
        self._seen_generations = None

    def stats(self) -> EngineStats:
        """Hit/miss/eviction counters for every cache."""
        return EngineStats(
            {
                cache.name: cache.stats.as_dict()
                for cache in (
                    self.parse_cache,
                    self.ground_cache,
                    self.solve_cache,
                    self.decision_cache,
                )
            },
            self._decisions_served,
            self._batches_served,
        )
