"""Per-layer tracing of the AGENP program from outside it.

The benchmark never edits ``src/``.  Instead, :class:`LayerTracer`
replaces each layer's public entry point with a timing wrapper at
*every* site where the function is bound: the package uses
``from module import name``, so ``repro.asp.solver.ground_program`` and
``repro.engine.engine.ground_program`` are distinct bindings of one
function, and wrapping only the defining module would miss calls.
Methods are wrapped on their class, which every caller reaches.

Spans are kept in memory as ``(name, start, end, parent)``; a span's
self time is its duration minus the durations of its direct children.
Work counters come from return values (``GroundProgram.stats``,
``SolveResult.stats``, ``LearnedHypothesis.stats()``), never from the
program's own telemetry, which stays off.

:func:`analyse` folds the spans into the per-layer metrics and checks
that the counts reconcile, so a binding site that was missed fails
loudly instead of silently under-reporting a layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute) for module-level functions, wrapped at
# every binding site found in sys.modules.
FUNCTIONS = [
    ("asp.parse", "repro.asp.parser", "parse_program"),
    ("asp.ground", "repro.asp.grounder", "ground_program"),
    ("grammar.parse_trees", "repro.grammar.earley", "parse_trees"),
    ("asg.accepts", "repro.asg.semantics", "accepts"),
    ("asg.tree_program", "repro.asg.semantics", "tree_program"),
]

# (span name, module, class, method), wrapped on the class.
METHODS = [
    ("asp.solve", "repro.asp.solver", "AnswerSetSolver", "solve"),
    ("learning.oracle", "repro.learning.tasks", "LASTask", "positive_holds"),
    ("learning.oracle", "repro.learning.tasks", "ASGLearningTask", "positive_holds"),
    ("learning.decomposable", "repro.learning.decomposable", "DecomposableLearner", "learn"),
    ("learning.ilasp", "repro.learning.ilasp", "ILASPLearner", "learn"),
    ("agenp.pdp.decide", "repro.agenp.pdp", "PolicyDecisionPoint", "decide"),
    ("agenp.monitoring.mark_outcome", "repro.agenp.monitoring", "MonitoringLog", "mark_outcome"),
    ("agenp.padap.ingest_feedback", "repro.agenp.padap", "PolicyAdaptationPoint", "ingest_feedback"),
    ("agenp.padap.adapt", "repro.agenp.padap", "PolicyAdaptationPoint", "adapt"),
    ("agenp.prep.generate", "repro.agenp.prep", "PolicyRefinementPoint", "generate"),
    ("engine.solve_text", "repro.engine.engine", "PolicyEngine", "solve_text"),
    ("apps.pipeline", "repro.apps.xacml_case_study.pipeline", "XacmlLearningPipeline", "learn"),
    ("apps.pipeline", "repro.apps.datasharing.learner", "HelperSelectionLearner", "fit"),
]

# Binding sites that must be among the wrapped ones; a refactor that
# moves one makes the traced run fail instead of losing the layer.
REQUIRED_SITES = [
    "repro.asp.solver.ground_program",
    "repro.engine.engine.ground_program",
    "repro.asg.semantics.parse_trees",
    "repro.asg.semantics.tree_program",
    "repro.learning.tasks.accepts",
]

GROUND_COUNTERS = ("atoms", "substitutions", "rules_grounded", "fixpoint_iterations")
SOLVE_COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "stability_checks",
    "stability_skips",
    "models",
)
SPAN_NAMES = sorted({name for name, *__ in FUNCTIONS} | {name for name, *__ in METHODS})
CACHES = ("parse", "ground", "solve")

# (name, unit, better): every per-layer metric a traced run prints.
PER_LAYER: List[Tuple[str, str, str]] = []
for _span in SPAN_NAMES:
    PER_LAYER += [(f"{_span}.calls", "count", "lower"), (f"{_span}.self_s", "s", "lower")]
PER_LAYER += [(f"asp.ground.{c}", "count", "lower") for c in GROUND_COUNTERS]
PER_LAYER += [
    (f"asp.solve.{c}", "count", "higher" if c == "stability_skips" else "lower")
    for c in SOLVE_COUNTERS
]
PER_LAYER += [
    ("grammar.parse_trees.trees", "count", "lower"),
    ("asg.accepts.accept_rate", "ratio", "higher"),
    ("learning.oracle.solve_ratio", "ratio", "lower"),
    ("learning.checks", "count", "lower"),
    ("learning.memo_hits", "count", "higher"),
    ("agenp.loop.latency_drift", "ratio", "lower"),
]
PER_LAYER += [(f"engine.cache.{c}.hit_rate", "ratio", "higher") for c in CACHES]
PER_LAYER += [(f"engine.cache.{c}.evictions", "count", "lower") for c in CACHES]
PER_LAYER += [
    ("outside.self_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class SpanLog:
    """Spans as parallel lists, plus counters read from return values."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()


def _count_ground(log: SpanLog, before, args, result) -> None:
    for name in GROUND_COUNTERS:
        log.counters[f"asp.ground.{name}"] += getattr(result.stats, name)


def _solver_stats(args):
    return args[0].stats.as_dict()


def _count_solve(log: SpanLog, before, args, result) -> None:
    # the solver's stats are cumulative per instance: record the delta
    after = args[0].stats
    for name in SOLVE_COUNTERS:
        log.counters[f"asp.solve.{name}"] += getattr(after, name) - before[name]


def _count_trees(log: SpanLog, before, args, result) -> None:
    log.counters["grammar.parse_trees.trees"] += len(result)


def _count_accepts(log: SpanLog, before, args, result) -> None:
    log.counters["asg.accepts.accepted"] += bool(result)


def _count_learner(log: SpanLog, before, args, result) -> None:
    stats = result.stats()
    log.counters["learning.checks"] += stats["checks"]
    log.counters["learning.memo_hits"] += stats["memo_hits"]


# span name -> (before hook, after hook)
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "asp.ground": (None, _count_ground),
    "asp.solve": (_solver_stats, _count_solve),
    "grammar.parse_trees": (None, _count_trees),
    "asg.accepts": (None, _count_accepts),
    "learning.decomposable": (None, _count_learner),
    "learning.ilasp": (None, _count_learner),
}


class LayerTracer:
    """Installs the wrappers; records spans only while ``log.active``."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.sites: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        log = self.log
        before_hook, after_hook = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not log.active:
                return fn(*args, **kwargs)
            before = before_hook(args) if before_hook is not None else None
            index = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(index)
            if after_hook is not None:
                after_hook(log, before, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value, site: str) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.sites.append(site)

    def install(self) -> None:
        import repro

        # import every module first, so every binding site exists
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, f"{mod_name}.{key}")
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, self._wrap(name, original), f"{module}.{cls_name}.{attr}")
        missing = [site for site in REQUIRED_SITES if site not in self.sites]
        if missing:
            self.uninstall()
            raise RuntimeError(f"binding sites not found: {missing}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _has_ancestor(parents: List[int], names: List[str], index: int, name: str) -> bool:
    parent = parents[index]
    while parent >= 0:
        if names[parent] == name:
            return True
        parent = parents[parent]
    return False


def analyse(
    log: SpanLog,
    wall_s: float,
    learning_workload: bool,
    ground_cache_hits: int = 0,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from one traced round, and reconciliation errors.

    Checks:

    * every solver run was preceded by a grounding, so ``asp.solve.calls``
      equals ``asp.ground.calls`` plus the engine's ground-cache hits;
    * on learning workloads every ``asp.ground`` span descends from a
      ``learning.oracle`` span;
    * no span has negative self time, and the self times plus the time
      outside every span add up to the traced wall time.
    """
    names, parents = log.names, log.parents
    durations = [end - start for start, end in zip(log.starts, log.ends)]
    child_time = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[index]
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    errors: List[str] = []
    negative = 0
    for index, name in enumerate(names):
        own = durations[index] - child_time[index]
        negative += own < -1e-6
        calls[name] += 1
        self_s[name] += own
    if negative:
        errors.append(f"{negative} spans have negative self time")
    rooted = sum(d for d, p in zip(durations, parents) if p < 0)
    outside = wall_s - rooted
    if outside < -1e-3:
        errors.append(f"spans cover {rooted:.3f}s, more than the wall time {wall_s:.3f}s")
    accounted = sum(self_s.values()) + outside
    if abs(accounted - wall_s) > 1e-6 * max(1.0, wall_s) + 1e-6:
        errors.append(f"self times plus outside add up to {accounted:.6f}s, not {wall_s:.6f}s")
    if calls["asp.solve"] != calls["asp.ground"] + ground_cache_hits:
        errors.append(
            f"asp.solve.calls={calls['asp.solve']} but asp.ground.calls="
            f"{calls['asp.ground']} + ground-cache hits={ground_cache_hits}"
        )
    oracle_solves = orphan_grounds = 0
    for index, name in enumerate(names):
        if name == "asp.solve":
            oracle_solves += _has_ancestor(parents, names, index, "learning.oracle")
        elif name == "asp.ground" and learning_workload:
            orphan_grounds += not _has_ancestor(parents, names, index, "learning.oracle")
    if orphan_grounds:
        errors.append(f"{orphan_grounds} asp.ground spans have no learning.oracle ancestor")

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for key, value in log.counters.items():
        if key != "asg.accepts.accepted":
            metrics[key] = value
    metrics["asg.accepts.accept_rate"] = (
        log.counters["asg.accepts.accepted"] / calls["asg.accepts"]
        if calls["asg.accepts"]
        else 0.0
    )
    metrics["learning.oracle.solve_ratio"] = (
        oracle_solves / calls["learning.oracle"] if calls["learning.oracle"] else 0.0
    )
    metrics["outside.self_s"] = outside
    return metrics, errors
