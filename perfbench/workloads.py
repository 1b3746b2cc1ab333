"""The four benchmark workloads: seeded inputs, timed rounds, references.

Each workload is a closed loop driven by one client in one process: the
next operation starts when the previous one returns.  A *round* is a
fixed unit of work built from ``(seed, round index)`` alone, so the
same seed always gives the same inputs.  ``round_s`` is a workload's
nominal round time; a run of ``seconds`` does ``seconds // round_s``
rounds.  Inputs are generated here, not by the program under
test, and every output is checked against a reference computed here
from the same generator, never by the program.

Only the calls into the program are timed.  Building inputs, checking
outputs and (on ``agenp_loop``) adaptation are outside the per-operation
timings.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.agenp import AutonomousManagedSystem, FieldInterpreter, PolicySpecification
from repro.apps.datasharing import DataOffer, HelperSelectionLearner
from repro.apps.xacml_case_study import XacmlLearningPipeline
from repro.asg import parse_asg
from repro.asp.atoms import Atom, Literal
from repro.asp.terms import Constant
from repro.core import Context, GenerativePolicyModel
from repro.datasets.xacml_conformance import LogEntry
from repro.engine import PolicyEngine
from repro.learning import ASGLearningTask, ContextExample, ILASPLearner, constraint_space
from repro.policy import CategoricalDomain, Decision, DomainSchema, Request


def percentile(values: List[float], q: float) -> float:
    """Percentile of ``values`` (``q`` in [0, 1]), interpolating linearly
    between the two nearest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _canonical(value):
    """Plain data with sets sorted, so a digest ignores hash order."""
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(data) -> str:
    """A short content digest of generated inputs."""
    text = json.dumps(_canonical(data), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Round:
    """The outcome of one round: timed intervals and failures.

    ``intervals["op"]`` holds one ``(start, end)`` per unit operation;
    a workload may time other kinds too (``agenp_loop`` adds ``decide``
    and ``adapt``).
    """

    def __init__(self) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.info: Dict[str, float] = {}

    def time(self, kind: str, start: float, end: float) -> None:
        self.intervals[kind].append((start, end))

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def crash(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[1]!r}")


def learn_report(times: List[float]) -> List[Tuple[str, float, str, int]]:
    return [
        ("learn_tasks_per_s", len(times) / sum(times), "tasks/s", len(times)),
        ("learn_p50_s", percentile(times, 0.5), "s", len(times)),
    ]


# -- xacml_learn -------------------------------------------------------------

XACML_USERS = {"u1": "dba", "u2": "dba", "u3": "dev", "u4": "dev", "u5": "guest", "u6": "guest"}
XACML_ACTIONS = ("read", "write")
XACML_RTYPES = ("db", "file")
XACML_REQUESTS = list(itertools.product(sorted(XACML_USERS), XACML_ACTIONS, XACML_RTYPES))
FLIP_RATES = (0.0, 0.1, 0.2)


def xacml_truth(role: str, action: str, rtype: str) -> bool:
    """Ground truth: DBAs may do anything on the db; devs may read."""
    return (role == "dba" and rtype == "db") or (role == "dev" and action == "read")


def xacml_request(user: str, action: str, rtype: str) -> Request:
    return Request(
        {
            "subject": {"id": user, "role": XACML_USERS[user]},
            "action": {"id": action},
            "resource": {"type": rtype},
        }
    )


class XacmlLearn:
    name = "xacml_learn"
    why = (
        "plain-ASP LASTask learning, no grammar; oracle-bound. Inputs: three E4-style "
        "180-entry XACML logs per round, with 0%, 10% or 20% of the first 60 flipped"
    )
    unit = "learn task"
    learning = True
    round_s = 10.0

    def build(self):
        pipeline = XacmlLearningPipeline()
        return pipeline.hypothesis_space(), pipeline.background()

    def inputs(self, seed: int, index: int):
        """Each log holds every one of the 24 coherent requests 7 or 8
        times in shuffled order; exactly ``rate * 60`` of the first 60
        entries have their decision flipped."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        requests = list(XACML_REQUESTS)
        logs = []
        for rate in FLIP_RATES:
            rng.shuffle(requests)
            entries = [requests[i % len(requests)] for i in range(180)]
            rng.shuffle(entries)
            flipped = set(rng.sample(range(60), round(rate * 60)))
            logs.append(
                (
                    rate,
                    [
                        (u, a, t, xacml_truth(XACML_USERS[u], a, t) != (i in flipped))
                        for i, (u, a, t) in enumerate(entries)
                    ],
                )
            )
        return logs

    def run(self, logs, checking) -> Round:
        result = Round()
        for rate, entries in logs:
            log = [
                LogEntry(xacml_request(u, a, t), Decision.PERMIT if p else Decision.DENY)
                for u, a, t, p in entries
            ]
            pipeline = XacmlLearningPipeline()
            result.attempted += 1
            start = time.perf_counter()
            try:
                model = pipeline.learn(log)
            except Exception:
                result.time("op", start, time.perf_counter())
                result.crash(f"learn at flip rate {rate}")
                continue
            result.time("op", start, time.perf_counter())
            with checking():
                wrong = [
                    request
                    for request in XACML_REQUESTS
                    if (model.decide(xacml_request(*request)) is Decision.PERMIT)
                    != xacml_truth(XACML_USERS[request[0]], request[1], request[2])
                ]
            if wrong:
                result.fail(f"flip rate {rate}: {len(wrong)}/24 requests decided wrongly")
        return result

    def report(self, times: Dict[str, List[float]]) -> List[Tuple[str, float, str, int]]:
        return learn_report(times["op"])


# -- asg_learn ---------------------------------------------------------------

TRUSTS = ("trusted", "untrusted")
DATA_TYPES = ("imagery", "signal", "document")
LEVELS = ("high", "low")
ALL_OFFERS = [DataOffer(*f) for f in itertools.product(TRUSTS, DATA_TYPES, LEVELS, LEVELS)]


def datasharing_truth(offer: DataOffer) -> Tuple[str, ...]:
    """Refuse untrusted low-quality data; documents need provenance checks;
    other untrusted data a deep scan; the rest a basic check."""
    if offer.partner_trust == "untrusted" and offer.quality == "low":
        return ("refuse",)
    if offer.data_type == "document":
        return ("route", "provenance_verify")
    if offer.partner_trust == "untrusted":
        return ("route", "deep_scan")
    return ("route", "basic_check")


FIG1_GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
subject -> "carol" { is(carol). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
action  -> "delete" { is(delete). }
"""
FIG1_CASES = list(itertools.product(("alice", "bob", "carol"), ("read", "write", "delete"), (False, True)))


def fig1_truth(subject: str, action: str, alert: bool) -> bool:
    """Carol may not delete; nobody writes during an alert."""
    return not (subject == "carol" and action == "delete") and not (action == "write" and alert)


def fig1_space():
    pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob", "carol")]
    pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write", "delete")]
    pool += [Literal(Atom("alert"), sign) for sign in (True, False)]
    return constraint_space(pool, prod_ids=(0,), max_body=3)


def fig1_example(case) -> ContextExample:
    subject, action, alert = case
    return ContextExample(
        ("allow", subject, action), Context.from_attributes({"alert": alert}).program
    )


class AsgLearn:
    name = "asg_learn"
    why = (
        "ASG learning: Earley + membership, and the exact ILASPLearner. Inputs: E7 fit on "
        "all 24 offer kinds + 8 random; four E1 tasks of all 18 cases + 6 random"
    )
    unit = "learn task"
    learning = True
    round_s = 6.5

    def __init__(self) -> None:
        self._fig1 = None

    def build(self):
        return HelperSelectionLearner(), self._fig1_model()

    def _fig1_model(self):
        if self._fig1 is None:
            self._fig1 = (GenerativePolicyModel(parse_asg(FIG1_GRAMMAR)), fig1_space())
        return self._fig1

    def inputs(self, seed: int, index: int):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        offers = [tuple(o) for o in ALL_OFFERS] + [tuple(rng.choice(ALL_OFFERS)) for __ in range(8)]
        rng.shuffle(offers)
        tasks = [("datasharing", offers)]
        # four short exact-learner tasks per long fit, so the median task
        # sits inside the exact-learner group rather than at its edge
        for __ in range(4):
            cases = FIG1_CASES + [rng.choice(FIG1_CASES) for __ in range(6)]
            rng.shuffle(cases)
            tasks.append(("fig1", cases))
        return tasks

    def run(self, tasks, checking) -> Round:
        result = Round()
        for kind, data in tasks:
            result.attempted += 1
            if kind == "datasharing":
                learner = HelperSelectionLearner()
                offers = [DataOffer(*f) for f in data]
                start = time.perf_counter()
                try:
                    learner.fit(offers)
                except Exception:
                    result.time("op", start, time.perf_counter())
                    result.crash("HelperSelectionLearner.fit")
                    continue
                result.time("op", start, time.perf_counter())
                with checking():
                    wrong = [o for o in ALL_OFFERS if learner.decide(o) != datasharing_truth(o)]
                if wrong:
                    result.fail(f"datasharing: {len(wrong)}/24 offers routed wrongly")
                continue
            model, space = self._fig1_model()
            examples = [(fig1_example(case), fig1_truth(*case)) for case in data]
            task = ASGLearningTask(
                model.initial,
                space,
                [e for e, valid in examples if valid],
                [e for e, valid in examples if not valid],
            )
            start = time.perf_counter()
            try:
                hypothesis = ILASPLearner(task).learn()
            except Exception:
                result.time("op", start, time.perf_counter())
                result.crash("ILASPLearner.learn")
                continue
            result.time("op", start, time.perf_counter())
            learned = model.with_hypothesis(hypothesis.candidates)
            with checking():
                wrong = [
                    case
                    for case in FIG1_CASES
                    if learned.valid(
                        ("allow", case[0], case[1]), Context.from_attributes({"alert": case[2]})
                    )
                    != fig1_truth(*case)
                ]
            if wrong:
                result.fail(f"fig1: {len(wrong)}/18 cases disagree with the truth")
        return result

    def report(self, times: Dict[str, List[float]]) -> List[Tuple[str, float, str, int]]:
        return learn_report(times["op"])


# -- agenp_loop --------------------------------------------------------------

LOOP_GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
"""
LOOP_PAIRS = list(itertools.product(("alice", "bob"), ("read", "write")))
LOOP_DECISIONS = 20_000
ADAPT_EVERY = 500


def make_ams() -> AutonomousManagedSystem:
    pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob")]
    pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write")]
    spec = PolicySpecification(
        LOOP_GRAMMAR, hypothesis_space=constraint_space(pool, prod_ids=(0,), max_body=2)
    )
    ams = AutonomousManagedSystem(
        "bench",
        spec,
        FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")}),
        DomainSchema(
            {
                ("subject", "id"): CategoricalDomain(["alice", "bob"]),
                ("action", "id"): CategoricalDomain(["read", "write"]),
            }
        ),
    )
    ams.bootstrap(Context.from_attributes({}, name="normal"))
    return ams


class AgenpLoop:
    name = "agenp_loop"
    why = (
        "Figure 2 loop: decide, correct feedback, adapt_if_needed every 500 of 20,000 "
        "decisions; inputs: a seeded forbidden subject/action pair and request stream"
    )
    unit = "decide + feedback"
    learning = False
    round_s = 6.0

    def build(self):
        return make_ams()

    def inputs(self, seed: int, index: int):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        forbidden = rng.choice(LOOP_PAIRS)
        return forbidden, [rng.choice(LOOP_PAIRS) for __ in range(LOOP_DECISIONS)]

    def run(self, data, checking) -> Round:
        forbidden, pairs = data
        requests = [Request({"subject": {"id": s}, "action": {"id": a}}) for s, a in pairs]
        expected = [Decision.DENY if p == forbidden else Decision.PERMIT for p in pairs]
        result = Round()
        relearned = 0
        adapted = False
        ams = make_ams()
        clock = time.perf_counter
        for i, request in enumerate(requests):
            result.attempted += 1
            start = clock()
            try:
                record = ams.decide(request)
                decided = clock()
                ams.give_feedback(record, record.decision is expected[i])
            except Exception:
                result.time("op", start, clock())
                result.crash(f"decision {i}")
                continue
            result.time("op", start, clock())
            result.time("decide", start, decided)
            if record.degraded:
                result.fail(f"decision {i} was degraded: {record.note}")
            elif adapted and record.decision is not expected[i]:
                result.fail(f"decision {i} on {pairs[i]} is {record.decision.value}")
            if (i + 1) % ADAPT_EVERY == 0:
                start = clock()
                try:
                    changed = ams.adapt_if_needed()
                except Exception:
                    result.crash(f"adaptation after decision {i}")
                    continue
                result.time("adapt", start, clock())
                relearned += changed
                adapted = adapted or changed
        if not adapted:
            result.fail("the loop never adapted")
        result.info = {"adapt checks": len(result.intervals["adapt"]), "relearned": relearned}
        return result

    def report(self, times: Dict[str, List[float]]) -> List[Tuple[str, float, str, int]]:
        ops, decide, adapt = times["op"], times["decide"], times["adapt"]
        return [
            ("decide_p50_us", percentile(decide, 0.5) * 1e6, "us", len(decide)),
            ("decide_p99_us", percentile(decide, 0.99) * 1e6, "us", len(decide)),
            ("loop_ops_per_s", len(ops) / sum(ops), "ops/s", len(ops)),
            ("adapt_p50_s", percentile(adapt, 0.5), "s", len(adapt)),
        ]


# -- asp_serve ---------------------------------------------------------------

SERVE_ROLES = ("dba", "dev", "auditor")
SERVE_PROGRAMS = 8000
SERVE_REQUESTS = 5000
ZIPF_EXPONENT = 1.1


def serve_program(rng: random.Random, index: int) -> Tuple[str, int, frozenset]:
    """One E15-style program: stratified permit rules plus an even loop
    over the sensitive resources and a constraint.  Returns the text,
    the number of sensitive resources and the expected permit atoms."""
    roles = [role for role in SERVE_ROLES for __ in range(2)]
    rng.shuffle(roles)
    rtypes = ["db", "doc"] * 4
    rng.shuffle(rtypes)
    # one sensitive db and two sensitive docs: every program has the same
    # shape (8 answer sets, 12 permits), so request costs vary only with
    # the cache, not with the seed
    sensitive = set(
        rng.sample([r for r, t in enumerate(rtypes) if t == "db"], 1)
        + rng.sample([r for r, t in enumerate(rtypes) if t == "doc"], 2)
    )
    lines = [f"shard(s{index})."]
    lines += [f"role(u{u}, {role})." for u, role in enumerate(roles)]
    for r, rtype in enumerate(rtypes):
        lines.append(f"rtype(r{r}, {rtype}).")
        if r in sensitive:
            lines.append(f"sensitive(r{r}).")
    lines += [
        "permit(U, R) :- role(U, dba), rtype(R, db).",
        "permit(U, R) :- role(U, dev), rtype(R, doc), not sensitive(R).",
        "audit(R) :- sensitive(R), not waived(R).",
        "waived(R) :- sensitive(R), not audit(R).",
        ":- audit(R), waived(R).",
    ]
    permits = frozenset(
        f"permit(u{u}, r{r})"
        for u, role in enumerate(roles)
        for r, rtype in enumerate(rtypes)
        if (role == "dba" and rtype == "db")
        or (role == "dev" and rtype == "doc" and r not in sensitive)
    )
    return "\n".join(lines), len(sensitive), permits


class AspServe:
    name = "asp_serve"
    why = (
        "PolicyEngine.solve_text with searching solves; caches hit, miss and evict. Inputs: "
        "5,000 Zipf(1.1) requests over 8,000 seeded non-stratified programs"
    )
    unit = "solve request"
    learning = False
    round_s = 10.0

    def __init__(self) -> None:
        self._pools: Dict[int, list] = {}

    def build(self):
        return PolicyEngine()

    def pool(self, seed: int):
        if seed not in self._pools:
            rng = random.Random(f"{self.name}/{seed}")
            self._pools[seed] = [serve_program(rng, i) for i in range(SERVE_PROGRAMS)]
        return self._pools[seed]

    def inputs(self, seed: int, index: int):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        weights = itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(SERVE_PROGRAMS))
        cumulative = list(weights)
        stream = [
            bisect.bisect(cumulative, rng.random() * cumulative[-1]) for __ in range(SERVE_REQUESTS)
        ]
        return self.pool(seed), stream

    def run(self, data, checking) -> Round:
        pool, stream = data
        result = Round()
        engine = PolicyEngine()
        verified: Dict[int, set] = {}
        clock = time.perf_counter
        for index in stream:
            text, sensitive, permits = pool[index]
            result.attempted += 1
            start = clock()
            try:
                answer = engine.solve_text(text)
            except Exception:
                result.time("op", start, clock())
                result.crash(f"program {index}")
                continue
            result.time("op", start, clock())
            with checking():
                error = self._check(answer, sensitive, permits, verified.get(index))
            if error:
                result.fail(f"program {index}: {error}")
            else:
                verified.setdefault(index, set(answer))
        caches = engine.stats().caches
        result.info = {
            f"{name}.{key}": caches[name][key]
            for name in ("parse", "ground", "solve")
            for key in ("hits", "hit_rate", "evictions")
        }
        return result

    @staticmethod
    def _check(answer, sensitive: int, permits: frozenset, known) -> str:
        """Compare a response with the generator: 2^sensitive answer sets,
        each holding exactly the expected permit atoms, and a repeated
        request answering as the first one did."""
        models = set(answer)
        if known is not None:
            return "" if models == known else "a repeated request returned other answer sets"
        if len(answer) != 2 ** sensitive or len(models) != len(answer):
            return f"{len(answer)} answer sets, expected {2 ** sensitive}"
        for model in models:
            if frozenset(str(a) for a in model if a.predicate == "permit") != permits:
                return "permit atoms differ from the generator's"
        return ""

    def report(self, times: Dict[str, List[float]]) -> List[Tuple[str, float, str, int]]:
        times = times["op"]
        return [
            ("solves_per_s", len(times) / sum(times), "req/s", len(times)),
            ("solve_p50_ms", percentile(times, 0.5) * 1e3, "ms", len(times)),
            ("solve_p99_ms", percentile(times, 0.99) * 1e3, "ms", len(times)),
        ]


WORKLOADS = {w.name: w for w in (XacmlLearn(), AsgLearn(), AgenpLoop(), AspServe())}
