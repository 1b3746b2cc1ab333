"""E16 — AGENP soak: per-decision cost stays flat as the history grows.

The Figure 2 loop of E2 runs for 200,000 decide + feedback operations:
each PDP decision gets its correct outcome fed back through the
monitoring log, and every 500 operations the AMS checks whether to
adapt.  One subject/action pair (seeded) is forbidden, so the first
flagged outcome starts a relearn at every check from then on.

The contract under test:

* the median latency of the last 10% of operations is at most **1.5x**
  that of the first 10% — outcome feedback, the adaptation trigger and
  the PAdaP's ingest cost O(1) or O(new reviews), not O(history);
* every adaptation check relearns, as in E2, and the relearned loop
  denies the forbidden pair.

The soak runs outside the ambient tracer: 200,000 traced decisions
would write 200,000 span records to the BENCH_e16 artifact.
"""

import random
import statistics
import time

from bench_e2_fig2_agenp_loop import make_ams
from repro.policy import Decision, Request
from repro.telemetry import tracer_scope

OPERATIONS = 200_000
ADAPT_EVERY = 500
MAX_DRIFT = 1.5
PAIRS = [(s, a) for s in ("alice", "bob") for a in ("read", "write")]


def soak(seed=16):
    rng = random.Random(seed)
    forbidden = rng.choice(PAIRS)
    requests = {
        pair: Request({"subject": {"id": pair[0]}, "action": {"id": pair[1]}})
        for pair in PAIRS
    }
    ams = make_ams()
    clock = time.perf_counter
    op_s, adapt_s = [], []
    relearned = 0
    for i in range(OPERATIONS):
        pair = rng.choice(PAIRS)
        expected = Decision.DENY if pair == forbidden else Decision.PERMIT
        start = clock()
        record = ams.decide(requests[pair])
        ams.give_feedback(record, record.decision is expected)
        op_s.append(clock() - start)
        if (i + 1) % ADAPT_EVERY == 0:
            start = clock()
            relearned += ams.adapt_if_needed()
            adapt_s.append(clock() - start)
    return ams, forbidden, requests[forbidden], op_s, adapt_s, relearned


def test_soak_latency_stays_flat(report, benchmark):
    def run():
        with tracer_scope(None):
            return soak()

    ams, forbidden, request, op_s, adapt_s, relearned = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    tenth = len(op_s) // 10
    first = statistics.median(op_s[:tenth])
    last = statistics.median(op_s[-tenth:])
    drift = last / first
    report(
        "E16 — AGENP soak: decide + feedback, adapt_if_needed every 500",
        f"    operations: {len(op_s)}  ({len(op_s) / sum(op_s):,.0f} ops/s)",
        f"    op p50, first 10%: {first * 1e6:.1f} us  last 10%: {last * 1e6:.1f} us  "
        f"drift: {drift:.2f} (gate <= {MAX_DRIFT})",
        f"    adaptation checks: {len(adapt_s)}  relearned: {relearned}  "
        f"adapt p50: {statistics.median(adapt_s) * 1e3:.1f} ms",
        f"    PAdaP examples: {len(ams.padap.examples)}  forbidden pair: {forbidden}",
        "    monitoring log:",
        *(f"      {line}" for line in ams.log.stats().lines()),
    )
    assert drift <= MAX_DRIFT
    assert len(adapt_s) == OPERATIONS // ADAPT_EVERY
    assert relearned == len(adapt_s)
    assert ams.decide(request).decision is Decision.DENY
    stats = ams.log.stats()
    assert stats.total == OPERATIONS + 1 and stats.degraded == 0
