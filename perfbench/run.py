"""AGENP benchmark: one seeded workload per process, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload xacml_learn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, each in its own process
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json

``--trace 0`` measures end to end with no tracer installed and prints
the end-to-end metrics.  ``--trace 1`` builds round 0 and runs it three
times (warm-up, untraced, then with :mod:`layers` wrapping every
layer's entry points) and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 20
SETUP_REPEATS = 5
CALIBRATION_INTERVAL_S = 0.02
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_REFERENCE_S = 50e-6

# (name, unit, better, bound): reported by every workload with --trace 0.
# ops_per_s and op_p50_ms are over the workload's unit operation: a learn
# task, a decide + feedback loop op, or a solve request.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]


class Checks:
    """Context for reference checks: excluded from the pass's wall time
    and, in a traced pass, from the spans."""

    def __init__(self, log=None) -> None:
        self.log = log
        self.seconds = 0.0

    @contextlib.contextmanager
    def __call__(self):
        if self.log is not None:
            self.log.active = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start
            if self.log is not None:
                self.log.active = True


def calibration_loop() -> int:
    """A fixed piece of pure-Python work: dict stores and arithmetic."""
    table = {}
    total = 0
    for i in range(400):
        table[i & 63] = total
        total += i * 3 % 7
    return total


class Calibration:
    """Samples the interpreter's speed while rounds run.

    The machine's speed drifts by up to 20% over seconds, because other
    tenants share its cores.  A timer signal runs
    :func:`calibration_loop` every 20 ms and records when and how long
    it took.  Each timed interval is scaled by the reference loop time
    over the median loop time around the interval (see
    :meth:`durations`).  The result is time at a fixed interpreter
    speed, which varies far less between runs than raw wall time.  Raw
    values are printed alongside.
    """

    def __init__(self) -> None:
        self.at: list = []
        self.loop_s: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()
        self.loop_s.append(time.perf_counter() - start)
        self.at.append(start)

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Reference over the median loop time sampled in [start, end]."""
        low = bisect.bisect_left(self.at, start)
        high = bisect.bisect_right(self.at, end)
        window = self.loop_s[low:high] or self.loop_s
        return CALIBRATION_REFERENCE_S / statistics.median(window) if window else 1.0

    def durations(self, intervals) -> list:
        """Calibrated durations.  An interval of 0.25 s or more uses the
        samples taken during it; shorter ones share, per quarter second,
        the samples within half a second of that quarter."""
        shared: dict = {}
        out = []
        for start, end in intervals:
            if end - start < 0.25:
                key = int(start * 4)
                if key not in shared:
                    shared[key] = self.factor(
                        key / 4 - CALIBRATION_WINDOW_S, (key + 1) / 4 + CALIBRATION_WINDOW_S
                    )
                out.append((end - start) * shared[key])
            else:
                out.append((end - start) * self.factor(start, end))
        return out


def assert_untraced() -> None:
    from repro.telemetry import current_tracer

    if current_tracer() is not None:
        raise RuntimeError("a program tracer is installed during a timed phase")


def measure_setup(name: str):
    times = []
    for __ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times), len(times)


def print_inputs(digests) -> None:
    from workloads import digest

    print(f"inputs: round 0 sha256:{digests[0]}  all {len(digests)} rounds sha256:{digest(digests)}")


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def report_failures(rounds, attempted: int, failed: int) -> None:
    print(f"  {'failed_share':<20} {failed / attempted:>12.4f} ratio   ({failed} of {attempted} attempted)")
    for note in [n for r in rounds for n in r.notes][:10]:
        print(f"    FAILED: {note}")


def end_to_end(workload, seed: int, seconds: float) -> str:
    """A fixed number of rounds, ``seconds`` over the workload's nominal
    round time, so every run of one setting does the same work."""
    from workloads import digest, percentile

    setup_s, setups = measure_setup(workload.name)
    rounds, digests = [], []
    with Calibration() as calibration:
        for index in range(max(1, int(seconds // workload.round_s))):
            data = workload.inputs(seed, index)
            digests.append(digest(data))
            assert_untraced()
            rounds.append(workload.run(data, Checks()))
            assert_untraced()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kinds = sorted({kind for r in rounds for kind in r.intervals})
    times = {k: calibration.durations([iv for r in rounds for iv in r.intervals[k]]) for k in kinds}
    raw = [end - start for r in rounds for start, end in r.intervals["op"]]
    ops = times["op"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_ms": (percentile(ops, 0.5) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {workload.name}  seed {seed}  rounds {len(rounds)}  unit op: {workload.unit}")
    print_inputs(digests)
    print(f"  {'setup_s':<20} {setup_s:>12.4f} s       ({setups} set-ups)")
    for name, value, unit, samples in workload.report(times):
        print(f"  {name:<20} {value:>12.4f} {unit:<7} ({samples} samples)")
    report_failures(rounds, attempted, failed)
    print(f"  {'peak_rss_mb':<20} {peak_rss_mb:>12.1f} MB")
    loop_us = statistics.median(calibration.loop_s) * 1e6
    print(
        f"  timings above are calibrated to a {CALIBRATION_REFERENCE_S * 1e6:.0f} us loop "
        f"(median here {loop_us:.1f} us, {len(calibration.loop_s)} samples); "
        f"raw ops_per_s {len(raw) / sum(raw):.4f}, raw op_p50_ms {percentile(raw, 0.5) * 1e3:.4f}"
    )
    for key in sorted({k for r in rounds for k in r.info}):
        print(f"  {workload.name} {key}: {[r.info[key] for r in rounds]}")
    return result_line(failed == 0, attempted, failed, metrics)


def traced(workload, seed: int) -> str:
    from layers import PER_LAYER, LayerTracer, analyse
    from workloads import digest, percentile

    data = workload.inputs(seed, 0)
    assert_untraced()
    workload.run(data, Checks())  # warm-up, so both timed passes start warm
    checks = Checks()
    start = time.perf_counter()
    baseline = workload.run(data, checks)
    untraced_s = time.perf_counter() - start - checks.seconds

    tracer = LayerTracer()
    tracer.install()
    try:
        checks = Checks(tracer.log)
        tracer.log.active = True
        start = time.perf_counter()
        result = workload.run(data, checks)
        traced_s = time.perf_counter() - start - checks.seconds
        tracer.log.active = False
    finally:
        tracer.uninstall()

    metrics, errors = analyse(
        tracer.log, traced_s, workload.learning, int(result.info.get("ground.hits", 0))
    )
    for cache in ("parse", "ground", "solve"):
        metrics[f"engine.cache.{cache}.hit_rate"] = result.info.get(f"{cache}.hit_rate", 0.0)
        metrics[f"engine.cache.{cache}.evictions"] = result.info.get(f"{cache}.evictions", 0)
    drift = 0.0
    if workload.name == "agenp_loop":
        ops = [end - start for start, end in baseline.intervals["op"]]
        tenth = len(ops) // 10
        drift = percentile(ops[-tenth:], 0.5) / percentile(ops[:tenth], 0.5)
    metrics["agenp.loop.latency_drift"] = drift
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    units = {name: unit for name, unit, __ in PER_LAYER}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        errors.append(f"metrics missing from the per-layer list: {unknown}")

    print(f"workload {workload.name}  seed {seed}  traced round 0 ({len(tracer.log.names)} spans)")
    print_inputs([digest(data)])
    print(f"  wrapped binding sites: {len(tracer.sites)}")
    for name, unit, __ in PER_LAYER:
        value = metrics.get(name, 0)
        if value:
            print(f"  {name:<38} {value:>14.6g} {unit}")
    print("  (per-layer metrics not shown are 0 on this workload)")
    for error in errors:
        print(f"  RECONCILIATION FAILED: {error}")
        print(f"reconciliation failed: {error}", file=sys.stderr)
    attempted = baseline.attempted + result.attempted
    failed = baseline.failed + result.failed
    report_failures([baseline, result], attempted, failed)
    return result_line(
        failed == 0 and not errors,
        attempted,
        failed,
        {name: (metrics.get(name, 0), unit) for name, unit, __ in PER_LAYER},
    )


def run_all(args) -> str:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        results[name] = json.loads(lines[-1])
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    )


def write_spec() -> None:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.write_spec:
        write_spec()
        return 0
    if args.workload == "all":
        print(run_all(args))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.trace:
        print(traced(workload, args.seed))
    else:
        print(end_to_end(workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
