"""Compare a traced perfbench run's counters with the committed baseline.

Usage, from the repository root::

    python3 perfbench/run.py --workload all --seed 1 --trace 1 | tee perfbench.log
    python3 benchmarks/compare_counters.py perfbench.log benchmarks/baseline/perfbench_seed1.json

The counters are every per-layer metric with unit ``count`` or
``ratio``, except ``agenp.loop.latency_drift``, which comes from
timings.  They do not jitter: two runs at one commit agree on every
value under any hash seed, so any difference means the change moved the
work the program does.  The script prints each differing
``workload/metric`` key and exits 1; it exits 0 when all agree.  A
change that moves counters on purpose regenerates the baseline in the
same commit::

    python3 -c "import json, sys; sys.path.insert(0, 'benchmarks'); import compare_counters as c; print(json.dumps(c.counters('perfbench.log'), indent=2, sort_keys=True))" > benchmarks/baseline/perfbench_seed1.json
"""

import json
import sys

TIMING_RATIOS = {"agenp.loop.latency_drift"}


def counters(log_path):
    """``{workload: {metric: value}}`` from the last JSON line of a run."""
    with open(log_path, encoding="utf-8") as handle:
        last = [line for line in handle if line.startswith("{")][-1]
    return {
        workload: {
            name: metric["value"]
            for name, metric in metrics.items()
            if metric["unit"] in ("count", "ratio") and name not in TIMING_RATIOS
        }
        for workload, metrics in json.loads(last)["metrics"].items()
    }


def differences(run, baseline):
    """The ``workload/metric`` keys whose values differ or exist on one side only."""
    flat = [
        {f"{workload}/{name}": value for workload, values in side.items() for name, value in values.items()}
        for side in (run, baseline)
    ]
    keys = sorted(set(flat[0]) | set(flat[1]))
    return [(key, flat[0].get(key), flat[1].get(key)) for key in keys if flat[0].get(key) != flat[1].get(key)]


def main(argv):
    if len(argv) != 2:
        print("usage: compare_counters.py <perfbench log> <baseline json>", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        baseline = json.load(handle)
    run = counters(argv[0])
    diffs = differences(run, baseline)
    for key, got, want in diffs:
        print(f"{key}: run {got}, baseline {want}")
    total = sum(len(values) for values in baseline.values())
    print(f"{len(diffs)} of {total} baseline counters differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
