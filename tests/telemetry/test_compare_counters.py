"""The counter-baseline gate: a moved counter fails the comparison."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "benchmarks", "compare_counters.py")
BASELINE = os.path.join(ROOT, "benchmarks", "baseline", "perfbench_seed1.json")


def compare(tmp_path, baseline):
    """Run the gate on a perfbench log that reproduces the committed baseline."""
    with open(BASELINE, encoding="utf-8") as handle:
        committed = json.load(handle)
    metrics = {
        workload: {name: {"value": value, "unit": "count"} for name, value in values.items()}
        for workload, values in committed.items()
    }
    # timings and the timing-derived ratio are not counters
    for values in metrics.values():
        values["asp.solve.self_s"] = {"value": 1.5, "unit": "s"}
        values["agenp.loop.latency_drift"] = {"value": 1.1, "unit": "ratio"}
    log = tmp_path / "perfbench.log"
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    log.write_text("workload ...\n" + json.dumps(result) + "\n", encoding="utf-8")
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline), encoding="utf-8")
    return subprocess.run(
        [sys.executable, SCRIPT, str(log), str(path)], capture_output=True, text=True, timeout=60
    )


def test_matching_counters_pass(tmp_path):
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    done = compare(tmp_path, baseline)
    assert done.returncode == 0, done.stdout
    assert "0 of 148 baseline counters differ" in done.stdout


def test_one_changed_counter_fails(tmp_path):
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline["asp_serve"]["asp.solve.propagations"] += 1
    done = compare(tmp_path, baseline)
    assert done.returncode == 1
    assert "asp_serve/asp.solve.propagations" in done.stdout
    assert "1 of 148 baseline counters differ" in done.stdout
