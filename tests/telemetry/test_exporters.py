"""Summaries as artifacts: summarisation, rendering, and the report CLI."""

import json

from repro.telemetry import Tracer, format_summary, incr, merge, summarize, tracer_scope
from repro.telemetry.report import main as report_main


def make_summary():
    tracer = Tracer()
    with tracer_scope(tracer):
        with tracer.span("asp.solve"):
            incr("solver.models", 2)
        with tracer.span("asp.solve"):
            incr("solver.models", 1)
        with tracer.span("pdp.decide"):
            with tracer.span("asp.solve"):
                pass
    return summarize(tracer)


def write_summary(path, summary=None):
    path.write_text(json.dumps(summary or make_summary()), encoding="utf-8")
    return str(path)


def test_summary_json_round_trip(tmp_path):
    summary = make_summary()
    with open(write_summary(tmp_path / "BENCH_x.json", summary), encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded == summary
    # a loaded artifact merges back to the in-memory summary it came from
    assert merge([loaded]) == summary


def test_summarize_latency_and_counters():
    summary = make_summary()
    assert summary["operations"]["asp.solve"]["count"] == 3
    assert summary["operations"]["pdp.decide"]["count"] == 1
    assert summary["counters"]["solver.models"] == 3
    assert summary["roots"]["count"] == 3
    for row in summary["operations"].values():
        assert 0.0 <= row["p50"] <= row["p95"] <= row["max"]
        assert 0.0 <= row["self"] <= row["total"]


def test_format_summary_renders_table():
    text = format_summary(make_summary())
    assert "asp.solve" in text
    assert "solver.models" in text
    assert "p95" in text
    assert "self s" in text


def test_report_cli_table_and_json(tmp_path, capsys):
    first = write_summary(tmp_path / "BENCH_a.json")
    second = write_summary(tmp_path / "BENCH_b.json")
    assert report_main([first, second]) == 0
    out = capsys.readouterr().out
    assert "asp.solve" in out
    assert "self s" in out
    assert "from 2 file(s)" in out

    assert report_main([first, second, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"]["solver.models"] == 6
    assert payload["operations"]["asp.solve"]["count"] == 6


def test_report_cli_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert report_main([str(missing)]) == 2
    assert f"error: cannot read {missing}:" in capsys.readouterr().err


def test_report_cli_rejects_non_json(tmp_path, capsys):
    truncated = tmp_path / "BENCH_cut.json"
    truncated.write_text(json.dumps(make_summary())[:40], encoding="utf-8")
    assert report_main([str(truncated)]) == 2
    assert f"error: cannot read {truncated}:" in capsys.readouterr().err


def test_report_cli_rejects_non_summary_json(tmp_path, capsys):
    for index, payload in enumerate(
        [
            [1, 2, 3],
            {"operations": {}, "counters": {}},
            {"operations": {"op": {"count": 1}}, "counters": {}, "roots": {}},
        ]
    ):
        path = tmp_path / f"other{index}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert report_main([str(path)]) == 2
        assert f"error: cannot read {path}: not a telemetry summary" in capsys.readouterr().err


def test_report_cli_quiet_when_reader_closes_early(tmp_path):
    import os
    import subprocess
    import sys

    tracer = Tracer()
    with tracer_scope(tracer):
        for i in range(3000):  # a table far larger than a pipe buffer
            with tracer.span(f"op.{i:04d}"):
                pass
    path = write_summary(tmp_path / "BENCH_big.json", summarize(tracer))
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.telemetry.report", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.readline()  # like `| head -1`
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
