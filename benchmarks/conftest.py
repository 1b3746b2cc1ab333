"""Shared benchmark utilities.

Each benchmark module regenerates one of the paper's tables/figures
(see DESIGN.md's experiment index).  Timing comes from pytest-benchmark;
the reproduced rows/series are printed straight to the terminal via the
``report`` fixture so they appear in ``bench_output.txt`` even under
pytest's output capturing.

Every benchmark module also runs under an ambient telemetry tracer
(``module_telemetry`` below): the spans of the instrumented engine
layers fold into per-operation aggregates, written as a ``summarize()``
report to ``benchmarks/artifacts/BENCH_<module>.json`` — see
``common.py``.
"""

import pytest

from common import telemetry_session


@pytest.fixture
def report(capsys):
    """Print experiment tables to the real terminal, bypassing capture."""

    def _print(*lines):
        with capsys.disabled():
            print()
            for line in lines:
                print(line)

    return _print


@pytest.fixture(scope="module", autouse=True)
def module_telemetry(request):
    """Trace each benchmark module into its own BENCH_* summary."""
    name = request.module.__name__
    if name.startswith("bench_"):
        name = name[len("bench_"):]
    with telemetry_session(name) as tracer:
        yield tracer

