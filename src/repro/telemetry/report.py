"""Summary-report CLI: ``python -m repro.telemetry.report BENCH_*.json ...``

Merges telemetry summaries (the ``BENCH_<module>.json`` artifacts
benchmarks write) and prints per-operation count, p50/p95/max latency,
inclusive and self time, plus counter totals; ``--json`` prints the
merged summary instead.  An unreadable, non-JSON or non-summary file
exits with status 2.  A reader that closes the pipe early (``| head``)
ends the report quietly with status 141, as a process killed by SIGPIPE
would; success is status 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.telemetry.summary import ROW_KEYS, format_summary, merge

__all__ = ["main"]


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    if not isinstance(summary, dict) or not all(
        isinstance(summary.get(key), dict) for key in ("operations", "counters", "roots")
    ):
        raise ValueError("not a telemetry summary")
    for name, row in summary["operations"].items():
        if not isinstance(row, dict) or not all(key in row for key in ROW_KEYS):
            raise ValueError(f"not a telemetry summary (bad row for {name!r})")
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Merge telemetry summaries (per-operation latency, self time, counters).",
    )
    parser.add_argument("paths", nargs="+", help="summary files (BENCH_*.json) to merge")
    parser.add_argument(
        "--json", action="store_true", help="emit the merged summary as JSON instead of a table"
    )
    args = parser.parse_args(argv)

    summaries = []
    for path in args.paths:
        try:
            summaries.append(_load(path))
        except (OSError, ValueError) as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
    summary = merge(summaries)
    if args.json:
        text = json.dumps(summary, indent=2, sort_keys=True)
    else:
        spans = sum(row["count"] for row in summary["operations"].values())
        title = f"telemetry summary — {spans} spans from {len(args.paths)} file(s)"
        text = format_summary(summary, title=title)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
