"""Telemetry summaries: build, merge and render.

A summary is a JSON-serialisable dict: ``{"operations": {name: {count,
errors, total, self, max, p50, p95, buckets}}, "counters": {name:
total}, "roots": {count, total}}``, latencies in seconds.  ``self`` is
inclusive time minus that of direct child spans, so the ``self`` column
adds up to ``roots.total``.  p50/p95 are read off ``buckets``, the log
histogram (bucket index -> count), so :func:`merge` is exact.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.telemetry.tracer import Tracer, bucket_value, empty_row

__all__ = ["summarize", "merge", "format_summary", "ROW_KEYS"]

# The recorded fields of an operation row; p50/p95 are derived from them.
ROW_KEYS = ("count", "errors", "total", "self", "max", "buckets")


def _quantile(buckets: Dict[int, int], count: int, fraction: float, maximum: float) -> float:
    """Nearest-rank quantile read off the histogram (bucket midpoint)."""
    rank = round(fraction * (count - 1))
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen > rank:
            return min(bucket_value(index), maximum)
    return maximum


def _finish(
    operations: Dict[str, Dict[str, Any]], counters: Dict[str, int], roots: Dict[str, Any]
) -> Dict[str, Any]:
    rows = {
        name: {
            **row,
            "p50": _quantile(row["buckets"], row["count"], 0.50, row["max"]),
            "p95": _quantile(row["buckets"], row["count"], 0.95, row["max"]),
            "buckets": {str(index): row["buckets"][index] for index in sorted(row["buckets"])},
        }
        for name, row in sorted(operations.items())
    }
    return {"operations": rows, "counters": dict(sorted(counters.items())), "roots": roots}


def summarize(tracer: Tracer) -> Dict[str, Any]:
    """The summary of everything ``tracer`` has recorded so far."""
    roots = {"count": len(tracer.roots), "total": sum(r["duration"] for r in tracer.roots)}
    return _finish(tracer.operations, tracer.counters, roots)


def merge(summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine summaries as if their spans had gone to one tracer."""
    operations: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, int] = {}
    roots = {"count": 0, "total": 0.0}
    for summary in summaries:
        for name, row in summary["operations"].items():
            acc = operations.setdefault(name, empty_row())
            for key in ("count", "errors", "total", "self"):
                acc[key] += row[key]
            acc["max"] = max(acc["max"], row["max"])
            for index, n in row["buckets"].items():
                acc["buckets"][int(index)] = acc["buckets"].get(int(index), 0) + n
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
        roots["count"] += summary["roots"]["count"]
        roots["total"] += summary["roots"]["total"]
    return _finish(operations, counters, roots)


def format_summary(summary: Dict[str, Any], title: str = "telemetry summary") -> str:
    """Render a summary as an aligned text table, most self time first."""
    lines = [title, ""]
    operations = summary["operations"]
    if operations:
        lines.append(
            f"{'operation':<28} {'count':>8} {'errors':>6} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'max ms':>9} {'total s':>9} {'self s':>9}"
        )
        for name, row in sorted(operations.items(), key=lambda item: (-item[1]["self"], item[0])):
            lines.append(
                f"{name:<28} {row['count']:>8} {row['errors']:>6} "
                f"{row['p50'] * 1e3:>9.3f} {row['p95'] * 1e3:>9.3f} "
                f"{row['max'] * 1e3:>9.3f} {row['total']:>9.3f} {row['self']:>9.3f}"
            )
        roots = summary["roots"]
        lines.append(f"{roots['count']} root spans, {roots['total']:.3f} s inclusive")
    else:
        lines.append("(no spans)")
    if summary["counters"]:
        lines.append("")
        lines.append(f"{'counter':<40} {'total':>12}")
        for name, value in summary["counters"].items():
            lines.append(f"{name:<40} {value:>12}")
    return "\n".join(lines)
