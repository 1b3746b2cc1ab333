"""E14 — static analysis and the solver's tightness skip.

Builds E3-style access-control programs (roles, resource types, definite
permit rules with stratified negation) at increasing scale, runs the
lint+solve cell over each, and compares the solver, which skips the
Gelfond–Lifschitz check on tight ground programs, against an
always-verify reference.

Expected shape: the linter certifies the workload clean, every
Gelfond–Lifschitz stability check is skipped
(``stability_checks == 0``, ``stability_skips == models``), and both
configurations return identical answer sets.  Tightness, not
stratification, decides the skip: an unstratified but tight variant
still skips, a variant with a positive loop keeps checking.
"""

import pytest

from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.solver import AnswerSetSolver

from common import lint_and_solve


class AlwaysVerifySolver(AnswerSetSolver):
    """Reference solver: every candidate takes the reduct check."""

    def is_tight(self) -> bool:
        return False


def reference_solve(program):
    return AlwaysVerifySolver(ground_program(program)).solve()

ROLES = ("dba", "dev", "auditor")
ROOTS = ("permit",)


def workload(n_users, n_resources):
    """A stratified, tight access-control program of the E3 shape."""
    lines = []
    for u in range(n_users):
        lines.append(f"role(u{u}, {ROLES[u % len(ROLES)]}).")
    for r in range(n_resources):
        rtype = "db" if r % 2 == 0 else "doc"
        lines.append(f"rtype(r{r}, {rtype}).")
        if r % 3 == 0:
            lines.append(f"sensitive(r{r}).")
    lines += [
        "permit(U, R) :- role(U, dba), rtype(R, db).",
        "permit(U, R) :- role(U, dev), rtype(R, doc), not sensitive(R).",
        "permit(U, R) :- role(U, auditor), rtype(R, T), not sensitive(R).",
    ]
    return parse_program("\n".join(lines))


def normalized(models):
    return sorted(sorted(str(a) for a in m) for m in models)


@pytest.mark.parametrize("n_users,n_resources", [(6, 8), (12, 16), (24, 32)])
def test_lint_and_solve_cell(report, benchmark, n_users, n_resources):
    program = workload(n_users, n_resources)

    diagnostics, fast = lint_and_solve(program, source="e14", roots=ROOTS)
    slow = reference_solve(program)

    # the linter certifies the workload clean...
    assert [d for d in diagnostics if d.is_error] == []
    # ...the tight program skips every stability check...
    assert fast.stats.stability_checks == 0
    assert fast.stats.stability_skips > 0
    assert slow.stats.stability_skips == 0
    assert slow.stats.stability_checks > 0
    # ...and answers are identical (differential guarantee)
    assert normalized(fast) == normalized(slow)

    report(
        f"E14 — static analysis and tightness skip ({n_users} users, {n_resources} resources)",
        f"{'config':>14} {'models':>7} {'GL checks':>10} {'GL skips':>9} {'steps':>8}",
        f"{'tight skip':>14} {len(fast):>7} {fast.stats.stability_checks:>10} "
        f"{fast.stats.stability_skips:>9} {fast.stats.steps:>8}",
        f"{'always-check':>14} {len(slow):>7} {slow.stats.stability_checks:>10} "
        f"{slow.stats.stability_skips:>9} {slow.stats.steps:>8}",
    )

    benchmark.pedantic(
        lambda: lint_and_solve(program, source="e14", roots=ROOTS),
        rounds=3,
        iterations=1,
    )


def test_lint_overhead_is_small(report, benchmark):
    """Linting is static (no grounding): it must be cheap relative to solving."""
    import time

    program = workload(24, 32)
    start = time.monotonic()
    diagnostics, result = lint_and_solve(program, source="e14", roots=ROOTS)
    total = time.monotonic() - start

    from repro.analysis import lint_program

    start = time.monotonic()
    lint_program(program, source="e14", roots=ROOTS)
    lint_only = time.monotonic() - start

    assert diagnostics == lint_program(program, source="e14", roots=ROOTS)
    report(
        "E14 — lint overhead",
        f"lint-only: {lint_only * 1e3:.2f} ms of {total * 1e3:.2f} ms total "
        f"({100 * lint_only / max(total, 1e-9):.1f}%)",
    )
    benchmark.pedantic(
        lambda: lint_program(program, source="e14", roots=ROOTS),
        rounds=5,
        iterations=1,
    )


def with_rules(base, *extra):
    return parse_program("\n".join([repr(r) for r in base.rules] + list(extra)))


def test_unstratified_tight_workload_skips_checks(report):
    """An even loop is unstratified but tight: the linter flags it, the
    solver still skips every stability check, and answers match."""
    program = with_rules(
        workload(6, 8),
        "review(R) :- rtype(R, db), not cleared(R).",
        "cleared(R) :- rtype(R, db), not review(R).",
    )
    diagnostics, result = lint_and_solve(
        program, source="e14_unstratified", roots=ROOTS + ("review", "cleared")
    )
    reference = reference_solve(program)
    assert any(d.code == "ASP002" for d in diagnostics)
    assert normalized(result) == normalized(reference)
    assert result.stats.stability_checks == 0
    assert result.stats.stability_skips == len(result) > 1
    report(
        "E14 — unstratified but tight",
        f"models={len(result)} GL checks={result.stats.stability_checks} "
        f"skips={result.stats.stability_skips} (ASP002 reported by the linter; "
        f"reference paid {reference.stats.stability_checks} checks)",
    )


def test_non_tight_workload_keeps_full_checking(report):
    """Differential control: a positive loop that survives grounding
    makes the program non-tight, so every candidate is checked."""
    program = with_rules(
        workload(6, 8),
        "locked.",
        "unlock(R) :- rtype(R, db), not locked.",
        "grant(R) :- unlock(R).",
        "escalate(R) :- grant(R).",
        "grant(R) :- escalate(R).",
    )
    diagnostics, result = lint_and_solve(
        program, source="e14_non_tight", roots=ROOTS + ("grant", "escalate")
    )
    reference = reference_solve(program)
    assert normalized(result) == normalized(reference)
    assert not any(a.predicate in ("grant", "escalate") for a in result[0])
    assert result.stats.stability_skips == 0
    assert result.stats.stability_checks > 0
    report(
        "E14 — non-tight control",
        f"models={len(result)} GL checks={result.stats.stability_checks} "
        f"(positive grant/escalate loop: the skip is correctly disabled)",
    )
