"""Static analysis for policies, grammars, and learning tasks.

The paper's policy-checking point (PCP, Section IV) gates generated
policies before enforcement; this package supplies the *static* half of
that gate — analyses that run without grounding or solving:

* :mod:`repro.analysis.diagnostics` — :class:`Diagnostic` records with
  stable codes, severities, source spans, and text/JSON rendering;
* :mod:`repro.analysis.asp_lint` — safety, stratification, definedness,
  arity, and dead-rule lints over parsed ASP programs (ASP001–ASP007);
* :mod:`repro.analysis.grammar_lint` — reachability/productivity lints
  over CFGs (GRM001–GRM003);
* :mod:`repro.analysis.asg_lint` — annotation lints over answer set
  grammars (ASG001–ASG002);
* :mod:`repro.analysis.mode_lint` — mode-bias lints over learning tasks
  (MB001–MB002).

The dependency-graph algorithms (Tarjan SCCs, stratification, tightness)
live in :mod:`repro.asp.graphs`, next to the solver that shares them,
and are re-exported here.

Run the CLI with ``python -m repro.analysis lint <paths>``.
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    DiagnosticCollector,
    diagnostics_from_json,
)
from repro.asp.graphs import (
    StratificationResult,
    check_stratification,
    has_cycle,
    tarjan_scc,
)
from repro.analysis.asp_lint import (
    lint_program,
    lint_rules,
    predicate_dependencies,
    stratification,
)
from repro.analysis.grammar_lint import lint_cfg
from repro.analysis.asg_lint import lint_asg
from repro.analysis.mode_lint import lint_task
from repro.analysis.cli import lint_path, lint_paths, main

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "Diagnostic",
    "DiagnosticCollector",
    "diagnostics_from_json",
    "StratificationResult",
    "check_stratification",
    "has_cycle",
    "tarjan_scc",
    "lint_program",
    "lint_rules",
    "predicate_dependencies",
    "stratification",
    "lint_cfg",
    "lint_asg",
    "lint_task",
    "lint_path",
    "lint_paths",
    "main",
]
