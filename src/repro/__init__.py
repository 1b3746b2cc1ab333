"""AGENP: An ASGrammar-based GENerative Policy framework.

A complete, from-scratch reproduction of *"Generative Policies for
Coalition Systems - A Symbolic Learning Framework"* (Bertino et al.,
ICDCS 2019), including its substrates:

* :mod:`repro.asp` - an Answer Set Programming engine (parser, grounder,
  solver with exact stability checking), standing in for clingo;
* :mod:`repro.grammar` - context-free grammars, Earley parsing, language
  enumeration;
* :mod:`repro.asg` - Answer Set Grammars (Section II);
* :mod:`repro.learning` - ILASP-style inductive learning, including the
  context-dependent ASG learning task of Definition 3;
* :mod:`repro.core` - generative policy models and the Figure 1 workflow;
* :mod:`repro.policy` - XACML-lite policies, evaluation, quality metrics,
  conflicts, counterfactual explanations (Sections IV.C, V.A, V.B);
* :mod:`repro.agenp` - the full Figure 2 architecture, plus the
  multi-party coalition fabric;
* :mod:`repro.engine` - the high-throughput serving engine
  (content-keyed caches, batched PDP decisions);
* :mod:`repro.analysis` - static analysis (linting) for policies,
  grammars, and learning tasks;
* :mod:`repro.telemetry` - structured tracing and profiling;
* :mod:`repro.nl` - controlled-English policy intents to grammars
  (Section III.B);
* :mod:`repro.baselines` - shallow-ML comparators (Section IV.A);
* :mod:`repro.apps` - the application domains of Section IV;
* :mod:`repro.datasets` - synthetic dataset generators with pathology
  injection for the Figure 3 case study.

The blessed top-level API re-exports the handful of entry points that
cover the common serving loop::

    import repro

    models = repro.solve_text("a :- not b. b :- not a.")
    grammar = repro.parse_asg(asg_text)
    engine = repro.PolicyEngine(repository, interpreter)
    with repro.tracer_scope(repro.telemetry.Tracer()) as tracer:
        records = engine.decide_many(requests)
    print(repro.telemetry.format_summary(repro.telemetry.summarize(tracer)))

Everything else stays importable from its subsystem module.
"""

__version__ = "0.1.0"

from repro.errors import ReproError
from repro.analysis import lint_paths
from repro.asg import accepts, parse_asg
from repro.asp import is_satisfiable_text, solve_program, solve_text
from repro.engine import PolicyEngine
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import tracer_scope

__all__ = [
    "PolicyEngine",
    "solve_text",
    "solve_program",
    "is_satisfiable_text",
    "parse_asg",
    "accepts",
    "lint_paths",
    "Budget",
    "budget_scope",
    "tracer_scope",
    "ReproError",
    "__version__",
]
