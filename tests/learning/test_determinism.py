"""Learned hypotheses do not depend on ``PYTHONHASHSEED``.

Every learning memo is keyed on hashed values (rules, atoms, frozensets
of candidates), so string hash randomization must never change which
hypothesis is found or the order its rules come out in.  One XACML
pipeline learn and one Figure 1 exact-learner task run in two fresh
interpreters with different hash seeds; their hypothesis text must match.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = r'''
import random

from repro.apps.xacml_case_study import XacmlLearningPipeline
from repro.asg import parse_asg
from repro.asp.atoms import Atom, Literal
from repro.asp.terms import Constant
from repro.core import Context, LabeledExample
from repro.datasets import default_ground_truth, sample_log
from repro.learning import ASGLearningTask, ILASPLearner, constraint_space

model = XacmlLearningPipeline().learn(sample_log(default_ground_truth(), 60, seed=1))
for candidate in model.rules:
    print("xacml", repr(candidate.rule))

GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
subject -> "carol" { is(carol). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
action  -> "delete" { is(delete). }
"""
pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob", "carol")]
pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write", "delete")]
pool += [Literal(Atom("alert"), sign) for sign in (True, False)]
rng = random.Random(3)
examples = []
for _ in range(24):
    subject = rng.choice(("alice", "bob", "carol"))
    action = rng.choice(("read", "write", "delete"))
    alert = rng.random() < 0.5
    valid = not (subject == "carol" and action == "delete") and not (action == "write" and alert)
    context = Context.from_attributes({"alert": alert})
    examples.append(LabeledExample(("allow", subject, action), context, valid=valid))
task = ASGLearningTask(
    parse_asg(GRAMMAR),
    constraint_space(pool, prod_ids=(0,), max_body=3),
    [e.to_context_example() for e in examples if e.valid],
    [e.to_context_example() for e in examples if not e.valid],
)
for candidate in ILASPLearner(task).learn().candidates:
    print("e1", repr(candidate))
'''


def test_hypotheses_identical_across_hash_seeds():
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=60)
        assert run.returncode == 0, stderr
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert sum(line.startswith("xacml ") for line in lines) == 2
    assert sum(line.startswith("e1 ") for line in lines) == 2
