"""The blessed top-level API surface."""

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_blessed_surface():
    # the serving loop's entry points are all one import away
    assert {
        "PolicyEngine",
        "solve_text",
        "parse_asg",
        "lint_paths",
        "Budget",
        "tracer_scope",
    } <= set(repro.__all__)


def test_facade_solve_text():
    result = repro.solve_text("a :- not b. b :- not a.")
    assert len(result) == 2
    assert result.stats.models == 2  # SolveResult, not a bare list


def test_facade_lint_paths(tmp_path):
    good = tmp_path / "good.lp"
    good.write_text("p(1). q(X) :- p(X).\n")
    diagnostics = repro.lint_paths([good])
    assert all(not d.is_error for d in diagnostics)
    missing = repro.lint_paths([tmp_path / "nope.lp"])
    assert len(missing) == 1 and missing[0].code == "SYN001"


def test_facade_engine_roundtrip():
    engine = repro.PolicyEngine()
    first = engine.solve_text("a. b :- a.")
    second = engine.solve_text("a. b :- a.")
    assert list(first) == list(second)
    assert engine.stats().caches["solve"]["hits"] == 1


def test_unknown_attribute_still_raises():
    for name in ("definitely_not_a_name", "solve", "Engine", "lint_path"):
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)


def test_docstring_serving_loop_runs(capsys):
    """The package docstring's serving-loop example runs as written."""
    import textwrap

    from repro.agenp.interpreters import FieldInterpreter
    from repro.agenp.repositories import PolicyRepository, StoredPolicy
    from repro.policy import Request

    example = repro.__doc__.split("the common serving loop::\n")[1].split("\nEverything else")[0]
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    namespace = {
        "asg_text": 'policy -> "allow" subject action\nsubject -> "alice"\naction -> "read"\n',
        "repository": repository,
        "interpreter": FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")}),
        "requests": [Request({"subject": {"id": "alice"}, "action": {"id": "read"}})] * 2,
    }
    exec(textwrap.dedent(example), namespace)
    assert [r.decision.value for r in namespace["records"]] == ["permit", "permit"]
    assert namespace["tracer"].operations["engine.decide_many"]["count"] == 1
    assert "engine.decide_many" in capsys.readouterr().out
