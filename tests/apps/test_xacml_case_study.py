"""Tests for the XACML case study (paper Section IV.C / Figure 3)."""

import pytest

from repro.apps.xacml_case_study import (
    LearnedPolicyModel,
    XacmlLearningPipeline,
    semantic_accuracy,
)
from repro.datasets import (
    default_ground_truth,
    inject_flips,
    inject_not_applicable,
    per_user_ground_truth,
    sample_log,
)
from repro.policy import Decision, Request


class TestCleanLearning:
    """Figure 3a: correctly learned policies."""

    @pytest.fixture(scope="class")
    def model(self):
        log = sample_log(default_ground_truth(), 60, seed=1)
        return XacmlLearningPipeline().learn(log)

    def test_exact_rule_recovery(self, model):
        assert model.rule_texts() == [
            "decision(permit) :- role(dba), rtype(db).",
            "decision(permit) :- role(dev), action(read).",
        ]

    def test_full_semantic_accuracy(self, model):
        assert semantic_accuracy(model, default_ground_truth()) == 1.0

    def test_decide_interface(self, model):
        permit = Request(
            {
                "subject": {"id": "u1", "role": "dba"},
                "action": {"id": "write"},
                "resource": {"type": "db"},
            }
        )
        assert model.decide(permit) is Decision.PERMIT


class TestOverfitting:
    """Figure 3b Policy 1: narrow logs induce non-transferable policies;
    the background-knowledge/statistics mitigation restores role-level
    generalization."""

    def test_narrow_log_can_learn_user_specific_policy(self):
        log = sample_log(default_ground_truth(), 40, seed=2, users=("u1", "u5"))
        plain = XacmlLearningPipeline().learn(log)
        mitigated = XacmlLearningPipeline(prefer_general=True).learn(log)
        plain_acc = semantic_accuracy(plain, default_ground_truth())
        mitigated_acc = semantic_accuracy(mitigated, default_ground_truth())
        assert mitigated_acc >= plain_acc
        # role-based rules transfer; the mitigation must not mention users
        assert all("user(" not in t for t in mitigated.rule_texts())


class TestUnsafeGeneralization:
    """Figure 3b Policy 2: per-user grants over-generalize to the whole
    role without the target-based restriction."""

    def test_restriction_prevents_role_generalization(self):
        gt = per_user_ground_truth(["u1"])
        log = sample_log(gt, 50, seed=3, users=("u1", "u2"))
        unrestricted = XacmlLearningPipeline(max_body=3).learn(log)
        restricted = XacmlLearningPipeline(max_body=3, require_target=True).learn(log)
        # every learned rule in the restricted run pins a user
        assert all("user(" in t for t in restricted.rule_texts())
        sibling = Request(
            {
                "subject": {"id": "u2", "role": "dba"},
                "action": {"id": "write"},
                "resource": {"type": "db"},
            }
        )
        # the restricted model never leaks the grant to u2
        assert restricted.decide(sibling) is Decision.DENY

    def test_restricted_model_still_grants_u1(self):
        gt = per_user_ground_truth(["u1"])
        log = sample_log(gt, 50, seed=3, users=("u1", "u2"))
        restricted = XacmlLearningPipeline(max_body=3, require_target=True).learn(log)
        granted = Request(
            {
                "subject": {"id": "u1", "role": "dba"},
                "action": {"id": "write"},
                "resource": {"type": "db"},
            }
        )
        assert restricted.decide(granted) is Decision.PERMIT


class TestUnsafeGeneralizationWithoutCounterEvidence:
    def test_plain_learner_can_leak_grant_to_role(self):
        """The paper's exact setup: many DBAs, but the log shows only one
        being granted — without the restriction the grant can generalize."""
        gt = per_user_ground_truth(["u1"])
        log = sample_log(gt, 50, seed=3, users=("u1",))
        plain = XacmlLearningPipeline(max_body=3).learn(log)
        restricted = XacmlLearningPipeline(max_body=3, require_target=True).learn(log)
        sibling = Request(
            {
                "subject": {"id": "u2", "role": "dba"},
                "action": {"id": "write"},
                "resource": {"type": "db"},
            }
        )
        # the restricted model never leaks; the plain one is allowed to
        # (whether it does depends on tie-breaking, so only the safe
        # direction is asserted)
        assert restricted.decide(sibling) is Decision.DENY


class TestStrictLearnerCollapse:
    def test_strict_learner_fails_closed_on_contradictions(self):
        gt = default_ground_truth()
        log = sample_log(gt, 40, seed=5)
        noisy = log + inject_flips(log, rate=1.0, seed=5)  # total contradiction
        model = XacmlLearningPipeline(strict=True).learn(noisy)
        assert model.rules == []  # deny-by-default remains

    def test_strict_learner_fine_on_clean_data(self):
        gt = default_ground_truth()
        model = XacmlLearningPipeline(strict=True).learn(sample_log(gt, 40, seed=5))
        assert semantic_accuracy(model, gt) == 1.0


class TestNoisyData:
    """Figure 3b Policy 3 + the filtering mitigation."""

    def test_filtering_restores_accuracy_under_flips(self):
        gt = default_ground_truth()
        log = inject_flips(sample_log(gt, 60, seed=4), rate=0.15, seed=4)
        # duplicate entries give the majority filter signal
        log = log + sample_log(gt, 60, seed=5) + sample_log(gt, 60, seed=6)
        filtered = XacmlLearningPipeline(filter_noise=True).learn(log)
        assert semantic_accuracy(filtered, gt) == 1.0

    def test_not_applicable_learnable_as_failure_mode(self):
        from repro.datasets import mark_gaps_not_applicable

        gt = default_ground_truth()
        # a realistic PDP log: gap requests carry NotApplicable
        log = mark_gaps_not_applicable(sample_log(gt, 40, seed=7), gt)
        model = XacmlLearningPipeline(
            allow_irrelevant_head=True, max_violations=0
        ).learn(log)
        # the failure mode: rules concluding not_applicable get learned
        assert any("not_applicable" in t for t in model.rule_texts())

    def test_filtering_removes_irrelevant_responses(self):
        gt = default_ground_truth()
        log = inject_not_applicable(sample_log(gt, 60, seed=8), rate=0.3, seed=8)
        model = XacmlLearningPipeline(filter_noise=True).learn(log)
        assert all("not_applicable" not in t for t in model.rule_texts())
        assert semantic_accuracy(model, gt) >= 0.9


class TestOracleWork:
    """Learning from a noisy log costs a few solves per distinct example."""

    def test_solves_per_distinct_example_and_one_coverage_build(self, monkeypatch):
        from repro.datasets.xacml_conformance import entry_to_example
        from repro.learning import decomposable, tasks

        ground_truth = default_ground_truth()
        log = (
            inject_flips(sample_log(ground_truth, 60, seed=4), rate=0.2, seed=4)
            + sample_log(ground_truth, 60, seed=5)
            + sample_log(ground_truth, 60, seed=6)
        )
        assert len(log) == 180
        distinct = len({entry_to_example(e).key() for e in log})

        calls = {"solve": 0, "build": 0, "learn": 0}
        real_solve = tasks.solve
        real_build = decomposable.DecomposableLearner._build_models
        real_learn = decomposable.DecomposableLearner.learn

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return real_solve(*args, **kwargs)

        def counting_build(self, space):
            calls["build"] += 1
            return real_build(self, space)

        def counting_learn(self):
            calls["learn"] += 1
            return real_learn(self)

        monkeypatch.setattr(tasks, "solve", counting_solve)
        monkeypatch.setattr(
            decomposable.DecomposableLearner, "_build_models", counting_build
        )
        monkeypatch.setattr(decomposable.DecomposableLearner, "learn", counting_learn)
        model = XacmlLearningPipeline().learn(log)
        assert semantic_accuracy(model, ground_truth) == 1.0
        assert calls["solve"] <= 4 * distinct
        # the noise makes learn_auto try several violation budgets; they
        # share one coverage model
        assert calls["learn"] > 1
        assert calls["build"] == 1
