"""Unit tests for goal-based policies (Section I's second policy type)."""

import random

import pytest

from repro.errors import PolicyError
from repro.policy.goals import DeadlineGoal, GoalMonitor, ThresholdGoal


class TestThresholdGoal:
    def test_satisfied(self):
        goal = ThresholdGoal("util", "utilization", "ge", 0.5)
        status = goal.evaluate(1, {"utilization": 0.7})
        assert status.satisfied
        assert "meets" in status.detail

    def test_violated(self):
        goal = ThresholdGoal("util", "utilization", "ge", 0.5)
        assert not goal.evaluate(1, {"utilization": 0.3}).satisfied

    def test_missing_metric_violates(self):
        goal = ThresholdGoal("util", "utilization", "ge", 0.5)
        status = goal.evaluate(1, {})
        assert not status.satisfied
        assert "not reported" in status.detail

    @pytest.mark.parametrize(
        "op,value,expected",
        [("gt", 5, False), ("gt", 6, True), ("le", 5, True), ("lt", 5, False)],
    )
    def test_operators(self, op, value, expected):
        goal = ThresholdGoal("g", "m", op, 5)
        assert goal.evaluate(1, {"m": value}).satisfied is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(PolicyError):
            ThresholdGoal("g", "m", "approximately", 5)


class TestDeadlineGoal:
    def test_in_progress_before_deadline(self):
        goal = DeadlineGoal("resupply", "delivered", deadline=5)
        assert goal.evaluate(3, {"delivered": False}).satisfied

    def test_completed(self):
        goal = DeadlineGoal("resupply", "delivered", deadline=5)
        assert goal.evaluate(9, {"delivered": True}).satisfied

    def test_missed(self):
        goal = DeadlineGoal("resupply", "delivered", deadline=5)
        status = goal.evaluate(6, {"delivered": False})
        assert not status.satisfied
        assert "missed" in status.detail


class TestGoalMonitor:
    def test_stream_tracking(self):
        monitor = GoalMonitor(
            [
                ThresholdGoal("util", "utilization", "ge", 0.5),
                DeadlineGoal("task", "done", deadline=2),
            ]
        )
        monitor.observe({"utilization": 0.8, "done": False})  # both ok
        monitor.observe({"utilization": 0.4, "done": False})  # util fails
        monitor.observe({"utilization": 0.9, "done": False})  # deadline missed
        assert len(monitor.history) == 6
        assert len(monitor.violations()) == 2
        assert monitor.needs_adaptation()

    def test_compliance_rates(self):
        monitor = GoalMonitor([ThresholdGoal("util", "u", "ge", 1)])
        monitor.observe({"u": 2})
        monitor.observe({"u": 0})
        assert monitor.compliance_rate() == 0.5
        assert monitor.compliance_rate("util") == 0.5

    def test_no_history_is_compliant(self):
        monitor = GoalMonitor([ThresholdGoal("g", "m", "ge", 1)])
        assert monitor.compliance_rate() == 1.0
        assert not monitor.needs_adaptation()

    def test_duplicate_goal_names_rejected(self):
        with pytest.raises(PolicyError):
            GoalMonitor(
                [ThresholdGoal("g", "a", "ge", 1), ThresholdGoal("g", "b", "le", 2)]
            )

    def test_running_violation_count_matches_history_scan(self):
        rng = random.Random(7)
        monitor = GoalMonitor(
            [
                ThresholdGoal("util", "utilization", "ge", 0.5),
                ThresholdGoal("lat", "latency", "lt", 30),
                DeadlineGoal("task", "done", deadline=40),
            ]
        )
        for __ in range(200):
            metrics = {"utilization": rng.random(), "done": rng.random() < 0.02}
            if rng.random() < 0.9:  # sometimes the latency metric is missing
                metrics["latency"] = rng.randrange(60)
            monitor.observe(metrics)
            scanned = sum(1 for status in monitor.history if not status.satisfied)
            assert monitor.violation_count == scanned == len(monitor.violations())
            assert monitor.needs_adaptation() == (scanned > 0)
