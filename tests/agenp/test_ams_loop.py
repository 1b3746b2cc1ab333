"""Integration tests: the full Figure 2 closed loop."""

import pytest

from repro.agenp import AutonomousManagedSystem, CASWiki
from repro.core import Context, LabeledExample
from repro.policy import Decision, Request


def request(subject, action):
    return Request({"subject": {"id": subject}, "action": {"id": action}})


class TestBootstrap:
    def test_bootstrap_generates_full_language(self, ams):
        assert len(ams.policy_repository) == 4

    def test_model_stored_in_representations(self, ams):
        assert ams.model().version == 0


class TestDecisionLoop:
    def test_permit_when_policy_exists(self, ams):
        record = ams.decide(request("alice", "read"))
        assert record.decision is Decision.PERMIT
        assert record.policy_text == "allow alice read"

    def test_default_deny_when_no_policy(self, ams):
        record = ams.decide(Request({"subject": {"id": "carol"}, "action": {"id": "read"}}))
        assert record.decision is Decision.DENY
        assert ams.pdp.coverage_gap(record)

    def test_enforcement_runs_action(self, ams):
        result = ams.decide_and_enforce(request("bob", "read"), "read-file")
        assert result.executed
        assert ams.pep.resource.performed == ["read-file"]
        assert result.record.enforced
        assert ams.log.stats().enforced == 1  # the PEP writes through the log


class TestAdaptationLoop:
    def test_bad_outcome_triggers_adaptation(self, ams):
        record = ams.decide(request("bob", "write"))
        assert record.decision is Decision.PERMIT
        ams.give_feedback(record, ok=False)
        assert ams.adapt_if_needed()
        assert ams.model().version == 1
        after = ams.decide(request("bob", "write"))
        assert after.decision is Decision.DENY

    def test_good_outcomes_do_not_trigger(self, ams):
        record = ams.decide(request("alice", "read"))
        ams.give_feedback(record, ok=True)
        assert not ams.adapt_if_needed()
        assert ams.model().version == 0

    def test_positive_feedback_protects_policies(self, ams):
        # confirm alice/read and bob/read as good, bob/write as bad:
        # adaptation must keep the good ones valid
        for subject, action in (("alice", "read"), ("bob", "read")):
            record = ams.decide(request(subject, action))
            ams.give_feedback(record, ok=True)
        bad = ams.decide(request("bob", "write"))
        ams.give_feedback(bad, ok=False)
        assert ams.adapt_if_needed()
        assert ams.decide(request("alice", "read")).decision is Decision.PERMIT
        assert ams.decide(request("bob", "read")).decision is Decision.PERMIT
        assert ams.decide(request("bob", "write")).decision is Decision.DENY

    def test_direct_examples_feed_learning(self, ams):
        ams.add_example(LabeledExample(("allow", "alice", "write"), valid=False))
        ams.padap.adapt()
        ams.refresh_policies()
        assert ams.decide(request("alice", "write")).decision is Decision.DENY


class TestContextSwitch:
    def test_context_change_regenerates(self, ams, specification):
        record = ams.decide(request("bob", "write"))
        ams.give_feedback(record, ok=False)
        ams.adapt_if_needed()
        assert ams.decide(request("bob", "write")).decision is Decision.DENY
        # bob/write was fine during an emergency: teach that, switch context
        emergency = Context.from_attributes({"emergency": True}, name="emergency")
        ams.add_example(LabeledExample(("allow", "bob", "write"), emergency, valid=True))
        ams.padap.adapt()
        ams.set_context(emergency)
        ams.refresh_policies()
        assert ams.decide(request("bob", "write")).decision is Decision.PERMIT


class TestSharing:
    def test_share_and_import(self, ams, specification, interpreter, schema):
        wiki = CASWiki()
        ams.share(wiki)
        assert len(wiki) == len(ams.policy_repository)

        other = AutonomousManagedSystem("ams2", specification, interpreter, schema)
        other.bootstrap(Context.from_attributes({}, name="normal"))
        # make ams2 stricter: it has learned alice must not write
        other.add_example(LabeledExample(("allow", "alice", "write"), valid=False))
        other.padap.adapt()
        other.refresh_policies()
        adopted, rejected = other.import_shared(wiki, min_trust=0.0)
        adopted_texts = {p.text for p in adopted}
        # the shared alice-write policy violates ams2's local model
        assert "allow alice write" not in adopted_texts
        assert any(o.policy.text == "allow alice write" for o in rejected)

    def test_ratings_move_trust(self, ams, specification, interpreter, schema):
        wiki = CASWiki()
        ams.share(wiki)
        other = AutonomousManagedSystem("ams2", specification, interpreter, schema)
        other.bootstrap(Context.from_attributes({}, name="normal"))
        other.import_shared(wiki, min_trust=0.0)
        assert wiki.trust("ams1") > 0.5  # all adoptions succeeded
