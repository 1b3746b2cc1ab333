"""Tests for the coalition data-sharing application (paper Section IV.D)."""

import itertools

import pytest

from repro.apps.datasharing import (
    DataOffer,
    HELPERS,
    HelperSelectionLearner,
    correct_helper,
    datasharing_asg,
    offer_to_context,
    sample_offers,
    sharing_allowed,
)
from repro.apps.datasharing.domain import (
    DATA_TYPES,
    QUALITY_LEVELS,
    TRUST_LEVELS,
    VALUE_LEVELS,
)


class TestDoctrine:
    def test_documents_need_provenance(self):
        offer = DataOffer("trusted", "document", "high", "high")
        assert correct_helper(offer) == "provenance_verify"

    def test_untrusted_needs_deep_scan(self):
        offer = DataOffer("untrusted", "imagery", "high", "high")
        assert correct_helper(offer) == "deep_scan"

    def test_trusted_nondocument_basic(self):
        offer = DataOffer("trusted", "signal", "high", "low")
        assert correct_helper(offer) == "basic_check"

    def test_refusal_for_untrusted_low_quality(self):
        assert not sharing_allowed(DataOffer("untrusted", "signal", "low", "high"))
        assert sharing_allowed(DataOffer("trusted", "signal", "low", "high"))


class TestLearning:
    @pytest.fixture(scope="class")
    def fitted(self):
        return HelperSelectionLearner().fit(sample_offers(30, seed=1))

    def test_generalizes_to_unseen_offers(self, fitted):
        assert fitted.accuracy(sample_offers(60, seed=42)) >= 0.95

    def test_decision_for_each_case(self, fitted):
        assert fitted.decide(DataOffer("trusted", "document", "high", "high")) == (
            "route",
            "provenance_verify",
        )
        assert fitted.decide(DataOffer("untrusted", "imagery", "high", "low")) == (
            "route",
            "deep_scan",
        )
        assert fitted.decide(DataOffer("untrusted", "signal", "low", "low")) == (
            "refuse",
        )

    def test_decide_requires_fit(self):
        with pytest.raises(RuntimeError):
            HelperSelectionLearner().decide(
                DataOffer("trusted", "signal", "high", "high")
            )

    def test_correct_string_shapes(self):
        assert HelperSelectionLearner.correct_string(
            DataOffer("trusted", "imagery", "high", "high")
        ) == ("route", "basic_check")
        assert HelperSelectionLearner.correct_string(
            DataOffer("untrusted", "imagery", "low", "high")
        ) == ("refuse",)


class TestOracleWork:
    """Learning grounds once per (distinct example, parse tree)."""

    def test_grounds_at_most_once_per_tree_of_each_distinct_example(self, monkeypatch):
        from repro.asp import solver
        from repro.grammar import parse_trees
        from repro.learning import ContextExample

        offers = [
            DataOffer(*kind)
            for kind in itertools.product(
                TRUST_LEVELS, DATA_TYPES, QUALITY_LEVELS, VALUE_LEVELS
            )
        ]
        assert len(offers) == 24
        strings = [("refuse",)] + [("route", helper) for helper in HELPERS]
        distinct = {}
        for offer in offers:
            for string in strings:
                example = ContextExample(string, offer_to_context(offer).program)
                distinct[example.key()] = example
        cfg = datasharing_asg().cfg
        trees = sum(len(parse_trees(cfg, e.tokens)) for e in distinct.values())

        grounds = 0
        real_ground = solver.ground_program

        def counting_ground(*args, **kwargs):
            nonlocal grounds
            grounds += 1
            return real_ground(*args, **kwargs)

        monkeypatch.setattr(solver, "ground_program", counting_ground)
        learner = HelperSelectionLearner().fit(offers)
        monkeypatch.undo()
        assert grounds <= trees
        assert learner.accuracy(offers) == 1.0
