"""The monitoring log's incremental paths against a scan-based reference.

``MonitoringLog`` keeps an id index, running counts and a review
journal, and the PAdaP ingests only the journal past its cursor.  The
reference below is the scan-based logic those replace: find a record by
scanning, fold ``stats()`` over every record, and on each ingest rebuild
the known-example set and scan the whole log.  Seeded random operation
sequences drive both and must agree after every step.
"""

import random

import pytest

from repro.agenp import PolicyAdaptationPoint, RepresentationsRepository
from repro.agenp.monitoring import DecisionRecord, LogStats, MonitoringLog
from repro.agenp.pep import PolicyEnforcementPoint
from repro.core import Context, LabeledExample
from repro.policy import Decision, Request

CONTEXTS = (Context.empty(), Context.from_attributes({"alert": "high"}, name="alert"))
POLICIES = ("allow alice read", "allow bob write", "allow bob read", "")
DECISIONS = (Decision.PERMIT, Decision.DENY, Decision.NOT_APPLICABLE)
REQUEST = Request({"subject": {"id": "alice"}})


def key(example):
    return (example.tokens, example.context, example.valid)


def make_padap():
    return PolicyAdaptationPoint([], RepresentationsRepository())


# -- the scan-based reference -------------------------------------------------


class ScanLog:
    def __init__(self):
        self.records = []
        self.next_id = 1

    def append(self, record):
        if record.record_id is None:
            record.record_id = self.next_id
            self.next_id += 1
        self.records.append(record)

    def find(self, record_id):
        for record in self.records:
            if record.record_id == record_id:
                return record
        raise KeyError(record_id)

    def mark_outcome(self, record_id, ok):
        self.find(record_id).outcome_ok = ok

    def stats(self):
        total = len(self.records)
        by_decision = {}
        degraded = enforced = violations = confirmations = unreviewed = 0
        for record in self.records:
            effect = record.decision.value
            by_decision[effect] = by_decision.get(effect, 0) + 1
            degraded += record.degraded
            enforced += record.enforced
            if record.outcome_ok is None:
                unreviewed += 1
            elif record.outcome_ok:
                confirmations += 1
            else:
                violations += 1
        return LogStats(
            total=total,
            by_decision=by_decision,
            degraded=degraded,
            degraded_rate=degraded / total if total else 0.0,
            enforced=enforced,
            enforcement_rate=enforced / total if total else 0.0,
            violations=violations,
            confirmations=confirmations,
            unreviewed=unreviewed,
        )

    def clear(self):
        self.records.clear()


class ScanPadap:
    def __init__(self):
        self.examples = []

    def ingest_feedback(self, log):
        known = {key(e) for e in self.examples}
        added = 0
        for record in log.records:
            if record.outcome_ok is None or not record.policy_text:
                continue
            example = LabeledExample(
                tuple(record.policy_text.split()), record.context, valid=record.outcome_ok
            )
            if key(example) not in known:
                known.add(key(example))
                self.examples.append(example)
                added += 1
        return added

    @staticmethod
    def needs_adaptation(log):
        return any(r.outcome_ok is False for r in log.records) or any(
            r.degraded for r in log.records
        )


# -- paired driving -------------------------------------------------------------


def twins(rng, record_id=None, reviewed=False):
    """Two identical fresh records, one for each side.  ``record_id``
    and ``reviewed`` make a record that arrives from another party's
    log: id already set, possibly reviewed and enforced."""
    fields = (
        REQUEST,
        rng.choice(DECISIONS),
        rng.choice(POLICIES),
        rng.choice(CONTEXTS),
    )
    degraded = rng.random() < 0.1
    enforced = reviewed and rng.random() < 0.5
    outcome = rng.choice((None, True, False)) if reviewed else None
    pair = []
    for __ in range(2):
        record = DecisionRecord(*fields, enforced=enforced, degraded=degraded)
        record.record_id = record_id
        record.outcome_ok = outcome
        pair.append(record)
    return pair


def merged_pair(rng):
    """E12's merge: member logs numbering from 1, appended into one log."""
    real, ref = MonitoringLog(), ScanLog()
    for __ in range(2):
        member_real, member_ref = MonitoringLog(), ScanLog()
        for __r in range(rng.randrange(1, 8)):
            a, b = twins(rng)
            member_real.append(a)
            member_ref.append(b)
            if rng.random() < 0.6:
                ok = rng.random() < 0.5
                member_real.mark_outcome(a.record_id, ok)
                member_ref.mark_outcome(b.record_id, ok)
        for a, b in zip(member_real.records(), member_ref.records):
            real.append(a)
            ref.append(b)
    return real, ref


def assert_same(real, ref, padaps, scans):
    assert real.stats() == ref.stats()
    assert len(real) == len(ref.records)
    assert [(r.record_id, r.outcome_ok, r.enforced) for r in real.records()] == [
        (r.record_id, r.outcome_ok, r.enforced) for r in ref.records
    ]
    for padap, scan in zip(padaps, scans):
        assert padap.needs_adaptation(real) == scan.needs_adaptation(ref)
        assert [key(e) for e in padap.examples] == [key(e) for e in scan.examples]


@pytest.mark.parametrize("seed", range(40))
def test_random_sequences_match_the_scan_reference(seed):
    rng = random.Random(seed)
    real, ref = merged_pair(rng) if seed % 2 else (MonitoringLog(), ScanLog())
    pep = PolicyEnforcementPoint(log=real)
    padaps, scans = (make_padap(), make_padap()), (ScanPadap(), ScanPadap())
    for __ in range(250):
        op = rng.random()
        ids = [r.record_id for r in ref.records]
        if op < 0.3:
            a, b = twins(rng)
            real.append(a)
            ref.append(b)
        elif op < 0.38:
            a, b = twins(rng, record_id=rng.randint(1, 12), reviewed=True)
            real.append(a)
            ref.append(b)
        elif op < 0.68 and ids:
            ok = rng.random() < 0.5
            record_id = rng.choice(ids) if rng.random() < 0.95 else max(ids) + 1000
            if record_id not in ids:
                with pytest.raises(KeyError):
                    real.mark_outcome(record_id, ok)
                continue
            real.mark_outcome(record_id, ok)
            ref.mark_outcome(record_id, ok)
        elif op < 0.76 and ids:
            record_id = rng.choice(ids)
            owner = next(r for r in real.records() if r.record_id == record_id)
            pep.enforce(owner, "act")
            ref.find(record_id).enforced = True
        elif op < 0.78:
            real.clear()
            ref.clear()
        elif op < 0.82:
            example = LabeledExample(
                tuple(rng.choice(POLICIES[:3]).split()),
                rng.choice(CONTEXTS),
                valid=rng.random() < 0.5,
            )
            padaps[0].add_example(example)
            scans[0].examples.append(example)
        else:
            which = rng.randrange(2)
            assert padaps[which].ingest_feedback(real) == scans[which].ingest_feedback(ref)
        assert_same(real, ref, padaps, scans)
    for padap, scan in zip(padaps, scans):
        assert padap.ingest_feedback(real) == scan.ingest_feedback(ref)
        assert padap.ingest_feedback(real) == 0
    assert_same(real, ref, padaps, scans)


# -- work that does not grow with the history -------------------------------------


class GuardedList(list):
    """A record list that fails the test when iterated and counts reads."""

    reads = 0

    def __iter__(self):
        raise AssertionError("the stored record list was iterated")

    def __getitem__(self, position):
        self.reads += 1
        return super().__getitem__(position)


def test_hot_paths_never_iterate_the_record_list():
    log = MonitoringLog()
    for i in range(50_000):
        log.append(
            DecisionRecord(
                REQUEST,
                DECISIONS[i % 2],
                POLICIES[i % 3],
                CONTEXTS[i % 2],
                degraded=i == 4_321,
            )
        )
    for record_id in range(1, 50_001, 7):
        log.mark_outcome(record_id, ok=record_id % 3 != 0)
    padap = make_padap()
    assert padap.ingest_feedback(log) > 0
    guarded = log._records = GuardedList(log._records)
    with pytest.raises(AssertionError):
        log.records()  # the guard is live

    log.mark_outcome(49_999, ok=False)
    log.mark_outcome(50_000, ok=True)
    log.mark_outcome(49_999, ok=True)
    log.mark_enforced(12)
    assert padap.needs_adaptation(log)
    stats = log.stats()
    assert stats.total == 50_000
    assert stats.degraded == 1 and stats.enforced == 1
    # every seventh record, plus records 49,999 and 50,000
    assert stats.violations + stats.confirmations == len(range(1, 50_001, 7)) + 2
    assert stats.unreviewed == 50_000 - stats.violations - stats.confirmations

    guarded.reads = 0
    padap.ingest_feedback(log)
    assert guarded.reads == 2  # just the two records reviewed since the last ingest
    guarded.reads = 0
    assert padap.ingest_feedback(log) == 0
    assert guarded.reads == 0


def test_clear_resets_index_counters_and_journal():
    log = MonitoringLog()
    padap = make_padap()
    old = [
        log.append(DecisionRecord(REQUEST, Decision.PERMIT, policy, CONTEXTS[0]))
        for policy in POLICIES[:3]
    ]
    for record in old:
        log.mark_outcome(record.record_id, ok=False)
    log.mark_enforced(old[0].record_id)
    assert padap.ingest_feedback(log) == 3

    log.clear()
    assert log.stats() == MonitoringLog().stats()
    assert not padap.needs_adaptation(log)
    assert log.reviewed_since()[0] == []
    with pytest.raises(KeyError):
        log.mark_outcome(old[0].record_id, ok=True)

    fresh = log.append(DecisionRecord(REQUEST, Decision.DENY, "allow bob write", CONTEXTS[1]))
    assert fresh.record_id not in {record.record_id for record in old}
    log.mark_outcome(fresh.record_id, ok=True)
    # the cursor from before the clear pointed past three journal entries;
    # the one review since must still be read
    assert padap.ingest_feedback(log) == 1
    assert log.stats().confirmations == 1
