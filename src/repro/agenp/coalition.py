"""Multi-party collaboration (paper Section III.B research direction).

"AGENP's design enables it to be instantiated for multi-party systems
... for which efficient mechanisms are required to communicate and
share policies."  This module provides that mechanism as an in-process
message-passing layer hardened against the paper's *fragmented
communications* (Section I):

* :class:`FaultPlan` — a deterministic, seeded fault-injection plan:
  drop, duplicate, reorder, and delay probabilities plus party
  crash/restart windows;
* :class:`CoalitionNetwork` — a store-and-forward fabric between named
  parties that executes the fault plan (or a plain ``loss_rate``) and
  keeps delivery telemetry;
* :class:`CoalitionParty` — an AMS plus a mailbox and the policy-sharing
  protocol.  Sharing is *reliable by default*: every ``share`` message
  carries a per-peer sequence number, receivers de-duplicate on
  ``(sender, seq)`` and answer with transport-level ``ack`` messages,
  and unacked shares are retransmitted with exponential backoff — so
  policy propagation converges even under heavy injected faults.
  ``reliable=False`` ablates the retry machinery (fire-and-forget, as
  the fabric behaved before this layer existed);
* :class:`Coalition` — round-based orchestration with a convergence
  probe (:meth:`Coalition.converged` /
  :meth:`Coalition.run_until_converged`).

Protocol-level validation is unchanged: receivers validate shared
policies through their local PCP and answer with ``rating`` messages
that drive per-sender trust.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.agenp.ams import AutonomousManagedSystem
from repro.agenp.repositories import StoredPolicy
from repro.errors import AgenpError
from repro.telemetry import span as _tele_span

__all__ = [
    "Message",
    "FaultPlan",
    "CoalitionNetwork",
    "CoalitionParty",
    "Coalition",
]


class Message(NamedTuple):
    """One coalition message."""

    message_id: int
    sender: str
    recipient: str
    kind: str  # "share" | "ack" | "rating"
    payload: dict


class _FaultVerdict(NamedTuple):
    drop: bool
    duplicate: bool
    delay: int  # ticks to hold the message in flight (0 = deliver now)
    reorder: bool


class FaultPlan:
    """A deterministic, seeded fault-injection plan for the fabric.

    Per-message faults are drawn from a private RNG seeded with ``seed``
    (a fixed number of draws per message, so the same send sequence
    always yields the same fault sequence).  ``crash_windows`` maps a
    party name to half-open tick intervals ``[start, end)`` during which
    the party is down: its mailbox is wiped on entry and messages to or
    from it are lost.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        delay_rate: float = 0.0,
        max_delay: int = 2,
        crash_windows: Optional[Mapping[str, Sequence[Tuple[int, int]]]] = None,
    ):
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise AgenpError(f"{name} must be in [0, 1)")
        if max_delay < 1:
            raise AgenpError("max_delay must be >= 1")
        self.seed = seed
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.crash_windows: Dict[str, List[Tuple[int, int]]] = {
            name: sorted(tuple(w) for w in windows)
            for name, windows in (crash_windows or {}).items()
        }
        self._rng = random.Random(seed)

    def verdict(self) -> _FaultVerdict:
        """Draw the fault outcome for one message (always four draws)."""
        rng = self._rng
        drop = rng.random() < self.drop_rate
        duplicate = rng.random() < self.duplicate_rate
        delayed = rng.random() < self.delay_rate
        reorder = rng.random() < self.reorder_rate
        delay = rng.randint(1, self.max_delay) if delayed else 0
        return _FaultVerdict(drop, duplicate, delay, reorder)

    def down(self, name: str, tick: int) -> bool:
        """Is ``name`` inside one of its crash windows at ``tick``?"""
        for start, end in self.crash_windows.get(name, ()):
            if start <= tick < end:
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, drop={self.drop_rate}, "
            f"dup={self.duplicate_rate}, reorder={self.reorder_rate}, "
            f"delay={self.delay_rate}x{self.max_delay}, "
            f"crashes={sum(len(w) for w in self.crash_windows.values())})"
        )


class CoalitionNetwork:
    """A faulty store-and-forward fabric between named parties.

    Backwards-compatible simple mode: ``loss_rate`` alone reproduces the
    original lossy fabric (independent drops).  A ``fault_plan`` enables
    the full fault model; time advances via :meth:`advance` (one tick
    per coalition round), which delivers delayed messages and applies
    crash windows.
    """

    def __init__(
        self,
        loss_rate: float = 0.0,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise AgenpError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self.fault_plan = fault_plan
        self._rng = random.Random(seed)
        self._mailboxes: Dict[str, List[Message]] = {}
        self._message_ids = itertools.count(1)  # per-network: reproducible ids
        self._in_flight: List[Tuple[int, Message]] = []  # (due tick, message)
        self._down: Set[str] = set()  # manually crashed
        self._auto_down: Set[str] = set()  # crashed by plan windows
        self.tick = 0
        # telemetry
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.crash_dropped = 0

    # -- membership and liveness -------------------------------------------

    def register(self, name: str) -> None:
        self._mailboxes.setdefault(name, [])

    def parties(self) -> List[str]:
        return sorted(self._mailboxes)

    def is_down(self, name: str) -> bool:
        return name in self._down or name in self._auto_down

    def crash(self, name: str) -> None:
        """Take a party down: wipe its mailbox and volatile in-flight state."""
        if name not in self._mailboxes:
            raise AgenpError(f"unknown party {name!r}")
        self._down.add(name)
        self._wipe(name)

    def restart(self, name: str) -> None:
        if name not in self._mailboxes:
            raise AgenpError(f"unknown party {name!r}")
        self._down.discard(name)

    def _wipe(self, name: str) -> None:
        self._mailboxes[name] = []
        self._in_flight = [
            (due, m) for due, m in self._in_flight if m.recipient != name
        ]

    # -- time ----------------------------------------------------------------

    def advance(self) -> None:
        """One tick: apply crash windows, then deliver due delayed messages."""
        self.tick += 1
        plan = self.fault_plan
        if plan is not None:
            for name in self._mailboxes:
                if plan.down(name, self.tick):
                    if name not in self._auto_down:
                        self._auto_down.add(name)
                        self._wipe(name)
                else:
                    self._auto_down.discard(name)
        still_flying: List[Tuple[int, Message]] = []
        for due, message in self._in_flight:
            if due > self.tick:
                still_flying.append((due, message))
            elif self.is_down(message.recipient):
                self.crash_dropped += 1
            else:
                self._deliver(message, reorder=False)
        self._in_flight = still_flying

    # -- transport ------------------------------------------------------------

    def _deliver(self, message: Message, reorder: bool) -> None:
        mailbox = self._mailboxes[message.recipient]
        if reorder and mailbox:
            mailbox.insert(self._rng.randrange(len(mailbox) + 1), message)
            self.reordered += 1
        else:
            mailbox.append(message)
        self.delivered += 1

    def send(self, sender: str, recipient: str, kind: str, payload: dict) -> bool:
        """Send one message; returns False if the fabric lost it."""
        if recipient not in self._mailboxes:
            raise AgenpError(f"unknown recipient {recipient!r}")
        self.sent += 1
        if self.is_down(sender) or self.is_down(recipient):
            self.dropped += 1
            self.crash_dropped += 1
            return False
        message = Message(next(self._message_ids), sender, recipient, kind, payload)
        if self.fault_plan is None:
            if self._rng.random() < self.loss_rate:
                self.dropped += 1
                return False
            self._deliver(message, reorder=False)
            return True
        verdict = self.fault_plan.verdict()
        if verdict.drop:
            self.dropped += 1
            return False
        copies = 2 if verdict.duplicate else 1
        if verdict.duplicate:
            self.duplicated += 1
        for __ in range(copies):
            if verdict.delay:
                self._in_flight.append((self.tick + verdict.delay, message))
                self.delayed += 1
            else:
                self._deliver(message, reorder=verdict.reorder)
        return True

    def broadcast(self, sender: str, kind: str, payload: dict) -> int:
        """Send to every other party; returns how many were delivered."""
        delivered = 0
        for name in self.parties():
            if name != sender and self.send(sender, name, kind, payload):
                delivered += 1
        return delivered

    def drain(self, name: str) -> List[Message]:
        """Take and clear a party's mailbox."""
        messages = self._mailboxes.get(name, [])
        self._mailboxes[name] = []
        return messages


class _PendingShare(NamedTuple):
    payload: dict
    attempts: int
    next_retry: int  # network tick at which to retransmit


class CoalitionParty:
    """An AMS participating in the sharing protocol.

    With ``reliable=True`` (default) the party runs the full
    seq/ack/retransmit protocol: each ``(policy, context)`` is announced
    to each peer exactly once under a fresh per-peer sequence number and
    retransmitted with capped exponential backoff
    (``min(retry_base * 2^attempts, retry_cap)`` ticks, at most
    ``max_retries`` attempts) until acked.  Receivers acknowledge every
    share (including duplicates) and process each ``(sender, seq)`` at
    most once, so retries never double-adopt and never double-rate.
    """

    def __init__(
        self,
        ams: AutonomousManagedSystem,
        network: CoalitionNetwork,
        reliable: bool = True,
        retry_base: int = 1,
        retry_cap: int = 4,
        max_retries: int = 16,
    ):
        self.ams = ams
        self.network = network
        network.register(ams.name)
        self.reliable = reliable
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.max_retries = max_retries
        self.trust: Dict[str, float] = {}
        self.adopted: List[StoredPolicy] = []
        self.rejected_count = 0
        self.alive = True
        # reliability state
        self._next_seq: Dict[str, int] = {}  # per-recipient outbound counter
        self._pending: Dict[Tuple[str, int], _PendingShare] = {}
        self._announced: Dict[str, Dict[tuple, int]] = {}  # peer -> key -> seq
        self._seen: Dict[str, Set[int]] = {}  # sender -> processed seqs (durable)
        self._seen_message_ids: Set[int] = set()  # exact network-duplicate dedup
        self.retransmissions = 0
        self.dedup_hits = 0  # duplicates suppressed (message-id or seq level)

    @property
    def name(self) -> str:
        return self.ams.name

    @property
    def live(self) -> bool:
        return self.alive and not self.network.is_down(self.name)

    def crash(self) -> None:
        """Go down: volatile mailbox state is lost; protocol state is durable."""
        self.alive = False
        self.network.crash(self.name)

    def restart(self) -> None:
        self.alive = True
        self.network.restart(self.name)

    def trust_in(self, sender: str, initial: float = 0.5) -> float:
        return self.trust.get(sender, initial)

    # -- protocol: sending -------------------------------------------------

    def share_policies(self) -> int:
        """Announce every locally generated policy to every peer.

        Each ``(policy, context, peer)`` triple is announced once; the
        retransmit loop (not re-announcement) provides reliability.
        Returns how many announcements the fabric accepted this call.
        """
        context_name = self.ams.current_context().name
        delivered = 0
        for policy in self.ams.policy_repository.by_source("local"):
            key = (tuple(policy.tokens), context_name)
            for peer in self.network.parties():
                if peer == self.name:
                    continue
                announced = self._announced.setdefault(peer, {})
                if key in announced:
                    continue
                seq = self._next_seq.get(peer, 0) + 1
                self._next_seq[peer] = seq
                announced[key] = seq
                payload = {
                    "tokens": list(policy.tokens),
                    "context": context_name,
                    "seq": seq,
                }
                if self.network.send(self.name, peer, "share", payload):
                    delivered += 1
                if self.reliable:
                    self._pending[(peer, seq)] = _PendingShare(
                        payload, 0, self.network.tick + self.retry_base
                    )
        return delivered

    def tick_retransmits(self) -> int:
        """Retransmit overdue unacked shares; returns how many were resent."""
        if not self.reliable:
            return 0
        now = self.network.tick
        resent = 0
        for key, pending in list(self._pending.items()):
            if pending.attempts >= self.max_retries or now < pending.next_retry:
                continue
            peer, __seq = key
            self.network.send(self.name, peer, "share", pending.payload)
            attempts = pending.attempts + 1
            backoff = min(self.retry_base * (2 ** attempts), self.retry_cap)
            self._pending[key] = _PendingShare(
                pending.payload, attempts, now + backoff
            )
            self.retransmissions += 1
            resent += 1
        return resent

    # -- protocol: receiving ------------------------------------------------

    def process_mailbox(self, min_trust: float = 0.25) -> Tuple[int, int]:
        """Handle queued messages; returns (adopted, rejected) counts."""
        adopted = rejected = 0
        for message in self.network.drain(self.name):
            if message.message_id in self._seen_message_ids:
                self.dedup_hits += 1
                continue  # exact duplicate injected by the fabric
            self._seen_message_ids.add(message.message_id)
            if message.kind == "share":
                outcome = self._handle_share(message, min_trust)
                if outcome is True:
                    adopted += 1
                elif outcome is False:
                    rejected += 1
            elif message.kind == "ack":
                self._pending.pop((message.sender, message.payload["seq"]), None)
            elif message.kind == "rating":
                self._absorb_rating(message)
        return adopted, rejected

    def _handle_share(self, message: Message, min_trust: float) -> Optional[bool]:
        """Process one share; True=adopted, False=rejected, None=duplicate."""
        seq = message.payload.get("seq")
        if seq is not None:
            # transport-level ack, sent even for retransmits of processed
            # shares (the original ack may itself have been lost)
            self.network.send(self.name, message.sender, "ack", {"seq": seq})
            seen = self._seen.setdefault(message.sender, set())
            if seq in seen:
                self.dedup_hits += 1
                return None
            seen.add(seq)
        if self.trust_in(message.sender) < min_trust:
            return False
        ok = self._consider(message)
        self.network.send(
            self.name,
            message.sender,
            "rating",
            {"useful": ok, "about": seq if seq is not None else message.message_id},
        )
        return ok

    def _consider(self, message: Message) -> bool:
        candidate = StoredPolicy(
            tuple(message.payload["tokens"]),
            self.ams.current_context().name,
            self.ams.model().version,
            source=f"shared:{message.sender}",
        )
        outcome = self.ams.pcp.check_policy(
            candidate, self.ams.model(), self.ams.current_context()
        )
        if outcome.accepted:
            self.ams.policy_repository.add(candidate)
            self.adopted.append(candidate)
            self._update_trust(message.sender, True)
            return True
        self.rejected_count += 1
        self._update_trust(message.sender, False)
        return False

    def _absorb_rating(self, message: Message) -> None:
        self._update_trust(message.sender, bool(message.payload.get("useful")))

    def _update_trust(self, other: str, useful: bool, alpha: float = 0.25) -> None:
        current = self.trust_in(other)
        target = 1.0 if useful else 0.0
        self.trust[other] = (1 - alpha) * current + alpha * target

    # -- convergence probe ----------------------------------------------------

    def announced_to(self, peer: str) -> Set[int]:
        """Sequence numbers of all shares this party owes ``peer``."""
        return set(self._announced.get(peer, {}).values())

    def processed_from(self, sender: str) -> Set[int]:
        """Sequence numbers of ``sender``'s shares this party has processed."""
        return set(self._seen.get(sender, set()))


class Coalition:
    """Round-based orchestration of a set of parties."""

    def __init__(self, parties: Sequence[CoalitionParty]):
        names = [p.name for p in parties]
        if len(set(names)) != len(names):
            raise AgenpError("party names must be unique")
        self.parties = list(parties)
        if parties and any(p.network is not parties[0].network for p in parties):
            raise AgenpError("all parties must share one network")
        self.network = parties[0].network if parties else None

    def round(self, min_trust: float = 0.25) -> Dict[str, Tuple[int, int]]:
        """One share/retransmit/process round; per-party (adopted, rejected).

        The network advances one tick first (delivering delayed messages
        and applying crash windows); parties that are down skip the
        round and report ``(0, 0)``.
        """
        with _tele_span("coalition.round") as sp:
            if self.network is not None:
                self.network.advance()
            live = [p for p in self.parties if p.live]
            dedup_before = sum(p.dedup_hits for p in self.parties)
            for party in live:
                party.share_policies()
            resent = 0
            for party in live:
                resent += party.tick_retransmits()
            results: Dict[str, Tuple[int, int]] = {
                p.name: (0, 0) for p in self.parties
            }
            for party in live:
                results[party.name] = party.process_mailbox(min_trust=min_trust)
            # second pass so ack/rating replies are absorbed in the same round
            for party in live:
                party.process_mailbox(min_trust=min_trust)
            sp.incr("coalition.retransmits", resent)
            sp.incr(
                "coalition.dedup_hits",
                sum(p.dedup_hits for p in self.parties) - dedup_before,
            )
            sp.incr("coalition.adopted", sum(a for a, __ in results.values()))
            sp.incr("coalition.rejected", sum(r for __, r in results.values()))
            sp.incr("coalition.rounds")
            return results

    def run(self, rounds: int, min_trust: float = 0.25) -> List[Dict[str, Tuple[int, int]]]:
        return [self.round(min_trust=min_trust) for __ in range(rounds)]

    def converged(self) -> bool:
        """Has every live party processed every live peer's announcements?"""
        live = [p for p in self.parties if p.live]
        for sender in live:
            for receiver in live:
                if sender is receiver:
                    continue
                owed = sender.announced_to(receiver.name)
                if not owed <= receiver.processed_from(sender.name):
                    return False
        return True

    def run_until_converged(
        self, max_rounds: int = 50, min_trust: float = 0.25
    ) -> Optional[int]:
        """Run rounds until :meth:`converged`; rounds taken, or None."""
        with _tele_span("coalition.converge") as sp:
            for round_number in range(1, max_rounds + 1):
                self.round(min_trust=min_trust)
                if self.converged():
                    sp.incr("coalition.convergence_rounds", round_number)
                    return round_number
            sp.incr("coalition.convergence_failures")
            return None
