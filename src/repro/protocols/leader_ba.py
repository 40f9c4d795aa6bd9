"""Leader-based (Tendermint-style) BA under partial synchrony.

The paper's protocols iterate over *randomly announced or mined*
proposers; the deployed form of the same communication-complexity
question (Momose-Ren, "Optimal Communication Complexity of Authenticated
Byzantine Agreement"; Cohen-Keidar-Naor's survey) is the **view-based
leader protocol**: a round-robin leader per view, ``n - f`` quorum
certificates, and a locked-value/valid-value rule carrying safety across
view changes.  This module implements that family against the repo's
simulation contract, reusing :mod:`repro.protocols.certificates` /
:mod:`repro.protocols.verification` for its quorum certificates.

Resilience is ``n > 3f`` (the partial-synchrony optimum).  Each view
``v = 1, 2, ...`` occupies :data:`VIEW_ROUNDS` protocol rounds:

1. **NewView** — every node multicasts ``(NewView, v, b)`` attesting its
   current belief ``b`` and carrying its *lock* (the highest prevote-QC
   it has seen).  This is simultaneously the view-change message (the
   lock travels to the next leader) and the input attestation that makes
   agreement validity hold (see below).
2. **Propose** — the round-robin leader of ``v`` multicasts a proposal:
   either its highest known QC's bit with that QC attached (the
   *valid-value* path), or — when it knows no QC at all — a bit backed
   by ``f + 1`` fresh view-``v`` NewView attestations (so a value no
   honest node input can never be justified: ``f`` corrupt attestations
   are one short of the quorum).
3. **Prevote** — a node prevotes the proposal unless its lock blocks it:
   a QC-justified proposal is accepted when the attached QC's rank is at
   least the lock's rank (*unlock on a higher-or-equal valid-value
   certificate*) or it re-proposes the locked bit; an attestation-
   justified proposal only when the node holds no lock at all.  Prevote
   auth topics are ``("Vote", v, b)``, so ``f + 1``-style certificate
   assembly and verification are the unmodified
   :func:`~repro.protocols.certificates.certificate_from_votes` /
   shared-cache :meth:`~repro.protocols.verification.VerificationCache.
   check_certificate` machinery at threshold ``n - f``.
4. **Precommit** — on ``n - f`` valid view-``v`` prevotes for ``b`` the
   node assembles the prevote-QC, adopts it as its lock (locks only ever
   *grow* in rank — the locks-never-regress invariant the property suite
   pins), and multicasts ``(Precommit, v, b)``.

A quorum of ``n - f`` valid view-``v`` precommits for ``b`` decides
``b``: the decider multicasts a transferable
:class:`LeaderDecideMsg` carrying the precommit quorum (validated per
auth, like the iterated BA's ``Terminate`` commits) and halts — but only
once its announcement lands at or after the conditions'
``trusted_send_round``; a node that decides while the network may still
drop copies keeps re-announcing at each view boundary until a trusted
round passes, so no laggard can be stranded behind a pre-GST loss.

**Safety across view changes** (the standard Tendermint argument, per
height): if an honest node decides ``b`` at view ``v``, then ``n - f``
precommitted, so at least ``n - 2f`` honest nodes hold a rank-``v``
lock on ``b``.  Any later prevote-QC needs ``n - f`` prevotes and hence
``n - 2f`` honest prevoters; two honest subsets of size ``n - 2f``
among the ``n - f`` honest nodes overlap in ``n - 3f >= 1`` members, so
some prevoter holds that lock and only accepts ``b`` again (an opposite
proposal would need a QC of rank ``>= v`` for ``1 - b``, which by
induction never forms; equal-rank QCs for opposite bits are impossible
— two ``n - f`` quorums overlap in ``n - 2f > f`` nodes, more than the
``f`` possible double-voters, for *every* admitted ``n > 3f``; a fixed
``2f + 1`` threshold would cover only ``n = 3f + 1``).

**View timers** are derived from the network conditions: with dilation
``Δ`` and GST, sends become reliable from protocol round
``trusted_send_round = ceil(max(gst, heals) / Δ)``, i.e. after
``ceil(trusted_send_round / VIEW_ROUNDS)`` burned views; the builder
budgets that many views plus ``f + 1`` leader rotations (some leader in
any ``f + 1`` consecutive views is honest) plus slack for lock
propagation, so a decision lands within a bounded number of views after
GST under every supported adversary.

**Chain workload**: ``heights > 1`` runs repeated BA instances through
the same view machinery — height ``h`` owns a fixed window of views,
locks carry forward (an undecided height's locked value becomes the
node's belief, a decided height's decision does), and view/leader
numbering runs globally so auth topics never repeat across heights.
This is the repo's heavy-traffic scenario axis (``leader-chain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.groups import SchnorrGroup, TEST_GROUP
from repro.crypto.registry import IDEAL_MODE, KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.base import (
    Authenticator,
    OracleProposerPolicy,
    ProposerPolicy,
    ProtocolInstance,
    SignatureAuthenticator,
)
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    rank,
)
from repro.protocols.early_stopping import trusted_send_round_for
from repro.protocols.verification import CACHE_LIMIT, VerificationCache
from repro.rng import Seed
from repro.serialization import _intern_field_key, intern_by_key, intern_payload
from repro.sim.conditions import NetworkConditions
from repro.sim.leader import LeaderOracle, RoundRobinLeaderOracle
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId, Round

#: Protocol rounds per view, in phase order.
PHASE_NEW_VIEW = "NewView"
PHASE_PROPOSE = "Propose"
PHASE_PREVOTE = "Prevote"
PHASE_PRECOMMIT = "Precommit"

_PHASES = (PHASE_NEW_VIEW, PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT)

VIEW_ROUNDS = len(_PHASES)

#: Default number of repeated instances for the ``leader-chain`` workload.
DEFAULT_CHAIN_HEIGHTS = 3


def schedule(round_index: Round) -> Tuple[int, str]:
    """Map a global protocol round to ``(view, phase)`` (views 1-based)."""
    view, offset = divmod(round_index, VIEW_ROUNDS)
    return view + 1, _PHASES[offset]


def view_of_round(round_index: Round) -> int:
    """The (1-based) view a global protocol round belongs to."""
    return round_index // VIEW_ROUNDS + 1


def proposing_view(round_index: Round) -> Optional[int]:
    """The view whose leader proposes in this round, if any.

    The leader-killer adversary uses this to strike each view's leader
    before it can speak; the view number doubles as the leader oracle's
    epoch (global across chain heights).
    """
    view, phase = schedule(round_index)
    return view if phase == PHASE_PROPOSE else None


def rounds_for_views(views: int) -> int:
    """Round budget for ``views`` full views: every phase plus two
    trailing delivery rounds, so the last view's precommit quorum can be
    tallied and its decide announcement relayed."""
    if views < 1:
        raise ValueError("need at least one view")
    return VIEW_ROUNDS * views + 2


def default_views_per_height(f: int,
                             conditions: Optional[NetworkConditions]) -> int:
    """The Δ-derived per-height view budget.

    ``ceil(trusted_send_round / VIEW_ROUNDS)`` views can be burned before
    sends are reliable; after that, any ``f + 1`` consecutive views
    contain an honest round-robin leader (and an exhausted corruption
    budget), plus two slack views for a withheld-QC lock to propagate
    through a NewView round and for the decide announcement to land.
    """
    trusted = trusted_send_round_for(conditions)
    burned = -(-trusted // VIEW_ROUNDS)  # ceil division
    return burned + f + 3


def decision_view_of(result: Any) -> int:
    """The view a finished execution settled in, for artifact rows.

    The last honest decision round's view when every honest node
    decided; otherwise the view of the last executed round (the
    exhausted budget).
    """
    rounds = result.decision_rounds()
    if rounds and result.all_decided():
        # The decision round tallies the *previous* round's precommit
        # quorum, so the settled view is the round before's.
        return view_of_round(max(max(rounds) - 1, 0))
    settled = view_of_round(max(result.rounds_executed - 1, 0))
    budget = getattr(result, "rounds_budget", None)
    if budget is not None and budget > VIEW_ROUNDS:
        # The round budget pads two trailing delivery rounds past the
        # last view (rounds_for_views); an exhausted run must not report
        # those as a view of their own.
        settled = min(settled, (budget - 2) // VIEW_ROUNDS)
    return settled


def view_changes_of(result: Any) -> int:
    """Views that ended without settling the execution."""
    return decision_view_of(result) - 1


#: What the harness reports for the leader family: each name becomes a
#: ``mean_<name>`` artifact column and a ``repro run`` output line.
OBSERVABLES = {
    "views_executed": decision_view_of,
    "view_changes": view_changes_of,
}


# ---------------------------------------------------------------------------
# Messages.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewViewMsg:
    """``(NewView, v, b)``: belief attestation plus the carried lock.

    ``auth`` signs ``("NewView", view, bit)``; the attached QC is
    self-certifying, so it is not part of the signed topic — relaying a
    node's attestation next to a different valid QC proves nothing it
    could not prove alone.
    """

    view: int
    bit: Bit
    qc: Optional["Certificate"]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class LeaderProposeMsg:
    """The view leader's proposal with its justification attached.

    Exactly one justification is carried: ``qc`` (the valid-value path)
    or ``attestations`` — ``f + 1`` QC-stripped view-``v`` NewView
    messages for ``bit`` (the fresh-value path; stripping is sound
    because the attestation auth covers only ``(NewView, view, bit)``).
    """

    view: int
    bit: Bit
    qc: Optional["Certificate"]
    attestations: Tuple[NewViewMsg, ...]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PrevoteMsg:
    """``(Prevote, v, b)``; the auth topic is ``("Vote", v, b)`` so an
    ``n - f`` quorum of these is a
    :class:`~repro.protocols.certificates.Certificate` verifiable by the
    unmodified shared-cache machinery."""

    view: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PrecommitMsg:
    """``(Precommit, v, b)``: the sender saw a view-``v`` prevote-QC for
    ``b`` (and locked it)."""

    view: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class LeaderDecideMsg:
    """``(Decide, v, b)`` carrying the ``n - f`` precommit quorum.

    Transferable proof of the decision: each attached precommit is
    authenticated individually (never through the certificate cache,
    whose content keys do not record *which* predicate verified — a
    precommit quorum must not be replayable as a prevote-QC)."""

    view: int
    bit: Bit
    precommits: Tuple[PrecommitMsg, ...]
    sender: NodeId
    auth: Any


# ---------------------------------------------------------------------------
# Config and node.
# ---------------------------------------------------------------------------


@dataclass
class LeaderBaConfig:
    """Shared parameters of one leader-BA execution."""

    threshold: int  # n - f quorums: intersection n - 2f > f for all n > 3f
    fallback_quorum: int  # f + 1 fresh attestations justify a proposal
    authenticator: Authenticator
    proposer: ProposerPolicy
    #: Views per chain height; view ``v`` belongs to height
    #: ``(v - 1) // views_per_height + 1``.
    views_per_height: int
    heights: int = 1
    #: Execution-wide memo for the public verification predicates; the
    #: nodes of one instance share it (see repro.protocols.verification).
    verification: VerificationCache = field(default_factory=VerificationCache)
    #: First protocol round whose sends provably reach every honest node
    #: (``NetworkConditions.trusted_send_round``; 0 under lock-step).
    #: Deciders keep re-announcing their decision at view boundaries
    #: until a round at or past this one, then halt.
    trusted_send_round: Round = 0

    @property
    def total_views(self) -> int:
        return self.views_per_height * self.heights

    def height_of_view(self, view: int) -> int:
        return (view - 1) // self.views_per_height + 1


class LeaderBaNode(Node):
    """One party of the view-based leader protocol."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: LeaderBaConfig) -> None:
        super().__init__(node_id, n)
        self.config = config
        self.input_bit = input_bit
        #: Current belief: the input, overtaken by height decisions.
        self.belief: Bit = input_bit
        self._belief_height = 0
        #: The lock: highest-ranked prevote-QC observed (None = unlocked).
        self.locked: Optional[Certificate] = None
        # (view, bit) -> voter -> auth, valid prevotes only.
        self.votes_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        # (view, bit) -> sender -> PrecommitMsg, valid precommits only.
        self.precommits_seen: Dict[Tuple[int, Bit],
                                   Dict[NodeId, PrecommitMsg]] = {}
        # Valid proposals per view (an equivocating leader may land >1).
        self.proposals: Dict[int, List[LeaderProposeMsg]] = {}
        # view -> bit -> sender -> NewViewMsg; populated only for views
        # this node leads (justification material for its proposal).
        self.new_views: Dict[int, Dict[Bit, Dict[NodeId, NewViewMsg]]] = {}
        #: height -> (view, bit) decisions, in whatever order they land.
        self.height_decisions: Dict[int, Tuple[int, Bit]] = {}
        self._final_msg: Optional[LeaderDecideMsg] = None
        self._verification = config.verification
        # Per-node identity front for prevote-QCs (same contract as
        # AbaNode._cert_cache: each received object resolved once, and —
        # unlike the shared cache — negative results may be kept).
        self._cert_cache: Dict[int, Tuple[Certificate, bool]] = {}

    # -- validation helpers --------------------------------------------------
    def _check_auth(self, node_id: NodeId, topic: Any, auth: Any) -> bool:
        return self._verification.check_auth(
            self.config.authenticator, node_id, topic, auth)

    def _check_prevote_auth(self, vote) -> bool:
        # SignedVote-shaped: topic ("Vote", view, bit) — the certificate
        # machinery's native format.
        return self._verification.check_vote(self.config.authenticator, vote)

    def _check_qc(self, qc: Optional[Certificate],
                  expected_bit: Optional[Bit] = None,
                  below_view: Optional[int] = None) -> bool:
        if qc is None:
            return True  # the fictitious rank-0 certificate
        if expected_bit is not None and qc.bit != expected_bit:
            return False
        if below_view is not None and qc.iteration >= below_view:
            return False
        entry = self._cert_cache.get(id(qc))
        if entry is not None and entry[0] is qc:
            return entry[1]
        result = self._verification.check_certificate(
            qc, self.config.threshold, self._check_prevote_auth)
        if len(self._cert_cache) >= CACHE_LIMIT:
            self._cert_cache.clear()
        self._cert_cache[id(qc)] = (qc, result)
        return result

    def _absorb_qc(self, qc: Optional[Certificate]) -> None:
        """Adopt a (pre-validated) QC as the lock if it outranks it.

        Strict inequality is the locks-never-regress invariant: the
        lock's rank is monotone over the whole execution, heights
        included.
        """
        if qc is not None and qc.iteration > rank(self.locked):
            self.locked = qc

    def _is_leader(self, view: int) -> bool:
        proposer = self.config.proposer
        oracle = getattr(proposer, "oracle", None)
        return oracle is not None and oracle.leader(view) == self.node_id

    # -- inbox processing ----------------------------------------------------
    def _process_inbox(self, ctx: RoundContext) -> None:
        front = self._verification.valid_payloads
        for delivery in ctx.inbox:
            msg = delivery.payload
            entry = front.get(id(msg))
            known = entry is not None and entry[0] is msg
            cls = msg.__class__
            if cls is PrevoteMsg:
                self._handle_prevote(msg, known)
            elif cls is NewViewMsg:
                self._handle_new_view(msg, known)
            elif cls is PrecommitMsg:
                self._handle_precommit(msg, known)
            elif cls is LeaderProposeMsg:
                self._handle_propose(msg, known)
            elif cls is LeaderDecideMsg:
                self._handle_decide(msg, known)

    def _handle_new_view(self, msg: NewViewMsg, known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("NewView", msg.view, msg.bit), msg.auth):
                return
            if not self._check_qc(msg.qc, below_view=msg.view):
                return
            self._verification.mark_valid(msg)
        self._absorb_qc(msg.qc)
        if self._is_leader(msg.view):
            self.new_views.setdefault(msg.view, {}).setdefault(
                msg.bit, {}).setdefault(msg.sender, msg)

    def _proposal_valid(self, msg: LeaderProposeMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        if not self._verification.check_proposal(
                self.config.proposer, msg.sender, msg.view, msg.bit,
                msg.auth):
            return False
        if msg.qc is not None:
            return self._check_qc(msg.qc, expected_bit=msg.bit,
                                  below_view=msg.view)
        # Fresh-value path: f + 1 distinct view-v attestations for the
        # bit.  Corrupt nodes alone are one short, so a bit no honest
        # node believes can never be proposed — agreement validity.
        senders = set()
        for attestation in msg.attestations:
            if (attestation.view != msg.view or attestation.bit != msg.bit
                    or attestation.qc is not None):
                return False
            if not self._check_auth(
                    attestation.sender,
                    ("NewView", attestation.view, attestation.bit),
                    attestation.auth):
                return False
            senders.add(attestation.sender)
        return len(senders) >= self.config.fallback_quorum

    def _handle_propose(self, msg: LeaderProposeMsg,
                        known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if not self._proposal_valid(msg):
                return
            self._verification.mark_valid(msg)
        self._absorb_qc(msg.qc)
        self.proposals.setdefault(msg.view, []).append(msg)

    def _handle_prevote(self, msg: PrevoteMsg, known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("Vote", msg.view, msg.bit), msg.auth):
                return
            self._verification.mark_valid(msg)
        self._record_prevote(msg.view, msg.bit, msg.sender, msg.auth)

    def _record_prevote(self, view: int, bit: Bit, voter: NodeId,
                        auth: Any) -> None:
        votes = self.votes_seen.setdefault((view, bit), {})
        votes.setdefault(voter, auth)
        # A quorum of valid prevotes *is* a QC; assemble and lock it the
        # moment it forms (once locked at this rank, a larger vote set
        # could never outrank it — same skip as AbaNode._record_vote).
        if (len(votes) >= self.config.threshold
                and rank(self.locked) < view):
            self._absorb_qc(intern_payload(certificate_from_votes(
                view, bit, votes, self.config.threshold)))

    def _handle_precommit(self, msg: PrecommitMsg,
                          known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("Precommit", msg.view, msg.bit),
                                    msg.auth):
                return
            self._verification.mark_valid(msg)
        self.precommits_seen.setdefault(
            (msg.view, msg.bit), {}).setdefault(msg.sender, msg)

    def _handle_decide(self, msg: LeaderDecideMsg,
                       known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("Decide", msg.view, msg.bit), msg.auth):
                return
            senders = set()
            for precommit in msg.precommits:
                if (precommit.view != msg.view or precommit.bit != msg.bit
                        or not self._check_auth(
                            precommit.sender,
                            ("Precommit", precommit.view, precommit.bit),
                            precommit.auth)):
                    return
                senders.add(precommit.sender)
            if len(senders) < self.config.threshold:
                return
            self._verification.mark_valid(msg)
        # Adoption flows through the ordinary precommit tally: recording
        # the carried quorum makes _maybe_decide fire on it.
        recorded = self.precommits_seen.setdefault((msg.view, msg.bit), {})
        for precommit in msg.precommits:
            recorded.setdefault(precommit.sender, precommit)

    # -- decision ------------------------------------------------------------
    def _decide_msg(self, view: int, bit: Bit) -> Optional[LeaderDecideMsg]:
        auth = self.config.authenticator.attempt(
            self.node_id, ("Decide", view, bit))
        if auth is None:
            return None
        quorum = self.precommits_seen.get((view, bit), {})
        chosen = sorted(quorum.values(),
                        key=lambda p: p.sender)[:self.config.threshold]
        # Interned as a whole quorum, like the iterated BA's stripped
        # Terminate commits: every decider picks the same precommits, so
        # the content-equal tuples collapse to one object.
        precommits = intern_by_key(
            (LeaderDecideMsg, view, bit,
             tuple([(p.sender, _intern_field_key(p.auth)) for p in chosen])),
            lambda: tuple(chosen))
        return LeaderDecideMsg(view=view, bit=bit, precommits=precommits,
                               sender=self.node_id, auth=auth)

    def _maybe_decide(self, ctx: RoundContext) -> bool:
        """Settle every height whose precommit quorum is on hand; returns
        True when the final height decided (the node is done acting)."""
        ready = sorted(
            key for key, quorum in self.precommits_seen.items()
            if len(quorum) >= self.config.threshold)
        for view, bit in ready:
            height = self.config.height_of_view(view)
            if height in self.height_decisions:
                continue
            self.height_decisions[height] = (view, bit)
            if height >= self._belief_height:
                self.belief = bit
                self._belief_height = height
            message = self._decide_msg(view, bit)
            if message is not None:
                ctx.multicast(message)
            if height == self.config.heights:
                self.decide(bit, ctx.round)
                self._final_msg = message
                if ctx.round >= self.config.trusted_send_round:
                    self.halted = True
                return True
        return False

    # -- phase actions -------------------------------------------------------
    def _do_new_view(self, ctx: RoundContext, view: int) -> None:
        bit = self.belief
        auth = self.config.authenticator.attempt(
            self.node_id, ("NewView", view, bit))
        if auth is None:
            return
        message = NewViewMsg(view=view, bit=bit, qc=self.locked,
                             sender=self.node_id, auth=auth)
        ctx.multicast(message)
        if self._is_leader(view):
            self.new_views.setdefault(view, {}).setdefault(
                bit, {}).setdefault(self.node_id, message)

    def _do_propose(self, ctx: RoundContext, view: int) -> None:
        qc = self.locked
        attestations: Tuple[NewViewMsg, ...] = ()
        if qc is not None:
            bit = qc.bit
        else:
            # Fresh-value path: the bit with the widest f + 1 attestation
            # backing among this view's NewViews (own belief breaks ties).
            collected = self.new_views.get(view, {})
            backed = [b for b in (0, 1)
                      if len(collected.get(b, {}))
                      >= self.config.fallback_quorum]
            if not backed:
                return
            bit = max(backed, key=lambda b: (len(collected[b]),
                                             b == self.belief, -b))
            chosen = sorted(collected[bit].items())[
                :self.config.fallback_quorum]
            attestations = tuple(
                intern_payload(NewViewMsg(
                    view=view, bit=bit, qc=None,
                    sender=sender, auth=message.auth))
                for sender, message in chosen)
        auth = self.config.proposer.attempt(self.node_id, view, bit)
        if auth is None:
            return  # not this view's leader
        proposal = LeaderProposeMsg(view=view, bit=bit, qc=qc,
                                    attestations=attestations,
                                    sender=self.node_id, auth=auth)
        ctx.multicast(proposal)
        self.proposals.setdefault(view, []).append(proposal)

    def _acceptable(self, proposal: LeaderProposeMsg) -> bool:
        """The prevote lock rule (receiver-local, never cached)."""
        if proposal.qc is None:
            return self.locked is None
        if self.locked is None:
            return True
        return (proposal.qc.iteration >= self.locked.iteration
                or proposal.bit == self.locked.bit)

    def _do_prevote(self, ctx: RoundContext, view: int) -> None:
        acceptable = [proposal for proposal in self.proposals.get(view, [])
                      if self._acceptable(proposal)]
        if not acceptable:
            return
        chosen = max(acceptable, key=lambda p: (rank(p.qc), -p.bit))
        auth = self.config.authenticator.attempt(
            self.node_id, ("Vote", view, chosen.bit))
        if auth is None:
            return
        ctx.multicast(PrevoteMsg(view=view, bit=chosen.bit,
                                 sender=self.node_id, auth=auth))
        # Count the node's own prevote (the network does not self-deliver).
        self._record_prevote(view, chosen.bit, self.node_id, auth)

    def _do_precommit(self, ctx: RoundContext, view: int) -> None:
        for bit in (0, 1):
            votes = self.votes_seen.get((view, bit), {})
            if len(votes) < self.config.threshold:
                continue
            self._absorb_qc(intern_payload(certificate_from_votes(
                view, bit, votes, self.config.threshold)))
            auth = self.config.authenticator.attempt(
                self.node_id, ("Precommit", view, bit))
            if auth is not None:
                message = PrecommitMsg(view=view, bit=bit,
                                       sender=self.node_id, auth=auth)
                ctx.multicast(message)
                self.precommits_seen.setdefault(
                    (view, bit), {}).setdefault(self.node_id, message)
            # At most one precommit per view.  Quorum intersection
            # (n - 2f > f overlap) makes a same-view quorum for the
            # other bit impossible; stopping here turns that safety
            # argument into an explicit structural invariant instead of
            # an assumption about the vote tallies.
            break

    # -- main entry point ----------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        if self._final_msg is not None:
            # Decided before sends were trusted: re-announce at each view
            # boundary until one announcement provably reaches everyone,
            # then halt (the GST-aware drain — see the module docstring).
            if ctx.round % VIEW_ROUNDS == 0:
                ctx.multicast(self._final_msg)
                if ctx.round >= self.config.trusted_send_round:
                    self.halted = True
            return
        self._process_inbox(ctx)
        if self._maybe_decide(ctx):
            return
        view, phase = schedule(ctx.round)
        if view > self.config.total_views:
            # Budget exhausted without a final-height decision.
            self.halted = True
            return
        if self.config.height_of_view(view) in self.height_decisions:
            return  # this height is settled; idle out its window
        if phase == PHASE_NEW_VIEW:
            self._do_new_view(ctx, view)
        elif phase == PHASE_PROPOSE:
            self._do_propose(ctx, view)
        elif phase == PHASE_PREVOTE:
            self._do_prevote(ctx, view)
        elif phase == PHASE_PRECOMMIT:
            self._do_precommit(ctx, view)

    def output(self) -> Optional[Bit]:
        decision = self.height_decisions.get(self.config.heights)
        return decision[1] if decision is not None else None

    def finalize(self) -> Bit:
        decided = self.output()
        return decided if decided is not None else self.belief


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def build_leader_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    heights: int = 1,
    views_per_height: Optional[int] = None,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Construct a leader-BA execution over ``n`` nodes.

    ``f`` must satisfy ``n > 3f`` (the partial-synchrony optimum);
    quorums are ``n - f``, so any two intersect in ``n - 2f > f`` nodes
    for every admitted ``n`` — not just ``n = 3f + 1``, where ``n - f``
    coincides with the textbook ``2f + 1``.  ``conditions`` — the same
    :class:`~repro.sim.conditions.NetworkConditions` the engine will run
    under — derives the view-timer budget and the decide-announcement
    drain gate from Δ/GST; ``None`` (or perfect conditions) is
    lock-step, where every round is trusted and the budget is ``f + 3``
    views per height.
    """
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 3 * f:
        raise ConfigurationError(
            f"leader BA requires f < n/3: n={n}, f={f}")
    if heights < 1:
        raise ConfigurationError(f"need at least one height, got {heights}")
    if views_per_height is None:
        views_per_height = default_views_per_height(f, conditions)
    if views_per_height < 1:
        raise ConfigurationError(
            f"need at least one view per height, got {views_per_height}")
    registry = KeyRegistry(n, registry_mode, group, seed)
    authenticator = SignatureAuthenticator(registry)
    leader_oracle = oracle if oracle is not None else RoundRobinLeaderOracle(n)
    config = LeaderBaConfig(
        threshold=n - f,
        fallback_quorum=f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(leader_oracle, authenticator),
        views_per_height=views_per_height,
        heights=heights,
        trusted_send_round=trusted_send_round_for(conditions),
    )
    nodes = [LeaderBaNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    return ProtocolInstance(
        name="leader-ba" if heights == 1 else "leader-chain",
        nodes=nodes,
        max_rounds=rounds_for_views(config.total_views),
        inputs={i: inputs[i] for i in range(n)},
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
        services={
            "registry": registry,
            "authenticator": authenticator,
            "oracle": leader_oracle,
            "threshold": config.threshold,
            "config": config,
        },
    )


def build_leader_chain(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    heights: int = DEFAULT_CHAIN_HEIGHTS,
    views_per_height: Optional[int] = None,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """The multi-height chain workload: ``heights`` repeated leader-BA
    instances through one view schedule, locks and beliefs carried
    across height boundaries (see the module docstring).  The heavy-
    traffic scenario axis — per-view NewView/Propose/Prevote/Precommit
    traffic sustained over every height window."""
    return build_leader_ba(
        n, f, inputs, seed=seed, heights=heights,
        views_per_height=views_per_height, registry_mode=registry_mode,
        group=group, oracle=oracle, conditions=conditions)
