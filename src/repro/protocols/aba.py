"""The iterated Status/Propose/Vote/Commit BA node (Appendix C).

One node implementation serves both worlds:

- **quadratic warmup** (C.1): signature authenticator (everyone speaks),
  threshold ``f + 1``, oracle leader;
- **subquadratic** (C.2): eligibility authenticator (conditional
  multicast), threshold ``λ/2``, mined leaders.

Protocol structure per iteration ``r`` (the very first iteration skips
Status and Propose):

1. **Status** — multicast the highest certificate seen so far.
2. **Propose** — an eligible proposer multicasts ``(Propose, r, b)`` for
   the bit ``b`` carrying its highest certificate, certificate attached.
3. **Vote** — vote for a proposed ``b`` unless a *strictly* higher
   certificate for ``1 - b`` has been observed (an equal-rank opposite
   certificate does not block).  Iteration 1: vote for the input bit.
   Votes attach the justifying proposal (footnote 11) — this is what
   prevents corrupt nodes from manufacturing votes for a bit no eligible
   proposer proposed.
4. **Commit** — upon a quorum of iteration-``r`` votes for ``b`` with *no*
   valid iteration-``r`` vote for ``1 - b``, multicast ``(Commit, r, b)``
   with the certificate attached.

At any time, a quorum of iteration-``r`` commits for ``b`` (or a valid
``Terminate`` message) makes the node output ``b``, conditionally multicast
``(Terminate, b)`` with the commits attached, and halt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.protocols.base import Authenticator, ProposerPolicy
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    rank,
)
from repro.protocols import verification
from repro.protocols.verification import CACHE_LIMIT, VerificationCache
from repro.protocols.messages import (
    CommitMsg,
    ProposeMsg,
    SignedVote,
    StatusMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.serialization import _intern_field_key, intern_by_key, intern_payload
from repro.sim.network import RoundInboxes
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId, Round, other_bit

PHASE_STATUS = "Status"
PHASE_PROPOSE = "Propose"
PHASE_VOTE = "Vote"
PHASE_COMMIT = "Commit"

_LATER_PHASES = (PHASE_STATUS, PHASE_PROPOSE, PHASE_VOTE, PHASE_COMMIT)


def schedule(round_index: Round) -> Tuple[int, str]:
    """Map a global round to ``(iteration, phase)``.

    Iteration 1 consists of Vote and Commit only (C.1: "the protocol for
    the very first iteration skips the Status and Propose rounds").
    """
    if round_index == 0:
        return 1, PHASE_VOTE
    if round_index == 1:
        return 1, PHASE_COMMIT
    offset = round_index - 2
    return 2 + offset // 4, _LATER_PHASES[offset % 4]


def rounds_for_iterations(iterations: int) -> int:
    """Rounds needed to run the given number of iterations to completion,
    plus one delivery round so final-commit quorums can be tallied."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    return 2 + 4 * (iterations - 1) + 1


def vote_send_round(iteration: int) -> Round:
    """The global round in which iteration-``r`` votes are multicast
    (inverse of :func:`schedule` for the Vote phase)."""
    return 0 if iteration == 1 else 4 * iteration - 4


@dataclass
class AbaConfig:
    """Parameters distinguishing the quadratic and subquadratic worlds."""

    threshold: int
    authenticator: Authenticator
    proposer: ProposerPolicy
    max_iterations: int
    #: Execution-wide memo for the public verification predicates; the
    #: nodes of one instance share it (see repro.protocols.verification).
    verification: VerificationCache = field(default_factory=VerificationCache)
    #: GST-aware early stopping (the ``quadratic-early-stop`` registry
    #: key): decide the moment an iteration's votes are unanimous — all
    #: ``n`` voters for one bit — instead of waiting for the Commit
    #: round-trip.  Sound because a unanimous vote round leaves at most
    #: ``f < threshold`` possible opposite votes, so no conflicting
    #: certificate can ever form.  Detection is gated on
    #: ``trusted_send_round``: before it, drops or unhealed partitions
    #: can fake unanimity in a single node's view (see
    #: ``docs/PROTOCOLS.md``).
    early_stop_unanimity: bool = False
    #: First protocol round whose sends provably reach every honest node
    #: (``NetworkConditions.trusted_send_round``; 0 under lock-step).
    trusted_send_round: Round = 0


class _RoundTally:
    """The recipient-independent part of absorbing one plain round.

    Built once per round and protocol instance from the round's
    deliveries in send order (see :meth:`AbaNode._build_tally`):

    - ``groups``: ``(iteration, bit) -> {sender: auth}`` for votes or
      ``{sender: CommitMsg}`` for commits, insertion-ordered by send order;
    - ``certificates``: ``bit -> (certificate, channel sender)`` for the
      first highest-iteration certificate the round's payloads attach;
    - ``proposals``: ``(channel sender, ProposeMsg)`` in send order.
    """

    __slots__ = ("kind", "iteration", "groups", "certificates", "proposals")

    def __init__(self) -> None:
        self.kind: Optional[type] = None
        self.iteration = 0
        self.groups: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        self.certificates: Dict[Bit, Tuple[Certificate, NodeId]] = {}
        self.proposals: List[Tuple[NodeId, ProposeMsg]] = []


class AbaNode(Node):
    """One party of the iterated BA protocol."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: AbaConfig) -> None:
        super().__init__(node_id, n)
        self.input_bit = input_bit
        self.config = config
        # Highest certificate observed per bit (None = iteration-0 rank).
        self.best_cert: Dict[Bit, Optional[Certificate]] = {0: None, 1: None}
        # (iteration, bit) -> voter -> auth, valid votes only.
        self.votes_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        # (iteration, bit) -> sender -> CommitMsg, valid commits only.
        self.commits_seen: Dict[Tuple[int, Bit], Dict[NodeId, CommitMsg]] = {}
        # Valid proposals received, per iteration.
        self.proposals: Dict[int, List[ProposeMsg]] = {}
        self.last_vote: Optional[Bit] = None
        self.decision: Optional[Bit] = None
        self.decision_iteration: Optional[int] = None
        # Verification of votes, certificates, and proposals is a public
        # pure predicate, memoized by *content* and shared across the
        # instance's nodes: every sender assembles its own content-equal
        # certificate objects, and the historical per-node identity-keyed
        # cache re-verified each copy from scratch.
        self._verification = config.verification
        # Per-node identity front for certificates: each received object
        # is resolved at most once per node (entries pin the object, so
        # ids cannot be recycled).  Unlike the shared cache this may hold
        # negative results — the same "each object checked once" contract
        # the original per-node cache had.
        self._cert_cache: Dict[int, Tuple[Certificate, bool]] = {}

    # -- validation helpers --------------------------------------------------
    def _check_auth(self, node_id: NodeId, topic: Any, auth: Any) -> bool:
        return self._verification.check_auth(
            self.config.authenticator, node_id, topic, auth)

    def _check_vote_auth(self, vote: SignedVote) -> bool:
        return self._verification.check_vote(self.config.authenticator, vote)

    def _check_certificate(self, certificate: Optional[Certificate],
                           expected_bit: Optional[Bit] = None) -> bool:
        if certificate is None:
            return True  # the fictitious iteration-0 certificate
        if expected_bit is not None and certificate.bit != expected_bit:
            return False
        entry = self._cert_cache.get(id(certificate))
        if entry is not None and entry[0] is certificate:
            return entry[1]
        result = self._verification.check_certificate(
            certificate, self.config.threshold, self._check_vote_auth)
        if len(self._cert_cache) >= CACHE_LIMIT:
            self._cert_cache.clear()
        self._cert_cache[id(certificate)] = (certificate, result)
        return result

    def _absorb_certificate(self, certificate: Optional[Certificate]) -> None:
        """Track the highest-ranked certificate per bit (pre-validated)."""
        if certificate is None:
            return
        current = self.best_cert[certificate.bit]
        # Inlined ``rank(certificate) > rank(current)`` (None ranks as
        # GENESIS_RANK) — this runs once per absorbed message and the
        # attribute compare is measurably cheaper than two function calls
        # at n ≥ 768.
        if certificate.iteration > (
                current.iteration if current is not None else 0):
            self.best_cert[certificate.bit] = certificate

    def _proposal_valid(self, msg: ProposeMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        if not self._verification.check_proposal(
                self.config.proposer, msg.sender, msg.iteration,
                msg.bit, msg.auth):
            return False
        return self._check_certificate(msg.certificate, expected_bit=msg.bit)

    def _preferred_bit(self) -> Bit:
        """Bit of the overall highest certificate; falls back to the last
        vote, then the input bit."""
        rank0, rank1 = rank(self.best_cert[0]), rank(self.best_cert[1])
        if rank0 > rank1:
            return 0
        if rank1 > rank0:
            return 1
        return self.last_vote if self.last_vote is not None else self.input_bit

    # -- inbox processing ------------------------------------------------------
    def _process_inbox(self, ctx: RoundContext) -> Optional[Tuple[int, Bit]]:
        """Validate and absorb every delivery; return a pending decision
        ``(iteration, bit)`` if one became available.

        A plain round (every delivery an honest, unsuppressed multicast)
        is absorbed from the round's shared tally when this node's view
        of it is exact; anything else runs the per-delivery loop.
        """
        shared = ctx.shared
        pending: Optional[Tuple[int, Bit]] = None
        if not (shared is not None and shared.plain
                and verification.CACHING_ENABLED
                and self._apply_tally(self._round_tally(shared))):
            pending = self._absorb_deliveries(ctx.inbox)
        for (iteration, bit), commits in self.commits_seen.items():
            if len(commits) >= self.config.threshold:
                pending = (iteration, bit)
        return pending

    def _absorb_deliveries(self, inbox) -> Optional[Tuple[int, Bit]]:
        """The per-delivery loop: run each message's handler in inbox
        order; return the last adopted ``Terminate`` decision, if any."""
        pending: Optional[Tuple[int, Bit]] = None
        # The shared valid-payload front is probed inline: at n = 1536 a
        # single execution dispatches millions of deliveries, and the
        # method-call indirection of ``is_known_valid`` per delivery is
        # itself a top-five profile entry.  Reading the dict directly is
        # equivalent — ``mark_valid`` is gated on CACHING_ENABLED, so the
        # dict stays empty (every ``get`` misses) when caching is off.
        # Dispatch compares exact classes first (payload dataclasses are
        # never subclassed in-tree) with an isinstance fallback so
        # out-of-tree subclasses keep the historical behavior.
        front = self._verification.valid_payloads
        for delivery in inbox:
            msg = delivery.payload
            entry = front.get(id(msg))
            known = entry is not None and entry[0] is msg
            cls = msg.__class__
            if cls is VoteMsg:
                self._handle_vote(msg, known)
            elif cls is StatusMsg:
                self._handle_status(msg, known)
            elif cls is CommitMsg:
                self._handle_commit(msg, known)
            elif cls is ProposeMsg:
                self._handle_propose(msg, known)
            elif cls is TerminateMsg:
                adopted = self._handle_terminate(msg, known)
                if adopted is not None:
                    pending = adopted
            elif isinstance(msg, StatusMsg):
                self._handle_status(msg, known)
            elif isinstance(msg, ProposeMsg):
                self._handle_propose(msg, known)
            elif isinstance(msg, VoteMsg):
                self._handle_vote(msg, known)
            elif isinstance(msg, CommitMsg):
                self._handle_commit(msg, known)
            elif isinstance(msg, TerminateMsg):
                adopted = self._handle_terminate(msg, known)
                if adopted is not None:
                    pending = adopted
        return pending

    def _admit(self, msg: Any, valid: Callable[[Any], bool]) -> bool:
        """Run ``msg``'s validator unless the shared front already holds
        it, and record a success there.

        Validation (not absorption) of a message is recipient-independent:
        the first node to validate an exact object spares every other
        recipient (see VerificationCache.is_known_valid).  Both the
        per-delivery handlers (which pass the inlined front probe as
        ``known`` and call this only on a miss) and the round tally
        validate through here.
        """
        if self._verification.is_known_valid(msg):
            return True
        if not valid(msg):
            return False
        self._verification.mark_valid(msg)
        return True

    def _status_valid(self, msg: StatusMsg) -> bool:
        topic = ("Status", msg.iteration, msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        return self._check_certificate(msg.certificate, expected_bit=msg.bit)

    def _handle_status(self, msg: StatusMsg, known: bool = False) -> None:
        if known or self._admit(msg, self._status_valid):
            self._absorb_certificate(msg.certificate)

    def _handle_propose(self, msg: ProposeMsg, known: bool = False) -> None:
        if known or self._admit(msg, self._proposal_valid):
            self._absorb_certificate(msg.certificate)
            self.proposals.setdefault(msg.iteration, []).append(msg)

    def _vote_valid(self, msg: VoteMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Vote", msg.iteration, msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        if msg.iteration > 1:
            # Footnote 11: votes beyond iteration 1 carry the leader
            # proposal that justifies them.
            proposal = msg.proposal
            if (proposal is None or proposal.iteration != msg.iteration
                    or proposal.bit != msg.bit
                    or not self._proposal_valid(proposal)):
                return False
        return True

    def _handle_vote(self, msg: VoteMsg, known: bool = False) -> None:
        if known or self._admit(msg, self._vote_valid):
            if msg.iteration > 1:
                self._absorb_certificate(msg.proposal.certificate)
            self._record_vote(msg.iteration, msg.bit, msg.sender, msg.auth)

    def _record_vote(self, iteration: int, bit: Bit, voter: NodeId,
                     auth: Any) -> None:
        votes = self.votes_seen.setdefault((iteration, bit), {})
        votes.setdefault(voter, auth)
        best = self.best_cert[bit]
        # Inlined ``rank(best) < iteration`` (None ranks as GENESIS_RANK).
        if (len(votes) >= self.config.threshold
                and (best.iteration if best is not None else 0) < iteration):
            # A quorum of valid votes *is* a certificate, whether or not
            # the commit condition later holds.  Once best_cert holds an
            # iteration-r certificate for this bit, re-assembling one from
            # a larger vote set could never outrank it, so skip the
            # (quadratic-in-n) rebuild on every extra vote.  Nodes that
            # assemble from the same quorum get the same certificate, so
            # the intern arena collapses their content-equal copies to one
            # object — and every identity-keyed memo downstream (size
            # accounting, certificate fronts) hits for all of them.
            self._absorb_certificate(certificate_from_votes(
                iteration, bit, votes, self.config.threshold))

    def _commit_valid(self, msg: CommitMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Commit", msg.iteration, msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        certificate = msg.certificate
        if (certificate is None or certificate.iteration != msg.iteration
                or certificate.bit != msg.bit):
            return False
        return self._check_certificate(certificate, expected_bit=msg.bit)

    def _handle_commit(self, msg: CommitMsg, known: bool = False) -> None:
        if known or self._admit(msg, self._commit_valid):
            self._absorb_certificate(msg.certificate)
            self.commits_seen.setdefault(
                (msg.iteration, msg.bit), {}).setdefault(msg.sender, msg)

    def _commit_ref_valid(self, commit: CommitMsg) -> bool:
        """Validity of a certificate-stripped commit inside a Terminate.

        Lemma 15 bounds messages at O(λ(log κ + log n)), so Terminate
        attaches the λ/2 commits *without* their vote certificates.  The
        ticket quorum alone is sound: fewer than λ/2 corrupt nodes hold
        commit tickets (Lemma 11), so the quorum contains an honest
        committer.
        """
        if commit.bit not in (0, 1):
            return False
        topic = ("Commit", commit.iteration, commit.bit)
        return self._check_auth(commit.sender, topic, commit.auth)

    def _terminate_valid(self, msg: TerminateMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Terminate", msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        senders = set()
        for commit in msg.commits:
            if (commit.iteration != msg.iteration or commit.bit != msg.bit
                    or not self._commit_ref_valid(commit)):
                return False
            senders.add(commit.sender)
        return len(senders) >= self.config.threshold

    def _handle_terminate(self, msg: TerminateMsg,
                          known: bool = False) -> Optional[Tuple[int, Bit]]:
        if not (known or self._admit(msg, self._terminate_valid)):
            return None
        # Record the quorum so this node's own (relayed) Terminate can
        # attach it.
        recorded = self.commits_seen.setdefault((msg.iteration, msg.bit), {})
        for commit in msg.commits:
            recorded.setdefault(commit.sender, commit)
        return (msg.iteration, msg.bit)

    # -- shared round tally ----------------------------------------------------
    def _round_tally(self, shared: RoundInboxes) -> Optional["_RoundTally"]:
        """This instance's tally of the plain round ``shared``, built by
        the first of its nodes to ask and kept in the round's memo."""
        memo = shared.memo
        key = (_RoundTally, id(self.config))  # the config outlives the round
        if key not in memo:
            memo[key] = self._build_tally(shared.deliveries())
        return memo[key]

    def _build_tally(self, deliveries: List[Any]) -> Optional["_RoundTally"]:
        """Validate and group one plain round's deliveries in send order.

        Returns ``None`` — every node then runs the per-delivery loop —
        unless the round is one payload kind at one iteration, every
        payload names its channel sender, no sender repeats within a
        group, every message validates, and each vote group's bit has no
        attached certificate at or above the vote iteration (so the
        quorum-crossing certificate outranks everything the round
        absorbs).
        """
        tally = _RoundTally()
        if not deliveries:
            return tally
        kind = deliveries[0].payload.__class__
        valid = {StatusMsg: self._status_valid,
                 ProposeMsg: self._proposal_valid,
                 VoteMsg: self._vote_valid,
                 CommitMsg: self._commit_valid}.get(kind)
        if valid is None:
            return None
        iteration = deliveries[0].payload.iteration
        front = self._verification.valid_payloads
        groups = tally.groups
        certificates = tally.certificates
        for delivery in deliveries:
            msg = delivery.payload
            sender = delivery.sender
            if (msg.__class__ is not kind or msg.iteration != iteration
                    or msg.sender != sender):
                return None
            entry = front.get(id(msg))
            if not ((entry is not None and entry[0] is msg)
                    or self._admit(msg, valid)):
                return None
            if kind is VoteMsg:
                certificate = (msg.proposal.certificate if iteration > 1
                               else None)
                value = msg.auth
            else:
                certificate = msg.certificate
                value = msg
            if kind is VoteMsg or kind is CommitMsg:
                group = groups.setdefault((iteration, msg.bit), {})
                if sender in group:
                    return None
                group[sender] = value
            elif kind is ProposeMsg:
                tally.proposals.append((sender, msg))
            if certificate is not None:
                held = certificates.get(certificate.bit)
                if held is None or certificate.iteration > held[0].iteration:
                    certificates[certificate.bit] = (certificate, sender)
        if kind is VoteMsg:
            for _, bit in groups:
                held = certificates.get(bit)
                if held is not None and held[0].iteration >= iteration:
                    return None
        tally.kind = kind
        tally.iteration = iteration
        return tally

    def _apply_tally(self, tally: Optional["_RoundTally"]) -> bool:
        """Absorb a plain round from its shared tally, minus this node's
        own multicasts.

        Returns ``False``, with no state touched, when the result could
        differ from the per-delivery loop's; that is, when this node holds
        state for a tallied group beyond its own entry, or its own entry
        is not the one it multicast.  The quorum-crossing certificate is
        rebuilt from the first ``threshold`` entries of the node's
        insertion-ordered vote dict (its own vote first, then the others
        in send order): exactly the set the per-delivery loop holds when
        the quorum is reached.
        """
        if tally is None:
            return False
        me = self.node_id
        best_cert = self.best_cert
        for bit, (certificate, sender) in tally.certificates.items():
            # The per-delivery loop never sees this node's own multicast;
            # its attached certificate was absorbed before it was sent,
            # which makes absorbing it again a no-op.
            if sender == me and rank(best_cert[bit]) < certificate.iteration:
                return False
        is_vote = tally.kind is VoteMsg
        seen = self.votes_seen if is_vote else self.commits_seen
        threshold = self.config.threshold
        for (iteration, bit), group in tally.groups.items():
            mine = seen.get((iteration, bit))
            if not mine:
                if me in group:
                    return False
                continue
            if len(mine) != 1 or me not in mine:
                return False
            if me in group and group[me] is not mine[me]:
                return False
            if (is_vote and len(mine) >= threshold
                    and len(group) > (me in group)
                    and rank(best_cert[bit]) < iteration):
                # Already at quorum (threshold <= 1) without a certificate:
                # the per-delivery loop would assemble one from its first
                # insertion, not from the first ``threshold`` entries.
                return False
        for certificate, _ in tally.certificates.values():
            self._absorb_certificate(certificate)
        received = [msg for sender, msg in tally.proposals if sender != me]
        if received:
            self.proposals.setdefault(tally.iteration, []).extend(received)
        for (iteration, bit), group in tally.groups.items():
            mine = seen.setdefault((iteration, bit), {})
            before = len(mine)
            mine.update(group)
            if (is_vote and before < threshold <= len(mine)
                    and rank(best_cert[bit]) < iteration):
                self._absorb_certificate(certificate_from_votes(
                    iteration, bit, dict(islice(mine.items(), threshold)),
                    threshold))
        return True

    # -- decision ---------------------------------------------------------------
    def _terminate(self, ctx: RoundContext, iteration: int, bit: Bit) -> None:
        self.decision = bit
        self.decision_iteration = iteration
        self.decide(bit, ctx.round)
        auth = self.config.authenticator.attempt(
            self.node_id, ("Terminate", bit))
        if auth is not None:
            commits = self.commits_seen.get((iteration, bit), {})
            # Strip the vote certificates from the attached commits to meet
            # the O(λ(log κ + log n)) message bound (see _commit_ref_valid).
            # Interned as a whole quorum: every terminating node strips the
            # same commits, so the content-equal stripped tuples collapse
            # to one object — keyed by the chosen commits' identity (their
            # sender/auth determine the stripped content; iteration and bit
            # are fixed by the key head).  The arena entry keeps the chosen
            # originals alive alongside the stripped tuple, pinning every
            # id() the key references.
            chosen = sorted(commits.values(),
                            key=lambda c: c.sender)[:self.config.threshold]
            stripped = intern_by_key(
                (TerminateMsg, iteration, bit,
                 tuple([(c.sender, _intern_field_key(c.auth))
                        for c in chosen])),
                lambda: (tuple(chosen), tuple(
                    intern_payload(CommitMsg(
                        iteration=c.iteration, bit=c.bit, certificate=None,
                        sender=c.sender, auth=c.auth))
                    for c in chosen)))[1]
            payload = TerminateMsg(
                bit=bit,
                iteration=iteration,
                commits=stripped,
                sender=self.node_id,
                auth=auth,
            )
            ctx.multicast(payload)
        self.halted = True

    # -- phase actions -------------------------------------------------------------
    def _do_status(self, ctx: RoundContext, iteration: int) -> None:
        preferred = self._preferred_bit()
        certificate = self.best_cert[preferred]
        bit = preferred if certificate is not None else None
        auth = self.config.authenticator.attempt(
            self.node_id, ("Status", iteration, bit))
        if auth is not None:
            ctx.multicast(StatusMsg(iteration=iteration, bit=bit,
                                    certificate=certificate,
                                    sender=self.node_id, auth=auth))

    def _do_propose(self, ctx: RoundContext, iteration: int) -> None:
        bit = self._preferred_bit()
        auth = self.config.proposer.attempt(self.node_id, iteration, bit)
        if auth is not None:
            proposal = ProposeMsg(iteration=iteration, bit=bit,
                                  certificate=self.best_cert[bit],
                                  sender=self.node_id, auth=auth)
            ctx.multicast(proposal)
            # A proposer also justifies its own vote with its proposal.
            self.proposals.setdefault(iteration, []).append(proposal)

    def _choose_vote(self, iteration: int) -> Optional[VoteMsg]:
        if iteration == 1:
            bit = self.input_bit
            auth = self.config.authenticator.attempt(
                self.node_id, ("Vote", 1, bit))
            if auth is None:
                return None
            return VoteMsg(iteration=1, bit=bit, sender=self.node_id,
                           auth=auth, proposal=None)
        acceptable = [
            proposal for proposal in self.proposals.get(iteration, [])
            if rank(self.best_cert[other_bit(proposal.bit)])
            <= rank(proposal.certificate)
        ]
        if not acceptable:
            return None
        # Prefer the proposal carrying the highest certificate; break ties
        # deterministically towards bit 0 (any tie-break is sound: an
        # equal-rank certificate for the other bit never blocks, C.1 Vote).
        chosen = max(acceptable, key=lambda p: (rank(p.certificate), -p.bit))
        auth = self.config.authenticator.attempt(
            self.node_id, ("Vote", iteration, chosen.bit))
        if auth is None:
            return None
        return VoteMsg(iteration=iteration, bit=chosen.bit,
                       sender=self.node_id, auth=auth, proposal=chosen)

    def _do_vote(self, ctx: RoundContext, iteration: int) -> None:
        vote = self._choose_vote(iteration)
        if vote is None:
            return
        self.last_vote = vote.bit
        ctx.multicast(vote)
        # Count the node's own vote towards its quorums (the network does
        # not self-deliver).
        self._record_vote(vote.iteration, vote.bit, self.node_id, vote.auth)

    def _do_commit(self, ctx: RoundContext, iteration: int) -> None:
        for bit in (0, 1):
            votes = self.votes_seen.get((iteration, bit), {})
            opposing = self.votes_seen.get((iteration, other_bit(bit)), {})
            if len(votes) < self.config.threshold or opposing:
                continue
            certificate = certificate_from_votes(
                iteration, bit, votes, self.config.threshold)
            self._absorb_certificate(certificate)
            auth = self.config.authenticator.attempt(
                self.node_id, ("Commit", iteration, bit))
            if auth is not None:
                commit = CommitMsg(iteration=iteration, bit=bit,
                                   certificate=certificate,
                                   sender=self.node_id, auth=auth)
                ctx.multicast(commit)
                self.commits_seen.setdefault(
                    (iteration, bit), {}).setdefault(self.node_id, commit)

    def _unanimous_votes(self) -> Optional[Tuple[int, Bit]]:
        """An iteration whose votes are unanimous — all ``n`` voters for
        one bit — and whose vote round is past the trusted-send round."""
        trusted = self.config.trusted_send_round
        for (iteration, bit), votes in self.votes_seen.items():
            if (len(votes) >= self.n
                    and vote_send_round(iteration) >= trusted):
                return (iteration, bit)
        return None

    # -- main entry point ---------------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        iteration, phase = schedule(ctx.round)
        pending = self._process_inbox(ctx)
        if pending is not None:
            self._terminate(ctx, pending[0], pending[1])
            return
        if iteration > self.config.max_iterations:
            self.halted = True
            return
        if phase == PHASE_STATUS:
            self._do_status(ctx, iteration)
        elif phase == PHASE_PROPOSE:
            self._do_propose(ctx, iteration)
        elif phase == PHASE_VOTE:
            self._do_vote(ctx, iteration)
        elif phase == PHASE_COMMIT:
            self._do_commit(ctx, iteration)
        if self.config.early_stop_unanimity:
            # The fast path runs *after* the phase action: at the Commit
            # round the node has already multicast its own commit (so the
            # quorum machinery of slower nodes — whose view a rushing
            # equivocator can keep short of unanimity — is fed as usual)
            # and then decides immediately instead of waiting a round for
            # the commit quorum to come back.  Quietly: peers' commits
            # are still in flight, so a Terminate here would carry fewer
            # than threshold commits and be rejected by every receiver —
            # n wasted copies (when a quorum *is* already on hand,
            # _process_inbox has fired the normal _terminate above).
            unanimous = self._unanimous_votes()
            if unanimous is not None:
                self.decision_iteration, self.decision = unanimous
                self.decide(self.decision, ctx.round)
                self.halted = True

    def output(self) -> Optional[Bit]:
        return self.decision

    def finalize(self) -> Bit:
        decided = self.output()
        return decided if decided is not None else self._preferred_bit()
