"""Certificates: quorums of votes, and their ranking by iteration.

Appendix C.1: *"a collection of f + 1 (signed) iteration-r Vote messages
for the same bit b from distinct nodes is said to be an iteration-r
certificate for b"* (λ/2 votes in the subquadratic protocol).  Bits with
no certificate are treated as holding an *iteration-0 certificate*, the
lowest rank; here that is represented by ``certificate=None`` and
:func:`rank` mapping ``None`` to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.protocols.messages import SignedVote
from repro.serialization import (
    _intern_column_key,
    intern_by_key,
    intern_columns,
    intern_payload,
)
from repro.types import Bit

#: Rank of the fictitious iteration-0 certificate (no certificate at all).
GENESIS_RANK = 0


@dataclass(frozen=True)
class Certificate:
    """An iteration-``r`` certificate for ``bit``: a quorum of votes."""

    iteration: int
    bit: Bit
    votes: Tuple[SignedVote, ...]

    @property
    def rank(self) -> int:
        return self.iteration


def rank(certificate: Optional[Certificate]) -> int:
    """Rank of a certificate, with ``None`` as the iteration-0 bottom."""
    return GENESIS_RANK if certificate is None else certificate.rank


def certificate_from_votes(iteration: int, bit: Bit,
                           votes: dict, threshold: int) -> Certificate:
    """Assemble a certificate from a voter → auth map (caller-validated).

    Votes are ordered by voter id so the certificate bytes are canonical;
    only ``threshold`` votes are included — the minimum needed — keeping
    the message size at the paper's O(λ(log κ + log n)).

    Each wrapped vote is interned: every node wraps the same (shared)
    auth objects into content-equal ``SignedVote`` copies, and the arena
    collapses those to one object per vote, so identity-keyed memos
    (size accounting, tag caches) hit across all assemblers.
    """
    # Sorting the (distinct) voter ids alone orders the votes exactly as
    # sorting the items would, with int comparisons only.
    voters = tuple(sorted(votes)[:threshold])
    auths = tuple(map(votes.__getitem__, voters))
    # Assembly itself is interned: every honest node assembles this same
    # certificate from the same quorum of (shared) auth objects, so after
    # the first build the others resolve with one key construction and no
    # SignedVote wrapping at all.  The key pins its auth ids through the
    # representative's votes; vote wrapping inside the first build is
    # interned too, so vote objects are shared even across certificates,
    # and so is the first build itself, so the result is always the
    # arena's representative of its content (callers need not re-intern).
    key = (Certificate, iteration, bit, voters, _intern_column_key(auths))
    return intern_by_key(key, lambda: intern_payload(Certificate(
        iteration=iteration,
        bit=bit,
        votes=tuple(intern_columns(SignedVote, (iteration,) * len(voters),
                                   (bit,) * len(voters), voters, auths)),
    )))


def verify_certificate(certificate: Certificate, threshold: int,
                       check_vote: Callable[[SignedVote], bool]) -> bool:
    """Structural + cryptographic validity of a certificate.

    ``check_vote`` performs the mode-specific authentication (signature
    verification in the quadratic world, ``Fmine.verify``/VRF verification
    in the subquadratic world).
    """
    if certificate.iteration < 1:
        return False
    if certificate.bit not in (0, 1):
        return False
    voters = {vote.voter for vote in certificate.votes}
    if len(voters) != len(certificate.votes):
        return False  # duplicate voters
    if len(voters) < threshold:
        return False
    for vote in certificate.votes:
        if vote.iteration != certificate.iteration or vote.bit != certificate.bit:
            return False
        if not check_vote(vote):
            return False
    return True
