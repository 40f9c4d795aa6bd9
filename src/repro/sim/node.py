"""Protocol node base class and the per-round execution context.

A node's entire interaction with the world happens through its
:class:`RoundContext`: it reads the messages delivered at the beginning of
the round and stages multicasts/unicasts that will be delivered next
round.  Nodes never touch the network or other nodes directly, which is
what lets the corruption controller hand a *corrupted node's own logic* to
the adversary (e.g. the Dolev–Reischuk adversary runs corrupt nodes
honestly but filters their inboxes).
"""

from __future__ import annotations

import abc
import random
from typing import Any, List, Optional

from repro.sim.network import Delivery, RoundInboxes
from repro.types import Bit, NodeId, Round


class RoundContext:
    """What a node sees and can do during one round.

    ``shared`` is the round's :class:`~repro.sim.network.RoundInboxes`
    when the engine delivers through one; ``inbox`` (pass ``None``) then
    materializes from it on first read, so a node that absorbs the round
    from a shared aggregate never builds its own list.
    """

    def __init__(self, node_id: NodeId, round_index: Round,
                 inbox: Optional[List[Delivery]], rng: random.Random,
                 shared: Optional[RoundInboxes] = None) -> None:
        self.node_id = node_id
        self.round = round_index
        self._inbox = inbox
        self.rng = rng
        self.shared = shared
        #: Messages staged this round: (recipient | None, payload).
        self.staged: List[tuple[Optional[NodeId], Any]] = []

    @property
    def inbox(self) -> List[Delivery]:
        inbox = self._inbox
        if inbox is None:
            inbox = self._inbox = self.shared[self.node_id]
        return inbox

    def multicast(self, payload: Any) -> None:
        """Stage a multicast to all other nodes (the paper's only
        communication primitive for its own protocols)."""
        self.staged.append((None, payload))

    def send(self, recipient: NodeId, payload: Any) -> None:
        """Stage a point-to-point message (used by baselines and attacks)."""
        self.staged.append((recipient, payload))


class Node(abc.ABC):
    """Base class for all protocol nodes.

    Subclasses implement :meth:`on_round`; the engine calls it exactly once
    per round while the node is honest and not halted.  ``halted`` nodes
    stop participating (used by protocols with early termination).
    """

    def __init__(self, node_id: NodeId, n: int) -> None:
        self.node_id = node_id
        self.n = n
        self.halted = False
        self.decided_round: Optional[Round] = None

    @abc.abstractmethod
    def on_round(self, ctx: RoundContext) -> None:
        """Process this round's inbox and stage outgoing messages."""

    @abc.abstractmethod
    def output(self) -> Optional[Bit]:
        """The node's current output to the environment, if decided."""

    def finalize(self) -> Bit:
        """Output forced at the end of the execution.

        The paper's Theorem 4 proof WLOG converts non-termination into
        outputting a default; protocols override this with their natural
        fallback (e.g. the currently preferred bit).
        """
        decided = self.output()
        return decided if decided is not None else 0

    def decide(self, value: Bit, round_index: Round) -> None:
        """Record a decision (subclasses call this exactly once)."""
        if self.decided_round is None:
            self.decided_round = round_index
        self._decision = value

    def reveal_state(self) -> dict:
        """What the adversary learns upon corrupting this node.

        Default: the full instance dictionary (all secrets).  Protocols in
        the memory-erasure model override this to exclude erased keys.
        """
        return dict(vars(self))
