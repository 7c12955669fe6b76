"""Witnessed step broadcast: request, acknowledge, announce.

Per step every node broadcasts a ``req`` carrying its message, acks every
same-step req it sees (its own included — the self-ack counts), and once
``t_s`` distinct nodes have acked its message it broadcasts a ``wit``
announcement.  The step completes when announcements from ``t_b`` distinct
senders are in, so the returned B is the witnessed subset of R and every B
member provably reached t_s nodes within the step.

Stale reqs are not acked — an ack would vouch for a message in a step that is
already over.  A message one step ahead completes the current step virally:
its piggybacked R and B sets are merged, and the triggering message itself is
replayed at the start of its own step so the sender's req still lands in our
receive set before any of its announcements (keeping B within R).
"""

from __future__ import annotations

from .tlcr import StepCollector, TransportIntegrityError
from .tsb import Thresholds, TsbResult
from .wire import ACK, REQ, WIT, StepMessage


class Tlcw(StepCollector):
    """Per-node state machine for the witnessing layer."""

    name = "tlcw"
    tag = "w"

    @staticmethod
    def claim(th: Thresholds) -> Thresholds:
        # receive threshold matches t_b: B is within R, so t_b senders in B
        # means at least that many in R
        return Thresholds(th.n, th.f, th.t_b, th.t_b, th.t_s)

    def __init__(self, ctx, node: int, th: Thresholds):
        super().__init__(ctx, node, th.t_b)
        self.t_s = th.t_s
        self._prev = TsbResult(frozenset(), frozenset())

    def broadcast(self, m: bytes):
        self.step += 1
        self._m = m
        self._cur_r: set[tuple[int, bytes]] = set()
        self._cur_b: set[tuple[int, bytes]] = set()
        self._acks: set[int] = set()
        yield from self._run_step(self._msg(REQ, m))
        self._prev = TsbResult(frozenset(self._cur_r), frozenset(self._cur_b))
        return self._prev

    def _msg(self, kind: str, payload: bytes) -> StepMessage:
        prev = self._prev
        return StepMessage(self.tag, kind, self.node, self.step, payload, prev.r, prev.b)

    def have(self) -> int:
        return len(self._cur_b)

    def on_current(self, msg: StepMessage) -> None:
        if msg.kind == REQ:
            self._cur_r.add((msg.sender, msg.payload))
            self.ctx.unicast(msg.sender, self._msg(ACK, msg.payload))
        elif msg.kind == ACK:
            if msg.payload == self._m and msg.sender not in self._acks:
                self._acks.add(msg.sender)
                if len(self._acks) == self.t_s:
                    self.ctx.broadcast(self._msg(WIT, self._m))
        elif msg.kind == WIT:
            self._cur_b.add((msg.sender, msg.payload))

    def adopt(self, msg: StepMessage) -> None:
        if msg.prior_r is None or msg.prior_b is None:
            raise TransportIntegrityError(f"node {self.node}: future message without piggyback")
        self._cur_r |= msg.prior_r
        self._cur_b |= msg.prior_b
