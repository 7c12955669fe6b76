"""Receive-threshold step broadcast (the rotating receive-set layer).

Each call starts a fresh logical step: broadcast the caller's message together
with the just-completed previous receive set, then collect same-step messages
until ``t_r`` distinct senders are in.  A message from one step ahead proves
the peer completed the current step, so its piggybacked set is adopted
wholesale (viral catch-up) and the call completes immediately; the triggering
message itself is replayed at the start of its own step so it still counts
there (otherwise a trailing node could starve on the last step of a run, one
consumed message short of its threshold).  Messages for already-finished
steps are dropped silently — per-step messages are worthless once the step
is over.

The layer talks to a node context supplying the transport::

    ctx.step_begin()         account one wire-level step
    ctx.broadcast(msg)       fan a StepMessage out to all n nodes
    ctx.unicast(dest, msg)   send to one node
    ctx.collect(layer)       hand lane ``layer.tag`` to ``layer.handle``

``collect`` feeds the lane's queued messages to the handler and returns True
if they complete the step.  Otherwise the context keeps the handler, runs it
on each message the moment it is delivered on that lane, and resumes the
layer once, when the handler reports the step complete.  ``broadcast`` is a
generator so a whole protocol stack runs as one coroutine per node under the
deterministic scheduler; it yields at most once per step.
"""

from __future__ import annotations

from .tsb import Thresholds, TsbResult
from .wire import PLAIN, StepMessage


class ConfigError(ValueError):
    """A threshold configuration violates its admission inequalities."""


class TransportIntegrityError(Exception):
    """The transport broke a promise (FIFO gap, malformed piggyback)."""


class StepCollector:
    """The step skeleton of one lane, shared by the receive-threshold and
    witnessing layers.  A subclass names its lane ``tag``, keeps its step's
    sets and supplies ``need``, ``have()`` (the count that must reach it),
    ``on_current(msg)`` for a message of the current step, and
    ``adopt(msg)``, which merges the piggybacked sets of a message one step
    ahead.  While a step waits, the node context runs :meth:`handle` on each
    delivery of the lane.

    Like every layer class, a subclass states the ``name`` it is recorded
    under, its ``claim(th)`` over the stack's thresholds, and ``subs``, the
    ``(attribute, layer class, steps per call)`` of each sub-layer it holds;
    layers built on this skeleton hold none."""

    subs: tuple = ()

    def __init__(self, ctx, node: int, need: int):
        self.ctx = ctx
        self.node = node
        self.need = need
        self.step = 0
        self._replay: list[StepMessage] = []

    def _run_step(self, first: StepMessage):
        """Generator: send ``first``, count the messages held over for this
        step, then handle the lane until the step completes."""
        self.ctx.step_begin()
        self.ctx.broadcast(first)
        replay, self._replay = self._replay, []
        for msg in replay:
            self.on_current(msg)
        if self.have() < self.need and not self.ctx.collect(self):
            yield  # resumed by the delivery that completes the step

    def handle(self, msg: StepMessage) -> bool:
        """Take one message of this lane; True once the step is complete."""
        step = self.step
        if msg.step == step:
            self.on_current(msg)
        elif msg.step < step:
            return False  # stale: its step is over, the message is lost
        elif msg.step == step + 1:
            self.adopt(msg)  # the peer finished this step; take its sets
            self._replay.append(msg)  # and count its message at its own step
        else:
            raise TransportIntegrityError(
                f"node {self.node}: step {msg.step} message while in {step}"
            )
        return self.have() >= self.need


class Tlcr(StepCollector):
    """Per-node state machine for the receive-threshold layer."""

    name = "tlcr"
    tag = "r"

    @staticmethod
    def claim(th: Thresholds) -> Thresholds:
        return Thresholds(th.n, th.f, th.t_r, 0, 0)

    def __init__(self, ctx, node: int, th: Thresholds):
        super().__init__(ctx, node, th.t_r)
        self._prev = TsbResult(frozenset(), frozenset())

    def broadcast(self, m: bytes):
        """One step: send ``m``, gather t_r same-step messages, return (R, {})."""
        self.step += 1
        self._cur: set[tuple[int, bytes]] = set()
        msg = StepMessage(self.tag, PLAIN, self.node, self.step, m, self._prev.r)
        yield from self._run_step(msg)
        self._prev = TsbResult(frozenset(self._cur), frozenset())
        return self._prev

    def have(self) -> int:
        return len(self._cur)

    def on_current(self, msg: StepMessage) -> None:
        self._cur.add((msg.sender, msg.payload))

    def adopt(self, msg: StepMessage) -> None:
        if msg.prior_r is None:
            raise TransportIntegrityError(f"node {self.node}: future message without piggyback")
        self._cur |= msg.prior_r
