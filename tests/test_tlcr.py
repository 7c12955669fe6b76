"""Receive-threshold layer: step mechanics and viral catch-up."""

from __future__ import annotations

from collections import deque

import pytest

from quesera.netsim import configure
from quesera.tlcr import ConfigError, Tlcr, TransportIntegrityError
from quesera.wire import PLAIN, StepMessage


class ScriptedCtx:
    """Hand-fed transport: collect() feeds the layer's handler from a script
    until the step completes, sends are recorded."""

    def __init__(self, script=()):
        self.script = deque(script)
        self.broadcasts = []
        self.unicasts = []

    def step_begin(self):
        pass

    def broadcast(self, msg):
        self.broadcasts.append(msg)

    def unicast(self, dest, msg):
        self.unicasts.append((dest, msg))

    def collect(self, layer):
        while True:
            if not self.script:
                raise AssertionError("layer wanted more messages than scripted")
            if layer.handle(self.script.popleft()):
                return True


def drive(gen):
    """Run a layer generator to completion, return its result."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def plain(sender, step, payload, prior=None):
    return StepMessage(layer="r", kind=PLAIN, sender=sender, step=step,
                       payload=payload, prior_r=prior)


def test_configure_names_violations():
    configure("tlcr", 4, 1, t_r=3)
    with pytest.raises(ConfigError, match="t_r <= n"):
        configure("tlcr", 3, 0, t_r=4)
    with pytest.raises(ConfigError, match="n - t_r"):
        configure("tlcr", 4, 2, t_r=3)


def test_step_collects_until_threshold_and_drops_stale():
    """Two steps back to back: the second sees a leftover step-1 message and
    must ignore it -- that step is over."""
    ctx = ScriptedCtx([
        plain(0, 1, b"self"), plain(1, 1, b"m1"),
        plain(9, 1, b"old"),  # late step-1 message, read during step 2
        plain(0, 2, b"self2"), plain(2, 2, b"m2"),
    ])
    layer = Tlcr(ctx, 0, configure("tlcr", 3, 0, t_r=2))
    res1 = drive(layer.broadcast(b"self"))
    assert res1.r == {(0, b"self"), (1, b"m1")}
    assert res1.b == frozenset()
    res2 = drive(layer.broadcast(b"self2"))
    assert res2.r == {(0, b"self2"), (2, b"m2")}
    assert (9, b"old") not in res2.r
    # the step message carries the previous receive set for viral catch-up
    assert ctx.broadcasts[1].prior_r == res1.r


def test_viral_adoption_completes_step_and_replays_trigger():
    """A step-2 message while in step 1 finishes step 1 with the peer's
    piggybacked set; the trigger itself must then count in step 2."""
    peer_set = frozenset({(1, b"m1"), (2, b"m2")})
    ctx = ScriptedCtx([
        plain(1, 2, b"next1", prior=peer_set),  # node 1 raced ahead
        plain(2, 2, b"next2", prior=peer_set),  # only one more needed in step 2
    ])
    layer = Tlcr(ctx, 0, configure("tlcr", 3, 0, t_r=2))
    res1 = drive(layer.broadcast(b"mine"))
    assert res1.r == peer_set  # adopted wholesale; own message was too slow
    res2 = drive(layer.broadcast(b"mine2"))
    assert res2.r == {(1, b"next1"), (2, b"next2")}  # trigger replayed, not lost


def test_future_gap_and_missing_piggyback_are_transport_errors():
    layer = Tlcr(ScriptedCtx([plain(1, 3, b"x", prior=frozenset())]),
                 0, configure("tlcr", 3, 0, t_r=2))
    with pytest.raises(TransportIntegrityError, match="step 3"):
        drive(layer.broadcast(b"m"))

    layer = Tlcr(ScriptedCtx([plain(1, 2, b"x", prior=None)]),
                 0, configure("tlcr", 3, 0, t_r=2))
    with pytest.raises(TransportIntegrityError, match="piggyback"):
        drive(layer.broadcast(b"m"))


def test_zero_threshold_returns_immediately():
    layer = Tlcr(ScriptedCtx(), 0, configure("tlcr", 3, 0, t_r=0))
    res = drive(layer.broadcast(b"m"))
    assert res.r == frozenset()
