"""Witnessed broadcast: req/ack/wit choreography and the B-within-R promise."""

from __future__ import annotations

import pytest

from quesera.netsim import SimConfig, configure, run
from quesera.tlcr import ConfigError
from quesera.tlcw import Tlcw
from quesera.tsb import validate_layer
from quesera.wire import ACK, REQ, WIT, StepMessage

from test_tlcr import ScriptedCtx, drive


def wmsg(kind, sender, step, payload, prior_r=frozenset(), prior_b=frozenset()):
    return StepMessage(layer="w", kind=kind, sender=sender, step=step,
                       payload=payload, prior_r=prior_r, prior_b=prior_b)


def test_configure_names_violations():
    configure("tlcw", 4, 1, t_b=3, t_s=3)
    with pytest.raises(ConfigError, match="t_b <= n - f"):
        configure("tlcw", 3, 1, t_b=3, t_s=2)
    with pytest.raises(ConfigError, match="t_s <= n - f"):
        configure("tlcw", 3, 1, t_b=2, t_s=3)
    with pytest.raises(ConfigError, match="0 < t_b"):
        configure("tlcw", 3, 0, t_b=0, t_s=2)


def test_step_choreography():
    """n=3, t_b=2, t_s=2, node 0: acks everything current (self included),
    announces once, on the t_s-th distinct acker, ignores vouches for other
    payloads."""
    m = b"mine"
    ctx = ScriptedCtx([
        wmsg(REQ, 0, 1, m),            # own req looped back -> self-ack
        wmsg(ACK, 0, 1, m),            # the self-ack counts: 1 of 2
        wmsg(REQ, 1, 1, b"theirs"),    # acked, lands in R
        wmsg(ACK, 2, 1, b"theirs"),    # vouch for someone else: not ours
        wmsg(ACK, 1, 1, m),            # 2 of 2 -> wit goes out now
        wmsg(ACK, 1, 1, m),            # a repeat from a counted acker: no 2nd wit
        wmsg(ACK, 2, 1, m),            # a third ack must not re-announce
        wmsg(WIT, 0, 1, m),
        wmsg(WIT, 1, 1, b"theirs"),    # t_b=2 announcements: step done
    ])
    layer = Tlcw(ctx, 0, configure("tlcw", 3, 0, t_b=2, t_s=2))
    res = drive(layer.broadcast(m))
    assert res.r == {(0, m), (1, b"theirs")}
    assert res.b == {(0, m), (1, b"theirs")}
    assert res.b <= res.r
    assert [(d, x.kind, x.payload) for d, x in ctx.unicasts] == [
        (0, ACK, m), (1, ACK, b"theirs")]
    assert [x.kind for x in ctx.broadcasts] == [REQ, WIT]


def test_stale_req_is_never_acked():
    """An ack would vouch for a message inside a step that already ended."""
    ctx = ScriptedCtx([
        wmsg(REQ, 0, 1, b"a"), wmsg(ACK, 0, 1, b"a"), wmsg(WIT, 0, 1, b"a"),
        wmsg(REQ, 2, 1, b"late"),  # arrives while node is in step 2
        wmsg(REQ, 0, 2, b"b"), wmsg(ACK, 0, 2, b"b"), wmsg(WIT, 0, 2, b"b"),
    ])
    layer = Tlcw(ctx, 0, configure("tlcw", 3, 0, t_b=1, t_s=1))
    drive(layer.broadcast(b"a"))
    drive(layer.broadcast(b"b"))
    assert all(x.payload != b"late" for _, x in ctx.unicasts)


def test_viral_adoption_replays_req_before_wit():
    """A step-ahead message finishes the step from its piggyback, then its own
    req is processed (and acked) at the start of the next step, keeping the
    eventual announcement inside our receive set."""
    peer_r = frozenset({(1, b"m1"), (2, b"m2")})
    peer_b = frozenset({(1, b"m1")})
    ctx = ScriptedCtx([
        wmsg(REQ, 1, 2, b"next1", prior_r=peer_r, prior_b=peer_b),
        wmsg(WIT, 1, 2, b"next1"),
    ])
    layer = Tlcw(ctx, 0, configure("tlcw", 3, 0, t_b=1, t_s=2))
    res1 = drive(layer.broadcast(b"mine"))
    assert (res1.r, res1.b) == (peer_r, peer_b)
    res2 = drive(layer.broadcast(b"mine2"))
    assert (1, b"next1") in res2.r
    assert res2.b == {(1, b"next1")}
    assert res2.b <= res2.r
    assert (1, ACK, b"next1") in [(d, x.kind, x.payload) for d, x in ctx.unicasts]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("delay", ["random", "adversarial"])
def test_contract_holds_under_stress(seed, delay):
    cfg = SimConfig(layer="tlcw", n=4, seed=seed, rounds=6, f=1, delay=delay,
                    crashes=((seed % 4, 4, "after"),) if seed % 2 else ())
    res = run(cfg)
    assert validate_layer(res.trace, "tlcw") == []  # B within R too
