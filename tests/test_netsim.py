"""Deterministic scheduler: replay, delay policies, crashes, accounting."""

from __future__ import annotations

import hashlib
import random
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quesera import netsim, wire
from quesera.netsim import (
    _ADV_PERIOD,
    _BLOCK,
    _M64,
    _S_DELAY,
    _S_TAIL,
    AdversarialDelay,
    DeadlockError,
    FixedDelay,
    RandomDelay,
    SimConfig,
    Simulator,
    _fold,
    _fold_block,
    configure,
    mix64,
    run,
)
from quesera.tlcr import ConfigError, TransportIntegrityError
from quesera.tsb import validate_delivery, validate_fifo, validate_layer
from quesera.wire import WireError, entry_set_memo, history_memo


def test_mix64_is_frozen():
    # Any change to the mixing constants silently reshuffles every replayed
    # run; these pin the function down.
    assert mix64(0) == 0x63CFC62A2B097592
    assert mix64(1, 2, 3) == 0xAC353CECC6B8F974
    assert mix64(2026) == 0x755440D1B7ADABED
    assert mix64(1, 2, 3) != mix64(3, 2, 1)  # order matters
    # the key shapes of delays, priorities and payloads
    assert mix64(7, 1, 0, 1, 5) == 0x80633C2F3B4B9E60
    assert mix64(7, 2, 3, 0, 99) == 0x30D80D8C2BFEB1F1
    assert mix64(2**64 - 1, 4, 11, 3) == 0x172125BF62E3529B
    assert mix64(123456789, 5, 2, 40) == 0x7B2D9CD68445DEEB
    assert mix64(1, 7, 0, 0, 2**63) == 0x77F45276CAE235AD


def test_delay_policies():
    fx = FixedDelay(seed=7, n=4)
    assert {fx.delay(a, b, i) for a in range(4) for b in range(4)
            for i in range(5)} == {4}

    rd = RandomDelay(seed=7, n=4)
    draws = [rd.delay(0, 1, i) for i in range(300)]
    assert draws == [rd.delay(0, 1, i) for i in range(300)]  # replayable
    assert min(draws) >= 1
    assert len(set(draws)) > 3  # actually varies

    ad = AdversarialDelay(seed=7, n=6)
    window0 = ad._victim_set(0)
    assert window0 and window0 == ad._victim_set(0)
    assert any(ad._victim_set(w) != window0 for w in range(1, 12))
    victim = min(window0)
    spared = next(x for x in range(6) if x not in window0)
    other = next(x for x in range(6) if x not in window0 | {spared})
    assert ad.delay(victim, spared, 3) >= 4 * 40  # either endpoint suffices
    assert ad.delay(spared, victim, 3) >= 4 * 40
    assert ad.delay(spared, other, 3) == 1


def reference_random_delay(seed, scale, sender, dest, index):
    u = mix64(seed, _S_DELAY, sender, dest, index)
    run = 0
    while u & 1:
        run += 1
        u >>= 1
    d = 1 + run * scale
    if mix64(seed, _S_TAIL, sender, dest, index) % 64 == 0:
        d += scale * (8 + (u >> 3) % 56)
    return d


def reference_adversarial_delay(policy, seed, scale, sender, dest, index):
    victims = policy._victim_set(index // _ADV_PERIOD)
    if sender in victims or dest in victims:
        return scale * 40 + mix64(seed, _S_DELAY, sender, dest, index) % scale
    return 1


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 12),
    draws=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 10**6)),
                   min_size=1, max_size=40),
)
def test_per_channel_keys_give_the_unfolded_delays(seed, n, draws):
    rd = RandomDelay(seed, n)
    ad = AdversarialDelay(seed, n)
    scale = 4  # every policy's delay step
    for sender, dest, index in draws:
        sender, dest = sender % n, dest % n
        assert rd.delay(sender, dest, index) == reference_random_delay(
            seed, scale, sender, dest, index)
        assert ad.delay(sender, dest, index) == reference_adversarial_delay(
            ad, seed, scale, sender, dest, index)


@given(key=st.integers(0, _M64), start=st.integers(0, 2**64 - _BLOCK))
@example(key=_M64, start=2**64 - _BLOCK)  # the top lanes at the top of the range
@example(key=0, start=0)
def test_a_block_of_folds_is_the_scalar_folds(key, start):
    block = _fold_block(key, start)
    assert [(block >> 128 * j) & _M64 for j in range(_BLOCK)] == [
        _fold(key, start + j) for j in range(_BLOCK)]


def in_turn_draws(seed, n, hops):
    """(sender, dest, index) of every channel of n nodes, drawn hop by hop
    up to ``hops`` as the simulator does, in a seeded interleaving of the
    channels, with out-of-turn draws mixed in."""
    rng = random.Random(seed)
    drawn = [0] * (n * n)
    live = list(range(n * n))
    while live:
        chan = rng.choice(live)
        if rng.random() < 0.1:  # out of turn
            index = rng.randrange(10**6)
        else:
            index = drawn[chan] = drawn[chan] + 1
            if index == hops:
                live.remove(chan)
        yield (*divmod(chan, n), index)


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_in_turn_draws_cross_blocks_and_keep_one_per_channel(seed):
    """Every channel of an n = 7 policy, drawn in turn across 5 block
    boundaries, gives the unfolded delays; and the policy never holds more
    than one block per channel."""
    n = 7
    rd = RandomDelay(seed, n)
    for sender, dest, index in in_turn_draws(seed, n, 5 * _BLOCK + 1):
        assert rd.delay(sender, dest, index) == reference_random_delay(
            seed, 4, sender, dest, index)
        assert len(rd._blocks) == n * n and len(rd._blocks[sender * n + dest]) <= _BLOCK


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_adversarial_in_turn_draws_cross_windows_and_keep_one_per_channel(seed):
    """The same for the adversarial policy, across 5 victim-window
    boundaries: one held window per channel."""
    n = 7
    ad = AdversarialDelay(seed, n)
    for sender, dest, index in in_turn_draws(seed, n, 5 * _ADV_PERIOD + 1):
        assert ad.delay(sender, dest, index) == reference_adversarial_delay(
            ad, seed, 4, sender, dest, index)
        assert len(ad._blocks) == n * n and len(ad._blocks[sender * n + dest]) <= _ADV_PERIOD


def test_threshold_defaults():
    def resolved(layer, n, f):
        c = configure(layer, n, f)
        return c.t_r, c.t_b, c.t_s

    assert resolved("qsc-tlcf", 3, 1) == (2, 2, 2)
    assert resolved("qsc-tlcf", 5, 2) == (3, 3, 3)
    for n, f, want in ((3, 1, (2, 1, 2)), (6, 2, (4, 2, 3)), (12, 4, (8, 4, 5))):
        assert resolved("qsc-tlcb", n, f) == want


def test_config_validation():
    ok = dict(n=3, seed=0, rounds=1)
    with pytest.raises(ConfigError, match="unknown layer"):
        SimConfig(layer="tcp", **ok)
    with pytest.raises(ConfigError, match="trace level"):
        SimConfig(layer="tlcr", trace_level="loud", **ok)
    with pytest.raises(ConfigError, match="unknown delay policy 'bogus'"):
        SimConfig(layer="tlcr", delay="bogus", **ok)
    with pytest.raises(ConfigError, match="out of range"):
        SimConfig(layer="tlcr", crashes=((5, 1, "before"),), **ok)
    with pytest.raises(ConfigError, match="bad crash spec"):
        SimConfig(layer="tlcr", crashes=((1, 1, "during"),), **ok)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            SimConfig(layer="tlcr", n=3, seed=seed, rounds=1)
    with pytest.raises(ConfigError, match="crash node 0 given twice"):
        SimConfig(layer="tlcr", crashes=((0, 4, "before"), (0, 9, "after")), **ok)
    with pytest.raises(ConfigError):
        run(SimConfig(layer="qsc-tlcf", n=6, seed=0, rounds=1, f=2,
                      t_r=3, t_b=3, t_s=3))  # no receive overlap: rejected


@pytest.mark.parametrize("layer,kwargs", [
    ("tlcw", dict(n=4, f=1, delay="adversarial")),
    ("qsc-tlcf", dict(n=3, f=1, crashes=((1, 4, "after"),))),
    ("qsc-tlcb", dict(n=6, f=2, delay="random")),
])
def test_replay_is_exact(layer, kwargs):
    cfg = SimConfig(layer=layer, seed=11, rounds=4, **kwargs)
    a, b = run(cfg), run(cfg)
    assert a.trace.serialize() == b.trace.serialize()
    assert a.metrics == b.metrics
    assert a.metrics.line() == b.metrics.line()
    assert run(SimConfig(layer=layer, seed=12, rounds=4, **kwargs)
               ).trace.serialize() != a.trace.serialize()


def xmits_from(trace, sender):
    return sum(1 for _, src, *_ in trace.xmits if src == sender)


def test_crash_before_suppresses_the_wire_send():
    cfg = SimConfig(layer="tlcr", n=4, seed=3, rounds=6, f=1,
                    crashes=((2, 3, "before"),))
    res = run(cfg)
    assert res.trace.crashes == {2: (3, "before")}
    assert xmits_from(res.trace, 2) == 2 * 4  # steps 1-2 only, 4 dests each
    assert [s for _, l, s, node, *_ in res.trace.rets if node == 2] == [1, 2]
    assert validate_layer(res.trace, "tlcr") == []


def test_crash_after_sends_then_dies():
    cfg = SimConfig(layer="tlcr", n=4, seed=3, rounds=6, f=1,
                    crashes=((2, 3, "after"),))
    res = run(cfg)
    assert res.trace.crashes == {2: (3, "after")}
    assert xmits_from(res.trace, 2) == 3 * 4  # step 3's frame did get out
    assert [s for _, l, s, node, *_ in res.trace.rets if node == 2] == [1, 2]
    assert validate_layer(res.trace, "tlcr") == []


def test_every_transmission_is_eventually_delivered():
    """Crashed destinations still drain the in-flight queue: delivery is a
    when, not an if."""
    cfg = SimConfig(layer="tlcw", n=4, seed=5, rounds=5, f=1,
                    crashes=((0, 2, "after"),), delay="random")
    res = run(cfg)
    assert res.trace.xmits  # full trace level records the transport
    assert validate_delivery(res.trace) == []
    assert validate_fifo(res.trace) == []
    assert len(res.trace.dlvrs) == len(res.trace.xmits)


def test_ended_nodes_queue_no_frames():
    """A crashed or finished node's program reads no more frames, so none
    stay queued for it; they are still delivered, as the trace records."""
    sim = Simulator(SimConfig(layer="qsc-tlcf", n=5, f=2, seed=4, rounds=6,
                              delay="adversarial", crashes=((1, 5, "after"),)))
    res = sim.run()
    assert res.trace.crashes == {1: (5, "after")}
    crashed_at = max(order for order, sender, *_ in res.trace.xmits if sender == 1)
    assert any(dest == 1 and order > crashed_at for order, _, dest, _ in res.trace.dlvrs)
    assert all(ctx.ended and not any(ctx.inbox.values()) for ctx in sim.ctxs)
    assert validate_delivery(res.trace) == []
    assert len(res.trace.dlvrs) == len(res.trace.xmits)


def test_equal_returned_sets_are_recorded_as_one_object():
    """The full trace holds the layers' own sets, each value once: nodes
    return equal R sets, and tlcf returns its tlcw sub-step's B."""
    trace = run(SimConfig(layer="qsc-tlcf", n=5, f=2, seed=3, rounds=4,
                          delay="adversarial")).trace
    sets = [s for *_, r, b in trace.rets for s in (r, b)]
    assert all(isinstance(s, frozenset) for s in sets)
    assert len({id(s) for s in sets}) == len(set(sets)) < len(sets)


def test_crashing_beyond_the_budget_deadlocks_with_a_report():
    cfg = SimConfig(layer="tlcr", n=3, seed=1, rounds=4, t_r=3,
                    crashes=((0, 2, "before"),))
    with pytest.raises(DeadlockError, match=r"2/3 senders .threshold unmeetable"):
        run(cfg)


def test_two_dead_of_three_names_the_unmeetable_receive_quorum():
    cfg = SimConfig(layer="qsc-tlcb", n=3, seed=2, rounds=5, f=1,
                    crashes=((1, 1, "before"), (2, 1, "before")))
    with pytest.raises(DeadlockError, match=r"node 0 stuck .* 1/2 senders"):
        run(cfg)


@pytest.mark.parametrize("layer, piggyback", [("qsc-tlcb", "prior_r"), ("tlcw", "prior_b")])
@pytest.mark.parametrize("broken, error", [
    (lambda msg, _: replace(msg, step=msg.step + 2), r"node 0: step 3 message while in 1$"),
    (lambda msg, piggyback: replace(msg, step=msg.step + 1, **{piggyback: None}),
     r"node 0: future message without piggyback$"),
], ids=["step-gap", "no-piggyback"])
def test_a_broken_frame_fails_its_delivery(monkeypatch, layer, piggyback, broken, error):
    """Under fixed delays node 0's first frame, the one to itself, is the
    first delivery, so it reaches node 0 in step 1: made into a step-3 frame
    it is a step gap, made into a step-2 frame without its piggyback it
    cannot be adopted.  Either fails on the r lane (qsc-tlcb) and the w lane
    (tlcw) alike."""
    xmit = Simulator.xmit

    def tamper(sim, sender, dest, msg, size):
        xmit(sim, sender, dest, broken(msg, piggyback) if sim.unicasts == 0 else msg, size)

    monkeypatch.setattr(Simulator, "xmit", tamper)
    with pytest.raises(TransportIntegrityError, match=error):
        run(SimConfig(layer=layer, n=3, f=1, seed=1, rounds=2, delay="fixed"))


def test_a_damaged_gossip_payload_fails_at_its_receiver(monkeypatch):
    """A qsc-tlcb gossip step (every second r-lane step) carries a receive
    set its sender has just encoded, and so stored in the set memo.  Node
    0's gossip payload, its last byte flipped in flight, is another key: its
    receivers decode it and find the digest broken."""
    xmit = Simulator.xmit
    stored = []

    def tamper(sim, sender, dest, msg, size):
        if sender == 0 and msg.step % 2 == 0:
            stored.append(msg.payload in entry_set_memo)
            payload = msg.payload[:-1] + bytes([msg.payload[-1] ^ 1])
            msg = replace(msg, payload=payload)
        xmit(sim, sender, dest, msg, size)

    monkeypatch.setattr(Simulator, "xmit", tamper)
    with pytest.raises(WireError, match="set entry digest mismatch"):
        run(SimConfig(layer="qsc-tlcb", n=3, f=1, seed=1, rounds=2))
    assert stored and all(stored)


def test_a_fault_free_gossip_run_parses_back_nothing(monkeypatch):
    """Every gossiped set and history is decoded from bytes its sender
    encoded in the same process, so the encoders' memo entries serve every
    receiver: the set and history decoders never run, whatever the hash
    seed."""
    calls = []

    def counted(name):
        decode = getattr(wire, name)

        def call(*args):
            calls.append(name)
            return decode(*args)
        return call

    for name in ("decode_entry_set", "decode_history"):
        monkeypatch.setattr(wire, name, counted(name))
    for memo in (entry_set_memo, history_memo):
        memo.clear()
    for seed in range(1, 5):
        res = run(SimConfig(layer="qsc-tlcb", n=7, f=2, seed=seed, rounds=20,
                            trace_level="light"))
        assert res.metrics.commits > 0
    assert calls == []


def test_survivors_run_a_long_race_past_a_dead_founder():
    """One node dead before its first word, a hundred rounds: the other two
    keep committing and never fork."""
    from quesera.qsc import check_consensus

    res = run(SimConfig(layer="qsc-tlcb", n=3, seed=2, rounds=100, f=1,
                        crashes=((2, 1, "before"),), trace_level="light"))
    assert check_consensus(res.trace) == []
    per_node = {}
    for rec in res.trace.deliveries:
        per_node[rec.node] = per_node.get(rec.node, 0) + 1
    assert per_node == {0: 100, 1: 100}
    assert res.metrics.commits > 0


def test_trace_levels_trade_detail_for_size():
    base = dict(layer="qsc-tlcf", n=3, seed=2, rounds=3, f=1)
    full = run(SimConfig(trace_level="full", **base)).trace
    light = run(SimConfig(trace_level="light", **base)).trace
    assert full.xmits and full.dlvrs and full.rets and full.sends
    assert not (light.xmits or light.dlvrs or light.rets or light.sends)
    # the consensus ledger survives at both levels
    for tr in (full, light):
        assert tr.deliveries and tr.adopts and tr.proposals
    assert [r.committed for r in full.deliveries] == [r.committed for r in light.deliveries]


def test_gossip_stack_cost_is_four_broadcasts_per_round():
    """Two spread steps of two receive steps each: 4 n^2 unicasts a round."""
    for n, f, rounds in ((3, 1, 3), (6, 2, 2)):
        res = run(SimConfig(layer="qsc-tlcb", n=n, seed=4, rounds=rounds, f=f))
        assert res.metrics.unicasts == 4 * n * n * rounds
        assert res.metrics.rounds == rounds
        assert res.metrics.bytes == sum(sz for *_, sz in res.trace.xmits)


@pytest.mark.parametrize("layer", netsim.LAYERS)
@pytest.mark.parametrize("delay", sorted(netsim.DELAY_POLICIES))
def test_unicasts_and_bytes_are_what_the_trace_transmits(layer, delay):
    """``unicasts`` is derived from the per-channel sequence counters and
    ``bytes`` summed per hop; both agree with the full trace's xmits on every
    stack under every delay policy."""
    res = run(SimConfig(layer=layer, n=4, f=1, seed=6, rounds=3, delay=delay))
    assert res.metrics.unicasts == len(res.trace.xmits) > 0
    assert res.metrics.bytes == sum(size for *_, size in res.trace.xmits)


def _sent_frames(monkeypatch, cfg):
    """Run ``cfg`` keeping every frame sent with a snapshot of its fields;
    return the frames no longer equal to their snapshot after the run."""
    xmit, kept = Simulator.xmit, []

    def keep(sim, sender, dest, msg, size):
        kept.append((msg, astuple(msg)))
        xmit(sim, sender, dest, msg, size)

    monkeypatch.setattr(Simulator, "xmit", keep)
    run(cfg)
    assert kept
    return [msg for msg, snapshot in kept if astuple(msg) != snapshot]


@pytest.mark.parametrize("cfg", [
    SimConfig(layer="qsc-tlcb", n=4, f=1, seed=3, rounds=4, delay="random"),
    SimConfig(layer="qsc-tlcf", n=5, f=2, seed=4, rounds=4, delay="adversarial",
              crashes=((1, 5, "after"),)),
    SimConfig(layer="tlcw", n=4, f=1, seed=2, rounds=4, delay="fixed"),
], ids=["qsc-tlcb-random", "qsc-tlcf-adversarial-crash", "tlcw-fixed"])
def test_frames_are_never_changed_after_send(monkeypatch, cfg):
    """A frame is a plain record, and one object goes to every receiver of
    its broadcast: no layer may change it once it is on the wire."""
    assert _sent_frames(monkeypatch, cfg) == []


def test_a_frame_changed_after_send_is_caught(monkeypatch):
    """The check above sees a payload set on a frame after its broadcast."""
    broadcast = netsim._NodeCtx.broadcast

    def rewrite(ctx, msg):
        broadcast(ctx, msg)
        if ctx.node == 0 and msg.step == 2:
            msg.payload = b"changed"

    monkeypatch.setattr(netsim._NodeCtx, "broadcast", rewrite)
    changed = _sent_frames(monkeypatch, SimConfig(layer="tlcr", n=3, seed=1, rounds=3,
                                                  delay="fixed"))
    assert len(changed) == 3 and {msg.payload for msg in changed} == {b"changed"}


# One consensus run per delay policy, and the sha256 of its (node, round,
# virtual time) triples, one per decision in decision order.  No trace record
# holds a time, so the golden digests pin the order of deliveries but not
# when they land; these pin the arrival times a scheduler change must keep.
VIRTUAL_TIME_PINS = {
    "fixed": (dict(layer="qsc-tlcb", n=4, f=1, rounds=6),
              "f74ce4eec9eb7bbaa41173b10beaa5dff4f1d27f56487375cf66bac0bbb57b80"),
    "random": (dict(layer="qsc-tlcb", n=7, f=2, rounds=8),
               "05309105101a1169b63cd80fcd34f170326b343ab0205e51ccf02274410a5ac9"),
    "adversarial": (dict(layer="qsc-tlcf", n=5, f=2, rounds=6, crashes=((3, 9, "before"),)),
                    "5a9ed4fc71767f14ec655ee5f56f3de6a9fa1ad436f52837996c4f0744ae76e2"),
}


@pytest.mark.parametrize("delay", sorted(VIRTUAL_TIME_PINS))
def test_decisions_land_at_their_pinned_virtual_times(monkeypatch, delay):
    kwargs, pinned = VIRTUAL_TIME_PINS[delay]
    original, stamps = netsim.run_qsc_node, []

    def run_qsc_node(state, tsb, rounds, choose, on_propose=None, on_decide=None):
        def decide(rnd, hist, committed):
            on_decide(rnd, hist, committed)
            stamps.append((state.node, rnd, tsb.sim.now))

        return (yield from original(state, tsb, rounds, choose, on_propose, decide))

    monkeypatch.setattr(netsim, "run_qsc_node", run_qsc_node)
    res = run(SimConfig(seed=23, delay=delay, trace_level="light", **kwargs))
    assert [(node, rnd) for node, rnd, _ in stamps] == [
        (rec.node, rec.round) for rec in res.trace.deliveries]
    assert hashlib.sha256(repr(stamps).encode()).hexdigest() == pinned
