"""Deterministic asynchronous network simulator for the broadcast stacks.

Every node runs its whole protocol stack as one generator; the scheduler is a
heap of the distinct virtual times with unicasts pending, each holding its
deliveries in send order (a calendar queue).  A delivery runs the handler of
the receiving node's current step at once, and the node's generator resumes
only when that handler reports the step complete.  Channels are reliable FIFO
with arbitrary (but schedule-determined) delays, so runs model a genuinely
asynchronous network: steps interleave, nodes fall behind and catch up
virally, and an adversarial delay policy can stall any subset of channels for
long stretches.  Everything -- delays, priorities, proposal payloads, crash
injection -- derives from the run seed through a keyed integer mixer, so a
(config, seed) pair replays to the byte regardless of process or hash
randomization.

Crash faults stop a node at a chosen wire step, either before it sends
anything ("before") or right after its step broadcast leaves ("after").
In-flight traffic is still drained at the end of a run, which is what lets
the validators check eventual delivery.
"""

from __future__ import annotations

import functools
import re
import struct
from collections import defaultdict, deque
from dataclasses import asdict, dataclass
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Callable, Optional

from .qsc import DeliveryRecord, QscState, run_qsc_node
from .tlcb import Tlcb, spread_fault_budget
from .tlcf import Tlcf
from .tlcr import ConfigError, StepCollector, Tlcr
from .tlcw import Tlcw
from .tsb import ProposalInfo, RunTrace, Thresholds
from .wire import StepMessage, frame_size

TRACE_LEVELS = ("full", "light")

_M64 = (1 << 64) - 1
_MIX_IV = 0x6A09E667F3BCC909

# stream labels keeping the seed-derived substreams apart
_S_DELAY, _S_TAIL, _S_ADV, _S_PRIORITY, _S_MESSAGE, _S_PAYLOAD = range(1, 7)

_SCALE = 4  # virtual time units per delay step, in every policy


def mix64(*parts: int) -> int:
    """Keyed 64-bit mixer (splitmix finalization over folded inputs).
    Deterministic across processes and platforms; used for every random-ish
    decision in a run so seeds replay exactly."""
    h = _MIX_IV
    for p in parts:
        h = _fold(h, p)
    return h


def _fold(h: int, p: int) -> int:
    """Continue a mix64 state over one more part: ``mix64(*a, p)`` equals
    ``_fold(mix64(*a), p)``, so a fixed key prefix is folded once."""
    h = ((h ^ (p & _M64)) + 0x9E3779B97F4A7C15) & _M64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _M64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _M64
    return h ^ (h >> 31)


_BLOCK = 32  # hops a RandomDelay draws at once, lane j in bits 128j .. 128j + 127
_LANES = sum(1 << 128 * j for j in range(_BLOCK))  # 1 in every lane
_IOTA = sum(j << 128 * j for j in range(_BLOCK))  # j in lane j
_M64_LANES = _M64 * _LANES
_LOW_LANES = struct.Struct("<" + "Q8x" * _BLOCK)  # each lane's low 64 bits
_LOW6_LANES, _BIT6_LANES = 63 * _LANES, 64 * _LANES
_ADV_PERIOD = _BLOCK  # channel sequence numbers per adversarial victim window
_FAST = (1,) * _ADV_PERIOD  # a window's delays on a channel no victim is on
_JITTER_LANES, _CRAWL_LANES = (_SCALE - 1) * _LANES, _SCALE * 40 * _LANES  # _SCALE: 2**k
# a hop's random delay before its tail, by the lowest zero bit of its draw
_RUN_DELAY = {1 << run: 1 + run * _SCALE for run in range(64)} | {0: 1 + 64 * _SCALE}


def _fold_block(key: int, start: int) -> int:
    """Lane j's low 64 bits are ``_fold(key, start + j)``, 0 <= start <= 2**64 -
    _BLOCK.  A lane's upper half takes a 64 x 64-bit product, and what a shift
    brings into it from the next lane is masked off before each multiply."""
    h = ((key * _LANES ^ start * _LANES + _IOTA) + 0x9E3779B97F4A7C15 * _LANES) & _M64_LANES
    h ^= h >> 30
    h = ((h & _M64_LANES) * 0xBF58476D1CE4E5B9) & _M64_LANES
    h ^= h >> 27
    h = ((h & _M64_LANES) * 0x94D049BB133111EB) & _M64_LANES
    return h ^ (h >> 31)


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): mix64 would alias it to one inside."""
    if not 0 <= seed <= _M64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


# --- delay policies -------------------------------------------------------


def _channel_keys(seed: int, stream: int, n: int) -> list[int]:
    """mix64 state after ``(seed, stream, sender, dest)`` for every channel,
    indexed ``sender * n + dest``: a hop then folds in only its index."""
    prefix = mix64(seed, stream)
    return [_fold(_fold(prefix, sender), dest) for sender in range(n) for dest in range(n)]


class FixedDelay:
    """Every hop takes the same time: the synchronous best case."""

    def __init__(self, seed: int, n: int):  # the policies' common signature
        pass

    def delay(self, sender: int, dest: int, index: int) -> int:
        return _SCALE


class RandomDelay:
    """Geometric-ish per-hop delays with a sparse heavy tail, so most traffic
    is quick but any channel occasionally lags several steps behind.

    Each channel holds one block of _BLOCK delays: the hop after its end draws
    the next, any other index is drawn on its own.  First blocks are cut to
    ``1 + chan % _BLOCK`` hops, so channels in lockstep refill in turn."""

    def __init__(self, seed: int, n: int):
        self.n = n
        self._delay_keys = _channel_keys(seed, _S_DELAY, n)
        self._tail_keys = _channel_keys(seed, _S_TAIL, n)
        self._start = [1] * (n * n)  # per channel: the hop index of block[0]
        self._blocks = [self._draw(chan, 1)[: 1 + chan % _BLOCK] for chan in range(n * n)]

    def _draw(self, chan: int, start: int) -> list[int]:
        u = _fold_block(self._delay_keys[chan], start) & _M64_LANES
        # lane j of (u + 1) & ~u is 1 << run, for the run of trailing ones
        lowest_zero = ((u + _LANES) & (u ^ _M64_LANES)).to_bytes(16 * _BLOCK, "little")
        delays = list(map(_RUN_DELAY.__getitem__, _LOW_LANES.unpack(lowest_zero)))
        low6 = _fold_block(self._tail_keys[chan], start) & _LOW6_LANES
        tails = ~(low6 + _LOW6_LANES) & _BIT6_LANES  # bit 6 set: a tail, low 6 bits all 0
        while tails:
            at = tails.bit_length() - 7  # the lane's bit 0
            tails ^= 1 << (at + 6)
            rest = ((u >> at) & _M64) >> ((delays[at >> 7] - 1) // _SCALE + 3)
            delays[at >> 7] += _SCALE * (8 + rest % 56)
        return delays

    def delay(self, sender: int, dest: int, index: int) -> int:
        chan = sender * self.n + dest
        block = self._blocks[chan]
        k = index - self._start[chan]
        if k == len(block):  # the next hop: its block replaces this one
            self._start[chan], k = index, 0
            block = self._blocks[chan] = self._draw(chan, index)
        return block[k] if 0 <= k < len(block) else self._draw(chan, index)[0]


class AdversarialDelay:
    """Rotating targeted stalls: in each window a seed-picked victim subset
    has all its channels crawl (both directions) while everyone else is fast.
    Content-oblivious, but about as nasty as a delay-only adversary gets --
    quorums keep reshaping and laggards must rejoin virally.  Each channel
    holds one window's delays: the next window replaces it, any other index
    is drawn on its own."""

    def __init__(self, seed: int, n: int):
        self.seed = seed
        self.n = n
        self.victims = max(1, n // 3)
        self._jitter_keys = _channel_keys(seed, _S_DELAY, n)
        self._victim_set = functools.cache(self._draw_victims)  # one draw a window
        self._window, self._blocks = [-1] * (n * n), [()] * (n * n)  # held, per channel

    def _draw_victims(self, window: int) -> frozenset[int]:
        return frozenset(
            mix64(self.seed, _S_ADV, window, k) % self.n for k in range(self.victims)
        )

    def delay(self, sender: int, dest: int, index: int) -> int:
        chan = sender * self.n + dest
        window, k = divmod(index, _ADV_PERIOD)
        if window == self._window[chan]:
            return self._blocks[chan][k]
        victims, block = self._victim_set(window), _FAST
        if sender in victims or dest in victims:  # _SCALE * 40 plus a lane's low bits
            jitter = _fold_block(self._jitter_keys[chan], window * _ADV_PERIOD) & _JITTER_LANES
            block = _LOW_LANES.unpack((jitter + _CRAWL_LANES).to_bytes(16 * _BLOCK, "little"))
        if window == self._window[chan] + 1:  # the next window: it replaces this one
            self._window[chan], self._blocks[chan] = window, block
        return block[k]


DELAY_POLICIES = {"fixed": FixedDelay, "random": RandomDelay, "adversarial": AdversarialDelay}


# --- the stack table --------------------------------------------------------


# the admission inequalities by name, each over the thresholds and the spread
# fault budget f_b (None unless 0 < t_s <= t_r, a rule of its own); a
# violation is reported with the values of the quantities its text names
RULES: dict[str, Callable[[SimpleNamespace], bool]] = {
    "0 <= f": lambda q: 0 <= q.f,
    "0 <= t_r <= n": lambda q: 0 <= q.t_r <= q.n,
    "f <= n - t_r": lambda q: q.f <= q.n - q.t_r,
    "0 < t_r <= n - f": lambda q: 0 < q.t_r <= q.n - q.f,
    "0 < t_b <= n - f": lambda q: 0 < q.t_b <= q.n - q.f,
    "0 < t_s <= n - f": lambda q: 0 < q.t_s <= q.n - q.f,
    "0 < t_s <= t_r": lambda q: 0 < q.t_s <= q.t_r,
    "0 < t_b": lambda q: 0 < q.t_b,
    "t_b <= n - f_b": lambda q: q.f_b is None or q.t_b <= q.n - q.f_b,  # exact: a Fraction
    "t_r + t_s > n": lambda q: q.t_r + q.t_s > q.n,
}


@dataclass(frozen=True)
class Stack:
    """One row of the stack table: the admission rules its thresholds must
    meet, and the layer built over them."""

    rules: tuple[str, ...]  # names in RULES
    witnessed: bool  # default thresholds: n - f throughout, else the gossip scheme
    layer: type  # the top layer
    consensus: bool = False  # QSC rounds run on top

    def claims(self, th: Thresholds) -> dict[str, Thresholds]:
        """Recorded layer names -> claimed thresholds, top of the stack first."""
        claims = {self.layer.name: self.layer.claim(th)}
        for _, sub, _ in self.layer.subs:
            claims[sub.name] = sub.claim(th)
        return claims

    def build(self, sim: "Simulator", node: int) -> "_Recorder":
        """One node's stack, every recorded layer wrapped in a recorder."""
        top = self.layer(sim.ctxs[node], node, sim.thresholds)
        for attr, sub, _ in self.layer.subs:
            setattr(top, attr, _Recorder(sim, sub.name, node, getattr(top, attr)))
        return _Recorder(sim, self.layer.name, node, top)


_TLCR = ("0 <= f", "0 <= t_r <= n", "f <= n - t_r")
_TLCB = ("0 <= f", "0 < t_r <= n - f", "0 < t_s <= t_r", "0 < t_b", "t_b <= n - f_b")
_TLCW = ("0 <= f", "0 < t_b <= n - f", "0 < t_s <= n - f")
_TLCF = ("0 <= f", "0 < t_r <= n - f", "0 < t_b <= n - f", "0 < t_s <= n - f",
         "t_r + t_s > n")

STACKS: dict[str, Stack] = {
    # rules, witnessed, layer, consensus
    "tlcr": Stack(_TLCR, False, Tlcr),
    "tlcb": Stack(_TLCB, False, Tlcb),
    "tlcw": Stack(_TLCW, True, Tlcw),
    "tlcf": Stack(_TLCF, True, Tlcf),
    # QSC needs full spread; QSCOD's store columns (quesera.qscod) admit
    # their thresholds by the qsc-tlcb row too
    "qsc-tlcb": Stack(_TLCB + ("t_r + t_s > n",), False, Tlcb, True),
    "qsc-tlcf": Stack(_TLCF, True, Tlcf, True),
}

LAYERS = tuple(STACKS)  # the stacks the simulator runs


def configure(layer: str, n: int, f: int, t_r: Optional[int] = None,
              t_b: Optional[int] = None, t_s: Optional[int] = None) -> Thresholds:
    """A stack's thresholds, admitted by its rules (else ConfigError naming
    every violated one).  Unset t_r defaults to n - f, and so do t_b and t_s
    on witnessed stacks; elsewhere they default to the gossip scheme
    t_b = f (floor 1), t_s = f + 1 (at most n - f)."""
    stack = STACKS[layer]
    d_b, d_s = (n - f, n - f) if stack.witnessed else (max(1, f), min(n - f, f + 1))
    th = Thresholds(n, f, n - f if t_r is None else t_r, d_b if t_b is None else t_b,
                    d_s if t_s is None else t_s)
    f_b = spread_fault_budget(n, th.t_r, th.t_s) if 0 < th.t_s <= th.t_r else None
    q = SimpleNamespace(**asdict(th), f_b=f_b)
    bad = [
        f"{rule} violated ("
        + ", ".join(f"{k}={getattr(q, k)}" for k in re.findall("[a-z_]+", rule)) + ")"
        for rule in stack.rules
        if not RULES[rule](q)
    ]
    if bad:
        raise ConfigError("; ".join(bad))
    return th


# --- run configuration ----------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: a layer stack, a network, and a workload.

    ``rounds`` counts broadcast calls for bare layers and consensus rounds
    for consensus stacks.  Unset thresholds fall back to the defaults of the
    layer's row in :data:`STACKS`.
    ``crashes`` holds (node, wire-step, phase) triples, phase "before" or
    "after" the step's send, at most one per node.
    """

    layer: str
    n: int
    seed: int
    rounds: int
    f: int = 0
    t_r: Optional[int] = None
    t_b: Optional[int] = None
    t_s: Optional[int] = None
    delay: str = "random"
    crashes: tuple[tuple[int, int, str], ...] = ()
    trace_level: str = "full"

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ConfigError(f"unknown layer {self.layer!r} (choose from {LAYERS})")
        if self.delay not in DELAY_POLICIES:
            raise ConfigError(f"unknown delay policy {self.delay!r}")
        if self.trace_level not in TRACE_LEVELS:
            raise ConfigError(f"unknown trace level {self.trace_level!r}")
        if self.n < 1 or self.rounds < 0:  # f is admitted by the row's rules
            raise ConfigError("n must be >= 1, rounds >= 0")
        check_seed(self.seed)
        for node, step, phase in self.crashes:
            if not 0 <= node < self.n:
                raise ConfigError(f"crash node {node} out of range")
            if step < 1 or phase not in ("before", "after"):
                raise ConfigError(f"bad crash spec ({node}, {step}, {phase})")
            if [c[0] for c in self.crashes].count(node) > 1:
                raise ConfigError(f"crash node {node} given twice (a node crashes once)")


@dataclass(frozen=True)
class Metrics:
    """Stable per-run summary; `line()` is the byte-stable rendering."""

    layer: str
    n: int
    f: int
    seed: int
    rounds: int
    commits: int
    unicasts: int
    bytes: int

    def line(self) -> str:
        return (
            f"seed={self.seed} n={self.n} f={self.f} layer={self.layer} "
            f"rounds={self.rounds} commits={self.commits} "
            f"unicasts={self.unicasts} bytes={self.bytes}"
        )


@dataclass
class SimResult:
    config: SimConfig
    trace: RunTrace
    metrics: Metrics


class DeadlockError(Exception):
    """No runnable node and no traffic in flight, but nodes still waiting."""


class NodeCrashed(Exception):
    """Raised inside a node's stack when its scheduled crash fires; the
    message is the phase."""


# --- the simulator --------------------------------------------------------


class _NodeCtx:
    """Per-node transport endpoint handed to the protocol stack.  ``waiting``
    is the layer whose step takes this node's deliveries on its lane; other
    lanes queue in ``inbox`` until a step of theirs collects them, unless the
    node's program has ``ended`` (finished or crashed)."""

    __slots__ = ("sim", "node", "inbox", "steps", "crash", "armed", "waiting", "ended")

    def __init__(self, sim: "Simulator", node: int, crash: Optional[tuple[int, str]]):
        self.sim = sim
        self.node = node
        self.inbox: defaultdict[str, deque] = defaultdict(deque)
        self.steps = 0  # wire-level steps begun (all lanes together)
        self.crash = crash
        self.armed = False
        self.waiting: Optional[StepCollector] = None
        self.ended = False

    def step_begin(self) -> None:
        self.steps += 1
        if self.crash is not None and self.crash[0] == self.steps:
            if self.crash[1] == "before":
                raise NodeCrashed("before")
            self.armed = True

    def broadcast(self, msg: StepMessage) -> None:
        size, sim, node = frame_size(msg), self.sim, self.node
        for dest in range(sim.n):
            sim.xmit(node, dest, msg, size)
        if self.armed:
            raise NodeCrashed("after")

    def unicast(self, dest: int, msg: StepMessage) -> None:
        self.sim.xmit(self.node, dest, msg, frame_size(msg))

    def collect(self, layer: StepCollector) -> bool:
        """Feed the lane's queued messages to ``layer.handle``; True if they
        complete its step, else it takes the lane's next deliveries."""
        lane = self.inbox[layer.tag]
        while lane:
            if layer.handle(lane.popleft()):
                return True
        self.waiting = layer
        return False

    def deliver(self, msg: StepMessage) -> bool:
        """True when ``msg`` completes the waiting step: resume the node."""
        layer = self.waiting
        if layer is None or msg.layer != layer.tag:
            if not self.ended:
                self.inbox[msg.layer].append(msg)
        elif layer.handle(msg):
            self.waiting = None
            return True
        return False


class _Recorder:
    """Wraps one layer of one node's stack to write send/return trace records.
    ``completed`` counts this layer's finished broadcast calls and doubles as
    the step clock the consensus observer reads."""

    __slots__ = ("sim", "name", "node", "inner", "completed")

    def __init__(self, sim: "Simulator", name: str, node: int, inner):
        self.sim = sim
        self.name = name
        self.node = node
        self.inner = inner
        self.completed = 0

    def broadcast(self, m: bytes):
        self.sim.rec_send(self.name, self.completed + 1, self.node, m)
        res = yield from self.inner.broadcast(m)
        self.completed += 1
        self.sim.rec_ret(self.name, self.completed, self.node, res)
        return res


class Simulator:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.n = cfg.n
        self.seed = cfg.seed
        self.policy = DELAY_POLICIES[cfg.delay](cfg.seed, cfg.n)
        self.stack = STACKS[cfg.layer]
        self.thresholds = configure(cfg.layer, cfg.n, cfg.f, cfg.t_r, cfg.t_b, cfg.t_s)
        self.trace = RunTrace(n=cfg.n, layers=self.stack.claims(self.thresholds))
        self.level = cfg.trace_level
        self._full = cfg.trace_level == "full"
        self.now = 0
        self.order = 0
        self.bytes = 0
        # the calendar: arrival times, each with its (sender, dest, seq, msg)s
        self._heap: list[int] = []
        self._slots: dict[int, list] = {}
        # per channel, indexed sender * n + dest: unicasts sent, last arrival
        self._chan_seq = [0] * (cfg.n * cfg.n)
        self._chan_last = [0] * (cfg.n * cfg.n)
        self._sets: dict[frozenset, frozenset] = {}  # recorded sets, one object a value
        crash_plan = {node: (step, phase) for node, step, phase in cfg.crashes}
        self.ctxs = [_NodeCtx(self, i, crash_plan.get(i)) for i in range(cfg.n)]

    # -- recording --

    def next_order(self) -> int:
        self.order += 1
        return self.order

    def rec_send(self, name: str, step: int, node: int, payload: bytes) -> None:
        if self._full:
            self.order += 1
            self.trace.sends.append((self.order, name, step, node, payload))

    def rec_ret(self, name: str, step: int, node: int, res) -> None:
        if self._full:
            self.order += 1
            sets = self._sets
            self.trace.rets.append((self.order, name, step, node, sets.setdefault(res.r, res.r),
                                    sets.setdefault(res.b, res.b)))

    # -- transport --

    @property
    def unicasts(self) -> int:
        """Unicasts sent so far: the per-channel sequence counters' sum."""
        return sum(self._chan_seq)

    def xmit(self, sender: int, dest: int, msg: StepMessage, size: int) -> None:
        """Queue one unicast of ``msg`` (``size`` bytes on the wire) for its
        arrival.  The frame object itself is queued, shared with every other
        receiver of its broadcast, so no one may change it once sent."""
        chan = sender * self.n + dest
        chan_seq, chan_last = self._chan_seq, self._chan_last
        seq = chan_seq[chan] = chan_seq[chan] + 1
        arrival = self.now + self.policy.delay(sender, dest, seq)
        if arrival <= chan_last[chan]:
            arrival = chan_last[chan] + 1  # FIFO: never overtake
        chan_last[chan] = arrival
        slot = self._slots.get(arrival)
        if slot is None:
            slot = self._slots[arrival] = []
            heappush(self._heap, arrival)
        slot.append((sender, dest, seq, msg))
        self.bytes += size
        if self._full:
            self.order += 1
            self.trace.xmits.append((self.order, sender, dest, seq, size))

    # -- stacks and workloads --

    def _broadcast_program(self, node: int, top):
        for k in range(1, self.cfg.rounds + 1):
            payload = b"%d/%d/" % (node, k) + mix64(
                self.seed, _S_PAYLOAD, node, k
            ).to_bytes(8, "big")
            yield from top.broadcast(payload)

    def _consensus_program(self, node: int, top):
        state = QscState(node=node)

        def choose(st: QscState) -> tuple[bytes, int]:
            rnd = st.round + 1
            message = mix64(self.seed, _S_MESSAGE, node, rnd).to_bytes(8, "big")
            priority = mix64(self.seed, _S_PRIORITY, node, rnd)
            return message, priority

        def on_propose(rnd: int, hist) -> None:
            self.trace.proposals[hist.digest] = ProposalInfo(
                prev=hist.head.prev, created_step=top.completed, length=hist.length
            )

        def on_decide(rnd: int, hist, committed: bool) -> None:
            self.trace.adopts.append((self.next_order(), node, rnd, hist.digest))
            self.trace.deliveries.append(
                DeliveryRecord(
                    order=self.next_order(),
                    node=node,
                    round=rnd,
                    step=top.completed,
                    digest=hist.digest,
                    length=hist.length,
                    committed=committed,
                )
            )

        yield from run_qsc_node(state, top, self.cfg.rounds, choose, on_propose, on_decide)

    # -- the scheduler --

    def run(self) -> SimResult:
        make = self._consensus_program if self.stack.consensus else self._broadcast_program
        gens = [make(i, self.stack.build(self, i)) for i in range(self.n)]
        ctxs, heap, slots, full = self.ctxs, self._heap, self._slots, self._full
        dlvrs = self.trace.dlvrs

        def advance(node: int) -> None:
            try:
                gens[node].send(None)
            except (StopIteration, NodeCrashed) as end:
                ctxs[node].ended = True  # what it has queued or will be sent goes nowhere
                ctxs[node].inbox.clear()
                if isinstance(end, NodeCrashed):
                    self.trace.crashes[node] = (ctxs[node].steps, str(end))

        for node in range(self.n):
            advance(node)
        # in (arrival, send) order: every policy's delay is at least 1, so what
        # a delivery sends lands in a later slot, never in the one drained
        while heap:
            self.now = when = heappop(heap)
            for sender, dest, seq, msg in slots.pop(when):
                if full:
                    self.order += 1
                    dlvrs.append((self.order, sender, dest, seq))
                if ctxs[dest].deliver(msg):
                    advance(dest)

        stuck = [(ctx.node, ctx.waiting) for ctx in ctxs if ctx.waiting is not None]
        if stuck:
            raise DeadlockError(
                "no traffic in flight but nodes waiting: " + "; ".join(
                    f"node {i} stuck on lane {w.tag} step {w.step} with "
                    f"{w.have()}/{w.need} senders (threshold unmeetable)"
                    for i, w in stuck
                )
            )

        metrics = Metrics(
            layer=self.cfg.layer,
            n=self.n,
            f=self.cfg.f,
            seed=self.seed,
            rounds=self.cfg.rounds,
            commits=sum(rec.committed for rec in self.trace.deliveries),
            unicasts=self.unicasts,
            bytes=self.bytes,
        )
        return SimResult(config=self.cfg, trace=self.trace, metrics=metrics)


def run(cfg: SimConfig) -> SimResult:
    """Build and run one simulation to completion (in-flight traffic drained)."""
    return Simulator(cfg).run()
