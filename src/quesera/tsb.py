"""Threshold synchronous broadcast: contract types and trace validators.

A layer satisfying the contract exposes ``broadcast(m) -> (R, B)`` where the
call made at logical step s returns exactly one step later, R holds the step-s
messages of at least ``t_r`` distinct senders, B lies within R and holds
messages of at least ``t_b`` senders, and every message in B reached the
step-s receive sets of at least ``t_s`` nodes (nodes that stopped mid-run
count: the message was on the wire to them and they would receive it, only
too late to matter).

Full spread is the same promise at t_s = n.  ``validate_layer`` replays a
:class:`RunTrace` against the contract, one recorded layer at its claim, in one
scan of that layer's returns; the other validators check the nesting of layers
and the transport.  Each returns human-readable violation strings; an empty
list means the trace passes.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Optional

Entry = tuple[int, bytes]  # (sender, payload), in returned sets and trace records
# layer -> node -> that node's (order, step, R, B) returns, in order
RetIndex = dict[str, dict[int, list[tuple[int, int, frozenset[Entry], frozenset[Entry]]]]]


@dataclass(frozen=True, slots=True)
class Thresholds:
    """TSB(t_r, t_b, t_s) over n nodes with up to f faults: a stack's
    admitted thresholds, which every layer of it reads, and what each layer
    claims over them."""

    n: int
    f: int
    t_r: int
    t_b: int
    t_s: int


@dataclass(slots=True)
class TsbResult:
    """What one broadcast call returned: receive set R and broadcast set B,
    both sets of (sender, payload) pairs.  A plain slots record, built
    positionally; its sets are frozen, and no caller changes it."""

    r: frozenset[tuple[int, bytes]]
    b: frozenset[tuple[int, bytes]]


def senders(entries: Iterable[Entry]) -> set[int]:
    return set(map(itemgetter(0), entries))


@dataclass(frozen=True, slots=True)
class ProposalInfo:
    """Observer-side record of a proposal created during a run."""

    prev: bytes
    created_step: int  # top-layer steps completed when the proposal was made
    length: int


@dataclass
class RunTrace:
    """Everything one simulated run wrote down.

    Layer records use (order, layer, step, node, ...) tuples where ``order``
    is a global monotone counter, ``step`` counts that layer's own broadcast
    calls from 1, and a send holds its payload, a return its R and B sets:
    only ``serialize`` hashes them.  Transport records (``xmits``, ``dlvrs``)
    are kept only at the full trace level.
    """

    n: int
    layers: dict[str, Thresholds]  # claim per recorded layer, top layer first
    sends: list[tuple[int, str, int, int, bytes]] = field(default_factory=list)
    rets: list[tuple[int, str, int, int, frozenset[Entry], frozenset[Entry]]] = field(
        default_factory=list
    )
    crashes: dict[int, tuple[int, str]] = field(default_factory=dict)
    xmits: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    dlvrs: list[tuple[int, int, int, int]] = field(default_factory=list)
    proposals: dict[bytes, ProposalInfo] = field(default_factory=dict)
    adopts: list[tuple[int, int, int, bytes]] = field(default_factory=list)
    deliveries: list = field(default_factory=list)  # qsc.DeliveryRecord

    @property
    def top_layer(self) -> str:
        return next(iter(self.layers))

    def resolve(self, digest: bytes):
        """Digest -> head proposal info, for chain walks (None if unknown)."""
        return self.proposals.get(digest)

    def serialize(self, include_transport: bool = True) -> str:
        """Line-oriented ``step,node,event,payload-digest`` rendering in event
        order, stable byte-for-byte for identical runs."""
        digest = functools.cache(lambda payload: hashlib.sha256(payload).digest())
        set_digest = functools.cache(lambda entries: _set_digest(entries, digest))
        lines: list[tuple[int, str]] = []
        head = ";".join(
            f"{name}:{p.t_r}/{p.t_b}/{p.t_s}" for name, p in self.layers.items()
        )
        crash = ",".join(
            f"{node}@{step}{phase[0]}" for node, (step, phase) in sorted(self.crashes.items())
        )
        lines.append((-1, f"0,0,run:n={self.n}:{head},{crash or '-'}"))
        for order, layer, step, node, payload in self.sends:
            lines.append((order, f"{step},{node},send:{layer},{digest(payload).hex()[:16]}"))
        for order, layer, step, node, r, b in self.rets:
            lines.append((order, f"{step},{node},ret:{layer},{set_digest(r)}:{set_digest(b)}"))
        if include_transport:
            for order, sender, dest, seq, size in self.xmits:
                lines.append((order, f"{seq},{sender},xmit:{dest},{size}"))
            for order, sender, dest, seq in self.dlvrs:
                lines.append((order, f"{seq},{dest},dlvr:{sender},-"))
        for node, (step, phase) in sorted(self.crashes.items()):
            lines.append((0, f"{step},{node},crash:{phase},-"))
        for order, node, rnd, digest in self.adopts:
            lines.append((order, f"{rnd},{node},adopt,{digest.hex()[:16]}"))
        for rec in self.deliveries:
            if rec.committed:
                lines.append(
                    (rec.order, f"{rec.round},{rec.node},commit,{rec.digest.hex()[:16]}")
                )
        lines.sort(key=lambda kv: kv[0])
        return "\n".join(text for _, text in lines) + "\n"


def _set_digest(entries: Iterable[Entry], digest: Callable[[bytes], bytes]) -> str:
    h = hashlib.sha256()
    for sender, payload_digest in sorted((s, digest(p)) for s, p in entries):
        h.update(sender.to_bytes(4, "big"))
        h.update(payload_digest)
    return h.hexdigest()[:16]


def _layer_sends(trace: RunTrace, layer: str):
    """A layer's sends as step -> node -> payload, and its repeats."""
    by_step: dict[int, dict[int, bytes]] = {}
    dups: list[str] = []
    for _, lname, step, node, payload in trace.sends:
        if lname != layer:
            continue
        sent = by_step.setdefault(step, {})
        if node in sent:
            dups.append(f"node {node} sent twice at {layer} step {step}")
        sent[node] = payload
    return by_step, dups


def index_rets(trace: RunTrace) -> RetIndex:
    """Every layer's returns, per node and in order, from one pass over the
    trace.  The checks below take it as ``index`` so that a panel of them
    scans the returns once; each builds its own when given none."""
    index: RetIndex = {}
    for order, layer, step, node, r, b in trace.rets:
        index.setdefault(layer, {}).setdefault(node, []).append((order, step, r, b))
    for per_node in index.values():
        for seq in per_node.values():
            seq.sort()
    return index


def validate_substeps(
    trace: RunTrace, outer: str, inner: str, per_step: int,
    index: Optional[RetIndex] = None,
) -> list[str]:
    """Check that each outer-layer step consumed exactly ``per_step`` steps of
    the inner layer, in order."""
    bad: list[str] = []
    if index is None:
        index = index_rets(trace)
    outer_rets, inner_rets = index.get(outer, {}), index.get(inner, {})
    for node, seq in sorted(outer_rets.items()):
        inner_seq = inner_rets.get(node, [])
        if node not in trace.crashes and len(inner_seq) != per_step * len(seq):
            bad.append(
                f"node {node}: {len(seq)} {outer} steps but {len(inner_seq)} "
                f"{inner} steps (want x{per_step})"
            )
            continue
        for k, (order, step, _, _) in enumerate(seq, start=1):
            idx = k * per_step - 1
            if idx < len(inner_seq) and inner_seq[idx][0] > order:
                bad.append(
                    f"node {node}: {outer} step {step} returned before its "
                    f"{inner} sub-steps finished"
                )
    return bad


def _no_channel(sender: int, dest: int, n: int) -> str:
    return f"channel {sender}->{dest}: no such channel among {n} nodes"


def validate_fifo(trace: RunTrace) -> list[str]:
    """Per-channel delivery order equals send order (needs a full trace)."""
    n = trace.n
    bad: list[str] = []
    last = [0] * (n * n)  # per channel, indexed sender * n + dest
    for _, sender, dest, seq in trace.dlvrs:
        if not (0 <= sender < n and 0 <= dest < n):
            bad.append(_no_channel(sender, dest, n))
            continue
        chan = sender * n + dest
        prev = last[chan]
        if seq <= prev:
            bad.append(f"channel {sender}->{dest}: delivery {seq} after {prev}")
        last[chan] = seq
    return bad


def validate_delivery(trace: RunTrace) -> list[str]:
    """Every transmitted unicast was eventually delivered, and nothing else
    was (needs full trace; the simulator drains in-flight traffic before
    finishing a run)."""
    n = trace.n
    bad: list[str] = []
    sent = [0] * (n * n)  # per channel, indexed sender * n + dest
    got = [0] * (n * n)
    for _, sender, dest, _, _ in trace.xmits:
        if 0 <= sender < n and 0 <= dest < n:
            sent[sender * n + dest] += 1
        else:
            bad.append(_no_channel(sender, dest, n))
    for _, sender, dest, _ in trace.dlvrs:
        if 0 <= sender < n and 0 <= dest < n:
            got[sender * n + dest] += 1
        else:
            bad.append(_no_channel(sender, dest, n))
    for chan, k in enumerate(sent):
        if got[chan] != k:
            bad.append(f"channel {chan // n}->{chan % n}: {k} sent, {got[chan]} delivered")
    return bad


def validate_layer(
    trace: RunTrace, layer: str, index: Optional[RetIndex] = None
) -> list[str]:
    """Check one recorded layer against its claim in one scan of its returns.

    Lock-step: per node, broadcast calls return one per step in order
    1,2,3,... and every returned set entry is a message some node actually
    sent at that same layer step.  Thresholds: every R holds ``t_r`` senders,
    every B ``t_b``, and every B message reached the returned step-s R sets
    of ``t_s`` nodes, each node counted once; a node that never returned
    that step counts as reached (it crashed: the message was on the wire to
    it, and delivery is only a matter of waiting).  At t_s = n this spread
    count is the full-spread check.  Containment: every returned B lies
    within the same call's R.  Returned sets are checked as sets; their
    failing entries are reported sender by sender."""
    claim = trace.layers[layer]
    sends, bad = _layer_sends(trace, layer)
    per_node = (index_rets(trace) if index is None else index).get(layer, {})
    send_steps: dict[int, list[int]] = {}
    for step, sent in sends.items():
        for node in sent:
            send_steps.setdefault(node, []).append(step)
    for node, steps in sorted(send_steps.items()):
        steps.sort()
        if steps != list(range(1, len(steps) + 1)):
            bad.append(f"node {node} {layer} send steps not consecutive: {steps[:8]}...")
    sent_entries = {step: frozenset(sent.items()) for step, sent in sends.items()}
    by_step: dict[int, list[tuple[int, frozenset[Entry], frozenset[Entry], bool]]] = {}
    unsent, nothing = {}, frozenset()
    for node, seq in sorted(per_node.items()):
        want = 1
        for _, step, r, b in seq:
            if step != want:
                bad.append(f"node {node} {layer} returned step {step}, expected {want}")
            want = step + 1
            at_step = sends.get(step, unsent)
            if node not in at_step:
                bad.append(f"node {node} {layer} step {step} returned without sending")
            r, b, sent = frozenset(r), frozenset(b), sent_entries.get(step, nothing)
            clean = r <= sent and b <= sent  # then no two entries share a sender
            for tag, entries in () if clean else (("R", r), ("B", b)):
                for sender, _ in sorted(entries - sent):
                    what = (f"a foreign payload for sender {sender}" if sender in at_step
                            else f"a message never sent by {sender} at that step")
                    bad.append(f"node {node} {layer} step {step} {tag} holds {what}")
            if not b <= r:
                bad.append(f"node {node} {layer} step {step}: B not within R")
            by_step.setdefault(step, []).append((node, r, b, clean))
    for node in sorted(set(send_steps) | set(per_node)):
        sent, got = len(send_steps.get(node, [])), len(per_node.get(node, []))
        if node not in trace.crashes and sent != got:
            bad.append(
                f"node {node} {layer}: {sent} sends but {got} returns without a crash"
            )
    t_r, t_b, t_s = claim.t_r, claim.t_b, claim.t_s
    for step, rows in sorted(by_step.items()):
        silent = trace.n - len(rows)  # nodes that never returned this step
        reached = Counter(chain.from_iterable(r for _, r, _, _ in rows))
        spread = {entry for entry, k in reached.items() if k + silent >= t_s}
        for node, r, b, clean in rows:
            have = len(r) if clean else len(senders(r))
            if have < t_r:
                bad.append(f"node {node} {layer} step {step}: |R senders| {have} < t_r={t_r}")
            have = len(b) if clean else len(senders(b))
            if have < t_b:
                bad.append(f"node {node} {layer} step {step}: |B senders| {have} < t_b={t_b}")
            if silent < t_s and not b <= spread:
                thin = sorted(b - spread, key=lambda e: (e[0], hashlib.sha256(e[1]).digest()))
                for entry in thin:  # by sender, then payload digest, as serialized
                    bad.append(
                        f"node {node} {layer} step {step}: B message from "
                        f"{entry[0]} reached {reached[entry] + silent} < t_s={t_s} nodes"
                    )
    return bad
