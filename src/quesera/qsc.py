"""Que sera consensus: genuinely asynchronous rounds driven by a lottery.

One round costs exactly two threshold-broadcast steps.  Every node extends its
current history with a fresh proposal carrying a random priority, broadcasts
it, adopts the best history among those *confirmed* (the B set), re-broadcasts
that, then adopts the best history it can *see* (the R set).  The round
commits -- the node announces its adopted history as permanent -- only when
the adopted history was confirmed in the second step and was the uniquely
best proposal visible in the first: any priority tie, or any competitor the
node cannot rule out, silently forfeits the round and play continues.  Nodes
never wait for each other beyond the broadcast thresholds, so a round always
terminates; whether it decides is what the lottery settles.

The layer underneath must provide full spread (every confirmed message is in
everyone's receive set) with ``t_r > 0`` and ``t_b > 0``; the whole
interface is ``broadcast(payload) -> (R, B)`` as a generator.  What a layer
yields passes through :func:`qsc_round` to whoever drives it: ``None`` to
the simulator under netsim, a slot and its offer to a QSCOD client
(:class:`qscod.StoreTlcb`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .chain import GENESIS, History, Proposal, best_in, uniquely_best_in
from .tsb import RunTrace
from .wire import Entry, encode_history, histories_of, history_bytes

# choose(state) -> (message bytes, random priority) for the next round
Chooser = Callable[["QscState"], tuple[bytes, int]]

_ROUND_STEPS = 2  # top-layer broadcast steps per round


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """End-of-round outcome of one node: the history it adopted, and whether
    it committed (announced the history permanent) or merely moved on."""

    order: int
    node: int
    round: int
    step: int  # top-layer broadcast steps completed at this point
    digest: bytes
    length: int
    committed: bool


@dataclass
class QscState:
    node: int
    history: History = field(default=GENESIS)
    round: int = 0


def step2_candidate(b1: Iterable[Entry]) -> History:
    """What step 2 broadcasts: the best history confirmed in step 1's B."""
    return best_in(histories_of(b1))


def decide(
    r1: Iterable[Entry], r2: Iterable[Entry], b2: Iterable[Entry]
) -> tuple[History, bool]:
    """The round's outcome from its views, each a set of (sender, encoded
    history) entries: adopt the best history in R2, and commit it only if it
    is in B2 and uniquely best in R1.

    Committing is deliberately conservative: the adopted history must appear
    in the second step's confirmed set *and* be strictly ahead of everything
    else the node saw in the first step's receive set.  Either condition
    failing just means this node cannot yet rule out a competing history;
    some other node may still commit the very same round.
    """
    chosen = best_in(histories_of(r2))
    committed = any(
        history_bytes(payload).digest == chosen.digest for _, payload in b2
    ) and uniquely_best_in(chosen, histories_of(r1))
    return chosen, committed


def qsc_round(
    state: QscState,
    tsb,
    message: bytes,
    priority: int,
    on_propose=None,
    on_decide=None,
) -> Iterator:
    """Play one round of the lottery.

    The node proposes ``message`` at ``priority`` on top of its current
    history, runs the two broadcast steps, adopts the winner, and reports
    ``(history, committed)``.  ``on_propose(round, history)`` fires before the
    first broadcast; ``on_decide(round, history, committed)`` fires after the
    adoption, with ``state`` already updated.

    The decision itself is :func:`step2_candidate` and :func:`decide`.
    """
    state.round += 1
    q = state.round
    proposal = Proposal(
        proposer=state.node,
        message=message,
        priority=priority,
        prev=state.history.digest,
    )
    mine = state.history.extend(proposal)
    if on_propose is not None:
        on_propose(q, mine)

    first = yield from tsb.broadcast(encode_history(mine))
    second = yield from tsb.broadcast(encode_history(step2_candidate(first.b)))
    chosen, committed = decide(first.r, second.r, second.b)

    state.history = chosen
    if on_decide is not None:
        on_decide(q, chosen, committed)
    return chosen, committed


def run_qsc_node(
    state: QscState,
    tsb,
    rounds: int,
    choose: Chooser,
    on_propose=None,
    on_decide=None,
) -> Iterator:
    """Drive a node through ``rounds`` consecutive rounds."""
    for _ in range(rounds):
        message, priority = choose(state)
        yield from qsc_round(state, tsb, message, priority, on_propose, on_decide)
    return state


# --- trace validators ---------------------------------------------------
#
# These replay the per-round records of a RunTrace against the consensus
# promises.  Like the broadcast validators they return violation strings;
# empty means the trace passes.


def _commits(trace: RunTrace) -> list[DeliveryRecord]:
    return [rec for rec in trace.deliveries if rec.committed]


def _walk(resolve, digest: bytes, length: int, down_to: int):
    """Follow prev links from (digest, length) down to the given length,
    through ``resolve`` (digest -> anything with ``.prev``, or None).
    Returns the ancestor digest, or None when the chain leaves the record."""
    d = digest
    for _ in range(length - down_to):
        info = resolve(d)
        if info is None:
            return None
        d = info.prev
    return d


def check_one_chain(commits: Iterable[tuple[str, int, bytes]], resolve) -> list[str]:
    """All committed histories lie on a single chain: of any two, the shorter
    is a prefix of the longer.  ``commits`` yields (committer, length,
    digest); chains are walked through ``resolve`` as in :func:`_walk`."""
    bad: list[str] = []
    by_len: dict[int, bytes] = {}
    for who, length, digest in commits:
        seen = by_len.setdefault(length, digest)
        if seen != digest:
            bad.append(
                f"two committed histories of length {length}: "
                f"{seen.hex()[:16]} vs {digest.hex()[:16]} ({who})"
            )
    lengths = sorted(by_len)
    for shorter, longer in zip(lengths, lengths[1:]):
        anc = _walk(resolve, by_len[longer], longer, shorter)
        if anc is None:
            bad.append(f"commit at length {longer} has an unresolvable ancestry")
        elif anc != by_len[shorter]:
            bad.append(
                f"commit at length {shorter} is not a prefix of the one at "
                f"length {longer}"
            )
    return bad


def check_consistency(trace: RunTrace) -> list[str]:
    """All committed histories, across all nodes and rounds, lie on a single
    chain (:func:`check_one_chain`)."""
    commits = ((f"node {rec.node}", rec.length, rec.digest) for rec in _commits(trace))
    return check_one_chain(commits, trace.resolve)


def check_agreement(trace: RunTrace) -> list[str]:
    """Whenever any node commits in round q, every node that finished round q
    adopted that exact history."""
    bad: list[str] = []
    adopted: dict[int, dict[int, bytes]] = {}
    for _, node, rnd, digest in trace.adopts:
        adopted.setdefault(rnd, {})[node] = digest
    for rec in _commits(trace):
        for node, digest in sorted(adopted.get(rec.round, {}).items()):
            if digest != rec.digest:
                bad.append(
                    f"round {rec.round}: node {rec.node} committed "
                    f"{rec.digest.hex()[:16]} but node {node} adopted "
                    f"{digest.hex()[:16]}"
                )
    return bad


def check_preservation(trace: RunTrace) -> list[str]:
    """Once committed, never abandoned: every adoption in a later round has
    each earlier committed history as a prefix."""
    bad: list[str] = []
    by_len: dict[int, bytes] = {}
    for rec in _commits(trace):
        by_len.setdefault(rec.length, rec.digest)
    lengths = sorted(by_len)
    for _, node, rnd, digest in trace.adopts:
        info = trace.resolve(digest)
        if info is None:
            bad.append(f"node {node} adopted unknown digest {digest.hex()[:16]}")
            continue
        if info.length != rnd:
            bad.append(
                f"node {node} round {rnd} adopted a history of length "
                f"{info.length}; rounds and lengths must move in lock step"
            )
            continue
        idx = bisect_right(lengths, rnd)
        if idx == 0:
            continue  # no commit at or below this round yet
        nearest = lengths[idx - 1]
        anc = _walk(trace.resolve, digest, rnd, nearest)
        if anc != by_len[nearest]:
            bad.append(
                f"node {node} round {rnd} adoption drops the history "
                f"committed at length {nearest}"
            )
    return bad


def check_validity(trace: RunTrace) -> list[str]:
    """Every delivered history -- committed or merely adopted -- is headed by
    a proposal created exactly one round (two broadcast steps) before
    delivery: fresh input, never a recycled or fabricated entry."""
    bad: list[str] = []
    for rec in trace.deliveries:
        info = trace.resolve(rec.digest)
        if info is None:
            bad.append(
                f"node {rec.node} delivered unknown digest {rec.digest.hex()[:16]}"
            )
            continue
        if rec.step - info.created_step != _ROUND_STEPS:
            bad.append(
                f"node {rec.node} round {rec.round}: head created at step "
                f"{info.created_step}, delivered at step {rec.step} "
                f"(want gap {_ROUND_STEPS})"
            )
        if info.length != rec.length:
            bad.append(
                f"node {rec.node} round {rec.round}: delivery length {rec.length} "
                f"disagrees with proposal length {info.length}"
            )
    return bad


def check_consensus(trace: RunTrace) -> list[str]:
    """Full panel: consistency, agreement, preservation, validity."""
    return (
        check_consistency(trace)
        + check_agreement(trace)
        + check_preservation(trace)
        + check_validity(trace)
    )
