"""Consensus rounds against a scripted broadcast layer, and the trace panel."""

from __future__ import annotations

from collections import deque

from quesera.chain import GENESIS, History, Proposal
from quesera.qsc import (
    DeliveryRecord,
    QscState,
    check_agreement,
    check_consensus,
    check_consistency,
    check_preservation,
    check_validity,
    qsc_round,
    run_qsc_node,
)
from quesera.tsb import ProposalInfo, RunTrace, Thresholds, TsbResult
from quesera.wire import encode_history, history_bytes

from test_tlcr import drive


class StubTsb:
    """Scripted (R, B) per broadcast; records what the round sent."""

    def __init__(self, outcomes):
        self.outcomes = deque(outcomes)
        self.sent = []

    def broadcast(self, payload):
        self.sent.append(payload)
        if False:
            yield  # makes this a generator, like the real layers
        return self.outcomes.popleft()


def ext(base, proposer, priority, message=b"m"):
    return base.extend(Proposal(proposer=proposer, message=message,
                                priority=priority, prev=base.digest))


def entries(*histories):
    return frozenset((h.head.proposer, encode_history(h)) for h in histories)


def play(state, outcomes, message=b"m", priority=100):
    return drive(qsc_round(state, StubTsb(outcomes), message, priority))


def mine_for(state, message=b"m", priority=100):
    """The history the round under test is about to propose."""
    return ext(state.history, state.node, priority, message)


def test_round_commits_when_alone_on_top():
    state = QscState(node=0)
    mine = mine_for(state)
    rival = ext(GENESIS, 1, 50)
    chosen, committed = play(state, [
        TsbResult(r=entries(mine, rival), b=entries(mine, rival)),
        TsbResult(r=entries(mine, mine), b=entries(mine)),
    ])
    assert committed
    assert chosen == mine
    assert state.history == mine
    assert state.round == 1


def test_round_sends_its_proposal_then_the_best_confirmed():
    state = QscState(node=0)
    mine = mine_for(state)
    rival = ext(GENESIS, 1, 500)  # confirmed and better: gets re-broadcast
    tsb = StubTsb([
        TsbResult(r=entries(mine, rival), b=entries(rival)),
        TsbResult(r=entries(rival), b=entries(rival)),
    ])
    drive(qsc_round(state, tsb, b"m", 100))
    assert [history_bytes(p) for p in tsb.sent] == [mine, rival]


def test_priority_tie_disqualifies():
    state = QscState(node=0)
    mine = mine_for(state, priority=100)
    rival = ext(GENESIS, 1, 100)  # same lottery draw
    chosen, committed = play(state, [
        TsbResult(r=entries(mine, rival), b=entries(mine, rival)),
        TsbResult(r=entries(mine), b=entries(mine)),
    ])
    assert chosen == mine  # tie broken for adoption: lower proposer id
    assert not committed   # but a tie is never *uniquely* best


def test_no_commit_when_adoption_is_unconfirmed():
    state = QscState(node=0)
    mine = mine_for(state)
    weaker = ext(GENESIS, 1, 10)
    chosen, committed = play(state, [
        TsbResult(r=entries(mine, weaker), b=entries(mine, weaker)),
        TsbResult(r=entries(mine), b=entries(weaker)),  # mine seen, not confirmed
    ])
    assert chosen == mine
    assert not committed


def test_no_commit_while_a_possible_winner_lurks():
    """A higher priority seen in the first step but absent later cannot be
    ruled out -- some other node may be committing it right now."""
    state = QscState(node=0)
    mine = mine_for(state)
    lurker = ext(GENESIS, 1, 999)  # visible early, vanishes from step two
    chosen, committed = play(state, [
        TsbResult(r=entries(mine, lurker), b=entries(mine)),
        TsbResult(r=entries(mine), b=entries(mine)),
    ])
    assert chosen == mine
    assert not committed


def test_losing_node_adopts_the_winner_and_builds_on_it():
    state = QscState(node=0)
    rival1 = ext(GENESIS, 1, 500)
    mine1 = mine_for(state)
    chosen, committed = play(state, [
        TsbResult(r=entries(mine1, rival1), b=entries(rival1)),
        TsbResult(r=entries(rival1), b=entries(rival1)),
    ])
    # commitment is about the chosen history, not about winning: the rival's
    # draw beats everything node 0 saw, so node 0 can commit it outright
    assert (chosen, committed) == (rival1, True)
    assert state.history == rival1
    # next round proposes on top of the adopted history, not the lost one
    mine2 = mine_for(state)
    assert mine2.head.prev == rival1.digest
    chosen2, committed2 = play(state, [
        TsbResult(r=entries(mine2), b=entries(mine2)),
        TsbResult(r=entries(mine2), b=entries(mine2)),
    ])
    assert (chosen2, committed2) == (mine2, True)
    assert state.round == 2 and state.history.length == 2


def test_run_qsc_node_threads_state_through_rounds():
    state = QscState(node=0)
    outcomes = []
    base = GENESIS
    for _ in range(3):
        nxt = ext(base, 0, 100)
        outcomes += [TsbResult(r=entries(nxt), b=entries(nxt))] * 2
        base = nxt
    drive(run_qsc_node(state, StubTsb(outcomes), 3, lambda s: (b"m", 100)))
    assert state.round == 3
    assert state.history.length == 3


# --- fabricated traces for the validator panel ---------------------------


def fresh_trace():
    return RunTrace(n=3, layers={"qsc": Thresholds(3, 0, 2, 1, 3)})


def register(trace, history, created_step=None):
    head = history.head
    trace.proposals[history.digest] = ProposalInfo(
        prev=head.prev,
        created_step=2 * (history.length - 1) if created_step is None else created_step,
        length=history.length,
    )
    return history


def adopt(trace, node, rnd, history):
    trace.adopts.append((len(trace.adopts), node, rnd, history.digest))


def commit(trace, node, rnd, history, step=None):
    trace.deliveries.append(DeliveryRecord(
        order=len(trace.deliveries), node=node, round=rnd,
        step=2 * rnd if step is None else step,
        digest=history.digest, length=history.length, committed=True))


def build_clean():
    """Three nodes march down one chain; node 0 commits at round 2."""
    trace = fresh_trace()
    a1 = register(trace, ext(GENESIS, 0, 30))
    a2 = register(trace, ext(a1, 1, 40))
    a3 = register(trace, ext(a2, 2, 50))
    for rnd, h in ((1, a1), (2, a2), (3, a3)):
        for node in range(3):
            adopt(trace, node, rnd, h)
    commit(trace, 0, 2, a2)
    return trace, (a1, a2, a3)


def test_clean_trace_passes_the_panel():
    trace, _ = build_clean()
    assert check_consensus(trace) == []


def test_consistency_catches_equal_length_forks_and_broken_prefixes():
    trace, _ = build_clean()
    b1 = register(trace, ext(GENESIS, 1, 31))
    b2 = register(trace, ext(b1, 1, 41))
    commit(trace, 1, 2, b2)  # length 2, like the clean trace's commit
    out = check_consistency(trace)
    assert any("two committed histories of length 2" in v for v in out)

    trace, _ = build_clean()
    c1 = register(trace, ext(GENESIS, 2, 29))
    c2 = register(trace, ext(c1, 2, 33))
    c3 = register(trace, ext(c2, 2, 34))
    commit(trace, 2, 3, c3)  # longer commit off the committed chain
    assert any("is not a prefix" in v for v in check_consistency(trace))

    trace, (_, a2, _) = build_clean()
    commit(trace, 1, 3, ext(a2, 1, 60))  # its head was never recorded
    assert check_consistency(trace) == [
        "commit at length 3 has an unresolvable ancestry"]


def test_agreement_catches_divergent_adoption():
    trace, _ = build_clean()
    b2_base = register(trace, ext(GENESIS, 2, 29))
    b2 = register(trace, ext(b2_base, 2, 35))
    trace.adopts[4] = (4, 1, 2, b2.digest)  # node 1, round 2: wrong history
    assert any("node 1 adopted" in v for v in check_agreement(trace))


def test_preservation_catches_drops_and_desynced_lengths():
    trace, _ = build_clean()
    c1 = register(trace, ext(GENESIS, 2, 29))
    c2 = register(trace, ext(c1, 2, 33))
    c3 = register(trace, ext(c2, 2, 34))
    adopt(trace, 2, 3, c3)  # round 3 adoption not extending the round-2 commit
    assert any("drops the history committed at length 2" in v
               for v in check_preservation(trace))

    trace, (a1, _, _) = build_clean()
    adopt(trace, 1, 4, a1)  # length 1 in round 4
    assert any("lock step" in v for v in check_preservation(trace))

    trace, (_, _, a3) = build_clean()
    ghost = ext(a3, 1, 70)  # never recorded
    adopt(trace, 1, 4, ghost)
    assert check_preservation(trace) == [
        f"node 1 adopted unknown digest {ghost.digest.hex()[:16]}"]


def test_validity_requires_a_two_step_old_head():
    trace, (_, a2, _) = build_clean()
    trace.proposals[a2.digest] = ProposalInfo(
        prev=a2.head.prev, created_step=0, length=2)  # recycled: made 4 steps back
    assert any("want gap 2" in v for v in check_validity(trace))

    trace, (a1, a2, _) = build_clean()
    commit(trace, 1, 1, a1, step=2)
    assert check_validity(trace) == []

    trace, (_, _, a3) = build_clean()
    ghost = ext(a3, 1, 70)  # never recorded
    commit(trace, 1, 4, ghost)
    assert check_validity(trace) == [
        f"node 1 delivered unknown digest {ghost.digest.hex()[:16]}"]

    trace, (_, a2, _) = build_clean()
    trace.proposals[a2.digest] = ProposalInfo(
        prev=a2.head.prev, created_step=2, length=3)  # recorded one too long
    assert check_validity(trace) == [
        "node 0 round 2: delivery length 2 disagrees with proposal length 3"]
