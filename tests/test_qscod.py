"""Client-driven consensus over write-once stores: races, retries, audit."""

from __future__ import annotations

import base64
import copy
import dataclasses
import hashlib
import io
import pickle
import select
import signal
import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quesera import qscod
from quesera.chain import GENESIS, Proposal
from quesera.kvstore import FileStore, MemoryStore, PipeStore, serve, write_line
from quesera.qscod import (
    Client,
    CountingStore,
    ByteTally,
    RoundLog,
    StoreTlcb,
    audit,
    decode_slot3,
    qscod_params,
    run_clients,
    run_workload,
    slot_key,
)
from quesera.netsim import configure
from quesera.qsc import QscState, qsc_round
from quesera.tlcr import ConfigError
from quesera.wire import (
    DECODE_MEMO_SIZE,
    WireError,
    encode_entry_set,
    encode_grouped_set,
    encode_history,
    grouped_set_memo,
    history_bytes,
    history_memo,
)


def test_params_defaults_and_admission():
    p = qscod_params(3)
    assert (p.n, p.t_r, p.t_s, p.t_b, p.f) == (3, 2, 2, 1, 1)
    p = qscod_params(6)
    assert (p.t_r, p.t_s, p.t_b, p.f) == (4, 3, 2, 2)
    with pytest.raises(ConfigError, match="t_r [+] t_s > n"):
        configure("qsc-tlcb", 6, 2, t_s=2)  # columns could miss each other's winners
    with pytest.raises(ValueError, match="one store per column expected"):
        Client(0, [MemoryStore(), MemoryStore()], qscod_params(3), 1)


def play(state, layer, message, priority, answer):
    """Drive :func:`qsc.qsc_round` over ``layer`` in this thread:
    ``answer(slot, offer)`` returns the columns collected for each slot.
    Returns the round's history, whether the lottery committed it, and the
    proposal the round made."""
    mine = []
    rnd = qsc_round(state, layer, message, priority, on_propose=lambda _, h: mine.append(h))
    cols = None
    while True:
        try:
            slot, offer = rnd.send(cols)
        except StopIteration as stop:
            return (*stop.value, mine[0])
        cols = answer(slot, offer)


def test_slot_keys_and_slot3_codec():
    keys = {slot_key(r, s) for r in (1, 2, 300000) for s in (1, 2, 3, 4)}
    assert len(keys) == 12  # distinct rounds and slots never collide
    h = GENESIS.extend(Proposal(proposer=0, message=b"m", priority=9,
                                prev=GENESIS.digest))
    assert decode_slot3(encode_history(h)) == (frozenset(), frozenset(), h)
    # the form written before, with empty R1 and B1 sets ahead of the
    # candidate, is no slot-3 value
    with pytest.raises(WireError, match="trailing bytes after history"):
        decode_slot3(encode_entry_set(()) * 2 + encode_history(h))


MINE = GENESIS.extend(Proposal(proposer=0, message=b"mine", priority=5, prev=GENESIS.digest))
RIVAL = GENESIS.extend(Proposal(proposer=0, message=b"rival", priority=9, prev=GENESIS.digest))


def scripted(columns, proposed=MINE.digest):
    """A client's round proposing MINE, played over a :class:`StoreTlcb`
    of three columns and no stores: a slot in ``columns`` answers its
    scripted columns, any other slot the offered value in every column, as
    a lone writer would see.  Returns the adopted history, whether the
    client commits it (the lottery's verdict, for ``proposed`` only), and
    what was offered for each slot."""
    offered = {}

    def answer(slot, offer):
        offered[slot] = value = offer()
        return columns.get(slot) or {col: value for col in range(3)}

    chosen, committed, mine = play(QscState(node=0), StoreTlcb(2), b"mine", 5, answer)
    assert mine == MINE
    return chosen, committed and chosen.digest == proposed, offered


def test_slot3_offers_only_the_step2_candidate():
    # a lone writer: its proposal fills R1 and B1 and is committed
    chosen, committed, offered = scripted({})
    assert (chosen.digest, committed) == (MINE.digest, True)
    assert offered[3] == encode_history(MINE)

    # a rival's higher-priority proposal holds one column and every gossip:
    # it is B1's best, so slot 3 offers it, and it is adopted, not committed
    cols1 = {0: encode_history(MINE), 1: encode_history(RIVAL), 2: encode_history(MINE)}
    chosen, committed, offered = scripted(
        {1: cols1, 2: dict.fromkeys(range(3), encode_grouped_set(cols1.items()))})
    assert (chosen.digest, committed) == (RIVAL.digest, False)
    assert offered[3] == encode_history(RIVAL)


def race(workloads, budget, seed=7, stores=None):
    """Run the workloads to the end, by default on three fresh memory
    stores; every client must finish.  Also returns the lines naming the
    store columns that raised."""
    stores = [MemoryStore() for _ in range(3)] if stores is None else stores
    params = qscod_params(len(stores))
    reports, failed, raised = run_clients(stores, params, workloads, budget, seed)
    assert failed == []
    return params, stores, reports, raised


def test_lone_client_commits_every_message_in_order():
    workload = [b"alpha", b"beta", b"gamma", b""]
    params, stores, (report,), _ = race([list(workload)], 20)
    assert report.delivered == workload
    assert report.commits == report.rounds == len(workload)
    assert all(e.committed and e.adopted == e.proposed for e in report.log)
    assert audit(stores, params, [report]) == []


def test_lone_client_decisions_replay_across_runs():
    """Store scheduling may vary which columns answer first, but a single
    writer's chain and deliveries are a pure function of the seed."""
    runs = [race([[b"a", b"b", b"c"]], 20, seed=3) for _ in range(2)]
    (_, _, (r1,), _), (_, _, (r2,), _) = runs
    assert r1.delivered == r2.delivered
    assert r1.commits == r2.commits
    assert [e.adopted for e in r1.log] == [e.adopted for e in r2.log]


def test_contending_clients_stay_consistent():
    params, stores, reports, _ = race(
        [[b"c%d-%d" % (cid, k) for k in range(3)] for cid in range(3)], 200)
    assert audit(stores, params, reports) == []
    for cid, report in enumerate(reports):
        assert report.delivered == [b"c%d-%d" % (cid, k) for k in range(3)]
    # at most one client commits any given round, and they agree on lengths
    winners = {}
    for report in reports:
        for e in report.log:
            if e.committed:
                assert winners.setdefault(e.round, e.adopted) == e.adopted
    assert winners  # the race did produce commits
    # some round was lost, so contention was exercised; every round proposed
    # a message, and each commit delivered one
    assert any(not e.committed for r in reports for e in r.log)
    assert all(e.message != b"" for r in reports for e in r.log)
    assert all(r.commits == len(r.delivered) for r in reports)


def scripted_client(cid, seed, verdicts):
    """A client whose rounds touch no store: each one advances the round,
    is logged as ``(round, message, priority)`` and commits by the next of
    ``verdicts``."""
    client = Client(cid, [MemoryStore() for _ in range(3)], qscod_params(3), seed)
    client.close()
    played = []

    def run_round(message, priority):
        client.state.round += 1
        rnd = client.state.round
        played.append((rnd, message, priority))
        won = verdicts.pop(0)
        return RoundLog(round=rnd, message=message, proposed=b"p", adopted=b"p" if won else b"q",
                        length=rnd, committed=won)

    client.run_round = run_round
    return client, played


def test_run_schedules_messages_and_priorities():
    """Client.run's schedule, pinned against its own reference: a lost
    message is proposed again in the very next round, each round's
    priority is mix64(seed, priority, id, round), and each commit delivers
    the message it proposed."""
    cid, seed = 3, 11
    want, rnd = [], 10
    losses = {b"a": 1, b"b": 7, b"c": 0}
    verdicts = []
    for message, lost in losses.items():
        for won in [False] * lost + [True]:
            rnd += 1
            want.append((rnd, message, qscod.mix64(seed, qscod._S_PRIORITY, cid, rnd)))
            verdicts.append(won)

    client, played = scripted_client(cid, seed, verdicts)
    client.state.round = 10
    report = client.run(list(losses), 10_000)
    assert played == want
    assert verdicts == []
    assert report.delivered == list(losses)
    assert (report.rounds, report.commits) == (len(want), len(losses))
    assert [e.round for e in report.log] == [w[0] for w in want]

    # a budget that ends before the win stops there, undelivered
    client, played = scripted_client(cid, seed, [False, False])
    report = client.run([b"a"], 2)
    assert played == [(1, b"a", qscod.mix64(seed, qscod._S_PRIORITY, cid, 1)),
                      (2, b"a", qscod.mix64(seed, qscod._S_PRIORITY, cid, 2))]
    assert (report.delivered, report.rounds, report.commits) == ([], 2, 0)

    # nothing to deliver plays no round
    client, played = scripted_client(cid, seed, [])
    assert client.run([], 5).rounds == 0 and played == []


def test_dead_column_does_not_stall_the_client():
    class BrokenStore(MemoryStore):
        def write_read(self, key, value):
            raise RuntimeError("disk on fire")

    stores = [MemoryStore(), BrokenStore(), MemoryStore(), MemoryStore()]
    params, _, (report,), raised = race([[b"x", b"y"]], 20, stores=stores)
    assert report.delivered == [b"x", b"y"]
    assert audit(stores, params, [report]) == []  # the dead column is just absent
    # ...to the audit, but run_clients counts its four failed writes a round
    assert raised == [f"column 1: {4 * report.rounds} store operations raised, "
                      "last RuntimeError('disk on fire')"]


@pytest.fixture
def pipe_stores(tmp_path):
    """Makes pipe stores, of ``PipeStore`` or a subclass, each logging to a
    fresh file; at teardown each child is resumed and closed, so none
    outlives the test, even one that fails."""
    made = []

    def make(kind=PipeStore):
        made.append(kind(str(tmp_path / f"pipe-{len(made)}.log")))
        return made[-1]

    yield make
    for store in made:
        store.child.send_signal(signal.SIGCONT)
        store.close()
        assert store.child.returncode is not None


@pytest.mark.parametrize("n, hung", [(4, {2}), (7, {2, 5})], ids=["n4-f1", "n7-f2"])
def test_hung_column_does_not_stall_the_client(n, hung, pipe_stores):
    """Up to f columns whose store processes are stopped until the run is
    over: the client proceeds on the other t_r, and once the stores
    resume, what they wrote late still audits clean."""
    stores = [pipe_stores() if col in hung else MemoryStore() for col in range(n)]
    params = qscod_params(n)
    assert (params.f, params.t_r) == (len(hung), n - len(hung))
    baseline = threading.active_count()
    for col in hung:
        stores[col].child.send_signal(signal.SIGSTOP)
    client = Client(0, stores, params, seed=5)
    try:
        report = client.run([b"x", b"y", b"z"], 20)
    finally:
        for col in hung:
            stores[col].child.send_signal(signal.SIGCONT)
        client.close()
    assert threading.active_count() == baseline
    assert report.delivered == [b"x", b"y", b"z"]
    assert all(hung.isdisjoint(view) for e in report.log for view in e.views.values())
    for col in hung:
        assert stores[col].snapshot() == stores[0].snapshot()  # the late writes landed
    assert audit(stores, params, [report]) == []


def test_each_store_sees_one_thread_at_a_time_in_submit_order():
    """A column's commands run one at a time and in the order they were
    offered, at every thread switch."""
    overlaps = []

    class OneAtATime(MemoryStore):
        def __init__(self):
            super().__init__()
            self.entry = threading.Lock()
            self.keys = []

        def write_read(self, key, value):
            if not self.entry.acquire(blocking=False):
                overlaps.append(key)
                return super().write_read(key, value)
            try:
                self.keys.append(key)
                return super().write_read(key, value)
            finally:
                self.entry.release()

    rounds = 200
    stores = [OneAtATime() for _ in range(5)]
    baseline = threading.active_count()
    client = Client(0, stores, qscod_params(5), seed=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = client.run([b"m%d" % k for k in range(rounds)], rounds)
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert threading.active_count() == baseline
    assert len(report.delivered) == report.rounds == rounds
    assert overlaps == []
    offered = [slot_key(rnd, slot) for rnd in range(1, rounds + 1) for slot in (1, 2, 3, 4)]
    assert all(store.keys == offered for store in stores)


def test_a_client_on_in_process_stores_starts_no_thread():
    """The client calls every store from its own thread, and no other
    thread runs while it plays its rounds."""
    baseline = threading.active_count()
    calls = []

    class Seen(MemoryStore):
        def write_read(self, key, value):
            calls.append((threading.get_ident(), threading.active_count()))
            return super().write_read(key, value)

    client = Client(0, [Seen() for _ in range(3)], qscod_params(3), seed=2)
    report = client.run([b"a", b"b", b"c", b"d"], 20)
    client.close()
    assert report.rounds == len(report.delivered) == 4
    assert calls == [(threading.get_ident(), baseline)] * (4 * 4 * 3)  # rounds x slots x stores
    assert threading.active_count() == baseline


class SlotTwoJunk(MemoryStore):
    """A store that answers every slot-2 write of the first ``rounds``
    rounds with a value that is no entry set."""

    def __init__(self, rounds=2**32):
        super().__init__()
        self.rounds = rounds

    def write_read(self, key, value):
        got = super().write_read(key, value)
        return b"junk" if key[-1] == 2 and int.from_bytes(key[:4], "big") <= self.rounds else got


def test_a_column_that_does_not_decode_fails_the_client_at_once():
    t0 = time.monotonic()
    stores = [SlotTwoJunk() for _ in range(3)]
    reports, failed, dead = run_clients(stores, qscod_params(3), [[b"a"]], 20, 7)
    assert (reports, dead) == ([], [])
    assert failed == ["client 0 raised WireError('truncated set entry')"]
    assert time.monotonic() - t0 < 10  # not after WAIT_TIMEOUT (60 s)


def test_a_round_that_raises_leaves_the_drivers_running():
    """A round that raises leaves the client's columns as they were: the
    next round plays on all of them, and no store operation raised."""
    stores = [SlotTwoJunk(rounds=1) for _ in range(3)]
    baseline = threading.active_count()
    client = Client(0, stores, qscod_params(3), seed=4)
    try:
        with pytest.raises(WireError, match="truncated set entry"):
            client.run_round(b"lost", 1)
        entry = client.run_round(b"kept", 2)
    finally:
        client.close()
    assert threading.active_count() == baseline
    assert entry.round == 2 and entry.committed and entry.adopted == entry.proposed
    assert sum(c.errors for c in client.cache.columns) == 0


class SlotTwoStops(PipeStore):
    """A pipe store whose child is stopped as its first slot-2 write is sent."""

    def send(self, key, value):
        if key[-1] == 2:
            self.child.send_signal(signal.SIGSTOP)
        super().send(key, value)


def test_a_stalled_round_names_its_slot_key_and_columns(monkeypatch, pipe_stores):
    monkeypatch.setattr(qscod, "WAIT_TIMEOUT", 0.2)
    stores = [MemoryStore(), pipe_stores(SlotTwoStops), pipe_stores(SlotTwoStops)]
    for store in stores[1:]:  # serving, so slot 1 does not wait for a child to start
        assert store.write_read(b"warm-up", b"") == b""
    client = Client(0, stores, qscod_params(3), seed=4)
    try:
        with pytest.raises(TimeoutError) as err:
            client.run_round(b"m", 1)
    finally:
        for store in stores[1:]:
            store.child.send_signal(signal.SIGCONT)
        client.close()
    assert str(err.value) == f"1/2 columns answered for {slot_key(1, 2).hex()}"


def test_a_slot_that_cannot_get_its_columns_fails_at_once():
    """With f + 1 columns raising and no store process left to answer, a
    slot is short for good: the round fails at once, not after
    WAIT_TIMEOUT."""
    class BrokenStore(MemoryStore):
        def write_read(self, key, value):
            raise OSError("disk on fire")

    t0 = time.monotonic()
    reports, failed, dead = run_clients(
        [MemoryStore(), BrokenStore(), BrokenStore()], qscod_params(3), [[b"a"]], 20, 7)
    assert time.monotonic() - t0 < 5
    assert reports == []
    assert failed == ["client 0 raised TimeoutError("
                      f"'1/2 columns answered for {slot_key(1, 1).hex()}')"]
    assert dead == [f"column {col}: 1 store operations raised, last OSError('disk on fire')"
                    for col in (1, 2)]


def test_a_killed_store_process_is_a_dead_column(pipe_stores):
    """A lone client on four columns, the fourth a store process killed
    with a write in flight at round 4: the client delivers every message
    on the other three, the column is reported dead, and the killed log
    reopens holding every write the process acknowledged."""
    acked = {}

    class KilledAtRound4(PipeStore):
        def send(self, key, value):
            self.key = key
            if key == slot_key(4, 1):  # stopped first, so it cannot answer
                self.child.send_signal(signal.SIGSTOP)
            super().send(key, value)
            if key == slot_key(4, 1):
                self.child.kill()
                self.child.wait(30)

        def receive(self):
            acked[self.key] = got = super().receive()
            return got

    stores = [MemoryStore(), MemoryStore(), MemoryStore(), pipe_stores(KilledAtRound4)]
    messages = [b"m%d" % k for k in range(6)]
    params, _, (report,), dead = race([messages], 20, stores=stores)
    assert report.delivered == messages and report.rounds == 6
    # the write in flight got no answer, and each later one found no reader
    assert dead == [f"column 3: {4 * 3} store operations raised, "
                    "last BrokenPipeError(32, 'Broken pipe')"]
    assert set(acked) == {slot_key(rnd, slot) for rnd in (1, 2, 3) for slot in (1, 2, 3, 4)}
    reopened = FileStore(stores[3].path)
    try:
        assert {key: reopened.read(key) for key in acked} == acked
    finally:
        reopened.close()
    assert audit(stores[:3], params, []) == []


def test_pipe_bytes_are_the_bill(pipe_stores):
    """A lone client on five store processes: the bytes counted on their
    pipes, both ways, are exactly what the client bills."""
    raw = [pipe_stores() for _ in range(5)]
    done, problems, dead, short, tally = run_workload(raw, qscod_params(5), 1, 20, 40, seed=3)
    assert (problems, dead, short) == ([], [], [])
    assert tally.ops == 5 * 4 * done[0].rounds
    assert sum(store.sent + store.received for store in raw) == tally.total


def test_lone_client_bytes_are_a_function_of_the_seed():
    """At the default f the client reads t_r of n columns, which ones
    varying with thread timing; the gossip it writes holds exactly t_r
    entries all the same, so its bytes repeat."""
    params = qscod_params(5)
    assert (params.f, params.t_r) == (1, 4)
    totals = []
    for _ in range(2):
        done, problems, dead, short, tally = run_workload(
            [MemoryStore() for _ in range(5)], params, 1, 20, 40, seed=9)
        assert (problems, dead, short) == ([], [], [])
        (report,) = done
        assert all(len(view) == params.t_r for e in report.log for view in e.views.values())
        totals.append(tally.total)
    assert totals[0] == totals[1]


def test_lone_client_store_bytes_are_pinned():
    """With t_r = n a lone client reads every column, so what it writes is a
    function of the seed alone: its bill and the bytes each store holds."""
    raw = [MemoryStore() for _ in range(5)]
    done, problems, dead, short, tally = run_workload(
        raw, configure("qsc-tlcb", 5, 0), 1, 20, 40, seed=9)
    assert (problems, dead, short) == ([], [], [])
    assert tally.total == 54_000
    digest = hashlib.sha256()
    for store in raw:
        for key, value in sorted(store.snapshot().items()):
            digest.update(key + value)
    assert digest.hexdigest().startswith("4aa699e89c9d9929")


def test_lone_client_proposals_and_decisions_are_pinned():
    """The same run as above, read where a change to the gossip encoding
    must leave it alone: the proposals (slot 1) and candidates (slot 3)
    each store holds, and what the client adopted and committed each
    round."""
    raw = [MemoryStore() for _ in range(5)]
    done, problems, dead, short, tally = run_workload(
        raw, configure("qsc-tlcb", 5, 0), 1, 20, 40, seed=9)
    assert (problems, dead, short) == ([], [], [])
    digest = hashlib.sha256()
    for store in raw:
        for key, value in sorted(store.snapshot().items()):
            if key[-1] in (1, 3):
                digest.update(key + value)
    assert digest.hexdigest().startswith("fab02107fa3f988b")
    (report,) = done
    assert [e.committed for e in report.log] == [True] * 20
    adopted = hashlib.sha256(b"".join(e.adopted for e in report.log))
    assert adopted.hexdigest().startswith("c61a1022e8135b75")


def test_audit_replays_without_encoding_offers(monkeypatch):
    params, stores, (report,), _ = race([[b"m%d" % k for k in range(500)]], 500)
    assert report.rounds == 500
    calls = []

    def counted(entries):
        calls.append(1)
        return encode_grouped_set(entries)

    monkeypatch.setattr(qscod, "encode_grouped_set", counted)
    assert audit(stores, params, [report]) == []
    assert calls == []
    # the same round played with its offers encodes two sets, the gossip
    # of slots 2 and 4
    scripted({})
    assert len(calls) == 2


def test_audit_decodes_each_distinct_slot_value_once_per_pass(monkeypatch):
    """Every column holds a copy of each slot value, and the round logs one
    more.  The audit replays each round's logs right after decoding its
    store values, so the decode memos serve the other copies, and each
    distinct value is decoded once: each miss of an emptied memo is one
    decode."""
    params, stores, (report,), _ = race([[b"m%d" % k for k in range(200)]], 200)
    # slots 1 and 3 hold histories, slots 2 and 4 grouped sets: one codec each
    distinct = {(key[-1] % 2, value)
                for store in stores for key, value in store.snapshot().items()}
    misses = []

    def counted(decode):
        def miss(data):
            misses.append(data)
            return decode(data)
        return miss

    for memo in (history_memo, grouped_set_memo):
        memo.clear()
        monkeypatch.setattr(memo, "decode", counted(memo.decode))
    assert audit(stores, params, [report]) == []
    assert len(misses) == len(distinct)


def test_audit_rejects_tampered_logs():
    params, stores, (report,), _ = race([[b"a", b"b"]], 20)
    assert audit(stores, params, [report]) == []

    forged = dataclasses.replace(report.log[0], committed=False)
    doctored = dataclasses.replace(report, log=[forged] + report.log[1:])
    assert any("committed=False but views say True" in v
               for v in audit(stores, params, [doctored]))

    wrong = dataclasses.replace(report.log[0], adopted=b"\x13" * 32)
    doctored = dataclasses.replace(report, log=[wrong] + report.log[1:])
    out = audit(stores, params, [doctored])
    assert any("but views say" in v for v in out)

    views = dict(report.log[1].views)
    views[1] = {**views[1], 0: b"not what the store holds"}
    doctored = dataclasses.replace(
        report, log=[report.log[0], dataclasses.replace(report.log[1], views=views)])
    assert any("disagrees with store" in v for v in audit(stores, params, [doctored]))

    # a slot that went on with fewer than t_r columns
    views = dict(report.log[1].views)
    views[1] = dict(list(views[1].items())[:params.t_r - 1])
    doctored = dataclasses.replace(
        report, log=[report.log[0], dataclasses.replace(report.log[1], views=views)])
    assert (f"client 0 round {report.log[1].round}: slot 1 proceeded on "
            f"{params.t_r - 1} columns") in audit(stores, params, [doctored])

    # columns outside 0..n-1 hold nothing, not even the proposal every real
    # column holds for the lone client
    proposal = next(iter(report.log[1].views[1].values()))
    for col in (params.n, -1):
        views = dict(report.log[1].views)
        views[1] = {**views[1], col: proposal}
        doctored = dataclasses.replace(
            report, log=[report.log[0], dataclasses.replace(report.log[1], views=views)])
        assert any(f"slot 1 column {col} disagrees with store" in v
                   for v in audit(stores, params, [doctored]))

    # a round number no slot key can spell names nothing in the stores
    doctored = dataclasses.replace(
        report, log=[report.log[0], dataclasses.replace(report.log[1], round=2**32)])
    assert any(v.startswith("client 0 round 4294967296: slot 1 column ")
               and v.endswith(" disagrees with store")
               for v in audit(stores, params, [doctored]))

    # a gossiped set with junk after it is not a set
    views = dict(report.log[1].views)
    col, value = next(iter(views[2].items()))
    views[2] = {**views[2], col: value + b"junk"}
    doctored = dataclasses.replace(
        report, log=[report.log[0], dataclasses.replace(report.log[1], views=views)])
    assert any("views do not replay (trailing bytes after set)" in v
               for v in audit(stores, params, [doctored]))

    # a second report claiming a different commit at an existing length
    rogue = dataclasses.replace(report.log[0], adopted=b"\x77" * 32,
                                proposed=b"\x77" * 32)
    fake = dataclasses.replace(report, client=9, log=[rogue])
    assert any("two committed histories" in v
               for v in audit(stores, params, [report, fake]))


def test_audit_reports_store_contents_it_cannot_parse():
    """Stores may hold what no client wrote: the audit names each key that
    is not a slot key and each slot value that does not decode, and audits
    the rest."""
    stores = [MemoryStore() for _ in range(3)]
    stores[0].write_read(b"foreign", b"x")
    stores[1].write_read(slot_key(1, 1), b"junk")
    assert audit(stores, qscod_params(3), []) == [
        f"store 0: key {b'foreign'.hex()} is not a slot key",
        "store 1 round 1 slot 1: value does not decode (truncated history head)",
    ]

    # every 5-byte key names a round and a slot, but only rounds from 1 and
    # slots 1-4 are slot keys; slot-2 and slot-4 values are grouped sets
    stores = [MemoryStore() for _ in range(3)]
    stores[0].write_read(slot_key(1, 9), b"x")
    stores[0].write_read(slot_key(0, 1), encode_history(GENESIS))
    stores[1].write_read(slot_key(1, 5), encode_grouped_set(()))
    stores[1].write_read(slot_key(2, 2), b"junk")
    stores[2].write_read(slot_key(7, 4), encode_grouped_set(()) + b"x")
    stores[2].write_read(slot_key(7, 2), encode_grouped_set(()))
    assert audit(stores, qscod_params(3), []) == [
        f"store 0: key {slot_key(1, 9).hex()} is not a slot key",
        f"store 0: key {slot_key(0, 1).hex()} is not a slot key",
        f"store 1: key {slot_key(1, 5).hex()} is not a slot key",
        "store 1 round 2 slot 2: value does not decode (truncated set entry)",
        "store 2 round 7 slot 4: value does not decode (trailing bytes after set)",
    ]

    params, stores, (report,), _ = race([[b"a", b"b"]], 20)
    stores[0].write_read(b"foreign", b"x")
    stores[2].write_read(slot_key(3, 3), b"junk")
    stores[1].write_read(slot_key(3, 2), b"junk")
    # a slot-3 value in the form written before: empty R1 and B1 sets
    # ahead of the candidate
    stores[1].write_read(slot_key(4, 3), encode_entry_set(()) * 2 + encode_history(GENESIS))
    assert audit(stores, params, [report]) == [
        f"store 0: key {b'foreign'.hex()} is not a slot key",
        "store 1 round 3 slot 2: value does not decode (truncated set entry)",
        "store 2 round 3 slot 3: value does not decode (truncated history head)",
        "store 1 round 4 slot 3: value does not decode (trailing bytes after history)",
    ]


def test_run_clients_reports_a_client_that_raises():
    stores = [MemoryStore() for _ in range(3)]
    params = qscod_params(3)
    # client 1's workload holds a message no proposal can carry
    reports, failed, _ = run_clients(stores, params, [[b"a"], ["not bytes"], [b"c"]], 200, 7)
    assert [r.client for r in reports] == [0, 2]
    assert [r.delivered for r in reports] == [[b"a"], [b"c"]]
    assert len(failed) == 1 and failed[0].startswith("client 1 raised ")
    assert audit(stores, params, reports) == []


def test_wait_cache_drops_answered_keys(pipe_stores):
    """Column 3's store process is stopped for two rounds and resumed before
    three more, each slot needing one pipe column: its late answers for the
    old rounds arrive while later slots wait, and enter no view."""
    late = []  # (round of the answered key, round in flight)

    class Late(PipeStore):
        def __init__(self, path):
            super().__init__(path)
            self.keys = deque()

        def send(self, key, value):
            super().send(key, value)
            self.keys.append(key)

        def receive(self):
            got = super().receive()
            late.append((int.from_bytes(self.keys.popleft()[:4], "big"), client.state.round))
            return got

    stores = [MemoryStore(), MemoryStore(), pipe_stores(), pipe_stores(Late)]
    params = qscod_params(4)
    assert params.t_r == 3
    stores[3].child.send_signal(signal.SIGSTOP)
    client = Client(0, stores, params, seed=8)
    try:
        first = client.run([b"a", b"b"], 20)
        stores[3].child.send_signal(signal.SIGCONT)
        select.select([stores[3].fileno()], [], [], 30)  # its first late answer is there
        second = client.run([b"c", b"d", b"e"], 20)
        during = list(late)
    finally:
        stores[3].child.send_signal(signal.SIGCONT)
        client.close()
    assert first.rounds == 2 and second.rounds == 3
    assert (1, 3) in during  # round 1's answer came while round 3 waited
    assert all(3 not in view for e in first.log for view in e.views.values())
    held = stores[0].snapshot()
    for e in second.log:
        for slot, view in e.views.items():
            assert view.get(3, held[slot_key(e.round, slot)]) == held[slot_key(e.round, slot)]
    assert stores[3].snapshot() == held  # every write landed
    assert audit(stores, params, [first, second]) == []


def _slot3_encodings():
    h = GENESIS.extend(Proposal(proposer=0, message=b"m", priority=9, prev=GENESIS.digest))
    return [encode_history(h), encode_history(GENESIS)]


def _flip(blob, at, mask):
    out = bytearray(blob)
    out[at % len(out)] ^= mask
    return bytes(out)


slot3_inputs = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda blob, cut: blob[:cut], st.sampled_from(_slot3_encodings()),
              st.integers(0, 400)),
    st.builds(_flip, st.sampled_from(_slot3_encodings()), st.integers(0, 400),
              st.integers(1, 255)),
)


@given(slot3_inputs)
def test_decode_slot3_fails_only_with_wire_error_and_stays_bounded(data):
    """A slot-3 value is a history: it decodes to no sets and what
    :func:`wire.history_bytes` reads, or fails with WireError alone, and
    the history memo stays bounded."""
    try:
        got = decode_slot3(data)
    except WireError:
        with pytest.raises(WireError):
            history_bytes(data)
    else:
        assert got == (frozenset(), frozenset(), history_bytes(data))
    assert len(history_memo) <= DECODE_MEMO_SIZE


def one_write(slot, value):
    """A round of one slot, which offers ``value`` and returns the columns
    the slot collected."""
    cols = yield slot, lambda: value
    return cols


@given(st.lists(st.tuples(
    st.sampled_from([(1, 1), (1, 2), (2, 4)]),
    st.one_of(st.sampled_from([b"", b"value", b"other" * 9]), st.binary(max_size=40)))))
@example([((1, 1), b"value"), ((1, 1), b"value"), ((1, 1), b"other"), ((2, 4), b"")])
def test_counting_store_bills_protocol_bytes(writes):
    """Each write is billed as its W request line plus the reply line the
    store server sends for the same writes: ``A`` while the key holds the
    offered value, ``V`` and the value it holds when it does not."""
    tally = ByteTally()
    cache = qscod.WaitCache([CountingStore(MemoryStore(), tally)], 1)
    for (rnd, slot), value in writes:
        cache.wait(rnd, one_write(slot, value))
    requests = [b"W %s %s\n" % (base64.b64encode(slot_key(*at)), base64.b64encode(value) or b"-")
                for at, value in writes]
    replies = io.BytesIO()
    serve(MemoryStore(), requests, replies)
    assert tally.ops == len(writes)
    assert tally.total == sum(map(len, requests)) + len(replies.getvalue())


def test_a_counting_store_is_a_plain_record():
    """A billed column holds its store and its tally and forwards nothing:
    it copies and pickles, and an attribute it lacks raises AttributeError."""
    store = CountingStore(MemoryStore(), ByteTally())
    copied = copy.copy(store)
    assert (copied.inner, copied.tally) == (store.inner, store.tally)
    assert pickle.loads(pickle.dumps(CountingStore(b"inner", b"tally"))) == (b"inner", b"tally")
    with pytest.raises(AttributeError):
        store.write_read


def lone_client_bill(tallies, seed=3):
    """A lone client's 20 messages on five memory stores, column ``i``
    billed to ``tallies[i]``; returns its rounds."""
    stores = [CountingStore(MemoryStore(), tally) for tally in tallies]
    client = Client(0, stores, qscod_params(5), seed)
    try:
        report = client.run([b"m%d" % k for k in range(20)], 40)
    finally:
        client.close()
    assert len(report.delivered) == 20
    return report.rounds


def test_columns_on_two_tallies_split_the_bill_exactly():
    """Columns 0-2 billed to one tally and 3-4 to another: each tally is
    billed its own columns' writes, and together they make the one-tally
    bill of the same run."""
    one = ByteTally()
    rounds = lone_client_bill([one] * 5)
    a, b = ByteTally(), ByteTally()
    assert lone_client_bill([a] * 3 + [b] * 2) == rounds
    assert (a.ops, b.ops) == (3 * 4 * rounds, 2 * 4 * rounds)
    assert a.total + b.total == one.total
    assert one.ops == 5 * 4 * rounds


def test_a_raising_column_bills_none_of_its_failed_writes():
    """A store that raises on every gossip write: the round proceeds on the
    other four columns, and the column is billed its won writes alone."""

    class NoGossip(MemoryStore):
        def write_read(self, key, value):
            if key[-1] in (2, 4):
                raise OSError("no gossip")
            return super().write_read(key, value)

    tally, flaky = ByteTally(), ByteTally()
    stores = [CountingStore(MemoryStore(), tally) for _ in range(4)]
    stores.append(CountingStore(NoGossip(), flaky))
    client = Client(0, stores, qscod_params(5), seed=3)
    try:
        report = client.run([b"m%d" % k for k in range(20)], 40)
    finally:
        client.close()
    assert len(report.delivered) == 20
    assert client.cache.columns[4].errors == 2 * report.rounds
    assert tally.ops == 4 * 4 * report.rounds
    assert flaky.ops == 2 * report.rounds
    held = stores[4].inner.snapshot()
    assert len(held) == flaky.ops
    assert flaky.total == sum(len(write_line(key, value)) + 2 for key, value in held.items())


def test_contending_clients_bill_every_write():
    """Three clients race on three memory stores billed to one tally, their
    threads switching as often as the interpreter lets them: every write
    each client makes is billed once, so no slot's bill is lost."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done, problems, dead, short, tally = run_workload(
            [MemoryStore() for _ in range(3)], qscod_params(3), 3, 5, 400, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert (problems, dead) == ([], [])
    assert len(done) == 3
    assert tally.ops == 4 * 3 * sum(r.rounds for r in done)


def test_lone_client_bill_is_its_logs_plus_one_ack_per_write(tmp_path):
    """A lone client wins every write it makes, so each is logged as its W
    request line and answered ``A`` and a newline."""
    raw = [FileStore(str(tmp_path / f"s{i}.log")) for i in range(5)]
    done, problems, dead, short, tally = run_workload(raw, qscod_params(5), 1, 20, 40, seed=3)
    for s in raw:
        s.close()
    assert (problems, dead, short) == ([], [], [])
    logs = [(tmp_path / f"s{i}.log").read_bytes() for i in range(5)]
    assert sum(log.count(b"\n") for log in logs) == tally.ops
    assert tally.total == sum(map(len, logs)) + 2 * tally.ops


@pytest.mark.parametrize("n", [4, 5])
def test_every_column_of_a_lone_client_logs_the_same_bytes(n, tmp_path):
    """A slot's one W line goes to every column, and a lone client wins
    every write, so its n logs are byte-identical."""
    raw = [FileStore(str(tmp_path / f"s{i}.log")) for i in range(n)]
    done, problems, dead, short, tally = run_workload(raw, qscod_params(n), 1, 20, 40, seed=3)
    for s in raw:
        s.close()
    assert (problems, dead, short) == ([], [], [])
    logs = {(tmp_path / f"s{i}.log").read_bytes() for i in range(n)}
    assert len(logs) == 1
    assert n * logs.pop().count(b"\n") == tally.ops
