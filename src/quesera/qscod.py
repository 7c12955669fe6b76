"""Client-driven consensus over passive write-once key-value stores.

The stores do all the arbitration: every round uses four keys per store
(slots), and because keys are write-once, the first client to reach a store
fixes that store's canonical value for the slot -- everyone else's write
turns into a read of the winner.  A round therefore produces one canonical
value matrix (stores x slots) no matter how many clients race, and each
client just runs the lottery arithmetic over the columns it managed to
collect:

    slot 1  the client's fresh proposal            -> row R1 (one per store)
    slot 2  the client's collected R1 columns      -> gossip; tally gives B1
    slot 3  the best of B1 (the step-2 candidate)  -> row R2
    slot 4  the collected R2 columns               -> gossip; tally gives B2

A gossip value (slots 2 and 4) is a grouped set
(:func:`wire.encode_grouped_set`): each distinct payload once, with the
columns that hold it, so a lone client's gossip carries its history once,
not t_r times.  A slot-3 value is the bare candidate, in slot 1's format
(:func:`wire.encode_history`): the stores keep every slot, so no R1 or B1
set rides along for a lagging client to catch up from.

Each slot pair is one step of a store-backed TLCB layer (:class:`StoreTlcb`),
so a client plays the very round the message-passing nodes play,
:func:`qsc.qsc_round`: it adopts the best history visible in R2 and the
lottery commits it when it appears in B2 and was uniquely best in R1.  The
client commits only when that history is its own proposal, because nobody
else will retry a foreign message.

Each client plays its rounds on its own thread (:class:`WaitCache`): a
slot is written to every store column and its first t_r answers go into
the round, so slots 2 and 4 gossip exactly t_r columns.  In-process stores
answer on the spot; store processes (:class:`kvstore.PipeStore`) answer
across pipes, one write in flight each, so a hung or dead store holds only
its own column, and a round proceeds on any t_r.  The client bills each
slot once, after its column loop, at the bytes the line protocol carries.

A lost proposal is proposed again in the next round, as a node proposes in
every round of the paper's QSC: the lottery, not the client, decides who
wins.  Delivery is at-least-once: a client that fails to observe its own
win retries, so a message can land in the chain twice; it can never be lost.
"""

from __future__ import annotations

import argparse
import functools
import os
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Iterable, NamedTuple, Optional

from .chain import ChainError, History, Proposal
from .kvstore import FileStore, MemoryStore, PipeStore, ProtocolError, reply, write_line
from .netsim import check_seed, configure, mix64
from .qsc import QscState, check_one_chain, qsc_round
from .tlcb import gather
from .tlcr import ConfigError
from .tsb import Thresholds, TsbResult
from .wire import EntrySet, WireError, encode_grouped_set, grouped_set_bytes, history_bytes

_S_PRIORITY = 101

WAIT_TIMEOUT = 60.0  # seconds a round may wait on store processes


_SLOT_KEY = struct.Struct(">IB")  # written by slot_key, read by audit


def slot_key(rnd: int, slot: int) -> bytes:
    """Big-endian ``(round, slot)``, so byte order of keys is the order in
    which a client uses them."""
    return _SLOT_KEY.pack(rnd, slot)


def decode_slot3(data: bytes) -> tuple[EntrySet, EntrySet, History]:
    """A slot-3 value as the triple it once decoded to: no sets, and the
    candidate.  Only ``bench/run.py`` calls it, until a benchmark-only
    change reads slot 3 with :func:`wire.history_bytes`."""
    return frozenset(), frozenset(), history_bytes(data)


def qscod_params(n: int) -> Thresholds:
    """Thresholds over n store columns with f = n // 3: the admission and
    defaults of the stack table's qsc-tlcb row, whose round QSCOD runs."""
    return configure("qsc-tlcb", n, n // 3)


class CountingStore(NamedTuple):
    """A store column billed to ``tally``: :class:`WaitCache` writes to
    ``inner`` and bills each answered write to ``tally`` (:func:`_bill`)."""

    inner: object
    tally: "ByteTally"


class ByteTally:
    """Protocol bytes billed, and the writes they pay for."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = self.ops = 0

    def add(self, total: int, ops: int = 1) -> None:
        with self._lock:
            self.total += total
            self.ops += ops


def _bill(key: bytes, value: bytes, answers) -> int:
    """Bytes of writing ``value`` to ``key`` once per answer: each a ``W``
    line and a reply, :func:`kvstore.write_line` and :func:`kvstore.reply`."""
    line, won, total = len(write_line(key, value)), len(reply(value, value)), 0
    for got in answers:  # the offered value's reply, ``A``, is encoded once
        total += line + (won if got is value else len(reply(got, value)))
    return total


class WaitCache:
    """Plays a client's rounds over its store :attr:`columns`, on the calling
    thread.  A round is a generator yielding ``(slot, offer)`` and sent each
    slot's first ``need`` columns.  A slot's write is queued on every pipe
    column, written to the in-process columns in column order, and the
    pipes are waited on until the slot has its columns.  A pipe column has
    one write in flight, registered with the selector, and queues the rest:
    its store sees them in submit order, and a stopped store process never
    fills its pipe.  Answers for other keys, or beyond ``need``, are dropped.
    Answered writes are billed to their column's tally, if it has one: a
    slot's in-process columns once per tally, a pipe's writes as answered."""

    def __init__(self, stores, need: int) -> None:
        self._need = need
        self.columns = [_Driver(i, s) for i, s in enumerate(stores)]
        self._inline = [c for c in self.columns if not getattr(c.store, "piped", False)]
        self._pipes = [c for c in self.columns if c not in self._inline]
        self._unbilled = {c.tally: [] for c in self._inline if c.tally is not None}
        self._key, self._cols = b"", {}  # the slot being collected, its columns
        if self._pipes:
            import selectors

            self._selector = selectors.DefaultSelector()

    def wait(self, rnd: int, offers: Generator):
        """Play round ``rnd``, whose slots ``offers`` yields, and return what
        it returns or raise what it raises.  A slot short of its columns
        :data:`WAIT_TIMEOUT` seconds into the round, or once no pipe column
        can still answer, raises a TimeoutError naming its key and its
        columns."""
        deadline, need = time.monotonic() + WAIT_TIMEOUT, self._need
        cols = None
        while True:
            try:
                slot, offer = offers.send(cols)
            except StopIteration as stop:
                return stop.value
            key, value, cols = slot_key(rnd, slot), offer(), {}
            self._key, self._cols = key, cols
            for c in self._pipes:
                c.commands.append((key, value))
                self._send(c)
            for c in self._inline:
                got = c.run(key, value)
                if got is not None and len(cols) < need:
                    cols[c.column] = got
                if got is not None and c.tally is not None:
                    self._unbilled[c.tally].append(got)
            for tally, answers in self._unbilled.items():
                tally.add(_bill(key, value, answers), len(answers))
                answers.clear()
            self._collect(deadline)
            if len(cols) < need:
                raise TimeoutError(f"{len(cols)}/{need} columns answered for {key.hex()}")

    def _collect(self, deadline: float) -> None:
        """Take pipe answers until the slot has its columns, the deadline
        passes or no write is in flight; then take those already there."""
        while self._pipes and self._selector.get_map():
            short = len(self._cols) < self._need
            ready = self._selector.select(deadline - time.monotonic() if short else 0)
            if not ready:
                return
            for event, _ in ready:
                self._receive(event.data)

    def _send(self, c: "_Driver") -> None:
        """Send pipe column ``c``'s first queued write unless one is in
        flight; a write that raises is dropped, and the next one tried."""
        inflight = self._selector.get_map()
        while c.commands and c.store not in inflight:
            try:
                c.store.send(*c.commands[0])
            except Exception as exc:
                c.failed(exc)
                c.commands.popleft()
            else:
                self._selector.register(c.store, 1, c)  # selectors.EVENT_READ

    def _receive(self, c: "_Driver") -> None:
        self._selector.unregister(c.store)
        key, value = c.commands.popleft()
        try:
            got = c.store.receive()
        except Exception as exc:
            c.failed(exc)
        else:
            if c.tally is not None:
                c.tally.add(_bill(key, value, (got,)))
            if key == self._key and len(self._cols) < self._need:
                self._cols[c.column] = got
        self._send(c)

    def close(self) -> None:
        """Let the pipe columns perform every queued write, for up to
        :data:`WAIT_TIMEOUT` seconds."""
        self._key, self._cols = b"", {}  # no key: short until nothing is in flight
        self._collect(time.monotonic() + WAIT_TIMEOUT)
        if self._pipes:
            self._selector.close()


class _Driver:
    """One store column: its bare store and the tally billing it, or None;
    its failed operations, counted and the last one kept; a pipe's write FIFO."""

    def __init__(self, column: int, store):
        self.column = column
        self.store, self.tally = store if isinstance(store, CountingStore) else (store, None)
        self.commands: deque[tuple[bytes, bytes]] = deque()
        self.errors = 0
        self.last_error: Optional[Exception] = None

    def run(self, key: bytes, value: bytes) -> Optional[bytes]:
        """One write to an in-process store: the value ``key`` holds, or None."""
        try:
            return self.store.write_read(key, value)
        except Exception as exc:  # the client proceeds on the others
            self.failed(exc)
            return None

    def failed(self, exc: Exception) -> None:
        self.errors, self.last_error = self.errors + 1, exc


# --- the round -----------------------------------------------------------------


class StoreTlcb:
    """A :class:`tlcb.Tlcb` step over store columns, for one round of one
    client; make a fresh one per round.  Its k-th broadcast (k = 0, 1)
    writes its message to slot 2k+1, takes the columns collected there as
    its R row, gossips that row as a grouped set
    (:func:`wire.encode_grouped_set`) in slot 2k+2, and returns the step's
    R and B, gathered as :class:`tlcb.Tlcb` gathers them.  Each slot is
    yielded as ``(slot, offer)``, where ``offer()`` encodes the value to
    write, so a replay that already holds the columns encodes nothing; the
    columns sent back for each slot are kept as the round's ``views``."""

    def __init__(self, t_s: int):
        self.t_s = t_s
        self.views: dict[int, dict[int, bytes]] = {}  # slot -> column -> value

    def broadcast(self, m: bytes):
        slot = len(self.views) + 1
        row = self.views[slot] = yield slot, lambda: m
        gossip = self.views[slot + 1] = yield slot + 1, functools.partial(
            encode_grouped_set, row.items())
        sets = [grouped_set_bytes(value) for value in gossip.values()]
        return TsbResult(*gather(row.items(), sets, self.t_s))


@dataclass
class RoundLog:
    """What one client saw and decided in one round (audit input)."""

    round: int
    message: bytes
    proposed: bytes  # digest of the client's proposal for the round
    adopted: bytes
    length: int
    committed: bool
    views: dict[int, dict[int, bytes]] = field(default_factory=dict)  # slot -> col -> value


@dataclass
class ClientReport:
    client: int
    rounds: int
    commits: int
    delivered: list[bytes] = field(default_factory=list)
    log: list[RoundLog] = field(default_factory=list)


class Client:
    """One consensus client; drives its stores until its workload lands."""

    def __init__(self, client_id: int, stores, params: Thresholds, seed: int):
        if len(stores) != params.n:
            raise ValueError("one store per column expected")
        self.id = client_id
        self.params = params
        self.seed = seed
        self.cache = WaitCache(stores, params.t_r)
        # no threads to join: kept only for bench/run.py's stop_clients,
        # until the benchmark-only change that drops that call deletes it
        self.drivers = ()
        self.state = QscState(node=0)

    def close(self) -> None:
        """:meth:`WaitCache.close`; the caller closes the stores."""
        self.cache.close()

    # -- round machinery --

    def run_round(self, message: bytes, priority: int) -> RoundLog:
        """Play one round of :func:`qsc.qsc_round` over a fresh
        :class:`StoreTlcb`, committing only the client's own proposal."""
        layer = StoreTlcb(self.params.t_s)
        mine: list[bytes] = []
        chosen, committed = self.cache.wait(self.state.round + 1, qsc_round(
            self.state, layer, message, priority, on_propose=lambda _, h: mine.append(h.digest)))
        return RoundLog(round=self.state.round, message=message, proposed=mine[0],
                        adopted=chosen.digest, length=chosen.length,
                        committed=committed and chosen.digest == mine[0], views=layer.views)

    def run(self, messages: Iterable[bytes], max_rounds: int) -> ClientReport:
        """Push a workload through in order: each round proposes the first
        undelivered message, until it commits, with the priority
        ``mix64(seed, _S_PRIORITY, id, round)``.  Stops once every message
        is delivered or ``max_rounds`` rounds are played."""
        report = ClientReport(client=self.id, rounds=0, commits=0)
        pending = deque(messages)
        while pending and report.rounds < max_rounds:
            priority = mix64(self.seed, _S_PRIORITY, self.id, self.state.round + 1)
            entry = self.run_round(pending[0], priority)
            report.rounds += 1
            report.log.append(entry)
            if entry.committed:
                report.commits += 1
                report.delivered.append(pending.popleft())
        return report


def run_clients(
    stores, params: Thresholds, workloads: list[list[bytes]], max_rounds: int, seed: int
) -> tuple[list[ClientReport], list[str], list[str]]:
    """Race one client per workload over the shared stores, each on its own
    thread and seeded ``mix64(seed, client)``, then close them.

    Returns the reports of the clients that finished, in client order; one
    line per client that raised instead, naming it and its exception; and
    one line per store column whose operations raised, with their count over
    all clients and the last exception."""
    clients = [Client(cid, stores, params, mix64(seed, cid)) for cid in range(len(workloads))]
    reports: dict[int, ClientReport] = {}
    failed: dict[int, str] = {}

    def drive(cid: int) -> None:
        try:
            reports[cid] = clients[cid].run(workloads[cid], max_rounds)
        except Exception as exc:  # reported to the caller, never dropped
            failed[cid] = f"client {cid} raised {exc!r}"

    threads = [threading.Thread(target=drive, args=(cid,)) for cid in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in clients:
        c.close()
    dead = []
    for column in range(params.n):
        raised = [c.cache.columns[column] for c in clients if c.cache.columns[column].errors]
        if raised:
            dead.append(f"column {column}: {sum(d.errors for d in raised)} store "
                        f"operations raised, last {raised[-1].last_error!r}")
    return ([reports[cid] for cid in sorted(reports)],
            [failed[cid] for cid in sorted(failed)], dead)


def run_workload(
    raw, params: Thresholds, clients: int, messages: int, max_rounds: int, seed: int
) -> tuple[list[ClientReport], list[str], list[str], list[str], ByteTally]:
    """:func:`run_clients` for ``clients`` workloads of ``messages`` messages
    (``c<client>-m<k>``) over the ``raw`` stores, billed to one tally, then
    :func:`audit`.  Returns the finished clients' reports, the problems
    (clients that raised, then audit findings), the dead columns, one line
    per finished client that ran out of rounds with messages undelivered,
    and the tally."""
    tally = ByteTally()
    stores = [CountingStore(s, tally) for s in raw]
    workloads = [[b"c%d-m%d" % (cid, k) for k in range(messages)] for cid in range(clients)]
    done, failed, dead = run_clients(stores, params, workloads, max_rounds, seed)
    short = [f"client {r.client}: {messages - len(r.delivered)} of {messages} messages "
             f"undelivered after {r.rounds} rounds"
             for r in done if len(r.delivered) < messages]
    return done, failed + audit(raw, params, done), dead, short, tally


# --- audit ------------------------------------------------------------------


def _slot_history(slot: int, value: bytes) -> Optional[History]:
    """Decode one slot value: the history a slot-1 or slot-3 value holds,
    or None for a gossip set, which holds none of its own."""
    if slot in (1, 3):
        return history_bytes(value)
    grouped_set_bytes(value)
    return None


def audit(stores, params: Thresholds, reports: Iterable[ClientReport]) -> list[str]:
    """Replay the decision arithmetic of every logged round against the
    canonical store contents.  Deterministic given the final stores; returns
    violation strings (empty list = clean).

    Checks per round log: collected columns match the stores exactly and meet
    t_r, the tallies and adoption recompute to the logged values, and the
    commit rule held.  Across clients: all committed histories lie on one
    chain, checked by walking prev digests through the proposals the stores
    themselves hold.

    The stores are audited round by round, each round's logs replayed
    right after its store values are decoded, so the decode memos still
    hold every value the replay meets and each distinct value is decoded
    once.  Findings follow that order: keys that are not slot keys, store
    by store; then per round its undecodable values, store by store and
    slot by slot, and its logs' findings.
    """
    bad: list[str] = []
    bodies: dict[bytes, Proposal] = {}
    snapshots = [store.snapshot() for store in stores]
    rounds: set[int] = set()  # the rounds some store holds a slot key of
    for col, snapshot in enumerate(snapshots):
        for key in snapshot:
            # a store may hold what no client wrote: a finding, not a crash
            try:
                rnd, slot = _SLOT_KEY.unpack(key)
            except struct.error:
                rnd = slot = 0
            if rnd == 0 or not 1 <= slot <= 4:
                bad.append(f"store {col}: key {key.hex()} is not a slot key")
            else:
                rounds.add(rnd)
    logs: dict[int, list[tuple[int, RoundLog]]] = {}  # round -> (client, log)
    for report in reports:
        for entry in report.log:
            logs.setdefault(entry.round, []).append((report.client, entry))

    for rnd in sorted(rounds | logs.keys()):
        keys = [slot_key(rnd, slot) for slot in range(1, 5)] if rnd in rounds else []
        for col, snapshot in enumerate(snapshots):
            for slot, key in enumerate(keys, 1):
                if key not in snapshot:
                    continue
                try:
                    h = _slot_history(slot, snapshot[key])
                except WireError as exc:
                    bad.append(f"store {col} round {rnd} slot {slot}: "
                               f"value does not decode ({exc})")
                    continue
                if h is not None and h.head is not None:
                    bodies[h.digest] = h.head

        for client, entry in logs.get(rnd, ()):
            tag = f"client {client} round {entry.round}"
            for slot, cols in entry.views.items():
                if len(cols) < params.t_r:
                    bad.append(f"{tag}: slot {slot} proceeded on {len(cols)} columns")
                try:
                    key = slot_key(entry.round, slot)
                except struct.error:
                    key = None  # no store holds a key outside the format
                for col, value in cols.items():
                    want = snapshots[col].get(key) if 0 <= col < len(snapshots) else None
                    if want != value:
                        bad.append(f"{tag}: slot {slot} column {col} disagrees with store")
            # recompute the decision from the logged views; logs are evidence
            # from an untrusted party, so garbage is a finding, not a crash;
            # the replay's own proposal is never offered, so it is a blank
            replay = qsc_round(QscState(node=0), StoreTlcb(params.t_s), b"", 0)
            try:
                slot, _ = next(replay)
                while True:
                    slot, _ = replay.send(entry.views[slot])
            except StopIteration as stop:
                chosen, committed = stop.value
            except (WireError, ChainError, KeyError) as exc:
                bad.append(f"{tag}: views do not replay ({exc})")
                continue
            should_commit = committed and chosen.digest == entry.proposed
            if chosen.digest != entry.adopted:
                bad.append(f"{tag}: adopted {entry.adopted.hex()[:12]} but views say "
                           f"{chosen.digest.hex()[:12]}")
            if should_commit != entry.committed:
                bad.append(f"{tag}: committed={entry.committed} but views say {should_commit}")

    commits = (
        (f"client {report.client}", entry.length, entry.adopted)
        for report in reports
        for entry in report.log
        if entry.committed
    )
    return bad + check_one_chain(commits, bodies.get)


# --- command line ------------------------------------------------------------


def _store_paths(template: str, n: int) -> list[str]:
    """The log path of each of n columns, ``template`` formatted with
    ``i=column``.  Raises ValueError naming the template if it does not
    format, or if two columns would share a log, whose replay would hand
    each one the other's writes."""
    try:
        paths = [template.format(i=i) for i in range(n)]
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
        raise ValueError(f"--path-template {template!r} does not format: {exc!r}") from exc
    if len({os.path.abspath(p) for p in paths}) < n:
        raise ValueError(f"--path-template {template!r} gives two columns one log; "
                         "put '{i}' in it")
    return paths


def budget(text: str) -> int:
    """argparse type of a count a run spends: an int, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qscod",
        description="Run contending consensus clients against write-once stores "
        "and report deliveries, commits and protocol bytes.",
    )
    parser.add_argument("--stores", type=int, default=3, help="store count n")
    parser.add_argument("--clients", type=budget, default=2)
    parser.add_argument("--messages", type=budget, default=4, help="workload per client")
    parser.add_argument("--rounds", type=budget, default=200, help="round budget per client")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--backend", choices=("memory", "file", "process"), default="memory",
                        help="process: one store process per column, on pipes")
    parser.add_argument("--path-template", default="qscod-store-{i}.log",
                        help="file or process backend log per store, '{i}' expands to the column")
    args = parser.parse_args(argv)

    try:
        params = qscod_params(args.stores)
        check_seed(args.seed)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if args.backend == "process" and args.clients > 1:
        parser.error("--backend process takes one client: a store process answers one pipe")
    raw: list = []
    try:  # closes every store opened, also when a later one fails to open
        if args.backend == "memory":
            raw += (MemoryStore() for _ in range(args.stores))
        else:
            make = FileStore if args.backend == "file" else PipeStore
            try:
                for path in _store_paths(args.path_template, args.stores):
                    raw.append(make(path))
            except (OSError, ValueError, ProtocolError) as exc:
                parser.exit(2, f"{parser.prog}: error: {exc}\n")
        done, problems, dead, short, tally = run_workload(
            raw, params, args.clients, args.messages, args.rounds, args.seed)
    finally:
        for s in raw:
            s.close()
    for report in done:
        print(f"client={report.client} rounds={report.rounds} commits={report.commits} "
              f"delivered={len(report.delivered)}")
    agreements = max(1, sum(r.commits for r in done))
    print(f"total stores={args.stores} clients={args.clients} "
          f"delivered={sum(len(r.delivered) for r in done)} "
          f"bytes={tally.total} bytes_per_agreement={tally.total // agreements} "
          f"audit={'ok' if not problems else 'FAIL'}")
    for line in dead + short:
        print(line)
    for p in problems:
        print(f"audit: {p}")
    return 1 if problems or short else 0


if __name__ == "__main__":
    raise SystemExit(main())
