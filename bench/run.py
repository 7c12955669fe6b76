"""quesera benchmark: simulator throughput, QSCOD delivery latency, and
per-layer costs, driven through the package's public API from outside it.

Usage (from the repository root)::

    python3 bench/run.py --workload sim-gossip --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke              # every workload, tiny, both modes
    python3 bench/run.py --write-golden       # re-baseline bench/golden.json

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with nothing
wrapped.  ``--trace 1`` first repeats the untraced measurement for half the
time, then runs one fixed batch of the workload under :mod:`tracer` and
reports the per-layer metrics, with the traced-vs-untraced throughput
difference as ``trace_overhead``.  Both modes check every output (golden
``Metrics.line()`` digests, validators, the QSCOD audit, every delivery) and
print, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
The full result, with provenance, goes to ``bench/out/``; so do the spans of
a traced run.  The exit code is 0 only when every check passed.  Every
workload but the contended QSCOD one runs on a single CPU (see
:func:`pin_cpu`).

Every time is scaled to reference time: it reads as it would on a CPU that
runs a fixed reference kernel in ``calib.REFERENCE_S`` (see calib.py), so
that the speed of the shared host at the moment of a run does not move the
figures.  The unscaled figures and the kernel's times are in the
provenance.

The seed picks the inputs: for the simulator workloads, which of the golden
simulation seeds form the batch; for QSCOD, the clients' lottery seeds.
Which per-layer metric should move which end-to-end metric, on which
workload, is recorded in ``bench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calib
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

WALL = time.perf_counter
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def load_quesera() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, never from anywhere
    else on the path."""
    if not (SRC / "quesera" / "__init__.py").is_file():
        raise ImportError(f"no quesera sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quesera
    from quesera import chain, cli, kvstore, netsim, qsc, qscod, tlcb, tlcf, tlcr, tlcw, tsb, wire

    if Path(quesera.__file__).resolve().parent != (SRC / "quesera").resolve():
        raise ImportError(f"quesera imported from {quesera.__file__}, not from {SRC}")
    return SimpleNamespace(
        quesera=quesera, chain=chain, cli=cli, kvstore=kvstore, netsim=netsim, qsc=qsc,
        qscod=qscod, tlcb=tlcb, tlcf=tlcf, tlcr=tlcr, tlcw=tlcw, tsb=tsb, wire=wire,
    )


# --- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """A batch of ``pool`` simulations drawn from the golden seeds, replayed
    pass after pass until the time is up."""

    name: str
    layer: str
    n: int
    f: int
    rounds: int
    delay: str
    trace_level: str
    crash: bool  # one crash per seed, alternating before/after the send
    panel: bool  # full cli.validate_trace panel inside the timed part
    pool: int = 12


@dataclass(frozen=True)
class QscodWorkload:
    """Closed-loop QSCOD clients: each submits one message per
    ``Client.run([msg], budget)`` call, the next only after the last one was
    delivered.  An epoch opens fresh stores and clients, delivers
    ``epoch_messages`` per client, then audits; epochs repeat until the time
    is up, so memory does not grow with throughput."""

    name: str
    stores: int
    clients: int
    backend: str
    epoch_messages: int
    budget: int = 1000  # rounds per Client.run call


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("sim-gossip", "qsc-tlcb", n=7, f=2, rounds=20, delay="random",
                    trace_level="light", crash=False, panel=False, pool=16),
        SimWorkload("sim-witness-faults", "qsc-tlcf", n=5, f=2, rounds=20,
                    delay="adversarial", trace_level="full", crash=True, panel=True, pool=72),
        QscodWorkload("qscod-solo-file", stores=5, clients=1, backend="file",
                      epoch_messages=1000),
        # Not in BENCHMARK.json: a client that falls one round behind loses
        # every write-once race until the other client stops, so a few
        # messages in a run of 1000-message epochs miss their 1000-round
        # budget and the run fails its check.  --smoke runs it, like every
        # workload, at 20 messages per epoch to check its metrics and that
        # some writes are lost; at that size the other client stops before
        # a starved client's budget runs out, so only a full-size run
        # (--workload qscod-contended) shows the starvation.
        QscodWorkload("qscod-contended", stores=3, clients=2, backend="memory",
                      epoch_messages=1000),
    )
}

GOLDEN_SEEDS = 256  # simulation seeds 0..255 of each sim workload have golden digests
PROBE_UNITS = 3  # configs the determinism probe replays under other hash seeds
SETUP_REPEATS = 15

SPAN_NAMES = (
    "bench.unit", "bench.message", "netsim.run", "qsc.round", "tlcr", "tlcb", "tlcw",
    "tlcf", "qscod.run_round", "qsc.check_consensus", "tsb.validate_layer",
    "tsb.validate_transport", "qscod.audit",
)


def sim_config(q, w: SimWorkload, sim_seed: int):
    crashes = ()
    if w.crash:
        # qsc-tlcf spends four wire steps per round: crash somewhere in the
        # first three quarters of the run
        step = random.Random(sim_seed).randrange(2, 3 * w.rounds)
        crashes = ((sim_seed % w.n, step, ("before", "after")[sim_seed % 2]),)
    return q.netsim.SimConfig(
        layer=w.layer, n=w.n, f=w.f, seed=sim_seed, rounds=w.rounds, delay=w.delay,
        trace_level=w.trace_level, crashes=crashes,
    )


def sim_pool(q, w: SimWorkload, seed: int, size: int | None = None) -> list:
    """The batch for ``seed``: a seed-shuffled prefix of the golden seeds."""
    seeds = list(range(GOLDEN_SEEDS))
    random.Random(seed).shuffle(seeds)
    return [sim_config(q, w, s) for s in seeds[: w.pool if size is None else size]]


# --- helpers -------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import quesera.cli, quesera.qscod; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60, cwd=ROOT)
    return float(out.stdout.strip())


class Checks:
    """Operations attempted and failed, plus every problem found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(what)
        elif len(self.problems) == 50:
            self.problems.append("... more problems not listed")


# --- tracing -------------------------------------------------------------------


def install_tracer(tr: Tracer, q) -> None:
    """Wrap the public functions of every layer module (see tracer.py)."""
    mods = [q.quesera, q.chain, q.wire, q.tsb, q.tlcr, q.tlcb, q.tlcw, q.tlcf, q.qsc,
            q.netsim, q.kvstore, q.qscod, q.cli]

    def fn(name, original, **kw):
        tr.patch_everywhere(mods, original, tr.wrap(name, original, **kw))

    fn("chain.best_in", q.chain.best_in)
    fn("chain.uniquely_best_in", q.chain.uniquely_best_in)
    fn("chain.decode_proposal", q.chain.decode_proposal)
    fn("wire.encode_step_message", q.wire.encode_step_message,
       after=lambda frame, msg: tr.count("wire.encode_step_message.bytes", len(frame)))
    fn("wire.encode_entry_set", q.wire.encode_entry_set)
    fn("wire.decode_entry_set", q.wire.decode_entry_set)
    fn("wire.decode_history", q.wire.decode_history)
    fn("tsb.validate_layer", q.tsb.validate_layer)
    fn("tsb.validate_layer", q.tsb.validate_substeps)  # the layer-over-layer step check
    fn("tsb.validate_transport", q.tsb.validate_fifo)
    fn("tsb.validate_transport", q.tsb.validate_delivery)
    fn("qsc.check_consensus", q.qsc.check_consensus)
    fn("qscod.audit", q.qscod.audit)

    def round_request(state, *_):
        return (tr.sim.seed if tr.sim is not None else None, state.node, state.round + 1)

    tr.patch_everywhere(mods, q.qsc.qsc_round,
                        tr.wrap_gen("qsc.round", q.qsc.qsc_round, request=round_request))
    for cls, name in ((q.tlcr.Tlcr, "tlcr"), (q.tlcb.Tlcb, "tlcb"), (q.tlcw.Tlcw, "tlcw"),
                      (q.tlcf.Tlcf, "tlcf")):
        tr.patch(cls, "broadcast", tr.wrap_gen(name, cls.broadcast))

    sim = q.netsim.Simulator
    for cls in (q.netsim.FixedDelay, q.netsim.RandomDelay, q.netsim.AdversarialDelay):
        tr.patch(cls, "delay", tr.wrap("netsim.delay", cls.delay))

    def count_frame(_, _sim, sender, dest, msg, size):
        lane = "r" if msg.layer == "r" else f"w.{msg.kind}"
        tr.count(f"frames.{lane}")
        tr.count(f"bytes.{lane}", size)
        tr.count("xmit.bytes", size)
        # layer, kind, flags, sender, step and the payload's length prefix
        # take 15 bytes; everything past the payload is piggybacked sets
        tr.count("xmit.piggyback_bytes", size - 15 - len(msg.payload))

    tr.patch(sim, "xmit", tr.wrap("netsim.xmit", sim.xmit, after=count_frame))

    for attr in ("rec_send", "rec_ret"):
        original = getattr(sim, attr)
        traced = tr.wrap("netsim.record", original)

        # a light trace records nothing, so its recorder calls are not recording
        def record(self, *args, _original=original, _traced=traced):
            return (_original if self.level == "light" else _traced)(self, *args)

        tr.patch(sim, attr, record)

    run = sim.run

    def sim_run(self):
        tr.sim = self
        frame = tr.open("netsim.run", (self.seed,))
        try:
            return run(self)
        finally:
            tr.close(frame)
            tr.sim = None
            t = self.trace
            tr.count("tsb.trace_records", len(t.sends) + len(t.rets) + len(t.xmits)
                     + len(t.dlvrs) + len(t.adopts) + len(t.deliveries) + len(t.proposals))

    tr.patch(sim, "run", sim_run)

    tr.patch(q.qscod.Client, "run_round", tr.wrap("qscod.run_round", q.qscod.Client.run_round))
    tr.patch(q.qscod._Driver, "run", tr.wrap("qscod.driver", q.qscod._Driver.run))
    wait = tr.wrap("qscod.slot_wait", q.qscod.WaitCache.wait)

    def slot_wait(self, *args, **kwargs):
        t0 = WALL()
        try:
            return wait(self, *args, **kwargs)
        finally:
            tr.sample("qscod.slot_wait", WALL() - t0)

    tr.patch(q.qscod.WaitCache, "wait", slot_wait)

    def count_write(got, _store, _key, value):
        tr.count("kvstore.attempts")
        tr.count("kvstore.won", got is value)  # a won key holds the offered object

    store = q.kvstore._Store
    tr.patch(store, "write_read", tr.wrap("kvstore.write_read", store.write_read, after=count_write))


# traced names whose self time some per-layer metric reports (as self_s, or
# inside busy_s)
REPORTED = frozenset((
    "chain.best_in", "chain.uniquely_best_in", "chain.decode_proposal",
    "wire.encode_step_message", "wire.encode_entry_set", "wire.decode_entry_set",
    "wire.decode_history", "tlcr", "tlcb", "tlcw", "tlcf", "qsc.round", "netsim.xmit",
    "netsim.delay", "netsim.record", "netsim.run", "tsb.validate_layer",
    "tsb.validate_transport", "qsc.check_consensus", "kvstore.write_read",
    "qscod.run_round", "qscod.audit",
))


def layer_metrics(tr: Tracer, overhead: float, rounds: int = 0, delivered: int = 0,
                  backoff: int = 0) -> dict:
    """Per-layer metrics of BENCHMARK.json from one traced batch.  QSCOD
    passes its round, delivery and back-off counts from the client reports."""
    st, c, s = tr.stats(), tr.counts(), tr.samples()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def busy(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    m = {
        "chain.best_in.calls": (calls("chain.best_in"), "count"),
        "chain.best_in.busy_s": (busy("chain.best_in"), "s"),
        "chain.uniquely_best_in.busy_s": (busy("chain.uniquely_best_in"), "s"),
        "chain.decode_proposal.calls": (calls("chain.decode_proposal"), "count"),
        "chain.decode_proposal.busy_s": (busy("chain.decode_proposal"), "s"),
        "chain.decodes_per_proposal": (
            ratio(calls("chain.decode_proposal"), calls("qsc.round") + calls("qscod.run_round")),
            "ratio"),
        "wire.piggyback_share": (ratio(c["xmit.piggyback_bytes"], c["xmit.bytes"]), "ratio"),
        "wire.encode_step_message.bytes": (c["wire.encode_step_message.bytes"], "B"),
        "tlcr.frames": (c["frames.r"], "count"),
        "tlcr.bytes": (c["bytes.r"], "B"),
        "qsc.rounds": (calls("qsc.round"), "count"),
        "qsc.self_s": (self_s("qsc.round"), "s"),
        "qsc.round_vt_p50": (percentile(s["qsc.round.vt"], 50), "vt"),
        "qsc.round_vt_p99": (percentile(s["qsc.round.vt"], 99), "vt"),
        "netsim.xmit.calls": (calls("netsim.xmit"), "count"),
        "netsim.xmit.self_s": (self_s("netsim.xmit"), "s"),
        "netsim.delay.calls": (calls("netsim.delay"), "count"),
        "netsim.delay.busy_s": (busy("netsim.delay"), "s"),
        "netsim.record.busy_s": (busy("netsim.record"), "s"),
        "netsim.scheduler_self_s": (self_s("netsim.run"), "s"),
        "tsb.validate_layer.busy_s": (busy("tsb.validate_layer"), "s"),
        "tsb.validate_transport.busy_s": (busy("tsb.validate_transport"), "s"),
        "tsb.trace_records": (c["tsb.trace_records"], "count"),
        "qsc.check_consensus.busy_s": (busy("qsc.check_consensus"), "s"),
        "kvstore.write_read.calls": (calls("kvstore.write_read"), "count"),
        "kvstore.write_read.busy_s": (busy("kvstore.write_read"), "s"),
        "kvstore.won_share": (ratio(c["kvstore.won"], c["kvstore.attempts"]), "ratio"),
        "qscod.run_round.self_s": (self_s("qscod.run_round"), "s"),
        "qscod.slot_wait_ms_p50": (percentile(s["qscod.slot_wait"], 50) * 1e3, "ms"),
        "qscod.slot_wait_s": (sum(s["qscod.slot_wait"]), "s"),
        "qscod.rounds_per_delivery": (ratio(rounds, delivered), "ratio"),
        "qscod.backoff_rounds": (backoff, "count"),
        "qscod.audit.busy_s": (busy("qscod.audit"), "s"),
        # traced CPU that no metric above covers: the benchmark's own loops,
        # the store drivers, slot waits, and anything wrapped but not reported
        "unattributed_s": (sum(row[1] for name, row in st.items() if name not in REPORTED), "s"),
        "trace_overhead": (overhead, "ratio"),
    }
    for name in ("wire.encode_step_message", "wire.encode_entry_set", "wire.decode_entry_set",
                 "wire.decode_history"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    for layer in ("tlcr", "tlcb", "tlcw", "tlcf"):
        m[f"{layer}.steps"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.step_vt_p50"] = (percentile(s[f"{layer}.vt"], 50), "vt")
    for kind, tag in (("req", "q"), ("ack", "a"), ("wit", "w")):
        m[f"tlcw.frames.{kind}"] = (c[f"frames.w.{tag}"], "count")
        m[f"tlcw.bytes.{kind}"] = (c[f"bytes.w.{tag}"], "B")
    return m


def traced_cpu_share(tr: Tracer, name: str) -> float:
    st = tr.stats()
    return ratio(st.get(name, (0, 0.0, 0.0))[2], sum(row[1] for row in st.values()))


# --- simulator workloads ---------------------------------------------------------


class RoundHook:
    """Wraps ``netsim.run_qsc_node`` to timestamp every node's rounds: the
    wall time from proposing to committing (the simulator's delivery
    latency), and the virtual time each round took."""

    def __init__(self, q) -> None:
        self.q = q
        self.commit_s: list[float] = []
        self.vt: list[int] = []
        self._original = q.netsim.run_qsc_node

    def __enter__(self) -> "RoundHook":
        original, hook = self._original, self

        def run_qsc_node(state, tsb, rounds, choose, on_propose=None, on_decide=None):
            sim = tsb.sim
            started: dict[int, tuple[float, int]] = {}

            def propose(rnd, hist):
                started[rnd] = (WALL(), sim.now)
                if on_propose is not None:
                    on_propose(rnd, hist)

            def decide(rnd, hist, committed):
                if on_decide is not None:
                    on_decide(rnd, hist, committed)
                t0, vt0 = started.pop(rnd)
                if committed:
                    hook.commit_s.append(WALL() - t0)
                hook.vt.append(sim.now - vt0)

            return (yield from original(state, tsb, rounds, choose, propose, decide))

        self.q.netsim.run_qsc_node = run_qsc_node
        return self

    def __exit__(self, *exc) -> None:
        self.q.netsim.run_qsc_node = self._original


def probe(q, w: SimWorkload, seed: int) -> dict:
    """The figures that must repeat exactly: commits, node-rounds, unicasts,
    bytes and every round's virtual time, over the first PROBE_UNITS configs
    of the batch."""
    with RoundHook(q) as hook:
        results = [q.netsim.run(cfg) for cfg in sim_pool(q, w, seed, PROBE_UNITS)]
    return {
        "lines": [r.metrics.line() for r in results],
        "commits": sum(r.metrics.commits for r in results),
        "node_rounds": sum(r.config.n * r.config.rounds for r in results),
        "unicasts": sum(r.metrics.unicasts for r in results),
        "bytes": sum(r.metrics.bytes for r in results),
        "round_vt": sorted(hook.vt),
    }


def check_determinism(q, w: SimWorkload, seed: int, checks: Checks) -> dict:
    """Compare the probe in this process with two children under other
    PYTHONHASHSEED values."""
    rows = [probe(q, w, seed)]
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", "--workload", w.name,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
        )
        for hashseed in ("0", "4242")
    ]
    for p in procs:
        try:
            out, err = p.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
        if p.returncode != 0:
            checks.problem(f"determinism probe failed: {err.strip()[-300:]}")
            continue
        rows.append(json.loads(out.strip().splitlines()[-1]))
    equal = len(rows) == 3 and all(r == rows[0] for r in rows)
    if not equal:
        checks.problem("determinism: commits, bytes, unicasts or round virtual times "
                       "differ across runs or PYTHONHASHSEED values")
    return {"runs": len(rows), "units": PROBE_UNITS, "equal": equal}


def load_golden(name: str) -> list[str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[name]


def sim_unit(q, w: SimWorkload, cfg, checks: Checks, golden: list[str], hook: RoundHook,
             tr=None) -> SimpleNamespace:
    """One timed user action: run the config, plus the whole validator panel
    on the safety workload.  Checks the result outside the timed part."""
    checks.attempted += 1
    hook.commit_s, hook.vt = [], []
    gc.collect()  # every replay starts from the same collector state
    frame = tr.open("bench.unit", (cfg.seed,)) if tr else None
    t0 = WALL()
    try:
        res = q.netsim.run(cfg)
        problems = q.cli.validate_trace(res.trace, True) if w.panel else []
    except q.netsim.DeadlockError as exc:
        res, problems = None, [f"deadlock: {exc}"]
    elapsed = WALL() - t0
    if frame:
        tr.close(frame)
    if res is not None:
        if not w.panel:
            problems = q.qsc.check_consensus(res.trace)
        line = res.metrics.line()
        if hashlib.sha256(line.encode()).hexdigest() != golden[cfg.seed]:
            problems.append(f"Metrics.line() is not golden: {line}")
    if problems:
        checks.fail(f"seed {cfg.seed}: {problems[0]} ({len(problems)} problems)")
    return SimpleNamespace(
        seconds=elapsed, node_rounds=cfg.n * cfg.rounds, latencies=hook.commit_s,
        commits=res.metrics.commits if res else 0, bytes=res.metrics.bytes if res else 0,
    )


def run_sim(q, w: SimWorkload, seed: int, seconds: float, traced: bool, checks: Checks,
            prov: dict, setup: SetupClock | None, ref: calib.Reference) -> dict:
    """Replays the batch until ``seconds`` of timed work are done.

    Each replay of a config does identical work and commits the same rounds
    in the same order.  Its time and its commit latencies are scaled to
    reference time (see calib.py); the timing metrics take, per config and
    per commit, the median over its replays."""
    golden = load_golden(w.name)
    pool = sim_pool(q, w, seed)
    prov["determinism"] = check_determinism(q, w, seed, checks)
    replays: list[list] = [[] for _ in pool]
    spent = 0.0
    with RoundHook(q) as hook:
        while spent < (seconds / 2 if traced else seconds) or not replays[0]:
            for i, cfg in enumerate(pool):
                u = sim_unit(q, w, cfg, checks, golden, hook)
                u.scale = ref.scale()
                spent += u.seconds
                if replays[i] and len(u.latencies) != len(replays[i][0].latencies):
                    checks.problem(f"seed {cfg.seed}: replays commit different rounds")
                replays[i].append(u)
            if setup:
                setup.sample_until(spent / seconds)
        if traced:
            tr = Tracer(SPAN_NAMES)
            install_tracer(tr, q)
            try:
                units = []
                for cfg in pool:
                    units.append(sim_unit(q, w, cfg, checks, golden, hook, tr))
                    units[-1].scale = ref.scale()
            finally:
                tr.uninstall()
    latencies = [median(list(per_commit)) for r in replays for per_commit in
                 zip(*([x * u.scale for x in u.latencies] for u in r))]
    node_rounds = sum(r[0].node_rounds for r in replays)
    commits = sum(r[0].commits for r in replays)
    raw = sum(median([u.seconds for u in r]) for r in replays)
    best = sum(median([u.seconds * u.scale for u in r]) for r in replays)
    prov["samples"] = {"passes": len(replays[0]), "units": checks.attempted,
                       "commit_latencies": len(latencies),
                       "beyond_p99": len(latencies) - math.ceil(len(latencies) * 0.99),
                       "sim_seeds": [cfg.seed for cfg in pool]}
    prov["raw_node_rounds_per_s"] = node_rounds / raw
    if traced:
        overhead = sum(u.seconds * u.scale for u in units) / best - 1.0
        prov["trace_overhead"] = {"node_rounds_per_s": overhead}
        prov["delay_share"] = traced_cpu_share(tr, "netsim.delay")
        prov["spans"] = write_spans(tr, w, seed)
        return layer_metrics(tr, overhead)
    return {
        "node_rounds_per_s": (node_rounds / best, "1/s"),
        "deliveries_per_s": (commits / best, "1/s"),
        "delivery_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
        "delivery_ms_p99": (percentile(latencies, 99) * 1e3, "ms"),
        "commit_rate": (ratio(commits, node_rounds), "ratio"),
        "bytes_per_commit": (ratio(sum(r[0].bytes for r in replays), commits), "B"),
    }


# --- QSCOD workloads -------------------------------------------------------------


def open_qscod(q, w: QscodWorkload, seed: int, epoch: int, workdir: Path) -> SimpleNamespace:
    """The workload's inputs: opened stores, and clients with their driver
    threads running."""
    params = q.qscod.qscod_params(w.stores)
    tally = q.qscod.ByteTally()
    edir = None
    if w.backend == "file":
        edir = workdir / f"epoch-{epoch}"
        edir.mkdir(parents=True)
        raw = [q.kvstore.open_store("file", str(edir / f"store-{i}.log")) for i in range(w.stores)]
    else:
        raw = [q.kvstore.open_store("memory") for _ in range(w.stores)]
    stores = [q.qscod.CountingStore(s, tally) for s in raw]
    clients = [q.qscod.Client(cid, stores, params, q.netsim.mix64(seed, epoch, cid))
               for cid in range(w.clients)]
    return SimpleNamespace(params=params, tally=tally, raw=raw, clients=clients, dir=edir)


def stop_clients(ns: SimpleNamespace) -> None:
    """Stop every client's driver threads and wait until they have ended,
    so no write is still in flight."""
    for c in ns.clients:
        c.close()
    for c in ns.clients:
        for d in c.drivers:
            d.join(timeout=60)


def close_stores(ns: SimpleNamespace) -> None:
    for s in ns.raw:
        s.close()
    if ns.dir is not None:
        shutil.rmtree(ns.dir)


def committed_chain(q, ns, reports) -> tuple[set, dict]:
    """Digests on the longest committed history, walked through the
    proposals the stores hold; and those proposals by digest."""
    bodies = {}
    for store in ns.raw:
        for key, value in store.snapshot().items():
            slot = key[-1]
            if slot == 1:
                h = q.wire.history_bytes(value)
            elif slot == 3:
                h = q.qscod.decode_slot3(value)[2]
            else:
                continue
            if h.head is not None:
                bodies[h.digest] = h.head
    top = max((e for r in reports for e in r.log if e.committed), key=lambda e: e.length,
              default=None)
    chain = set()
    d = top.adopted if top else None
    while d in bodies:
        chain.add(d)
        d = bodies[d].prev
    return chain, bodies


def qscod_epoch(q, w, seed, epoch, checks, workdir, tr=None) -> SimpleNamespace:
    ns = open_qscod(q, w, seed, epoch, workdir)
    per_client = [SimpleNamespace(reports=[], delivered=[], lat=[], failed=0, problems=[])
                  for _ in range(w.clients)]

    def client_loop(cid: int) -> None:
        mine = per_client[cid]
        k = 0
        try:
            for k in range(w.epoch_messages):
                msg = b"s%d-e%d-c%d-m%d" % (seed, epoch, cid, k)
                frame = tr.open("bench.message", (cid, k)) if tr else None
                t0 = WALL()
                try:
                    report = ns.clients[cid].run([msg], w.budget)
                finally:
                    dt = WALL() - t0
                    if frame:
                        tr.close(frame)
                if report is None or report.delivered != [msg]:
                    mine.failed += 1
                    mine.problems.append(f"client {cid} message {k} undelivered")
                else:
                    mine.lat.append(dt)
                    mine.delivered.append((msg, report))
                if report is not None:
                    mine.reports.append(report)
            return
        except Exception as exc:  # a client that raises fails its remaining messages
            mine.problems.append(f"client {cid} raised at message {k}: {exc!r}")
        mine.failed += w.epoch_messages - k

    threads = [threading.Thread(target=client_loop, args=(cid,)) for cid in range(w.clients)]
    gc.collect()
    t0 = WALL()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = WALL() - t0
    stop_clients(ns)

    reports = [r for pc in per_client for r in pc.reports]
    checks.attempted += w.clients * w.epoch_messages
    for pc in per_client:
        if pc.failed:
            checks.fail(pc.problems[0] if pc.problems else "client failed", pc.failed)
    audit = q.qscod.audit(ns.raw, ns.params, reports)
    chain, bodies = committed_chain(q, ns, reports)
    bad = list(audit)
    for pc in per_client:
        for msg, report in pc.delivered:
            e = report.log[-1]
            head = bodies.get(e.adopted)
            if not (e.committed and e.adopted == e.proposed and e.adopted in chain
                    and head is not None and head.message == msg):
                bad.append(f"delivery of {msg!r} is not on the committed chain")
    if bad:
        delivered = sum(len(pc.delivered) for pc in per_client)
        checks.fail(f"epoch {epoch}: {bad[0]} ({len(bad)} problems)", delivered)
    stats = SimpleNamespace(
        seconds=elapsed,
        latencies=[x for pc in per_client for x in pc.lat],
        delivered=sum(len(pc.delivered) for pc in per_client),
        rounds=sum(r.rounds for r in reports),
        commits=sum(r.commits for r in reports),
        backoff=sum(1 for r in reports for e in r.log if e.message == b""),
        bytes=ns.tally.total,
    )
    close_stores(ns)
    return stats


def run_qscod(q, w: QscodWorkload, seed: int, seconds: float, traced: bool, checks: Checks,
              prov: dict, setup: SetupClock | None, ref: calib.Reference) -> dict:
    """Runs epochs until ``seconds`` of timed delivery are done.

    Every epoch does the same work, message by message.  Its time and its
    latencies are scaled to reference time (see calib.py).  The rates are
    medians over the epochs.  Like a commit in the simulator workloads, a
    message position (client, index) takes the median of its latencies over
    the epochs, and the percentiles are over positions (``beyond_p99`` in
    the provenance counts the positions past p99).  So the stalls that the
    shared host throws at random messages stay out of the tail, and the
    messages that are slow in every epoch make it up.  The percentiles of
    the pooled latencies are in the provenance."""
    workdir = OUT / f"work-{os.getpid()}"
    epochs = []
    try:
        spent = 0.0
        while not epochs or spent < (seconds / 2 if traced else seconds):
            epochs.append(qscod_epoch(q, w, seed, len(epochs), checks, workdir))
            epochs[-1].scale = ref.scale()
            spent += epochs[-1].seconds
            if setup:
                setup.sample_until(spent / seconds)
        if traced:
            tr = Tracer(SPAN_NAMES)
            install_tracer(tr, q)
            try:
                e = qscod_epoch(q, w, seed, len(epochs), checks, workdir, tr)
                e.scale = ref.scale()
            finally:
                tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rates = [e.delivered / (e.seconds * e.scale) for e in epochs]
    latencies = [median(list(position)) for position in
                 zip(*([x * e.scale for x in e.latencies] for e in epochs))]
    pooled = [x * e.scale for e in epochs for x in e.latencies]
    prov["samples"] = {"epochs": len(epochs), "messages": checks.attempted,
                       "positions": len(latencies),
                       "beyond_p99": len(latencies) - math.ceil(len(latencies) * 0.99)}
    prov["pooled_latency_ms"] = {"p50": percentile(pooled, 50) * 1e3,
                                 "p99": percentile(pooled, 99) * 1e3, "samples": len(pooled)}
    prov["raw_epoch_rates"] = [round(e.delivered / e.seconds, 1) for e in epochs]
    if traced:
        overhead = median(rates) * e.seconds * e.scale / e.delivered - 1.0 if e.delivered else 0.0
        prov["trace_overhead"] = {"deliveries_per_s": overhead}
        prov["spans"] = write_spans(tr, w, seed)
        return layer_metrics(tr, overhead, rounds=e.rounds, delivered=e.delivered,
                             backoff=e.backoff)
    rounds = sum(e.rounds for e in epochs)
    commits = sum(e.commits for e in epochs)
    return {
        "node_rounds_per_s": (median([e.rounds / (e.seconds * e.scale) for e in epochs]), "1/s"),
        "deliveries_per_s": (median(rates), "1/s"),
        "delivery_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
        "delivery_ms_p99": (percentile(latencies, 99) * 1e3, "ms"),
        "commit_rate": (ratio(commits, rounds), "ratio"),
        "bytes_per_commit": (ratio(sum(e.bytes for e in epochs), commits), "B"),
    }


# --- set-up, provenance, result ----------------------------------------------------


class SetupClock:
    """Set-up time: importing the package in a fresh interpreter, plus
    building the workload's inputs here.  Sampled SETUP_REPEATS times, spread
    over the run between passes or epochs, each scaled to reference time
    (see calib.py)."""

    def __init__(self, q, w, seed: int, ref: calib.Reference) -> None:
        self.q, self.w, self.seed, self.ref = q, w, seed, ref
        self.times: list[float] = []
        self.workdir = OUT / f"setup-{os.getpid()}"

    def sample_until(self, share: float) -> None:
        """Take samples until ``share`` of SETUP_REPEATS are done."""
        while len(self.times) < max(1, math.ceil(SETUP_REPEATS * min(share, 1.0))):
            took = import_seconds()
            t0 = WALL()
            if isinstance(self.w, SimWorkload):
                sim_pool(self.q, self.w, self.seed)
                took += WALL() - t0
            else:
                ns = open_qscod(self.q, self.w, self.seed, 10_000 + len(self.times),
                                self.workdir)
                took += WALL() - t0
                stop_clients(ns)
                close_stores(ns)
            self.times.append(took * self.ref.scale())

    def finish(self) -> float:
        self.sample_until(1.0)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return median(self.times)


def write_spans(tr: Tracer, w, seed: int) -> dict:
    path = OUT / f"spans-{w.name}-{seed}.jsonl"
    return {"file": str(path.relative_to(ROOT)), "count": tr.dump(str(path)),
            "dropped": tr.stats().get("tracer.dropped_spans", (0,))[0]}


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.splitlines()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quesera").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_checks(w, m: dict) -> dict:
    """Does the traced run separate the layers as the workload intends?"""
    v = {name: value for name, (value, _) in m.items()}
    idle = ("netsim.record.busy_s", "tsb.validate_layer.busy_s", "tsb.validate_transport.busy_s")
    if w.name == "sim-gossip":
        return {"record_and_tsb_idle": all(v[k] == 0 for k in idle)}
    if w.name == "sim-witness-faults":
        return {"record_and_tsb_busy": all(v[k] > 0 for k in idle)}
    if w.name == "qscod-solo-file":
        return {"every_write_won": v["kvstore.won_share"] == 1.0,
                "no_backoff": v["qscod.backoff_rounds"] == 0}
    return {"some_writes_lost": v["kvstore.won_share"] < 1.0}


def pin_cpu(w) -> list[int] | None:
    """Keep this process, its threads and its children on one CPU, the last
    one it was given, unless the workload races several clients against
    each other.  The reference kernel then runs where the timed work ran.
    A lone QSCOD client hands every slot to its store driver threads and
    back; spread over CPUs, each hand-off pays a cross-CPU wake-up whose
    cost swings with the machine's other load, and which the kernel, never
    waiting, does not see.  Contending clients are meant to race on every
    CPU there is."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = CPUS if isinstance(w, QscodWorkload) and w.clients > 1 else {max(CPUS)}
    os.sched_setaffinity(0, cpus)
    return sorted(cpus)


def run_workload(q, spec: dict, w, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    prov = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "cpus": pin_cpu(w), "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "loadavg_start": os.getloadavg(),
        "workload_spec": dataclasses.asdict(w),
    }
    ref = calib.Reference()
    setup = None if traced else SetupClock(q, w, seed, ref)
    runner = run_sim if isinstance(w, SimWorkload) else run_qscod
    computed = runner(q, w, seed, seconds, traced, checks, prov, setup, ref)
    prov["reference"] = {"kernel_s": calib.REFERENCE_S, "runs": len(ref.times),
                         "median_s": median(ref.times), "min_s": min(ref.times),
                         "max_s": max(ref.times)}
    if traced:
        prov["layer_checks"] = layer_checks(w, computed)
    else:
        computed["setup_s"] = (setup.finish(), "s")
        prov["samples"]["setups"] = len(setup.times)
        computed["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    wanted = spec["per_layer" if traced else "end_to_end"]
    if sorted(computed) != sorted(m["name"] for m in wanted):
        raise RuntimeError(f"computed metrics {sorted(computed)} do not match BENCHMARK.json")
    metrics = {}
    for m in wanted:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    prov["error_rate"] = ratio(checks.failed, checks.attempted)
    prov["problems"] = checks.problems
    result = {"correct": not checks.problems, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, prov


# --- modes -------------------------------------------------------------------------


def write_golden(q) -> int:
    table = {}
    for w in WORKLOADS.values():
        if not isinstance(w, SimWorkload):
            continue
        digests = []
        for s in range(GOLDEN_SEEDS):
            res = q.netsim.run(sim_config(q, w, s))
            problems = q.cli.validate_trace(res.trace, True)
            if problems:
                print(f"{w.name} seed {s}: {problems[0]}", file=sys.stderr)
                return 1
            digests.append(hashlib.sha256(res.metrics.line().encode()).hexdigest())
        table[w.name] = digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0)
        fh.write("\n")
    return 0


def smoke(q, spec: dict) -> int:
    """Every workload at tiny size, untraced and traced: every metric
    present with its unit, every check passing, and the layers separated as
    designed."""
    ok = True
    delay_share = {}
    for w in WORKLOADS.values():
        small = (dataclasses.replace(w, pool=2) if isinstance(w, SimWorkload)
                 else dataclasses.replace(w, epoch_messages=20))
        for traced in (False, True):
            result, prov = run_workload(q, spec, small, 1, 0.2, traced)
            checks = prov.get("layer_checks", {})
            good = result["correct"] and result["failed"] == 0 and all(checks.values())
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {w.name} trace={int(traced)} "
                  f"metrics={len(result['metrics'])} {checks or ''} {prov['problems'][:2] or ''}")
            if "delay_share" in prov:
                delay_share[w.name] = prov["delay_share"]
    if {"sim-gossip", "sim-witness-faults"} <= set(delay_share):
        more = delay_share["sim-gossip"] > delay_share["sim-witness-faults"]
        ok &= more
        print(f"{'ok  ' if more else 'FAIL'} delay share gossip {delay_share['sim-gossip']:.3f} "
              f"> witness-faults {delay_share['sim-witness-faults']:.3f}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute bench/golden.json from the current sources")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        q = load_quesera()
        with open(SPEC, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench/run.py: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden(q)
    if args.smoke:
        return smoke(q, spec)
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps(probe(q, w, args.seed)))
        return 0
    result, prov = run_workload(q, spec, w, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{w.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w.name} error_rate {prov['error_rate']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for p in prov["problems"]:
        print(f"problem: {p}")
    out = OUT / f"result-{w.name}-{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": prov}, fh, indent=1)
    print(f"provenance: {json.dumps(prov, separators=(',', ':'))}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
