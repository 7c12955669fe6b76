"""End-to-end acceptance: every promised property at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line with the measured
numbers (visible under ``pytest -s``), and fails loudly otherwise.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from itertools import combinations, product

from quesera.kvstore import FileStore, MemoryStore
from quesera.netsim import STACKS, SimConfig, configure, mix64, run
from quesera.qsc import check_consensus, check_validity
from quesera.qscod import ByteTally, Client, CountingStore, audit, qscod_params, run_clients
from quesera.tlcb import spread_fault_budget
from quesera.tlcr import ConfigError
from quesera.tsb import validate_layer


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}: {label} -- {detail}")
    assert ok, f"{label}: {detail}"


# --- 1. safety under crashes and skew -------------------------------------

SAFETY_CONFIGS = (("qsc-tlcb", 3, 1), ("qsc-tlcf", 3, 1), ("qsc-tlcf", 5, 2))
SAFETY_SEEDS = 20
SAFETY_ROUNDS = 200


def crash_subsets(n: int, f: int):
    subs = [()]
    for size in range(1, f + 1):
        subs.extend(combinations(range(n), size))
    return subs


def schedule_for(nodes, seed: int):
    return tuple(
        (node, 1 + (seed * 13 + 7 * i) % 60, ("before", "after")[(seed + i) % 2])
        for i, node in enumerate(nodes)
    )


def test_a1_no_run_ever_forks_a_committed_history():
    t0 = time.monotonic()
    runs = violations = commits = 0
    for layer, n, f in SAFETY_CONFIGS:
        subs = crash_subsets(n, f)
        used = set()
        for seed in range(SAFETY_SEEDS):
            nodes = subs[seed % len(subs)]
            used.add(nodes)
            delay = ("random", "adversarial")[(seed // len(subs)) % 2]
            res = run(SimConfig(
                layer=layer, n=n, seed=seed, rounds=SAFETY_ROUNDS, f=f,
                delay=delay, crashes=schedule_for(nodes, seed),
                trace_level="light"))
            bad = check_consensus(res.trace)
            violations += len(bad)
            commits += res.metrics.commits
            runs += 1
            assert bad == [], f"{layer} n={n} seed={seed}: {bad[:3]}"
        assert used == set(subs), "every crash schedule within f must appear"
    elapsed = time.monotonic() - t0
    verdict(
        "safety",
        violations == 0 and commits > 0 and elapsed < 120,
        f"{runs} runs x {SAFETY_ROUNDS} rounds, {commits} commits, "
        f"{violations} violations, {elapsed:.1f}s",
    )


# --- 2. liveness under a random scheduler ---------------------------------

LIVENESS = (
    ("qsc-tlcb", 3, 1, 1 / 3, 334),
    ("qsc-tlcf", 3, 1, 1 / 2, 334),
    ("qsc-tlcf", 5, 2, 1 / 2, 200),
)


def test_a2_commit_rate_meets_the_lottery_bound():
    details = []
    ok = True
    for layer, n, f, target, rounds in LIVENESS:
        outcomes = commits = 0
        for seed in range(20):
            res = run(SimConfig(layer=layer, n=n, seed=100 + seed,
                                rounds=rounds, f=f, delay="random",
                                trace_level="light"))
            outcomes += len(res.trace.deliveries)
            commits += res.metrics.commits
        rate = commits / outcomes
        se = math.sqrt(rate * (1 - rate) / outcomes)
        floor = target - 3 * se
        ok = ok and outcomes >= 20000 and rate >= floor
        details.append(f"{layer}/n{n}: {rate:.3f}>={floor:.3f} on {outcomes}")
    verdict("liveness", ok, "; ".join(details))


# --- 3. validator panel is clean across the whole corpus -------------------


def corpus():
    bare = (
        ("tlcr", 4, 1), ("tlcw", 4, 1),
        ("tlcb", 3, 1), ("tlcb", 6, 2),
        ("tlcf", 3, 1), ("tlcf", 5, 2),
    )
    for layer, n, f in bare:
        for seed in range(3):
            crash = schedule_for(((seed + 1) % n,), seed) if seed % 2 else ()
            yield SimConfig(layer=layer, n=n, seed=seed, rounds=6, f=f,
                            delay=("random", "adversarial")[seed % 2],
                            crashes=crash)
    for layer, n, f in SAFETY_CONFIGS:
        for seed in range(2):
            yield SimConfig(layer=layer, n=n, seed=seed, rounds=15, f=f,
                            delay="random",
                            crashes=schedule_for((seed,), seed) if seed else ())


def test_a3_every_recorded_layer_honours_its_claim():
    from quesera.cli import validate_trace

    runs = problems = 0
    for cfg in corpus():
        res = run(cfg)
        bad = validate_trace(res.trace, STACKS[cfg.layer].consensus)
        problems += len(bad)
        runs += 1
        assert bad == [], f"{cfg.layer} n={cfg.n} seed={cfg.seed}: {bad[:3]}"
    verdict("validators", problems == 0, f"{runs} full traces, {problems} violations")


# --- 4. the spread bound is exhaustive, not statistical --------------------


def column_supports(n: int, t_r: int):
    out = []
    for size in range(t_r, n + 1):
        for combo in combinations(range(n), size):
            out.append(tuple(1 if c in combo else 0 for c in range(n)))
    return out


def test_a4_pigeonhole_bound_is_exact_over_all_matrices():
    details = []
    for n, t_r, t_s in ((3, 2, 2), (6, 4, 3)):
        bound = n - int(spread_fault_budget(n, t_r, t_s))
        sup = column_supports(n, t_r)
        worst, total = n, 0
        for rows in product(sup, repeat=t_r):
            spread = sum(1 for hits in zip(*rows) if sum(hits) >= t_s)
            if spread < worst:
                worst = spread
            total += 1
        assert worst >= bound, f"(n={n}) some matrix spreads only {worst}"
        assert worst == bound, f"(n={n}) bound {bound} is not tight ({worst})"
        details.append(f"(n={n},t_r={t_r},t_s={t_s}): {total} matrices, "
                       f"min spread {worst} == n-floor(f_b)")

    # the bound also binds every observed B set, not just the admission math
    from quesera.tsb import senders

    observed = []
    for n, f, t_r, t_b, t_s in ((6, 2, 4, 3, 2), (6, 2, 4, 2, 3), (3, 1, 2, 1, 2)):
        floor = n - spread_fault_budget(n, t_r, t_s)  # exact rational
        worst_b = n
        for seed in range(6):
            res = run(SimConfig(layer="tlcb", n=n, seed=seed, rounds=8, f=f,
                                t_r=t_r, t_b=t_b, t_s=t_s, delay="random"))
            for *_, b in (r for r in res.trace.rets if r[1] == "tlcb"):
                worst_b = min(worst_b, len(senders(b)))
        assert worst_b >= floor, f"observed |B|={worst_b} under bound {floor}"
        observed.append(f"t{t_r}/{t_s}@n{n}: min|B|={worst_b}>={float(floor):.2f}")
    details.append("observed " + ", ".join(observed))

    # and the admission line is sharp: a config just past it is accepted
    # without the full-spread promise and demonstrably breaks it
    partial = SimConfig(layer="tlcb", n=6, seed=5, rounds=8, f=2,
                        t_r=4, t_b=3, t_s=2, delay="random")
    res = run(partial)
    assert validate_layer(res.trace, "tlcb") == []
    claim = res.trace.layers["tlcb"]
    full = replace(res.trace, layers={**res.trace.layers, "tlcb": replace(claim, t_s=claim.n)})
    broken = validate_layer(full, "tlcb")  # held to full spread, t_s = n
    assert broken
    try:
        configure("qsc-tlcb", 6, 2, t_r=4, t_b=3, t_s=2)
        rejected = False
    except ConfigError:
        rejected = True
    assert rejected
    details.append(f"partial t_r+t_s=n config: {len(broken)} full-spread breaks")
    verdict("pigeonhole", True, "; ".join(details))


# --- 5. committed heads are fresh -----------------------------------------


def test_a5_every_delivered_head_is_exactly_two_steps_old():
    traces = delivered = bad_total = 0
    for layer, n, f in SAFETY_CONFIGS:
        for seed in range(4):
            crash = schedule_for((seed % n,), seed) if seed % 2 else ()
            res = run(SimConfig(layer=layer, n=n, seed=200 + seed, rounds=50,
                                f=f, delay=("random", "adversarial")[seed % 2],
                                crashes=crash, trace_level="light"))
            bad = check_validity(res.trace)
            bad_total += len(bad)
            delivered += len(res.trace.deliveries)
            traces += 1
            assert bad == [], f"{layer} seed={seed}: {bad[:3]}"
    verdict("validity", bad_total == 0 and delivered > 0,
            f"{traces} traces, {delivered} delivered heads, age always 2 steps")


# --- 6. communication cost ------------------------------------------------


def qscod_bytes_per_agreement(n: int, seed: int = 11) -> float:
    # f=0 makes t_r = n: the lone client waits for every column, so the
    # bytes it reads back do not depend on how the driver threads race
    params = configure("qsc-tlcb", n, 0)
    tally = ByteTally()
    stores = [CountingStore(MemoryStore(), tally) for _ in range(n)]
    client = Client(0, stores, params, mix64(seed, 0))
    report = client.run([b"m%d" % k for k in range(20)], 40)
    client.close()
    assert report.commits >= 20
    return tally.total / report.commits


def test_a6_costs_scale_quadratically():
    details = []
    for n, f in ((3, 1), (6, 2), (12, 4)):
        res = run(SimConfig(layer="qsc-tlcb", n=n, seed=3, rounds=5, f=f,
                            trace_level="light"))
        per_round = res.metrics.unicasts / res.metrics.rounds
        drift = abs(per_round - 4 * n * n) / (4 * n * n)
        assert drift <= 0.01, f"n={n}: {per_round} unicasts/round vs {4*n*n}"
        details.append(f"gossip n={n}: {per_round:.0f}/round == 4n^2")

    # a lone client's bytes per agreement: fit alpha*n + beta*n^2 through
    # n = 3 and 6; larger n must follow the fit, which may grow no faster
    # than n^2, and stay under the n^2 curve through n = 3
    bpa = {n: qscod_bytes_per_agreement(n) for n in (3, 6, 9, 12)}
    beta = (bpa[6] - 2 * bpa[3]) / 18
    alpha = (bpa[3] - 9 * beta) / 3
    assert beta >= 0, f"qscod: beta={beta:.1f} < 0"
    details.append(f"qscod bytes/agreement ~ {alpha:.0f}n + {beta:.0f}n^2")
    for n in (9, 12):
        fit = alpha * n + beta * n * n
        drift = abs(bpa[n] - fit) / fit
        assert drift <= 0.01, f"qscod n={n}: {bpa[n]:.0f} vs fit {fit:.0f}"
        assert bpa[n] <= bpa[3] / 9 * n * n, f"qscod n={n}: {bpa[n]:.0f} above c*n^2"
        details.append(f"n={n}: {bpa[n]:.0f}B within {drift:.1%} of the fit")
    verdict("costs", True, "; ".join(details))


# --- 7. write-once stores under contention --------------------------------


def hammer_store(store, writers: int, keys: int):
    outcomes = [dict() for _ in range(writers)]

    def go(w):
        for k in range(keys):
            key = b"key-%d" % k
            outcomes[w][key] = store.write_read(key, b"writer-%d" % w)

    threads = [threading.Thread(target=go, args=(w,)) for w in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for w in range(1, writers):
        assert outcomes[w] == outcomes[0], f"writer {w} saw different winners"
    return outcomes[0]


def test_a7_first_writer_wins_for_every_backend(tmp_path):
    writers, keys = 16, 1000
    winners_mem = hammer_store(MemoryStore(), writers, keys)
    assert len(winners_mem) == keys

    path = str(tmp_path / "contended.log")
    fs = FileStore(path)
    winners_file = hammer_store(fs, writers, keys)
    fs.close()
    reopened = FileStore(path)
    assert reopened.snapshot() == winners_file
    assert reopened.write_read(b"key-0", b"latecomer") == winners_file[b"key-0"]
    reopened.close()
    verdict("write-once", True,
            f"{writers} writers x {keys} keys per backend, single winner each; "
            f"file store identical after reopen")


# --- 8. client-driven consensus delivers ----------------------------------


def run_contenders(n_clients: int, messages_each: int, budget: int, seed: int):
    params = qscod_params(3)
    stores = [MemoryStore() for _ in range(3)]
    workloads = [[b"c%d-m%d" % (cid, k) for k in range(messages_each)]
                 for cid in range(n_clients)]
    reports, failed, dead = run_clients(stores, params, workloads, budget, seed)
    assert failed == [] and dead == [], (failed, dead)
    return params, stores, reports


def test_a8_every_client_lands_its_workload():
    params, stores, (alone,) = run_contenders(1, 10, 15, seed=21)
    assert alone.delivered == [b"c0-m%d" % k for k in range(10)]
    assert alone.commits == alone.rounds == 10
    assert audit(stores, params, [alone]) == []

    details = [f"single client: {alone.commits}/{alone.rounds} rounds committed"]
    for n_clients in (2, 3, 4):
        params, stores, reports = run_contenders(n_clients, 6, 500, seed=30 + n_clients)
        assert audit(stores, params, reports) == []
        winners = {}
        lost_rounds = 0
        for rep in reports:
            assert rep.delivered == [b"c%d-m%d" % (rep.client, k) for k in range(6)]
            assert rep.commits == len(rep.delivered)
            for e in rep.log:
                assert e.message != b"", f"round {e.round} proposed no message"
                if e.committed:
                    assert winners.setdefault(e.round, e.adopted) == e.adopted, (
                        f"round {e.round} has two winners")
                lost_rounds += not e.committed
        assert lost_rounds > 0, "contention never made a client lose a round"
        details.append(f"{n_clients} clients: all {6 * n_clients} messages "
                       f"delivered, {lost_rounds} lost rounds")
    verdict("delivery", True, "; ".join(details))


# --- 9. byte-identical replays ---------------------------------------------


def test_a9_runs_replay_byte_for_byte(tmp_path):
    checked = []
    for cfg in (
        SimConfig(layer="qsc-tlcb", n=6, seed=17, rounds=4, f=2,
                  delay="adversarial"),
        SimConfig(layer="qsc-tlcf", n=3, seed=17, rounds=4, f=1,
                  crashes=((2, 5, "after"),)),
        SimConfig(layer="tlcw", n=4, seed=17, rounds=5, f=1, delay="random"),
    ):
        a, b = run(cfg), run(cfg)
        assert a.trace.serialize() == b.trace.serialize()
        assert a.metrics.line() == b.metrics.line()
        checked.append(cfg.layer)

    # across processes and hash-seed salts, through the real CLI
    outs, texts = [], []
    for salt, name in ((0, "a"), (4242, "b")):
        path = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=str(salt))
        got = subprocess.run(
            [sys.executable, "-m", "quesera.cli", "run", "--layer", "qsc-tlcf",
             "--n", "5", "--f", "2", "--rounds", "3", "--seed", "23",
             "--delay", "adversarial", "--trace-out", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert got.returncode == 0, got.stderr
        outs.append(got.stdout)
        texts.append(path.read_text(encoding="ascii"))
    assert outs[0] == outs[1] and texts[0] == texts[1]

    # store-arbitrated runs: one client's decisions are a function of the seed
    first, second = (run_contenders(1, 5, 10, seed=77)[2][0] for _ in range(2))
    assert first.delivered == second.delivered
    assert [e.adopted for e in first.log] == [e.adopted for e in second.log]
    verdict("determinism", True,
            f"in-process x{len(checked)} ({', '.join(checked)}), CLI across "
            f"hash salts, and single-client store runs all replay exactly")
