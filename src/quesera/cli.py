"""Experiment harness: run simulations, validate traces, sweep seeds.

Two commands.  ``run`` executes one reproducible simulation (or a store-backed
client run for --layer qscod) and prints its metrics line, optionally the
validator verdict and a serialized trace.  ``sweep`` repeats a configuration
across consecutive seeds and prints per-seed metrics plus an aggregate commit
rate, which is how the liveness numbers are measured.
"""

from __future__ import annotations

import argparse
from typing import Optional

from . import netsim, qscod
from .netsim import STACKS, DeadlockError, Metrics, SimConfig
from .qsc import check_consensus
from .tlcr import ConfigError
from .tsb import (
    RunTrace,
    index_rets,
    validate_delivery,
    validate_fifo,
    validate_layer,
    validate_substeps,
)


def parse_crash(text: str) -> tuple[int, int, str]:
    """Crash specs look like 2@5b: node 2, wire step 5, before the send
    (b) or right after it (a)."""
    try:
        node_part, rest = text.split("@", 1)
        phase = {"b": "before", "a": "after"}[rest[-1]]
        return int(node_part), int(rest[:-1]), phase
    except (ValueError, KeyError, IndexError):
        raise argparse.ArgumentTypeError(
            f"bad crash spec {text!r}, want NODE@STEP{{b|a}} like 2@5b"
        ) from None


def validate_trace(trace: RunTrace, consensus: bool) -> list[str]:
    """Full validator panel for everything the trace recorded."""
    problems: list[str] = []
    if trace.rets:
        index = index_rets(trace)
        for name in trace.layers:
            problems += validate_layer(trace, name, index)
        top = trace.top_layer  # a bare layer's row in STACKS bears its recorded name
        for _, sub, per_call in STACKS[top].layer.subs:
            problems += validate_substeps(trace, top, sub.name, per_call, index)
    if trace.xmits:
        problems += validate_fifo(trace)
        problems += validate_delivery(trace)
    if consensus:
        problems += check_consensus(trace)
    return problems


# Options only one kind of run reads, by argparse dest.  They default to None,
# so a run of the other kind can tell that one was given and refuse it.
_SIM_ONLY = ("crash", "delay", "trace_level", "trace_out")
_QSCOD_ONLY = {"clients": 1, "messages": 4}  # with their defaults


def _given(args: argparse.Namespace, dests) -> dict:
    """Those of the options ``dests`` given on the command line."""
    return {d: getattr(args, d) for d in dests if getattr(args, d, None) is not None}


def build_config(args: argparse.Namespace, seed: int) -> SimConfig:
    network = _given(args, ("delay", "trace_level"))
    return SimConfig(
        layer=args.layer,
        n=args.n,
        seed=seed,
        rounds=args.rounds,
        f=args.f,
        t_r=args.t_r,
        t_b=args.t_b,
        t_s=args.t_s,
        crashes=tuple(args.crash or ()),
        **network,
    )


def _run_qscod(
    args: argparse.Namespace, seed: int
) -> tuple[Metrics, list[str], list[str], list[str]]:
    """Store-backed client run shaped into the common metrics record, with
    its problems, one line per store column that raised, and one line per
    client that left messages undelivered."""
    params = netsim.configure("qscod", args.n, args.f, args.t_r, args.t_b, args.t_s)
    load = {**_QSCOD_ONLY, **_given(args, _QSCOD_ONLY)}
    raw = [qscod.MemoryStore() for _ in range(args.n)]
    done, problems, dead, short, tally = qscod.run_workload(
        raw, params, load["clients"], load["messages"], args.rounds, seed
    )
    metrics = Metrics(
        layer=args.layer,
        n=args.n,
        f=params.f,
        seed=seed,
        rounds=sum(r.rounds for r in done),
        commits=sum(r.commits for r in done),
        unicasts=tally.ops,
        bytes=tally.total,
    )
    return metrics, problems, dead, short


def _run_seed(args: argparse.Namespace, seed: int):
    """One seed of ``run`` or ``sweep``: prints the metrics line, any dead
    store columns and any clients that left messages undelivered, and
    returns the metrics, the problems found, the simulator's trace (None for
    qscod), and whether every client delivered its workload."""
    simulated = args.layer in netsim.LAYERS
    foreign = _given(args, _QSCOD_ONLY if simulated else _SIM_ONLY)
    if foreign:
        flags = ", ".join("--" + d.replace("_", "-") for d in foreign)
        only = "qscod only" if simulated else "simulated layers only"
        raise ConfigError(f"--layer {args.layer} does not take {flags} ({only})")
    if simulated:
        result = netsim.run(build_config(args, seed))
        metrics, trace, notes, short = result.metrics, result.trace, [], []
        problems = validate_trace(trace, STACKS[args.layer].consensus) if args.validate else []
    else:
        (metrics, problems, notes, short), trace = _run_qscod(args, seed), None
    print(metrics.line())
    for note in notes + short:
        print(note)
    return metrics, problems, trace, not short


def cmd_run(args: argparse.Namespace) -> int:
    _, problems, trace, delivered = _run_seed(args, args.seed)
    if trace is not None and args.trace_out:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            fh.write(trace.serialize())  # only a full trace holds transport records
    if args.validate:
        print(f"validate={'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"violation: {p}")
    return 1 if problems or not delivered else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    total_rounds = 0
    total_commits = 0
    failures = 0
    undelivered = 0
    for k in range(args.seeds):
        seed = args.seed + k
        metrics, problems, trace, delivered = _run_seed(args, seed)
        for p in problems:
            print(f"violation: seed={seed} {p}")
        failures += bool(problems)
        undelivered += not delivered
        # simulated rounds are per node; qscod counts every client's rounds
        total_rounds += metrics.rounds * (args.n if trace is not None else 1)
        total_commits += metrics.commits
    rate = total_commits / total_rounds if total_rounds else 0.0
    print(
        f"aggregate seeds={args.seeds} rounds={total_rounds} "
        f"commits={total_commits} rate={rate:.4f} "
        f"validate={'ok' if not failures else 'FAIL'}"
    )
    return 1 if failures or undelivered else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsc-sim",
        description="Deterministic consensus/broadcast simulations and seed sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--layer", required=True, choices=tuple(STACKS))
        p.add_argument("--n", type=int, default=3, help="nodes (or stores for qscod)")
        p.add_argument("--f", type=int, default=0, help="tolerated crashes")
        p.add_argument("--rounds", type=qscod.budget, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--t-r", type=int, dest="t_r")
        p.add_argument("--t-b", type=int, dest="t_b")
        p.add_argument("--t-s", type=int, dest="t_s")
        p.add_argument("--delay", choices=netsim.DELAY_POLICIES, help="default: random")
        p.add_argument("--crash", action="append", type=parse_crash, metavar="N@Sb|a")
        p.add_argument("--trace-level", choices=netsim.TRACE_LEVELS, help="default: full")
        p.add_argument("--validate", action="store_true")
        for dest, default in _QSCOD_ONLY.items():
            p.add_argument(f"--{dest}", type=qscod.budget, help=f"qscod only, default: {default}")

    p_run = sub.add_parser("run", help="one simulation")
    common(p_run)
    p_run.add_argument("--trace-out", help="write the serialized trace here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="same configuration across seeds")
    common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=10, help="seed count (seed, seed+1, ...)")
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except DeadlockError as exc:
        parser.exit(1, f"{parser.prog}: deadlock: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
