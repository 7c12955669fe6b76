"""Experiment harness: run simulations, validate traces, sweep seeds.

Two commands.  ``run`` executes one reproducible simulation of a stack in
``netsim.LAYERS`` and prints its metrics line, optionally the validator
verdict and a serialized trace.  ``sweep`` repeats a configuration
across consecutive seeds and prints per-seed metrics plus an aggregate commit
rate, which is how the liveness numbers are measured.  Clients over
write-once stores have their own front end, ``qscod``.
"""

from __future__ import annotations

import argparse
from typing import Optional

from . import netsim, qscod
from .netsim import STACKS, DeadlockError, SimConfig
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


def build_config(args: argparse.Namespace, seed: int) -> SimConfig:
    return SimConfig(
        layer=args.layer,
        n=args.n,
        seed=seed,
        rounds=args.rounds,
        f=args.f,
        t_r=args.t_r,
        t_b=args.t_b,
        t_s=args.t_s,
        delay=args.delay,
        crashes=tuple(args.crash or ()),
        # a light trace keeps the consensus ledger and the metrics; the
        # validators and a written trace need the full one
        trace_level="full" if args.validate or args.trace_out else "light",
    )


def _run_seed(args: argparse.Namespace, seed: int):
    """One seed of ``run`` or ``sweep``: prints the metrics line and returns
    the metrics, the problems found and the trace."""
    result = netsim.run(build_config(args, seed))
    print(result.metrics.line())
    problems = validate_trace(result.trace, STACKS[args.layer].consensus) if args.validate else []
    return result.metrics, problems, result.trace


def cmd_run(args: argparse.Namespace) -> int:
    _, problems, trace = _run_seed(args, args.seed)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            fh.write(trace.serialize())  # only a full trace holds transport records
    if args.validate:
        print(f"validate={'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"violation: {p}")
    return 1 if problems else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    netsim.check_seed(args.seed + args.seeds - 1)  # before the first seed's line
    total_rounds = 0
    total_commits = 0
    failures = 0
    for k in range(args.seeds):
        seed = args.seed + k
        metrics, problems, _ = _run_seed(args, seed)
        for p in problems:
            print(f"violation: seed={seed} {p}")
        failures += bool(problems)
        total_rounds += metrics.rounds * args.n  # node-rounds
        total_commits += metrics.commits
    rate = total_commits / total_rounds if total_rounds else 0.0
    print(
        f"aggregate seeds={args.seeds} rounds={total_rounds} "
        f"commits={total_commits} rate={rate:.4f} "
        f"validate={'ok' if not failures else 'FAIL'}"
    )
    return 1 if failures else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsc-sim",
        description="Deterministic consensus/broadcast simulations and seed sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--layer", required=True, choices=netsim.LAYERS)
        p.add_argument("--n", type=int, default=3, help="nodes")
        p.add_argument("--f", type=int, default=0, help="tolerated crashes")
        p.add_argument("--rounds", type=qscod.budget, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--t-r", type=int, dest="t_r")
        p.add_argument("--t-b", type=int, dest="t_b")
        p.add_argument("--t-s", type=int, dest="t_s")
        p.add_argument("--delay", choices=netsim.DELAY_POLICIES, default=SimConfig.delay,
                       help="default: %(default)s")
        p.add_argument("--crash", action="append", type=parse_crash, metavar="N@Sb|a")
        p.add_argument("--validate", action="store_true")

    p_run = sub.add_parser("run", help="one simulation")
    common(p_run)
    p_run.add_argument("--trace-out", help="write the serialized trace here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="same configuration across seeds")
    common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=10, help="seed count (seed, seed+1, ...)")
    p_sweep.set_defaults(func=cmd_sweep, trace_out=None)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # an OSError: --trace-out cannot be written
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except DeadlockError as exc:
        parser.exit(1, f"{parser.prog}: deadlock: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
