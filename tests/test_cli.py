"""The three command-line tools, in-process and as real subprocesses."""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

import pytest

from quesera import netsim, qscod
from quesera.cli import main as sim_main
from quesera.cli import parse_crash, validate_trace
from quesera.kvstore import FileStore, MemoryStore, write_line
from quesera.netsim import SimConfig, run


def parse_metrics(line):
    return dict(kv.split("=", 1) for kv in line.split())


def test_crash_spec_parsing():
    assert parse_crash("2@5b") == (2, 5, "before")
    assert parse_crash("0@12a") == (0, 12, "after")
    for bad in ("2@5", "2@5z", "x@5b", "25b", "@5b"):
        with pytest.raises(argparse.ArgumentTypeError, match="bad crash spec"):
            parse_crash(bad)


def test_run_prints_metrics_validates_and_dumps_the_trace(capsys, tmp_path):
    out_file = tmp_path / "trace.txt"
    code = sim_main(["run", "--layer", "qsc-tlcf", "--n", "3", "--f", "1",
                     "--rounds", "3", "--seed", "6", "--validate",
                     "--crash", "1@4a", "--trace-out", str(out_file)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = parse_metrics(lines[0])
    assert metrics["layer"] == "qsc-tlcf" and metrics["n"] == "3"
    assert int(metrics["rounds"]) == 3
    assert 0 <= int(metrics["commits"]) <= 9
    assert lines[1] == "validate=ok"
    text = out_file.read_text(encoding="ascii")
    assert text.startswith("0,0,run:n=3:")
    assert ",crash:after,-" in text


def test_sweep_aggregates_node_rounds(capsys):
    code = sim_main(["sweep", "--layer", "qsc-tlcb", "--n", "3", "--f", "1",
                     "--rounds", "5", "--seeds", "3", "--seed", "2", "--validate"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    per_seed = lines[:-1]
    aggregate = parse_metrics(lines[-1].removeprefix("aggregate "))
    assert [parse_metrics(l)["seed"] for l in per_seed] == ["2", "3", "4"]
    assert aggregate["rounds"] == "45"  # 3 seeds x 5 rounds x 3 nodes
    assert aggregate["validate"] == "ok"
    commits = sum(int(parse_metrics(l)["commits"]) for l in per_seed)
    assert aggregate["rate"] == f"{commits / 45:.4f}"


def test_qscod_tools_fail_when_a_client_raises(capsys, monkeypatch):
    run = qscod.Client.run

    def flaky(self, messages, max_rounds):
        if self.id == 1:
            raise RuntimeError("client lost its stores")
        return run(self, messages, max_rounds)

    monkeypatch.setattr(qscod.Client, "run", flaky)
    failure = "client 1 raised RuntimeError('client lost its stores')"

    code = qscod.main(["--stores", "3", "--clients", "2", "--messages", "2",
                       "--rounds", "40", "--seed", "5"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("client=0 ")
    assert lines[1].startswith("total ") and lines[1].endswith(" audit=FAIL")
    assert lines[2:] == [f"audit: {failure}"]


def test_qscod_tools_name_a_dead_store_column(capsys, monkeypatch):
    made = []

    def store():
        made.append(MemoryStore())
        if len(made) % 3 == 2:  # column 1 of every three-store run
            made[-1].write_read = fail
        return made[-1]

    def fail(key, value):
        raise OSError("disk on fire")

    monkeypatch.setattr(qscod, "MemoryStore", store)

    code = qscod.main(["--stores", "3", "--clients", "1", "--messages", "2",
                       "--rounds", "40", "--seed", "5"])
    assert code == 0  # a dead column is reported, not a failure
    lines = capsys.readouterr().out.splitlines()
    rounds = int(parse_metrics(lines[0])["rounds"])
    dead = f"column 1: {4 * rounds} store operations raised, last OSError('disk on fire')"
    assert lines[1].endswith(" audit=ok")
    assert lines[2:] == [dead]


@pytest.mark.parametrize("tool,flag,value", [
    ("qscod", "--clients", "-2"), ("qscod", "--messages", "-1"), ("qscod", "--rounds", "-1"),
    ("qsc-sim", "--rounds", "-1"),
])
def test_qscod_tools_refuse_negative_budgets(capsys, tool, flag, value):
    with pytest.raises(SystemExit) as exited:
        if tool == "qscod":
            qscod.main(["--stores", "3", flag, value])
        else:
            sim_main(["run", "--layer", "qsc-tlcb", "--n", "4", "--f", "1", "--validate",
                      flag, value])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"{tool}{' run' if tool == 'qsc-sim' else ''}: error: "
                            f"argument {flag}: must be >= 0, got {value}\n")


QSCOD_RUN = ["--stores", "3", "--clients", "1", "--messages", "3"]
SIM_RUN = ["--layer", "qsc-tlcb", "--n", "3", "--f", "1", "--rounds", "2"]


@pytest.mark.parametrize("tool, argv, seed", [
    ("qscod", [*QSCOD_RUN, "--seed", "-5"], -5),
    ("qscod", [*QSCOD_RUN, "--seed", str(2**64)], 2**64),
    ("qsc-sim", ["run", *SIM_RUN, "--seed", "-5"], -5),
    ("qsc-sim", ["run", *SIM_RUN, "--seed", str(2**64)], 2**64),
    ("qsc-sim", ["sweep", *SIM_RUN, "--seed", str(2**64 - 2), "--seeds", "3"], 2**64),
], ids=["qscod-below", "qscod-above", "run-below", "run-above", "sweep-past"])
def test_the_tools_refuse_a_seed_outside_64_bits(capsys, tool, argv, seed):
    """mix64 takes each part modulo 2**64, so seed -5 would replay seed
    2**64 - 5, and a sweep past 2**64 - 1 would wrap round to seed 0."""
    with pytest.raises(SystemExit) as exited:
        (qscod.main if tool == "qscod" else sim_main)(argv)
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{tool}: error: seed must be in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("layer", ["qsc-tlcb"])
def test_a_negative_f_exits_2_naming_the_rule(capsys, layer):
    with pytest.raises(SystemExit) as exited:
        sim_main(["run", "--layer", layer, "--n", "3", "--f", "-1", "--t-s", "2",
                  "--t-b", "1", "--rounds", "2", "--validate"])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "qsc-sim: error: 0 <= f violated (f=-1)\n"


@pytest.mark.parametrize("layer,seeds", [("qsc-tlcb", "-1"), ("tlcr", "0")])
def test_a_sweep_of_no_seeds_exits_2_naming_the_flag(capsys, layer, seeds):
    with pytest.raises(SystemExit) as exited:
        sim_main(["sweep", "--layer", layer, "--seeds", seeds, "--validate"])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qsc-sim: error: --seeds must be >= 1, got {seeds}\n"


def test_qscod_tools_fail_when_messages_are_undelivered(capsys):
    code = qscod.main(["--stores", "3", "--clients", "1", "--rounds", "0"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(" delivered=0 bytes=0 bytes_per_agreement=0 audit=ok")
    assert lines[2:] == ["client 0: 4 of 4 messages undelivered after 0 rounds"]

    # one line per client short of its workload, whoever won the round
    code = qscod.main(["--stores", "3", "--clients", "2", "--messages", "2",
                       "--rounds", "1", "--seed", "5"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == [f"client {c}: {2 - d} of 2 messages undelivered after 1 rounds"
                         for c, d in ((c, int(parse_metrics(lines[c])["delivered"]))
                                      for c in (0, 1))]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_the_trace_level_follows_validate_and_trace_out(capsys, monkeypatch, tmp_path, command):
    """A run records the full trace only where it is read, by the validators
    or into --trace-out; either way it prints the same metrics lines."""
    levels = []
    simulate = netsim.run

    def run_recording_level(cfg):
        levels.append(cfg.trace_level)
        return simulate(cfg)

    monkeypatch.setattr(netsim, "run", run_recording_level)
    argv = [command, *SIM_RUN, "--seed", "5"] + (["--seeds", "2"] if command == "sweep" else [])
    out = ["--trace-out", str(tmp_path / "trace.txt")]
    cases = [([], "light"), (["--validate"], "full")]
    if command == "run":
        cases += [(out, "full"), (["--validate", *out], "full")]
    printed = set()
    for extra, level in cases:
        levels.clear()
        assert sim_main(argv + extra) == 0
        assert levels == [level] * (2 if command == "sweep" else 1)
        lines = capsys.readouterr().out.splitlines()
        printed.add(tuple(line for line in lines if line.startswith("seed=")))
    assert len(printed) == 1

    with pytest.raises(SystemExit) as exited:
        sim_main(argv + ["--trace-level", "light"])
    assert exited.value.code == 2
    assert "error: unrecognized arguments: --trace-level light" in capsys.readouterr().err


def test_panel_checks_b_within_r_on_every_layer():
    # a tlcw return whose R lost one of its B entries
    trace = run(SimConfig(layer="qsc-tlcf", n=4, f=1, seed=3, rounds=2)).trace
    assert validate_trace(trace, True) == []
    k, (order, layer, step, node, r, b) = next(
        (k, ret) for k, ret in enumerate(trace.rets) if ret[1] == "tlcw")
    trace.rets[k] = (order, layer, step, node, tuple(e for e in r if e != min(b)), b)
    assert f"node {node} tlcw step {step}: B not within R" in validate_trace(trace, True)

    # a tlcr return, whose B is always empty, given an entry sent at that
    # step that its R does not hold
    trace = run(SimConfig(layer="tlcf", n=4, f=1, seed=3, rounds=2)).trace
    assert validate_trace(trace, False) == []
    sent = [(step, (node, payload))
            for _, layer, step, node, payload in trace.sends if layer == "tlcr"]
    k, extra = next((k, entry) for k, ret in enumerate(trace.rets) if ret[1] == "tlcr"
                    for step, entry in sent if step == ret[2] and entry not in ret[4])
    order, layer, step, node, r, b = trace.rets[k]
    trace.rets[k] = (order, layer, step, node, r, b | {extra})
    assert validate_trace(trace, False) == [f"node {node} tlcr step {step}: B not within R"]


def cli(*argv, input_text=None, hashseed=None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run([sys.executable, "-m", *argv], env=env,
                          input=input_text, capture_output=True, text=True,
                          timeout=120)


def test_replays_are_byte_identical_across_interpreter_salt(tmp_path):
    """Same config, different hash randomization: stdout and trace files must
    not differ by a single byte."""
    outs, texts = [], []
    for salt, name in ((1, "a"), (99, "b")):
        path = tmp_path / name
        got = cli("quesera.cli", "run", "--layer", "qsc-tlcb", "--n", "6",
                  "--f", "2", "--rounds", "3", "--seed", "9",
                  "--delay", "adversarial", "--trace-out", str(path),
                  hashseed=salt)
        assert got.returncode == 0, got.stderr
        outs.append(got.stdout)
        texts.append(path.read_text(encoding="ascii"))
    assert outs[0] == outs[1]
    assert texts[0] == texts[1]
    assert texts[0].count("\n") > 100  # a real trace, not a stub


def test_bad_arguments_exit_with_usage_errors(tmp_path):
    got = cli("quesera.cli", "run", "--layer", "smoke")
    assert got.returncode == 2
    assert "--layer" in got.stderr
    got = cli("quesera.cli", "run", "--layer", "tlcr", "--crash", "oops")
    assert got.returncode == 2
    assert "bad crash spec" in got.stderr
    # clients over stores run under qscod, not qsc-sim
    got = cli("quesera.cli", "run", "--layer", "qscod")
    assert got.returncode == 2
    assert "argument --layer: invalid choice: 'qscod'" in got.stderr
    got = cli("quesera.cli", "run", "--layer", "tlcr", "--clients", "2")
    assert got.returncode == 2
    assert "unrecognized arguments: --clients 2" in got.stderr
    missing = str(tmp_path / "no-such-dir" / "x")
    got = cli("quesera.cli", "run", "--layer", "tlcr", "--trace-out", missing)
    assert got.returncode == 2
    assert got.stderr.startswith("qsc-sim: error:") and missing in got.stderr
    assert "Traceback" not in got.stderr


def test_bad_configurations_exit_2_with_the_violation_named():
    # n=3 cannot absorb f=2: the derived thresholds fail admission
    got = cli("quesera.cli", "run", "--layer", "qsc-tlcb", "--n", "3",
              "--f", "2", "--rounds", "2")
    assert got.returncode == 2
    assert "t_b <= n - f_b violated" in got.stderr
    assert "Traceback" not in got.stderr
    got = cli("quesera.qscod", "--stores", "3", "--clients", "1",
              "--messages", "1", "--backend", "file",
              "--path-template", "no/such/dir/{i}.log")
    assert got.returncode == 2
    assert "no/such/dir/0.log" in got.stderr
    got = cli("quesera.kvstore", "--backend", "file", input_text="")
    assert got.returncode == 2
    assert "needs --path" in got.stderr


@pytest.mark.parametrize("template, named", [
    ("same.log", "gives two columns one log"),
    ("s{i}/../same.log", "gives two columns one log"),  # distinct text, one file
    ("s{j}.log", "does not format: KeyError('j')"),
    ("s{0}.log", "does not format: IndexError"),
    ("s{i", "does not format: ValueError"),
])
def test_qscod_refuses_a_path_template_without_one_log_per_column(
        capsys, tmp_path, template, named):
    template = str(tmp_path / template)
    with pytest.raises(SystemExit) as exit_:
        qscod.main(["--stores", "3", "--clients", "1", "--messages", "3",
                    "--backend", "file", "--path-template", template])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qscod: error: --path-template {template!r} {named}")
    assert err.count("\n") == 1  # one line, no traceback
    assert list(tmp_path.iterdir()) == []  # no log was opened


def test_qscod_refuses_a_damaged_log(capsys, tmp_path, monkeypatch):
    """A damaged log exits 2 naming it, before a store process starts on it,
    and every store opened ahead of it is closed, its child reaped."""
    opened = []
    for name in ("FileStore", "PipeStore"):
        class Recorded(getattr(qscod, name)):
            def __init__(self, path):
                super().__init__(path)
                self.closed = False
                opened.append(self)

            def close(self):
                super().close()
                self.closed = True

        monkeypatch.setattr(qscod, name, Recorded)
    for column in (0, 1):
        for backend in ("file", "process"):
            logs = tmp_path / f"{backend}{column}"
            logs.mkdir()
            (logs / f"s{column}.log").write_text("R a2V5\n", encoding="ascii")
            opened.clear()
            with pytest.raises(SystemExit) as exit_:
                qscod.main(["--stores", "3", "--clients", "1", "--messages", "1",
                            "--backend", backend, "--path-template", str(logs / "s{i}.log")])
            assert exit_.value.code == 2
            assert capsys.readouterr().err == "qscod: error: log holds a non-write line: 'R a2V5'\n"
            assert len(opened) == column
            assert all(store.closed for store in opened)
            if backend == "process":
                assert all(store.child.returncode is not None for store in opened)


def test_qscod_audits_a_log_holding_a_foreign_key(tmp_path):
    """A log may hold writes no client made; the audit fails on them, by
    name, instead of crashing."""
    (tmp_path / "s0.log").write_text("W Zm9v YmFy\n", encoding="ascii")  # foo -> bar
    got = cli("quesera.qscod", "--stores", "3", "--clients", "1", "--messages", "2",
              "--backend", "file", "--path-template", str(tmp_path / "s{i}.log"))
    assert got.returncode == 1
    assert "delivered=2 " in got.stdout and " audit=FAIL\n" in got.stdout
    assert f"audit: store 0: key {b'foo'.hex()} is not a slot key\n" in got.stdout
    assert "Traceback" not in got.stderr


def test_qscod_process_backend_bills_what_the_file_backend_bills(capsys, tmp_path):
    """A lone client on store processes, one per column, logging where the
    file backend would: the same deliveries and the same bill, since a
    lone client's bytes depend on its seed alone."""
    totals = {}
    for backend in ("file", "process"):
        code = qscod.main(["--stores", "5", "--clients", "1", "--messages", "20",
                           "--backend", backend,
                           "--path-template", str(tmp_path / f"{backend}-{{i}}.log")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        totals[backend] = parse_metrics(lines[1].removeprefix("total "))
        assert (totals[backend]["delivered"], totals[backend]["audit"]) == ("20", "ok")
    assert totals["process"]["bytes"] == totals["file"]["bytes"] == "52800"
    assert totals["process"]["bytes_per_agreement"] == "2640"


def test_qscod_process_backend_takes_one_client(capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        qscod.main(["--stores", "3", "--clients", "2", "--backend", "process",
                    "--path-template", str(tmp_path / "s{i}.log")])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith("qscod: error: --backend process takes one "
                                            "client: a store process answers one pipe\n")
    assert list(tmp_path.iterdir()) == []  # no store process was started


def test_importing_the_tools_starts_no_process_machinery():
    """``subprocess`` and ``selectors`` are imported only where a store
    process is used, so they add nothing to the import of the tools."""
    got = subprocess.run(
        [sys.executable, "-c", "import sys, quesera.cli, quesera.qscod; "
         "print(sorted({'subprocess', 'selectors'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120)
    assert (got.returncode, got.stdout, got.stderr) == (0, "[]\n", "")


def test_a_deadlocked_run_exits_1_with_its_report():
    # two of four nodes crash where t_r = 3 needs one of them
    got = cli("quesera.cli", "run", "--layer", "qsc-tlcb", "--n", "4", "--f", "1",
              "--rounds", "6", "--crash", "0@4b", "--crash", "1@4b")
    assert got.returncode == 1
    assert got.stderr.startswith("qsc-sim: deadlock: ")
    assert "2/3 senders" in got.stderr
    assert "Traceback" not in got.stderr


def test_store_server_speaks_the_protocol_over_pipes(tmp_path):
    log = tmp_path / "store.log"
    first = cli("quesera.kvstore", "--backend", "file", "--path", str(log),
                input_text="W a2V5 dmFs\nR a2V5\nW a2V5 b3RoZXI=\nnonsense\n")
    assert first.returncode == 0
    assert first.stdout.splitlines() == [
        "A", "V dmFs", "V dmFs", "E malformed request 'nonsense'"]
    # restart: the log replays, the key stays settled
    second = cli("quesera.kvstore", "--backend", "file", "--path", str(log),
                 input_text="R a2V5\nW a2V5 bmV3\nW a2V5 dmFs\n")
    assert second.returncode == 0
    assert second.stdout.splitlines() == ["V dmFs", "V dmFs", "A"]


def test_a_killed_store_process_keeps_every_acknowledged_write(tmp_path):
    """SIGKILL a store server while writes are queued behind the ones it
    acknowledged: its log reopens, a torn final append cut off, and holds
    every acknowledged write."""
    log = tmp_path / "store.log"
    acked = {}
    child = subprocess.Popen(
        [sys.executable, "-m", "quesera.kvstore", "--backend", "file", "--path", str(log)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        for k in range(40):
            key, value = b"k%d" % k, b"v%d" % k * 30
            child.stdin.write(write_line(key, value))
            child.stdin.flush()
            assert child.stdout.readline() == b"A\n"
            acked[key] = value
        # well under a pipe's buffer, so the flush returns at once
        for k in range(200):
            child.stdin.write(write_line(b"q%d" % k, b"x%d" % k * 20))
        child.stdin.flush()
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
        try:
            child.stdin.close()
        except BrokenPipeError:
            pass  # writes still buffered for the dead server
    store = FileStore(str(log))
    try:
        assert {key: store.read(key) for key in acked} == acked
    finally:
        store.close()
    assert log.read_bytes().endswith(b"\n")


def test_qscod_tool_runs_contending_clients_clean():
    got = cli("quesera.qscod", "--stores", "3", "--clients", "2",
              "--messages", "2", "--rounds", "60", "--seed", "4")
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert lines[0].startswith("client=0 ")
    assert lines[1].startswith("client=1 ")
    total = parse_metrics(lines[2].removeprefix("total "))
    assert total["audit"] == "ok"
    assert total["delivered"] == "4"
    assert int(total["bytes_per_agreement"]) > 0
