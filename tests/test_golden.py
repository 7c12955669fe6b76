"""Golden-behaviour corpus: every run below must replay to the recorded bytes.

``tests/golden_traces.json`` holds, per config, the sha256 of the full
``RunTrace.serialize()`` (every send, return, frame size, delivery, crash and
commit), of the same trace without its transport records
(``serialize(include_transport=False)``: sends, returns, crashes, adoptions and
commits only), and of ``Metrics.line()``.  The transport-free digest is the
one a change to frame contents or sizes must keep: it shows that no decision
moved.  A change that is meant to leave behaviour
alone -- a speedup, a refactor -- must leave this file untouched.  A change
that alters behaviour on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change log.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from quesera.netsim import DELAY_POLICIES, LAYERS, SimConfig, run

CORPUS = pathlib.Path(__file__).with_name("golden_traces.json")

# Together these cover every stack in LAYERS, every delay policy, crashes
# before and after a step's send, and the light trace level used by long
# sweeps.
CONFIGS: dict[str, dict] = {
    "tlcr-fixed": dict(layer="tlcr", n=4, f=1, rounds=6, delay="fixed"),
    "tlcr-random": dict(layer="tlcr", n=4, f=1, rounds=6),
    "tlcr-crash-before": dict(layer="tlcr", n=4, f=1, rounds=6, crashes=((2, 3, "before"),)),
    "tlcb-random": dict(layer="tlcb", n=4, f=1, rounds=5),
    "tlcb-adversarial": dict(layer="tlcb", n=5, f=1, rounds=5, delay="adversarial"),
    "tlcw-adversarial": dict(layer="tlcw", n=4, f=1, rounds=5, delay="adversarial"),
    "tlcw-crash-after": dict(layer="tlcw", n=4, f=1, rounds=5, crashes=((0, 2, "after"),)),
    "tlcf-random": dict(layer="tlcf", n=3, f=1, rounds=5),
    "tlcf-adversarial-crash-before": dict(layer="tlcf", n=5, f=2, rounds=5,
                                          delay="adversarial", crashes=((4, 5, "before"),)),
    "qsc-tlcb-fixed": dict(layer="qsc-tlcb", n=3, f=1, rounds=6, delay="fixed"),
    "qsc-tlcb-random": dict(layer="qsc-tlcb", n=6, f=2, rounds=5),
    "qsc-tlcb-crash-after": dict(layer="qsc-tlcb", n=4, f=1, rounds=6,
                                 crashes=((1, 6, "after"),)),
    "qsc-tlcb-light": dict(layer="qsc-tlcb", n=7, f=2, rounds=8, trace_level="light"),
    "qsc-tlcf-crash-after": dict(layer="qsc-tlcf", n=3, f=1, rounds=6,
                                 crashes=((1, 4, "after"),)),
    "qsc-tlcf-adversarial-crash-before": dict(layer="qsc-tlcf", n=5, f=2, rounds=5,
                                              delay="adversarial", crashes=((3, 9, "before"),)),
}
SEED = 17


def digests(kwargs: dict) -> dict:
    res = run(SimConfig(seed=SEED, **kwargs))
    line = res.metrics.line()
    return {
        "metrics": line,
        "metrics_sha256": hashlib.sha256(line.encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(res.trace.serialize().encode()).hexdigest(),
        "trace_no_transport_sha256": hashlib.sha256(
            res.trace.serialize(include_transport=False).encode()).hexdigest(),
    }


def test_corpus_covers_every_layer_policy_and_crash_phase():
    cfgs = list(CONFIGS.values())
    assert {c["layer"] for c in cfgs} == set(LAYERS)
    assert {c.get("delay", "random") for c in cfgs} == set(DELAY_POLICIES)
    assert {phase for c in cfgs for *_, phase in c.get("crashes", ())} == {"before", "after"}
    assert set(json.loads(CORPUS.read_text())) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_replays_its_golden_digests(name):
    assert digests(CONFIGS[name]) == json.loads(CORPUS.read_text())[name]


if __name__ == "__main__":
    corpus = {name: digests(kwargs) for name, kwargs in CONFIGS.items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} digests to {CORPUS}")
