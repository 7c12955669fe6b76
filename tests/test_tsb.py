"""Trace validators: a clean hand-built trace passes, every broken promise
is caught by the layer check, and that check finds the same over a shared
index of the returns as over one it builds itself, and over tuple rows as
over the frozensets a simulator records."""

from __future__ import annotations

import hashlib
from dataclasses import replace

from quesera.cli import validate_trace
from quesera.netsim import SimConfig, run
from quesera.tsb import (
    RunTrace,
    Thresholds,
    index_rets,
    validate_delivery,
    validate_fifo,
    validate_layer,
    validate_substeps,
)


def d(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def two_node_trace() -> RunTrace:
    """Two nodes, one step, everyone receives everything, node 0's message
    witnessed by both."""
    t = RunTrace(n=2, layers={"x": Thresholds(2, 0, 2, 1, 2)})
    t.sends = [(1, "x", 1, 0, d(b"m0")), (2, "x", 1, 1, d(b"m1"))]
    full = ((0, d(b"m0")), (1, d(b"m1")))
    t.rets = [
        (3, "x", 1, 0, full, ((0, d(b"m0")),)),
        (4, "x", 1, 1, full, ((0, d(b"m0")),)),
    ]
    return t


def panel(t: RunTrace) -> list[str]:
    """Layer x's findings through ``validate_layer``, after checking that
    it finds the same whether it is handed an index or builds its own, and
    whether the rows are the hand-built tuples or frozensets of them."""
    shared = validate_layer(t, "x", index=index_rets(t))
    assert validate_layer(t, "x") == shared
    as_sets = replace(t, rets=[(*head, frozenset(r), frozenset(b)) for *head, r, b in t.rets])
    assert validate_layer(as_sets, "x") == shared
    return shared


def test_clean_trace_passes_everything():
    assert panel(two_node_trace()) == []


def test_lockstep_catches_foreign_payload():
    t = two_node_trace()
    r = ((0, d(b"m0")), (1, d(b"FORGED")))
    t.rets[0] = (3, "x", 1, 0, r, ())
    assert any("foreign payload" in s for s in panel(t))

    # a forged entry beside the sender's own adds no sender to R
    t = two_node_trace()
    t.rets[0] = (3, "x", 1, 0, ((0, d(b"m0")), (0, d(b"FORGED"))), ((0, d(b"m0")),))
    assert panel(t) == ["node 0 x step 1 R holds a foreign payload for sender 0",
                        "node 0 x step 1: |R senders| 1 < t_r=2"]


def test_lockstep_catches_never_sent():
    t = two_node_trace()
    r = ((0, d(b"m0")), (7, d(b"ghost")))
    t.rets[0] = (3, "x", 1, 0, r, ())
    assert any("never sent" in s for s in panel(t))


def test_lockstep_catches_gaps_and_silent_stops():
    t = two_node_trace()
    t.rets[1] = (4, "x", 3, 1, t.rets[1][4], ())  # returned step 3, never 1..2
    assert any("expected" in s for s in panel(t))

    t = two_node_trace()
    del t.rets[1]  # node 1 sent but never returned, and no crash recorded
    assert any("without a crash" in s for s in panel(t))
    t.crashes[1] = (1, "after")  # ...a recorded crash excuses it
    assert panel(t) == []

    t = two_node_trace()
    t.sends.append((5, "x", 1, 0, d(b"m0")))  # node 0 sends step 1 again
    assert panel(t) == ["node 0 sent twice at x step 1"]

    t = two_node_trace()
    t.sends.append((5, "x", 3, 1, d(b"m1")))  # node 1 skips step 2
    t.crashes[1] = (3, "after")
    assert panel(t) == ["node 1 x send steps not consecutive: [1, 3]..."]


def test_thresholds_catch_thin_sets():
    t = two_node_trace()
    t.rets[0] = (3, "x", 1, 0, ((0, d(b"m0")),), ((0, d(b"m0")),))
    assert any("|R senders| 1 < t_r=2" in s for s in panel(t))

    t = two_node_trace()
    t.rets[0] = (3, "x", 1, 0, t.rets[0][4], ())
    assert any("|B senders| 0 < t_b=1" in s for s in panel(t))


def test_spread_counts_silent_nodes_as_reached():
    # node 1 never returns (crashed): a B message present only in node 0's R
    # still spreads to 1 (returned) + 1 (silent) = 2 >= t_s
    t = two_node_trace()
    t.crashes[1] = (1, "before")
    del t.sends[1]
    t.rets = [(3, "x", 1, 0, ((0, d(b"m0")),), ((0, d(b"m0")),))]
    # at the trace's own claim, t_r=2, R is one sender short
    assert panel(t) == ["node 0 x step 1: |R senders| 1 < t_r=2"]
    t.layers["x"] = Thresholds(2, 0, 1, 1, 2)
    assert panel(t) == []

    # but a returned R missing the B message does count against it
    t = two_node_trace()
    t.rets[0] = (3, "x", 1, 0, ((0, d(b"m0")), (1, d(b"m1"))), ((1, d(b"m1")),))
    t.rets[1] = (4, "x", 1, 1, ((0, d(b"m0")),), ())
    # m1 only in node 0's returned R: reach 1 < 2
    assert any("reached 1 < t_s=2" in s for s in panel(t))


def test_fullspread_and_containment():
    t = two_node_trace()
    # node 1's R lost node 0's message, but node 0 still has it in B: at
    # t_s = n that is a spread break
    t.rets[1] = (4, "x", 1, 1, ((1, d(b"m1")),), ())
    assert "node 0 x step 1: B message from 0 reached 1 < t_s=2 nodes" in panel(t)

    t = two_node_trace()
    t.rets[0] = (3, "x", 1, 0, ((0, d(b"m0")),), ((1, d(b"m1")),))
    assert "node 0 x step 1: B not within R" in panel(t)


def test_spread_findings_come_in_the_serialized_order():
    # node 0's B holds two payloads of sender 0: m0, which only node 0's R
    # holds, and one no R holds.  Their findings come by payload digest, the
    # order a trace serializes entries in, not by payload
    t = two_node_trace()
    other = (0, d(b"d"))
    assert other < (0, d(b"m0")) and d(other[1]) > d(d(b"m0"))
    t.rets[0] = (3, "x", 1, 0, ((0, d(b"m0")), (1, d(b"m1"))), ((0, d(b"m0")), other))
    t.rets[1] = (4, "x", 1, 1, ((1, d(b"m1")),), ())
    assert panel(t) == [
        "node 0 x step 1 B holds a foreign payload for sender 0",
        "node 0 x step 1: B not within R",
        "node 0 x step 1: B message from 0 reached 1 < t_s=2 nodes",
        "node 0 x step 1: B message from 0 reached 0 < t_s=2 nodes",
        "node 1 x step 1: |R senders| 1 < t_r=2",
        "node 1 x step 1: |B senders| 0 < t_b=1",
    ]


def test_a_dropped_r_entry_is_reported_once():
    # t_s = n: full spread is the spread count, so a B message missing from
    # one returned R is one finding, not one per check
    t = RunTrace(n=2, layers={"x": Thresholds(2, 0, 1, 0, 2)})
    t.sends = [(1, "x", 1, 0, d(b"m0")), (2, "x", 1, 1, d(b"m1"))]
    m0, m1 = (0, d(b"m0")), (1, d(b"m1"))
    t.rets = [(3, "x", 1, 0, (m0, m1), (m0,)), (4, "x", 1, 1, (m1,), ())]
    want = ["node 0 x step 1: B message from 0 reached 1 < t_s=2 nodes"]
    assert panel(t) == want

    # a node listing the same entry twice still reaches it once
    t.rets[0] = (3, "x", 1, 0, (m0, m0, m1), (m0,))
    assert panel(t) == want


def test_substeps_counts_and_ordering():
    t = RunTrace(n=1, layers={"o": Thresholds(1, 0, 1, 0, 0), "i": Thresholds(1, 0, 1, 0, 0)})
    t.sends = [(1, "o", 1, 0, d(b"m")), (2, "i", 1, 0, d(b"m")),
               (4, "i", 2, 0, d(b"g"))]
    t.rets = [(3, "i", 1, 0, ((0, d(b"m")),), ()),
              (5, "i", 2, 0, ((0, d(b"g")),), ()),
              (6, "o", 1, 0, ((0, d(b"m")),), ())]
    assert validate_substeps(t, "o", "i", 2) == []
    assert any("want x3" in s for s in validate_substeps(t, "o", "i", 3))
    assert validate_substeps(t, "o", "i", 3, index_rets(t)) == validate_substeps(t, "o", "i", 3)
    # outer returning before its inner sub-steps is a nesting violation
    t.rets[2] = (4, "o", 1, 0, ((0, d(b"m")),), ())
    assert any("before its" in s for s in validate_substeps(t, "o", "i", 2))
    assert validate_substeps(t, "o", "i", 2, index_rets(t)) == validate_substeps(t, "o", "i", 2)


def test_transport_checks():
    t = RunTrace(n=2, layers={"x": Thresholds(2, 0, 1, 0, 0)})
    t.xmits = [(1, 0, 1, 1, 10), (2, 0, 1, 2, 10)]
    t.dlvrs = [(3, 0, 1, 1), (4, 0, 1, 2)]
    assert validate_fifo(t) == []
    assert validate_delivery(t) == []

    t.dlvrs = [(3, 0, 1, 2), (4, 0, 1, 1)]  # out of order
    assert validate_fifo(t) == ["channel 0->1: delivery 1 after 2"]

    t.dlvrs = [(3, 0, 1, 1)]  # one frame evaporated
    assert validate_delivery(t) == ["channel 0->1: 2 sent, 1 delivered"]

    # deliveries on a channel that carried no xmits
    t.dlvrs = [(3, 0, 1, 1), (4, 0, 1, 2), (5, 1, 0, 1)]
    assert validate_fifo(t) == []
    assert validate_delivery(t) == ["channel 1->0: 0 sent, 1 delivered"]

    # seq skips from 1 to 3: still in order, but frame 2 never arrived
    t.xmits.append((3, 0, 1, 3, 10))
    t.dlvrs = [(4, 0, 1, 1), (5, 0, 1, 3)]
    assert validate_fifo(t) == []
    assert validate_delivery(t) == ["channel 0->1: 3 sent, 2 delivered"]

    # a record naming a node outside the run
    t.dlvrs = [(4, 0, 1, 1), (5, 0, 1, 2), (6, 0, 1, 3), (7, 2, 0, 1)]
    assert validate_fifo(t) == ["channel 2->0: no such channel among 2 nodes"]
    assert validate_delivery(t) == ["channel 2->0: no such channel among 2 nodes"]

    # ...and an xmit naming one
    t.xmits.append((8, 0, 5, 1, 10))
    t.dlvrs = [(4, 0, 1, 1), (5, 0, 1, 2), (6, 0, 1, 3)]
    assert validate_delivery(t) == ["channel 0->5: no such channel among 2 nodes"]


def test_serialization_is_stable():
    a, b = two_node_trace(), two_node_trace()
    assert a.serialize() == b.serialize()
    assert a.serialize().startswith("0,0,run:n=2:x:2/1/2,-\n")


def test_findings_on_a_tampered_run_are_pinned():
    """A real qsc-tlcf trace with one tlcw return tampered: two forged
    payloads, two entries never sent, and B entries dropped from R.  Its
    findings come sender by sender, so they do not follow the hash
    seed that orders the recorded frozensets."""
    trace = run(SimConfig(layer="qsc-tlcf", n=4, f=1, seed=3, rounds=2)).trace
    assert validate_trace(trace, True) == []
    k, (order, layer, step, node, r, b) = next(
        (k, ret) for k, ret in enumerate(trace.rets) if ret[1] == "tlcw")
    kept = sorted(r)[2:]
    forged = [(sender, payload + b"!") for sender, payload in sorted(r)[:2]]
    trace.rets[k] = (order, layer, step, node,
                     frozenset(kept + forged + [(6, b"ghost"), (5, b"ghost")]), b)
    assert validate_trace(trace, True) == [
        "node 0 tlcw step 1 R holds a foreign payload for sender 0",
        "node 0 tlcw step 1 R holds a foreign payload for sender 1",
        "node 0 tlcw step 1 R holds a message never sent by 5 at that step",
        "node 0 tlcw step 1 R holds a message never sent by 6 at that step",
        "node 0 tlcw step 1: B not within R",
    ]
