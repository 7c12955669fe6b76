"""Two-step spread broadcast: admission arithmetic, tallying, spread bounds."""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quesera.netsim import SimConfig, configure, run
from quesera.tlcb import Tlcb, gather, spread_fault_budget
from quesera.tlcr import ConfigError
from quesera.tsb import validate_layer
from quesera.wire import PLAIN, StepMessage, encode_entry_set

from test_tlcr import ScriptedCtx, drive


def test_fault_budget_frozen_values():
    assert spread_fault_budget(3, 2, 2) == 2
    assert spread_fault_budget(6, 4, 3) == 4
    assert spread_fault_budget(12, 8, 5) == 8
    assert spread_fault_budget(4, 3, 2) == Fraction(3, 2)  # stays exact
    with pytest.raises(ConfigError):
        spread_fault_budget(4, 2, 3)  # t_s > t_r makes the bound meaningless


def test_admission_table():
    ok = configure("tlcb", 3, 1, t_r=2, t_b=1, t_s=2)
    assert Tlcb.claim(ok).t_s == ok.n  # 2 + 2 > 3
    assert Tlcb.claim(ok).t_s == 3  # upgraded to all-n spread
    assert Tlcb.claim(configure("tlcb", 6, 2, t_r=4, t_b=2, t_s=3)).t_s == 6
    # boundary: t_b == n - f_b with fractional f_b (4 - 3/2 = 5/2, t_b=2 fits)
    assert configure("tlcb", 4, 1, t_r=3, t_b=2, t_s=2).t_b == 2

    with pytest.raises(ConfigError, match="t_b <= n - f_b"):
        configure("tlcb", 3, 0, t_r=2, t_b=2, t_s=2)  # budget 2 leaves room for only 1
    with pytest.raises(ConfigError, match="t_s <= t_r"):
        configure("tlcb", 3, 0, t_r=2, t_b=1, t_s=3)
    with pytest.raises(ConfigError, match="t_r <= n - f"):
        configure("tlcb", 4, 1, t_r=4, t_b=1, t_s=2)
    with pytest.raises(ConfigError, match="0 < t_b"):
        configure("tlcb", 3, 0, t_r=2, t_b=0, t_s=2)


def test_gossip_tally_builds_b():
    """Node 0, n=3, t_r=2, t_s=2.  Only the doubly-gossiped entry lands in B."""
    m0, m1, m2 = b"zero", b"one", b"two"
    set_01 = frozenset({(0, m0), (1, m1)})
    set_12 = frozenset({(1, m1), (2, m2)})
    ctx = ScriptedCtx([
        StepMessage(layer="r", kind=PLAIN, sender=0, step=1, payload=m0),
        StepMessage(layer="r", kind=PLAIN, sender=1, step=1, payload=m1),
        StepMessage(layer="r", kind=PLAIN, sender=0, step=2,
                    payload=encode_entry_set(set_01)),
        StepMessage(layer="r", kind=PLAIN, sender=2, step=2,
                    payload=encode_entry_set(set_12)),
    ])
    layer = Tlcb(ctx, 0, configure("tlcb", 3, 0, t_r=2, t_b=1, t_s=2))
    res = drive(layer.broadcast(m0))
    assert res.r == set_01 | set_12
    assert res.b == {(1, m1)}
    assert res.b <= res.r


entries = st.tuples(st.integers(0, 4), st.sampled_from([b"", b"a", b"b", b"ab"]))


@given(st.data())
def test_gather_matches_a_reference_loop(data):
    r = data.draw(st.dictionaries(st.integers(0, 4), st.sampled_from([b"", b"a", b"b"])))
    pool = data.draw(st.lists(st.frozensets(entries, max_size=6), min_size=1, max_size=4))
    gossiped = data.draw(st.lists(st.sampled_from(pool), max_size=7))  # overlaps, repeats
    t_s = data.draw(st.integers(1, len(gossiped) + 1))
    want_r, hits = set(r.items()), {}
    for entry_set in gossiped:
        want_r |= entry_set
        for e in entry_set:
            hits[e] = hits.get(e, 0) + 1
    want_b = {e for e, h in hits.items() if h >= t_s}
    for given_r in (r.items(), frozenset(r.items())):  # qscod passes a dict's items
        assert gather(given_r, gossiped, t_s) == (want_r, want_b)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pigeonhole_spread_bound(data):
    """Any t_r gossiped sets, each holding >= t_r of n entries, leave at least
    n - floor(f_b) entries appearing in t_s or more of them."""
    n = data.draw(st.integers(3, 8))
    t_r = data.draw(st.integers(1, n))
    t_s = data.draw(st.integers(1, t_r))
    rows = [
        data.draw(st.sets(st.integers(0, n - 1), min_size=t_r, max_size=n))
        for _ in range(t_r)
    ]
    hits = [sum(col in row for row in rows) for col in range(n)]
    spread = sum(h >= t_s for h in hits)
    assert spread >= n - int(spread_fault_budget(n, t_r, t_s))


# A partial-spread configuration that the admission arithmetic accepts
# (f_b = 8/3, so t_b=3 <= 6 - 8/3) but that cannot promise full spread:
# t_r + t_s = 6 is not > n.  Seed picked for a fat violation count.
_PARTIAL = dict(n=6, f=2, t_r=4, t_b=3, t_s=2)


def test_partial_spread_config_really_is_weaker():
    cfg = SimConfig(layer="tlcb", seed=5, rounds=8, delay="random", **_PARTIAL)
    res = run(cfg)
    # the promises it does make all hold...
    assert validate_layer(res.trace, "tlcb") == []
    # ...but held to full spread (t_s = n), messages land in B without
    # reaching every receive set
    claim = res.trace.layers["tlcb"]
    full = replace(res.trace, layers={**res.trace.layers, "tlcb": replace(claim, t_s=claim.n)})
    broken = validate_layer(full, "tlcb")
    assert broken and all(s.endswith(f"< t_s={claim.n} nodes") for s in broken)
    # and consensus, which needs full spread, refuses the same thresholds
    with pytest.raises(ConfigError, match="t_r [+] t_s > n"):
        configure("qsc-tlcb", 6, 2, t_r=4, t_b=3, t_s=2)
    with pytest.raises(ConfigError, match="t_r [+] t_s > n"):
        run(SimConfig(layer="qsc-tlcb", seed=5, rounds=2, **_PARTIAL))


@pytest.mark.parametrize("seed", range(4))
def test_full_spread_config_holds_under_stress(seed):
    cfg = SimConfig(layer="tlcb", n=6, seed=seed, rounds=6, f=2,
                    delay="adversarial", crashes=((4, 3, "after"),))
    res = run(cfg)
    assert res.trace.layers["tlcb"].t_s == 6  # the defaults meet t_r + t_s > n
    assert validate_layer(res.trace, "tlcb") == []
