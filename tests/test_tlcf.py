"""Fused witness-then-gossip layer: admission and the full-spread guarantee."""

from __future__ import annotations

import pytest

from quesera.netsim import SimConfig, configure, run
from quesera.tlcf import Tlcf
from quesera.tlcr import ConfigError
from quesera.tsb import validate_layer, validate_substeps


def test_configure_requires_overlap():
    cfg = configure("tlcf", 3, 1, t_r=2, t_b=2, t_s=2)
    assert Tlcf.claim(cfg).t_s == 3  # spread promise covers every node
    configure("tlcf", 5, 2, t_r=3, t_b=3, t_s=3)
    with pytest.raises(ConfigError, match="t_r [+] t_s > n"):
        configure("tlcf", 6, 2, t_r=3, t_b=3, t_s=3)
    with pytest.raises(ConfigError, match="t_b <= n - f"):
        configure("tlcf", 3, 1, t_r=2, t_b=3, t_s=2)


CRASH_MENU = {
    3: ((), ((0, 2, "before"),), ((2, 3, "after"),), ((1, 5, "before"),)),
    5: ((), ((0, 2, "before"), (3, 4, "after")), ((4, 1, "before"),),
        ((1, 3, "after"), (2, 6, "before"))),
}


@pytest.mark.parametrize("n,f", [(3, 1), (5, 2)])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("delay", ["random", "adversarial"])
def test_full_spread_survives_minority_crashes(n, f, seed, delay):
    """A majority of live nodes is enough: every witnessed message reaches
    every surviving receive set, through crashes and skew alike."""
    cfg = SimConfig(layer="tlcf", n=n, seed=seed, rounds=6, f=f, delay=delay,
                    crashes=CRASH_MENU[n][seed])
    res = run(cfg)
    assert validate_layer(res.trace, "tlcf") == []  # B within R too


def test_each_call_uses_one_witness_and_one_gossip_substep():
    res = run(SimConfig(layer="tlcf", n=3, seed=9, rounds=5, f=1))
    assert validate_substeps(res.trace, "tlcf", "tlcw", 1) == []
    assert validate_substeps(res.trace, "tlcf", "tlcr", 1) == []
    assert validate_layer(res.trace, "tlcw") == []
    assert validate_layer(res.trace, "tlcr") == []
