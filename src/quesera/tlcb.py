"""Spread-threshold broadcast built from two receive-threshold steps.

Step one sends the message; step two gossips the first step's receive set.
A message lands in B when at least ``t_s`` of the gossiped sets contain it.
The admission bound on t_b comes from a counting argument over the t_r x n
view matrix: each gossiped set has at least t_r of n entries, so at most
``f_b = t_r * (n - t_r) / (t_r - t_s + 1)`` columns can fall short of t_s
appearances, leaving at least ``n - f_b`` messages spread widely enough to be
witnessed.  With ``t_r + t_s > n`` two receive sets must overlap in a full
set, upgrading the spread promise to all n nodes (full spread).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .tlcr import ConfigError, Tlcr, TlcrConfig
from .tsb import TsbParams, TsbResult
from .wire import Entry, EntrySet, encode_entry_set, entry_set_bytes


def spread_fault_budget(n: int, t_r: int, t_s: int) -> Fraction:
    """Largest number of step-one messages that can miss the t_s spread mark:
    f_b = t_r (n - t_r) / (t_r - t_s + 1), kept exact."""
    if not 0 < t_s <= t_r:
        raise ConfigError(f"0 < t_s <= t_r violated (t_s={t_s}, t_r={t_r})")
    return Fraction(t_r * (n - t_r), t_r - t_s + 1)


@dataclass(frozen=True, slots=True)
class TlcbConfig:
    n: int
    t_r: int
    t_s: int
    t_b: int
    f: int = 0
    full_spread: bool = False

    @property
    def claim(self) -> TsbParams:
        return TsbParams(self.n, self.t_r, self.t_b, self.n if self.full_spread else self.t_s)

    @property
    def inner(self) -> TlcrConfig:
        return TlcrConfig(n=self.n, t_r=self.t_r, f=self.f)


def tlcb_check_config(
    n: int,
    t_r: int,
    t_s: int,
    t_b: int,
    f: int = 0,
    require_full_spread: bool = False,
) -> TlcbConfig:
    """Validate every admission inequality, naming each violation.

    The t_b bound is checked with exact rational arithmetic so integer configs
    sitting exactly on the boundary are admitted.
    """
    bad = []
    if not 0 < t_r <= n - f:
        bad.append(f"0 < t_r <= n - f violated (t_r={t_r}, n={n}, f={f})")
    if not 0 < t_s <= t_r:
        bad.append(f"0 < t_s <= t_r violated (t_s={t_s}, t_r={t_r})")
    if t_b <= 0:
        bad.append(f"0 < t_b violated (t_b={t_b})")
    elif 0 < t_s <= t_r:
        f_b = spread_fault_budget(n, t_r, t_s)
        if Fraction(t_b) > n - f_b:
            bad.append(
                f"t_b <= n - f_b violated (t_b={t_b}, n={n}, f_b={f_b})"
            )
    full = t_r + t_s > n
    if require_full_spread and not full:
        bad.append(f"t_r + t_s > n violated (t_r={t_r}, t_s={t_s}, n={n})")
    if bad:
        raise ConfigError("; ".join(bad))
    return TlcbConfig(n=n, t_r=t_r, t_s=t_s, t_b=t_b, f=f, full_spread=full)


def gather(
    r: Iterable[Entry], gossiped: Iterable[bytes], t_s: int
) -> tuple[EntrySet, EntrySet]:
    """The (R, B) of a gossip step: the first step's receive set ``r`` joined
    with every gossiped receive set (encoded), and the entries that at least
    ``t_s`` of the gossiped sets hold."""
    joined = set(r)
    tallies: Counter = Counter()
    for payload in gossiped:
        entries = entry_set_bytes(payload)
        joined |= entries
        tallies.update(entries)
    return frozenset(joined), frozenset(e for e, hits in tallies.items() if hits >= t_s)


class Tlcb:
    """Two receive-threshold steps per call; shares one inner layer instance
    so its step counter runs across both."""

    def __init__(self, ctx, node: int, config: TlcbConfig, tag: str = "r"):
        self.config = config
        self.inner = Tlcr(ctx, node, config.inner, tag=tag)

    def broadcast(self, m: bytes):
        first = yield from self.inner.broadcast(m)
        second = yield from self.inner.broadcast(encode_entry_set(first.r))
        r, b = gather(first.r, (payload for _, payload in second.r), self.config.t_s)
        return TsbResult(r=r, b=b)
