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
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .tlcr import ConfigError, Tlcr
from .tsb import Thresholds, TsbResult
from .wire import Entry, EntrySet, encode_entry_set, entry_set_bytes


def spread_fault_budget(n: int, t_r: int, t_s: int) -> Fraction:
    """Largest number of step-one messages that can miss the t_s spread mark:
    f_b = t_r (n - t_r) / (t_r - t_s + 1), kept exact."""
    if not 0 < t_s <= t_r:
        raise ConfigError(f"0 < t_s <= t_r violated (t_s={t_s}, t_r={t_r})")
    return Fraction(t_r * (n - t_r), t_r - t_s + 1)


def gather(
    r: Iterable[Entry], sets: Sequence[EntrySet], t_s: int
) -> tuple[EntrySet, EntrySet]:
    """The (R, B) of a gossip step: the first step's receive set ``r`` joined
    with every gossiped receive set, already decoded, and the entries that at
    least ``t_s`` of those sets hold."""
    tallies = Counter(chain.from_iterable(sets))
    return (
        frozenset(r).union(*sets),
        frozenset(e for e, hits in tallies.items() if hits >= t_s),
    )

class Tlcb:
    """Two receive-threshold steps per call; shares one inner layer instance
    so its step counter runs across both."""

    name = "tlcb"
    subs = (("inner", Tlcr, 2),)

    @staticmethod
    def claim(th: Thresholds) -> Thresholds:
        """With t_r + t_s > n the spread is full."""
        t_s = th.n if th.t_r + th.t_s > th.n else th.t_s
        return Thresholds(th.n, th.f, th.t_r, th.t_b, t_s)

    def __init__(self, ctx, node: int, th: Thresholds):
        self.t_s = th.t_s
        self.inner = Tlcr(ctx, node, th)

    def broadcast(self, m: bytes):
        first = yield from self.inner.broadcast(m)
        second = yield from self.inner.broadcast(encode_entry_set(first.r))
        r, b = gather(first.r, [entry_set_bytes(p) for _, p in second.r], self.t_s)
        return TsbResult(r, b)
