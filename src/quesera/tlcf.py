"""Full-spread witnessed broadcast: a witnessing step plus one gossip step.

The witnessing step produces the certified B; the follow-up gossip step makes
every receive set absorb enough peers' receive sets that, with
``t_r + t_s > n``, each witnessed message is guaranteed to appear in all of
them.  This gets full spread at witness cost, which is what lets a consensus
round over n = 2f + 1 nodes succeed with probability >= 1/2.
"""

from __future__ import annotations

from .tlcr import Tlcr
from .tlcw import Tlcw
from .tsb import Thresholds, TsbResult
from .wire import encode_entry_set, entry_set_bytes


class Tlcf:
    """One witnessing sub-step then one gossip sub-step per call."""

    name = "tlcf"
    subs = (("witness", Tlcw, 1), ("gossip", Tlcr, 1))

    @staticmethod
    def claim(th: Thresholds) -> Thresholds:
        return Thresholds(th.n, th.f, th.t_r, th.t_b, th.n)

    def __init__(self, ctx, node: int, th: Thresholds):
        self.witness = Tlcw(ctx, node, th)
        self.gossip = Tlcr(ctx, node, th)

    def broadcast(self, m: bytes):
        first = yield from self.witness.broadcast(m)
        second = yield from self.gossip.broadcast(encode_entry_set(first.r))
        r = frozenset(first.r).union(*[entry_set_bytes(p) for _, p in second.r])
        return TsbResult(r, first.b)
