"""Reference kernel that measures how fast this CPU runs Python right now.

The benchmark runs on a few cores of a shared host, whose other tenants slow
every Python program on it, by up to two times, for stretches of seconds to
minutes.  Neither taking the fastest of many replays nor measuring CPU time
instead of wall time removes that: the stretches outlast a run, and CPU time
slows as much as wall time.  So the benchmark runs this kernel between its
timed units of work, and scales each unit's times by ``REFERENCE_S`` over the
mean of the kernel's times just before and just after the unit.  A timing
then reads as it would on a CPU that runs the kernel in ``REFERENCE_S``:
roughly one vCPU of a 2-vCPU Xeon virtual machine, CPython 3.11, when the
host is quiet.

The kernel uses only the standard library, never quesera, so a change to the
program does not move it.  It imitates the simulator's mix of interpretive
work: an event heap, generator sends, slotted objects, dict counters,
``struct`` framing and sha256 digests of short frames.  The collector is off
while it runs, so that a bigger program heap cannot slow it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import struct
import time

REFERENCE_S = 0.012  # seconds; see above
STEPS = 6000
NODES = 7


class _Node:
    __slots__ = ("step", "seen", "log")

    def __init__(self) -> None:
        self.step = 0
        self.seen: dict = {}
        self.log: list = []


def _inbox(node: _Node):
    while True:
        msg = yield
        node.step += 1
        key = (msg[0], node.step & 7)
        node.seen[key] = node.seen.get(key, 0) + 1
        if len(node.log) < 64:
            node.log.append(msg)


def _kernel() -> int:
    nodes = [_Node() for _ in range(NODES)]
    inboxes = [_inbox(n) for n in nodes]
    for box in inboxes:
        next(box)
    heap = [(i, i, i, b"x" * 40) for i in range(NODES)]
    seq, acc = NODES, 0
    for _ in range(STEPS):
        t, _, dst, payload = heapq.heappop(heap)
        frame = struct.pack(">BHI", 1, dst, t) + payload
        digest = hashlib.sha256(frame).digest()
        inboxes[dst].send((digest[0], frame))
        acc ^= int.from_bytes(digest[:8], "big")
        heapq.heappush(heap, (t + 1 + (digest[2] & 15), seq, (dst + 1 + (digest[1] & 3)) % NODES,
                              digest[:40]))
        seq += 1
    return acc


_EXPECTED = _kernel()


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _kernel()
        took = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != _EXPECTED:
        raise RuntimeError("reference kernel is not deterministic")
    return took


class Reference:
    """Kernel times taken between the timed units of one run."""

    def __init__(self) -> None:
        self.times = [kernel_seconds()]

    def scale(self) -> float:
        """Factor that turns the times measured since the last call (or
        since construction) into reference time."""
        before, after = self.times[-1], kernel_seconds()
        self.times.append(after)
        return 2 * REFERENCE_S / (before + after)
