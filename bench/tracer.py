"""In-memory span tracer that wraps quesera's public functions from outside.

The tracer never edits the package: :meth:`Tracer.patch_everywhere` swaps a
traced function for its wrapper in every module that holds a reference to it
(quesera's modules import names directly, so ``qsc.best_in`` and
``chain.best_in`` are two references to one function), :meth:`Tracer.patch`
swaps a method on its class, and :meth:`Tracer.uninstall` puts every
original back.

Time accounting is exclusive and per thread.  Each thread keeps a stack of
active frames; at every push and pop the CPU time since the previous
transition (``time.thread_time``) is charged to the frame on top.  So

- ``self`` of a name is the time spent in its own code, with every traced
  callee (child layers, the transport, codecs) subtracted;
- ``busy`` of a name is the time its frames were on the stack at all.

Generator layers (the TLC ``broadcast`` steps and ``qsc_round``) are wrapped
by a generator that pops its frame at every ``yield`` and pushes it again at
every resumption, so their busy time is only the CPU time between a
resumption and the next yield -- never the time the node sat blocked while
the scheduler ran other nodes.

Fine-grained names (codecs, ``xmit``, ``delay``, store calls) are only
aggregated.  Coarse names in ``span_names`` also leave one span record each:
``(id, name, start, end, parent id, request id)`` with wall-clock
``perf_counter`` bounds, kept in memory and written out by :meth:`dump`; and
while a simulation runs, the simulator's virtual time each one took.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from typing import Callable, Iterable, Optional

CPU = time.thread_time
WALL = time.perf_counter
MAX_SPANS = 400_000  # per thread; further spans are only counted


class _Frame:
    __slots__ = ("name", "span", "parent", "request", "wall0", "enter", "vt0")

    def __init__(self, name, span, parent, request, wall0, vt0):
        self.name = name
        self.span = span
        self.parent = parent
        self.request = request
        self.wall0 = wall0
        self.enter = 0.0
        self.vt0 = vt0


class _ThreadState:
    __slots__ = ("stack", "last", "stats", "spans", "counts", "samples")

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.last = CPU()
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, busy
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)


class Tracer:
    """Collects per-name call counts, self and busy CPU seconds, extra
    counters, virtual-time samples, and coarse spans."""

    def __init__(self, span_names: Iterable[str] = ()):
        self.span_names = frozenset(span_names)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.sim = None  # the Simulator currently running, for virtual time

    # -- per-thread state --

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name: str, k: float = 1) -> None:
        self._state().counts[name] += k

    def sample(self, name: str, value: float) -> None:
        self._state().samples[name].append(value)

    # -- frames --

    def open(self, name: str, request=None) -> _Frame:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if request is None and parent is not None:
            request = parent.request
        span = next(self._ids) if name in self.span_names else 0
        sim = self.sim
        frame = _Frame(name, span, parent.span if parent else 0, request, WALL(),
                       sim.now if sim is not None and span else None)
        st.stats[name][0] += 1
        self._push(st, frame)
        return frame

    def _push(self, st: _ThreadState, frame: _Frame) -> None:
        now = CPU()
        if st.stack:
            st.stats[st.stack[-1].name][1] += now - st.last
        st.last = now
        frame.enter = now
        st.stack.append(frame)

    def suspend(self, frame: _Frame) -> None:
        """Pop ``frame`` (which must be on top) without ending its span."""
        st = self._state()
        now = CPU()
        top = st.stack.pop()
        assert top is frame, (top.name, frame.name)
        row = st.stats[frame.name]
        row[1] += now - st.last
        row[2] += now - frame.enter
        st.last = now

    def resume(self, frame: _Frame) -> None:
        self._push(self._state(), frame)

    def close(self, frame: _Frame, active: bool = True) -> None:
        """End ``frame``'s span; pops it first when it is active."""
        if active:
            self.suspend(frame)
        if frame.vt0 is not None and self.sim is not None:
            self.sample(frame.name + ".vt", self.sim.now - frame.vt0)
        if frame.span:
            st = self._state()
            if len(st.spans) < MAX_SPANS:
                st.spans.append(
                    (frame.span, frame.name, frame.wall0, WALL(), frame.parent, frame.request)
                )
            else:
                st.stats["tracer.dropped_spans"][0] += 1

    # -- wrappers --

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Plain function wrapper; ``after(result, *args)`` updates counters."""

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def wrap_gen(self, name: str, fn: Callable, request: Optional[Callable] = None) -> Callable:
        """Generator-function wrapper: the frame is active only while the
        wrapped generator runs, between a resumption and its next yield.
        ``request(*args)`` names the request the call serves.

        Values sent in are forwarded; exceptions thrown in are not, since the
        simulator only ever resumes its node generators with ``send``."""

        @wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = self.open(name, request(*args) if request else None)
            active = True
            value = None
            try:
                while True:
                    try:
                        out = inner.send(value)
                    except StopIteration as stop:
                        return stop.value
                    self.suspend(frame)
                    active = False
                    try:
                        value = yield out
                    except GeneratorExit:
                        inner.close()
                        raise
                    self.resume(frame)
                    active = True
            finally:
                self.close(frame, active)

        return traced

    # -- patching --

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules: Iterable[object], original: object,
                         replacement: object) -> None:
        """Replace every module-level reference to ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --

    def _all(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self CPU seconds, busy CPU seconds), all threads."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for st in self._all():
            for name, (calls, self_s, busy) in st.stats.items():
                row = out[name]
                row[0] += calls
                row[1] += self_s
                row[2] += busy
        return {name: tuple(row) for name, row in out.items()}

    def counts(self) -> dict[str, float]:
        """Counter totals over all threads (missing names read as 0)."""
        out: dict[str, float] = defaultdict(float)
        for st in self._all():
            for name, k in st.counts.items():
                out[name] += k
        return out

    def samples(self) -> dict[str, list]:
        """Sample lists over all threads (missing names read as empty)."""
        out: dict[str, list] = defaultdict(list)
        for st in self._all():
            for name, values in st.samples.items():
                out[name].extend(values)
        return out

    def spans(self) -> list[tuple]:
        return sorted((s for st in self._all() for s in st.spans), key=lambda s: s[2])

    def dump(self, path: str) -> int:
        """Write the spans as JSON lines; returns how many."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent or None, "request": request}) + "\n")
        return len(spans)
