"""quesera: lottery-style consensus over threshold step broadcasts.

The pieces, bottom up:

- :mod:`quesera.chain` -- hash-chained histories and the priority order.
- :mod:`quesera.wire` -- canonical byte encodings for frames and sets.
- :mod:`quesera.tsb` -- the broadcast contract (R/B/spread), the
  :class:`quesera.tsb.Thresholds` record every layer takes, and trace
  validators.
- :mod:`quesera.tlcr` / :mod:`quesera.tlcb` / :mod:`quesera.tlcw` /
  :mod:`quesera.tlcf` -- the four step-broadcast layers, each stating the
  name it is recorded under and its claim over the thresholds.
- :mod:`quesera.qsc` -- the two-step consensus round, its commit rule
  (:func:`quesera.qsc.decide`) and its validators.
- :mod:`quesera.netsim` -- the stack table (:data:`quesera.netsim.STACKS`),
  whose rows name the admission rules :func:`quesera.netsim.configure`
  checks, and a deterministic asynchronous simulator with crash injection.
- :mod:`quesera.kvstore` -- write-once key-value stores and line protocol.
- :mod:`quesera.qscod` -- client-driven consensus over those stores, deciding
  by the same commit rule.
- :mod:`quesera.cli` -- the qsc-sim experiment harness.
"""
