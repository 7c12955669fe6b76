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

from .chain import (
    GENESIS,
    GENESIS_DIGEST,
    ChainError,
    History,
    Proposal,
    best_in,
    uniquely_best_in,
)
from .netsim import DeadlockError, Metrics, SimConfig, SimResult, configure, mix64, run
from .qsc import DeliveryRecord, QscState, check_consensus, qsc_round, run_qsc_node
from .tlcb import Tlcb, spread_fault_budget
from .tlcf import Tlcf
from .tlcr import ConfigError, Tlcr, TransportIntegrityError
from .tlcw import Tlcw
from .tsb import RunTrace, Thresholds, TsbParams, TsbResult, validate_layer

__version__ = "0.1.0"

__all__ = [
    "GENESIS",
    "GENESIS_DIGEST",
    "ChainError",
    "ConfigError",
    "DeadlockError",
    "DeliveryRecord",
    "History",
    "Metrics",
    "Proposal",
    "QscState",
    "RunTrace",
    "SimConfig",
    "SimResult",
    "Tlcb",
    "Tlcf",
    "Tlcr",
    "Tlcw",
    "Thresholds",
    "TransportIntegrityError",
    "TsbParams",
    "TsbResult",
    "best_in",
    "check_consensus",
    "configure",
    "mix64",
    "qsc_round",
    "run",
    "run_qsc_node",
    "spread_fault_budget",
    "uniquely_best_in",
    "validate_layer",
    "__version__",
]
