"""Hash-chained proposal histories and the priority order that picks winners.

A history is a chain of proposals, each committing to its predecessor by
digest.  Only the head proposal ever travels on the wire; the digest of the
head identifies the whole chain.  Priorities are uniform 64-bit integers and
the total order used everywhere is: higher priority wins, ties broken by
lower proposer id, then by lexicographically smaller digest.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

DIGEST_SIZE = 32
GENESIS_DIGEST = b"\x00" * DIGEST_SIZE

MAX_PROPOSER = (1 << 32) - 1
MAX_PRIORITY = (1 << 64) - 1

Digest = bytes


class ChainError(Exception):
    """Malformed proposal/history data or an unresolvable chain walk."""


def encode_proposal(prev: bytes, proposer: int, priority: int, message: bytes) -> bytes:
    """Canonical proposal bytes: prev digest, proposer u32, priority u64,
    u32-length-prefixed message.  This encoding is what gets digested, so it
    must never change shape."""
    return b"".join(
        (prev, struct.pack(">IQI", proposer, priority, len(message)), message)
    )


def decode_proposal(data: bytes) -> "Proposal":
    if len(data) < DIGEST_SIZE + 16:
        raise ChainError("proposal encoding truncated")
    prev = data[:DIGEST_SIZE]
    proposer, priority, mlen = struct.unpack_from(">IQI", data, DIGEST_SIZE)
    body = data[DIGEST_SIZE + 16 :]
    if len(body) != mlen:
        raise ChainError("proposal message length mismatch")
    return Proposal(proposer=proposer, message=body, priority=priority, prev=prev)


@dataclass(frozen=True, slots=True)
class Proposal:
    """One history entry: a proposer's message plus its random priority,
    committed to a predecessor history by digest."""

    proposer: int
    message: bytes
    priority: int
    prev: Digest
    digest: Digest = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.proposer <= MAX_PROPOSER:
            raise ChainError(f"proposer {self.proposer} out of range")
        if not 0 <= self.priority <= MAX_PRIORITY:
            raise ChainError(f"priority {self.priority} out of range")
        if len(self.prev) != DIGEST_SIZE:
            raise ChainError("prev digest must be 32 bytes")
        enc = encode_proposal(self.prev, self.proposer, self.priority, self.message)
        object.__setattr__(self, "digest", hashlib.sha256(enc).digest())

    def encode(self) -> bytes:
        return encode_proposal(self.prev, self.proposer, self.priority, self.message)


@dataclass(frozen=True, slots=True)
class History:
    """A proposal chain, identified by the digest of its head.

    Only the head is held: earlier entries are reached by walking prev
    digests through whatever recorded them.  Equality and hashing go by
    digest.
    """

    head: Optional[Proposal]
    length: int

    def __post_init__(self) -> None:
        if self.head is None and self.length != 0:
            raise ChainError("headless history must have length 0")
        if self.head is not None and self.length < 1:
            raise ChainError("history with a head needs length >= 1")

    @property
    def digest(self) -> Digest:
        return GENESIS_DIGEST if self.head is None else self.head.digest

    def extend(self, proposal: Proposal) -> "History":
        if proposal.prev != self.digest:
            raise ChainError("proposal does not chain onto this history")
        return History(head=proposal, length=self.length + 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)


GENESIS = History(head=None, length=0)


def _rank(history: History) -> tuple[int, int, bytes]:
    head = history.head
    if head is None:
        raise ChainError("the empty history has no priority")
    return (-head.priority, head.proposer, head.digest)


def best_in(histories: Iterable[History]) -> History:
    """The best history of a non-empty set: maximal priority, ties broken by
    lowest proposer id, then smallest digest.  Deterministic: copies of one
    history share a rank, and ``min`` keeps the first."""
    best = min(histories, key=_rank, default=None)
    if best is None:
        raise ChainError("best_in of an empty set")
    return best


def uniquely_best_in(history: History, histories: Iterable[History]) -> bool:
    """True iff ``history`` is in the set and every *other* member has strictly
    lower priority.  A priority tie with anything else disqualifies it."""
    digest, present, rivals = history.digest, False, []
    for h in histories:
        if h.digest == digest:
            present = True
        else:
            rivals.append(h)
    if not present:  # decided before any priority is read
        return False
    key = _rank(history)[0]  # minus the priority
    return all(_rank(h)[0] > key for h in rivals)
