"""Byte encodings for step messages, receive sets, and history payloads.

Everything here is canonical: set entries are sorted, integers are big-endian,
and decoding verifies the per-entry payload digests, so equal logical values
always produce identical bytes and corrupted frames fail loudly.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .chain import DIGEST_SIZE, ChainError, History, Proposal, decode_proposal

Entry = tuple[int, bytes]  # (sender id, payload bytes)
EntrySet = frozenset[Entry]

# Message kinds.  PLAIN carries a step payload; REQ/ACK/WIT are the
# request/acknowledge/witnessed announcement kinds of the witnessing layer.
PLAIN = "p"
REQ = "q"
ACK = "a"
WIT = "w"
_KINDS = (PLAIN, REQ, ACK, WIT)
_LANES = frozenset(map(chr, range(128)))  # a lane tag is one ASCII character

# Fixed frame header: layer, kind, flags u8, sender u32, step u32, and the
# payload's u32 length prefix.  A piggybacked set adds a u32 count, and each
# of its entries a sender u32, a payload digest and a u32 length prefix.
_FRAME_HEAD = 15
_SET_HEAD = 4
_ENTRY_HEAD = struct.Struct(f">I{DIGEST_SIZE}sI")
# A grouped set's group: the payload digest and its u32 length prefix, then
# after the payload a u32 sender count and the senders.
_GROUP_HEAD = struct.Struct(f">{DIGEST_SIZE}sI")

# Entries kept by each memo below.  A gossiped set or history is read by
# every receiver of its step and again by later lookups in the same round, and
# a piggybacked set rides on every frame its sender sends in a step (a tlcw
# REQ, its n ACKs and its WIT), all within a few dozen distinct values, so a
# small memo catches nearly all of it while its memory stays bounded.  The
# receive-set, grouped-set and history codecs each keep a memo from bytes to
# the value they decode to, and each encoder stores the value it just
# encoded, so the process never parses back bytes it built: a receiver's
# lookup hits.  A miss runs the full verifying decoder, a failed decode is
# never stored, and a damaged copy of stored bytes is another key, so it
# misses and fails as before.  One payload-digest memo serves the set
# encoders and the set decoders' integrity checks, so a payload is hashed
# once however many sets carry it.
DECODE_MEMO_SIZE = 64


class WireError(Exception):
    """Undecodable or integrity-violating frame."""


class DecodeMemo(dict):
    """At most :data:`DECODE_MEMO_SIZE` bytes -> decoded value entries, the
    oldest evicted first.  ``memo[data]`` is the lookup, and takes no lock: a
    dict read is atomic.  A miss runs ``decode``, the uncached verifying
    decoder, and stores only what it returns.  :meth:`put` holds a lock, so
    threads sharing the memo insert and evict safely.  A codec's lookup is
    the memo's bound ``__getitem__``, which stays in C on a hit."""

    __slots__ = ("decode", "_lock")

    def __init__(self, decode: Callable[[bytes], object]):
        super().__init__()
        self.decode = decode
        self._lock = threading.Lock()

    def __missing__(self, data: bytes) -> object:
        value = self.decode(data)
        self.put(data, value)
        return value

    def put(self, data: bytes, value: object) -> None:
        """Remember that ``data`` decodes to ``value``."""
        lock = self._lock
        lock.acquire()  # cheaper than a with block, on every encode
        try:
            self[data] = value
            if len(self) > DECODE_MEMO_SIZE:
                del self[next(iter(self))]
        finally:
            lock.release()


def _pack_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def _unpack_bytes(data: bytes, off: int) -> tuple[bytes, int]:
    if off + 4 > len(data):
        raise WireError("truncated length prefix")
    (n,) = struct.unpack_from(">I", data, off)
    off += 4
    if off + n > len(data):
        raise WireError("truncated byte field")
    return data[off : off + n], off + n


@functools.lru_cache(maxsize=DECODE_MEMO_SIZE)
def payload_digest(payload: bytes) -> bytes:
    """The sha256 digest of one payload.  Memoized: the digest is a pure
    function of the bytes, so a hit is exactly what hashing again gives."""
    return hashlib.sha256(payload).digest()


def encode_entry_set(entries: Iterable[Entry]) -> bytes:
    """Receive-set encoding: count, then (sender u32, payload digest, payload)
    triples sorted by (sender, payload)."""
    if type(entries) is not frozenset:
        entries = frozenset(entries)
    parts = [struct.pack(">I", len(entries))]
    exact = True  # decoding builds bytes payloads, never another bytes-like
    for sender, payload in sorted(entries):
        parts.append(_ENTRY_HEAD.pack(sender, payload_digest(payload), len(payload)))
        parts.append(payload)
        if type(payload) is not bytes:
            exact = False
    data = b"".join(parts)
    if exact:
        entry_set_memo.put(data, entries)
    return data


def decode_entry_set(data: bytes, off: int = 0) -> tuple[EntrySet, int]:
    """Inverse of :func:`encode_entry_set`: entries must come in strictly
    ascending (sender, payload) order, so each set has one encoding, and every
    payload must match its recorded sha256 digest."""
    end = len(data)
    if off + 4 > end:
        raise WireError("truncated set count")
    (count,) = struct.unpack_from(">I", data, off)
    off += 4
    out: list[Entry] = []
    for _ in range(count):
        if off + 4 + DIGEST_SIZE > end:
            raise WireError("truncated set entry")
        if off + _ENTRY_HEAD.size > end:
            raise WireError("truncated length prefix")
        sender, digest, n = _ENTRY_HEAD.unpack_from(data, off)
        off += _ENTRY_HEAD.size
        if off + n > end:
            raise WireError("truncated byte field")
        payload = data[off : off + n]
        off += n
        if payload_digest(payload) != digest:
            raise WireError("set entry digest mismatch")
        entry = (sender, payload)
        if out and entry <= out[-1]:
            raise WireError("set entries out of order or repeated")
        out.append(entry)
    return frozenset(out), off


def _entry_set(data: bytes) -> EntrySet:
    """Decode a whole buffer as one receive set."""
    entries, off = decode_entry_set(data)
    if off != len(data):
        raise WireError("trailing bytes after set")
    return entries


entry_set_memo = DecodeMemo(_entry_set)
entry_set_bytes = entry_set_memo.__getitem__


def encode_grouped_set(entries: Iterable[Entry]) -> bytes:
    """Grouped receive-set encoding, for sets whose payloads repeat: count,
    then per distinct payload in ascending byte order its digest, the
    length-prefixed payload, and its u32 sender count and ascending u32
    senders.  Each payload is written once however many senders hold it."""
    if type(entries) is not frozenset:
        entries = frozenset(entries)
    groups: dict[bytes, set[int]] = {}
    for sender, payload in entries:
        groups.setdefault(payload, set()).add(sender)
    parts = [struct.pack(">I", len(groups))]
    for payload in sorted(groups):
        senders = sorted(groups[payload])
        parts.append(_GROUP_HEAD.pack(payload_digest(payload), len(payload)))
        parts.append(payload)
        parts.append(struct.pack(f">I{len(senders)}I", len(senders), *senders))
    data = b"".join(parts)
    if all(type(p) is bytes for p in groups):  # as for encode_entry_set
        grouped_set_memo.put(data, entries)
    return data


def _grouped_set(data: bytes) -> EntrySet:
    """Decode a whole buffer as one :func:`encode_grouped_set` set, to the
    same value :func:`entry_set_bytes` gives its entry-set encoding.  Groups
    come in strictly ascending payload order, each with one or more strictly
    ascending senders, so each set has one encoding, and every payload must
    match its recorded digest."""
    end = len(data)
    if end < 4:
        raise WireError("truncated set count")
    (count,) = struct.unpack_from(">I", data)
    off = 4
    out: list[Entry] = []
    payload = None
    for _ in range(count):
        if off + _GROUP_HEAD.size > end:
            raise WireError("truncated set entry")
        digest, n = _GROUP_HEAD.unpack_from(data, off)
        off += _GROUP_HEAD.size
        if off + n > end:
            raise WireError("truncated byte field")
        prev, payload = payload, data[off : off + n]
        off += n
        if payload_digest(payload) != digest:
            raise WireError("set entry digest mismatch")
        if prev is not None and payload <= prev:
            raise WireError("set entries out of order or repeated")
        if off + 4 > end:
            raise WireError("truncated set entry")
        (k,) = struct.unpack_from(">I", data, off)
        off += 4
        if off + 4 * k > end:
            raise WireError("truncated set entry")
        senders = struct.unpack_from(f">{k}I", data, off)
        off += 4 * k
        if not senders:
            raise WireError("set group without senders")
        if any(a >= b for a, b in zip(senders, senders[1:])):
            raise WireError("set entries out of order or repeated")
        out.extend((sender, payload) for sender in senders)
    if off != end:
        raise WireError("trailing bytes after set")
    return frozenset(out)


grouped_set_memo = DecodeMemo(_grouped_set)
grouped_set_bytes = grouped_set_memo.__getitem__


@dataclass(slots=True)
class StepMessage:
    """One frame of a threshold-clock layer.

    ``layer`` is a single-character lane tag so stacked layers can share the
    node's FIFO channels without confusing each other's steps.  ``prior_r``
    and ``prior_b`` piggyback the sender's just-completed receive/broadcast
    sets for viral catch-up; layers that do not need them send None.

    A plain slots record, built positionally: the simulator hands one frame
    object to every receiver of a broadcast, and nothing changes it after it
    is sent (tests/test_netsim.py pins this).
    """

    layer: str
    kind: str
    sender: int
    step: int
    payload: bytes
    prior_r: Optional[EntrySet] = None
    prior_b: Optional[EntrySet] = None


def _check_lane(msg: StepMessage) -> None:
    if msg.layer not in _LANES or msg.kind not in _KINDS:
        raise WireError(f"bad layer/kind {msg.layer!r}/{msg.kind!r}")


def encode_step_message(msg: StepMessage) -> bytes:
    """The frame format's reference encoding."""
    _check_lane(msg)
    flags = (1 if msg.prior_r is not None else 0) | (2 if msg.prior_b is not None else 0)
    parts = [
        msg.layer.encode("ascii"),
        msg.kind.encode("ascii"),
        struct.pack(">BII", flags, msg.sender, msg.step),
        _pack_bytes(msg.payload),
    ]
    if msg.prior_r is not None:
        parts.append(encode_entry_set(msg.prior_r))
    if msg.prior_b is not None:
        parts.append(encode_entry_set(msg.prior_b))
    return b"".join(parts)


@functools.lru_cache(maxsize=DECODE_MEMO_SIZE)
def _set_size(entries: EntrySet) -> int:
    """Encoded length of one piggybacked set.  Memoized: a set is immutable,
    and the frames of a step share their sender's two sets."""
    return _SET_HEAD + sum(_ENTRY_HEAD.size + len(p) for _, p in entries)


def frame_size(msg: StepMessage) -> int:
    """``len(encode_step_message(msg))``, worked out from the format without
    building the frame."""
    _check_lane(msg)
    size = _FRAME_HEAD + len(msg.payload)
    if msg.prior_r is not None:
        size += _set_size(msg.prior_r)
    if msg.prior_b is not None:
        size += _set_size(msg.prior_b)
    return size


def decode_step_message(data: bytes) -> StepMessage:
    """The frame format's reference decoding, the inverse of
    :func:`encode_step_message`.  The simulator passes frames as objects, so
    only the round-trip and fuzz tests call it; it stays so that a change to
    the frame format has a decoder to be pinned against."""
    if len(data) < 11:
        raise WireError("frame too short")
    try:
        layer = data[0:1].decode("ascii")
        kind = data[1:2].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError("non-ascii layer/kind") from exc
    if kind not in _KINDS:
        raise WireError(f"unknown kind {kind!r}")
    flags, sender, step = struct.unpack_from(">BII", data, 2)
    if flags & ~3:
        raise WireError(f"unknown flag bits {flags:#x}")
    payload, off = _unpack_bytes(data, 11)
    prior_r = prior_b = None
    if flags & 1:
        prior_r, off = decode_entry_set(data, off)
    if flags & 2:
        prior_b, off = decode_entry_set(data, off)
    if off != len(data):
        raise WireError("trailing bytes after frame")
    return StepMessage(layer, kind, sender, step, payload, prior_r, prior_b)


def encode_history(history: History) -> bytes:
    """History payload: u32 chain length, then the head proposal (absent for
    the empty history)."""
    head = history.head
    if head is None:
        data = struct.pack(">I", 0)
    else:
        data = struct.pack(">I", history.length) + head.encode()
        if type(head.message) is not bytes or type(head.prev) is not bytes:
            return data  # a bytes-like, which decoding would copy: store nothing
    history_memo.put(data, history)
    return data


def decode_history(data: bytes, off: int = 0) -> tuple[History, int]:
    if off + 4 > len(data):
        raise WireError("truncated history length")
    (length,) = struct.unpack_from(">I", data, off)
    off += 4
    if length == 0:
        return History(head=None, length=0), off
    if off + DIGEST_SIZE + 16 > len(data):
        raise WireError("truncated history head")
    (mlen,) = struct.unpack_from(">I", data, off + DIGEST_SIZE + 12)
    end = off + DIGEST_SIZE + 16 + mlen
    if end > len(data):
        raise WireError("truncated history message")
    try:
        head = decode_proposal(data[off:end])
    except ChainError as exc:
        raise WireError(str(exc)) from exc
    return History(head=head, length=length), end


def _history(data: bytes) -> History:
    """Decode a whole buffer as one history payload."""
    history, off = decode_history(data)
    if off != len(data):
        raise WireError("trailing bytes after history")
    return history


history_memo = DecodeMemo(_history)
history_bytes = history_memo.__getitem__


def histories_of(entries: Iterable[Entry]) -> list[History]:
    """Decode each entry payload of a receive set as a history."""
    return [history_bytes(payload) for _, payload in entries]
