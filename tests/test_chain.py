"""Histories and the priority order."""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quesera.chain import (
    GENESIS,
    GENESIS_DIGEST,
    ChainError,
    History,
    Proposal,
    best_in,
    decode_proposal,
    encode_proposal,
    uniquely_best_in,
)


def chain_of(*specs: tuple[int, bytes, int]) -> History:
    """Build a history from (proposer, message, priority) triples."""
    h = GENESIS
    for proposer, message, priority in specs:
        h = h.extend(Proposal(proposer=proposer, message=message, priority=priority, prev=h.digest))
    return h


# --- encoding: frozen against a by-hand assembly of the documented layout ---


def test_proposal_encoding_and_digest_frozen():
    p = Proposal(proposer=2, message=b"pay rent", priority=0xDEADBEEF, prev=GENESIS_DIGEST)
    assert len(p.encode()) == 56
    assert p.digest.hex() == "aaf65cc9c4282698f666746daf33eedc61d6fe7f18804f8980937c3cc9a3c443"
    # one more link, empty message
    p2 = Proposal(proposer=0, message=b"", priority=7, prev=p.digest)
    assert p2.digest.hex() == "15dd33cbd83ceeb22ad9d5c10d45ddcf7e4ca5027d4d56088b0d0497f4a4cea5"


def test_encoding_matches_manual_layout():
    p = Proposal(proposer=9, message=b"abc", priority=123456789, prev=b"\x11" * 32)
    manual = (
        b"\x11" * 32
        + struct.pack(">I", 9)
        + struct.pack(">Q", 123456789)
        + struct.pack(">I", 3)
        + b"abc"
    )
    assert p.encode() == manual
    assert p.digest == hashlib.sha256(manual).digest()


@given(
    proposer=st.integers(min_value=0, max_value=(1 << 32) - 1),
    priority=st.integers(min_value=0, max_value=(1 << 64) - 1),
    message=st.binary(max_size=64),
    prev=st.binary(min_size=32, max_size=32),
)
def test_proposal_roundtrip(proposer, priority, message, prev):
    p = Proposal(proposer=proposer, message=message, priority=priority, prev=prev)
    q = decode_proposal(p.encode())
    assert (q.proposer, q.message, q.priority, q.prev, q.digest) == (
        proposer, message, priority, prev, p.digest,
    )


def test_bad_proposals_rejected():
    with pytest.raises(ChainError):
        Proposal(proposer=-1, message=b"", priority=0, prev=GENESIS_DIGEST)
    with pytest.raises(ChainError):
        Proposal(proposer=0, message=b"", priority=1 << 64, prev=GENESIS_DIGEST)
    with pytest.raises(ChainError):
        Proposal(proposer=0, message=b"", priority=0, prev=b"short")
    with pytest.raises(ChainError):
        decode_proposal(b"\x00" * 20)
    good = encode_proposal(GENESIS_DIGEST, 0, 0, b"xy")
    with pytest.raises(ChainError):
        decode_proposal(good + b"extra")


# --- histories ---


def test_history_linking_and_equality():
    h = chain_of((0, b"a", 5), (1, b"b", 9))
    assert h.length == 2
    assert h.head.priority == 9
    assert h.digest == h.head.digest
    detached = History(head=h.head, length=2)  # as decoded off the wire
    assert detached == h and hash(detached) == hash(h)
    assert h.head.message == b"b"
    assert h.head.prev == chain_of((0, b"a", 5)).digest

    with pytest.raises(ChainError):
        GENESIS.extend(Proposal(proposer=0, message=b"x", priority=1, prev=b"\x01" * 32))
    with pytest.raises(ChainError):
        History(head=None, length=3)
    with pytest.raises(ChainError):
        History(head=h.head, length=0)


def test_genesis_has_no_priority():
    assert GENESIS.length == 0
    assert GENESIS.digest == GENESIS_DIGEST
    with pytest.raises(ChainError):
        best_in([GENESIS])
    a, b = chain_of((0, b"a", 5)), chain_of((1, b"b", 9))
    for members in ([a, GENESIS], [GENESIS, b]):
        with pytest.raises(ChainError):
            best_in(members)
        with pytest.raises(ChainError):
            uniquely_best_in(members[0], members)
    # an absent history is refused before any member's priority is read
    assert not uniquely_best_in(a, [GENESIS, b])


# --- the total order ---


def test_best_prefers_high_priority_then_low_proposer_then_digest():
    a = chain_of((3, b"a", 10))
    b = chain_of((1, b"b", 20))
    c = chain_of((2, b"c", 20))
    assert best_in([a, b, c]) == b  # highest priority wins; tie broken by proposer
    d, e = chain_of((1, b"d", 20)), chain_of((1, b"e", 20))
    expected = d if d.digest < e.digest else e
    assert best_in([d, e]) == expected  # full tie falls to digest order
    with pytest.raises(ChainError):
        best_in([])


def test_uniquely_best_disqualified_by_any_tie():
    lone = chain_of((0, b"solo", 42))
    assert uniquely_best_in(lone, [lone])
    rival = chain_of((1, b"rival", 42))
    assert best_in([lone, rival]) == lone  # still *best* by the tie-break...
    assert not uniquely_best_in(lone, [lone, rival])  # ...but not uniquely so
    assert not uniquely_best_in(lone, [rival])  # must be a member
    weaker = chain_of((1, b"w", 41))
    assert uniquely_best_in(lone, [lone, weaker])
    # duplicates of itself do not disqualify
    assert uniquely_best_in(lone, [lone, History(head=lone.head, length=1)])


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), min_size=1, max_size=8))
def test_best_is_a_maximal_member(specs):
    hs = [chain_of((prop, b"m%d" % i, pri)) for i, (prop, pri) in enumerate(specs)]
    top = best_in(hs)
    assert any(top == h for h in hs)
    assert all(h.head.priority <= top.head.priority for h in hs)
    if uniquely_best_in(top, hs):
        assert len({h.digest for h in hs if h.head.priority == top.head.priority}) == 1
    # duplicates and their order change neither answer
    assert best_in(hs + hs[::-1]) == best_in(hs)
    assert uniquely_best_in(top, hs + hs) == uniquely_best_in(top, hs)
