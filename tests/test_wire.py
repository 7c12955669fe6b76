"""Frame and set encodings: canonical bytes, round-trips, integrity checks."""

from __future__ import annotations

import hashlib
import struct
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quesera.chain import GENESIS, GENESIS_DIGEST, MAX_PRIORITY, MAX_PROPOSER, History, Proposal
from quesera.wire import (
    ACK,
    DECODE_MEMO_SIZE,
    PLAIN,
    REQ,
    WIT,
    StepMessage,
    WireError,
    _set_size,
    decode_entry_set,
    decode_step_message,
    encode_entry_set,
    encode_grouped_set,
    encode_history,
    encode_step_message,
    entry_set_bytes,
    entry_set_memo,
    frame_size,
    grouped_set_bytes,
    grouped_set_memo,
    histories_of,
    history_bytes,
    history_memo,
    payload_digest,
)

KINDS = (PLAIN, REQ, ACK, WIT)


def test_entry_set_is_canonical_and_frozen():
    # duplicates collapse, order does not matter, bytes are stable
    blob = encode_entry_set([(3, b"zz"), (1, b"aa"), (3, b"aa"), (1, b"aa")])
    assert blob == encode_entry_set([(1, b"aa"), (3, b"aa"), (3, b"zz")])
    assert len(blob) == 130
    assert hashlib.sha256(blob).hexdigest() == (
        "49a4815d09dc005c01ce9e594e3121c84bbd98e6746d2cd0fcd430b8d8c0833a"
    )
    assert entry_set_bytes(blob) == frozenset({(1, b"aa"), (3, b"aa"), (3, b"zz")})


def test_entry_set_edges_and_corruption():
    assert entry_set_bytes(encode_entry_set([])) == frozenset()
    assert entry_set_bytes(encode_entry_set([(0, b"")])) == frozenset({(0, b"")})
    blob = bytearray(encode_entry_set([(1, b"hello")]))
    blob[-1] ^= 0xFF  # payload no longer matches its recorded digest
    with pytest.raises(WireError):
        entry_set_bytes(bytes(blob))
    with pytest.raises(WireError):
        entry_set_bytes(encode_entry_set([(1, b"x")]) + b"tail")
    with pytest.raises(WireError):
        decode_entry_set(b"\x00\x00\x00\x05", 0)  # claims entries it lacks


@given(
    st.sets(
        st.tuples(st.integers(0, 1000), st.binary(max_size=32)), max_size=8
    )
)
def test_entry_set_roundtrip(entries):
    got, off = decode_entry_set(encode_entry_set(entries))
    assert got == frozenset(entries)


def test_step_message_roundtrip_all_shapes():
    for kind in (PLAIN, REQ, ACK, WIT):
        for prior_r, prior_b in (
            (None, None),
            (frozenset({(0, b"m")}), None),
            (frozenset({(1, b"a")}), frozenset({(1, b"a"), (2, b"")})),
        ):
            msg = StepMessage(
                layer="w", kind=kind, sender=5, step=12,
                payload=b"\x00\xffbody", prior_r=prior_r, prior_b=prior_b,
            )
            assert decode_step_message(encode_step_message(msg)) == msg


def _raw_set(entries) -> bytes:
    """Entry-set bytes holding the entries exactly as listed: in any order,
    repeats included."""
    return struct.pack(">I", len(entries)) + b"".join(
        struct.pack(">I", sender) + hashlib.sha256(p).digest() + struct.pack(">I", len(p)) + p
        for sender, p in entries)


def _raw_frame(flags: int, payload: bytes, *sets: bytes) -> bytes:
    head = b"rp" + struct.pack(">BIII", flags, 0, 1, len(payload))
    return head + payload + b"".join(sets)


shared_payloads = st.one_of(st.sampled_from([b"", b"a", b"shared"]), st.binary(max_size=40))


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), shared_payloads), max_size=10))
def test_entry_set_matches_a_field_by_field_reference(entries):
    # repeats collapse and the rest is sorted, then each field as the format says
    assert encode_entry_set(entries) == _raw_set(sorted(set(entries)))


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), shared_payloads), max_size=10))
def test_grouped_set_decodes_to_the_entry_set(entries):
    assert grouped_set_bytes(encode_grouped_set(entries)) == entry_set_bytes(
        encode_entry_set(entries))


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), shared_payloads), max_size=10))
def test_grouped_set_length(entries):
    groups = {}
    for sender, payload in entries:
        groups.setdefault(payload, set()).add(sender)
    want = 4 + sum(40 + len(p) + 4 * len(senders) for p, senders in groups.items())
    assert len(encode_grouped_set(entries)) == want


def _raw_grouped(groups) -> bytes:
    """Grouped-set bytes holding the groups exactly as listed: payloads and
    senders in any order, repeats and empty groups included."""
    return struct.pack(">I", len(groups)) + b"".join(
        hashlib.sha256(p).digest() + struct.pack(f">I{len(p)}sI{len(ss)}I", len(p), p,
                                                 len(ss), *ss)
        for p, ss in groups)


raw_grouped_sets = st.builds(_raw_grouped, st.lists(st.tuples(
    st.sampled_from([b"", b"a", b"b"]), st.lists(st.integers(0, 2), max_size=3)), max_size=3))


def test_grouped_set_rejects_each_fault_by_name():
    ok = [(b"a", [0, 2]), (b"b", [1])]
    assert grouped_set_bytes(_raw_grouped(ok)) == {(0, b"a"), (2, b"a"), (1, b"b")}
    for groups, error in (
        (ok[::-1], "out of order or repeated"),
        ([ok[0], ok[0]], "out of order or repeated"),
        ([(b"a", [2, 0])], "out of order or repeated"),
        ([(b"a", [0, 0])], "out of order or repeated"),
        ([(b"a", [])], "without senders"),
    ):
        with pytest.raises(WireError, match=error):
            grouped_set_bytes(_raw_grouped(groups))
    blob = _raw_grouped(ok)
    for data, error in ((b"", "truncated set count"), (blob[:20], "truncated set entry"),
                        (blob[:40], "truncated byte field"), (blob[:43], "truncated set entry"),
                        (blob[:45], "truncated set entry"),
                        (blob + b"x", "trailing bytes after set"),
                        (_flip(blob, 40, 1), "digest mismatch")):
        with pytest.raises(WireError, match=error):
            grouped_set_bytes(data)


def test_a_warm_digest_memo_still_verifies():
    blob = encode_entry_set([(1, b"warm"), (4, b"memo")])  # both digests now memoized
    assert payload_digest(b"warm") == hashlib.sha256(b"warm").digest()
    digest_at = 4 + 4  # set count, then the first entry's sender
    payload_at = digest_at + 32 + 4  # its digest, then its length prefix
    for at in (digest_at, payload_at):
        bad = _flip(blob, at, 0x01)
        for _ in range(2):  # a failure is never remembered
            with pytest.raises(WireError, match="set entry digest mismatch"):
                decode_entry_set(bad)
            with pytest.raises(WireError, match="set entry digest mismatch"):
                entry_set_bytes(bad)
    assert entry_set_bytes(blob) == {(1, b"warm"), (4, b"memo")}
    assert payload_digest.cache_info().currsize <= DECODE_MEMO_SIZE


def test_step_message_rejects_garbage():
    with pytest.raises(WireError):
        decode_step_message(b"")
    with pytest.raises(WireError):
        decode_step_message(b"r?" + b"\x00" * 9 + b"\x00\x00\x00\x00")
    with pytest.raises(WireError):  # lane tags are ASCII
        decode_step_message(b"\xff" + b"p" + bytes(13))
    with pytest.raises(WireError):
        decode_step_message(b"r\xff" + bytes(13))
    good = encode_step_message(StepMessage("r", PLAIN, 0, 1, b"m"))
    with pytest.raises(WireError):
        decode_step_message(good + b"x")
    with pytest.raises(WireError):
        encode_step_message(StepMessage("rr", PLAIN, 0, 1, b"m"))
    # one encoding per value: no unknown flag bits, set entries strictly ascending
    assert decode_step_message(_raw_frame(0, b"m")) == StepMessage("r", PLAIN, 0, 1, b"m")
    with pytest.raises(WireError, match="flag"):
        decode_step_message(_raw_frame(4, b"m"))
    ordered = [(0, b"b"), (1, b"a")]
    assert decode_step_message(_raw_frame(1, b"m", _raw_set(ordered))).prior_r == set(ordered)
    for entries in (ordered[::-1], [(0, b"b"), (0, b"b")], [(0, b"b"), (0, b"a")]):
        with pytest.raises(WireError, match="out of order or repeated"):
            decode_step_message(_raw_frame(1, b"m", _raw_set(entries)))


def test_history_codec():
    assert history_bytes(encode_history(GENESIS)) == GENESIS
    p = Proposal(proposer=1, message=b"m", priority=9, prev=GENESIS_DIGEST)
    h = GENESIS.extend(p)
    back = history_bytes(encode_history(h))
    assert back == h and back.length == 1 and back.head == p
    assert histories_of([(0, encode_history(h)), (1, encode_history(GENESIS))]) == [h, GENESIS]
    with pytest.raises(WireError):
        history_bytes(encode_history(h)[:-1])
    with pytest.raises(WireError):
        history_bytes(encode_history(h) + b"\x00")


entry_sets = st.one_of(
    st.none(),
    st.frozensets(st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=64)), max_size=8),
)
step_messages = st.builds(
    StepMessage,
    layer=st.characters(max_codepoint=127),
    kind=st.sampled_from(KINDS),
    sender=st.integers(0, 2**32 - 1),
    step=st.integers(0, 2**32 - 1),
    payload=st.one_of(st.binary(max_size=64), st.binary(min_size=4096, max_size=70000)),
    prior_r=entry_sets,
    prior_b=entry_sets,
)


@given(step_messages)
def test_frame_size_is_the_encoded_length(msg):
    assert frame_size(msg) == len(encode_step_message(msg))


def test_frame_size_of_frames_sharing_their_sets():
    # one witnessed step: a REQ, an ACK per peer and a WIT, all carrying the
    # sender's same two set objects
    prior_r = frozenset({(0, b"a" * 40), (1, b""), (2, bytes(range(200)))})
    prior_b = frozenset({(0, b"a" * 40)})
    step = [StepMessage("w", REQ, 3, 7, b"m", prior_r, prior_b)]
    step += [StepMessage("w", ACK, 3, 7, b"p%d" % peer, prior_r, prior_b) for peer in range(5)]
    step += [StepMessage("w", WIT, 3, 7, b"m", prior_r, prior_b)]
    for msg in step:
        assert frame_size(msg) == len(encode_step_message(msg))
    # a set equal to a remembered one, as a distinct object, sizes the same
    twin_r = frozenset(list(prior_r))
    assert twin_r == prior_r and twin_r is not prior_r
    for msg in (StepMessage("r", PLAIN, 1, 2, b"", twin_r),
                StepMessage("w", ACK, 1, 2, b"xy", frozenset(prior_b), twin_r),
                StepMessage("w", ACK, 1, 2, b"xy", twin_r, frozenset())):
        assert frame_size(msg) == len(encode_step_message(msg))


def test_set_size_memo_stays_bounded():
    for k in range(3 * DECODE_MEMO_SIZE):
        entries = frozenset({(k, b"x" * (k % 7)), (k + 1, b"")})
        msg = StepMessage("r", PLAIN, 0, 1, b"m", entries, entries)
        assert frame_size(msg) == len(encode_step_message(msg))
        assert _set_size.cache_info().currsize <= DECODE_MEMO_SIZE


@pytest.mark.parametrize("layer,kind", [("", PLAIN), ("rr", PLAIN), ("\xe9", PLAIN),
                                        ("r", "x"), ("r", "")])
def test_frame_size_rejects_what_encoding_rejects(layer, kind):
    msg = StepMessage(layer, kind, 0, 1, b"m", frozenset({(0, b"m")}))
    with pytest.raises(WireError) as sized:
        frame_size(msg)
    with pytest.raises(WireError) as encoded:
        encode_step_message(msg)
    assert str(sized.value) == str(encoded.value)


DECODERS = (
    decode_step_message,
    lambda data: decode_entry_set(data, 0),
    entry_set_bytes,
    grouped_set_bytes,
    history_bytes,
)


def _valid_encodings():
    h = GENESIS.extend(Proposal(proposer=2, message=b"msg", priority=7, prev=GENESIS_DIGEST))
    sets = frozenset({(0, encode_history(h)), (3, b"")})
    return [
        encode_step_message(StepMessage("w", WIT, 1, 2, b"m", sets, sets)),
        encode_step_message(StepMessage("r", PLAIN, 4, 9, encode_history(h))),
        encode_entry_set(sets),
        encode_grouped_set(sets | {(1, b"")}),
        encode_history(h),
        encode_history(GENESIS),
    ]


def _flip(blob: bytes, at: int, mask: int) -> bytes:
    out = bytearray(blob)
    out[at % len(out)] ^= mask
    return bytes(out)


valid_encodings = st.sampled_from(_valid_encodings())
raw_sets = st.builds(
    _raw_set, st.lists(st.tuples(st.integers(0, 2), st.binary(max_size=2)), max_size=4))
damaged = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda blob, cut: blob[:cut], valid_encodings, st.integers(0, 400)),
    st.builds(_flip, valid_encodings, st.integers(0, 400), st.integers(1, 255)),
    raw_sets,
    raw_grouped_sets,
    st.builds(_raw_frame, st.integers(0, 255), st.binary(max_size=4), raw_sets, raw_sets),
)


@given(damaged)
def test_decoders_fail_only_with_wire_error(data):
    for decode in DECODERS:
        try:
            decode(data)
        except WireError:
            pass


@given(damaged)
def test_decoders_accept_only_canonical_bytes(data):
    for decode, encode in ((decode_step_message, encode_step_message),
                           (entry_set_bytes, encode_entry_set),
                           (grouped_set_bytes, encode_grouped_set),
                           (history_bytes, encode_history)):
        try:
            value = decode(data)
        except WireError:
            continue
        assert encode(value) == data


MEMOS = ((entry_set_memo, entry_set_bytes), (grouped_set_memo, grouped_set_bytes),
         (history_memo, history_bytes))


@given(damaged)
def test_memoized_decoders_verify_every_miss_and_stay_bounded(data):
    for memo, cached in MEMOS:
        try:
            fresh = memo.decode(data)
        except WireError:
            for _ in range(2):  # a failure is never remembered
                with pytest.raises(WireError):
                    cached(data)
                assert data not in memo
        else:
            got = cached(data)
            assert got == fresh and got is cached(data)
            if isinstance(fresh, History):  # History equality is by digest only
                assert (got.head, got.length) == (fresh.head, fresh.length)
        assert len(memo) <= DECODE_MEMO_SIZE


entry_lists = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=8)), max_size=6)
histories = st.one_of(st.just(GENESIS), st.builds(
    History,
    head=st.builds(Proposal, proposer=st.integers(0, MAX_PROPOSER), message=st.binary(max_size=40),
                   priority=st.integers(0, MAX_PRIORITY), prev=st.binary(min_size=32, max_size=32)),
    length=st.integers(1, 2**32 - 1)))
CODECS = {
    "entry-set": (encode_entry_set, entry_set_memo, entry_lists),
    "grouped-set": (encode_grouped_set, grouped_set_memo, entry_lists),
    "history": (encode_history, history_memo, histories),
}


def _same_decoding(got, want):
    assert got == want
    if isinstance(want, History):  # History equality is by digest only
        assert (got.head, got.length) == (want.head, want.length)


@pytest.mark.parametrize("codec", CODECS)
@given(data=st.data())
def test_each_encoder_stores_what_decoding_its_bytes_gives(codec, data):
    """The memo's value for freshly encoded bytes is what the uncached
    decoder reads from them; a copy with one byte flipped is another key,
    which decodes, or fails, exactly as the uncached decoder does."""
    encode, memo, values = CODECS[codec]
    blob = encode(data.draw(values))
    assert blob in memo
    _same_decoding(memo.get(blob), memo.decode(blob))
    bad = _flip(blob, data.draw(st.integers(0, len(blob) - 1)), data.draw(st.integers(1, 255)))
    try:
        want = memo.decode(bad)
    except WireError as exc:
        with pytest.raises(WireError) as got:
            memo[bad]
        assert str(got.value) == str(exc)
        assert bad not in memo
    else:
        _same_decoding(memo[bad], want)


def test_encoders_store_no_other_bytes_like():
    """A value holding a bytes-like other than bytes encodes as before, but
    is not stored: decoding builds bytes, and a bytearray could change
    under the memo, as the message here does."""
    message = bytearray(b"mutable")
    h = GENESIS.extend(Proposal(proposer=1, message=message, priority=3, prev=GENESIS_DIGEST))
    blob = encode_history(h)
    assert blob not in history_memo
    message[0] ^= 1
    assert history_bytes(blob).head.message == b"mutable"
    view = memoryview(b"view")  # hashable, and its owner may release it
    for encode, memo in ((encode_entry_set, entry_set_memo), (encode_grouped_set, grouped_set_memo)):
        blob = encode([(0, view), (1, view)])
        assert blob not in memo
        assert memo[blob] == {(0, b"view"), (1, b"view")}


def test_threads_share_the_memos_safely():
    """Four threads encode and read back their own histories and grouped
    sets, 3 x DECODE_MEMO_SIZE of each, and each also reads the others'
    latest, while evictions race their inserts."""
    latest: list[bytes] = [encode_history(GENESIS)] * 4
    errors: list[BaseException] = []

    def work(t: int) -> None:
        try:
            for k in range(3 * DECODE_MEMO_SIZE):
                m = b"%d/%d" % (t, k)
                h = GENESIS.extend(Proposal(proposer=t, message=m, priority=k, prev=GENESIS_DIGEST))
                entries = frozenset({(t, m), (t + 4, m), (k, b"")})
                for encode, memo, value in ((encode_history, history_memo, h),
                                            (encode_grouped_set, grouped_set_memo, entries)):
                    blob = encode(value)
                    _same_decoding(memo[blob], value)
                    _same_decoding(memo.decode(blob), value)
                latest[t] = encode_history(h)
                other = latest[(t + 1) % 4]
                _same_decoding(history_bytes(other), history_memo.decode(other))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(history_memo) <= DECODE_MEMO_SIZE
    assert len(grouped_set_memo) <= DECODE_MEMO_SIZE
