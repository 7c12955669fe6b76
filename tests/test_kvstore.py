"""Write-once stores: first writer wins, restarts and races included."""

from __future__ import annotations

import base64
import errno
import io
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quesera.kvstore import (
    WRITE_MEMO_SIZE,
    FileStore,
    MemoryStore,
    PipeStore,
    ProtocolError,
    b64,
    open_store,
    parse_request,
    read_line,
    serve,
    unb64,
    write_line,
)


def field(data: bytes) -> bytes:
    """A protocol field, encoded here apart from :func:`b64`."""
    return base64.b64encode(data) if data else b"-"


def w(key: bytes, value: bytes) -> bytes:
    return b"W %s %s\n" % (field(key), field(value))


def r(key: bytes) -> bytes:
    return b"R %s\n" % field(key)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    s = open_store(request.param, str(tmp_path / "log"))
    yield s
    s.close()


def test_first_write_settles_the_key(store):
    assert store.write_read(b"k", b"first") == b"first"
    assert store.write_read(b"k", b"second") == b"first"
    assert store.write_read(b"k", b"third") == b"first"
    assert store.write_read(b"fresh", b"x") == b"x"
    # an equal-bytes repeat, even a copy, finds its value standing
    assert store.write_read(b"k", bytes(bytearray(b"first"))) == b"first"
    assert store.read(b"k") == b"first"
    assert store.read(b"nope") is None
    assert len(store.snapshot()) == 2
    # so the server answers A whenever the key holds the offered bytes: a
    # fresh write, a repeat of it, and an equal write to a key another
    # client settled; a write of other bytes gets the value held
    out = io.BytesIO()
    serve(store, [w(b"s", b"v"), w(b"s", b"v"), w(b"k", b"first"), w(b"s", b"other"),
                  r(b"s")], out)
    assert out.getvalue().splitlines() == [b"A", b"A", b"A", b"V dg==", b"V dg=="]


def test_a_write_that_stands_returns_the_offered_object(store):
    """The traced benchmark counts a write as won when ``write_read`` hands
    back the very object offered; a losing write gets the value held."""
    first = bytes(bytearray(b"first"))
    assert store.write_read(b"k", first) is first
    assert store.write_read(b"k", bytes(bytearray(b"first"))) is first
    assert store.write_read(b"k", b"second") == first


def test_empty_bytes_are_legal_keys_and_values(store):
    assert store.write_read(b"", b"") == b""
    assert store.read(b"") == b""
    assert b64(b"") == b"-" and unb64(b"-") == b""


def test_racing_writers_settle_on_one_value(store):
    """Heavy contention: every thread offers its own value for every key and
    all of them must agree on who won each."""
    writers, keys = 12, 60
    outcomes = [dict() for _ in range(writers)]

    def hammer(w):
        for k in range(keys):
            key = b"k%d" % k
            outcomes[w][key] = store.write_read(key, b"from-%d" % w)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for w in range(1, writers):
        assert outcomes[w] == outcomes[0]
    assert store.snapshot() == outcomes[0]


def test_file_store_survives_restart(tmp_path):
    path = str(tmp_path / "wal")
    first = FileStore(path)
    first.write_read(b"a", b"1")
    first.write_read(b"b", b"")
    first.write_read(b"a", b"overwrite-attempt")
    first.close()

    again = FileStore(path)
    assert again.snapshot() == {b"a": b"1", b"b": b""}
    assert again.write_read(b"a", b"post-restart") == b"1"
    again.close()

    # the log itself speaks the wire protocol: one W line per settled key
    with open(path, "rb") as fh:
        lines = [ln.split()[0] for ln in fh if ln.strip()]
    assert lines == [b"W", b"W"]

    # a blank line between appends is skipped on replay
    with open(path, "ab") as fh:
        fh.write(b"\n")
    again = FileStore(path)
    assert again.snapshot() == {b"a": b"1", b"b": b""}
    again.close()


def test_file_store_drops_a_torn_final_line(tmp_path):
    path = tmp_path / "wal"
    first = FileStore(str(path))
    first.write_read(b"a", b"1")
    first.write_read(b"b", b"2")
    first.close()
    whole = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(b"W azI dmFsdWUtdH")  # an append cut short before its newline

    again = FileStore(str(path))
    assert again.snapshot() == {b"a": b"1", b"b": b"2"}
    assert path.read_bytes() == whole
    assert again.write_read(b"k2", b"value-three") == b"value-three"
    again.close()
    reopened = FileStore(str(path))
    assert reopened.snapshot() == {b"a": b"1", b"b": b"2", b"k2": b"value-three"}
    reopened.close()
    assert path.read_bytes() == whole + w(b"k2", b"value-three")

    # a complete line that does not parse is damage, not a torn append;
    # fields are separated by ASCII whitespace alone
    for damage, error in ((b"W azI dmFsdWUtdH\n", "bad base64"),
                          (b"W YR== dmFs\n", "non-canonical base64"),
                          (b"W \xff\xfe dmFs\n", r"bad base64 field '\\xff\\xfe'"),
                          (b"W\x1ca2V5\x1fdmFs\n", "malformed request")):
        path.write_bytes(whole + damage)
        with pytest.raises(ProtocolError, match=error):
            FileStore(str(path))


def test_file_store_appends_whole_lines_through_short_writes(tmp_path):
    path = tmp_path / "wal"
    store = FileStore(str(path))
    log = store._fh

    class Trickle:  # a log that takes at most 3 bytes per write
        def write(self, data):
            return log.write(data[:3])

        def close(self):
            log.close()

    store._fh = Trickle()
    writes = {b"a": b"1", b"": b"", b"key-two": b"value" * 7}
    for key, value in writes.items():
        assert store.write_read(key, value) == value
    assert store.write_read(b"a", b"again") == b"1"
    store.close()
    assert path.read_bytes() == b"".join(w(key, value) for key, value in writes.items())
    again = FileStore(str(path))
    assert again.snapshot() == writes
    again.close()


def test_file_store_cuts_a_failed_append_back_off_its_log(tmp_path):
    """A disk that fills halfway through an append leaves half a line in the
    log: the store cuts it off before the write raises, so the next append
    starts a line of its own and the log still opens."""
    path = tmp_path / "wal"
    store = FileStore(str(path))
    store.write_read(b"a", b"1")
    log = store._fh

    class Full:  # a log that takes half a line, then runs out of space
        def write(self, data):
            log.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):
            return log.fileno()

    store._fh = Full()
    with pytest.raises(OSError) as failed:
        store.write_read(b"b", b"2")
    assert failed.value.errno == errno.ENOSPC
    store._fh = log
    assert path.read_bytes() == w(b"a", b"1")
    assert store.write_read(b"c", b"3") == b"3"
    assert store.write_read(b"b", b"4") == b"4"  # the failed write never stood
    store.close()
    assert path.read_bytes() == w(b"a", b"1") + w(b"c", b"3") + w(b"b", b"4")
    again = FileStore(str(path))
    assert again.snapshot() == {b"a": b"1", b"c": b"3", b"b": b"4"}
    again.close()


@given(st.binary(max_size=80))
@example(b"R YR==")  # nonzero padding bits: 'a' spelled a second way
@example(b"W a2V5 dmFs\xc3\xa9")
@example(b"W \xff\xfe dmFs")
@example(b"W\x1ca2V5\x1fdmFs")  # not whitespace in bytes: one field
def test_parse_request_fails_only_with_protocol_error(line):
    try:
        verb, key, value = parse_request(line)
    except ProtocolError:
        return
    # whatever parses is canonical: it re-encodes to the same fields
    again = read_line(key) if verb == b"R" else write_line(key, value)
    assert again.split() == line.split()


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_request_lines_round_trip(key, value):
    assert parse_request(write_line(key, value)) == (b"W", key, value)
    assert parse_request(read_line(key)) == (b"R", key, None)


@given(st.binary(max_size=64), st.binary(max_size=64))
@example(b"", b"")
def test_write_line_is_the_w_request(key, value):
    assert write_line(key, value) == w(key, value)
    assert read_line(key) == r(key)
    assert write_line.cache_info().maxsize == WRITE_MEMO_SIZE


def test_serve_speaks_the_protocol():
    feed = [
        r(b"k"),
        w(b"k", b"v1"),
        w(b"k", b"v2"),
        w(b"k", b"v3"),
        r(b"k"),
        w(b"", b""),
        w(b"", b"x"),  # the empty value is held: V and its field, -
        b"W onlyonefield\n",
        b"WR azI dmFs\n",  # no write-read verb: W answers A or the value held
        b"HELLO\n",
        b"W ab@! zz\n",  # junk base64
        b"W \xff\xfe dmFs\n",  # not ASCII
        b"W\x1ca2V5\x1cdmFs\n",  # not whitespace in bytes
        b"\n",
    ]
    out = io.BytesIO()
    serve(MemoryStore(), feed, out)
    v1 = field(b"v1")
    assert out.getvalue().splitlines() == [
        b"N", b"A", b"V " + v1, b"V " + v1, b"V " + v1, b"A", b"V -",
        b"E malformed request 'W onlyonefield'",
        b"E malformed request 'WR azI dmFs'",
        b"E malformed request 'HELLO'",
        b"E bad base64 field 'ab@!'",
        b"E bad base64 field '\\xff\\xfe'",
        b"E malformed request 'W\\x1ca2V5\\x1cdmFs'",
    ]


@pytest.mark.parametrize("encoding", ["ascii", "utf-8"])
def test_store_server_survives_strict_io_encodings(encoding):
    """The server reads bytes: a non-ASCII line gets ``E`` and the next one
    is served, whatever the I/O encoding."""
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    got = subprocess.run([sys.executable, "-m", "quesera.kvstore"], env=env,
                         input=b"W \xff\xfe dmFs\nW a2V5 dmFs\n", capture_output=True,
                         timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout == b"E bad base64 field '\\xff\\xfe'\nA\n"


def test_open_store_rejects_nonsense():
    with pytest.raises(ProtocolError, match="unknown backend"):
        open_store("redis")
    with pytest.raises(ProtocolError, match="needs --path"):
        open_store("file")


def test_pipe_store_speaks_the_protocol_and_counts_its_bytes(tmp_path):
    """A store process answers ``A`` or ``V``; its pipe store counts both
    directions, replays the log without cutting an append in progress, and
    reaps the child when closed."""
    log = tmp_path / "pipe.log"
    store = PipeStore(str(log))
    try:
        assert store.write_read(b"k", b"first") == b"first"
        store.send(b"k", b"second")
        assert store.receive() == b"first"
        assert store.sent == len(w(b"k", b"first") + w(b"k", b"second"))
        assert store.received == len(b"A\n" + b"V " + field(b"first") + b"\n")
        with open(log, "ab") as fh:
            fh.write(b"W a2V5")  # an append still being written
        assert store.snapshot() == {b"k": b"first"}
        assert log.read_bytes().endswith(b"W a2V5")
    finally:
        store.close()
    assert store.child.returncode == 0


def test_pipe_store_refuses_a_log_it_cannot_open(tmp_path):
    """A log the child could not open fails in the parent, before a store
    process starts on it."""
    with pytest.raises(FileNotFoundError):
        PipeStore(str(tmp_path / "missing" / "p.log"))


def stub_refusal(tmp_path, reply):
    """The message of the ProtocolError a PipeStore write raises when its
    process answers ``reply``, and that process's pid.  The stub process is
    reaped."""
    store = PipeStore(str(tmp_path / "pipe.log"))
    store.close()
    stub = "import sys; sys.stdin.readline(); sys.stdout.buffer.write(%r)" % reply
    store.child = subprocess.Popen([sys.executable, "-c", stub],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        with pytest.raises(ProtocolError) as refused:
            store.write_read(b"k", b"v")
    finally:
        store.close()
    assert store.child.returncode == 0
    return str(refused.value), store.child.pid


def test_pipe_store_refuses_a_reply_that_is_not_ascii(tmp_path):
    """A store process whose ``V`` reply is not ASCII fails the write with
    ProtocolError naming the process and the line."""
    reply = b"V \xff\xfe\n"
    message, pid = stub_refusal(tmp_path, reply)
    assert message == f"store process {pid} answered {reply!r}"


def test_pipe_store_names_itself_for_a_reply_that_is_not_base64(tmp_path):
    """A ``V`` reply whose field does not decode names the process and the
    line too, and then the field's fault."""
    reply = b"V ab@!\n"
    message, pid = stub_refusal(tmp_path, reply)
    assert message == f"store process {pid} answered {reply!r}: bad base64 field 'ab@!'"
