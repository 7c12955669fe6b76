"""Write-once key-value stores and their line protocol.

A store maps byte keys to byte values where the first write of a key wins
forever: the fundamental call is write_read, which stores the offered value
only if the key is fresh and returns whatever the key holds afterwards.
Losing a race is not an error -- the caller learns the winning value, which
is exactly what an optimistic-concurrency client needs.  On the wire a write
whose value stands is answered ``A``, so the value is not sent back.

Two backends share the semantics: an in-memory dict, and an append-only log
file that doubles as a protocol transcript, so reopening a file store replays
its own wire format.  The protocol is line-oriented with base64 fields (the
empty byte string is spelled ``-``)::

    W <key> <value>     -> A            (the key holds this value)
                           V <existing> (lost: key holds another value)
    R <key>             -> V <value> or N

A :class:`PipeStore` is a client of that protocol: it runs a file store in
a child process and talks to it over pipes, so a store can hang or die
apart from its clients.  In-process stores are thread-safe; a pipe store
serves one thread at a time.  Every field is canonical and fields are
separated by ASCII whitespace alone: a line that parses re-encodes to the
same fields, so one key or value has one spelling.  The protocol is bytes
throughout, so the server answers any input line whatever the I/O encoding.
Each line kind has one encoder, used by the logs, the pipes, the server and
a client's bill alike: :func:`write_line`, which encodes a write once for
every store it is offered to, :func:`read_line` and :func:`reply`.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import functools
import os
import sys
import threading
from typing import BinaryIO, Iterable, Optional


class ProtocolError(Exception):
    pass


def _shown(raw: bytes) -> str:
    """``raw`` quoted, its ASCII as it is and other bytes as escapes."""
    return repr(raw)[1:]  # without the b prefix


def b64(data: bytes) -> bytes:
    return binascii.b2a_base64(data, newline=False) if data else b"-"


def unb64(field: bytes) -> bytes:
    if field == b"-":
        return b""
    try:
        data = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error, a non-alphabet byte included
        raise ProtocolError(f"bad base64 field {_shown(field)}") from exc
    if b64(data) != field:  # nonzero padding bits, or b"" for the empty string
        raise ProtocolError(f"non-canonical base64 field {_shown(field)}")
    return data


# A client offers one slot's key and value objects to each of its n store
# columns, so the slot's W line is encoded once and the other columns, and
# the bill of each, hit the memo; each client thread has one slot in flight.
WRITE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=WRITE_MEMO_SIZE)
def write_line(key: bytes, value: bytes) -> bytes:
    """The ``W`` request: write ``value`` unless ``key`` holds one."""
    return b"".join((b"W ", b64(key), b" ", b64(value), b"\n"))


def read_line(key: bytes) -> bytes:
    """The ``R`` request: the value ``key`` holds."""
    return b"R %s\n" % b64(key)


def parse_request(line: bytes) -> tuple[bytes, bytes, Optional[bytes]]:
    """``(b"W", key, value)`` or ``(b"R", key, None)``.  Fields are separated
    by ASCII whitespace alone, so a request has one spelling."""
    parts = line.split()
    if not parts:
        raise ProtocolError("empty request")
    verb = parts[0]
    if verb == b"R" and len(parts) == 2:
        return verb, unb64(parts[1]), None
    if verb == b"W" and len(parts) == 3:
        return verb, unb64(parts[1]), unb64(parts[2])
    raise ProtocolError(f"malformed request {_shown(line)}")


def reply(held: Optional[bytes], offered: Optional[bytes] = None) -> bytes:
    """The answer to a request whose key holds ``held`` afterwards: ``A`` if
    that is the ``offered`` value, ``N`` if nothing, else ``V`` and ``held``."""
    if held is None:
        return b"N\n"
    return b"A\n" if held == offered else b"V %s\n" % b64(held)


class _Store:
    """Shared write-once machinery; subclasses supply the commit action."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.Lock()

    def _commit(self, key: bytes, value: bytes) -> None:
        self._data[key] = value

    def write_read(self, key: bytes, value: bytes) -> bytes:
        """The key's settled value: ``value`` itself if this write stands,
        else the value held, in one lock and one lookup."""
        with self._lock:
            held = self._data.get(key)
            if held is None:
                self._commit(key, value)
                return value
        return held

    def read(self, key: bytes) -> Optional[bytes]:
        with self._lock:
            return self._data.get(key)

    def snapshot(self) -> dict[bytes, bytes]:
        with self._lock:
            return dict(self._data)

    def close(self) -> None:
        pass


class MemoryStore(_Store):
    """Write-once map living in the process."""


def read_log(path: str) -> tuple[dict[bytes, bytes], Optional[int]]:
    """Replay a store log: each key's first ``W`` value, and the offset of a
    final line without its newline (an append torn or still being written)
    or None.  A missing log is empty; a complete line that does not parse
    raises ProtocolError."""
    data: dict[bytes, bytes] = {}
    try:
        with open(path, "rb") as fh:
            offset = 0
            for raw in fh:
                if not raw.endswith(b"\n"):
                    return data, offset
                offset += len(raw)
                line = raw.strip()
                if not line:
                    continue
                verb, key, value = parse_request(line)
                if verb != b"W":
                    raise ProtocolError(f"log holds a non-write line: {_shown(line)}")
                data.setdefault(key, value)
    except FileNotFoundError:
        pass
    return data, None


class FileStore(_Store):
    """Write-once map backed by an append-only log of ``W key value`` lines.

    Opening replays the log, so a store survives restarts; the log is valid
    input for the protocol server, which makes debugging a matter of cat.
    A final line without its newline is an append torn by a crash, whose
    write never returned: opening cuts it off.  An append that raises (a
    full disk, say) is cut off the same way before the error goes on, at
    the log's length, which the store keeps.  Any complete line that does
    not parse still raises.  The log is unbuffered, so each append reaches
    the file in one write call (more only if the write comes back short);
    the line is :func:`write_line`'s, shared by every store offered the write.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._data, torn_at = read_log(path)
        if torn_at is not None:
            os.truncate(path, torn_at)
        self._fh = open(path, "ab", buffering=0)
        self._size = os.fstat(self._fh.fileno()).st_size  # bytes in the log, all whole lines

    def _commit(self, key: bytes, value: bytes) -> None:
        line = write_line(key, value)
        try:
            done = self._fh.write(line)
            while done < len(line):  # a short write: append the rest
                done += self._fh.write(line[done:])
        except OSError:
            os.ftruncate(self._fh.fileno(), self._size)
            raise
        self._size += done
        self._data[key] = value

    def close(self) -> None:
        with self._lock:
            self._fh.close()


class PipeStore:
    """A file store served by a child process, ``python -m quesera.kvstore
    --backend file --path P``, over its stdin and stdout, for one thread.
    :meth:`write_read` is :meth:`send`, which writes :func:`write_line`'s
    line, shared by every store offered the write, then :meth:`receive`; a
    caller that waits on several stores keeps one write in flight and waits
    for :meth:`fileno` to be readable in between.  :attr:`sent` and
    :attr:`received` count the bytes on the pipes.  The log is the store:
    :meth:`snapshot` replays its complete lines, and does not cut a live
    log.  Once the child dies, every write raises."""

    piped = True

    def __init__(self, path: str):
        import subprocess

        self.path = path
        read_log(path)  # a log the child would refuse fails here, by name
        open(path, "ab").close()  # and so does one it could not open
        self.sent = self.received = 0
        self.offered = (b"", b"")  # the write in flight
        self.child = subprocess.Popen(
            [sys.executable, "-m", "quesera.kvstore", "--backend", "file", "--path", path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def send(self, key: bytes, value: bytes) -> None:
        line = write_line(key, value)
        self.child.stdin.write(line)
        self.child.stdin.flush()
        self.sent += len(line)
        self.offered = key, value

    def fileno(self) -> int:
        return self.child.stdout.fileno()

    def receive(self) -> bytes:
        """The reply to the request in flight: the value its key holds."""
        line = self.child.stdout.readline()
        self.received += len(line)
        if line == b"A\n":
            return self.offered[1]
        if line.startswith(b"V ") and line.endswith(b"\n") and line.isascii():
            try:
                return unb64(line[2:-1])
            except ProtocolError as exc:
                raise ProtocolError(
                    f"store process {self.child.pid} answered {line!r}: {exc}") from None
        if not line:
            raise ProtocolError(f"store process {self.child.pid} closed its pipe")
        raise ProtocolError(f"store process {self.child.pid} answered {line!r}")

    def write_read(self, key: bytes, value: bytes) -> bytes:
        self.send(key, value)
        return self.receive()

    def snapshot(self) -> dict[bytes, bytes]:
        return read_log(self.path)[0]

    def close(self) -> None:
        """Close the child's stdin and reap it, killed if it has not exited
        within 10 seconds."""
        import subprocess

        try:
            self.child.communicate(timeout=10)  # ignores a dead child's broken pipe
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.communicate()


def open_store(backend: str, path: Optional[str] = None) -> _Store:
    if backend == "memory":
        return MemoryStore()
    if backend == "file":
        if not path:
            raise ProtocolError("file backend needs --path")
        return FileStore(path)
    raise ProtocolError(f"unknown backend {backend!r}")


def serve(store: _Store, lines: Iterable[bytes], out: BinaryIO) -> None:
    """Run the request loop until input ends.  Malformed lines get an
    ``E reason`` response instead of killing the server."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            verb, key, value = parse_request(line)
            held = store.read(key) if verb == b"R" else store.write_read(key, value)
            out.write(reply(held, value))
        except ProtocolError as exc:
            out.write(b"E %s\n" % str(exc).encode())
        out.flush()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qscod-store",
        description="Serve a write-once key-value store over the W/R line "
        "protocol on stdin/stdout.",
    )
    parser.add_argument("--backend", choices=("memory", "file"), default="memory")
    parser.add_argument("--path", help="log file (file backend)")
    args = parser.parse_args(argv)
    try:
        store = open_store(args.backend, args.path)
    except (OSError, ValueError, ProtocolError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        serve(store, sys.stdin.buffer, sys.stdout.buffer)
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
