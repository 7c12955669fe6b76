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
serves one thread at a time.  Every field is canonical: a line that parses
re-encodes to the same fields, so one key or value has one spelling, and
:func:`write_line` encodes a write once for every store it is offered to.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import functools
import os
import sys
import threading
from typing import Iterable, Optional, TextIO


class ProtocolError(Exception):
    pass


def b64(data: bytes) -> str:
    return "-" if not data else base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    if text == "-":
        return b""
    try:
        data = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"bad base64 field {text!r}") from exc
    if b64(data) != text:  # nonzero padding bits, or "" for the empty string
        raise ProtocolError(f"non-canonical base64 field {text!r}")
    return data


def encode_request(verb: str, key: bytes, value: Optional[bytes] = None) -> str:
    if verb == "R":
        return f"R {b64(key)}\n"
    if verb == "W":
        if value is None:
            raise ProtocolError("W needs a value")
        return f"W {b64(key)} {b64(value)}\n"
    raise ProtocolError(f"unknown verb {verb!r}")


# A client offers one slot's key and value objects to each of its n store
# columns, so the slot's W line is encoded once and the other columns hit the
# memo; each client thread has one slot in flight.
WRITE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=WRITE_MEMO_SIZE)
def write_line(key: bytes, value: bytes) -> bytes:
    """``encode_request("W", key, value).encode("ascii")``."""
    return b" ".join((b"W", binascii.b2a_base64(key, newline=False) if key else b"-",
                      binascii.b2a_base64(value) if value else b"-\n"))  # with its newline


def parse_request(line: str) -> tuple[str, bytes, Optional[bytes]]:
    parts = line.split()
    if not parts:
        raise ProtocolError("empty request")
    verb = parts[0]
    if verb == "R" and len(parts) == 2:
        return verb, unb64(parts[1]), None
    if verb == "W" and len(parts) == 3:
        return verb, unb64(parts[1]), unb64(parts[2])
    raise ProtocolError(f"malformed request {line!r}")


def encode_hit(value: bytes) -> str:
    return f"V {b64(value)}\n"


def _b64_size(n: int) -> int:
    """``len(b64(data))`` for ``n == len(data)``."""
    return 4 * ((n + 2) // 3) if n else 1


def write_size(key: bytes, value: bytes, got: bytes) -> int:
    """``len(encode_request("W", key, value))`` plus the length of the reply
    when the key holds ``got`` afterwards, worked out from the line format
    without encoding: ``W``, two separators and a newline make 4 bytes plus
    the two fields; the reply is ``A`` and a newline if ``got == value``,
    else ``len(encode_hit(got))``, 3 bytes plus the field."""
    size = 4 + _b64_size(len(key)) + _b64_size(len(value))
    return size + 2 if got == value else size + 3 + _b64_size(len(got))


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
                try:
                    line = raw.decode("ascii").strip()
                except UnicodeDecodeError as exc:
                    raise ProtocolError(f"log line is not ASCII: {raw!r}") from exc
                if not line:
                    continue
                verb, key, value = parse_request(line)
                if verb != "W" or value is None:
                    raise ProtocolError(f"log holds a non-write line: {line!r}")
                data.setdefault(key, value)
    except FileNotFoundError:
        pass
    return data, None


class FileStore(_Store):
    """Write-once map backed by an append-only log of ``W key value`` lines.

    Opening replays the log, so a store survives restarts; the log is valid
    input for the protocol server, which makes debugging a matter of cat.
    A final line without its newline is an append torn by a crash, whose
    write never returned: opening cuts it off.  Any complete line that does
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

    def _commit(self, key: bytes, value: bytes) -> None:
        line = write_line(key, value)
        done = self._fh.write(line)
        while done < len(line):  # a short write: append the rest
            done += self._fh.write(line[done:])
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
                return unb64(line[2:-1].decode("ascii"))
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


def serve(store: _Store, lines: Iterable[str], out: TextIO) -> None:
    """Run the request loop until input ends.  Malformed lines get an
    ``E reason`` response instead of killing the server."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            verb, key, value = parse_request(line)
            if verb == "R":
                got = store.read(key)
                out.write("N\n" if got is None else encode_hit(got))
            else:  # W: A when the key holds the offered bytes, equal or won
                settled = store.write_read(key, value)
                out.write("A\n" if settled == value else encode_hit(settled))
        except ProtocolError as exc:
            out.write(f"E {exc}\n")
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
        serve(store, sys.stdin, sys.stdout)
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
