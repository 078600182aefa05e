"""Transport-agnostic RPC layer of the distributed execution tier.

Every message between a campaign coordinator and its workers is one flat,
JSON-serialisable dictionary, and every backend carries it the same way: as
a **length-prefixed JSON frame** -- a 4-byte big-endian length followed by
the UTF-8 JSON payload -- on a stream socket.  The three interchangeable
backends differ only in how a worker comes by its socket (the C-Two
Component/CRM split: the coordinator owns the stateful resource -- the work
queue -- and workers talk to it through a protocol-agnostic channel):

* **thread** -- workers are daemon threads of this process, each on one end
  of a ``socket.socketpair()``: no subprocess, no port.  The rung the
  protocol tests drive.
* **ipc** -- one subprocess per worker, on the socket-pair end it inherits;
  no port either.
* **tcp** -- workers connect to a listening socket, over loopback or the
  network.  The only backend that accepts *external* workers
  (``python -m repro dist worker --connect host:port``).

The coordinator side of every backend exposes the same four operations --
``launch_worker`` / ``poll`` / ``drop`` / ``close`` -- over one ``select``
of its connections, and the worker side a duplex :class:`SocketChannel`
(``send`` / ``recv``).  ``poll`` returns ``(end, message)`` pairs and
reports a disconnected worker as ``(end, None)``, which is how the
coordinator reclaims the leases of a crashed worker immediately instead of
waiting for the lease TTL.  What a peer sends is not trusted, whatever the
backend: a payload that is not JSON is handed over as the ``ValueError``
saying why (never raised out of ``poll``), a frame announced larger than
:data:`MAX_FRAME_BYTES` hangs up on that peer alone, and ``drop`` is how
the coordinator hangs up on a peer that broke the protocol.
"""
from __future__ import annotations

import json
import multiprocessing
import select
import signal
import socket
import struct
import threading
from contextlib import contextmanager, suppress
from typing import Dict, List, Optional, Tuple

from ..core.errors import SpecError
from ..core.registry import unknown_name

__all__ = [
    "TRANSPORT_NAMES",
    "ChannelClosed",
    "SocketChannel",
    "WorkerHandle",
    "ThreadTransport",
    "IpcTransport",
    "TcpTransport",
    "make_transport",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "connect_tcp",
    "parse_endpoint",
]

#: The registered transport backends, in escalation order.
TRANSPORT_NAMES: Tuple[str, ...] = ("thread", "ipc", "tcp")

#: What a ^C or a deliberate stop sends: held back while the coordinator acts
#: on a poll round, and while a worker starts until it has its own handlers.
HELD_SIGNALS = frozenset({signal.SIGINT, signal.SIGTERM})

#: Frame header: payload length as a 4-byte big-endian unsigned integer.
_LENGTH = struct.Struct(">I")

#: Upper bound on one frame; a run's outcome with obs snapshots is a few
#: kilobytes, so anything near this size indicates a protocol error.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ChannelClosed(Exception):
    """The peer went away: the channel cannot carry further messages."""


#: One encoder, not one per dumps call; allow_nan=False keeps every wire strict JSON.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _encode(message: Dict) -> bytes:
    return _ENCODER.encode(message).encode("utf-8")


def _decode(payload: bytes) -> object:
    """What one received payload says; the ``ValueError`` if it is not JSON."""
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        return exc


def encode_frame(message: Dict) -> bytes:
    """One frame: length prefix + JSON payload."""
    payload = _encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds the maximum")
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: Dict) -> None:
    try:
        sock.sendall(encode_frame(message))
    except OSError as exc:
        raise ChannelClosed(str(exc)) from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ChannelClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, timeout: Optional[float]) -> Optional[Dict]:
    """Read one frame; ``None`` on timeout before the frame *starts*.

    A timeout mid-frame (after the length prefix arrived) keeps reading:
    frames are small, and returning ``None`` there would desynchronise the
    stream.
    """
    try:
        sock.settimeout(timeout)
        header = _recv_exact(sock, _LENGTH.size)
    except (socket.timeout, TimeoutError):
        return None
    except OSError as exc:
        raise ChannelClosed(str(exc)) from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ChannelClosed(f"oversized frame announced ({length} bytes)")
    sock.settimeout(None)
    try:
        payload = _recv_exact(sock, length)
    except OSError as exc:
        raise ChannelClosed(str(exc)) from exc
    return json.loads(payload.decode("utf-8"))


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a helpful error."""
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise SpecError(f"endpoint must look like host:port, got {endpoint!r}")
    return host, int(port)


# --------------------------------------------------------------------- #
# The two ends of a connection
# --------------------------------------------------------------------- #
class SocketChannel:
    """Worker end of a connection: blocking reads of one frame at a time."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, message: Dict) -> None:
        send_frame(self._sock, message)

    def recv(self, timeout: Optional[float]) -> Optional[Dict]:
        return recv_frame(self._sock, timeout)

    def close(self) -> None:
        with suppress(OSError):
            self._sock.close()


class _ServerEnd:
    """Coordinator end of a connection, with an in-place frame buffer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()

    def send(self, message: Dict) -> None:
        send_frame(self.sock, message)

    def feed(self, data: bytes) -> List[object]:
        """Append one read; returns the frames it completed.

        Raises :class:`ChannelClosed` on end of stream (an empty read) and
        on an announced length over :data:`MAX_FRAME_BYTES`.
        """
        if not data:
            raise ChannelClosed("peer closed the connection")
        buffer = self.buffer
        buffer += data
        frames: List[object] = []
        while len(buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer)
            if length > MAX_FRAME_BYTES:
                raise ChannelClosed(f"oversized frame announced ({length} bytes)")
            end = _LENGTH.size + length
            if len(buffer) < end:
                break
            frames.append(_decode(buffer[_LENGTH.size:end]))
            del buffer[:end]
        return frames

    def close(self) -> None:
        """Hang up: ``shutdown`` reaches the worker even while a process
        forked since still holds a copy of this end."""
        with suppress(OSError):  # the worker may be gone already
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


def connect_tcp(host: str, port: int, timeout: float = 10.0) -> SocketChannel:
    """Connect a worker to a coordinator's TCP endpoint."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketChannel(sock)


@contextmanager
def signals_held():
    """Block :data:`HELD_SIGNALS` for the enclosed block (where POSIX
    signal masks exist); one that arrives meanwhile is delivered after it.

    Around a worker's ``start()``, the child inherits the mask along with
    the coordinator's handlers and unblocks the signals only once it has
    installed its own (``worker._reset_signals``).  A stop that lands in
    between gets the worker's action, never the coordinator's
    ``KeyboardInterrupt``, which the child's at-fork hooks would swallow.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    held = signal.pthread_sigmask(signal.SIG_BLOCK, HELD_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


# --------------------------------------------------------------------- #
# Worker handles
# --------------------------------------------------------------------- #
class WorkerHandle:
    """A worker the coordinator launched itself (thread or subprocess)."""

    def __init__(self, worker_id: str, thread: Optional[threading.Thread] = None,
                 process: Optional[multiprocessing.Process] = None):
        self.worker_id = worker_id
        self.thread = thread
        self.process = process

    def alive(self) -> bool:
        if self.process is not None:
            return self.process.is_alive()
        if self.thread is not None:
            return self.thread.is_alive()
        return False

    def join(self, timeout: Optional[float] = None) -> None:
        if self.process is not None:
            self.process.join(timeout)
        elif self.thread is not None:
            self.thread.join(timeout)


# --------------------------------------------------------------------- #
# Coordinator-side transports
# --------------------------------------------------------------------- #
class _SocketTransport:
    """What every backend shares: its connections' ends, one ``select``
    over them (and the listener, where there is one), ``drop`` and ``close``."""

    _listener: Optional[socket.socket] = None

    def __init__(self) -> None:
        self._ends: List[_ServerEnd] = []

    def endpoint(self) -> str:
        return ""

    def pair(self) -> socket.socket:
        """Open a connection on a socket pair: the coordinator keeps one end
        and polls it from now on; the other, returned, is the worker's."""
        ours, theirs = socket.socketpair()
        self._ends.append(_ServerEnd(ours))
        return theirs

    def _poll(self, timeout: float) -> List[Tuple[_ServerEnd, object]]:
        by_sock = {end.sock: end for end in self._ends}
        listener = self._listener
        sockets = list(by_sock) if listener is None else [listener, *by_sock]
        try:
            readable, _, _ = select.select(sockets, [], [], timeout)
        except OSError:
            return []
        messages: List[Tuple[_ServerEnd, object]] = []
        for sock in readable:
            if sock is listener:
                self._accept()
                continue
            end = by_sock[sock]
            try:
                messages += [(end, frame) for frame in end.feed(sock.recv(65536))]
            except (OSError, ChannelClosed):
                # The peer hung up, or announced a frame it must not send:
                # surface the EOF once and stop polling the connection.
                self.drop(end)
                messages.append((end, None))
        return messages

    def drop(self, end: _ServerEnd) -> None:
        if end in self._ends:
            self._ends.remove(end)
            end.close()

    def close(self) -> None:
        for end in self._ends:
            end.close()
        self._ends.clear()
        if self._listener is not None:
            self._listener.close()


class ThreadTransport(_SocketTransport):
    """In-process workers: daemon threads of this process on socket pairs.

    Workers launched here run the worker loop with ``in_process=True``,
    which serialises simulation execution behind a module lock -- the obs
    hooks and the provenance slot are process-global one-element cells, so
    two runs must never execute concurrently in one process.
    """

    name = "thread"

    def launch_worker(self, worker_id: str, options: Dict) -> WorkerHandle:
        from .worker import worker_loop  # lazy: worker imports campaign

        thread = threading.Thread(
            target=worker_loop,
            args=(SocketChannel(self.pair()), worker_id, dict(options, in_process=True)),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        thread.start()
        return WorkerHandle(worker_id, thread=thread)

    def poll(self, timeout: float) -> List[Tuple[_ServerEnd, object]]:
        return self._poll(timeout)


class IpcTransport(_SocketTransport):
    """One subprocess per worker, each on the socket pair it inherits."""

    name = "ipc"

    def launch_worker(self, worker_id: str, options: Dict) -> WorkerHandle:
        from .worker import ipc_worker_entry

        theirs = self.pair()
        process = multiprocessing.Process(
            target=ipc_worker_entry,
            args=(theirs, worker_id, dict(options)),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        with signals_held():  # until the worker has its own handlers
            process.start()
        theirs.close()  # the coordinator keeps only its own end
        return WorkerHandle(worker_id, process=process)

    def poll(self, timeout: float) -> List[Tuple[_ServerEnd, object]]:
        return self._poll(timeout)


class TcpTransport(_SocketTransport):
    """A listening TCP socket; accepts external workers as well."""

    name = "tcp"

    def __init__(self, bind: str = "127.0.0.1:0"):
        super().__init__()
        host, port = parse_endpoint(bind)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)

    def endpoint(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def launch_worker(self, worker_id: str, options: Dict) -> WorkerHandle:
        # getaddrinfo encodes its host with the idna codec; imported here,
        # before the fork, a worker's first connect skips that ~5 ms import.
        import encodings.idna  # noqa: F401

        from .worker import tcp_worker_entry

        host, port = self._listener.getsockname()[:2]
        process = multiprocessing.Process(
            target=tcp_worker_entry,
            args=(host, port, worker_id, dict(options)),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        with signals_held():  # until the worker has its own handlers
            process.start()
        return WorkerHandle(worker_id, process=process)

    def poll(self, timeout: float) -> List[Tuple[_ServerEnd, object]]:
        return self._poll(timeout)

    def _accept(self) -> None:
        try:
            client, _addr = self._listener.accept()
        except OSError:
            return
        client.setblocking(True)
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._ends.append(_ServerEnd(client))


def make_transport(name: str, bind: str = "127.0.0.1:0"):
    """Build the coordinator side of a named transport backend."""
    if name == "thread":
        return ThreadTransport()
    if name == "ipc":
        return IpcTransport()
    if name == "tcp":
        return TcpTransport(bind=bind)
    raise unknown_name("transport", name, TRANSPORT_NAMES)


def reply_on(end: _ServerEnd, message: Dict) -> None:
    """Send a reply on a coordinator-side connection end."""
    end.send(message)
