"""Transport-agnostic RPC layer of the distributed execution tier.

Every message between a campaign coordinator and its workers is one flat,
JSON-serialisable dictionary.  Three interchangeable backends carry those
messages (the C-Two Component/CRM split: the coordinator owns the stateful
resource -- the work queue -- and workers talk to it through a protocol-
agnostic channel):

* **thread** -- in-process loopback over ``queue.Queue`` pairs.  The
  zero-dependency reference backend: same wire discipline (messages must be
  JSON-serialisable), no sockets, no subprocesses.
* **ipc** -- one subprocess per worker, connected over a
  ``multiprocessing.Pipe``.  Messages travel as encoded JSON bytes
  (``send_bytes``), never pickles, so the wire format is identical to TCP.
* **tcp** -- workers connect over loopback (or the network) with
  **length-prefixed JSON frames**: a 4-byte big-endian length followed by
  the UTF-8 JSON payload.  The only backend that accepts *external*
  workers (``python -m repro dist worker --connect host:port``).

The coordinator side of every backend exposes the same four operations --
``launch_worker`` / ``poll`` / ``drop`` / ``close`` -- and the worker side
a duplex :class:`Channel` (``send`` / ``recv``).  ``poll`` returns
``(channel, message)`` pairs and reports a disconnected worker as
``(channel, None)``, which is how the coordinator reclaims the leases of a
crashed worker immediately instead of waiting for the lease TTL.  What a
peer sends is not trusted: a payload that is not JSON is handed over as the
``ValueError`` saying why (never raised out of ``poll``), and ``drop`` is
how the coordinator hangs up on a peer that broke the protocol.
"""
from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import queue as queue_module
import select
import signal
import socket
import struct
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..core.errors import SpecError
from ..core.registry import unknown_name

__all__ = [
    "TRANSPORT_NAMES",
    "ChannelClosed",
    "Channel",
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
    """One TCP frame: length prefix + JSON payload."""
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
    sock.settimeout(timeout)
    try:
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
# Worker-side channels
# --------------------------------------------------------------------- #
class Channel:
    """Duplex message channel (worker side); backends subclass this."""

    def send(self, message: Dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def recv(self, timeout: Optional[float]) -> Optional[Dict]:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


#: In-process close marker (thread transport); never JSON-serialised.
_CLOSE = object()


class ThreadWorkerChannel(Channel):
    """Worker end of an in-process loopback connection."""

    def __init__(self, inbox: "queue_module.Queue", server_end: "ThreadServerEnd",
                 from_server: "queue_module.Queue"):
        self._inbox = inbox
        self._server_end = server_end
        self._from_server = from_server
        self._closed = False

    def send(self, message: Dict) -> None:
        if self._closed:
            raise ChannelClosed("channel closed")
        # Round-trip through the encoder so the thread backend enforces the
        # same JSON-only wire discipline as ipc/tcp.
        self._inbox.put((self._server_end, json.loads(_encode(message))))

    def recv(self, timeout: Optional[float]) -> Optional[Dict]:
        try:
            item = self._from_server.get(timeout=timeout)
        except queue_module.Empty:
            return None
        if item is _CLOSE:
            self._closed = True
            raise ChannelClosed("coordinator closed the channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._inbox.put((self._server_end, None))  # EOF marker


class ThreadServerEnd:
    """Coordinator end of an in-process loopback connection."""

    def __init__(self, to_worker: "queue_module.Queue"):
        self._to_worker = to_worker

    def send(self, message: Dict) -> None:
        self._to_worker.put(json.loads(_encode(message)))

    def close(self) -> None:
        self._to_worker.put(_CLOSE)


class PipeChannel(Channel):
    """Worker end of a ``multiprocessing.Pipe`` connection (JSON bytes)."""

    def __init__(self, conn: multiprocessing.connection.Connection):
        self._conn = conn

    def send(self, message: Dict) -> None:
        try:
            self._conn.send_bytes(_encode(message))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self, timeout: Optional[float]) -> Optional[Dict]:
        try:
            if not self._conn.poll(timeout):
                return None
            return json.loads(self._conn.recv_bytes().decode("utf-8"))
        except (EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


class SocketChannel(Channel):
    """Worker end of a TCP connection (length-prefixed JSON frames)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, message: Dict) -> None:
        send_frame(self._sock, message)

    def recv(self, timeout: Optional[float]) -> Optional[Dict]:
        return recv_frame(self._sock, timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


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
class ThreadTransport:
    """In-process loopback: workers are daemon threads of this process.

    Workers launched here run the worker loop with ``in_process=True``,
    which serialises simulation execution behind a module lock -- the obs
    hooks and the provenance slot are process-global one-element cells, so
    two runs must never execute concurrently in one process.
    """

    name = "thread"

    def __init__(self) -> None:
        self._inbox: "queue_module.Queue" = queue_module.Queue()
        self._server_ends: List[ThreadServerEnd] = []

    def endpoint(self) -> str:
        return ""

    def launch_worker(self, worker_id: str, options: Dict) -> WorkerHandle:
        from .worker import worker_loop  # lazy: worker imports campaign

        to_worker: "queue_module.Queue" = queue_module.Queue()
        server_end = ThreadServerEnd(to_worker)
        channel = ThreadWorkerChannel(self._inbox, server_end, to_worker)
        self._server_ends.append(server_end)
        thread = threading.Thread(
            target=worker_loop,
            args=(channel, worker_id, dict(options, in_process=True)),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        thread.start()
        return WorkerHandle(worker_id, thread=thread)

    def poll(self, timeout: float) -> List[Tuple[object, object]]:
        messages: List[Tuple[object, object]] = []
        try:
            messages.append(self._inbox.get(timeout=timeout))
        except queue_module.Empty:
            return messages
        while True:  # drain whatever else already arrived, without blocking
            try:
                messages.append(self._inbox.get_nowait())
            except queue_module.Empty:
                return messages

    def drop(self, end: ThreadServerEnd) -> None:
        if end in self._server_ends:
            self._server_ends.remove(end)
            end.close()

    def close(self) -> None:
        for end in self._server_ends:
            end.close()
        self._server_ends.clear()


class IpcTransport:
    """One subprocess per worker over ``multiprocessing.Pipe`` connections."""

    name = "ipc"

    def __init__(self) -> None:
        self._conns: List[multiprocessing.connection.Connection] = []

    def endpoint(self) -> str:
        return ""

    def launch_worker(self, worker_id: str, options: Dict) -> WorkerHandle:
        from .worker import ipc_worker_entry

        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=ipc_worker_entry,
            args=(child_conn, worker_id, dict(options)),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        with signals_held():  # until the worker has its own handlers
            process.start()
        child_conn.close()  # the parent keeps only its own end
        self._conns.append(parent_conn)
        return WorkerHandle(worker_id, process=process)

    def poll(self, timeout: float) -> List[Tuple[object, object]]:
        if not self._conns:
            return []
        ready = multiprocessing.connection.wait(self._conns, timeout)
        messages: List[Tuple[object, object]] = []
        for conn in ready:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                # The worker died or closed its end: surface the EOF once
                # and stop polling the dead connection.
                self.drop(conn)
                messages.append((conn, None))
                continue
            messages.append((conn, _decode(payload)))
        return messages

    def drop(self, conn: multiprocessing.connection.Connection) -> None:
        if conn in self._conns:
            self._conns.remove(conn)
            conn.close()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()

    @staticmethod
    def reply(conn: multiprocessing.connection.Connection, message: Dict) -> None:
        try:
            conn.send_bytes(_encode(message))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ChannelClosed(str(exc)) from exc


class _TcpServerEnd:
    """Coordinator end of one accepted TCP connection, with an in-place frame buffer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()

    def send(self, message: Dict) -> None:
        send_frame(self.sock, message)

    def feed(self, data: bytes) -> List[object]:
        """Append one read; returns the frames it completed."""
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
        try:
            self.sock.close()
        except OSError:
            pass


class TcpTransport:
    """TCP sockets with length-prefixed JSON frames; accepts external workers."""

    name = "tcp"

    def __init__(self, bind: str = "127.0.0.1:0"):
        host, port = parse_endpoint(bind)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._clients: List[_TcpServerEnd] = []

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

    def poll(self, timeout: float) -> List[Tuple[object, object]]:
        sockets = [self._listener] + [c.sock for c in self._clients]
        try:
            readable, _, _ = select.select(sockets, [], [], timeout)
        except OSError:
            return []
        messages: List[Tuple[object, object]] = []
        by_sock = {c.sock: c for c in self._clients}
        for sock in readable:
            if sock is self._listener:
                try:
                    client, _addr = self._listener.accept()
                except OSError:
                    continue
                client.setblocking(True)
                client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._clients.append(_TcpServerEnd(client))
                continue
            end = by_sock[sock]
            try:
                data = sock.recv(65536)
            except OSError:
                data = b""
            if not data:
                self.drop(end)
                messages.append((end, None))
                continue
            try:
                for frame in end.feed(data):
                    messages.append((end, frame))
            except ChannelClosed:
                self.drop(end)
                messages.append((end, None))
        return messages

    def drop(self, end: _TcpServerEnd) -> None:
        if end in self._clients:
            self._clients.remove(end)
            end.close()

    def close(self) -> None:
        for end in self._clients:
            end.close()
        self._clients.clear()
        try:
            self._listener.close()
        except OSError:
            pass


def make_transport(name: str, bind: str = "127.0.0.1:0"):
    """Build the coordinator side of a named transport backend."""
    if name == "thread":
        return ThreadTransport()
    if name == "ipc":
        return IpcTransport()
    if name == "tcp":
        return TcpTransport(bind=bind)
    raise unknown_name("transport", name, TRANSPORT_NAMES)


def reply_on(channel_end, message: Dict) -> None:
    """Send a reply on a coordinator-side channel end, whatever its backend."""
    if isinstance(channel_end, multiprocessing.connection.Connection):
        IpcTransport.reply(channel_end, message)
    else:
        channel_end.send(message)
