"""Transport layer: framing, endpoints, channel round trips, EOF signalling.

Each backend is exercised at the message level -- send a flat dict one way,
read it back on the other side -- plus the failure paths the coordinator
relies on: a closed peer surfaces as ``(channel, None)`` from ``poll`` and
as :class:`ChannelClosed` from a worker-side ``recv``.
"""
from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.transport import (
    MAX_FRAME_BYTES,
    ChannelClosed,
    IpcTransport,
    PipeChannel,
    TcpTransport,
    ThreadTransport,
    connect_tcp,
    encode_frame,
    make_transport,
    parse_endpoint,
    _TcpServerEnd,
)


class TestFraming:
    def test_frame_is_length_prefixed_sorted_json(self):
        frame = encode_frame({"b": 2, "a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:].decode("utf-8")) == {"a": 1, "b": 2}
        assert frame[4:] == b'{"a": 1, "b": 2}'

    def test_nan_is_rejected_on_the_wire(self):
        with pytest.raises(ValueError):
            encode_frame({"x": float("nan")})

    def test_oversized_frame_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            encode_frame({"x": "y" * (MAX_FRAME_BYTES + 1)})

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7717") == ("127.0.0.1", 7717)
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint("no-port")
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint(":123x")


class TestMakeTransport:
    def test_known_names(self):
        for name, cls in (
            ("thread", ThreadTransport),
            ("ipc", IpcTransport),
            ("tcp", TcpTransport),
        ):
            transport = make_transport(name)
            assert isinstance(transport, cls)
            assert transport.name == name
            transport.close()

    def test_unknown_name_has_helpful_error(self):
        with pytest.raises(KeyError, match="unknown transport .*known: "):
            make_transport("carrier-pigeon")


class TestPipeChannel:
    def test_round_trip_is_json_bytes(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        a, b = PipeChannel(parent), PipeChannel(child)
        a.send({"op": "lease", "worker": "w0"})
        assert b.recv(1.0) == {"op": "lease", "worker": "w0"}
        # The wire carries encoded JSON, never pickles.
        b._conn.send_bytes(b'{"op": "ack"}')
        assert a.recv(1.0) == {"op": "ack"}

    def test_recv_timeout_returns_none(self):
        parent, _child = multiprocessing.Pipe(duplex=True)
        assert PipeChannel(parent).recv(0.01) is None

    def test_closed_peer_raises(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        PipeChannel(child).close()
        with pytest.raises(ChannelClosed):
            PipeChannel(parent).recv(0.5)


class TestTcpTransport:
    def test_worker_round_trip_and_eof(self):
        transport = TcpTransport(bind="127.0.0.1:0")
        host, port = parse_endpoint(transport.endpoint())
        channel = connect_tcp(host, port)
        channel.send({"op": "lease", "worker": "w0"})
        # First poll accepts the connection, subsequent polls read frames.
        messages = []
        for _ in range(20):
            messages = [m for _end, m in transport.poll(0.1) if m is not None]
            if messages:
                break
        assert messages == [{"op": "lease", "worker": "w0"}]
        end = transport._clients[0]
        end.send({"op": "grant", "key": "k0", "task": {}})
        assert channel.recv(1.0) == {"op": "grant", "key": "k0", "task": {}}
        channel.close()
        eof = []
        for _ in range(20):
            eof = [m for _end, m in transport.poll(0.1)]
            if eof:
                break
        assert eof == [None]
        transport.close()

    def test_two_frames_in_one_segment_are_both_delivered(self):
        transport = TcpTransport(bind="127.0.0.1:0")
        host, port = parse_endpoint(transport.endpoint())
        sock = socket.create_connection((host, port))
        sock.sendall(encode_frame({"op": "a"}) + encode_frame({"op": "b"}))
        received = []
        for _ in range(20):
            received += [m for _end, m in transport.poll(0.1) if m is not None]
            if len(received) == 2:
                break
        assert received == [{"op": "a"}, {"op": "b"}]
        sock.close()
        transport.close()

    def test_oversized_announced_frame_disconnects_the_client(self):
        transport = TcpTransport(bind="127.0.0.1:0")
        host, port = parse_endpoint(transport.endpoint())
        sock = socket.create_connection((host, port))
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        outcome = []
        for _ in range(20):
            outcome = [m for _end, m in transport.poll(0.1)]
            if outcome:
                break
        assert outcome == [None]
        sock.close()
        transport.close()


class TestTcpReceiveBuffer:
    """The coordinator's per-connection frame buffer, fed as reads arrive."""

    @given(
        messages=st.lists(
            st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=30),
                            max_size=4),
            max_size=6,
        ),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_of_a_stream_yields_the_same_frames(self, messages, cuts):
        stream = b"".join(encode_frame(message) for message in messages)
        bounds = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
        end = _TcpServerEnd(None)
        frames = []
        for start, stop in zip(bounds, bounds[1:]):
            frames += end.feed(stream[start:stop])
        assert frames == messages
        assert not end.buffer

    def test_a_large_frame_in_small_reads_costs_linear_time(self):
        size = 32 * 1024 * 1024
        frame = encode_frame({"pad": "x" * size})
        end = _TcpServerEnd(None)
        frames = []
        started = time.perf_counter()
        for start in range(0, len(frame), 65536):
            frames += end.feed(frame[start:start + 65536])
        elapsed = time.perf_counter() - started
        assert [len(f["pad"]) for f in frames] == [size]
        assert elapsed < 1.0, f"{elapsed:.2f} s for one 32 MiB frame in 64 KiB reads"


class TestThreadTransport:
    def test_poll_drains_all_queued_messages(self):
        # Use the channel machinery directly (without launching a real
        # worker loop) by reaching into the transport's shared inbox.
        transport = ThreadTransport()
        transport._inbox.put(("end-a", {"op": "lease"}))
        transport._inbox.put(("end-b", {"op": "heartbeat"}))
        messages = transport.poll(0.1)
        assert [m for _end, m in messages] == [{"op": "lease"}, {"op": "heartbeat"}]
        assert transport.poll(0.01) == []
        transport.close()
