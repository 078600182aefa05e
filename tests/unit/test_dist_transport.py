"""Transport layer: framing, endpoints, channel round trips, EOF signalling.

One contract holds on every backend, since all of them carry the same
length-prefixed frames over sockets: a flat dict goes through both ways,
and the failure paths the coordinator relies on behave alike -- a closed
peer surfaces once as ``(end, None)`` from ``poll``, a hostile frame costs
only its own sender, and a worker-side ``recv`` on a dropped connection
raises :class:`ChannelClosed`.
"""
from __future__ import annotations

import json
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.transport import (
    MAX_FRAME_BYTES,
    TRANSPORT_NAMES,
    ChannelClosed,
    IpcTransport,
    SocketChannel,
    TcpTransport,
    ThreadTransport,
    encode_frame,
    make_transport,
    parse_endpoint,
    reply_on,
    _ServerEnd,
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
        for name, cls in (("thread", ThreadTransport), ("ipc", IpcTransport), ("tcp", TcpTransport)):
            transport = make_transport(name)
            assert isinstance(transport, cls)
            assert transport.name == name
            transport.close()

    def test_unknown_name_has_helpful_error(self):
        with pytest.raises(KeyError, match="unknown transport .*known: "):
            make_transport("carrier-pigeon")


def _poll_until(transport, count):
    """What *transport* polls until it has *count* messages (or 2 s passed)."""
    messages = []
    deadline = time.monotonic() + 2.0
    while len(messages) < count and time.monotonic() < deadline:
        messages += transport.poll(0.05)
    return messages


@pytest.fixture(params=TRANSPORT_NAMES)
def transport(request):
    transport = make_transport(request.param)
    yield transport
    transport.close()


def _worker_socket(transport):
    """A worker's socket on *transport*, the way its own workers get one."""
    if transport.name == "tcp":
        return socket.create_connection(parse_endpoint(transport.endpoint()))
    return transport.pair()


def _hello(transport):
    """A worker that has said hello, and the coordinator's end of it."""
    worker = SocketChannel(_worker_socket(transport))
    worker.send({"op": "hello"})
    ((end, message),) = _poll_until(transport, 1)
    assert message == {"op": "hello"}
    return worker, end


class TestTransportContract:
    """Every backend carries the same frames and fails the same way."""

    def test_a_message_goes_through_both_ways(self, transport):
        worker, end = _hello(transport)
        assert worker.recv(0.01) is None  # nothing sent: a timeout, not an error
        reply_on(end, {"op": "grant", "key": "k0", "task": {}})
        assert worker.recv(1.0) == {"op": "grant", "key": "k0", "task": {}}
        worker.close()

    def test_two_frames_in_one_write_are_both_delivered(self, transport):
        sock = _worker_socket(transport)
        sock.sendall(encode_frame({"op": "a"}) + encode_frame({"op": "b"}))
        assert [m for _end, m in _poll_until(transport, 2)] == [{"op": "a"}, {"op": "b"}]
        sock.close()

    def test_a_closed_worker_end_polls_as_none_exactly_once(self, transport):
        worker, end = _hello(transport)
        worker.close()
        assert _poll_until(transport, 1) == [(end, None)]
        assert transport.poll(0.05) == []

    def test_a_non_json_frame_arrives_as_its_value_error(self, transport):
        worker, end = _hello(transport)
        worker._sock.sendall(struct.pack(">I", 3) + b"{x}")
        ((sender, message),) = _poll_until(transport, 1)
        assert sender is end and isinstance(message, ValueError)
        worker.send({"op": "after"})  # the connection carries on
        assert _poll_until(transport, 1) == [(end, {"op": "after"})]
        worker.close()

    def test_an_oversized_announced_length_hangs_up_only_that_peer(self, transport):
        hostile, hostile_end = _hello(transport)
        polite, polite_end = _hello(transport)
        hostile._sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        assert _poll_until(transport, 1) == [(hostile_end, None)]
        with pytest.raises(ChannelClosed):
            hostile.recv(1.0)
        polite.send({"op": "still here"})
        assert _poll_until(transport, 1) == [(polite_end, {"op": "still here"})]
        reply_on(polite_end, {"op": "stop"})
        assert polite.recv(1.0) == {"op": "stop"}
        hostile.close()
        polite.close()

    def test_a_drop_reaches_a_worker_process_that_holds_a_copy_of_its_end(self):
        """A forked worker inherits the coordinator's end of its own socket
        pair, so closing that end alone would never reach it."""
        transport = IpcTransport()
        handle = transport.launch_worker("w0", {})
        ((end, message),) = _poll_until(transport, 1)
        assert message["op"] == "lease"
        transport.drop(end)
        handle.join(timeout=5.0)
        assert handle.process.exitcode == 0  # "the coordinator went away"
        transport.close()


class TestReceiveBuffer:
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
        end = _ServerEnd(None)
        frames = []
        for start, stop in zip(bounds, bounds[1:]):
            frames += end.feed(stream[start:stop])
        assert frames == messages
        assert not end.buffer

    def test_a_large_frame_in_small_reads_costs_linear_time(self):
        size = 32 * 1024 * 1024
        frame = encode_frame({"pad": "x" * size})
        end = _ServerEnd(None)
        frames = []
        started = time.perf_counter()
        for start in range(0, len(frame), 65536):
            frames += end.feed(frame[start:start + 65536])
        elapsed = time.perf_counter() - started
        assert [len(f["pad"]) for f in frames] == [size]
        assert elapsed < 1.0, f"{elapsed:.2f} s for one 32 MiB frame in 64 KiB reads"
