"""Tests for frames and protocol helpers."""

import pickle

import pytest

from repro.net import (
    HEADER_BYTES,
    MSS,
    MTU,
    Frame,
    make_http_request,
    make_memcached_request,
    make_response,
    segments_for,
    wire_bytes_for,
)


class TestFraming:
    def test_header_offset_matches_paper(self):
        # Payload starts at the 66th byte of a received TCP packet (S4.1).
        assert HEADER_BYTES == 66

    def test_small_payload_single_segment(self):
        assert segments_for(100) == 1
        assert segments_for(MSS) == 1

    def test_large_payload_segments(self):
        assert segments_for(MSS + 1) == 2
        assert segments_for(10 * MSS) == 10

    def test_zero_payload_still_one_segment(self):
        assert segments_for(0) == 1

    def test_wire_bytes_adds_headers_per_segment(self):
        assert wire_bytes_for(100) == 100 + HEADER_BYTES
        assert wire_bytes_for(2 * MSS) == 2 * MSS + 2 * HEADER_BYTES

    def test_mss_consistent_with_mtu(self):
        # An MSS-sized payload plus IP/TCP headers fits the MTU.
        assert MSS + (HEADER_BYTES - 14) == MTU


class TestFrame:
    def test_properties(self):
        frame = Frame("a", "b", payload_bytes=3000, kind="response")
        assert frame.n_segments == segments_for(3000)
        assert frame.wire_bytes == wire_bytes_for(3000)
        assert not frame.is_single_packet

    def test_frame_ids_unique(self):
        a = Frame("a", "b", 10)
        b = Frame("a", "b", 10)
        assert a.frame_id != b.frame_id

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame("a", "b", -1)

    def test_slots_and_no_instance_dict(self):
        frame = Frame("a", "b", 10)
        assert not hasattr(frame, "__dict__")
        with pytest.raises(AttributeError):
            frame.extra = 1

    def test_pickle_round_trip(self):
        # Pool injections carry frames between processes.
        frame = make_memcached_request("c", "s", key="key:7", req_id=9, created_ns=5)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(frame, protocol))
            assert copy == frame and copy is not frame
            assert (copy.frame_id, copy.n_segments, copy.wire_bytes) == (
                frame.frame_id, frame.n_segments, frame.wire_bytes
            )

    def test_repr_and_equality(self):
        frame = Frame("a", "b", 3000, kind="response", req_id=4, frame_id=17)
        assert repr(frame) == (
            "Frame(src='a', dst='b', payload_bytes=3000, kind='response', "
            "payload_prefix=b'', req_id=4, created_ns=0, frame_id=17)"
        )
        assert frame == Frame("a", "b", 3000, kind="response", req_id=4, frame_id=17)
        assert frame != Frame("a", "b", 3000, kind="response", req_id=4, frame_id=18)


class TestProtocolHelpers:
    def test_http_request_prefix_is_method(self):
        frame = make_http_request("client", "server", method="GET")
        assert frame.payload_prefix.startswith(b"GET ")
        assert frame.kind == "request"
        assert frame.is_single_packet

    def test_http_put_prefix(self):
        frame = make_http_request("c", "s", method="PUT", url="/page")
        assert frame.payload_prefix.startswith(b"PUT ")

    def test_memcached_get_prefix(self):
        frame = make_memcached_request("c", "s", command="get", key="user:17")
        assert frame.payload_prefix.startswith(b"get ")
        assert frame.is_single_packet

    def test_request_frames_share_one_prefix_object(self):
        a = make_memcached_request("c", "s", key="key:1")
        b = make_memcached_request("c", "s", key="key:2")
        assert a.payload_prefix == b"get key:"
        assert a.payload_prefix is b.payload_prefix
        assert (
            make_http_request("c", "s").payload_prefix
            is make_http_request("d", "t").payload_prefix
        )

    def test_memcached_set_prefix(self):
        frame = make_memcached_request("c", "s", command="set", key="k")
        assert frame.payload_prefix.startswith(b"set ")

    def test_response_carries_req_id(self):
        frame = make_response("s", "c", payload_bytes=8192, req_id=42)
        assert frame.req_id == 42
        assert frame.kind == "response"
        assert frame.n_segments > 1
