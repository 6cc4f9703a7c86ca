"""Property-based tests for framing arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import HEADER_BYTES, MSS, MTU, Frame, segments_for, wire_bytes_for

payloads = st.integers(min_value=0, max_value=10_000_000)


@given(payload=payloads)
@settings(max_examples=200, deadline=None)
def test_segments_cover_payload_exactly(payload):
    n = segments_for(payload)
    assert n >= 1
    assert n * MSS >= payload
    if payload > 0:
        assert (n - 1) * MSS < payload


@given(payload=payloads)
@settings(max_examples=200, deadline=None)
def test_wire_bytes_accounts_headers_per_segment(payload):
    assert wire_bytes_for(payload) == payload + segments_for(payload) * HEADER_BYTES
    # A frame carries the same sizes as data, computed at construction,
    # and they stay out of its repr.
    frame = Frame("a", "b", payload_bytes=payload)
    assert frame.wire_bytes == wire_bytes_for(payload)
    assert frame.n_segments == segments_for(payload)
    assert repr(frame) == (
        f"Frame(src='a', dst='b', payload_bytes={payload}, kind='data', "
        f"payload_prefix=b'', req_id=None, created_ns=0, "
        f"frame_id={frame.frame_id})"
    )


@given(a=payloads, b=payloads)
@settings(max_examples=100, deadline=None)
def test_segments_monotone_in_payload(a, b):
    if a <= b:
        assert segments_for(a) <= segments_for(b)
    else:
        assert segments_for(a) >= segments_for(b)


@given(payload=st.integers(min_value=1, max_value=MSS))
@settings(max_examples=50, deadline=None)
def test_single_mss_payload_is_one_segment(payload):
    assert segments_for(payload) == 1
    # One full frame never exceeds MTU + Ethernet overhead.
    assert wire_bytes_for(payload) <= MTU + 14
