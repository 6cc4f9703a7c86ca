"""Network substrate: frames, links, switch, NIC, interrupt moderation."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".driver": ("NICDriver",),
    ".interrupts": ("ICR", "InterruptModerator", "ModerationConfig"),
    ".link": ("Link", "LinkPort"),
    ".nic": ("NIC",),
    ".packet": (
        "HEADER_BYTES", "MSS", "MTU", "Frame", "make_http_request",
        "make_memcached_request", "make_response", "segments_for", "wire_bytes_for",
    ),
    ".switch": ("Switch",),
})
