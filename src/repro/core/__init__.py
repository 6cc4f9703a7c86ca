"""NCAP — the paper's contribution: packet context-aware power management."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".config": ("DEFAULT_TEMPLATES", "NCAPConfig", "aggressive", "conservative"),
    ".decision_engine": ("DecisionEngine",),
    ".ncap_driver": ("NCAPDriverExtension",),
    ".ncap_nic": ("NCAPHardware",),
    ".ncap_sw": ("NCAPSoftware",),
    ".req_monitor": ("ReqMonitor",),
    ".tx_counter": ("TxBytesCounter",),
})
