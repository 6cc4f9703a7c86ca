"""One runner per paper table/figure, plus ablations of NCAP's knobs."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".": (
        "ablations",
        "attribution",
        "datacenter",
        "energy",
        "fig1_dvfs_timing",
        "fig2_ondemand_period",
        "fig4_correlation",
        "fig7_latency_load",
        "headline",
        "percore",
        "policy_comparison",
    ),
    ".common": ("RunSettings",),
})
