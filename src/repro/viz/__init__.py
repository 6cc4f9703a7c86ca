"""Self-contained HTML visualizations of simulation captures."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".dashboard": (
        "Panel", "PanelSeries", "dashboard_from_datacenter", "dashboard_from_result",
        "datacenter_panels", "render_dashboard", "standard_panels", "write_dashboard",
    ),
    ".frontier": ("render_frontier", "render_trend_page"),
})
