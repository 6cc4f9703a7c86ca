"""Single-file HTML timeline dashboard for flight-recorder captures.

:func:`render_dashboard` turns a
:class:`~repro.telemetry.recorder.TimeseriesBundle` into one
self-contained HTML page — inline SVG, inline CSS, inline vanilla JS, no
external dependencies — with vertically aligned timeline panels over
simulated time:

* package frequency (GHz),
* per-core C-state index,
* mean core utilization,
* package power (W),
* run-queue / rx-ring depth,
* network bandwidth (Mb/s, differenced from the cumulative byte
  counters),

plus run-phase shading (warmup / measure / drain), a hover crosshair
with a value tooltip, a light/dark theme that follows the OS preference,
and a per-panel data table (the accessible fallback view).

The categorical palette (4 slots per panel, assigned in fixed order) and
the light/dark surface tokens were validated for CVD separation and
contrast against both surfaces; series identity is never color-alone —
every panel with two or more series carries an ink-text legend and the
table view repeats the numbers.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.recorder import SeriesData, TimeseriesBundle

#: Categorical slots, assigned per panel in this fixed order (never
#: cycled): (light, dark) pairs validated against both surfaces.
PALETTE: Tuple[Tuple[str, str], ...] = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
)

# SVG geometry (CSS pixels; the page scales the viewBox responsively).
WIDTH = 960
PLOT_X0, PLOT_X1 = 64, 948
PLOT_Y0, PLOT_Y1 = 10, 118
PANEL_H = 132
AXIS_PANEL_H = 156  # bottom panel keeps the x-axis labels

MAX_TABLE_ROWS = 256


@dataclass
class PanelSeries:
    """One plotted line: points in (t_ns, value) form."""

    label: str
    points: List[Tuple[int, float]]
    step: bool = False  # render as a step (hold-last) line


@dataclass
class Panel:
    """One timeline panel; series share the panel's single y-axis."""

    title: str
    unit: str
    series: List[PanelSeries] = field(default_factory=list)
    #: Lines don't need a zero baseline; magnitudes (power, depth) do.
    zero_base: bool = True

    def has_data(self) -> bool:
        return any(s.points for s in self.series)


def _series_points(series: SeriesData) -> List[Tuple[int, float]]:
    return list(zip(series.times, series.values))


def _rate_points_mbps(series: SeriesData) -> List[Tuple[int, float]]:
    return [(t, rate * 8 / 1e6) for t, rate in series.rate_points()]


def standard_panels(bundle: TimeseriesBundle) -> List[Panel]:
    """The canonical panel layout for a server flight-recorder bundle.

    The panels group the series
    :func:`~repro.cluster.recording.build_server_recorder` declares.  A
    series of any other name is not drawn, and a panel with no data
    points is left out.
    """
    panels: List[Panel] = []

    freq = bundle.get("cpu.freq_ghz")
    if freq is not None:
        panel = Panel("Frequency", "GHz", zero_base=False)
        panel.series.append(PanelSeries("package", _series_points(freq), step=True))
        panels.append(panel)

    cstates = [n for n in bundle.names() if n.startswith("core") and n.endswith(".cstate")]
    if cstates:
        panel = Panel("C-state", "index")
        for name in cstates:
            panel.series.append(
                PanelSeries(name[:-len(".cstate")], _series_points(bundle.get(name)), step=True)
            )
        panels.append(panel)

    util = bundle.get("cpu.util")
    if util is not None:
        panels.append(Panel("Utilization", "U", [PanelSeries("mean util", _series_points(util))]))

    power = bundle.get("power.watts")
    if power is not None:
        panels.append(Panel("Power", "W", [PanelSeries("package", _series_points(power))]))

    runq = bundle.get("runq.depth")
    ring = bundle.get("nic.rx_ring")
    if runq is not None or ring is not None:
        panel = Panel("Queues", "depth")
        if runq is not None:
            panel.series.append(PanelSeries("run queue", _series_points(runq)))
        if ring is not None:
            panel.series.append(PanelSeries("rx ring", _series_points(ring)))
        panels.append(panel)

    rx = bundle.get("nic.rx.bytes")
    tx = bundle.get("nic.tx.bytes")
    if rx is not None or tx is not None:
        panel = Panel("Network", "Mb/s")
        if rx is not None:
            panel.series.append(PanelSeries("BW(Rx)", _rate_points_mbps(rx)))
        if tx is not None:
            panel.series.append(PanelSeries("BW(Tx)", _rate_points_mbps(tx)))
        panels.append(panel)

    reqs = bundle.get("app.requests")
    resps = bundle.get("app.responses")
    if reqs is not None or resps is not None:
        panel = Panel("Requests", "req/s")
        if reqs is not None:
            panel.series.append(
                PanelSeries("accepted", [(t, r) for t, r in reqs.rate_points()])
            )
        if resps is not None:
            panel.series.append(
                PanelSeries("responded", [(t, r) for t, r in resps.rate_points()])
            )
        panels.append(panel)

    return [p for p in panels if p.has_data()]


#: Key metrics plotted per server in :func:`datacenter_panels`:
#: (series suffix, panel title, unit, step rendering, rate-of-counter).
_DATACENTER_METRICS: Tuple[Tuple[str, str, str, bool, bool], ...] = (
    ("cpu.freq_ghz", "Frequency", "GHz", True, False),
    ("cpu.util", "Utilization", "U", False, False),
    ("power.watts", "Power", "W", False, False),
    ("runq.depth", "Run queue", "depth", False, False),
    ("nic.rx.bytes", "Network Rx", "Mb/s", False, True),
    ("app.responses", "Responses", "req/s", False, True),
)


def datacenter_panels(bundle: TimeseriesBundle) -> List[Panel]:
    """Panel layout for a merged multi-server bundle.

    :func:`~repro.telemetry.recorder.merge_timeseries_bundles` prefixes
    every series with its node name (``server3.power.watts``); this
    layout inverts that — one panel per key metric, one line per server —
    so the recorded servers can be compared side by side.
    """
    panels: List[Panel] = []
    for suffix, title, unit, step, as_rate in _DATACENTER_METRICS:
        marker = "." + suffix
        named = sorted(
            (name[: -len(marker)], bundle.get(name))
            for name in bundle.names()
            if name.endswith(marker)
        )
        if not named:
            continue
        panel = Panel(title, unit, zero_base=not step)
        for node, series in named:
            if as_rate:
                points = [(t, r) for t, r in series.rate_points()]
                if suffix.endswith(".bytes"):
                    points = [(t, r * 8 / 1e6) for t, r in points]
            else:
                points = _series_points(series)
            panel.series.append(PanelSeries(node, points, step=step))
        panels.append(panel)
    return [p for p in panels if p.has_data()]


# -- scales and shapes -----------------------------------------------------


def _nice_step(span: float, target: int = 5) -> float:
    if span <= 0:
        return 1.0
    raw = span / target
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10 * magnitude


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        text = f"{value:.1f}"
    elif abs(value) >= 0.01:
        text = f"{value:.3f}"
    else:
        return f"{value:.2e}"
    return text.rstrip("0").rstrip(".")


class _Scale:
    def __init__(self, lo: float, hi: float, px0: float, px1: float):
        self.lo, self.hi = lo, hi
        self.px0, self.px1 = px0, px1
        span = hi - lo
        self._k = (px1 - px0) / span if span else 0.0

    def __call__(self, v: float) -> float:
        return self.px0 + (v - self.lo) * self._k


def _panel_bounds(panel: Panel) -> Tuple[float, float]:
    values = [v for s in panel.series for _, v in s.points]
    lo, hi = min(values), max(values)
    if panel.zero_base:
        lo = min(0.0, lo)
    if hi == lo:
        hi = lo + 1.0
    pad = (hi - lo) * 0.08
    return (lo if panel.zero_base and lo == 0.0 else lo - pad), hi + pad


def _path(points: Sequence[Tuple[int, float]], sx: _Scale, sy: _Scale, step: bool) -> str:
    parts: List[str] = []
    last_y = None
    for t, v in points:
        x, y = sx(t), sy(v)
        if not parts:
            parts.append(f"M{x:.1f} {y:.1f}")
        elif step and last_y is not None:
            parts.append(f"L{x:.1f} {last_y:.1f}")
            parts.append(f"L{x:.1f} {y:.1f}")
        else:
            parts.append(f"L{x:.1f} {y:.1f}")
        last_y = y
    return " ".join(parts)


# -- SVG assembly ----------------------------------------------------------


def _render_panel_svg(
    panel: Panel,
    index: int,
    sx: _Scale,
    phases: Sequence[Tuple[str, int, int]],
    with_x_axis: bool,
) -> str:
    height = AXIS_PANEL_H if with_x_axis else PANEL_H
    lo, hi = _panel_bounds(panel)
    sy = _Scale(lo, hi, PLOT_Y1, PLOT_Y0)
    out: List[str] = [
        f'<svg class="panel-svg" data-panel="{index}" role="img" '
        f'aria-label="{html.escape(panel.title)} timeline" '
        f'viewBox="0 0 {WIDTH} {height}" preserveAspectRatio="none">'
    ]
    # Run-phase washes (identity by label, not color alone).
    for name, start, end in phases:
        if name == "measure":
            continue
        x0, x1 = sx(start), sx(end)
        out.append(
            f'<rect class="phase-wash" x="{x0:.1f}" y="{PLOT_Y0}" '
            f'width="{max(0.0, x1 - x0):.1f}" height="{PLOT_Y1 - PLOT_Y0}"/>'
        )
    # Horizontal gridlines + y tick labels.
    step = _nice_step(hi - lo, target=3)
    tick = math.ceil(lo / step) * step
    while tick <= hi:
        y = sy(tick)
        out.append(
            f'<line class="grid" x1="{PLOT_X0}" y1="{y:.1f}" '
            f'x2="{PLOT_X1}" y2="{y:.1f}"/>'
        )
        out.append(
            f'<text class="tick" x="{PLOT_X0 - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
        tick += step
    # X gridlines (labels only on the bottom panel).
    x_step = _nice_step((sx.hi - sx.lo) / 1e6, target=6) * 1e6
    t = math.ceil(sx.lo / x_step) * x_step
    while t <= sx.hi:
        x = sx(t)
        out.append(
            f'<line class="grid" x1="{x:.1f}" y1="{PLOT_Y0}" '
            f'x2="{x:.1f}" y2="{PLOT_Y1}"/>'
        )
        if with_x_axis:
            out.append(
                f'<text class="tick" x="{x:.1f}" y="{PLOT_Y1 + 16}" '
                f'text-anchor="middle">{_fmt(t / 1e6)}</text>'
            )
        t += x_step
    if with_x_axis:
        out.append(
            f'<text class="tick axis-name" x="{(PLOT_X0 + PLOT_X1) / 2:.0f}" '
            f'y="{PLOT_Y1 + 32}" text-anchor="middle">simulated time (ms)</text>'
        )
    # Series: a ~10% area wash under a lone gauge line, then 2px lines.
    if len(panel.series) == 1 and panel.zero_base:
        series = panel.series[0]
        if series.points:
            d = _path(series.points, sx, sy, series.step)
            x_last, x_first = sx(series.points[-1][0]), sx(series.points[0][0])
            out.append(
                f'<path class="area s0" d="{d} L{x_last:.1f} {PLOT_Y1} '
                f'L{x_first:.1f} {PLOT_Y1} Z"/>'
            )
    for slot, series in enumerate(panel.series[: len(PALETTE)]):
        if series.points:
            out.append(
                f'<path class="line s{slot}" '
                f'd="{_path(series.points, sx, sy, series.step)}"/>'
            )
    out.append(
        f'<line class="xhair" x1="0" y1="{PLOT_Y0}" x2="0" y2="{PLOT_Y1}" '
        f'visibility="hidden"/>'
    )
    out.append("</svg>")
    return "".join(out)


def _render_legend(panel: Panel) -> str:
    if len(panel.series) < 2:
        return ""
    chips = "".join(
        f'<span class="key"><span class="chip s{slot}"></span>'
        f"{html.escape(series.label)}</span>"
        for slot, series in enumerate(panel.series[: len(PALETTE)])
    )
    return f'<span class="legend">{chips}</span>'


def _render_table(panel: Panel) -> str:
    grid: Dict[int, Dict[str, float]] = {}
    for series in panel.series:
        for t, v in series.points:
            grid.setdefault(t, {})[series.label] = v
    times = sorted(grid)
    stride = max(1, math.ceil(len(times) / MAX_TABLE_ROWS))
    head = "".join(
        f"<th>{html.escape(s.label)}" + (f" ({panel.unit})" if panel.unit else "") + "</th>"
        for s in panel.series
    )
    rows = []
    for t in times[::stride]:
        cells = "".join(
            f"<td>{_fmt(grid[t][s.label])}</td>" if s.label in grid[t] else "<td></td>"
            for s in panel.series
        )
        rows.append(f"<tr><td>{_fmt(t / 1e6)}</td>{cells}</tr>")
    note = (
        f"<p class='muted'>showing every {stride}th sample</p>" if stride > 1 else ""
    )
    return (
        "<details class='table-view'><summary>Data table</summary>"
        f"{note}<table><thead><tr><th>t (ms)</th>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


_CSS = """
:root {
  --surface: #fcfcfb; --ink: #1a1a19; --ink-muted: #898781;
  --grid: #e1e0d9; --panel-border: #e1e0d9;
  --s0: #2a78d6; --s1: #eb6834; --s2: #1baf7a; --s3: #eda100;
  --alert: #e34948; --wash: #898781;
}
@media (prefers-color-scheme: dark) { :root:not([data-theme="light"]) {
  --surface: #1a1a19; --ink: #f1f0ec; --ink-muted: #8f8d86;
  --grid: #2c2c2a; --panel-border: #2c2c2a;
  --s0: #3987e5; --s1: #d95926; --s2: #199e70; --s3: #c98500;
  --alert: #f2555f; --wash: #8f8d86;
} }
:root[data-theme="dark"] {
  --surface: #1a1a19; --ink: #f1f0ec; --ink-muted: #8f8d86;
  --grid: #2c2c2a; --panel-border: #2c2c2a;
  --s0: #3987e5; --s1: #d95926; --s2: #199e70; --s3: #c98500;
  --alert: #f2555f; --wash: #8f8d86;
}
* { box-sizing: border-box; }
body { margin: 0 auto; padding: 16px 20px 48px; max-width: 1040px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
h1 { font-size: 18px; margin: 8px 0 2px; }
.meta { color: var(--ink-muted); }
#theme-toggle { margin-left: auto; background: none; color: var(--ink-muted);
  border: 1px solid var(--panel-border); border-radius: 6px;
  padding: 2px 10px; cursor: pointer; font: inherit; }
.phase-strip { display: flex; gap: 16px; color: var(--ink-muted);
  font-size: 12px; margin: 4px 0 10px; }
.panel { margin: 0 0 6px; }
.panel figcaption { display: flex; align-items: baseline; gap: 10px;
  font-size: 13px; margin-bottom: 2px; }
.panel .unit { color: var(--ink-muted); }
.legend { display: inline-flex; gap: 12px; flex-wrap: wrap; }
.key { display: inline-flex; align-items: center; gap: 5px;
  color: var(--ink); font-size: 12px; }
.chip { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.chip.s0 { background: var(--s0); } .chip.s1 { background: var(--s1); }
.chip.s2 { background: var(--s2); } .chip.s3 { background: var(--s3); }
.panel-svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.tick { fill: var(--ink-muted); font-size: 10px; }
.axis-name { font-size: 11px; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.line.s0 { stroke: var(--s0); } .line.s1 { stroke: var(--s1); }
.line.s2 { stroke: var(--s2); } .line.s3 { stroke: var(--s3); }
.area.s0 { fill: var(--s0); opacity: 0.1; stroke: none; }
.phase-wash { fill: var(--wash); opacity: 0.08; }
.xhair { stroke: var(--ink-muted); stroke-width: 1; }
.note { border: 1px solid var(--panel-border); border-radius: 8px;
  padding: 8px 12px; margin: 12px 0; font-size: 13px; }
#tooltip { position: fixed; pointer-events: none; display: none;
  background: var(--surface); color: var(--ink);
  border: 1px solid var(--panel-border); border-radius: 6px;
  box-shadow: 0 2px 10px rgba(0,0,0,.15);
  padding: 6px 10px; font-size: 12px; z-index: 10; }
#tooltip .t { color: var(--ink-muted); }
#tooltip .row { display: flex; gap: 6px; align-items: center; }
.table-view { margin: 2px 0 14px; font-size: 12px; }
.table-view summary { cursor: pointer; color: var(--ink-muted); }
.table-view table { border-collapse: collapse; margin-top: 6px; }
.table-view th, .table-view td { border: 1px solid var(--panel-border);
  padding: 2px 8px; text-align: right; }
.muted { color: var(--ink-muted); margin: 4px 0; }
"""

_JS = """
(function () {
  var data = JSON.parse(document.getElementById("dash-data").textContent);
  var tooltip = document.getElementById("tooltip");
  var svgs = Array.prototype.slice.call(
    document.querySelectorAll(".panel-svg"));
  var toggle = document.getElementById("theme-toggle");
  toggle.addEventListener("click", function () {
    var root = document.documentElement;
    var dark = root.getAttribute("data-theme") === "dark" ||
      (root.getAttribute("data-theme") !== "light" &&
       matchMedia("(prefers-color-scheme: dark)").matches);
    root.setAttribute("data-theme", dark ? "light" : "dark");
  });
  function nearest(times, t) {
    var lo = 0, hi = times.length - 1;
    if (hi < 0) return -1;
    while (lo < hi) {
      var mid = (lo + hi) >> 1;
      if (times[mid] < t) lo = mid + 1; else hi = mid;
    }
    if (lo > 0 && Math.abs(times[lo - 1] - t) < Math.abs(times[lo] - t)) lo--;
    return lo;
  }
  function fmt(v) {
    if (v === 0) return "0";
    if (Math.abs(v) >= 1000) return v.toLocaleString(undefined,
      {maximumFractionDigits: 0});
    if (Math.abs(v) >= 10) return v.toFixed(1).replace(/\\.?0+$/, "");
    if (Math.abs(v) >= 0.01) return v.toFixed(3).replace(/\\.?0+$/, "");
    return v.toExponential(2);
  }
  svgs.forEach(function (svg) {
    svg.addEventListener("mousemove", function (ev) {
      var rect = svg.getBoundingClientRect();
      var sx = rect.width / data.width;
      var px = (ev.clientX - rect.left) / sx;
      if (px < data.x0 || px > data.x1) { hide(); return; }
      var t = data.t0 + (px - data.x0) / (data.x1 - data.x0) *
        (data.t1 - data.t0);
      svgs.forEach(function (s) {
        var line = s.querySelector(".xhair");
        line.setAttribute("x1", px); line.setAttribute("x2", px);
        line.setAttribute("visibility", "visible");
      });
      var panel = data.panels[+svg.getAttribute("data-panel")];
      var rows = panel.series.map(function (s, i) {
        var idx = nearest(s.times, t / 1e6);
        var v = idx >= 0 ? fmt(s.values[idx]) : "-";
        return '<div class="row"><span class="chip s' + (i % 4) +
          '"></span><span>' + s.label + "</span><b>" + v + "</b></div>";
      }).join("");
      tooltip.innerHTML = '<div class="t">' + fmt(t / 1e6) + " ms — " +
        panel.title + "</div>" + rows;
      tooltip.style.display = "block";
      var tx = ev.clientX + 14, ty = ev.clientY + 14;
      if (tx + tooltip.offsetWidth > innerWidth - 8)
        tx = ev.clientX - tooltip.offsetWidth - 14;
      tooltip.style.left = tx + "px"; tooltip.style.top = ty + "px";
    });
    svg.addEventListener("mouseleave", hide);
  });
  function hide() {
    tooltip.style.display = "none";
    svgs.forEach(function (s) {
      s.querySelector(".xhair").setAttribute("visibility", "hidden");
    });
  }
})();
"""


def render_dashboard(
    bundle: TimeseriesBundle,
    title: str = "Flight recorder",
    subtitle: str = "",
    phases: Optional[Sequence[Tuple[str, int, int]]] = None,
    panels: Optional[List[Panel]] = None,
    extra_html: str = "",
) -> str:
    """Render a bundle as one self-contained HTML page (returned as str).

    ``phases`` are ``(name, start_ns, end_ns)`` run windows; every phase
    except ``"measure"`` is shaded across all panels.  ``panels``
    overrides the :func:`standard_panels` layout.  ``extra_html`` is
    appended below the panels (already-escaped markup).
    """
    panels = panels if panels is not None else standard_panels(bundle)
    if not panels:
        raise ValueError("bundle holds no plottable series")
    phases = list(phases or ())
    t0 = min((s.points[0][0] for p in panels for s in p.series if s.points))
    t1 = max((s.points[-1][0] for p in panels for s in p.series if s.points))
    for _, start, end in phases:
        t0, t1 = min(t0, start), max(t1, end)
    if t1 <= t0:
        t1 = t0 + 1
    sx = _Scale(t0, t1, PLOT_X0, PLOT_X1)

    body: List[str] = []
    for index, panel in enumerate(panels):
        unit = f'<span class="unit">{html.escape(panel.unit)}</span>' if panel.unit else ""
        body.append(
            '<figure class="panel">'
            f"<figcaption><b>{html.escape(panel.title)}</b>{unit}"
            f"{_render_legend(panel)}</figcaption>"
            + _render_panel_svg(
                panel, index, sx, phases, with_x_axis=(index == len(panels) - 1)
            )
            + "</figure>"
            + _render_table(panel)
        )

    phase_strip = ""
    if phases:
        parts = "".join(
            f"<span>{html.escape(name)}: {_fmt(start / 1e6)}-{_fmt(end / 1e6)} ms</span>"
            for name, start, end in phases
        )
        phase_strip = f'<div class="phase-strip">{parts}</div>'

    payload = {
        "width": WIDTH,
        "x0": PLOT_X0,
        "x1": PLOT_X1,
        "t0": t0,
        "t1": t1,
        "panels": [
            {
                "title": p.title,
                "series": [
                    {
                        "label": s.label,
                        "times": [round(t / 1e6, 4) for t, _ in s.points],
                        "values": [round(v, 6) for _, v in s.points],
                    }
                    for s in p.series
                ],
            }
            for p in panels
        ],
    }

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<header>
<div><h1>{html.escape(title)}</h1>
<div class="meta">{html.escape(subtitle)}</div></div>
<button id="theme-toggle" type="button">light/dark</button>
</header>
{phase_strip}
{''.join(body)}
{extra_html}
<div id="tooltip"></div>
<script id="dash-data" type="application/json">{json.dumps(payload, separators=(',', ':'))}</script>
<script>{_JS}</script>
</body>
</html>
"""


def _energy_block(attribution) -> str:
    """Stacked energy-decomposition bar + governor-miss table.

    ``attribution`` is an
    :class:`~repro.analysis.energy.EnergyAttribution` (single-node or a
    fleet merge).  Identity is never color-alone: every segment repeats
    its label, joules and share in the legend and a hover title.
    """
    total = attribution.total_j
    if total <= 0:
        return ""
    segments = [
        ("active", attribution.active_j, "var(--s0)"),
        ("ramp", attribution.ramp_j, "var(--s1)"),
        ("wake", attribution.wake_j, "var(--s2)"),
        ("idle floor", attribution.floor_j, "var(--s3)"),
        ("wasted shallow", attribution.wasted_shallow_j, "var(--alert)"),
    ]
    bar: List[str] = []
    legend: List[str] = []
    for label, joules, color in segments:
        pct = 100.0 * joules / total
        if pct > 0.05:
            bar.append(
                f'<span title="{html.escape(label)}: {joules:.4f} J '
                f'({pct:.1f}%)" style="display:inline-block;height:18px;'
                f'width:{pct:.2f}%;background:{color};"></span>'
            )
        legend.append(
            f'<span class="key"><span class="chip" '
            f'style="background:{color};"></span>'
            f"{html.escape(label)} {joules:.4f} J ({pct:.1f}%)</span>"
        )
    gov_block = ""
    if attribution.decisions:
        rows = []
        for gov in sorted(attribution.decisions):
            totals = attribution.decision_totals(gov)
            n = sum(totals.values())
            rows.append(
                f"<tr><td>{html.escape(gov)}</td>"
                f"<td>{totals['above']}</td><td>{totals['below']}</td>"
                f"<td>{totals['hit']}</td>"
                f"<td>{100.0 * totals['hit'] / n:.1f}%</td></tr>"
                if n else ""
            )
        gov_block = (
            "<details class='table-view'><summary>Governor decisions vs "
            "perfect oracle</summary><table><thead><tr><th>governor</th>"
            "<th>above</th><th>below</th><th>hit</th><th>hit rate</th>"
            f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
            f"<p class='muted'>miss cost: {attribution.above_ns / 1e6:.3f} "
            f"ms extra exit latency (above), {attribution.below_j:.4f} J "
            "wasted shallow (below)</p></details>"
        )
    nodes = (
        f" across {attribution.n_nodes} nodes"
        if attribution.n_nodes > 1 else ""
    )
    return (
        "<div class='note'><b>Energy decomposition</b> — "
        f"{total:.4f} J{nodes}, conservation error "
        f"{attribution.conservation_error_j:+.2e} J"
        f'<div style="display:flex;margin:8px 0 6px;border-radius:4px;'
        f'overflow:hidden;">{"".join(bar)}</div>'
        f'<span class="legend">{"".join(legend)}</span>'
        f"{gov_block}</div>"
    )


def dashboard_from_result(
    result,
    config=None,
    title: Optional[str] = None,
) -> str:
    """Render any :class:`~repro.cluster.simulation.ExperimentResult` that
    carries a ``timeseries`` bundle (pass its config for phase shading).

    A run with ``energy_attribution=True`` adds the stacked
    energy-decomposition bar and governor-miss table below the panels.
    """
    bundle = getattr(result, "timeseries", None)
    if bundle is None:
        raise ValueError(
            "result has no timeseries; run with record_timeseries="
            "'coarse' (or a RecorderConfig)"
        )
    if isinstance(bundle, dict):
        bundle = TimeseriesBundle.from_json_dict(bundle)
    phases = None
    subtitle = ""
    if config is not None:
        warmup = config.warmup_ns
        measured = warmup + config.measure_ns
        phases = [
            ("warmup", 0, warmup),
            ("measure", warmup, measured),
            ("drain", measured, config.end_ns),
        ]
        subtitle = (
            f"{config.app} / {result.policy_name} @ "
            f"{config.target_rps / 1000:g}K rps - seed {config.seed}"
        )
    extra_html = ""
    attribution = getattr(result, "energy_attribution", None)
    if attribution is not None:
        extra_html = _energy_block(attribution)
    return render_dashboard(
        bundle,
        title=title or "Flight recorder",
        subtitle=subtitle,
        phases=phases,
        extra_html=extra_html,
    )


def _fleet_imbalance_panel(fleet_profile) -> Optional[Panel]:
    """Per-window shard wall time as a timeline panel over sim time.

    One step line per shard (the top :data:`PALETTE` shards by total wall
    time when the fleet is wider than the palette), x = the window's
    sim-time end, y = the shard's wall seconds for that window — the
    imbalance picture, aligned under the simulated-metric panels.
    """
    windows = getattr(fleet_profile, "windows", None)
    if not windows:
        return None
    totals = fleet_profile.shard_wall_totals
    shown = sorted(totals, key=lambda s: (-totals[s], s))[: len(PALETTE)]
    panel = Panel("Shard wall time (imbalance)", "s/window")
    for s in sorted(shown):
        points = [
            (w.t_end_ns, w.shard_wall_s.get(s, 0.0)) for w in windows
        ]
        panel.series.append(PanelSeries(f"shard {s}", points, step=True))
    return panel if panel.has_data() else None


def _fleet_trace_block(trace, shard_of_server, trace_path: Optional[str]) -> str:
    """Deep-link section for the sampled cross-shard request traces."""
    traces = getattr(trace, "traces", None)
    if not traces:
        return ""
    link = ""
    if trace_path:
        link = (
            f' — merged Chrome-trace: <a href="{html.escape(trace_path)}">'
            f"{html.escape(trace_path)}</a> (open in Perfetto)"
        )
    rows = []
    for t in traces[:MAX_TABLE_ROWS]:
        marks = t.markers()
        send = marks.get("send")
        recv = marks.get("reply_recv")
        rtt = f"{(recv - send) / 1e6:.3f}" if send is not None and recv is not None else "-"
        shard = shard_of_server.get(t.server_index, "-")
        rows.append(
            f"<tr><td>{html.escape(t.trace_id)}</td>"
            f"<td>server{t.server_index}</td><td>{shard}</td>"
            f"<td>{_fmt(send / 1e6) if send is not None else '-'}</td>"
            f"<td>{rtt}</td></tr>"
        )
    return (
        "<div class='note'><b>"
        f"{len(traces)} traced request"
        f"{'s' if len(traces) != 1 else ''}</b> "
        f"(1 in {trace.sample_every} deterministic sample){link}"
        "<details class='table-view'><summary>Trace samples</summary>"
        "<table><thead><tr><th>trace id</th><th>server</th><th>shard</th>"
        "<th>sent (ms)</th><th>RTT (ms)</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details></div>"
    )


def dashboard_from_datacenter(
    result, title: Optional[str] = None, trace_path: Optional[str] = None
) -> str:
    """Render a recorded :class:`~repro.cluster.datacenter.DatacenterResult`
    with the per-metric, line-per-server :func:`datacenter_panels` layout.

    A run with ``profile_fleet=`` adds a per-window shard wall-time panel
    (the imbalance picture); one with ``trace_requests=`` adds a trace
    sample table, deep-linking ``trace_path`` when the merged Chrome-trace
    was written next to the dashboard.
    """
    record = getattr(result, "record", None)
    timeseries = getattr(record, "timeseries", None) or {}
    if not timeseries:
        raise ValueError(
            "result carries no merged timeseries; run with "
            "record_timeseries='coarse' (or a RecorderConfig)"
        )
    bundle = TimeseriesBundle.from_json_dict(timeseries)
    config = result.config
    warmup = config.warmup_ns
    measured = warmup + config.measure_ns
    panels = datacenter_panels(bundle)
    fleet_profile = getattr(result, "fleet_profile", None)
    if fleet_profile is not None:
        imbalance = _fleet_imbalance_panel(fleet_profile)
        if imbalance is not None:
            panels.append(imbalance)
    extra_html = ""
    trace = getattr(result, "trace", None)
    if trace is not None:
        shard_of_server = {
            i: s.shard_index
            for s in getattr(result, "shards", ())
            for i in s.server_indices
        }
        extra_html = _fleet_trace_block(trace, shard_of_server, trace_path)
    if record is not None and getattr(record, "energy_attribution", None):
        extra_html += _energy_block(record.energy_attribution_report())
    return render_dashboard(
        bundle,
        title=title or "Datacenter flight recorder",
        subtitle=(
            f"{config.app} / {record.policy} - {config.n_servers} servers, "
            f"{config.n_shards} shard{'s' if config.n_shards != 1 else ''} - "
            f"seed {config.seed}"
        ),
        phases=[
            ("warmup", 0, warmup),
            ("measure", warmup, measured),
            ("drain", measured, config.end_ns),
        ],
        panels=panels,
        extra_html=extra_html,
    )


def write_dashboard(html_text: str, path: str) -> str:
    """Write rendered dashboard HTML to ``path`` (creating parents)."""
    import os

    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(html_text)
    return path
