"""Rendering attribution results as blame tables.

Pure formatting: takes :class:`~repro.analysis.attribution.AttributionReport`
objects (per policy) and renders the paper-style tail-blame tables
("at p99 under ond.idle, X% of latency is wake+ramp; under NCAP, Y%").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.analysis.attribution import COMPONENTS, AttributionReport
from repro.metrics.report import format_table


def _share_cell(share: float) -> str:
    return f"{100.0 * share:.1f}%"


def format_tail_table(
    results: Sequence[Tuple[str, AttributionReport]],
    tail: str = "p99",
    title: str = "",
) -> str:
    """One tail's blame table: rows = policies, columns = components."""
    headers = ["policy", f"{tail} (ms)"] + list(COMPONENTS) + ["wake+ramp"]
    rows: List[List[str]] = []
    for policy, report in results:
        entry = report.tails.get(tail)
        if entry is None:
            rows.append([policy, "-"] + ["-"] * (len(COMPONENTS) + 1))
            continue
        row = [policy, f"{entry.threshold_ns / 1e6:.3f}"]
        row += [_share_cell(entry.shares.get(name, 0.0)) for name in COMPONENTS]
        row.append(_share_cell(entry.wake_ramp_share))
        rows.append(row)
    return format_table(headers, rows, title=title or f"Latency blame at {tail}")


def format_mean_table(
    results: Sequence[Tuple[str, AttributionReport]],
    title: str = "Mean latency decomposition (us)",
) -> str:
    """Mean per-component table in microseconds (all requests)."""
    headers = ["policy", "requests", "mean (us)"] + list(COMPONENTS)
    rows: List[List[str]] = []
    for policy, report in results:
        row = [policy, str(report.count), f"{report.mean_total_ns / 1e3:.2f}"]
        row += [
            f"{report.component_mean_ns.get(name, float('nan')) / 1e3:.2f}"
            for name in COMPONENTS
        ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_attribution_report(
    results: Sequence[Tuple[str, AttributionReport]],
    title: str = "Critical-path attribution",
    tails: Sequence[str] = ("p95", "p99"),
) -> str:
    """The full report: mean decomposition plus one table per tail."""
    sections = [format_mean_table(results)]
    for tail in tails:
        sections.append(format_tail_table(results, tail=tail))
    pm_lines: List[str] = []
    for policy, report in results:
        p99 = report.tails.get("p99")
        if p99 is not None:
            pm_lines.append(
                f"  {policy:<12} wake+ramp = {100 * p99.wake_ramp_share:.1f}% "
                f"of p99 ({p99.threshold_ns / 1e6:.3f} ms)"
            )
    body = "\n\n".join(sections)
    summary = "\n".join(pm_lines)
    return f"{title}\n\n{body}\n\nPower-management blame at the tail:\n{summary}\n"

