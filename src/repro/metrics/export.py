"""Series and result export: dump recorded data for external tooling.

The benchmark suite prints sparkline reports, but anyone regenerating the
paper's figures in a plotting tool needs the raw series.
:func:`export_timeseries_csv` writes every flight-recorder series of a run
to one plain CSV file each, and ``export_result_records`` /
``load_result_records`` round-trip harness :class:`ResultRecord` lists
through JSON.
"""

from __future__ import annotations

import csv
import json
import os
from typing import TYPE_CHECKING, Iterable, List

from repro.metrics.timeseries import counter_bins, window_points

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.record import ResultRecord
    from repro.telemetry.recorder import TimeseriesBundle


def export_timeseries_csv(
    bundle: "TimeseriesBundle", directory: str, start_ns: int, end_ns: int
) -> List[str]:
    """Write each recorded series over a window as ``<series>.csv``.

    Dots in the series name become underscores (``nic.rx.bytes`` ->
    ``nic_rx_bytes.csv``).  A gauge becomes ``time_ns,value`` rows, one per
    sample with ``start <= t <= end``; a cumulative counter becomes
    ``bin_start_ns,amount`` rows, its increment over each sampling
    interval that starts in ``[start, end)``.  Returns the written paths
    in series order.
    """
    paths = []
    for series in bundle.series:
        path = os.path.join(directory, series.name.replace(".", "_") + ".csv")
        if series.kind == "counter":
            header = ["bin_start_ns", "amount"]
            rows = [
                (t, amount) for t, _, amount in counter_bins(series, start_ns, end_ns)
            ]
        else:
            header = ["time_ns", "value"]
            rows = window_points(series, start_ns, end_ns)
        _ensure_dir(path)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


def export_chrome_trace(sink, path: str) -> int:
    """Write a :class:`repro.telemetry.ChromeTraceSink` as Chrome-trace JSON.

    The output loads directly in Perfetto / ``chrome://tracing``.  Returns
    the number of trace events written.
    """
    _ensure_dir(path)
    return sink.write(path)


def export_result_records(
    records: Iterable["ResultRecord"], path: str
) -> str:
    """Write harness result records as a JSON array; returns ``path``.

    The file is self-describing (each record carries its schema version)
    and reloadable with :func:`load_result_records`.
    """
    _ensure_dir(path)
    payload = [record.to_json_dict() for record in records]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_result_records(path: str) -> List["ResultRecord"]:
    """Read a JSON array written by :func:`export_result_records`."""
    from repro.harness.record import ResultRecord

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of result records")
    return [ResultRecord.from_json_dict(entry) for entry in payload]


def _ensure_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
