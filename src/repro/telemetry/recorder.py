"""Flight recorder: sim-time time-series capture of telemetry stats.

A :class:`TimeSeriesRecorder` samples a declared set of sources on a
simulated-time cadence into bounded ring buffers:

* registry stats by exact name (:meth:`~TimeSeriesRecorder.add_stat`) or
  whole subtrees (:meth:`~TimeSeriesRecorder.add_pattern`, e.g.
  ``"nic.rx.*"``) — counters are sampled *cumulatively* so consumers can
  derive exact per-bin rates by differencing;
* derived quantities via plain callables
  (:meth:`~TimeSeriesRecorder.add_source`) — per-core frequency, C-state
  index, utilization, power — anything a closure can compute at sample
  time.

Sampling is pure instrumentation: it costs zero simulated time, and a
recorder that is never started (or never built) costs nothing at all —
the simulation layers are not instrumented by the recorder; it *reads*
existing state on its own schedule.

**Bounded memory, deterministic decimation.**  Each series holds at most
``capacity`` samples.  When a series fills, every other retained sample is
dropped (even positions survive) and the series' sampling stride doubles,
so it keeps covering the whole run at progressively coarser resolution.
The decimation depends only on the sample count — never on wall time or
randomness — so the same run (same seed, same cadence) produces identical
series everywhere, including across process-pool workers.

**Watchpoints.**  Predicates over the sampled series (see
:mod:`repro.telemetry.triggers`) are evaluated after every base-cadence
tick.  A tripped watchpoint switches the recorder into a *high-resolution
capture window*: for a bounded duration every source is additionally
sampled at ``interval_ns / hires_factor`` into a dedicated window buffer,
leaving the base series cadence (and therefore its decimation schedule)
untouched.

The end product of a run is a :class:`TimeseriesBundle` — a plain,
JSON-serializable projection of every series and capture window that
rides on :class:`~repro.cluster.simulation.ExperimentResult` and
:class:`~repro.harness.record.ResultRecord` (schema v4) and feeds the
HTML dashboard (:mod:`repro.viz.dashboard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.sim.kernel import Event, Simulator
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry
    from repro.telemetry.triggers import Watchpoint

SourceFn = Callable[[], float]

#: Default ring capacity: 4096 samples per series (a 400 ms run at 1 ms
#: cadence stays un-decimated with 10x headroom).
DEFAULT_CAPACITY = 4096


class SeriesBuffer:
    """One bounded ``(time, value)`` ring with 2x-decimation on overflow.

    ``stride`` starts at 1 and doubles every time the buffer fills; a
    sample is retained only when the series-local tick counter is a
    multiple of the current stride, so retained samples always sit on a
    uniform grid of ``stride * base_interval``.
    """

    __slots__ = ("name", "kind", "capacity", "stride", "times", "values", "_tick")

    def __init__(self, name: str, kind: str, capacity: int):
        if capacity < 4:
            raise ValueError("series capacity must be at least 4")
        self.name = name
        self.kind = kind  # "gauge" | "counter"
        self.capacity = capacity
        self.stride = 1
        self.times: List[int] = []
        self.values: List[float] = []
        self._tick = 0

    def append(self, t_ns: int, value: float) -> None:
        """Offer one base-cadence sample; retained iff on the stride grid."""
        tick = self._tick
        self._tick = tick + 1
        if tick % self.stride:
            return
        self.times.append(t_ns)
        self.values.append(value)
        if len(self.times) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        # Keep even positions: sample 0 (the series origin) always
        # survives, and the retained grid spacing exactly doubles.
        self.times = self.times[::2]
        self.values = self.values[::2]
        self.stride *= 2

    def __len__(self) -> int:
        return len(self.times)

    def tail(self, n: int) -> List[float]:
        """The last ``n`` retained values (for watchpoint predicates)."""
        return self.values[-n:]

    def last(self) -> Optional[Tuple[int, float]]:
        if not self.times:
            return None
        return self.times[-1], self.values[-1]


@dataclass
class SeriesData:
    """The serializable projection of one recorded series."""

    name: str
    kind: str                      # "gauge" | "counter"
    stride: int                    # final decimation stride (x base interval)
    times: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.times, self.values))

    def rate_points(self) -> List[Tuple[int, float]]:
        """Per-interval deltas of a cumulative counter, labelled by the
        *end* time of each interval, scaled to per-second."""
        out: List[Tuple[int, float]] = []
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            if dt <= 0:
                continue
            out.append((self.times[i], (self.values[i] - self.values[i - 1]) * 1e9 / dt))
        return out


@dataclass
class CaptureWindow:
    """One high-resolution capture opened by a tripped watchpoint."""

    watchpoint: str
    fired_at_ns: int
    start_ns: int
    end_ns: int
    interval_ns: int
    series: Dict[str, SeriesData] = field(default_factory=dict)


@dataclass
class WatchpointRecord:
    """One watchpoint firing, as it appears in the serialized bundle."""

    name: str
    series: str
    t_ns: int
    value: float
    detail: str = ""


@dataclass
class TimeseriesBundle:
    """Everything one recorder captured, as plain JSON-able data.

    ``interval_ns`` is the base sampling cadence; each series carries its
    own final ``stride`` so consumers know its effective resolution
    (``stride * interval_ns``).
    """

    interval_ns: int
    start_ns: int
    end_ns: int
    series: List[SeriesData] = field(default_factory=list)
    windows: List[CaptureWindow] = field(default_factory=list)
    fired: List[WatchpointRecord] = field(default_factory=list)

    def names(self) -> List[str]:
        return [s.name for s in self.series]

    def get(self, name: str) -> Optional[SeriesData]:
        for s in self.series:
            if s.name == name:
                return s
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    # -- JSON round-trip -------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "interval_ns": self.interval_ns,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "series": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "stride": s.stride,
                    "times": list(s.times),
                    "values": list(s.values),
                }
                for s in self.series
            ],
            "windows": [
                {
                    "watchpoint": w.watchpoint,
                    "fired_at_ns": w.fired_at_ns,
                    "start_ns": w.start_ns,
                    "end_ns": w.end_ns,
                    "interval_ns": w.interval_ns,
                    "series": {
                        name: {
                            "name": s.name,
                            "kind": s.kind,
                            "stride": s.stride,
                            "times": list(s.times),
                            "values": list(s.values),
                        }
                        for name, s in sorted(w.series.items())
                    },
                }
                for w in self.windows
            ],
            "fired": [
                {
                    "name": f.name,
                    "series": f.series,
                    "t_ns": f.t_ns,
                    "value": f.value,
                    "detail": f.detail,
                }
                for f in self.fired
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "TimeseriesBundle":
        def series(entry) -> SeriesData:
            return SeriesData(
                name=entry["name"],
                kind=entry["kind"],
                stride=int(entry["stride"]),
                times=[int(t) for t in entry["times"]],
                values=[float(v) for v in entry["values"]],
            )

        return cls(
            interval_ns=int(data["interval_ns"]),
            start_ns=int(data["start_ns"]),
            end_ns=int(data["end_ns"]),
            series=[series(s) for s in data.get("series", ())],
            windows=[
                CaptureWindow(
                    watchpoint=w["watchpoint"],
                    fired_at_ns=int(w["fired_at_ns"]),
                    start_ns=int(w["start_ns"]),
                    end_ns=int(w["end_ns"]),
                    interval_ns=int(w["interval_ns"]),
                    series={
                        name: series(s) for name, s in dict(w["series"]).items()
                    },
                )
                for w in data.get("windows", ())
            ],
            fired=[
                WatchpointRecord(
                    name=f["name"],
                    series=f["series"],
                    t_ns=int(f["t_ns"]),
                    value=float(f["value"]),
                    detail=f.get("detail", ""),
                )
                for f in data.get("fired", ())
            ],
        )


@dataclass(frozen=True)
class RecorderConfig:
    """How a run's flight recorder samples.

    Not an :class:`~repro.cluster.simulation.ExperimentConfig` field:
    like sinks and auditing, attaching a recorder is observation, so it
    must never invalidate cached sweep results.
    """

    interval_ns: int = 1 * MS
    capacity: int = DEFAULT_CAPACITY
    #: Extra registry subtrees to sample on top of the standard sources
    #: (e.g. ``("governor.*",)``).
    patterns: Tuple[str, ...] = ()

    @classmethod
    def coarse(cls) -> "RecorderConfig":
        """1 ms cadence — the paper figures' bin width."""
        return cls(interval_ns=1 * MS)

    @classmethod
    def fine(cls) -> "RecorderConfig":
        """100 µs cadence for close-up dynamics."""
        return cls(interval_ns=MS // 10)


#: ``record_timeseries=`` accepts a config, a preset name, or a bool.
RECORDER_PRESETS: Dict[str, Callable[[], RecorderConfig]] = {
    "coarse": RecorderConfig.coarse,
    "fine": RecorderConfig.fine,
}


def resolve_recorder_config(spec) -> Optional[RecorderConfig]:
    """Normalize a ``record_timeseries=`` argument to a config (or None)."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return RecorderConfig.coarse()
    if isinstance(spec, RecorderConfig):
        return spec
    if isinstance(spec, str):
        try:
            return RECORDER_PRESETS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown recorder preset {spec!r}; "
                f"choose from {sorted(RECORDER_PRESETS)}"
            ) from None
    raise TypeError(f"cannot interpret record_timeseries={spec!r}")


class _Source:
    __slots__ = ("name", "fn", "kind")

    def __init__(self, name: str, fn: SourceFn, kind: str):
        self.name = name
        self.fn = fn
        self.kind = kind


class TimeSeriesRecorder:
    """Samples declared sources on a sim-time cadence into ring buffers.

    Zero simulated cost; near-zero wall cost when not started.  Start and
    stop are idempotent — calling :meth:`start` twice, or restarting
    after :meth:`stop` while a stale callback is still queued, never
    double-schedules the sampling chain (the pending event is cancelled
    and each chain checks its own generation).
    """

    def __init__(
        self,
        sim: Simulator,
        telemetry: Optional["Telemetry"] = None,
        interval_ns: int = 1 * MS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self._sim = sim
        self._telemetry = telemetry
        self.interval_ns = int(interval_ns)
        self.capacity = int(capacity)
        self._sources: List[_Source] = []
        self._patterns: List[Tuple[str, Optional[str]]] = []
        self._buffers: Dict[str, SeriesBuffer] = {}
        self._watchpoints: List["Watchpoint"] = []
        self._fired: List[WatchpointRecord] = []
        self._windows: List[CaptureWindow] = []
        self._open_windows: List[_OpenWindow] = []
        self._running = False
        self._generation = 0
        self._pending: Optional[Event] = None
        self._start_ns: int = 0
        self._last_sample_ns: int = 0
        self._probe = telemetry.probe("telemetry.watchpoint") if telemetry else None

    # -- declaration -----------------------------------------------------

    def add_source(
        self,
        name: str,
        fn: SourceFn,
        kind: str = "gauge",
    ) -> None:
        """Sample ``fn()`` every tick as series ``name``.

        ``kind`` is ``"gauge"`` (point-in-time value) or ``"counter"``
        (cumulative; consumers difference it into rates).
        """
        if kind not in ("gauge", "counter"):
            raise ValueError(f"unknown series kind {kind!r}")
        if any(s.name == name for s in self._sources):
            raise ValueError(f"series {name!r} already declared")
        self._sources.append(_Source(name, fn, kind))

    def add_stat(self, name: str) -> None:
        """Sample one registry stat by exact name.

        Counters record cumulatively; gauges record their current value;
        distributions record their running mean.
        """
        stat = self._require_registry().get(name)
        if stat is None:
            raise KeyError(f"stat {name!r} is not declared in the registry")
        self.add_source(name, *_stat_source(stat))

    def add_pattern(self, pattern: str) -> None:
        """Sample every registry stat under a subtree (``"nic.rx.*"``).

        Resolution happens at :meth:`start` (and again at every restart),
        so stats declared after the recorder was built are still found.
        """
        self._require_registry()
        stem = pattern[:-2] if pattern.endswith(".*") else pattern
        self._patterns.append((pattern, stem))

    def add_watchpoint(self, watchpoint: "Watchpoint") -> None:
        self._watchpoints.append(watchpoint)

    def _require_registry(self):
        if self._telemetry is None:
            raise ValueError(
                "registry-backed series need a Telemetry; "
                "pass telemetry= to the recorder"
            )
        return self._telemetry.stats

    def _resolve_patterns(self) -> None:
        declared = {s.name for s in self._sources}
        registry = self._telemetry.stats if self._telemetry else None
        if registry is None:
            return
        for _pattern, stem in self._patterns:
            for name in registry.names():
                if name in declared:
                    continue
                if name == stem or name.startswith(stem + "."):
                    self.add_source(name, *_stat_source(registry.get(name)))
                    declared.add(name)

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin sampling.  Idempotent: a second call is a no-op."""
        if self._running:
            return
        self._resolve_patterns()
        self._running = True
        self._generation += 1
        self._start_ns = self._sim.now
        self._last_sample_ns = self._sim.now
        for source in self._sources:
            if source.name not in self._buffers:
                self._buffers[source.name] = SeriesBuffer(
                    source.name, source.kind, self.capacity
                )
        self._pending = self._sim.schedule(
            self.interval_ns, self._tick, self._generation
        )

    def stop(self) -> None:
        """Stop sampling.  Idempotent; cancels the queued callback so a
        later :meth:`start` can never double-schedule the chain."""
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # -- sampling --------------------------------------------------------

    def _tick(self, generation: int) -> None:
        # A stale chain (stopped, or superseded by a restart) dies here
        # even if its queued event survived cancellation somehow.
        if not self._running or generation != self._generation:
            return
        now = self._sim.now
        self._last_sample_ns = now
        for source in self._sources:
            self._buffers[source.name].append(now, float(source.fn()))
        for watchpoint in self._watchpoints:
            watchpoint.evaluate(self, now)
        self._pending = self._sim.schedule(self.interval_ns, self._tick, generation)

    # -- high-resolution capture windows ---------------------------------

    def open_capture(
        self, watchpoint: "Watchpoint", t_ns: int, value: float, detail: str
    ) -> None:
        """Record a firing and open its high-resolution window."""
        record = WatchpointRecord(
            name=watchpoint.name,
            series=watchpoint.series,
            t_ns=t_ns,
            value=value,
            detail=detail,
        )
        self._fired.append(record)
        if self._probe is not None and self._probe.enabled:
            from repro.telemetry.events import WatchpointFired

            self._probe.emit(
                WatchpointFired(
                    t_ns=t_ns,
                    name=watchpoint.name,
                    series=watchpoint.series,
                    value=value,
                    detail=detail,
                )
            )
        hires_ns = max(1, self.interval_ns // watchpoint.hires_factor)
        window = CaptureWindow(
            watchpoint=watchpoint.name,
            fired_at_ns=t_ns,
            start_ns=t_ns,
            end_ns=t_ns + watchpoint.capture_ns,
            interval_ns=hires_ns,
        )
        self._windows.append(window)
        open_window = _OpenWindow(window, self)
        self._open_windows.append(open_window)
        open_window.schedule_next()

    def _window_closed(self, open_window: "_OpenWindow") -> None:
        self._open_windows.remove(open_window)
        for watchpoint in self._watchpoints:
            if watchpoint.name == open_window.window.watchpoint:
                watchpoint.on_window_closed()

    # -- introspection / export ------------------------------------------

    def buffer(self, name: str) -> Optional[SeriesBuffer]:
        return self._buffers.get(name)

    def series_names(self) -> List[str]:
        return sorted(self._buffers)

    def fired(self) -> List[WatchpointRecord]:
        return list(self._fired)

    def bundle(self) -> TimeseriesBundle:
        """Snapshot everything captured so far as serializable data."""
        return TimeseriesBundle(
            interval_ns=self.interval_ns,
            start_ns=self._start_ns,
            end_ns=self._last_sample_ns,
            series=[
                SeriesData(
                    name=buf.name,
                    kind=buf.kind,
                    stride=buf.stride,
                    times=list(buf.times),
                    values=list(buf.values),
                )
                for _, buf in sorted(self._buffers.items())
            ],
            windows=list(self._windows),
            fired=list(self._fired),
        )


class _OpenWindow:
    """Drives one active high-resolution capture to completion.

    Runs its own sampling chain at the window's cadence so the base
    series (and its deterministic decimation schedule) are untouched.
    """

    __slots__ = ("window", "_recorder", "_sources")

    #: Hard cap on samples per window per series, independent of duration.
    MAX_SAMPLES = 4096

    def __init__(self, window: CaptureWindow, recorder: TimeSeriesRecorder):
        self.window = window
        self._recorder = recorder
        self._sources = list(recorder._sources)
        for source in self._sources:
            window.series[source.name] = SeriesData(
                name=source.name, kind=source.kind, stride=1
            )

    def schedule_next(self) -> None:
        self._recorder._sim.schedule(self.window.interval_ns, self._tick)

    def _tick(self) -> None:
        recorder = self._recorder
        now = recorder._sim.now
        if not recorder._running or now > self.window.end_ns:
            self.window.end_ns = min(self.window.end_ns, now)
            recorder._window_closed(self)
            return
        full = False
        for source in self._sources:
            data = self.window.series[source.name]
            data.times.append(now)
            data.values.append(float(source.fn()))
            full = full or len(data.times) >= self.MAX_SAMPLES
        if full:
            self.window.end_ns = now
            recorder._window_closed(self)
            return
        self.schedule_next()


def _stat_source(stat) -> Tuple[SourceFn, str]:
    """(sampler, kind) for a registry stat object."""
    from repro.telemetry.registry import Counter, Distribution

    if isinstance(stat, Counter):
        return (lambda: float(stat.value)), "counter"
    if isinstance(stat, Distribution):
        return (lambda: float(stat.mean)), "gauge"
    return (lambda: float(stat.value)), "gauge"


def merge_timeseries_bundles(
    named: Mapping[str, TimeseriesBundle],
) -> TimeseriesBundle:
    """Merge per-node bundles into one fleet bundle, deterministically.

    ``named`` maps a node key (e.g. ``"server0"``) to that node's bundle;
    every series, capture window and watchpoint firing comes back prefixed
    with its key (``server0.cpu.util``).  The merge is a pure function of
    the *contents*: keys are processed in sorted order and the merged
    lists are re-sorted on stable fields, so any iteration order of
    ``named`` — and any shard-to-worker placement that produced the
    bundles — yields a byte-identical serialized bundle (the recorder's
    serial==pool contract, extended across processes).

    All bundles must share the same base ``interval_ns``.
    """
    if not named:
        raise ValueError("cannot merge zero bundles")
    intervals = {bundle.interval_ns for bundle in named.values()}
    if len(intervals) != 1:
        raise ValueError(
            f"cannot merge bundles with differing base intervals: "
            f"{sorted(intervals)}"
        )

    def _clone(prefix: str, s: SeriesData) -> SeriesData:
        return SeriesData(
            name=f"{prefix}.{s.name}", kind=s.kind, stride=s.stride,
            times=list(s.times), values=list(s.values),
        )

    series: List[SeriesData] = []
    windows: List[CaptureWindow] = []
    fired: List[WatchpointRecord] = []
    for key in sorted(named):
        bundle = named[key]
        series.extend(_clone(key, s) for s in bundle.series)
        for w in bundle.windows:
            windows.append(
                CaptureWindow(
                    watchpoint=f"{key}.{w.watchpoint}",
                    fired_at_ns=w.fired_at_ns,
                    start_ns=w.start_ns,
                    end_ns=w.end_ns,
                    interval_ns=w.interval_ns,
                    series={
                        f"{key}.{name}": _clone(key, sd)
                        for name, sd in w.series.items()
                    },
                )
            )
        fired.extend(
            WatchpointRecord(
                name=f"{key}.{f.name}", series=f"{key}.{f.series}",
                t_ns=f.t_ns, value=f.value, detail=f.detail,
            )
            for f in bundle.fired
        )
    series.sort(key=lambda s: s.name)
    windows.sort(key=lambda w: (w.fired_at_ns, w.watchpoint))
    fired.sort(key=lambda f: (f.t_ns, f.name, f.series))
    return TimeseriesBundle(
        interval_ns=next(iter(intervals)),
        start_ns=min(b.start_ns for b in named.values()),
        end_ns=max(b.end_ns for b in named.values()),
        series=series,
        windows=windows,
        fired=fired,
    )
