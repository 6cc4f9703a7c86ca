"""Flight recorder: sim-time time-series capture of telemetry stats.

A :class:`TimeSeriesRecorder` samples a declared set of sources on a
simulated-time cadence into bounded ring buffers:

* registry stats by exact name (:meth:`~TimeSeriesRecorder.add_stat`) —
  counters are sampled *cumulatively* so consumers can derive exact
  per-bin rates by differencing;
* derived quantities via plain callables
  (:meth:`~TimeSeriesRecorder.add_source`) — per-core frequency, C-state
  index, utilization, power — anything a closure can compute at sample
  time.

Sampling is pure instrumentation: it costs zero simulated time, and a
recorder that is never started (or never built) costs nothing at all —
the simulation layers are not instrumented by the recorder; it *reads*
existing state on its own schedule.

**Bounded memory, deterministic decimation.**  Each series holds at most
:data:`DEFAULT_CAPACITY` samples.  When a series fills, every other
retained sample is dropped (even positions survive) and the series'
sampling stride doubles, so it keeps covering the whole run at
progressively coarser resolution.
The decimation depends only on the sample count — never on wall time or
randomness — so the same run (same seed, same cadence) produces identical
series everywhere, including across process-pool workers.

The end product of a run is a :class:`TimeseriesBundle` — a plain,
JSON-serializable projection of every series that rides on
:class:`~repro.cluster.simulation.ExperimentResult` and
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
    Tuple,
    TYPE_CHECKING,
)

from repro.sim.kernel import Event, Simulator
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

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
        )


@dataclass(frozen=True)
class RecorderConfig:
    """How a run's flight recorder samples.

    Not an :class:`~repro.cluster.simulation.ExperimentConfig` field:
    like sinks and auditing, attaching a recorder is observation, so it
    must never invalidate cached sweep results.
    """

    interval_ns: int = 1 * MS

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
    ):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self._sim = sim
        self._telemetry = telemetry
        self.interval_ns = int(interval_ns)
        self._sources: List[_Source] = []
        self._buffers: Dict[str, SeriesBuffer] = {}
        self._running = False
        self._generation = 0
        self._pending: Optional[Event] = None
        self._start_ns: int = 0
        self._last_sample_ns: int = 0

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

    def _require_registry(self):
        if self._telemetry is None:
            raise ValueError(
                "registry-backed series need a Telemetry; "
                "pass telemetry= to the recorder"
            )
        return self._telemetry.stats

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin sampling.  Idempotent: a second call is a no-op."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self._start_ns = self._sim.now
        self._last_sample_ns = self._sim.now
        for source in self._sources:
            if source.name not in self._buffers:
                self._buffers[source.name] = SeriesBuffer(
                    source.name, source.kind, DEFAULT_CAPACITY
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
        self._pending = self._sim.schedule(self.interval_ns, self._tick, generation)

    # -- introspection / export ------------------------------------------

    def buffer(self, name: str) -> Optional[SeriesBuffer]:
        return self._buffers.get(name)

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
        )


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
    every series comes back prefixed with its key (``server0.cpu.util``).
    The merge is a pure function of the *contents*: keys are processed in
    sorted order and the merged series are re-sorted by name, so any iteration order of
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
    for key in sorted(named):
        series.extend(_clone(key, s) for s in named[key].series)
    series.sort(key=lambda s: s.name)
    return TimeseriesBundle(
        interval_ns=next(iter(intervals)),
        start_ns=min(b.start_ns for b in named.values()),
        end_ns=max(b.end_ns for b in named.values()),
        series=series,
    )
