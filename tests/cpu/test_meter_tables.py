"""The table meter against the dict meter it replaced.

:class:`~repro.cpu.energy.PowerMeter` keeps per-mode residency and energy
in two fixed tables, one slot per :class:`PowerMode`, and builds the
per-mode dicts on read.  ``DictMeter`` below is the meter before that
change, kept verbatim apart from names: it booked each segment straight
into the dicts.  Both must make the same additions in the same order, so
their reports are equal bit for bit, with keys in the same order.
"""

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import PowerMode, PowerModel, ProcessorConfig
from repro.cpu.energy import EnergyReport, PowerMeter


class Clock:
    """The one simulator attribute a meter reads."""

    def __init__(self) -> None:
        self.now = 0


class DictMeter:
    """The meter before its tables: per-mode dicts updated per booking."""

    def __init__(self, sim, model: PowerModel):
        self._sim = sim
        self._model = model
        self._mode: PowerMode = PowerMode.IDLE_POLL
        self._key: str = PowerMode.IDLE_POLL.value
        self._voltage: float = 0.0
        self._freq_hz: float = 0.0
        self._segment_start: int = sim.now
        self._power_w: float = 0.0
        self._started = False
        self._due_mode: Optional[PowerMode] = None
        self._due_ns: int = 0
        self.energy_j: float = 0.0
        self.residency_ns: Dict[str, int] = {}
        self.energy_by_mode_j: Dict[str, float] = {}

    def start(self, mode: PowerMode, voltage: float, freq_hz: float) -> None:
        self._mode = mode
        self._key = mode.value
        self._voltage = voltage
        self._freq_hz = freq_hz
        self._segment_start = self._sim.now
        self._power_w = self._model.core_power_w(mode, voltage, freq_hz)
        self._started = True

    def set_mode(self, mode, voltage=None, freq_hz=None) -> None:
        if not self._started:
            raise RuntimeError("PowerMeter.start() was never called")
        self._close_segment()
        self._due_mode = None
        self._mode = mode
        self._key = mode._value_
        if voltage is not None:
            self._voltage = voltage
        if freq_hz is not None:
            self._freq_hz = freq_hz
        self._power_w = self._model.core_power_w(mode, self._voltage, self._freq_hz)

    def switch_at(self, due_ns: int, mode: PowerMode) -> None:
        self._due_mode = mode
        self._due_ns = due_ns

    def retune(self, voltage: float, freq_hz: float) -> None:
        self._close_segment()
        self._voltage = voltage
        self._freq_hz = freq_hz
        self._power_w = self._model.core_power_w(self._mode, voltage, freq_hz)

    def _close_segment(self) -> None:
        now = self._sim.now
        due_mode = self._due_mode
        if due_mode is not None and self._due_ns <= now:
            self._book(self._due_ns)
            self._due_mode = None
            self._mode = due_mode
            self._key = due_mode._value_
            self._power_w = self._model.core_power_w(
                due_mode, self._voltage, self._freq_hz
            )
        self._book(now)

    def _book(self, until: int) -> None:
        dt_ns = until - self._segment_start
        if dt_ns > 0:
            joules = self._power_w * dt_ns * 1e-9
            self.energy_j += joules
            key = self._key
            self.residency_ns[key] = self.residency_ns.get(key, 0) + dt_ns
            self.energy_by_mode_j[key] = self.energy_by_mode_j.get(key, 0.0) + joules
        self._segment_start = until

    def sync(self) -> None:
        if self._started:
            self._close_segment()

    @property
    def mode(self) -> PowerMode:
        if self._due_mode is not None and self._due_ns <= self._sim.now:
            return self._due_mode
        return self._mode

    def report(self) -> EnergyReport:
        if self._started:
            self._close_segment()
        return EnergyReport(
            energy_j=self.energy_j,
            residency_ns=dict(self.residency_ns),
            energy_by_mode_j=dict(self.energy_by_mode_j),
        )


def exact(report: EnergyReport) -> str:
    """A report's values and key order; float ``repr`` round-trips, so
    equal strings mean bit-identical floats."""
    return repr((
        report.energy_j,
        list(report.residency_ns.items()),
        list(report.energy_by_mode_j.items()),
    ))


PSTATES = ProcessorConfig().pstate_table()
modes = st.sampled_from(list(PowerMode))
points = st.sampled_from([(p.voltage, p.freq_hz) for p in PSTATES])
ops = st.one_of(
    st.tuples(st.just("start"), modes, points),
    st.tuples(st.just("set_mode"), modes, st.one_of(st.none(), points)),
    st.tuples(st.just("switch_at"), modes, st.integers(min_value=0, max_value=40_000)),
    st.tuples(st.just("retune"), points),
    st.tuples(st.just("sync")),
    st.tuples(st.just("report")),
)
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20_000), ops), max_size=60
)


def apply(meter, clock: Clock, op: tuple) -> str:
    """Apply one step; returns what it showed (a report, or an error)."""
    name = op[0]
    if name == "start":
        meter.start(op[1], *op[2])
    elif name == "set_mode":
        point = op[2] if op[2] is not None else (None, None)
        try:
            meter.set_mode(op[1], *point)
        except RuntimeError as exc:
            return f"RuntimeError: {exc}"
    elif name == "switch_at":
        meter.switch_at(clock.now + op[2], op[1])
    elif name == "retune":
        meter.retune(*op[1])
    elif name == "sync":
        meter.sync()
        return repr((meter.energy_j, meter.residency_ns, meter.energy_by_mode_j))
    else:
        return exact(meter.report())
    return ""


@given(steps)
@settings(max_examples=300, deadline=None)
def test_table_meter_reports_what_the_dict_meter_did(step_list):
    clock = Clock()
    meter = PowerMeter(clock, PowerModel())
    reference = DictMeter(clock, PowerModel())
    for gap, op in step_list:
        clock.now += gap
        assert apply(meter, clock, op) == apply(reference, clock, op), (clock.now, op)
        assert meter.mode is reference.mode
    clock.now += 10_000
    assert exact(meter.report()) == exact(reference.report())


def test_report_keys_follow_first_booking():
    clock = Clock()
    meter = PowerMeter(clock, PowerModel())
    point = (PSTATES.p0.voltage, PSTATES.p0.freq_hz)
    meter.start(PowerMode.C6, *point)
    for mode in (PowerMode.RUN, PowerMode.C6, PowerMode.IDLE_POLL, PowerMode.RUN):
        clock.now += 1_000
        meter.set_mode(mode)
    clock.now += 1_000
    report = meter.report()
    assert list(report.residency_ns) == ["C6", "run", "idle"]
    assert report.residency_ns == {"C6": 2_000, "run": 2_000, "idle": 1_000}
    assert list(report.energy_by_mode_j) == ["C6", "run", "idle"]
