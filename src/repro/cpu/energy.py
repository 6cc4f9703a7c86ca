"""Per-core energy metering.

A :class:`PowerMeter` is attached to each core.  Cores call
:meth:`PowerMeter.set_mode` on every power-relevant transition (job start /
completion, C-state entry/exit, DVFS halt, voltage/frequency change); the
meter integrates ``power x dt`` segment by segment and also accumulates
per-mode residency, which Figure 4(b) style analyses need (time in C1/C3/C6).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cpu.power import PowerMode, PowerModel
from repro.sim.kernel import Simulator

#: Each table slot's report key (:attr:`PowerMode.slot` order).
_SLOT_KEYS: Tuple[str, ...] = tuple(mode.value for mode in PowerMode)
_ZEROS = bytes(8 * len(_SLOT_KEYS))


@dataclass
class EnergyReport:
    """Summary of one meter (or an aggregate of several)."""

    energy_j: float = 0.0
    residency_ns: Dict[str, int] = field(default_factory=dict)
    energy_by_mode_j: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "EnergyReport") -> "EnergyReport":
        merged = EnergyReport(energy_j=self.energy_j + other.energy_j)
        for src in (self.residency_ns, other.residency_ns):
            for key, value in src.items():
                merged.residency_ns[key] = merged.residency_ns.get(key, 0) + value
        for src in (self.energy_by_mode_j, other.energy_by_mode_j):
            for key, value in src.items():
                merged.energy_by_mode_j[key] = merged.energy_by_mode_j.get(key, 0.0) + value
        return merged


class PowerMeter:
    """Integrates one core's power over time.

    A mode switch known in advance (the end of a C-state entry
    transition) is armed with :meth:`switch_at` instead of a kernel event.
    The next :meth:`set_mode`, :meth:`retune`, :meth:`sync` or
    :meth:`report` books it: the open segment closes at the due time, the
    mode switches, then the segment closes up to now — the same split
    points, in the same order, as an event firing at the due time.

    Per-mode residency and energy sit in two fixed tables, one slot per
    :class:`PowerMode` (:attr:`PowerMode.slot`), with the order in which
    modes were first booked; the per-mode dicts are built on read.
    """

    __slots__ = (
        "_sim", "_model", "_mode", "_slot", "_voltage", "_freq_hz",
        "_segment_start", "_power_w", "_started", "_due_mode", "_due_ns",
        "energy_j", "residency_table", "energy_table", "_order",
    )

    def __init__(self, sim: Simulator, model: PowerModel):
        self._sim = sim
        self._model = model
        self._mode: PowerMode = PowerMode.IDLE_POLL
        self._slot: int = PowerMode.IDLE_POLL.slot
        self._voltage: float = 0.0
        self._freq_hz: float = 0.0
        self._segment_start: int = sim.now
        self._power_w: float = 0.0
        self._started = False
        self._due_mode: Optional[PowerMode] = None
        self._due_ns: int = 0
        self.energy_j: float = 0.0
        #: Nanoseconds and joules booked per mode, by slot (read-only).
        self.residency_table = array("q", _ZEROS)
        self.energy_table = array("d", _ZEROS)
        #: Slots in the order their modes were first booked.
        self._order: Tuple[int, ...] = ()

    def start(self, mode: PowerMode, voltage: float, freq_hz: float) -> None:
        """Begin metering (call once when the core comes up)."""
        self._mode = mode
        self._slot = mode.slot
        self._voltage = voltage
        self._freq_hz = freq_hz
        self._segment_start = self._sim.now
        self._power_w = self._model.core_power_w(mode, voltage, freq_hz)
        self._started = True

    def set_mode(
        self,
        mode: PowerMode,
        voltage: Optional[float] = None,
        freq_hz: Optional[float] = None,
    ) -> None:
        """Close the current segment and open a new one; a pending
        :meth:`switch_at` not yet due is discarded."""
        if not self._started:
            raise RuntimeError("PowerMeter.start() was never called")
        self._close_segment()
        self._due_mode = None
        self._mode = mode
        self._slot = mode.slot
        if voltage is not None:
            self._voltage = voltage
        if freq_hz is not None:
            self._freq_hz = freq_hz
        self._power_w = self._model.core_power_w(mode, self._voltage, self._freq_hz)

    def switch_at(self, due_ns: int, mode: PowerMode) -> None:
        """Become ``mode`` at ``due_ns`` without a kernel event.

        The switch is priced at the V/f the meter holds when it lands, so
        a :meth:`retune` before ``due_ns`` re-prices it.
        """
        self._due_mode = mode
        self._due_ns = due_ns

    def retune(self, voltage: float, freq_hz: float) -> None:
        """The clock domain retuned: close the segment, keep the mode (and
        any pending switch), price it at the new (V, f)."""
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
            self._slot = due_mode.slot
            self._power_w = self._model.core_power_w(
                due_mode, self._voltage, self._freq_hz
            )
        self._book(now)

    def _book(self, until: int) -> None:
        dt_ns = until - self._segment_start
        if dt_ns > 0:
            joules = self._power_w * dt_ns * 1e-9
            self.energy_j += joules
            slot = self._slot
            residency = self.residency_table
            booked_ns = residency[slot]
            if not booked_ns:
                self._order += (slot,)
            residency[slot] = booked_ns + dt_ns
            self.energy_table[slot] += joules
        self._segment_start = until

    def sync(self) -> None:
        """Book the open segment up to ``sim.now`` without changing mode.

        Cumulative ``energy_j`` and the per-mode tables are current after
        this call; the next ``set_mode`` then closes a zero-length
        segment, so syncing never perturbs the totals.
        """
        if self._started:
            self._close_segment()

    @property
    def residency_ns(self) -> Dict[str, int]:
        """Nanoseconds booked per mode so far, in first-booked order."""
        table = self.residency_table
        return {_SLOT_KEYS[slot]: table[slot] for slot in self._order}

    @property
    def energy_by_mode_j(self) -> Dict[str, float]:
        """Joules booked per mode so far, in first-booked order."""
        table = self.energy_table
        return {_SLOT_KEYS[slot]: table[slot] for slot in self._order}

    @property
    def mode(self) -> PowerMode:
        """The effective mode: a pending switch counts once it is due."""
        if self._due_mode is not None and self._due_ns <= self._sim.now:
            return self._due_mode
        return self._mode

    def report(self) -> EnergyReport:
        """Finalize the open segment and return totals so far."""
        if self._started:
            self._close_segment()
        return EnergyReport(
            energy_j=self.energy_j,
            residency_ns=self.residency_ns,
            energy_by_mode_j=self.energy_by_mode_j,
        )
