"""McPAT-like analytic power model, calibrated to Table 1 of the paper.

Anchors (per core unless noted):

- package max power across P-states: 12 W (P14, 0.65 V/0.8 GHz) to 80 W
  (P0, 1.2 V/3.1 GHz) for 4 cores;
- core static power at C1: 1.92 W (@0.65 V) to 7.11 W (@1.2 V);
- core static power at C3: 1.64 W (state held at 0.6 V);
- C6: power gated, ~0 W.

The model:

- dynamic power = ``k · V² · f`` scaled by an *activity factor* (1.0 when
  retiring instructions, a small "poll" factor for the C0 idle loop);
- static power is linear in V between the two C1 anchors (a fair local
  approximation of the exponential leakage/V curve over 0.65–1.2 V);
- C-state power follows the Section 5 assumptions verbatim.

With the default calibration a 4-core package draws ~80 W at P0 fully busy
and ~11.6 W at the deepest P-state fully busy, matching Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.units import ghz


class PowerMode(enum.Enum):
    """Instantaneous power mode of one core."""

    RUN = "run"            # retiring instructions
    IDLE_POLL = "idle"     # C0 idle loop (NOP polling in cpu_idle_loop)
    STALL = "stall"        # halted for PLL relock (clock stopped)
    WAKING = "waking"      # exiting a C-state (clock ramping)
    C1 = "C1"
    C3 = "C3"
    C6 = "C6"

    def __init__(self, value: str) -> None:
        #: The mode's slot in a power meter's per-mode tables: its place
        #: in this definition, from 0.
        self.slot = len(type(self).__members__)


SLEEP_MODES = (PowerMode.C1, PowerMode.C3, PowerMode.C6)


@dataclass(frozen=True)
class PowerModelConfig:
    """Calibration anchors for :class:`PowerModel`."""

    static_w_at_v_low: float = 1.92     # core static power @ v_low
    static_w_at_v_high: float = 7.11    # core static power @ v_high
    v_low: float = 0.65
    v_high: float = 1.2
    core_max_power_w: float = 20.0      # core total at (v_high, f_max), busy
    f_max_hz: float = ghz(3.1)
    # C0 idle-loop dynamic activity factor.  The kernel's cpu_idle_loop
    # polls (NOP while-loop, Section 2.1 of the paper) with the pipeline
    # clocked, so a C0-parked core burns a large fraction of busy dynamic
    # power — which is exactly why disabling C-states (perf/ond) wastes so
    # much energy at low utilization in the paper's Figure 8.
    poll_activity: float = 0.55
    c3_static_w: float = 1.64           # state retained at 0.6 V
    c6_static_w: float = 0.0


class PowerModel:
    """Maps (mode, voltage, frequency) to core power in watts."""

    def __init__(self, config: PowerModelConfig = PowerModelConfig()):
        self.config = config
        c = config
        dyn_at_max = c.core_max_power_w - c.static_w_at_v_high
        if dyn_at_max <= 0:
            raise ValueError("core_max_power_w must exceed static power at v_high")
        # k such that k * v_high^2 * f_max = dyn_at_max (f in GHz for sane k)
        self._k = dyn_at_max / (c.v_high ** 2 * c.f_max_hz / 1e9)
        dv = c.v_high - c.v_low
        if dv <= 0:
            raise ValueError("v_high must exceed v_low")
        self._static_slope = (c.static_w_at_v_high - c.static_w_at_v_low) / dv
        #: (mode, V, f) -> watts: at most 7 modes x the P-states.
        self._priced: Dict[Tuple[PowerMode, float, float], float] = {}

    def dynamic_power_w(self, voltage: float, freq_hz: float, activity: float = 1.0) -> float:
        """Switching power: ``k · V² · f · activity``."""
        if activity < 0:
            raise ValueError("activity must be non-negative")
        return self._k * voltage * voltage * (freq_hz / 1e9) * activity

    def static_power_w(self, voltage: float) -> float:
        """Leakage power at ``voltage`` (linear interpolation, clamped >= 0)."""
        c = self.config
        return max(0.0, c.static_w_at_v_low + self._static_slope * (voltage - c.v_low))

    def core_power_w(self, mode: PowerMode, voltage: float, freq_hz: float) -> float:
        """Instantaneous power of one core in ``mode`` at (V, f), priced
        once per distinct operating point."""
        key = (mode, voltage, freq_hz)
        power = self._priced.get(key)
        if power is None:
            power = self._priced[key] = self._price(mode, voltage, freq_hz)
        return power

    def _price(self, mode: PowerMode, voltage: float, freq_hz: float) -> float:
        c = self.config
        if mode is PowerMode.RUN:
            return self.dynamic_power_w(voltage, freq_hz) + self.static_power_w(voltage)
        if mode in (PowerMode.IDLE_POLL, PowerMode.WAKING):
            return (
                self.dynamic_power_w(voltage, freq_hz, c.poll_activity)
                + self.static_power_w(voltage)
            )
        if mode is PowerMode.STALL:
            return self.static_power_w(voltage)  # clock halted
        if mode is PowerMode.C1:
            return self.static_power_w(voltage)  # clock off, V unchanged
        if mode is PowerMode.C3:
            return c.c3_static_w
        if mode is PowerMode.C6:
            return c.c6_static_w
        raise ValueError(f"unknown power mode: {mode!r}")
