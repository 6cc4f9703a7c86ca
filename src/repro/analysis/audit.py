"""Invariant auditing: fail loudly when observability lies.

The :class:`InvariantAuditor` is an opt-in ProbeBus sink
(``run_experiment(config, audit=True)``) that cross-checks the telemetry
stream and the simulation's own accounting:

- **Phase ordering** — every request's ``request.span`` phases must be
  monotone in both pipeline order and time; ``dropped`` is terminal and
  only legal straight after ``dma``.
- **C-state pairing** — per (domain, core): ``enter`` only while awake,
  ``promote`` only while asleep, ``wake`` only while asleep and naming
  the state actually occupied.
- **Residency conservation** — each core's power-meter residencies must
  sum exactly to the simulated time span (every nanosecond is metered in
  exactly one power mode).
- **Energy integrals** — per-mode energies must sum to the meter total,
  the package report must equal the sum of its cores, and fixed-power
  C-states (C3/C6) must satisfy ``energy == power × residency``.
- **Attribution conservation** — when an
  :class:`~repro.analysis.attribution.AttributionSink` runs alongside,
  its per-request components must sum to the measured RTT within 1 ns.
- **Energy-attribution conservation** — when the run carries an
  :class:`~repro.analysis.energy.EnergyAttribution`, its telescoping
  components must sum to the EnergyReport integral within ±1 µJ.

Any violation raises :class:`AuditError` from
:meth:`InvariantAuditor.finish` (called by ``Cluster.collect``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.telemetry.events import CStateTransition, RequestPhase

#: Pipeline order of the non-terminal span phases.
PHASE_ORDER = {"arrival": 0, "dma": 1, "delivered": 2, "service": 3, "reply": 4}

#: Relative float tolerance for energy-sum identities (accumulation
#: order differs between the checked quantities).
_REL_TOL = 1e-9


class AuditError(AssertionError):
    """The telemetry stream or the simulation accounting is inconsistent."""

    def __init__(self, violations: List[str]):
        self.violations = violations
        preview = "\n  - ".join(violations[:10])
        more = f"\n  (+{len(violations) - 10} more)" if len(violations) > 10 else ""
        super().__init__(
            f"{len(violations)} invariant violation(s):\n  - {preview}{more}"
        )


class InvariantAuditor:
    """Streaming invariant checks over the probe stream."""

    def __init__(self, max_violations: int = 100):
        self.max_violations = max_violations
        self.violations: List[str] = []
        self.spans_checked = 0
        self._open: Dict[str, Tuple[int, int]] = {}      # span -> (order, t)
        self._asleep: Dict[Tuple[str, int], str] = {}    # (domain, core) -> state

    def attach(self, telemetry) -> None:
        bus = telemetry.probes
        bus.subscribe("request.span", self._on_span)
        bus.subscribe("cpu.cstate", self._on_cstate)

    def _note(self, message: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(message)

    # -- streaming checks --------------------------------------------------

    def _on_span(self, event: RequestPhase) -> None:
        span_id = event.span_id
        prev = self._open.get(span_id)
        if event.phase == "dropped":
            if prev is None:
                self._note(f"{span_id}: dropped without arrival")
            elif prev[0] > PHASE_ORDER["dma"]:
                self._note(f"{span_id}: dropped after delivery")
            self._open.pop(span_id, None)
            return
        order = PHASE_ORDER.get(event.phase)
        if order is None:
            self._note(f"{span_id}: unknown phase {event.phase!r}")
            return
        if order == 0:
            if prev is not None:
                self._note(f"{span_id}: duplicate arrival")
            self._open[span_id] = (0, event.t_ns)
            return
        if prev is None:
            self._note(f"{span_id}: {event.phase} without arrival")
            self._open[span_id] = (order, event.t_ns)
            return
        if order <= prev[0]:
            self._note(
                f"{span_id}: phase {event.phase} out of order "
                f"(already past order {prev[0]})"
            )
        if event.t_ns < prev[1]:
            self._note(
                f"{span_id}: time went backwards at {event.phase} "
                f"({event.t_ns} < {prev[1]})"
            )
        if event.phase == "reply":
            self.spans_checked += 1
            del self._open[span_id]
        else:
            self._open[span_id] = (order, event.t_ns)

    def _on_cstate(self, event: CStateTransition) -> None:
        key = (event.domain, event.core_id)
        current = self._asleep.get(key)
        where = f"{event.domain}/core{event.core_id}"
        if event.phase == "enter":
            if current is not None:
                self._note(f"{where}: entered {event.state} while in {current}")
            self._asleep[key] = event.state
        elif event.phase == "promote":
            if current is None:
                self._note(f"{where}: promoted to {event.state} while awake")
            self._asleep[key] = event.state
        elif event.phase == "wake":
            if current is None:
                self._note(f"{where}: woke without a matching enter")
            else:
                if event.state != current:
                    self._note(
                        f"{where}: woke from {event.state} but was in {current}"
                    )
                del self._asleep[key]
            if event.exit_latency_ns < 0:
                self._note(f"{where}: negative exit latency on wake")
        else:
            self._note(f"{where}: unknown cstate phase {event.phase!r}")

    # -- end-of-run checks -------------------------------------------------

    def check_cluster(self, cluster) -> None:
        """Residency and energy conservation against the live cluster."""
        now = cluster.sim.now
        package = cluster.server.package
        model_config = package.power_model.config
        fixed_power = {"C3": model_config.c3_static_w, "C6": model_config.c6_static_w}
        core_sum = 0.0
        for core in package.cores:
            report = core.meter.report()
            where = f"core{core.core_id}"
            residency = sum(report.residency_ns.values())
            if residency != now:
                self._note(
                    f"{where}: residencies sum to {residency} ns over a "
                    f"{now} ns run"
                )
            mode_sum = sum(report.energy_by_mode_j.values())
            if abs(report.energy_j - mode_sum) > _REL_TOL * max(1.0, abs(report.energy_j)):
                self._note(
                    f"{where}: per-mode energies sum to {mode_sum!r} J but "
                    f"total is {report.energy_j!r} J"
                )
            for mode, power_w in fixed_power.items():
                mode_ns = report.residency_ns.get(mode, 0)
                expected_j = power_w * mode_ns * 1e-9
                actual_j = report.energy_by_mode_j.get(mode, 0.0)
                if abs(actual_j - expected_j) > _REL_TOL * max(1.0, abs(expected_j)):
                    self._note(
                        f"{where}: {mode} energy {actual_j!r} J != "
                        f"power x residency {expected_j!r} J"
                    )
            core_sum += report.energy_j
        package_report = package.energy_report()
        if abs(package_report.energy_j - core_sum) > _REL_TOL * max(1.0, core_sum):
            self._note(
                f"package energy {package_report.energy_j!r} J != sum of "
                f"cores {core_sum!r} J"
            )

    def check_attribution(self, sink) -> None:
        """Adopt conservation violations recorded by an AttributionSink."""
        for message in sink.conservation_violations:
            self._note(f"attribution: {message}")

    def check_energy_attribution(self, attribution) -> None:
        """Energy decomposition conservation: the telescoping components
        (active + ramp + wake + floor + wasted_shallow) must sum to the
        EnergyReport integral within ±1 µJ, and no component that is
        non-negative by construction may go negative."""
        from repro.analysis.energy import CONSERVATION_TOL_J

        error = attribution.conservation_error_j
        if abs(error) > CONSERVATION_TOL_J:
            self._note(
                f"energy: components sum to {attribution.components_sum_j!r} J "
                f"but the integral is {attribution.total_j!r} J "
                f"(error {error:+.3e} J > ±1 µJ)"
            )
        if attribution.wasted_shallow_j < -CONSERVATION_TOL_J:
            self._note(
                f"energy: negative wasted-shallow "
                f"{attribution.wasted_shallow_j!r} J"
            )
        for state, joules in attribution.floor_j_by_state.items():
            if joules < -CONSERVATION_TOL_J:
                self._note(f"energy: negative {state} idle floor {joules!r} J")

    def finish(self, cluster=None, attribution=None, energy_attribution=None) -> None:
        """Run the end-of-run checks; raise on any recorded violation."""
        if cluster is not None:
            self.check_cluster(cluster)
        if attribution is not None:
            self.check_attribution(attribution)
        if energy_attribution is not None:
            self.check_energy_attribution(energy_attribution)
        if self.violations:
            raise AuditError(list(self.violations))
