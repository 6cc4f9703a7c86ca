"""cpuidle driver and C-state governors (Section 2.1 of the paper).

Two governors, matching Linux:

- :class:`MenuGovernor` (the default) — records how long each core's recent
  idle periods lasted, predicts the next one with Linux's
  ``get_typical_interval``-style outlier rejection, and picks the deepest
  C-state whose target residency fits the prediction and whose exit latency
  respects the latency limit.
- :class:`LadderGovernor` — starts shallow and promotes to a deeper state
  when the last residency was long enough, demotes on early wake-ups.

The driver re-evaluates while a core stays idle, as the Linux idle loop
does: a core parked in C0 (prediction too short for any state) is
re-examined every ``repoll_ns``, and a core sleeping shallow is promoted
to a deeper state once it has out-slept the prediction — modelling the
tick-driven re-entry of the real idle loop.  Without this, one burst of
short idle periods would poison the history and keep cores polling through
multi-millisecond gaps, which is not what the paper observes (cores reach
C6 between bursts, Figure 4(b)).

NCAP hooks: :meth:`CpuidleDriver.disable` stops *new* C-state entries
during a detected request burst (IT_HIGH); :meth:`CpuidleDriver.enable`
re-arms the governor on the first IT_LOW (Section 4.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cpu.core import Core, CoreState
from repro.cpu.cstates import CState, CStateTable
from repro.cpu.power import PowerMode
from repro.sim.units import MS, US
from repro.telemetry import GovernorDecision, Telemetry, ensure_telemetry


class _HistoryGovernorBase:
    """Shared idle-duration observation machinery."""

    def __init__(self, cstates: CStateTable, history_len: int = 8):
        if history_len < 0:
            raise ValueError(f"history_len must be non-negative, got {history_len}")
        self.cstates = cstates
        #: core_id -> its last ``history_len`` idle durations, oldest first.
        #: A plain list trimmed on append: a deque would allocate a
        #: 64-slot block per core to hold eight values.
        self._history: Dict[int, List[int]] = {}
        self._seen_periods: Dict[int, int] = {}
        self._history_len = history_len

    def _observe(self, core: Core) -> List[int]:
        history = self._history.get(core.core_id)
        if history is None:
            history = self._history[core.core_id] = []
            self._seen_periods[core.core_id] = 0
        completed = core.idle_periods_completed
        if completed > self._seen_periods[core.core_id]:
            # Only the most recent period is new information (select() is
            # invoked on every idle entry, so at most one period elapsed).
            history.append(core.last_idle_duration_ns)
            if len(history) > self._history_len:
                del history[0]
            self._seen_periods[core.core_id] = completed
        return history


class MenuGovernor(_HistoryGovernorBase):
    """Linux menu governor, simplified to its history predictor."""

    name = "menu"

    def __init__(
        self,
        cstates: CStateTable,
        latency_limit_ns: int = 10**12,
        history_len: int = 8,
        initial_prediction_ns: int = 1 * MS,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(cstates, history_len)
        self.latency_limit_ns = latency_limit_ns
        self.initial_prediction_ns = initial_prediction_ns
        self.telemetry = ensure_telemetry(telemetry)
        self._selections = self.telemetry.counter(f"governor.{self.name}.selections")
        self._decision_probe = self.telemetry.probe("governor.decision")
        #: core_id -> (periods observed, typical interval of that history):
        #: the history only changes when an idle period completes, while
        #: select() re-runs on every recheck and promotion check.
        self._typical: Dict[int, Tuple[int, int]] = {}

    @property
    def selections(self) -> int:
        return int(self._selections.value)

    def predict_idle_ns(self, core: Core, already_idle_ns: int = 0) -> int:
        """Predicted remaining length of the idle period starting now.

        ``already_idle_ns`` — how long the core has been idle so far; a core
        that has out-slept its history is predicted to keep idling (idle
        periods are heavy-tailed).
        """
        history = self._observe(core)
        if not history:
            predicted = self.initial_prediction_ns
        else:
            seen = self._seen_periods[core.core_id]
            memo = self._typical.get(core.core_id)
            if memo is not None and memo[0] == seen:
                predicted = memo[1]
            else:
                predicted = self._typical_interval(history)
                self._typical[core.core_id] = (seen, predicted)
        return max(predicted, already_idle_ns)

    @staticmethod
    def _typical_interval(samples) -> int:
        """Average with iterative rejection of >2x-average outliers, after
        Linux's ``get_typical_interval``.

        Samples are integer ns, so the kept sum is exact in any order:
        sorted, each rejection round drops a suffix off a running total.
        """
        values = sorted(samples)
        n = len(values)
        total = sum(values)
        for _ in range(3):
            if not n:
                return 0
            avg = total / n
            limit = 2 * avg
            if values[n - 1] <= limit:
                return int(avg)
            while n and values[n - 1] > limit:
                n -= 1
                total -= values[n]
        return int(total / n) if n else 0

    def select(self, core: Core, already_idle_ns: int = 0) -> Optional[CState]:
        """Pick a C-state for an idle core (None = stay polling in C0)."""
        self._selections.inc()
        predicted = self.predict_idle_ns(core, already_idle_ns)
        choice = self.cstates.deepest_allowed(predicted, self.latency_limit_ns)
        if self._decision_probe.enabled:
            self._decision_probe.emit(
                GovernorDecision(
                    core.sim.now,
                    self.name,
                    choice.index if choice is not None else 0,
                    float(predicted),
                    core_id=core.core_id,
                )
            )
        return choice


class LadderGovernor(_HistoryGovernorBase):
    """Step-wise promotion/demotion governor (Linux ladder)."""

    name = "ladder"

    def __init__(
        self,
        cstates: CStateTable,
        history_len: int = 1,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(cstates, history_len)
        self._depth: Dict[int, int] = {}
        self.telemetry = ensure_telemetry(telemetry)
        self._selections = self.telemetry.counter(f"governor.{self.name}.selections")
        self._decision_probe = self.telemetry.probe("governor.decision")

    @property
    def selections(self) -> int:
        return int(self._selections.value)

    def select(self, core: Core, already_idle_ns: int = 0) -> Optional[CState]:
        self._selections.inc()
        history = self._observe(core)
        depth = self._depth.get(core.core_id, 0)
        if history:
            last = history[-1]
            current = self.cstates[min(depth, len(self.cstates) - 1)]
            if last >= current.target_residency_ns:
                depth = min(depth + 1, len(self.cstates) - 1)
            elif last < current.exit_latency_ns * 2:
                depth = max(depth - 1, 0)
        self._depth[core.core_id] = depth
        choice = self.cstates[depth]
        if self._decision_probe.enabled:
            self._decision_probe.emit(
                GovernorDecision(
                    core.sim.now,
                    self.name,
                    choice.index,
                    float(already_idle_ns),
                    core_id=core.core_id,
                )
            )
        return choice


class CpuidleDriver:
    """Applies a governor's choice whenever a core goes idle, and keeps
    re-evaluating while the core stays idle.

    Wire :meth:`on_core_idle` into ``Scheduler.idle_hook``.
    """

    def __init__(
        self,
        governor,
        repoll_ns: int = 30 * US,
        promotion: bool = True,
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "cpuidle",
    ):
        self.governor = governor
        states = list(governor.cstates)
        #: C-state index -> the next deeper state in the governor's table.
        self._next_deeper: Dict[int, CState] = {
            s.index: deeper for s, deeper in zip(states, states[1:])
        }
        self.enabled = True
        self.repoll_ns = repoll_ns
        self.promotion = promotion
        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._entries = stats.counter("entries")
        self._promotions = stats.counter("promotions")
        self._suppressed = stats.counter("suppressed")

    @property
    def entries(self) -> int:
        """C-state entries this driver initiated (not counting promotions)."""
        return int(self._entries.value)

    @property
    def promotions(self) -> int:
        return int(self._promotions.value)

    @property
    def suppressed(self) -> int:
        """Idle notifications ignored while NCAP disabled the governor."""
        return int(self._suppressed.value)

    def on_core_idle(self, core: Core) -> None:
        if not self.enabled:
            self._suppressed.inc()
            return
        self._consider(core)

    # -- internals ----------------------------------------------------------

    def _consider(self, core: Core) -> None:
        sim = core.sim
        token = core.idle_since
        already = sim.now - token
        choice = self.governor.select(core, already_idle_ns=already)
        if choice is None:
            # Stay polling in C0 and re-examine shortly (idle-loop
            # re-entry) — but only while a longer elapsed idle could still
            # change the verdict.  Once the core has out-idled the deepest
            # state's residency and the governor still declines (e.g. a
            # tight latency limit), nothing will ever qualify: stop.
            if already <= self.governor.cstates.deepest.target_residency_ns:
                sim.schedule(self.repoll_ns, self._recheck_idle, core, token)
            return
        self._entries.inc()
        core.enter_sleep(choice)
        self._arm_promotion(core, token, choice)

    def _recheck_idle(self, core: Core, token: int) -> None:
        if not self.enabled:
            return
        if core.state is not CoreState.IDLE or core.idle_since != token:
            return  # the idle period we were watching ended
        self._consider(core)

    def _arm_promotion(self, core: Core, token: int, current: CState) -> None:
        """Schedule exactly one promotion check per deeper level, at the
        moment the elapsed idle time alone would justify that level."""
        if not self.promotion:
            return
        deeper = self._next_deeper.get(current.index)
        if deeper is None:
            return
        check_at = token + deeper.target_residency_ns + 1
        sim = core.sim
        if check_at <= sim.now:
            check_at = sim.now
        sim.schedule_at(check_at, self._promotion_check, core, token)

    def _promotion_check(self, core: Core, token: int) -> None:
        if not self.enabled:
            return
        if core.state is not CoreState.SLEEP or core.idle_since != token:
            return
        already = core.sim.now - token
        choice = self.governor.select(core, already_idle_ns=already)
        current = core.current_cstate
        assert current is not None
        if choice is not None and choice.index > current.index:
            self._promotions.inc()
            core.promote_sleep(choice)
            self._arm_promotion(core, token, choice)
        # Otherwise the governor declined (latency limit): give up on this
        # idle period — elapsed time can only grow, but the limit is fixed.

    # -- NCAP hooks ------------------------------------------------------------

    def disable(self) -> None:
        """Stop entering C-states (NCAP IT_HIGH action)."""
        self.enabled = False

    def enable(self) -> None:
        """Re-arm C-state entry (NCAP first IT_LOW action)."""
        self.enabled = True


def build_idle_accounting(cstates: CStateTable, governor=None) -> "IdleAccounting":
    """Accounting for a node: its governor's name and latency limit when
    cpuidle is active, the ``"none"`` pseudo-governor (cores poll in C0,
    every long idle period grades ``below``) otherwise."""
    if governor is None:
        name, limit = "none", 10**12
    else:
        name = governor.name
        limit = getattr(governor, "latency_limit_ns", 10**12)
    return IdleAccounting(cstates, name, limit)


#: Meter modes a core can occupy while idle, shallow to deep, as
#: ``(meter slot, name)``.  ``"idle"`` is C0 polling.
_IDLE_MODES = tuple(
    (mode.slot, mode.value)
    for mode in (PowerMode.IDLE_POLL, PowerMode.C1, PowerMode.C3, PowerMode.C6)
)

#: The "chose C0 / oracle says C0" pseudo-state name in verdicts and
#: per-state floor breakdowns.
C0_NAME = "C0"


class IdleAccounting:
    """Linux-cpuidle-style governor decision accounting for one node.

    Attached to a node's cores via :meth:`attach` (observer pattern: the
    per-core ``on_idle_end`` hook, one attribute check when disabled).  On
    every completed idle period it

    - books the idle-mode energy/residency the meter accumulated since the
      previous booking (deltas of the meter's cumulative per-mode dicts,
      so the sum over bookings telescopes exactly to the meter totals),
    - splits that energy into the *oracle floor* — what a perfect C-state
      choice for the realized residency would have cost — and the
      *wasted-shallow* remainder, and
    - grades the chosen state (deepest residency reached) against the
      oracle into ``above`` / ``below`` / ``hit`` counters per core, with
      the ns of excess exit latency (above) and wasted joules (below)
      each miss cost.

    :meth:`snapshot` forces a partial booking on every attached core, so
    cumulative totals taken at window boundaries diff exactly — the hook
    the sharded fleet runs use to merge byte-identically.  Two documented
    approximations: an idle period split by a DVFS ``stall()`` (no
    ``_start`` in between) books its pre-stall energy at the *next*
    booking, and a period shorter than the C-state's entry latency shows
    no sleep-mode residency, so its chosen state is inferred as C0.
    Energy is conserved exactly in both cases; only the decision grading
    of those rare periods is approximate.
    """

    def __init__(
        self,
        cstates: CStateTable,
        governor: str,
        latency_limit_ns: int = 10**12,
    ):
        self.cstates = cstates
        self.governor = governor
        self.latency_limit_ns = latency_limit_ns
        self.decisions: Dict[int, Dict[str, int]] = {}
        self.above_ns = 0
        self.below_j = 0.0
        self.floor_j_by_state: Dict[str, float] = {}
        self.floor_ns_by_state: Dict[str, int] = {}
        self.wasted_shallow_j = 0.0
        #: Per core: the meter's idle-mode energy and residency at its
        #: last booking, in :data:`_IDLE_MODES` order.
        self._last: Dict[int, Tuple[List[float], List[int]]] = {}
        self._cores: List[Core] = []

    def attach(self, cores: Iterable[Core]) -> None:
        for core in cores:
            core.on_idle_end = self._on_idle_end
            self._cores.append(core)

    # -- booking -----------------------------------------------------------

    def _on_idle_end(self, core: Core, realized_ns: int) -> None:
        if realized_ns == 0:
            # take_next zero-length handoff: the governor never ran, the
            # meter never left RUN — nothing to grade or book.
            return
        self._book(core, realized_ns, classify=True)

    def _book(self, core: Core, realized_ns: int, classify: bool) -> None:
        meter = core.meter
        meter.sync()
        core_id = core.core_id
        last = self._last.get(core_id)
        if last is None:
            last = self._last[core_id] = (
                [0.0] * len(_IDLE_MODES), [0] * len(_IDLE_MODES)
            )
        last_e, last_r = last
        energy = meter.energy_table
        residency = meter.residency_table
        idle_e = 0.0
        idle_ns = 0
        chosen: Optional[CState] = None
        for i, (slot, name) in enumerate(_IDLE_MODES):
            cur_e = energy[slot]
            cur_r = residency[slot]
            de = cur_e - last_e[i]
            dr = cur_r - last_r[i]
            last_e[i] = cur_e
            last_r[i] = cur_r
            if dr > 0 and name != "idle":
                chosen = self.cstates.by_name(name)
            idle_e += de
            idle_ns += dr
        if idle_ns == 0 and idle_e == 0.0 and not classify:
            return
        package = core.package
        oracle = self.cstates.deepest_allowed(realized_ns, self.latency_limit_ns)
        oracle_mode = (
            PowerMode.IDLE_POLL if oracle is None else Core._sleep_mode(oracle)
        )
        oracle_power_w = package.power_model.core_power_w(
            oracle_mode, package.voltage, package.frequency_hz
        )
        floor_j = min(idle_e, oracle_power_w * idle_ns * 1e-9)
        wasted_j = idle_e - floor_j
        state_name = C0_NAME if oracle is None else oracle.name
        self.floor_j_by_state[state_name] = (
            self.floor_j_by_state.get(state_name, 0.0) + floor_j
        )
        self.floor_ns_by_state[state_name] = (
            self.floor_ns_by_state.get(state_name, 0) + idle_ns
        )
        self.wasted_shallow_j += wasted_j
        if not classify:
            return
        counts = self.decisions.get(core_id)
        if counts is None:
            counts = self.decisions[core_id] = {"above": 0, "below": 0, "hit": 0}
        chosen_index = chosen.index if chosen is not None else 0
        oracle_index = oracle.index if oracle is not None else 0
        if chosen_index > oracle_index:
            verdict = "above"
            assert chosen is not None
            self.above_ns += chosen.exit_latency_ns - (
                oracle.exit_latency_ns if oracle is not None else 0
            )
        elif chosen_index < oracle_index:
            verdict = "below"
            self.below_j += wasted_j
        else:
            verdict = "hit"
        counts[verdict] += 1

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Force a partial booking on every attached core and return a
        deep copy of the cumulative totals (plain data, picklable).

        A straddling idle period's energy-so-far is booked against the
        oracle for its elapsed-so-far duration (no decision is graded —
        the period has not ended).  Taken at window start and end, the
        totals diff exactly: every joule the meters accumulated inside
        the window lands in exactly one snapshot delta.
        """
        for core in self._cores:
            if core.state in (CoreState.IDLE, CoreState.SLEEP, CoreState.WAKING):
                elapsed = core.sim.now - core.idle_since
            else:
                elapsed = 0
            self._book(core, elapsed, classify=False)
        return self.totals()

    def totals(self) -> Dict[str, object]:
        """Cumulative accounting state as plain data (no booking forced)."""
        return {
            "governor": self.governor,
            "decisions": {
                str(core_id): dict(counts)
                for core_id, counts in sorted(self.decisions.items())
            },
            "above_ns": self.above_ns,
            "below_j": self.below_j,
            "floor_j_by_state": dict(self.floor_j_by_state),
            "floor_ns_by_state": dict(self.floor_ns_by_state),
            "wasted_shallow_j": self.wasted_shallow_j,
        }
