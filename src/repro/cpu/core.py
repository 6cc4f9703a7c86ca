"""Preemptible core execution engine.

A :class:`Core` executes :class:`Job`\\ s — cycle budgets whose wall-clock
duration depends on the clock-domain frequency at each instant.  The engine
supports everything the paper's mechanisms need:

- **Preemption** — hardirq handlers preempt the running job (a job stack),
  so governor/driver overhead steals real cycles from application work.
- **Mid-job frequency changes** — remaining cycles are recomputed and the
  completion event rescheduled whenever the clock domain retunes.
- **PLL-relock stalls** — :meth:`Core.stall` pauses retirement for the halt
  window of a DVFS transition (Figure 1 of the paper).
- **C-states** — :meth:`Core.enter_sleep` / :meth:`Core.wake` model sleep
  entry and the exit latency of C1/C3/C6; work dispatched to a sleeping core
  implicitly wakes it and pays the exit latency.

Power bookkeeping is delegated to the attached :class:`PowerMeter`.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.cpu.cstates import CState
from repro.cpu.energy import PowerMeter
from repro.cpu.power import PowerMode
from repro.sim.kernel import Event, Simulator
from repro.sim.units import cycles_to_ns, ns_to_cycles
from repro.telemetry import Counter, CStateTransition


_SLEEP_MODE_BY_NAME = {"C1": PowerMode.C1, "C3": PowerMode.C3, "C6": PowerMode.C6}


class CoreBusyError(RuntimeError):
    """Raised when a non-preempting dispatch hits a running core."""


class CoreState(enum.Enum):
    IDLE = "idle"        # C0, no job (polling loop)
    RUN = "run"          # executing a job
    STALL = "stall"      # halted for PLL relock
    SLEEP = "sleep"      # in a C-state
    WAKING = "waking"    # exiting a C-state


class ExecAccount:
    """Execution account a :class:`Job` can carry for attribution.

    The core charges it as the job runs: wall time spent retiring
    (``cpu_ns``), cycles retired (``cycles``), PLL-relock halts that hit
    the job while it was current (``stall_ns``), and when/where the job
    first ran.  ``cpu_ns - cycles/F_max`` is then the DVFS penalty
    (sub-nominal-frequency slowdown) and ``span - cpu_ns - stall_ns`` the
    preemption time — the decomposition
    :class:`repro.analysis.attribution.AttributionSink` performs.
    """

    __slots__ = ("first_start_ns", "first_core", "cpu_ns", "cycles", "stall_ns")

    def __init__(self) -> None:
        self.first_start_ns: Optional[int] = None
        self.first_core: Optional[int] = None
        self.cpu_ns: int = 0
        self.cycles: float = 0.0
        self.stall_ns: int = 0


class Job:
    """A unit of work measured in core cycles.

    ``on_complete(*args)`` runs when the last cycle retires: a bound
    method and its ``args`` cost less to keep in flight than a closure.
    """

    __slots__ = (
        "name", "total_cycles", "remaining", "on_complete", "args", "kernel",
        "account",
    )

    def __init__(
        self,
        cycles: float,
        on_complete: Optional[Callable[..., None]] = None,
        name: str = "",
        kernel: bool = False,
        args: tuple = (),
    ):
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.name = name
        self.total_cycles = float(cycles)
        self.remaining = float(cycles)
        self.on_complete = on_complete
        self.args = args
        self.kernel = kernel
        #: Optional :class:`ExecAccount`; None keeps the hot path at a
        #: single attribute check per charge point.
        self.account: Optional[ExecAccount] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.name!r}, remaining={self.remaining:.0f})"


class Core:
    """One processor core inside a clock/voltage domain (its package)."""

    __slots__ = (
        "_sim", "core_id", "_package", "meter", "state", "on_idle", "take_next",
        "on_idle_end", "_current", "_stack", "_pending", "_completion",
        "_stall_end", "_stall_started", "_stall_account", "_wake_end",
        "_run_started", "_cumulative_busy_ns", "_cstate", "_idle_since",
        "cstate_entries", "wake_extra_ns", "last_idle_duration_ns",
        "idle_periods_completed", "_boot_idle", "_cstate_probe", "_entry_counters",
    )

    def __init__(self, sim: Simulator, core_id: int, package: "ClockDomain", meter: PowerMeter):
        self._sim = sim
        self.core_id = core_id
        self._package = package
        self.meter = meter
        self.state: CoreState = CoreState.IDLE
        self.on_idle: Optional[Callable[["Core"], None]] = None
        #: Optional fast-path pull hook installed by the scheduler: on job
        #: completion the core asks for the next queued job directly,
        #: skipping the zero-length IDLE_POLL meter segment and the
        #: ``on_idle`` -> dispatch round trip (the top cost in
        #: ``small_cluster`` profiles).  Idle-period statistics still see a
        #: zero-length idle period, exactly as the round trip produced.
        self.take_next: Optional[Callable[[], Optional[Job]]] = None
        #: Optional observer fired when an idle period ends (just before the
        #: meter switches to RUN), with the realized idle duration in ns.
        #: Installed by the energy-attribution accounting; like ``take_next``
        #: and ``job.account``, the disabled cost is one attribute check.
        self.on_idle_end: Optional[Callable[["Core", int], None]] = None

        self._current: Optional[Job] = None
        self._stack: List[Job] = []
        #: SoftIRQ chains and jobs that hit a sleeping, waking or stalled
        #: core: a few jobs at most, and usually none.
        self._pending: List[Job] = []
        #: The core's completion event: armed while RUN, otherwise fired
        #: or cancelled, and re-armed by the next ``_start``.
        self._completion: Optional[Event] = None
        self._stall_end: Optional[Event] = None
        self._stall_started: int = 0
        self._stall_account: Optional[ExecAccount] = None
        self._wake_end: Optional[Event] = None
        self._run_started: int = 0
        self._cumulative_busy_ns: int = 0
        self._cstate: Optional[CState] = None
        self._idle_since: int = sim.now
        self.cstate_entries: Dict[str, int] = {}
        self.wake_extra_ns: int = 0  # optional MWAIT/MONITOR overhead
        # Idle-period bookkeeping consumed by the cpuidle governors.  The
        # boot-time idle period is not counted (it would record a degenerate
        # duration and poison the governor's history).
        self.last_idle_duration_ns: int = 0
        self.idle_periods_completed: int = 0
        self._boot_idle = True
        self._cstate_probe = package.telemetry.probe("cpu.cstate")
        self._entry_counters: Dict[str, Counter] = {}

        meter.start(PowerMode.IDLE_POLL, package.voltage, package.frequency_hz)

    # -- introspection -----------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def package(self) -> "ClockDomain":
        return self._package

    @property
    def is_idle(self) -> bool:
        """True when the core can accept a job without preempting/queueing."""
        return self.state is CoreState.IDLE

    @property
    def is_sleeping(self) -> bool:
        return self.state is CoreState.SLEEP

    @property
    def current_cstate(self) -> Optional[CState]:
        """The C-state the core is in (or waking from), if any."""
        return self._cstate

    @property
    def current_job(self) -> Optional[Job]:
        return self._current

    @property
    def idle_since(self) -> int:
        """Time the core last became idle (valid while IDLE/SLEEP/WAKING)."""
        return self._idle_since

    def busy_ns_total(self) -> int:
        """Cumulative busy time (RUN state), including the open segment."""
        total = self._cumulative_busy_ns
        if self.state is CoreState.RUN:
            total += self._sim.now - self._run_started
        return total

    def queue_depth(self) -> int:
        """Jobs waiting on this core (pending handlers + preempted stack)."""
        return len(self._pending) + len(self._stack)

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, job: Job, preempt: bool = False) -> None:
        """Hand ``job`` to this core.

        - IDLE: starts immediately.
        - RUN: preempts the running job when ``preempt`` else raises
          :class:`CoreBusyError` (the scheduler must only target idle cores).
        - STALL/WAKING: queued; runs when the core becomes available.
        - SLEEP: queued and the core is woken (pays the exit latency).
        """
        state = self.state
        if state is CoreState.IDLE:
            self._start(job)
        elif state is CoreState.RUN:
            if not preempt:
                raise CoreBusyError(f"core {self.core_id} is running {self._current!r}")
            self._pause_current(push=True)
            self._start(job)
        elif state in (CoreState.STALL, CoreState.WAKING):
            self._pending.append(job)
        elif state is CoreState.SLEEP:
            self._pending.append(job)
            self.wake()
        else:  # pragma: no cover - exhaustive
            raise AssertionError(state)

    def enqueue_pending(self, job: Job) -> None:
        """Queue ``job`` to run as soon as the core is next available —
        after the current job but before any preempted work resumes.

        Used for SoftIRQ chaining: softirqs raised while a kernel job runs
        drain FIFO instead of preempting each other.
        """
        if self.state is CoreState.SLEEP:
            self._pending.append(job)
            self.wake()
        elif self.state is CoreState.IDLE:
            self._start(job)
        else:
            self._pending.append(job)

    # -- execution internals -------------------------------------------------

    def _start(self, job: Job) -> None:
        if self.state in (CoreState.IDLE, CoreState.WAKING):
            # An idle period (possibly spent in a C-state) ends now.
            if self._boot_idle:
                self._boot_idle = False
            else:
                self.last_idle_duration_ns = self._sim.now - self._idle_since
                self.idle_periods_completed += 1
                if self.on_idle_end is not None:
                    self.on_idle_end(self, self.last_idle_duration_ns)
        account = job.account
        if account is not None and account.first_start_ns is None:
            account.first_start_ns = self._sim.now
            account.first_core = self.core_id
        self._current = job
        self.state = CoreState.RUN
        self._run_started = self._sim.now
        self.meter.set_mode(
            PowerMode.RUN, self._package.voltage, self._package.frequency_hz
        )
        duration = cycles_to_ns(job.remaining, self._package.frequency_hz)
        completion = self._completion
        if completion is None:
            self._completion = self._sim.schedule(duration, self._complete)
        else:
            self._completion = self._sim.reschedule(completion, duration)

    def _pause_current(self, push: bool) -> None:
        job = self._current
        assert job is not None
        elapsed = self._sim.now - self._run_started
        if elapsed > 0:
            before = job.remaining
            job.remaining = max(
                0.0, before - ns_to_cycles(elapsed, self._package.frequency_hz)
            )
            self._cumulative_busy_ns += elapsed
            account = job.account
            if account is not None:
                account.cpu_ns += elapsed
                account.cycles += before - job.remaining
        if self._completion is not None:
            self._completion.cancel()
        self._current = None
        if push:
            self._stack.append(job)

    def _complete(self) -> None:
        job = self._current
        assert job is not None
        self._cumulative_busy_ns += self._sim.now - self._run_started
        account = job.account
        if account is not None:
            account.cpu_ns += self._sim.now - self._run_started
            account.cycles += job.remaining
        job.remaining = 0.0
        self._current = None
        self._maybe_run_next()
        if job.on_complete is not None:
            job.on_complete(*job.args)

    def _maybe_run_next(self) -> None:
        if self._pending:
            self._start(self._pending.pop(0))
        elif self._stack:
            self._start(self._stack.pop())
        else:
            if self.take_next is not None:
                job = self.take_next()
                if job is not None:
                    # Zero-length idle handoff: _start books the idle
                    # period (duration 0); the skipped IDLE_POLL meter
                    # segment would also have had zero duration.
                    self.state = CoreState.IDLE
                    self._idle_since = self._sim.now
                    self._cstate = None
                    self._start(job)
                    return
            self.state = CoreState.IDLE
            self._idle_since = self._sim.now
            self._cstate = None
            self.meter.set_mode(
                PowerMode.IDLE_POLL, self._package.voltage, self._package.frequency_hz
            )
            if self.on_idle is not None:
                self.on_idle(self)

    # -- DVFS interaction ------------------------------------------------------

    def stall(self, duration_ns: int) -> None:
        """Halt retirement for ``duration_ns`` (PLL relock window).

        Sleeping/waking cores are unaffected: their clock is already off.
        """
        if self.state in (CoreState.SLEEP, CoreState.WAKING):
            return
        if self.state is CoreState.STALL:
            # Overlapping transitions are serialized by the package; extend.
            assert self._stall_end is not None
            if self._sim.now + duration_ns > self._stall_end.time:
                self._stall_end.cancel()
                self._stall_end = self._sim.schedule(duration_ns, self._stall_done)
            return
        account = None
        if self.state is CoreState.RUN:
            assert self._current is not None
            account = self._current.account
            self._pause_current(push=True)
        self.state = CoreState.STALL
        self._stall_started = self._sim.now
        self._stall_account = account
        self.meter.set_mode(
            PowerMode.STALL, self._package.voltage, self._package.frequency_hz
        )
        self._stall_end = self._sim.schedule(duration_ns, self._stall_done)

    def _stall_done(self) -> None:
        self._stall_end = None
        if self._stall_account is not None:
            self._stall_account.stall_ns += self._sim.now - self._stall_started
            self._stall_account = None
        self._maybe_run_next()

    def on_clock_change(self, old_freq_hz: float) -> None:
        """The clock domain retuned: recompute the running job's completion.

        ``old_freq_hz`` is the frequency at which progress so far retired.
        """
        freq = self._package.frequency_hz
        voltage = self._package.voltage
        if self.state is CoreState.RUN:
            job = self._current
            assert job is not None
            elapsed = self._sim.now - self._run_started
            if elapsed > 0:
                before = job.remaining
                job.remaining = max(
                    0.0, before - ns_to_cycles(elapsed, old_freq_hz)
                )
                self._cumulative_busy_ns += elapsed
                self._run_started = self._sim.now
                account = job.account
                if account is not None:
                    account.cpu_ns += elapsed
                    account.cycles += before - job.remaining
            if self._completion is not None:
                self._completion.cancel()
            self._completion = self._sim.schedule(
                cycles_to_ns(job.remaining, freq), self._complete
            )
        if self.state is CoreState.SLEEP:
            # C3/C6 hold their own retention voltage; only C1 tracks the
            # domain voltage (a C1 entry still in transition is re-priced).
            if self._cstate is not None and self._cstate.name == "C1":
                self.meter.retune(voltage, freq)
            return
        self.meter.retune(voltage, freq)

    # -- C-states ----------------------------------------------------------------

    def _count_entry(self, cstate: CState) -> None:
        """Book a C-state entry both per-core and in the shared registry."""
        self.cstate_entries[cstate.name] = self.cstate_entries.get(cstate.name, 0) + 1
        counter = self._entry_counters.get(cstate.name)
        if counter is None:
            counter = self._package.telemetry.counter(
                f"cpuidle.{cstate.name.lower()}.entries"
            )
            self._entry_counters[cstate.name] = counter
        counter.inc()

    def _emit_cstate(self, cstate: CState, phase: str, exit_latency_ns: int = 0) -> None:
        self._cstate_probe.emit(
            CStateTransition(
                self._sim.now,
                self._package.name,
                self.core_id,
                cstate.name,
                cstate.index,
                phase,
                exit_latency_ns,
            )
        )

    @staticmethod
    def _sleep_mode(cstate: CState) -> PowerMode:
        return _SLEEP_MODE_BY_NAME.get(cstate.name, PowerMode.C1)

    def _begin_sleep_power(self, cstate: CState) -> None:
        """Charge the entry transition, then settle at the state's power.

        During ``entry_latency_ns`` the core draws transition power (state
        save, cache flush) — this is what makes very short sleep visits a
        net energy loss (the churn the paper's [11] describes).  The
        settle is a deferred meter switch, not an event: a wake or
        promotion before it lands replaces it.
        """
        package = self._package
        mode = self._sleep_mode(cstate)
        if cstate.entry_latency_ns > 0:
            self.meter.set_mode(PowerMode.WAKING, package.voltage, package.frequency_hz)
            self.meter.switch_at(self._sim.now + cstate.entry_latency_ns, mode)
        else:
            self.meter.set_mode(mode, package.voltage, package.frequency_hz)

    def enter_sleep(self, cstate: CState) -> None:
        """Transition an IDLE core into ``cstate``."""
        if self.state is not CoreState.IDLE:
            raise RuntimeError(
                f"core {self.core_id} cannot sleep from state {self.state}"
            )
        self.state = CoreState.SLEEP
        self._cstate = cstate
        self._count_entry(cstate)
        if self._cstate_probe.enabled:
            self._emit_cstate(cstate, "enter")
        self._begin_sleep_power(cstate)

    def promote_sleep(self, deeper: CState) -> None:
        """Move a sleeping core into a deeper C-state without waking it.

        Models the cheap re-entry a real idle loop performs when the tick
        (or a governor re-evaluation) finds the core has already been idle
        far longer than predicted; the deeper state's entry transition is
        charged, and its exit latency is paid on the eventual wake.
        """
        if self.state is not CoreState.SLEEP:
            raise RuntimeError(
                f"core {self.core_id} cannot promote from state {self.state}"
            )
        assert self._cstate is not None
        if deeper.index <= self._cstate.index:
            return
        self._cstate = deeper
        self._count_entry(deeper)
        if self._cstate_probe.enabled:
            self._emit_cstate(deeper, "promote")
        self._begin_sleep_power(deeper)

    def wake(self) -> None:
        """Begin exiting the current C-state (idempotent while waking)."""
        if self.state is not CoreState.SLEEP:
            return
        assert self._cstate is not None
        self.state = CoreState.WAKING
        self.meter.set_mode(
            PowerMode.WAKING, self._package.voltage, self._package.frequency_hz
        )
        delay = self._cstate.exit_latency_ns + self.wake_extra_ns
        self._wake_end = self._sim.schedule(delay, self._wake_done)

    def _wake_done(self) -> None:
        self._wake_end = None
        left = self._cstate
        self._cstate = None
        if self._cstate_probe.enabled and left is not None:
            self._emit_cstate(
                left, "wake", left.exit_latency_ns + self.wake_extra_ns
            )
        self._maybe_run_next()
