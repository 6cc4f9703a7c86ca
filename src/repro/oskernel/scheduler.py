"""Run queue and job dispatch.

Models the slice of the Linux scheduler the paper's mechanisms interact
with: a global FIFO run queue feeding idle cores, waking sleeping cores
when work arrives (paying the C-state exit latency), and notifying the
cpuidle layer whenever a core runs out of work (``cpu_idle_loop``).

Dispatch preference order for a newly enqueued job:

1. an idle (C0) core — cheapest;
2. a waking core with an empty backlog — the job rides the in-flight wake;
3. a sleeping core — woken, paying its exit latency;
4. otherwise the global FIFO queue, drained as cores become idle.

A job is queued only when no core could take it, and a core that runs
out of work pulls from the queue before it can go idle (``take_next``).
So while the queue is non-empty no core is idle, sleeping, or waking with
an empty backlog, and a new job joins the queue without a core scan.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.cpu.core import Core, CoreState, Job
from repro.cpu.package import ClockDomain
from repro.sim.kernel import Simulator


class Scheduler:
    """Global FIFO run queue over the cores of one package."""

    def __init__(self, sim: Simulator, package: ClockDomain):
        self._sim = sim
        self._package = package
        self.cores: List[Core] = package.cores
        self._queue: Deque[Job] = deque()
        # cpuidle hook: called with a core that has gone idle and has no work.
        self.idle_hook: Optional[Callable[[Core], None]] = None
        self.max_queue_depth: int = 0
        self.jobs_enqueued: int = 0
        for core in self.cores:
            core.on_idle = self._on_core_idle
            core.take_next = self._take_next

    # -- submission ------------------------------------------------------

    def enqueue(self, job: Job, core_hint: Optional[int] = None) -> None:
        """Submit ``job`` for execution on any core (or ``core_hint``)."""
        self.jobs_enqueued += 1
        if core_hint is not None:
            core = self.cores[core_hint]
            if core.state in (
                CoreState.IDLE, CoreState.SLEEP, CoreState.WAKING, CoreState.STALL,
            ):
                core.dispatch(job)
                return
            # Soft affinity (RFS-like): the preferred core is busy, so fall
            # through to normal selection rather than starving the job
            # behind it while other cores sleep.

        queue = self._queue
        if not queue:
            core = self._pick_core()
            if core is not None:
                core.dispatch(job)
                return
        queue.append(job)
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def _pick_core(self) -> Optional[Core]:
        waking = None
        sleeping = None
        for core in self.cores:
            state = core.state
            if state is CoreState.IDLE:
                return core
            if state is CoreState.WAKING and waking is None and core.queue_depth() == 0:
                waking = core
            elif state is CoreState.SLEEP and sleeping is None and core.queue_depth() == 0:
                sleeping = core
        return waking or sleeping

    # -- core callbacks -----------------------------------------------------

    def _on_core_idle(self, core: Core) -> None:
        # Runs only after ``_take_next`` found the queue empty.
        if self.idle_hook is not None:
            self.idle_hook(core)

    def _take_next(self) -> Optional[Job]:
        """Completion fast path: pop the next queued job for the asking
        core, or None to let it go idle (then ``_on_core_idle`` runs the
        cpuidle hook)."""
        if self._queue:
            return self._queue.popleft()
        return None

    # -- introspection --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def wake_all(self) -> None:
        """Wake every sleeping core (used by NCAP's IT_HIGH path)."""
        for core in self.cores:
            if core.state is CoreState.SLEEP:
                core.wake()
