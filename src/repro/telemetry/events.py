"""Structured probe events emitted across the simulation layers.

Every event carries its emission time (``t_ns``, integer simulated
nanoseconds) plus enough identity for a sink to name its trace tracks
without reaching back into the emitting component.  Events are only
constructed when a probe point has subscribers, so they favour clarity
over allocation tricks.

Standard probe point names:

==========================  ================================================
``cpu.cstate``              :class:`CStateTransition` (enter/promote/wake)
``cpu.pstate``              :class:`PStateChange` (completed DVFS switches)
``irq.delivered``           :class:`IrqDelivered` (hardirq/softirq dispatch)
``nic.rx``                  :class:`NicRx` (wire arrival, pre-DMA)
``nic.tx``                  :class:`NicTx` (transmit observation point)
``governor.decision``       :class:`GovernorDecision` (cpufreq + cpuidle)
``ncap.wake``               :class:`NcapWake` (proactive wake interrupts)
``request.span``            :class:`RequestPhase` (per-request lifecycle)
``request.account``         :class:`RequestAccounting` (execution account)
==========================  ================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class CStateTransition:
    """A core entered, deepened, or left a C-state.

    ``phase`` is ``"enter"`` (IDLE -> C-state), ``"promote"`` (deepened
    without waking), or ``"wake"`` (exit latency fully paid;
    ``state``/``index`` are the state that was left).
    """

    t_ns: int
    domain: str          # owning clock domain, e.g. "server.cpu"
    core_id: int
    state: str           # "C1" / "C3" / "C6"
    index: int           # table index; 0 means awake
    phase: str           # "enter" | "promote" | "wake"
    #: On ``"wake"`` events: the exit latency just paid (including any
    #: MWAIT overhead), so sinks can reconstruct the WAKING interval
    #: ``[t_ns - exit_latency_ns, t_ns]`` without the C-state table.
    exit_latency_ns: int = 0


@dataclass(frozen=True)
class PStateChange:
    """A clock domain finished a DVFS transition (or declared its initial
    operating point at construction)."""

    t_ns: int
    domain: str
    index: int
    freq_hz: float


@dataclass(frozen=True)
class IrqDelivered:
    """A hardirq preempted (or a softirq was queued on) a core."""

    t_ns: int
    kind: str            # "hardirq" | "softirq"
    name: str            # handler label, e.g. "nic-irq", "napi"
    core_id: int


@dataclass(frozen=True)
class NicRx:
    """A frame arrived on the wire (before DMA; drops happen later)."""

    t_ns: int
    nic: str
    wire_bytes: int
    kind: str            # frame kind: "request" | "response" | "data"


@dataclass(frozen=True)
class NicTx:
    """A frame was handed to the NIC transmit path."""

    t_ns: int
    nic: str
    wire_bytes: int
    kind: str


@dataclass(frozen=True)
class GovernorDecision:
    """A P-state or C-state governor made a decision.

    For cpufreq governors ``value`` is the sampled utilization and
    ``choice`` the target P-state index; for cpuidle governors ``value``
    is the predicted/observed idle time and ``choice`` the chosen C-state
    index (0 = stay polling).
    """

    t_ns: int
    governor: str        # "ondemand", "menu", "ladder", ...
    choice: int
    value: float
    core_id: Optional[int] = None


@dataclass(frozen=True)
class NcapWake:
    """The DecisionEngine posted a proactive wake interrupt."""

    t_ns: int
    engine: str          # engine name, e.g. "server.ncap"
    cause: str           # "it_high" | "cit"


@dataclass(frozen=True)
class RequestPhase:
    """One phase of a request's lifecycle.

    Phases, in order: ``arrival`` (wire), ``dma`` (descriptor ring),
    ``dropped`` (ring full — terminal), ``delivered`` (SoftIRQ handed the
    frame to the socket), ``service`` (app began processing), ``reply``
    (response handed to the NIC — terminal).
    """

    t_ns: int
    src: str
    req_id: Optional[int]
    phase: str
    #: Core the phase is bound to, when the emitter knows it: the SoftIRQ
    #: core for ``delivered``, the scheduler affinity hint for ``service``,
    #: the core that ran the service job for ``reply``.  ``None`` when the
    #: phase has no core context (e.g. ``arrival`` happens on the wire).
    core: Optional[int] = None

    @property
    def span_id(self) -> str:
        """Stable per-request correlation id (req_ids are per-client)."""
        return f"{self.src}/{self.req_id}"


@dataclass(frozen=True)
class RequestAccounting:
    """Server-side execution account of one request, emitted at reply.

    Emitted on ``request.account`` by :class:`repro.apps.base.ServerApp`
    when the probe has subscribers.  Complements the ``request.span``
    phase markers with what happened *between* them: when each job was
    enqueued and first ran (run-queue wait), how much wall time the jobs
    spent retiring cycles (``cpu_ns``), how many cycles they retired
    (``cycles`` — re-cost at F_max to separate DVFS slowdown from ideal
    service time), and how long they sat halted for PLL relocks
    (``stall_ns``).
    """

    t_ns: int                    # reply time (response handed to the NIC)
    src: str
    req_id: Optional[int]
    core: Optional[int]          # core the service job first ran on
    resp_core: Optional[int]     # core the response job first ran on
    svc_enqueue_ns: int          # service job entered the run queue
    svc_start_ns: int            # service job first ran
    svc_done_ns: int             # service job completed
    resp_enqueue_ns: int         # response job entered the run queue
    resp_start_ns: int           # response job first ran
    cpu_ns: int                  # wall time in RUN across both jobs
    cycles: float                # cycles retired across both jobs
    stall_ns: int                # PLL-relock halts charged to both jobs

    @property
    def span_id(self) -> str:
        return f"{self.src}/{self.req_id}"


ProbeEvent = Union[
    CStateTransition,
    PStateChange,
    IrqDelivered,
    NicRx,
    NicTx,
    GovernorDecision,
    NcapWake,
    RequestPhase,
    RequestAccounting,
]
