"""DecisionEngine — when to post IT_HIGH / IT_LOW / immediate IT_RX.

Section 4.3 of the paper.  Two triggers:

1. **MITT expiry** (every 40–100 µs): compute ``ReqRate`` from ReqCnt and
   ``TxRate`` from TxCnt over the elapsed window.

   - ``ReqRate > RHT`` and F not already maximal → post ``IT_HIGH|IT_RX``
     (boost to P0, disable menu, hold ondemand for one period);
   - ``ReqRate < RLT`` and ``TxRate < TLT`` sustained for 1 ms → post
     ``IT_LOW`` (step F down; the first IT_LOW re-enables the menu
     governor).  One IT_LOW is sent per sustained-low window until FCONS
     steps have been issued.

2. **ReqCnt change** (a request just arrived): if the time since the last
   interrupt posted to the processor exceeds CIT, the processor is very
   likely sleeping — post an immediate ``IT_RX`` so the wake-up overlaps
   the DMA/delivery latency instead of following it.

The engine is hardware: its evaluation consumes no CPU cycles.  The
``ncap.sw`` variant drives the same engine from a kernel timer, paying
kernel cycles per evaluation (see :mod:`repro.core.ncap_sw`).
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional

from repro.core.config import NCAPConfig
from repro.net.interrupts import ICR
from repro.sim.kernel import Simulator
from repro.telemetry import NcapWake, Telemetry, ensure_telemetry


class DecisionEngine:
    """Threshold logic shared by the hardware and software NCAP variants."""

    def __init__(
        self,
        sim: Simulator,
        config: NCAPConfig,
        req_count: Callable[[], int],
        tx_bytes: Callable[[], int],
        post: Callable[[int], None],
        last_interrupt_ns: Callable[[], int],
        cpu_at_max: Callable[[], bool],
        enable_cit: bool = True,
        name: str = "ncap",
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "ncap",
    ):
        self._sim = sim
        self.config = config
        self.name = name
        self._req_count = req_count
        self._tx_bytes = tx_bytes
        self._post = post
        self._last_interrupt_ns = last_interrupt_ns
        self._cpu_at_max = cpu_at_max
        self.enable_cit = enable_cit

        self._last_req = 0
        self._last_tx = 0
        self._last_tick_ns = sim.now
        self._low_since: Optional[int] = None
        self._lows_sent = 0
        self._boost_active = False
        self._started = False

        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._ticks = stats.counter("ticks")
        self._it_high = stats.counter("it_high.posts")
        self._it_low = stats.counter("it_low.posts")
        self._immediate_rx = stats.counter("immediate_rx.posts")
        self._wake_probe = self.telemetry.probe("ncap.wake")
        self.last_req_rate_rps: float = 0.0
        self.last_tx_rate_bps: float = 0.0
        #: Proactive wake times: 8 B each in an array, against a boxed int
        #: and a list slot.
        self._wake_times = array("q")

    @property
    def ticks(self) -> int:
        return int(self._ticks.value)

    @property
    def it_high_posts(self) -> int:
        return int(self._it_high.value)

    @property
    def it_low_posts(self) -> int:
        return int(self._it_low.value)

    @property
    def immediate_rx_posts(self) -> int:
        return int(self._immediate_rx.value)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Snapshot counters so the first tick sees a clean window."""
        self._last_req = self._req_count()
        self._last_tx = self._tx_bytes()
        self._last_tick_ns = self._sim.now
        self._started = True

    # -- rate evaluation (MITT expiry / sw timer) ------------------------------

    def tick(self) -> None:
        """Evaluate rates over the window since the previous tick."""
        if not self._started:
            self.start()
            return
        now = self._sim.now
        period = now - self._last_tick_ns
        if period <= 0:
            return
        self._ticks.inc()
        req = self._req_count()
        tx = self._tx_bytes()
        req_rate = (req - self._last_req) * 1e9 / period
        tx_rate = (tx - self._last_tx) * 8e9 / period
        self._last_req = req
        self._last_tx = tx
        self._last_tick_ns = now
        self.last_req_rate_rps = req_rate
        self.last_tx_rate_bps = tx_rate

        cfg = self.config
        if req_rate > cfg.rht_rps:
            self._low_since = None
            self._lows_sent = 0
            self._boost_active = True
            if not self._cpu_at_max():
                self._it_high.inc()
                self._record_wake("it_high")
                self._post(ICR.IT_HIGH | ICR.IT_RX)
        elif req_rate < cfg.rlt_rps and tx_rate < cfg.tlt_bps:
            if self._low_since is None:
                self._low_since = now
            elif (
                now - self._low_since >= cfg.low_window_ns
                and self._boost_active
            ):
                self._it_low.inc()
                self._post(ICR.IT_LOW)
                self._low_since = now  # pace back-to-back IT_LOWs
                self._lows_sent += 1
                if self._lows_sent >= cfg.fcons:
                    self._boost_active = False
        else:
            self._low_since = None

    # -- CIT path (ReqCnt change) --------------------------------------------

    def on_req_count_change(self) -> None:
        """A latency-critical request just arrived at the NIC."""
        if not self.enable_cit:
            return
        if self._sim.now - self._last_interrupt_ns() > self.config.cit_ns:
            self._immediate_rx.inc()
            self._record_wake("cit")
            self._post(ICR.IT_RX)

    # -- introspection ----------------------------------------------------------

    @property
    def boost_active(self) -> bool:
        return self._boost_active

    def _record_wake(self, cause: str) -> None:
        self._wake_times.append(self._sim.now)
        if self._wake_probe.enabled:
            self._wake_probe.emit(NcapWake(self._sim.now, self.name, cause))

    def wake_interrupt_times(self) -> List[int]:
        """Times of proactive wake interrupts (the paper's "INT (wake)")."""
        return list(self._wake_times)
