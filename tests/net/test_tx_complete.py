"""Tests for optional tx-completion interrupts (the ICR's IT_TX cause)."""

from repro.cpu import ProcessorConfig
from repro.net import ICR, Frame, NIC, NICDriver
from repro.oskernel import IRQController, NetStackCosts
from repro.sim import Simulator
from repro.sim.units import MS, US
from tests.net.test_nic_driver import wire_frame, wired_nic


class WireStub:
    name = "wire"

    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


def make(tx_complete=True):
    sim = Simulator()
    package = ProcessorConfig(n_cores=2).build_package(sim)
    irq = IRQController(sim, package)
    nic = NIC(sim, tx_complete_interrupts=tx_complete)
    nic.attach_port(WireStub())  # type: ignore[arg-type]
    driver = NICDriver(sim, nic, irq, NetStackCosts())
    driver.packet_sink = lambda f: None
    return sim, package, nic, driver


def response(i=0):
    return Frame("server", "client", payload_bytes=5_000, kind="response", req_id=i)


class TestTxComplete:
    def test_completion_sets_it_tx_and_interrupts(self):
        sim, package, nic, driver = make()
        seen = []
        driver.icr_hooks.append(seen.append)
        driver.transmit(response())
        sim.run()
        assert any(bits & ICR.IT_TX for bits in seen)
        assert driver.tx_reclaimed == 1

    def test_completions_coalesce(self):
        sim, package, nic, driver = make()
        for i in range(10):
            sim.schedule_at(i * 1_000, driver.transmit, response(i))
        sim.run()
        assert driver.tx_reclaimed == 10
        assert driver.hardirqs <= 2  # moderated into one or two interrupts

    def test_disabled_by_default(self):
        sim, package, nic, driver = make(tx_complete=False)
        seen = []
        driver.icr_hooks.append(seen.append)
        driver.transmit(response())
        sim.run()
        assert not any(bits & ICR.IT_TX for bits in seen)
        assert driver.tx_reclaimed == 0

    def test_reclamation_burns_cycles(self):
        sim, package, nic, driver = make()
        for i in range(50):
            sim.schedule_at(i * 1_000, driver.transmit, response(i))
        sim.run()
        # hardirq + reclamation softirq work landed on core 0.
        assert package.cores[0].busy_ns_total() > 0

    def test_take_tx_completions_resets(self):
        sim, package, nic, driver = make()
        driver.transmit(response())
        sim.run()
        assert nic.take_tx_completions() == 0  # driver already drained it


class TestTxCompletionCoalescing:
    """The pending-completion counter and interrupt counts under bursts."""

    def test_pending_counter_accumulates_then_resets(self):
        # No driver attached: completions pile up in the NIC until the
        # (eventual) reclaim drains them in one go.
        sim = Simulator()
        nic = NIC(sim, tx_complete_interrupts=True)
        nic.attach_port(WireStub())  # type: ignore[arg-type]
        for i in range(7):
            nic.transmit(response(i))
        sim.run()
        assert nic.tx_completions_pending == 7
        assert nic.take_tx_completions() == 7
        assert nic.tx_completions_pending == 0
        assert nic.take_tx_completions() == 0

    def test_burst_coalesces_into_few_interrupts(self):
        sim, package, nic, driver = make()
        it_tx_posts = []
        driver.icr_hooks.append(
            lambda bits: it_tx_posts.append(bits) if bits & ICR.IT_TX else None
        )
        for i in range(100):
            sim.schedule_at(i * 200, driver.transmit, response(i))
        sim.run()
        # Every completion is reclaimed exactly once...
        assert driver.tx_reclaimed == 100
        assert nic.tx_frames == 100
        assert nic.take_tx_completions() == 0
        # ...but moderation folds the dense burst into far fewer
        # interrupts than one per completion.
        assert 1 <= len(it_tx_posts) < 100
        assert driver.hardirqs == len(it_tx_posts)

    def test_sparse_transmits_interrupt_individually(self):
        sim, package, nic, driver = make()
        gap = 5 * MS  # far beyond the moderator's throttle window
        for i in range(4):
            sim.schedule_at(i * gap, driver.transmit, response(i))
        sim.run()
        assert driver.tx_reclaimed == 4
        assert driver.hardirqs == 4


class TestTxCompletionTiming:
    def test_it_tx_set_when_dma_completes(self):
        # Over a real link, the completion lands when the DMA engine hands
        # the frame to the wire, not when the frame arrives.
        sim, nic, receiver = wired_nic(NIC, tx_complete_interrupts=True)
        t = 3 * US
        frame = wire_frame()
        sim.schedule_at(t, nic.transmit, frame)
        sim.run(until=t + nic.tx_dma_latency_ns - 1)
        assert not nic.icr.peek() & ICR.IT_TX
        assert nic.tx_completions_pending == 0
        sim.run(until=t + nic.tx_dma_latency_ns)
        assert nic.icr.peek() & ICR.IT_TX
        assert nic.tx_completions_pending == 1
        sim.run()
        # 10 us of serialization, 1 us propagation.
        assert receiver.got == [(t + nic.tx_dma_latency_ns + 11 * US, frame.frame_id)]
