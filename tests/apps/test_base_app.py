"""Tests for the ServerApp request pipeline."""

import random

import pytest

from repro.apps.base import ServerApp
from repro.cpu import ProcessorConfig
from repro.net import NIC, NICDriver, make_http_request, make_response
from repro.net.packet import segments_for
from repro.oskernel import IRQController, NetStackCosts, Scheduler
from repro.sim import Simulator
from repro.sim.units import US


class FixedApp(ServerApp):
    """Deterministic costs for pipeline testing."""

    def __init__(self, *args, io_ns=0, resp_bytes=1000, **kwargs):
        super().__init__(*args, **kwargs)
        self._io_ns = io_ns
        self._resp_bytes = resp_bytes

    def service_cycles(self, frame):
        return 31_000.0  # 10 us at 3.1 GHz

    def io_latency_ns(self, frame):
        return self._io_ns

    def response_bytes(self, frame):
        return self._resp_bytes

    def response_cycles(self, frame, response_bytes):
        return 15_500.0  # 5 us at 3.1 GHz


class SinkPort:
    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


def make_rig(io_ns=0, resp_bytes=1000):
    sim = Simulator()
    package = ProcessorConfig(n_cores=2).build_package(sim)
    scheduler = Scheduler(sim, package)
    irq = IRQController(sim, package)
    nic = NIC(sim)
    port = SinkPort()
    nic.attach_port(port)
    driver = NICDriver(sim, nic, irq, NetStackCosts())
    app = FixedApp(
        sim, scheduler, driver, NetStackCosts(), random.Random(0),
        name="server", io_ns=io_ns, resp_bytes=resp_bytes,
    )
    driver.packet_sink = app.on_packet
    return sim, app, nic, port


class TestPipeline:
    def test_request_produces_response(self):
        sim, app, nic, port = make_rig()
        app.on_packet(make_http_request("client", "server", req_id=9))
        sim.run()
        assert app.requests_received == 1
        assert app.responses_sent == 1
        assert len(port.sent) == 1
        assert port.sent[0].req_id == 9
        assert port.sent[0].dst == "client"
        assert port.sent[0].kind == "response"

    def test_io_phase_adds_off_cpu_latency(self):
        sim_fast, app_fast, _, port_fast = make_rig(io_ns=0)
        app_fast.on_packet(make_http_request("c", "server", req_id=1))
        sim_fast.run()
        fast_done = sim_fast.now

        sim_slow, app_slow, _, port_slow = make_rig(io_ns=500 * US)
        app_slow.on_packet(make_http_request("c", "server", req_id=1))
        sim_slow.run()
        assert sim_slow.now == fast_done + 500 * US

    def test_io_phase_frees_the_core(self):
        # During I/O, another request's service phase can run.
        sim, app, nic, port = make_rig(io_ns=1_000 * US)
        app.on_packet(make_http_request("c", "server", req_id=1))
        app.on_packet(make_http_request("c", "server", req_id=2))
        sim.run()
        # Both finish ~together (I/O overlapped), not serialized by 1 ms.
        assert sim.now < 1_200 * US

    def test_tx_kernel_cost_scales_with_segments(self):
        sim_small, app_small, _, _ = make_rig(resp_bytes=500)
        app_small.on_packet(make_http_request("c", "server", req_id=1))
        sim_small.run()
        small_time = sim_small.now

        sim_big, app_big, _, _ = make_rig(resp_bytes=50_000)
        app_big.on_packet(make_http_request("c", "server", req_id=1))
        sim_big.run()
        costs = NetStackCosts()
        extra_cycles = costs.tx_message_cycles(segments_for(50_000)) - costs.tx_message_cycles(
            segments_for(500)
        )
        assert sim_big.now - small_time == pytest.approx(
            extra_cycles / 3.1e9 * 1e9, abs=10
        )

    def test_non_request_frames_ignored(self):
        sim, app, nic, port = make_rig()
        app.on_packet(make_response("x", "server", payload_bytes=100))
        sim.run()
        assert app.requests_received == 0
        assert app.non_requests_ignored == 1
        assert port.sent == []
