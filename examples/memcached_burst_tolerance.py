"""Watch NCAP absorb a sudden burst after a long idle period.

Builds a server directly from the substrate (no experiment harness), puts
every core into C6 at the deepest P-state, fires a burst of Memcached GETs
after 5 ms of silence, and prints the microsecond-level timeline: when the
NIC saw the first packet, when NCAP posted its wake interrupt, when the
frequency reached P0, and when each phase of delivery happened — the
overlap that is the paper's headline mechanism.

Run:  python examples/memcached_burst_tolerance.py
"""

from repro.cluster.node import ServerNode
from repro.net import make_memcached_request
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS, US


class SinkPort:
    """A stand-in wire: accepts transmitted responses and drops them."""

    def send(self, frame):
        pass


def main() -> None:
    sim = Simulator()
    server = ServerNode(
        sim, "server", policy="ncap.cons", app="memcached", rng=RngRegistry(7),
    )
    server.attach_port(SinkPort())

    timeline = [
        (0, f"frequency starts at {server.package.frequency_hz / 1e9:.2f} GHz")
    ]
    # Every P-state transition, exactly as it happens, from the probe bus.
    server.telemetry.probes.subscribe(
        "cpu.pstate",
        lambda e: timeline.append((e.t_ns, f"frequency -> {e.freq_hz / 1e9:.2f} GHz")),
    )
    server.start()

    # Put the machine to sleep the way a long idle period would.
    def park():
        server.package.set_pstate(server.package.pstates.max_index)

    def sleep_cores():
        for core in server.package.cores:
            if core.is_idle:
                core.enter_sleep(server.package.cstates.by_name("C6"))
        timeline.append((sim.now, "all cores parked in C6, F at minimum"))

    sim.schedule_at(0, park)
    sim.schedule_at(1 * MS, sleep_cores)

    # Instrument delivery.
    first_delivery = []
    original_sink = server.driver.packet_sink

    def sink(frame):
        if not first_delivery:
            first_delivery.append(sim.now)
            timeline.append((sim.now, "first request delivered to memcached"))
        original_sink(frame)

    server.driver.packet_sink = sink

    # The burst: 120 GETs, back to back, after 5 ms of silence.
    burst_start = 5 * MS
    for i in range(120):
        sim.schedule_at(
            burst_start + i * 1_000,
            server.nic.receive_frame,
            make_memcached_request("client0", "server", key=f"k{i}", req_id=i),
        )
    timeline.append((burst_start, "burst of 120 GET packets hits the wire"))

    sim.run(until=12 * MS)

    engine = server.engine
    for t in engine.wake_interrupt_times():
        timeline.append((t, "NCAP posts proactive wake interrupt (IT_RX/IT_HIGH)"))

    print("timeline (ms since start):")
    for t, event in sorted(timeline):
        print(f"  {t / 1e6:8.3f}  {event}")

    print()
    wake = engine.wake_interrupt_times()[0]
    print(f"NCAP woke the processor {max(0, (first_delivery[0] - wake)) / US:.0f} us "
          "before the first request reached the application —")
    print("the C-state exit and DVFS ramp ran *under* the NIC delivery latency.")
    print(f"engine stats: IT_HIGH={engine.it_high_posts}, "
          f"immediate IT_RX={engine.immediate_rx_posts}, "
          f"IT_LOW={engine.it_low_posts}")


if __name__ == "__main__":
    main()
