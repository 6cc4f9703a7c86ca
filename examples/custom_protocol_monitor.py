"""Teach NCAP a custom wire protocol through the sysfs interface.

The paper's ReqMonitor registers are programmable: operators load the
byte templates of whatever requests are latency-critical for *their*
service.  This example defines a toy RPC protocol whose urgent calls start
with ``CALL`` (and whose bulk replication traffic starts with ``REPL``),
programs the NIC through sysfs exactly as a driver init script would, and
shows that only the urgent traffic trips the DecisionEngine.

Run:  python examples/custom_protocol_monitor.py
"""

from repro.cluster.node import ServerNode
from repro.net.packet import Frame
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS


def rpc_frame(kind: str, i: int) -> Frame:
    payload = f"{kind} method={i}".encode("ascii")
    return Frame(
        src="client0", dst="server", payload_bytes=len(payload),
        kind="request", payload_prefix=payload[:8], req_id=i,
    )


class SinkPort:
    """A stand-in wire: accepts transmitted responses and drops them."""

    def send(self, frame):
        pass


def main() -> None:
    sim = Simulator()
    server = ServerNode(
        sim, "server", policy="ncap.cons", app="memcached",
        rng=RngRegistry(3),
    )
    server.attach_port(SinkPort())
    server.start()

    # Program the template registers the way an operator would.
    sysfs_path = "/sys/class/net/server/ncap/templates"
    print(f"default templates : {server.sysfs.read(sysfs_path)}")
    server.sysfs.write(sysfs_path, "CALL")
    print(f"programmed        : {server.sysfs.read(sysfs_path)}")

    monitor = server.ncap_hw.req_monitor
    engine = server.engine

    # Phase 1: a flood of bulk replication traffic (not latency-critical).
    for i in range(200):
        sim.schedule_at(1 * MS + i * 2_000, server.nic.receive_frame,
                        rpc_frame("REPL", i))
    # Phase 2: a burst of urgent RPC calls.
    for i in range(200):
        sim.schedule_at(10 * MS + i * 2_000, server.nic.receive_frame,
                        rpc_frame("CALL", 1000 + i))

    sim.run(until=8 * MS)
    print("\nafter the REPL flood:")
    print(f"  packets inspected = {monitor.packets_inspected}")
    print(f"  requests counted  = {monitor.req_cnt}  (bulk traffic ignored)")
    print(f"  IT_HIGH posted    = {engine.it_high_posts}")
    assert engine.it_high_posts == 0

    sim.run(until=11 * MS)  # mid-burst
    print("\nduring the CALL burst:")
    print(f"  requests counted  = {monitor.req_cnt}")
    print(f"  IT_HIGH posted    = {engine.it_high_posts}  (boost triggered)")
    print(f"  package frequency = {server.package.frequency_hz / 1e9:.2f} GHz")
    assert engine.it_high_posts >= 1

    sim.run(until=25 * MS)  # burst over; IT_LOWs stepped F back down
    print("\nwell after the burst:")
    print(f"  IT_LOW posted     = {engine.it_low_posts}")
    print(f"  package frequency = {server.package.frequency_hz / 1e9:.2f} GHz")

    print("\nContext-awareness is the point: identical packet *rates*, "
          "opposite power decisions.")


if __name__ == "__main__":
    main()
