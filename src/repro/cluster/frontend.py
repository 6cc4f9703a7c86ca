"""The frontend / load-balancer tier of a sharded datacenter run.

CARGO's observation (PAPERS.md) is that cluster-level power management
depends on *how load reaches the servers*, not just on what each server
does with it — so the spray tier is modelled as a first-class part of the
experiment.  An open-loop population of ``n_users`` users issues request
bursts at the fleet's aggregate rate; each request is assigned to a
server by a pluggable spray policy and dispatched after a fixed
frontend→server latency ``dispatch_latency_ns``.

That latency is also the conservative-lookahead window of the sharded
coordinator (:mod:`repro.cluster.sharding`): spray decisions for window
``n`` are taken before window ``n`` starts executing, using the
per-server load view observed at the previous window boundary.  Because
every dispatch leaves the frontend at ``decision + dispatch_latency``,
the view a decision uses is always strictly older than the send it
produces — exactly the (at least one RTT of) staleness a real
load-balancer tier operates under — and, crucially, the plan is a pure
function of the config seed: it is identical no matter how many shards
execute it, which is what makes sharded runs bit-identical to
single-process runs.

Spray policies:

- ``consistent-hash`` — static ring with virtual nodes keyed by a stable
  hash (CRC-32; Python's randomized ``hash()`` would break determinism);
  session affinity, load follows the ring share.
- ``least-loaded`` — pick the server with the lowest estimated
  outstanding count (O(n_servers) per request).
- ``po2`` — power-of-two-choices: sample two distinct servers, pick the
  less loaded (O(1) per request, near-optimal balance).

The load estimate for server ``s`` is ``view[s]`` (outstanding requests
at the last window boundary) plus every dispatch this frontend has since
decided whose send time the view cannot have seen yet.
"""

from __future__ import annotations

import itertools
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.client import RequestLedger
from repro.apps.workload import burst_arrival_times, burst_period_ns
from repro.net.packet import Frame, make_http_request, make_memcached_request
from repro.sim.rng import RngRegistry
from repro.sim.units import MS

SPRAY_POLICIES = ("consistent-hash", "least-loaded", "po2")


@dataclass(frozen=True)
class FrontendConfig:
    """Configuration of the frontend tier (hashes into the config hash)."""

    #: Size of the open-loop user population requests are drawn from.
    n_users: int = 100_000
    #: Spray policy name (see :data:`SPRAY_POLICIES`).
    spray: str = "po2"
    #: Requests per frontend burst (the fleet-aggregate burst).
    burst_size: int = 200
    #: Spacing of request decisions inside one burst.
    intra_burst_gap_ns: int = 1_000
    #: Frontend→server dispatch latency.  Doubles as the conservative
    #: lookahead window of the sharded coordinator.
    dispatch_latency_ns: int = 1 * MS
    #: Virtual nodes per server on the consistent-hash ring.
    hash_replicas: int = 64
    #: Memcached key space sprayed over (ignored for HTTP workloads).
    keyspace: int = 100_000

    def __post_init__(self) -> None:
        if self.spray not in SPRAY_POLICIES:
            raise ValueError(
                f"unknown spray policy {self.spray!r}; "
                f"choose from {SPRAY_POLICIES}"
            )
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if self.burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if self.intra_burst_gap_ns < 0:
            raise ValueError("intra_burst_gap_ns must be non-negative")
        if self.dispatch_latency_ns < 1:
            raise ValueError("dispatch_latency_ns must be positive")
        if self.hash_replicas < 1:
            raise ValueError("hash_replicas must be at least 1")


def _stable_hash(key: str) -> int:
    """Process-stable 32-bit hash (``hash()`` is salted per process)."""
    return zlib.crc32(key.encode("ascii"))


class ConsistentHashSpray:
    """Static ring with virtual nodes; user identity picks the server."""

    def __init__(self, n_servers: int, rng: random.Random, replicas: int):
        points: List[Tuple[int, int]] = []
        for server in range(n_servers):
            for replica in range(replicas):
                points.append((_stable_hash(f"s{server}:r{replica}"), server))
        points.sort()
        self._points = [p for p, _ in points]
        self._servers = [s for _, s in points]

    def choose(self, user: int, est: Sequence[int]) -> int:
        h = _stable_hash(f"u{user}")
        i = bisect_right(self._points, h)
        if i == len(self._points):  # wrap around the ring
            i = 0
        return self._servers[i]


class LeastLoadedSpray:
    """Global minimum of the estimated outstanding counts."""

    def __init__(self, n_servers: int, rng: random.Random, replicas: int):
        self._n = n_servers

    def choose(self, user: int, est: Sequence[int]) -> int:
        return min(range(self._n), key=lambda s: (est[s], s))

class PowerOfTwoSpray:
    """Two uniform candidates, pick the less loaded (ties: lower index)."""

    def __init__(self, n_servers: int, rng: random.Random, replicas: int):
        self._n = n_servers
        self._rng = rng

    def choose(self, user: int, est: Sequence[int]) -> int:
        if self._n == 1:
            return 0
        a = self._rng.randrange(self._n)
        b = self._rng.randrange(self._n - 1)
        if b >= a:
            b += 1
        if (est[b], b) < (est[a], a):
            return b
        return a


_SPRAY_CLASSES = {
    "consistent-hash": ConsistentHashSpray,
    "least-loaded": LeastLoadedSpray,
    "po2": PowerOfTwoSpray,
}


def make_spray(name: str, n_servers: int, rng: random.Random, replicas: int):
    try:
        cls = _SPRAY_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown spray policy {name!r}; choose from {SPRAY_POLICIES}"
        ) from None
    return cls(n_servers, rng, replicas)


class Dispatch(NamedTuple):
    """One planned frontend→server request."""

    send_ns: int
    server_index: int
    frame: Frame


class FrontendPlanner:
    """Coordinator-side request planner for the frontend tier.

    Runs entirely outside the shard simulators: given the config seed it
    produces the same dispatch sequence regardless of shard count or
    worker placement.  ``plan_until(t)`` emits every burst whose first
    decision falls at or before ``t``; all resulting sends are at least
    ``dispatch_latency_ns`` in the future, which is what lets the sharded
    coordinator treat them as safely inside *later* windows.
    """

    def __init__(
        self,
        frontend: FrontendConfig,
        *,
        n_servers: int,
        total_rps: float,
        app: str,
        warmup_ns: int,
        measure_ns: int,
        seed: int,
        sample_every: Optional[int] = None,
    ):
        self.config = frontend
        self.n_servers = n_servers
        self.app = app
        self._period_ns = burst_period_ns(total_rps, 1, frontend.burst_size)
        self._dispatch_ns = frontend.dispatch_latency_ns
        self._warmup_ns = warmup_ns
        self._measure_ns = measure_ns
        #: No sends at or after traffic end (mirrors clients stopping at
        #: the end of the measurement window).
        self._traffic_end_ns = warmup_ns + measure_ns
        rng = RngRegistry(seed)
        self._users = rng.stream("frontend.users")
        self._keys = rng.stream("frontend.keys")
        self._spray = make_spray(
            frontend.spray, n_servers, rng.stream("frontend.spray"),
            frontend.hash_replicas,
        )
        self._req_ids = itertools.count(1)
        self._next_burst_ns = 0
        # Load-estimate state: the boundary view plus dispatch counts the
        # view cannot have seen, bucketed by the window their send lands
        # in (window k = (k*W, (k+1)*W] with W = dispatch_latency_ns).
        self._view = [0] * n_servers
        self._unseen: Dict[int, List[int]] = {}
        self._est = [0] * n_servers
        #: Total dispatches per server, and dispatches whose send time is
        #: inside the measurement window (for per-server reporting).
        self.dispatched = [0] * n_servers
        self.dispatched_in_measure = [0] * n_servers
        # Request tracing (observer-side, never in the config hash): stamp
        # deterministically-sampled dispatches with their spray decision.
        # Sampling uses the pure hash rule shared with the shard-side
        # collectors, so it consumes no RNG stream and the plan is
        # unchanged whether tracing is on or off.
        self._sample_every = sample_every
        self._is_sampled = None
        if sample_every is not None:
            from repro.telemetry.tracing import is_sampled

            self._is_sampled = is_sampled
        #: Stamped samples: (src, req_id, user, server, decision_ns, send_ns).
        self.trace_samples: List[Tuple[str, int, int, int, int, int]] = []

    # -- load view -------------------------------------------------------

    def observe(self, boundary_ns: int, outstanding: Sequence[int]) -> None:
        """Install the per-server outstanding counts at a window boundary.

        Dispatches with ``send_ns <= boundary_ns`` are now visible in the
        view, so their unseen-buckets are dropped.
        """
        self._view = list(outstanding)
        window = self._dispatch_ns
        for key in [k for k in self._unseen if (k + 1) * window <= boundary_ns]:
            del self._unseen[key]
        est = list(self._view)
        for counts in self._unseen.values():
            for s, c in enumerate(counts):
                est[s] += c
        self._est = est

    # -- planning --------------------------------------------------------

    def plan_until(self, until_ns: int) -> List[Dispatch]:
        """Plan every burst whose first decision is at or before ``until_ns``."""
        out: List[Dispatch] = []
        cfg = self.config
        while self._next_burst_ns <= until_ns:
            burst_start = self._next_burst_ns
            self._next_burst_ns += self._period_ns
            if burst_start + self._dispatch_ns >= self._traffic_end_ns:
                continue  # the whole burst would land after traffic end
            times = burst_arrival_times(
                burst_start, cfg.burst_size, cfg.intra_burst_gap_ns
            )
            for decision_ns in times:
                send_ns = decision_ns + self._dispatch_ns
                if send_ns >= self._traffic_end_ns:
                    break
                user = self._users.randrange(cfg.n_users)
                server = self._spray.choose(user, self._est)
                self._est[server] += 1
                bucket = self._unseen.setdefault(
                    (send_ns - 1) // self._dispatch_ns, [0] * self.n_servers
                )
                bucket[server] += 1
                self.dispatched[server] += 1
                if self._warmup_ns <= send_ns < self._warmup_ns + self._measure_ns:
                    self.dispatched_in_measure[server] += 1
                frame = self._make_frame(server, user, send_ns)
                if self._is_sampled is not None and self._is_sampled(
                    frame.src, frame.req_id, self._sample_every
                ):
                    self.trace_samples.append(
                        (frame.src, frame.req_id, user, server,
                         decision_ns, send_ns)
                    )
                out.append(Dispatch(send_ns, server, frame))
        return out

    def _make_frame(self, server: int, user: int, send_ns: int) -> Frame:
        src = f"frontend{server}"
        dst = f"server{server}"
        req_id = next(self._req_ids)
        if self.app == "memcached":
            key = f"key:{self._keys.randrange(self.config.keyspace)}"
            return make_memcached_request(
                src, dst, command="get", key=key,
                req_id=req_id, created_ns=send_ns,
            )
        return make_http_request(src, dst, req_id=req_id, created_ns=send_ns)

    @property
    def done(self) -> bool:
        """True once every traffic burst has been planned."""
        return self._next_burst_ns + self._dispatch_ns >= self._traffic_end_ns


class FrontendPort(RequestLedger):
    """Shard-local network endpoint of the frontend for ONE server.

    The sending half of the tier: it injects the coordinator's planned
    dispatches into the shard simulator (one vectorized send per window)
    and records RTTs of the responses the server routes back, with the
    same ledger as :class:`~repro.apps.client.OpenLoopClient`; its
    ``outstanding`` count is the boundary load report.
    """

    def inject(self, dispatches: Sequence[Tuple[int, Frame]]) -> None:
        """Inject planned ``(send_ns, frame)`` pairs (non-decreasing times).

        All sends must fall inside the window about to execute, i.e. they
        complete before the shard's next boundary report.  The sends are
        booked up front and the whole vector goes to the link at once.
        """
        assert self._port is not None, "frontend port not attached"
        times: List[int] = []
        frames: List[Frame] = []
        for send_ns, frame in dispatches:
            self.sent[frame.req_id] = send_ns
            self.requests_sent += 1
            times.append(send_ns)
            frames.append(frame)
        self._port.send_vector(times, frames)


__all__ = [
    "ConsistentHashSpray",
    "Dispatch",
    "FrontendConfig",
    "FrontendPlanner",
    "FrontendPort",
    "LeastLoadedSpray",
    "PowerOfTwoSpray",
    "SPRAY_POLICIES",
    "make_spray",
]
