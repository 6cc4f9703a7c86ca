"""Load-level presets (Section 6 of the paper).

The paper evaluates three load levels per application:

- Apache:    low = 24 K, medium = 45 K, high = 66 K RPS
  (maximum sustained ~68 K RPS; SLA = 41 ms, the 95th-percentile latency
  of the ``perf`` policy at the latency-load curve's inflexion point);
- Memcached: low = 35 K, medium = 127 K, high = 138 K RPS
  (maximum sustained ~143 K RPS; SLA = 3 ms).

Load is spread over ``n_clients`` open-loop clients, each emitting bursts:
``burst_period = n_clients * burst_size / target_rps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.units import MS


@dataclass(frozen=True)
class LoadLevel:
    """One (application, load) evaluation point."""

    app: str               # "apache" | "memcached"
    name: str              # "low" | "medium" | "high"
    target_rps: float
    sla_ns: int


#: SLAs the paper measured at the inflexion point of its latency-load
#: curves (Section 6): 41 ms for Apache, 3 ms for Memcached.
PAPER_APACHE_SLA_NS = 41 * MS
PAPER_MEMCACHED_SLA_NS = 3 * MS

#: SLAs of this reproduction, derived with the same methodology on our
#: substrate (95th-percentile latency of the ``perf`` policy at the
#: latency-load inflexion — see benchmarks/bench_fig7_latency_load.py).
#: Our Memcached knee lands at ~143 K RPS with p95 ~3 ms, matching the
#: paper; our Apache knee is at ~68 K RPS with p95 ~16-21 ms, so the
#: reproduction SLA is 18 ms (the paper's testbed measured 41 ms there).
APACHE_SLA_NS = 18 * MS
MEMCACHED_SLA_NS = 3 * MS

#: Per-client burst sizes.  The paper quotes "e.g., 200 requests per burst";
#: Memcached uses a smaller burst so that one aggregated burst drains well
#: inside its 3 ms SLA through the single-queue NIC rx path (with 200 the
#: rx SoftIRQ serialization alone would exceed the SLA at *any* load, which
#: contradicts the paper's latency-load curve).
DEFAULT_BURST_SIZE = {"apache": 200, "memcached": 75}

LOAD_LEVELS: Dict[str, Dict[str, LoadLevel]] = {
    "apache": {
        "low": LoadLevel("apache", "low", 24_000, APACHE_SLA_NS),
        "medium": LoadLevel("apache", "medium", 45_000, APACHE_SLA_NS),
        "high": LoadLevel("apache", "high", 66_000, APACHE_SLA_NS),
    },
    "memcached": {
        "low": LoadLevel("memcached", "low", 35_000, MEMCACHED_SLA_NS),
        "medium": LoadLevel("memcached", "medium", 127_000, MEMCACHED_SLA_NS),
        "high": LoadLevel("memcached", "high", 138_000, MEMCACHED_SLA_NS),
    },
}


def load_level(app: str, name: str) -> LoadLevel:
    """Look up a preset load level."""
    try:
        return LOAD_LEVELS[app][name]
    except KeyError:
        raise KeyError(f"unknown load level {app!r}/{name!r}") from None


def check_app(app: str) -> None:
    """Raise :class:`ValueError`, naming the field, unless ``app`` is one
    of the modelled applications (the keys of :data:`LOAD_LEVELS`)."""
    if app not in LOAD_LEVELS:
        raise ValueError(f"app must be one of {sorted(LOAD_LEVELS)}, got {app!r}")


def burst_period_ns(target_rps: float, n_clients: int, burst_size: int) -> int:
    """Burst period giving ``target_rps`` aggregate across the clients."""
    if target_rps <= 0:
        raise ValueError("target_rps must be positive")
    if n_clients < 1 or burst_size < 1:
        raise ValueError("n_clients and burst_size must be at least 1")
    return max(1, round(n_clients * burst_size / target_rps * 1e9))


def burst_arrival_times(now_ns: int, burst_size: int, gap_ns: int) -> List[int]:
    """Arrival timestamps for one burst: ``now + i*gap`` for each request,
    fed to the kernel's bulk ``schedule_many`` entrypoint."""
    if burst_size < 1:
        raise ValueError("burst_size must be at least 1")
    return [now_ns + i * gap_ns for i in range(burst_size)]


def generate_load_shares(profile: str, n_servers: int) -> Tuple[float, ...]:
    """Generate a normalized per-server load-share vector.

    Hand-written share tuples do not scale past a handful of servers, so
    datacenter-sized configs name a profile instead:

    - ``"uniform"`` — every server gets ``1/n``;
    - ``"zipf:<s>"`` — server ``i`` (0-based) gets weight ``1/(i+1)**s``,
      the skewed rank-frequency shape of the paper's Section 7 load
      imbalance argument (``s > 0``; larger ``s`` = more skew).

    The result always sums to 1.0 (up to float rounding) and every share
    is strictly positive.
    """
    if n_servers < 1:
        raise ValueError("n_servers must be at least 1")
    if profile == "uniform":
        weights = [1.0] * n_servers
    elif profile.startswith("zipf:"):
        try:
            s = float(profile.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad zipf exponent in load-share profile {profile!r}"
            ) from None
        if s <= 0:
            raise ValueError("zipf exponent must be positive")
        weights = [1.0 / (i + 1) ** s for i in range(n_servers)]
    else:
        raise ValueError(
            f"unknown load-share profile {profile!r}; "
            "expected 'uniform' or 'zipf:<s>'"
        )
    total = sum(weights)
    return tuple(w / total for w in weights)


def default_burst_size(app: str) -> int:
    """The per-client burst size used for ``app`` unless overridden."""
    try:
        return DEFAULT_BURST_SIZE[app]
    except KeyError:
        raise KeyError(app) from None


def sla_for(app: str) -> int:
    """The application's SLA in nanoseconds."""
    if app == "apache":
        return APACHE_SLA_NS
    if app == "memcached":
        return MEMCACHED_SLA_NS
    raise KeyError(app)
