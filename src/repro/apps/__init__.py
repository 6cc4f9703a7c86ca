"""Application substrate: OLDI server models and open-loop clients."""

import random

from repro.apps.apache import ApacheApp, ApacheProfile
from repro.apps.base import ServerApp
from repro.apps.client import (
    OpenLoopClient,
    http_request_factory,
    memcached_request_factory,
)
from repro.apps.memcached import MemcachedApp, MemcachedProfile
from repro.apps.workload import (
    APACHE_SLA_NS,
    LOAD_LEVELS,
    MEMCACHED_SLA_NS,
    LoadLevel,
    burst_period_ns,
    load_level,
    sla_for,
)
from repro.net.driver import NICDriver
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.sim.kernel import Simulator


def make_app(
    app: str,
    sim: Simulator,
    scheduler: Scheduler,
    driver: NICDriver,
    costs: NetStackCosts,
    rng: random.Random,
    name: str,
) -> ServerApp:
    """The server application called ``app`` with its default profile,
    transmitting via ``driver`` and sharing its telemetry."""
    if app == "apache":
        return ApacheApp(sim, scheduler, driver, costs, rng, name=name)
    if app == "memcached":
        return MemcachedApp(sim, scheduler, driver, costs, rng, name=name)
    raise ValueError(f"unknown app {app!r}")


__all__ = [
    "ApacheApp",
    "ApacheProfile",
    "ServerApp",
    "OpenLoopClient",
    "http_request_factory",
    "make_app",
    "memcached_request_factory",
    "MemcachedApp",
    "MemcachedProfile",
    "APACHE_SLA_NS",
    "LOAD_LEVELS",
    "MEMCACHED_SLA_NS",
    "LoadLevel",
    "burst_period_ns",
    "load_level",
    "sla_for",
]
