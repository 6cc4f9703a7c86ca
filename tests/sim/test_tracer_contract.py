"""The model API the end-to-end benchmark's tracer and the profiler wrap.

``benchmarks/e2e/tracer.py`` counts link frames by wrapping
``LinkPort.send(frame)`` and ``LinkPort.send_vector(times, frames)`` with
wrappers of exactly those signatures, and runs every scheduled handler in
a span by wrapping, on the class, the ``Simulator`` methods named in its
``_SCHEDULING``.  ``SimProfiler.attach`` wraps the methods named in
``repro.profiling.profiler.SCHEDULING`` on one simulator object, never
on the class.  A changed send signature makes a traced run raise; a new
scheduling method whose handlers bypass those wrappers makes a traced
run fail its handler-count check and leaves its handlers out of a
profile.  The tracer also imports every module in its ``LAYER_MODULES``
by name and patches a few methods and one function by name, so deleting
any of them breaks a traced run.  These tests catch all of this without
running either.
"""

import ast
import importlib
import inspect
from pathlib import Path

from repro.net.link import LinkPort
from repro.profiling.profiler import SCHEDULING, SimProfiler
from repro.sim import Simulator

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"

#: Takes a handler but schedules it through ``schedule_at``.
ROUTED_THROUGH_SCHEDULING = {"call_now"}

#: ``(module, owner class or None, attribute)`` that ``install()`` patches
#: by name; a class attribute must be defined on the class itself.
PATCHED_BY_NAME = (
    ("repro.cluster.simulation", "Cluster", "__init__"),
    ("repro.cluster.sharding", "ShardedDatacenterRun", "__init__"),
    ("repro.harness", "ResultRecord", "from_result"),
    ("repro.harness", "ResultCache", "put"),
    ("repro.harness", "ResultCache", "get"),
    ("repro.cluster.sharding", None, "build_fleet_record"),
)


def tracer_constant(name):
    """Top-level constant ``name`` from the tracer's source, read without
    importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACER}")


def tracer_scheduling_names():
    return set(tracer_constant("_SCHEDULING"))


def parameter_names(fn):
    return list(inspect.signature(fn).parameters)


def test_link_port_send_signatures_match_the_tracer_wrappers():
    assert parameter_names(LinkPort.send) == ["self", "frame"]
    assert parameter_names(LinkPort.send_vector) == ["self", "times", "frames"]


def test_every_handler_taking_simulator_method_is_wrapped():
    takes_handler = {
        name
        for name, attr in vars(Simulator).items()
        if not name.startswith("_")
        and inspect.isfunction(attr)
        and "fn" in inspect.signature(attr).parameters
    }
    for wrapped in (tracer_scheduling_names(), set(SCHEDULING)):
        assert wrapped <= takes_handler
        assert takes_handler - wrapped <= ROUTED_THROUGH_SCHEDULING


def test_profiler_and_tracer_wrap_the_same_methods():
    assert set(SCHEDULING) == tracer_scheduling_names()


def test_profiler_wraps_one_simulator_not_the_class():
    names = SCHEDULING + ("run",)
    before = {name: vars(Simulator)[name] for name in names}
    sim = Simulator()
    SimProfiler().attach(sim)
    assert {name: vars(Simulator)[name] for name in names} == before
    assert set(names) <= set(vars(sim))


def test_call_now_routes_through_schedule_at():
    sim = Simulator()
    routed = []
    schedule_at = sim.schedule_at

    def spy(time, fn, *args):
        routed.append((time, fn, args))
        return schedule_at(time, fn, *args)

    sim.schedule_at = spy
    sim.call_now(print, "x")
    assert routed == [(0, print, ("x",))]


def test_every_tracer_layer_module_imports():
    for module, _layer in tracer_constant("LAYER_MODULES"):
        importlib.import_module(module)


def test_every_attribute_the_tracer_patches_exists():
    for module, owner, name in PATCHED_BY_NAME:
        target = importlib.import_module(module)
        if owner is not None:
            # Looked up as the tracer's ``from <module> import <owner>``
            # does: a package's exports enter its namespace on first use.
            target = getattr(target, owner)
        assert name in vars(target), f"{module}.{owner or ''}.{name}"
