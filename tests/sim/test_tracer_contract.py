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
profile.  These tests catch both without running either.
"""

import ast
import inspect
from pathlib import Path

from repro.net.link import LinkPort
from repro.profiling.profiler import SCHEDULING, SimProfiler
from repro.sim import Simulator

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"

#: Takes a handler but schedules it through ``schedule_at``.
ROUTED_THROUGH_SCHEDULING = {"call_now"}


def tracer_scheduling_names():
    """``_SCHEDULING`` from the tracer's source, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SCHEDULING" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"no _SCHEDULING in {TRACER}")


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
