"""Outside-in per-layer tracer for the end-to-end benchmark.

Everything here is installed from the benchmark's own files, in a fresh
worker process, before the model is built; nothing under ``src/`` knows
about it.  Two kinds of wrapper open spans:

- The simulator's public scheduling API (``schedule``, ``schedule_at``,
  ``schedule_many``, ``schedule_batch``) swaps each handler for a small
  trampoline that runs it inside a span of the handler's layer.
- Every public method (plus ``__init__`` and ``__call__``) of every
  class defined in a layer module opens a span of that class's layer,
  but only when the caller's layer differs.  That splits cascades such
  as core -> app -> NIC without paying for calls inside one layer.

A layer is found from a function's ``__module__`` through
:data:`LAYER_MODULES`, never from a method name, so renamed or deleted
handlers cannot break the trace.

Every span boundary reads the clock once and charges the interval since
the previous boundary to the layer on top of the stack.  Self times are
therefore a span's duration minus its children, and they telescope
exactly to the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: Module prefix -> layer, longest prefix wins.  ``None`` leaves a module
#: out of every layer: its calls are charged to whichever layer called.
#: Two modules are out because every run uses them, observed or not: the
#: stats registry (counters are each component's own bookkeeping) and the
#: streaming sketch (latency percentiles of every result are computed
#: with it).  Charging them to telemetry would make the disabled observer
#: path look expensive.
LAYER_MODULES = (
    ("repro.sim.kernel", "sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.switch", "net.link"),
    ("repro.net.nic", "net.nic"),
    ("repro.net.interrupts", "net.nic"),
    ("repro.net.multiqueue", "net.nic"),
    ("repro.net.driver", "net.driver"),
    ("repro.oskernel.irq", "net.driver"),
    ("repro.oskernel.netstack", "net.driver"),
    ("repro.core", "core"),
    ("repro.oskernel.cpufreq", "oskernel.gov"),
    ("repro.oskernel.cpuidle", "oskernel.gov"),
    ("repro.oskernel.timers", "oskernel.gov"),
    ("repro.cpu", "cpu"),
    ("repro.oskernel.scheduler", "cpu"),
    ("repro.apps", "apps"),
    ("repro.cluster.node", "apps"),
    ("repro.telemetry", "telemetry"),
    ("repro.telemetry.registry", None),
    ("repro.analysis", "telemetry"),
    ("repro.analysis.sketch", None),
    ("repro.cluster.recording", "telemetry"),
    ("repro.cluster.sharding", "cluster"),
    ("repro.cluster.frontend", "cluster"),
    ("repro.cluster.datacenter", "cluster"),
    ("repro.cluster.simulation", "cluster"),
    ("repro.harness", "harness"),
)

#: Layer names in report order.
LAYERS = (
    "sim", "net.link", "net.nic", "net.driver", "core", "oskernel.gov",
    "cpu", "apps", "telemetry", "cluster", "harness",
)

#: Handlers whose module is in no layer (builtins, numpy, unmapped
#: helpers) are charged here; its share is ``trace.unattributed_share``.
UNATTRIBUTED = "unattributed"

_SCHEDULING = ("schedule", "schedule_at", "schedule_many", "schedule_batch")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer of a dotted module name, or None when it has none."""
    best, best_len = None, -1
    for prefix, layer in LAYER_MODULES:
        if (module == prefix or (module or "").startswith(prefix + ".")) and len(
            prefix
        ) > best_len:
            best, best_len = layer, len(prefix)
    return best


class Tracer:
    """Span stack plus exclusive-time and count accumulators."""

    def __init__(self) -> None:
        names = LAYERS + (UNATTRIBUTED,)
        self.stack: List[str] = []
        self.mark = 0
        self.self_ns: Dict[str, int] = dict.fromkeys(names, 0)
        #: Spans opened per layer (handler spans included).
        self.spans: Dict[str, int] = dict.fromkeys(names, 0)
        #: Scheduled handler invocations per layer.
        self.handlers: Dict[str, int] = dict.fromkeys(names, 0)
        #: Inclusive time of the calls the benchmark times by name.
        self.timed_ns: Dict[str, int] = {
            "record": 0, "cache_write": 0, "cache_read": 0, "build": 0,
        }
        #: Frames handed to a link (one per frame per hop).
        self.link_frames = 0
        #: Summed duration of the root spans: the traced total.
        self.root_ns = 0
        self._root_start = 0
        self._module_layers: Dict[Optional[str], str] = {}

        def trampoline(layer: str, fn: Callable, *args) -> None:
            self.handlers[layer] += 1
            self.enter(layer)
            try:
                fn(*args)
            finally:
                self.exit()

        #: Runs a scheduled handler in a span of its layer.  Scheduling
        #: passes it the layer and the real handler as its first two
        #: arguments, so events keep plain ``(fn, args)``.
        self.trampoline = trampoline

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        now = perf_counter_ns()
        stack = self.stack
        if stack:
            self.self_ns[stack[-1]] += now - self.mark
        else:
            self._root_start = now
        stack.append(layer)
        self.spans[layer] += 1
        self.mark = now

    def exit(self) -> None:
        now = perf_counter_ns()
        stack = self.stack
        self.self_ns[stack.pop()] += now - self.mark
        self.mark = now
        if not stack:
            self.root_ns += now - self._root_start

    def root(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (for module functions,
        which the class wrappers cannot reach)."""
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def handler_layer(self, fn: Callable) -> str:
        module = getattr(getattr(fn, "func", fn), "__module__", None)
        layer = self._module_layers.get(module)
        if layer is None:
            layer = layer_of_module(module) or UNATTRIBUTED
            self._module_layers[module] = layer
        return layer


def _noop() -> None:
    pass


def handler_cost_ns(n: int = 20000) -> float:
    """Clock time one empty handler span charges to its parent.

    The sim layer's self time is corrected by this much per handler span,
    so the event loop is not blamed for the tracer's own bookkeeping.
    """
    probe = Tracer()
    probe.enter("sim")
    for _ in range(n):
        probe.trampoline("cpu", _noop)
    charged = probe.self_ns["sim"]
    probe.exit()
    return charged / n


def _span_method(tracer: Tracer, fn: Callable, layer: str) -> Callable:
    """Wrap ``fn`` so a call from another layer opens a ``layer`` span."""

    def wrapper(*args, **kwargs):
        stack = tracer.stack
        if stack and stack[-1] == layer:
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return functools.update_wrapper(wrapper, fn)


def _timed(tracer: Tracer, fn: Callable, key: str) -> Callable:
    """Add ``fn``'s inclusive time to ``tracer.timed_ns[key]``."""

    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.timed_ns[key] += perf_counter_ns() - start

    return functools.update_wrapper(wrapper, fn)


def _rewrap(attr, wrap: Callable[[Callable], Callable]):
    """Apply ``wrap`` to a plain, class or static method; else None."""
    if isinstance(attr, types.FunctionType):
        return wrap(attr)
    if isinstance(attr, (classmethod, staticmethod)):
        return type(attr)(wrap(attr.__func__))
    return None


def _layer_modules() -> List[types.ModuleType]:
    """Import every module under the layer prefixes and return them."""
    modules = []
    for prefix, _ in LAYER_MODULES:
        module = importlib.import_module(prefix)
        modules.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.walk_packages(module.__path__, prefix + "."):
                modules.append(importlib.import_module(info.name))
    unique = {m.__name__: m for m in modules}
    return [unique[name] for name in sorted(unique)]


def install() -> Tracer:
    """Instrument the model's layer classes in this process.

    Must run before the model is built: objects created earlier keep
    unwrapped bound methods and handlers.  There is no uninstall; the
    benchmark traces in a worker process that exits afterwards.
    """
    import repro.cluster.sharding as sharding
    from repro.cluster.simulation import Cluster
    from repro.harness import ResultCache, ResultRecord
    from repro.net.link import LinkPort
    from repro.sim.kernel import Simulator

    tracer = Tracer()

    for module in _layer_modules():
        layer = layer_of_module(module.__name__)
        if layer is None:
            continue
        for cls in list(vars(module).values()):
            if (
                not isinstance(cls, type)
                or cls.__module__ != module.__name__
                or getattr(cls, "_is_protocol", False)  # typing stubs
            ):
                continue
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in ("__init__", "__call__"):
                    continue
                wrapped = _rewrap(
                    attr, lambda fn, layer=layer: _span_method(tracer, fn, layer)
                )
                if wrapped is not None:
                    setattr(cls, name, wrapped)

    trampoline = tracer.trampoline

    def wrap_scheduling(method: Callable, fn_index: int) -> Callable:
        def schedule(self, *args):
            fn = args[fn_index]
            if fn is trampoline:  # re-armed events are already wrapped
                return method(self, *args)
            head = args[:fn_index]
            rest = args[fn_index + 1:]
            return method(
                self, *head, trampoline, tracer.handler_layer(fn), fn, *rest
            )

        return functools.update_wrapper(schedule, method)

    for name in _SCHEDULING:
        fn_index = 2 if name == "schedule_batch" else 1
        setattr(Simulator, name, wrap_scheduling(getattr(Simulator, name), fn_index))

    # Link frames are counted at the link layer's public transmit API.
    send, send_vector = LinkPort.send, LinkPort.send_vector

    def count_send(self, frame):
        tracer.link_frames += 1
        return send(self, frame)

    def count_send_vector(self, times, frames):
        tracer.link_frames += len(frames)
        return send_vector(self, times, frames)

    LinkPort.send = functools.update_wrapper(count_send, send)
    LinkPort.send_vector = functools.update_wrapper(count_send_vector, send_vector)

    for owner, name, key in (
        (ResultRecord, "from_result", "record"),
        (ResultCache, "put", "cache_write"),
        (ResultCache, "get", "cache_read"),
        (Cluster, "__init__", "build"),
        (sharding.ShardedDatacenterRun, "__init__", "build"),
    ):
        setattr(
            owner, name,
            _rewrap(vars(owner)[name], lambda fn, key=key: _timed(tracer, fn, key)),
        )
    # Called by global name inside its own module, so patching it there
    # reaches the fleet merge.
    sharding.build_fleet_record = _timed(tracer, sharding.build_fleet_record, "record")
    return tracer


__all__ = [
    "LAYERS", "LAYER_MODULES", "Tracer", "UNATTRIBUTED",
    "handler_cost_ns", "install", "layer_of_module",
]
