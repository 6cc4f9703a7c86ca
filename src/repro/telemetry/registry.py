"""Typed stats registry: hierarchical named counters, gauges, distributions.

Components declare their stats once (``telemetry.counter("nic.rx.frames")``)
and mutate the returned object on the hot path; the registry is the single
place results are assembled from (snapshot/diff/dict export).  Names are
hierarchical dotted paths — ``nic.rx.frames``, ``cpuidle.c6.entries``,
``governor.ondemand.invocations`` — so one flat dict export carries every
layer's counters without collisions.

Declaration is idempotent: asking for the same name returns the same
object, and asking for it with a *different* type is an error (two
components silently sharing a name is always a bug).
"""

from __future__ import annotations

import re
import sys
from typing import Dict, Iterator, List, Mapping, Optional, Union

StatValue = Union[int, float]

#: Dotted path of word segments: ``nic.q0.rx.frames``, ``cpuidle.c6.entries``.
_NAME_RE = re.compile(r"^\w+(\.\w+)*$")


class Counter:
    """A monotonically increasing count (events, frames, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: StatValue = 0

    def inc(self, amount: StatValue = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (last utilization, current ring depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: StatValue = 0

    def set(self, value: StatValue) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Distribution:
    """Streaming summary of observed samples (count/total/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: StatValue) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Distribution({self.name!r}, n={self.count}, mean={self.mean:.3g})"


Stat = Union[Counter, Gauge, Distribution]


class StatsRegistry:
    """Declare-once/get-always registry of named stats."""

    def __init__(self) -> None:
        self._stats: Dict[str, Stat] = {}

    # -- declaration -----------------------------------------------------

    def _declare(self, name: str, kind: type) -> Stat:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid stat name {name!r}")
        stat = self._stats.get(name)
        if stat is None:
            # Interned: every server of a fleet declares the same names,
            # and each would otherwise keep its own formatted copy.
            name = sys.intern(name)
            stat = kind(name)
            self._stats[name] = stat
        elif type(stat) is not kind:
            raise TypeError(
                f"stat {name!r} already declared as {type(stat).__name__}, "
                f"not {kind.__name__}"
            )
        return stat

    def counter(self, name: str) -> Counter:
        return self._declare(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._declare(name, Gauge)  # type: ignore[return-value]

    def distribution(self, name: str) -> Distribution:
        return self._declare(name, Distribution)  # type: ignore[return-value]

    def scope(self, prefix: str) -> "Scope":
        """A view that declares every name under ``prefix.``."""
        return Scope(self, prefix)

    # -- introspection ---------------------------------------------------

    def get(self, name: str) -> Optional[Stat]:
        return self._stats.get(name)

    def value(self, name: str, default: StatValue = 0) -> StatValue:
        """Scalar value of a counter/gauge (``default`` when undeclared)."""
        stat = self._stats.get(name)
        if stat is None:
            return default
        if isinstance(stat, Distribution):
            raise TypeError(f"stat {name!r} is a Distribution; use get()")
        return stat.value

    def names(self) -> List[str]:
        return sorted(self._stats)

    def __iter__(self) -> Iterator[Stat]:
        return iter(self._stats.values())

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, StatValue]:
        """Flat ``name -> value`` dict.  Distributions expand into
        ``<name>.count`` / ``.total`` / ``.mean`` / ``.min`` / ``.max``."""
        out: Dict[str, StatValue] = {}
        for name in sorted(self._stats):
            stat = self._stats[name]
            if isinstance(stat, Distribution):
                out[f"{name}.count"] = stat.count
                out[f"{name}.total"] = stat.total
                out[f"{name}.mean"] = stat.mean
                if stat.count:
                    out[f"{name}.min"] = stat.min  # type: ignore[assignment]
                    out[f"{name}.max"] = stat.max  # type: ignore[assignment]
            else:
                out[name] = stat.value
        return out

    def subtree(self, prefix: str) -> Dict[str, StatValue]:
        """Snapshot restricted to names under ``prefix.`` (or equal to it)."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: value
            for name, value in self.snapshot().items()
            if name == prefix or name.startswith(dotted)
        }

    @staticmethod
    def diff(
        before: Mapping[str, StatValue], after: Mapping[str, StatValue]
    ) -> Dict[str, StatValue]:
        """Per-name ``after - before`` for every numeric name in ``after``.

        Names absent from ``before`` diff against zero, so a window diff of
        two snapshots is itself a valid snapshot-shaped dict.
        """
        return {name: value - before.get(name, 0) for name, value in after.items()}


class Scope:
    """A registry view that prefixes every declared name.

    ``Scope(registry, "nic.q0").counter("rx.frames")`` declares
    ``nic.q0.rx.frames`` — components carry a scope instead of baking their
    instance name into every call site.
    """

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: StatsRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._name(name))

    def distribution(self, name: str) -> Distribution:
        return self._registry.distribution(self._name(name))
