"""Sweep execution: serial and process-pool backends.

Every cluster run is an independent deterministic simulation (its own
``Simulator`` and seeded RNG registry), so a sweep is embarrassingly
parallel: the runner fans pending points out over a
``ProcessPoolExecutor`` and reassembles results **in spec order**, so the
two backends are interchangeable — a parallel sweep returns bit-identical
records in the same order as a serial one, regardless of completion
order.

The pool machinery (``concurrent.futures`` and ``multiprocessing``) is
imported only when a pool is built, so a serial run never loads it.  A
worker that dies mid-run surfaces as a ``RuntimeError`` naming the sweep
point or item it was waiting on, chained from the pool's
``BrokenProcessPool``.

Job-count resolution: explicit ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from repro.cluster.simulation import run_experiment
from repro.harness.cache import ResultCache
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.harness.spec import RunSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit value > ``REPRO_JOBS`` > ``os.cpu_count()``; at least 1."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV}={env!r} is not an integer") from exc
    return os.cpu_count() or 1


@dataclass
class RunProgress:
    """One completed sweep point, reported through the progress hook."""

    index: int
    total: int
    spec: RunSpec
    record: ResultRecord
    cached: bool


ProgressHook = Callable[[RunProgress], None]


def execute_spec(spec: RunSpec) -> ResultRecord:
    """Run one spec to a record (the process-pool worker entry point)."""
    config = spec.to_config()
    key = config_hash(config)
    result = run_experiment(config)
    return ResultRecord.from_result(result, config_hash=key, seed=config.seed)


def pool_result(future: Future, what: str):
    """``future.result()``; a dead pool worker becomes a ``RuntimeError``
    naming ``what`` the future was running."""
    from concurrent.futures import BrokenExecutor

    try:
        return future.result()
    except BrokenExecutor as exc:
        raise RuntimeError(
            f"{what} did not complete: a pool worker died ({exc})"
        ) from exc


class Runner:
    """Executes specs serially or across a process pool, with caching."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressHook] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress

    def run(self, specs: Iterable[RunSpec]) -> List[ResultRecord]:
        """All specs' records, ordered like the input specs."""
        specs = list(specs)
        total = len(specs)
        records: List[Optional[ResultRecord]] = [None] * total

        pending: List[int] = []
        for i, spec in enumerate(specs):
            cached = None
            if self.cache is not None:
                cached = self.cache.get(config_hash(spec.to_config()))
            if cached is not None:
                cached.from_cache = True
                records[i] = cached
                self._notify(i, total, spec, cached, cached=True)
            else:
                pending.append(i)

        for i, record in zip(pending, self._execute(specs, pending)):
            if self.cache is not None:
                self.cache.put(record)
            records[i] = record
            self._notify(i, total, specs[i], record, cached=False)

        return [r for r in records if r is not None]

    def _execute(
        self, specs: Sequence[RunSpec], pending: Sequence[int]
    ) -> Iterable[ResultRecord]:
        """Records for ``pending`` indices, yielded in ``pending`` order."""
        if self.jobs <= 1 or len(pending) <= 1:
            for i in pending:
                yield execute_spec(specs[i])
            return
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            futures = [pool.submit(execute_spec, specs[i]) for i in pending]
            for i, future in zip(pending, futures):
                spec = specs[i]
                load = spec.load or f"{spec.target_rps:g}"
                yield pool_result(
                    future,
                    f"sweep point {i} ({spec.app}/{spec.policy_name}/"
                    f"{load}/{spec.seed})",
                )

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Parallel map for experiment tasks that are not plain configs.

        ``fn`` must be a module-level (picklable) callable and the items
        and results picklable values.  Results come back in item order;
        no caching is applied.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [pool_result(f, f"map item {i}") for i, f in enumerate(futures)]

    def _notify(
        self, index: int, total: int, spec: RunSpec, record: ResultRecord,
        cached: bool,
    ) -> None:
        if self.progress is not None:
            self.progress(RunProgress(index, total, spec, record, cached))


def run_sweep(
    sweep: Union[SweepSpec, Iterable[RunSpec]],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressHook] = None,
) -> List[ResultRecord]:
    """Expand (if needed) and run a sweep; records come back in spec order."""
    specs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
    return Runner(jobs=jobs, cache=cache, progress=progress).run(specs)
