"""Pluggable executor backends for the fault-tolerant fan-out.

:func:`repro.faults.executor.run_fanout` schedules *attempts*; where
those attempts execute is this module's concern.  An
:class:`ExecutorBackend` owns the worker resources and exposes them
through a small protocol:

``submit``
    start one attempt, returning a :class:`~concurrent.futures.Future`
    (possibly already completed, for in-process backends);
``recover``
    tear down and rebuild the broken workers.  Each backend is one
    **fault domain**: when its pool breaks or is killed to reclaim a
    hung task, every attempt in flight is affected.

Two implementations:

* :class:`SerialBackend` -- in-process, one attempt at a time.  Crash
  faults raise :class:`~repro.faults.injector.InjectedCrash` instead of
  killing the process (see :func:`~repro.faults.injector.inline_execution`),
  so retry schedules replay identically to the pooled backend.
* :class:`ProcessPoolBackend` -- one ``ProcessPoolExecutor``: a worker
  crash requeues everything in flight.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Tuple, Union

from repro.faults.injector import inline_execution


class BackendBrokenError(RuntimeError):
    """``submit`` found the backend's workers already broken.

    The scheduler reacts exactly as if an in-flight future had raised
    ``BrokenProcessPool``: requeue the unsubmitted task (no retry
    charged -- it never ran), drain everything in flight, and call
    :meth:`ExecutorBackend.recover`.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"executor backend is broken: {cause!r}")
        self.cause = cause


class ExecutorBackend(abc.ABC):
    """Where fan-out attempts execute; one fault domain."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum attempts in flight; the scheduler never exceeds it."""

    @abc.abstractmethod
    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        """Start one attempt; raise :class:`BackendBrokenError` if the
        workers are already broken."""

    @abc.abstractmethod
    def recover(self) -> None:
        """Tear down and rebuild the workers after a failure."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release every worker resource; the backend is done."""


class SerialBackend(ExecutorBackend):
    """In-process execution: ``submit`` runs the attempt synchronously.

    The returned future is already resolved.  There is no worker
    process to lose, so it never breaks and ``recover`` is unreachable;
    injected crash faults surface as
    :class:`~repro.faults.injector.InjectedCrash` exceptions and flow
    through the ordinary retry path.
    """

    name = "serial"

    @property
    def capacity(self) -> int:
        return 1

    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            with inline_execution():
                value = fn(*args)
        except Exception as error:
            future.set_exception(error)
        else:
            future.set_result(value)
        return future

    def recover(self) -> None:
        raise AssertionError("the in-process serial backend cannot break")

    def shutdown(self) -> None:
        pass


class ProcessPoolBackend(ExecutorBackend):
    """One local ``ProcessPoolExecutor``."""

    name = "process-pool"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs)

    @property
    def capacity(self) -> int:
        return self.jobs

    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool as error:
            raise BackendBrokenError(error) from error

    def recover(self) -> None:
        self._pool = _rebuild_pool(self._pool, self.jobs)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def _rebuild_pool(
    pool: ProcessPoolExecutor, jobs: int
) -> ProcessPoolExecutor:
    """Terminate a (possibly hung or broken) pool and start a fresh one.

    Stragglers are terminated first: ``shutdown()`` alone would block on
    a worker stuck in a hung task.  ``_processes`` is stdlib-private but
    stable across 3.8+; absent (``None``) after a broken shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    return ProcessPoolExecutor(max_workers=jobs)


BACKEND_NAMES = ("serial", "process-pool")
"""Accepted ``make_backend`` spec strings (alias: pool)."""


def make_backend(
    spec: Union[None, str, ExecutorBackend], jobs: int
) -> ExecutorBackend:
    """Resolve a backend spec to a live :class:`ExecutorBackend`.

    ``None`` keeps the historical behaviour (one local process pool of
    ``jobs`` workers).  A string picks a named backend; an instance is
    returned as-is (the caller-built backend is still shut down by
    ``run_fanout``, which owns whatever it schedules on).
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None or spec in ("process-pool", "pool"):
        return ProcessPoolBackend(jobs)
    if spec == "serial":
        return SerialBackend()
    raise ValueError(
        f"unknown executor backend {spec!r}; expected one of {BACKEND_NAMES}"
    )
