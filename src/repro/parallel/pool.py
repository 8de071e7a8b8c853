"""A persistent, spawn-safe multiprocessing worker pool.

``n_workers`` OS processes, each initialised **once** with the warm
catalog (rebuilt deterministically from a :class:`CatalogSpec`, so
table rows are bit-identical across processes), then fed whole
queries (:class:`~repro.parallel.tasks.QueryTask`) over a shared task
queue.  Results come back over one result queue; :meth:`gather`
demultiplexes by task id, so completions may arrive in any order.

Fault handling: a worker that dies mid-task (crash, OOM kill,
:class:`~repro.parallel.tasks.CrashTask`) is detected by liveness
polling; its in-flight tasks fail with a recorded error, a replacement
worker is spawned with the same warm init, and tasks still queued run
unaffected.  The pool itself stays usable after any number of crashes.

All timing here is *wall-clock* (`time.monotonic`): the pool exists to
buy real elapsed-time parallelism, unlike the engine's virtual clock.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import time
from typing import Dict, List, Optional

from repro.common.errors import ExecutionError
from repro.parallel.tasks import CatalogSpec
from repro.parallel.worker import _worker_main

#: Seconds between liveness sweeps while waiting on the result queue.
POLL_SECONDS = 0.1

#: Seconds to wait for all workers' ready acks at startup.
READY_TIMEOUT = 120.0


class TaskResult:
    """Terminal state of one submitted task."""

    __slots__ = ("task_id", "ok", "payload", "error")

    def __init__(self, task_id: int):
        self.task_id = task_id
        self.ok = False
        #: The worker's ``done`` payload dict (None until finished).
        self.payload = None
        #: Human-readable failure description (worker traceback or a
        #: dead-worker notice); None on success.
        self.error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.ok or self.error is not None


class _WorkerHandle:
    __slots__ = ("index", "process", "ready", "busy_since", "busy_seconds",
                 "current_task")

    def __init__(self, index: int, process):
        self.index = index
        self.process = process
        self.ready = False
        self.busy_since: Optional[float] = None
        self.busy_seconds = 0.0
        self.current_task: Optional[int] = None


class WorkerPool:
    """``n_workers`` warm processes executing picklable task specs.

    Parameters
    ----------
    n_workers:
        Pool size: how many queries run at once.
    catalog_spec:
        Warm-init spec each worker resolves at startup.  None starts
        cold workers that resolve specs per task.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the pool
        maintains ``pool.workers``/``pool.queue_depth`` gauges,
        dispatch/complete/fail/respawn counters and per-worker busy
        fractions under it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; task dispatch and
        completion are recorded as instants.
    """

    def __init__(
        self,
        n_workers: int,
        catalog_spec: Optional[CatalogSpec] = None,
        registry=None,
        tracer=None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1; got %r" % n_workers)
        self.n_workers = n_workers
        self.catalog_spec = catalog_spec
        self.registry = registry
        self.tracer = tracer
        self._mp = multiprocessing.get_context("spawn")
        self._task_q = self._mp.Queue()
        self._result_q = self._mp.Queue()
        #: The warm-init payload travels on its own queue, one ``put``
        #: per spawn, not in the ``Process`` args: spawn writes the
        #: args down a pipe whose read end it holds open until the
        #: write ends, so a child that dies first (an unguarded
        #: ``__main__``) would block a payload over the pipe buffer
        #: forever, before the dead-worker check could run.
        self._init_q = self._mp.Queue()
        self._init_q.cancel_join_thread()
        self._init_bytes = pickle.dumps(catalog_spec)
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_task_id = 0
        self._inflight: Dict[int, TaskResult] = {}
        self._started_at = time.monotonic()
        self._closed = False
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the workers and block until every warm init acks."""
        if self._started:
            return self
        self._started = True
        for index in range(self.n_workers):
            self._spawn(index)
        deadline = time.monotonic() + READY_TIMEOUT
        while any(not h.ready for h in self._workers.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ExecutionError(
                    "worker pool start timed out after %.0fs" % READY_TIMEOUT
                )
            try:
                message = self._result_q.get(timeout=min(remaining, POLL_SECONDS))
            except queue_mod.Empty:
                dead = [
                    h.index for h in self._workers.values()
                    if not h.ready and not h.process.is_alive()
                ]
                if dead:
                    self.close()
                    raise ExecutionError(
                        "worker(s) %s died during warm init (spawn "
                        "start-method requires an importable __main__)"
                        % dead
                    )
                continue
            self._handle_message(message)
        self._set_gauges()
        return self

    def _spawn(self, index: int) -> None:
        self._init_q.put(self._init_bytes)
        process = self._mp.Process(
            target=_worker_main,
            args=(index, self._init_q, self._task_q, self._result_q),
            daemon=True,
            name="repro-worker-%d" % index,
        )
        process.start()
        self._workers[index] = _WorkerHandle(index, process)

    def close(self) -> None:
        """Shut the pool down: sentinel every worker, join, reap."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    self._task_q.put(None)
                except (OSError, ValueError):
                    break
        for handle in self._workers.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        self._task_q.close()
        self._result_q.close()
        self._init_q.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission / gathering ----------------------------------------

    def submit(self, task) -> int:
        """Enqueue ``task``; returns its id for :meth:`gather`.

        The task is pickled here, once, and travels as bytes: a
        multiprocessing queue pickles in a background feeder thread,
        where an unpicklable task would surface as a silent hang
        instead of an error.  A task that cannot pickle raises
        :class:`ExecutionError` with nothing enqueued or counted.
        """
        if self._closed:
            raise ExecutionError("worker pool is closed")
        if not self._started:
            self.start()
        try:
            task_bytes = pickle.dumps(task)
        except Exception as exc:
            raise ExecutionError(
                "%s is not picklable: %r" % (type(task).__name__, exc)
            ) from exc
        task_id = self._next_task_id
        self._next_task_id += 1
        self._inflight[task_id] = TaskResult(task_id)
        self._task_q.put((task_id, task_bytes))
        if self.registry is not None:
            self.registry.counter("pool.tasks_dispatched").inc()
        if self.tracer is not None:
            self.tracer.instant_now(
                "pool.dispatch", "pool",
                {"task": task_id, "kind": type(task).__name__},
            )
        self._set_gauges()
        return task_id

    def gather(
        self, task_ids: List[int], timeout: Optional[float] = None
    ) -> List[TaskResult]:
        """Block until every task in ``task_ids`` is terminal; returns
        their :class:`TaskResult`\\ s in argument order.

        Worker exceptions and deaths surface as ``result.error`` — the
        call itself only raises on pool-level failures (init failure,
        overall ``timeout`` exceeded).
        """
        wanted = [self._inflight[task_id] for task_id in task_ids]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not all(result.finished for result in wanted):
            try:
                message = self._result_q.get(timeout=POLL_SECONDS)
            except queue_mod.Empty:
                self._sweep_dead_workers()
                if deadline is not None and time.monotonic() > deadline:
                    raise ExecutionError(
                        "worker pool gather timed out after %.1fs" % timeout
                    )
                continue
            self._handle_message(message)
        for result in wanted:
            self._inflight.pop(result.task_id, None)
        self._set_gauges()
        return wanted

    # -- message handling ----------------------------------------------

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "ready":
            handle = self._workers.get(message[1])
            if handle is not None:
                handle.ready = True
            return
        if kind == "init_error":
            _, index, tb = message
            raise ExecutionError(
                "worker %d failed to initialise:\n%s" % (index, tb)
            )
        if kind == "start":
            _, task_id, index = message
            handle = self._workers.get(index)
            if handle is not None:
                handle.current_task = task_id
                handle.busy_since = time.monotonic()
            return
        if kind == "done":
            _, task_id, index, payload = message
            self._worker_idle(index)
            result = self._inflight.get(task_id)
            if result is not None:
                result.ok = True
                result.payload = payload
            if self.registry is not None:
                self.registry.counter("pool.tasks_completed").inc()
            if self.tracer is not None:
                self.tracer.instant_now(
                    "pool.complete", "pool",
                    {"task": task_id, "worker": index},
                )
            return
        if kind == "error":
            _, task_id, index, tb = message
            self._worker_idle(index)
            self._fail_task(task_id, "worker %d raised:\n%s" % (index, tb))
            return
        raise ExecutionError("unknown pool message %r" % (message,))

    def _worker_idle(self, index: int) -> None:
        handle = self._workers.get(index)
        if handle is None:
            return
        if handle.busy_since is not None:
            handle.busy_seconds += time.monotonic() - handle.busy_since
        handle.busy_since = None
        handle.current_task = None

    def _fail_task(self, task_id: int, error: str) -> None:
        result = self._inflight.get(task_id)
        if result is not None and not result.finished:
            result.error = error
        if self.registry is not None:
            self.registry.counter("pool.tasks_failed").inc()

    def _sweep_dead_workers(self) -> None:
        """Fail tasks owned by dead workers and spawn replacements."""
        for index, handle in list(self._workers.items()):
            if handle.process.is_alive():
                continue
            dead_task = handle.current_task
            exitcode = handle.process.exitcode
            self._worker_idle(index)
            if dead_task is not None:
                self._fail_task(
                    dead_task,
                    "worker %d died (exit code %r) while running task %d"
                    % (index, exitcode, dead_task),
                )
            self._spawn(index)
            if self.registry is not None:
                self.registry.counter("pool.workers_respawned").inc()
        self._set_gauges()

    # -- observability -------------------------------------------------

    def _set_gauges(self) -> None:
        if self.registry is None:
            return
        alive = sum(
            1 for h in self._workers.values() if h.process.is_alive()
        )
        self.registry.gauge("pool.workers").set(alive)
        self.registry.gauge("pool.queue_depth").set(
            sum(1 for r in self._inflight.values() if not r.finished)
        )

    def busy_fractions(self) -> Dict[int, float]:
        """Fraction of each worker's pool lifetime spent running tasks."""
        now = time.monotonic()
        lifetime = max(now - self._started_at, 1e-9)
        out: Dict[int, float] = {}
        for index, handle in self._workers.items():
            busy = handle.busy_seconds
            if handle.busy_since is not None:
                busy += now - handle.busy_since
            out[index] = min(busy / lifetime, 1.0)
        return out

    def record_busy_fractions(self) -> None:
        """Publish per-worker busy fractions as registry gauges."""
        if self.registry is None:
            return
        for index, fraction in sorted(self.busy_fractions().items()):
            self.registry.gauge("pool.worker.%d.busy_fraction" % index).set(
                fraction
            )
