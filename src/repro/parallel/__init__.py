"""Real wall-clock parallelism: whole service queries on worker processes.

Everything else in the engine runs on one deterministic *virtual*
clock inside one process; this package runs whole admitted queries on
a persistent ``multiprocessing`` worker pool, one query per worker
(``QueryService(parallel=N)``, ``--parallel`` on ``workload`` and
``serve``).  A partitioned scan is never split across processes: its
partitions stream on the serial engine's one clock, and a selective
filter over it belongs at the source (``push_predicates``).

* :mod:`repro.parallel.pool` — the spawn-safe pool of warm workers;
* :mod:`repro.parallel.tasks` — picklable task specs (the wire format:
  a logical plan in, a ``BatchRun`` out);
* :mod:`repro.parallel.worker` — the worker-process main loop.

See DESIGN.md section 11 for the wire format and worker lifecycle.
"""

from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import CatalogSpec, CrashTask, QueryTask

__all__ = [
    "WorkerPool",
    "CatalogSpec",
    "CrashTask",
    "QueryTask",
]
