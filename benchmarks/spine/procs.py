"""Process hygiene: spawn the server child, stop it, prove nothing leaked.

The harness is one load-generator process plus at most a few server
children, never more than one serving at a time.  Every child is
registered with a :class:`Reaper` the moment it exists and is stopped by
the same ladder on every exit path::

    [shutdown frame] -> wait(12 s) -> terminate() -> wait(3 s) -> kill() -> wait()

``ReproServer.close()`` currently blocks 10 s on ``accept()``; a harness
that exits before that wait ends strands a process, which is how the
previous attempt at this benchmark was rejected.  Nothing here imports
``multiprocessing``.
"""

from __future__ import annotations

import atexit
import os
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

GRACEFUL_WAIT_S = 12.0
TERMINATE_WAIT_S = 3.0


def stop_process(proc: subprocess.Popen) -> None:
    """The forceful rungs of the ladder; returns once ``proc`` has been
    reaped.  (:class:`ServerChild` runs the graceful rung first.)"""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(TERMINATE_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Reaper:
    """Owns every child the harness starts.

    ``install()`` arranges for :meth:`reap_all` to run at interpreter
    exit and turns SIGTERM/SIGINT into ``SystemExit`` so ``finally``
    blocks unwind; the launcher's parent-death signal covers SIGKILL.
    """

    def __init__(self) -> None:
        self._children: List[subprocess.Popen] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        atexit.register(self.reap_all)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _exit_on_signal)

    def spawn(self, argv, **popen_kwargs) -> subprocess.Popen:
        # Same process group as the harness (no setsid): a signal to
        # the group reaches the child too.
        proc = subprocess.Popen(argv, **popen_kwargs)
        with self._lock:
            self._children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> None:
        stop_process(proc)
        with self._lock:
            if proc in self._children:
                self._children.remove(proc)

    def reap_all(self) -> None:
        """Forcefully stop whatever is still registered (exit paths)."""
        with self._lock:
            children = list(self._children)
        for proc in children:
            self.reap(proc)


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def pin_harness() -> Optional[int]:
    """Pin this process to the first CPU it may use and return the last
    one, for the server child; None (and no pinning) with fewer than
    two CPUs.

    Left to itself the scheduler keeps the two processes of a loopback
    conversation on *one* core (wake-affine placement), migrating one
    away only now and then — which showed as 5-10 % run-to-run spread
    and ~20 % lower ``wide_scan`` throughput on the 2-core reference box.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def leaked_processes(parent_pid: Optional[int] = None) -> List[int]:
    """Pids of live (non-zombie) processes whose parent is the harness."""
    parent_pid = os.getpid() if parent_pid is None else parent_pid
    leaked = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue  # exited while we were looking
        # "pid (comm) state ppid ..." — comm may itself hold ") ".
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if int(ppid) == parent_pid and state != "Z":
            leaked.append(int(entry))
    return leaked


class ServerChild:
    """One ``repro serve --port 0`` child, started through the launcher.

    The port is read from the child's first stdout line, so concurrent
    or repeated runs cannot collide.  ``spawn_s`` is the time from
    ``Popen`` to that line: interpreter start, imports, TPC-H
    generation and the bind.
    """

    def __init__(self, reaper: Reaper, src_dir: str, serve_args, tmpdir: str,
                 cpu: Optional[int] = None):
        self.reaper = reaper
        env = dict(os.environ, TMPDIR=tmpdir)
        started = time.perf_counter()
        self.proc = reaper.spawn(
            [sys.executable, os.path.join(HERE, "serve_child.py"),
             str(os.getpid()), src_dir, "-" if cpu is None else str(cpu),
             "--port", "0"] + list(serve_args),
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        self.spawn_s = time.perf_counter() - started
        try:
            # "repro server listening on HOST:PORT (protocol vN) ..."
            address = line.split("listening on ", 1)[1].split(" ", 1)[0]
            self.port = int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(
                "server child did not announce a port; first stdout "
                "line was %r" % line
            ) from None
        self._shutdown_sent: Optional[float] = None
        self._exited: Optional[float] = None
        self._waiter: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``) in MB."""
        with open("/proc/%d/status" % self.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for pid %d" % self.pid)

    def _request_shutdown(self) -> None:
        from repro.client import Client

        with Client(port=self.port, timeout=GRACEFUL_WAIT_S) as client:
            client.shutdown_server()

    def begin_shutdown(self) -> None:
        """Send the ``shutdown`` frame and start timing the exit.

        The child then sits idle in ``close()``'s join, so the caller
        may do other work before :meth:`finish_shutdown`; a waiter
        thread stamps the exit the moment it happens.
        """
        self._shutdown_sent = time.perf_counter()
        self._request_shutdown()

        def wait_for_exit() -> None:
            # WNOWAIT: observe the exit without reaping, so Popen keeps
            # ownership of the child and its wait() still works.
            try:
                os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
            except ChildProcessError:
                return  # already reaped by an exit path
            self._exited = time.perf_counter()

        self._waiter = threading.Thread(
            target=wait_for_exit, name="spine-shutdown-wait", daemon=True,
        )
        self._waiter.start()

    def finish_shutdown(self) -> float:
        """Wait out the graceful exit (then force it); returns
        ``shutdown_s``, capped at the graceful wait."""
        waited = time.perf_counter() - self._shutdown_sent
        self._waiter.join(max(GRACEFUL_WAIT_S - waited, 0.0))
        exited = self._exited
        self.stop()
        if exited is None:
            return GRACEFUL_WAIT_S
        return exited - self._shutdown_sent

    def stop(self) -> float:
        """Stop without the graceful wait; returns seconds it took."""
        started = time.perf_counter()
        self.reaper.reap(self.proc)
        return time.perf_counter() - started
