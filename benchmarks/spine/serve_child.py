"""Launcher for the server child: ``repro serve`` that dies with its parent.

Usage: ``python serve_child.py PARENT_PID SRC_DIR CPU [serve options...]``
(``CPU`` is the core to pin to, or ``-``).

The harness starts exactly one of these per set-up.  ``PR_SET_PDEATHSIG``
makes the kernel SIGKILL this process the moment the harness thread that
spawned it goes away — however it goes away — so a crashed or killed
harness cannot strand a server.  Where ``prctl`` is unavailable a
watcher thread polls ``os.getppid()`` instead.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

PR_SET_PDEATHSIG = 1


def die_with_parent(parent_pid: int) -> None:
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl failed")
    except (OSError, AttributeError, ImportError):
        def watch() -> None:
            while os.getppid() == parent_pid:
                time.sleep(0.5)
            os._exit(1)

        threading.Thread(target=watch, daemon=True).start()
    # The parent may have died before the prctl took effect.
    if os.getppid() != parent_pid:
        os._exit(1)


def main(argv) -> int:
    parent_pid, src_dir, cpu = int(argv[0]), argv[1], argv[2]
    die_with_parent(parent_pid)
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    sys.path.insert(0, src_dir)
    from repro.cli import main as cli_main

    return cli_main(["serve"] + list(argv[3:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
