"""Host record (diagnostics stored beside the metrics, never used in
them) and the guard that leaves no process of a run behind."""

from __future__ import annotations

import os
import signal
import time

#: Iterations of the fixed-work speed probe (about 0.1 s on one core).
PROBE_WORK = 400_000


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python work unit."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_WORK):
        total += i * i % 7
    return time.perf_counter() - start


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def snapshot() -> dict:
    """Load, steal ticks and a speed probe at one moment."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "loadavg": load,
        "steal_ticks": _steal_ticks(),
        "speed_probe_s": speed_probe(),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts:
    a process orphaned below it (a worker of a server that died) is
    re-parented here, so ``stop_children`` can stop and reap it."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    PR_SET_CHILD_SUBREAPER = 36
    prctl(PR_SET_CHILD_SUBREAPER, 1)


def _children() -> set[int]:
    pids = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def stop_children() -> int:
    """Kill and reap every process still below this one; returns how
    many there were.  Each workload stops what it starts, so this finds
    nothing unless something leaked."""
    stopped = 0
    while pids := _children():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        stopped += len(pids)
    return stopped
