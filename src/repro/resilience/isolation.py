"""One call in its own worker process: the isolated-worker attempt.

The floorplanning service runs each job attempt, and the Table I sweep
each entry attempt, through :func:`run_isolated`: a fresh single-worker
process pool per call, so a crash, hang or leak in one attempt can take
down only its own worker.  Retries, backoff and quarantine stay with the
callers; this module owns the process.

Fault injection for worker deaths is decided by the *caller*, in the
parent, at dispatch time: a fresh worker would count hits from zero, so
a worker-side ``should_inject`` would make ``worker_crash@N``
nondeterministic.  The verdict rides into the child as ``inject``.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.errors import WorkerLostError

#: Exit code of a fault-injected worker crash (any hard death works; a
#: recognisable code makes post-mortems unambiguous).
CRASH_EXIT_CODE = 86


def die_with_parent() -> None:
    """Pool initializer: tie the worker's lifetime to its parent's.

    A SIGTERM drain kills pools explicitly, but SIGKILL can't be caught —
    without this, workers forked before a ``kill -9`` would outlive the
    dead parent as idle orphans.  On Linux, ``PR_SET_PDEATHSIG`` makes
    the kernel deliver SIGKILL to the worker when the parent dies; the
    ``getppid`` check closes the race where the parent died between the
    fork and the prctl (the worker is already reparented, so the death
    signal would never arrive).
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, 9)  # SIGKILL
        if os.getppid() == 1:
            os._exit(CRASH_EXIT_CODE)
    except Exception:  # pragma: no cover - non-Linux platforms
        pass


def _call(fn: Callable[..., Any], args: tuple, inject: str | None) -> Any:
    """Worker body: apply the parent's fault verdict, then ``fn(*args)``."""
    if inject == "crash":
        os._exit(CRASH_EXIT_CODE)
    if inject == "hang":
        time.sleep(3600.0)
    return fn(*args)


def _kill(pool: ProcessPoolExecutor) -> None:
    for process in list(pool._processes.values()):
        process.kill()


async def run_isolated(
    fn: Callable[..., Any],
    args: tuple,
    timeout_s: float | None,
    inject: str | None = None,
) -> Any:
    """Run ``fn(*args)`` once in a fresh single-worker process.

    ``fn`` and ``args`` must pickle (a module-level function and plain
    data).  ``inject`` is the parent's fault verdict: ``"crash"`` makes
    the worker exit hard, ``"hang"`` wedges it as if stuck in a native
    call.

    Returns ``fn``'s value; an exception ``fn`` raises propagates.
    Raises :class:`~repro.errors.WorkerLostError` when the worker died
    before returning, or ran past ``timeout_s`` (``None`` = no limit) and
    was killed.  On cancellation the worker is killed too, so nothing
    outlives its caller.
    """
    pool = ProcessPoolExecutor(max_workers=1, initializer=die_with_parent)
    try:
        future = pool.submit(_call, fn, args, inject)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            _kill(pool)
            raise WorkerLostError(
                f"timeout ({timeout_s:.1f}s) exceeded; worker killed",
                timed_out=True,
            ) from None
        except BrokenProcessPool:
            raise WorkerLostError(
                "worker process died before returning"
            ) from None
        except asyncio.CancelledError:
            _kill(pool)
            raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
