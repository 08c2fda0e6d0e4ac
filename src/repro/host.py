"""What the host lets the program run in parallel.

``repro/__init__.py`` imports this module before anything else, so it
runs before any ``repro`` module loads numpy.  It pins the BLAS libraries
numpy links against to one thread and records, once, whether BLAS is known
to be single-threaded; :func:`process_map` forks workers only then.  Every
matrix product here is about 32×128×128, too small for BLAS threads to pay
for themselves, and forking a process whose BLAS already runs helper
threads stalls the children.  The module is numpy-free on purpose.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable, Iterator, Sequence, TypeVar

#: The thread-count variables of OpenBLAS, OpenMP and MKL.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> bool:
    """Default each BLAS thread count to 1; whether BLAS is now known to
    run single-threaded.

    A value already set is kept.  Known means every variable reads ``"1"``
    and BLAS read them: numpy was not imported yet, or the variables were
    all set before this ran (pin, then numpy, then ``repro``).
    """
    preset = all(name in os.environ for name in BLAS_THREAD_VARIABLES)
    numpy_loaded = "numpy" in sys.modules
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    pinned = all(os.environ[name] == "1" for name in BLAS_THREAD_VARIABLES)
    return pinned and (preset or not numpy_loaded)


BLAS_SINGLE_THREADED = pin_blas()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


T = TypeVar("T")
R = TypeVar("R")


def process_map(fn: Callable[[T], R], jobs: Sequence[T]) -> Iterator[R]:
    """``map(fn, jobs)`` on one forked worker process per usable CPU.

    Runs in this process through the builtin ``map`` when there is one CPU
    or one job, no ``fork``, or BLAS is not known single-threaded.  Jobs
    and results cross the process boundary pickled, so ``fn`` may depend
    on its job alone.  Results are yielded in job order and held only
    until the caller takes them.  An exception raised by ``fn`` reaches
    the caller as itself; a worker that dies raises one ``RuntimeError``
    naming it.  Either way every worker is reaped first.
    """
    workers = min(usable_cpus(), len(jobs))
    if workers <= 1 or not BLAS_SINGLE_THREADED or not hasattr(os, "fork"):
        yield from map(fn, jobs)
        return
    # Imported only when used: they add 2 MiB to every process that loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, jobs[0])]
        # Under fork the first submit starts every worker.
        processes = list(pool._processes.values())
        futures += [pool.submit(fn, job) for job in jobs[1:]]
        futures.reverse()
        while futures:
            yield futures.pop().result()
        return
    except BrokenProcessPool:
        pass
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    # A worker died.  The pool has terminated and reaped the others, so the
    # dead one is the worker that did not exit by SIGTERM.
    dead = next((p for p in processes if p.exitcode != -signal.SIGTERM), processes[0])
    raise RuntimeError(f"worker process {dead.pid} died with exit code {dead.exitcode}")
