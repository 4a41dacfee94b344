"""Independent jobs on worker processes, with the serial run's results:
the models of ``experiment.run_experiment``.

The pool takes the platform's default start method, fork on Linux:
CPython forks every worker before the pool's own thread starts, the
library starts no threads, and OpenBLAS stops its own across a fork.
Spawned workers import numpy and the library again: a two-worker pool
took 0.43 s to start and stop spawned against 0.02 s forked (2-CPU
x86-64).
"""

import os


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not every platform restricts affinity
        return os.cpu_count() or 1


def in_order(fn, jobs):
    """Yield fn(*args) for each args of jobs, in the order of jobs,
    whatever order the workers finish in.

    The jobs run on min(len(jobs), usable_cpus()) worker processes; with
    one CPU or one job they run in this process and nothing starts.  fn
    is pickled by import path, so it is a module-level function; its
    arguments and results are pickled too.  A job that raises raises
    here, with its own type, when its result is due: the jobs before it
    have been yielded, pending jobs are cancelled, and no worker
    outlives the generator.  Close the generator (contextlib.closing) so
    that leaving it early stops its workers at once.
    """
    jobs = list(jobs)
    count = min(len(jobs), usable_cpus())
    if count < 2:
        for args in jobs:
            yield fn(*args)
        return
    # imported here: a process that never starts a pool never loads
    # multiprocessing, which costs every process about 1.3 MB
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=count)
    try:
        futures = [pool.submit(fn, *args) for args in jobs]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
