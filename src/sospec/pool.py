"""The one forked worker pool that training restarts, study runs and
dataset I/O share.

`worker_count` decides how many processes a job gets, `worker_pool` makes
the pool and `run_in_order` runs a list of tasks through it, or in-process
when one process is all the job gets. Functions sent to a pool are pickled
by name, so they must be module-level functions.
"""

import collections
import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

# Worker pools fork. spawn and forkserver re-import the caller's main
# script in each worker, so a script without a `__main__` guard would break
# the first time a pool was picked for it, and spawn costs about 0.5 s a
# pool against 20 ms. Without fork, `worker_count` keeps every job
# in-process.
_HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

# Tasks `run_in_order` keeps submitted per worker. Results are collected
# in order, so while one worker is stalled (its CPU taken by another
# process, say) the others can run only this far ahead of it: with 2 a
# worker, the other of two workers would idle after three chunks. 8 keeps
# at most 15 results (about 100 KB of text or 50 KB of arrays each for
# dataset I/O) waiting in the parent.
IN_FLIGHT_PER_WORKER = 8


@functools.cache
def _blas_thread_calls():
    """(set, get) of the thread count of numpy's OpenBLAS, or None.

    dlsym on the handle of numpy's core extension also searches the
    libraries it links, so this finds the BLAS numpy actually uses, under
    the symbol names of the bundled scipy-openblas (64-bit interface) or of
    a plain OpenBLAS.
    """
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            setter.argtypes, getter.restype = [ctypes.c_int], ctypes.c_int
            return setter, getter
    return None


def worker_count(tasks):
    """How many processes a job of `tasks` independent tasks runs in; 1
    means in-process.

    In-process when this process is itself a pool worker (pools do not
    nest), when the platform cannot fork or when no BLAS thread setter is
    found; otherwise one worker per task, up to the usable CPUs.
    """
    in_worker = multiprocessing.parent_process() is not None
    if tasks <= 1 or in_worker or not _HAVE_FORK or _blas_thread_calls() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS has no affinity call
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


# The object the tasks of a pool share, set once by each worker's
# initializer: forked workers inherit it instead of unpickling a copy with
# every task, and the parent keeps no pickled copies. Two 32 000-row
# pendulum restarts shipped as arguments left the parent 5 MB larger.
_worker_shared = None


def _start_worker(shared):
    """Initializer of every `worker_pool` worker: keep `shared` for
    `_call_shared` and hold this process's BLAS to one thread, if its
    setting can be found.

    With its default thread count each worker's BLAS starts as many threads
    as the machine has cores, and the workers' threads then contend for
    them. On two cores, two pendulum restarts took two to three times as
    long in such a pool as one after the other.
    """
    global _worker_shared
    _worker_shared = shared
    calls = _blas_thread_calls()
    if calls is not None:
        calls[0](1)


def _call_shared(fn, args):
    return fn(_worker_shared, *args)


def worker_pool(workers, shared=None):
    """A forked process pool of `workers` workers, each held to one BLAS
    thread and keeping `shared` for the tasks it runs. Size it with
    `worker_count`, which keeps a job in-process where fork is missing."""
    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(workers, context, initializer=_start_worker, initargs=(shared,))


def run_in_order(fn, shared, tasks, workers):
    """Yield fn(shared, *args) for each args of `tasks`, in order.

    With workers == 1 the calls run here, one at a time. Otherwise they run
    in a `worker_pool(workers, shared)`, with at most IN_FLIGHT_PER_WORKER
    tasks per worker submitted and not yet collected, so results wait in
    the parent only in that bounded window. `fn` must be a module-level
    function. A caller that may stop before the end closes the generator,
    which shuts the pool down.
    """
    if workers == 1:
        for args in tasks:
            yield fn(shared, *args)
        return
    with worker_pool(workers, shared) as executor:
        window = collections.deque()
        for args in tasks:
            window.append(executor.submit(_call_shared, fn, args))
            if len(window) >= IN_FLIGHT_PER_WORKER * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
