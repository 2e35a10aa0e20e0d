"""The thread rule, the allocator policy and the two shapes of parallel work:
row blocks, and jobs side by side.

Work runs on threads only where BLAS runs on one thread: multi-threaded BLAS
calls from two threads at once are slower.  `run_blocks` and `side_by_side`
each build a pool for the call and shut it down before they return, so no
pool crosses a function boundary and a forked child inherits none.  On a
pool's thread threads() == 1, so a job that splits its own work runs it there
as one block, and no more threads are busy than threads() allows.

Importing this module sets the process's malloc policy once, where the C
library is glibc (see `_keep_freed_pages`).
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

# Fewest rows in a block of an elementwise row job.  A numpy call releases
# the GIL only while it runs, so on smaller blocks two threads spend much of
# their time handing it over: on a 2-core host, the prep path's mean
# operation took 5-8 % longer on 8192-row blocks than on 16384-row ones.
ROW_BLOCK = 16384

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_pages() -> None:
    """Keep freed heap pages in the process instead of handing them back.

    Sets glibc's M_MMAP_THRESHOLD to 32 MiB, its ceiling, so that arrays
    below that size come from a heap instead of a private mapping that free()
    unmaps, and M_TRIM_THRESHOLD to 64 MiB, so that free() keeps up to that
    much at the top of a heap.  Each training batch frees a tape of many
    (N, 16) float64 arrays on the pool's threads, and with glibc's defaults
    the next batch faulted those pages in again: 280k-440k minor faults per
    train() of 6 sim64 scenes x 8 epochs, against fewer than 600 with this
    policy.  64 MiB is the smallest power of two that also keeps inference's
    pages: at 32 MiB a waymo scan's point_predictions still took about 800
    faults, and at 16 MiB training took 240k again.  M_TOP_PAD is left alone:
    setting it fixes the mmap threshold at 128 KiB.  Off Linux, where mallopt
    is missing, or where it refuses a value (returns 0), the default stays.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20)):
        if mallopt(param, value) != 1:
            return


_keep_freed_pages()

_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.busy = True


def threads() -> int:
    """Threads for parallel jobs: one on a pool's thread, else the cores where
    BLAS runs on one thread (as OpenBLAS reads the first of these variables
    that holds a positive count), else one.  Where os.sched_getaffinity is
    missing (macOS, Windows), the cores are os.cpu_count()."""
    if getattr(_pool_thread, "busy", False):
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            if int(value) > 1:
                return 1
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
    return 1


def thread_pool(workers: int) -> ThreadPoolExecutor:
    """A pool of `workers` threads for one call; use it in a `with` block."""
    return ThreadPoolExecutor(workers, initializer=_mark_pool_thread)


def run_blocks(n: int, floor: int, job: Callable[[slice], object]) -> None:
    """Call job(rows) on rows [0, n) split into max(1, n // floor) even blocks.

    The blocks run in order on a pool of min(blocks, threads()) threads built
    for the call; each is a slice(start, stop) of at least min(n, floor)
    rows.  When that pool would have one thread, job runs once, on this
    thread, on slice(0, n).  A block's exception is raised here, the
    earliest block's first.
    """
    blocks = max(1, n // floor)
    workers = min(blocks, threads())
    if workers == 1:
        job(slice(0, n))
        return
    edges = [n * i // blocks for i in range(blocks + 1)]
    with thread_pool(workers) as pool:
        list(pool.map(job, map(slice, edges[:-1], edges[1:])))


def side_by_side(first: Callable[[], object], *rest: Callable[[], object]) -> list:
    """[first(), *(job() for job in rest)]: `rest` on a pool of
    min(len(rest), threads() - 1) threads built for the call while this thread
    runs `first`, or one after another on this thread where that pool has no
    thread.  The earliest job's exception is raised, once every started job
    has ended."""
    workers = min(len(rest), threads() - 1)
    if workers < 1:
        return [job() for job in (first, *rest)]
    with thread_pool(workers) as pool:
        futures = [pool.submit(job) for job in rest]
        return [first(), *(future.result() for future in futures)]
