"""One worker pool for the package's independent tasks, with three users: the
cells of an experiment sweep, the row blocks ``save_samples`` formats for
the samples CSV, and the byte ranges of that file that ``load_samples``
parses.

``ordered_map(fn, items, chunksize)`` yields ``fn(item)`` in item order, from
a pool of one worker process per usable CPU (``usable_cpus``), which takes the
items in tasks of ``chunksize`` consecutive items.  It runs the items in
process instead when fewer than two workers would run: one usable CPU, one
task, or a platform that lacks the start method.  A worker that dies raises
``BrokenProcessPool``, and every worker and pool thread is joined before the
map returns or raises.

Before Python 3.12 the workers are forked from this process, and import
nothing.  From 3.12 on a fork server starts them, because ``os.fork`` then
warns in a process with other threads, as numpy's BLAS pool makes this one;
such workers import the package once per map.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_START_METHOD = "fork" if sys.version_info < (3, 12) else "forkserver"


def _cpu_quota(quota: str, period: str) -> int | None:
    """The CPUs a cgroup CPU quota allows, ``ceil(quota / period)``; None for
    no cap, a quota of ``max`` (cgroup v2) or -1 (v1), and for no readable
    cap, a quota or period that is not a positive integer.  The arguments are
    the texts of v2's ``cpu.max`` fields or of v1's ``cpu.cfs_quota_us`` and
    ``cpu.cfs_period_us``."""
    try:
        quota, period = int(quota), int(period)
    except ValueError:  # max, or not a number
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _cgroup_cpus(root="/sys/fs/cgroup") -> int | None:
    """The least ``_cpu_quota`` of the files under ``root`` where a container
    sees its own cgroup: v2's ``cpu.max`` and v1's ``cpu/cpu.cfs_quota_us``
    with ``cpu/cpu.cfs_period_us``; None if neither caps the process or can be
    read."""
    caps = []
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:  # cpu.max holds "quota period"; v1 one number per file
            quota, period = " ".join(Path(root, f).read_text() for f in files).split()
            caps.append(_cpu_quota(quota, period))
        except (OSError, ValueError):
            pass  # no such hierarchy here
    return min((cap for cap in caps if cap is not None), default=None)


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``, 1 where the
    platform cannot tell), capped by a cgroup CPU quota."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    quota = _cgroup_cpus()
    return cpus if quota is None else min(cpus, quota)


def ordered_map(fn, items, chunksize=1):
    """Yield ``fn(item)`` for each of the sequence ``items``, in item order.

    The pool takes the items in tasks of ``chunksize`` consecutive items.
    ``fn`` and the items must pickle: a module-level function, possibly bound
    by ``functools.partial``.  A caller that may stop before the last result
    closes the generator (``contextlib.closing``), which joins the workers at
    once instead of when the generator is collected.
    """
    import multiprocessing

    workers = min(usable_cpus(), -(-len(items) // chunksize))
    if workers < 2 or _START_METHOD not in multiprocessing.get_all_start_methods():
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        # on an error or an early close the map cancels its queued tasks
        yield from pool.map(fn, items, chunksize=chunksize)
