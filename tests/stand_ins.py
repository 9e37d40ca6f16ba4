"""Stand-ins for the task functions of the worker pool.

The pool pickles a task function by reference, so a worker started by a fork
server imports the module that defines it.  This module imports only the
samples file module, so such a worker starts faster than one that imports a
test module.
"""

import os

from gridforest import fileio

# the row formatter and the block reader themselves: a forked worker inherits
# the stand-ins in their place
_FORMAT_ROWS = fileio._format_rows
_READ_RANGE = fileio._read_range


def die(*args):
    """A stand-in for a task function that ends the worker process."""
    os._exit(1)


def tracked_format(outdir, tails, task):
    """A ``fileio._format_rows`` stand-in that leaves a file named by the pid
    of the process that formats the task in ``outdir``."""
    (outdir / str(os.getpid())).touch()
    return _FORMAT_ROWS(tails, task)


def tracked_read(outdir, task):
    """A ``fileio._read_range`` stand-in that leaves a file named by the pid
    of the process that reads the block in ``outdir``."""
    (outdir / str(os.getpid())).touch()
    return _READ_RANGE(task)
