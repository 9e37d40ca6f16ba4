"""Stand-ins for the task functions of the worker pool.

The pool pickles a task function by reference, so a worker started by a fork
server imports the module that defines it.  This module imports only the
samples writer, so such a worker starts faster than one that imports a test
module.
"""

import os

from gridforest import fileio

# the row formatter itself: a forked worker inherits the stand-in in its place
_FORMAT_ROWS = fileio._format_rows


def die(*args):
    """A stand-in for a task function that ends the worker process."""
    os._exit(1)


def tracked_format(outdir, tails, task):
    """A ``fileio._format_rows`` stand-in that leaves a file named by the pid
    of the process that formats the task in ``outdir``."""
    (outdir / str(os.getpid())).touch()
    return _FORMAT_ROWS(tails, task)
