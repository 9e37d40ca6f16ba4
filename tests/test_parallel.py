"""The worker pool: usable CPUs under a cgroup CPU quota, and the ordered map.

``_START_METHODS`` and ``_usable_cpus`` serve every module that tests a
user of the pool.
"""

import multiprocessing
import os
import sys

import pytest

from gridforest import parallel

# the pool's start method before Python 3.12, where os.fork does not warn in
# a process with other threads, and on later versions
_START_METHODS = pytest.mark.parametrize(
    "start_method",
    [
        pytest.param(
            "fork",
            marks=pytest.mark.skipif(sys.version_info >= (3, 12), reason="fork warns"),
        ),
        "forkserver",
    ],
)


def _usable_cpus(monkeypatch, n):
    """Make ``parallel.usable_cpus`` read ``n``, whatever this host's quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(parallel, "_cgroup_cpus", lambda: None)


@pytest.mark.parametrize(
    "quota, period, cpus",
    [
        ("max", "100000", None),  # cgroup v2, no cap
        ("-1\n", "100000\n", None),  # v1, no cap
        ("100000", "100000", 1),
        ("150000", "100000", 2),  # a part of a CPU counts as one
        ("400000\n", "100000\n", 4),
        ("1000", "100000", 1),  # never less than one
    ],
)
def test_cpu_quota_parse(quota, period, cpus):
    assert parallel._cpu_quota(quota, period) == cpus


@pytest.mark.parametrize(
    "files, cpus",
    [
        ({"cpu.max": "200000 100000\n"}, 2),  # cgroup v2
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),  # v1
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        # both hierarchies mounted: the least of the two
        (
            {"cpu.max": "300000 100000\n", "cpu/cpu.cfs_quota_us": "200000\n",
             "cpu/cpu.cfs_period_us": "100000\n"},
            2,
        ),
        ({"cpu/cpu.cfs_quota_us": "300000\n"}, None),  # no period file
        ({"cpu.max": "garbled\n"}, None),
        ({}, None),  # no cgroup files
    ],
    ids=["v2", "v2-no-cap", "v1", "v1-no-cap", "both", "v1-partial", "garbled", "none"],
)
def test_cgroup_cpus(tmp_path, files, cpus):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert parallel._cgroup_cpus(tmp_path) == cpus


@pytest.mark.parametrize("quota, cpus", [(None, 4), (2, 2), (8, 4)])
def test_usable_cpus_are_capped_by_the_quota(monkeypatch, quota, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(parallel, "_cgroup_cpus", lambda: quota)
    assert parallel.usable_cpus() == cpus


@_START_METHODS
def test_the_map_keeps_item_order_and_joins_its_workers(monkeypatch, start_method):
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    items = list(range(-20, 0))
    _usable_cpus(monkeypatch, 1)
    assert list(parallel.ordered_map(abs, items)) == list(range(20, 0, -1))
    _usable_cpus(monkeypatch, 2)
    assert list(parallel.ordered_map(abs, items)) == list(range(20, 0, -1))
    assert multiprocessing.active_children() == []
    results = parallel.ordered_map(abs, items)
    assert next(results) == 20
    results.close()  # an early close joins the workers
    assert multiprocessing.active_children() == []
