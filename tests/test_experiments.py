import multiprocessing
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from gridforest import experiments
from gridforest.errors import InfeasibleSpec
from gridforest.experiments import (
    ExperimentConfig,
    fig4_config,
    fig5_config,
    fractional_error,
    run_experiment,
    structural_error,
)
from gridforest.synth import FeederSpec, synth_layout

from conftest import sampled_moments


def small_config(**kw):
    base = dict(
        task="learn",
        feeder=FeederSpec(n_loads=8, n_trees=2, extra_lines=3),
        m_grid=(200, 800),
        seeds=(0, 1, 2),
        layout_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_structural_error_counts_wrong_and_absent():
    forest = synth_layout(FeederSpec(n_loads=4, n_trees=1), 0)
    truth = forest.parent
    assert structural_error(forest, truth) == 0.0
    broken = dict(truth)
    first = forest.load_ids[0]
    broken[first] = first + 100
    assert structural_error(forest, broken) == pytest.approx(1 / 4)
    del broken[first]
    assert structural_error(forest, broken) == pytest.approx(1 / 4)
    assert structural_error(forest, {}) == 1.0


def test_fractional_error():
    assert fractional_error([1.1, 0.9], [1.0, 1.0]) == pytest.approx(0.1)


def test_invalid_configs():
    with pytest.raises(InfeasibleSpec):
        small_config(m_grid=()).validate()
    with pytest.raises(InfeasibleSpec):
        small_config(m_grid=(1,)).validate()
    with pytest.raises(InfeasibleSpec):
        small_config(seeds=()).validate()
    with pytest.raises(InfeasibleSpec):
        small_config(task="nope").validate()
    with pytest.raises(InfeasibleSpec):
        small_config(task="learn-missing").validate()


def test_population_mode_zero_structural_error():
    report = run_experiment(small_config(analytic=True, m_grid=(2,), seeds=(0,)))
    assert report.aggregate("learn", 2, "struct_err") == 0.0
    assert report.aggregate("learn", 2, "omega_p_err") < 1e-8


def test_error_decreases_with_samples():
    report = run_experiment(small_config(m_grid=(100, 1600), seeds=tuple(range(20))))
    hi = report.aggregate("learn", 100, "omega_p_err")
    lo = report.aggregate("learn", 1600, "omega_p_err")
    assert lo < hi


def test_learn_missing_analytic_mode_exact():
    cfg = ExperimentConfig(
        task="learn-missing",
        feeder=FeederSpec(n_loads=14, n_trees=1, extra_lines=4),
        m_grid=(2,),
        seeds=(0, 1, 2),
        layout_seed=3,
        missing_counts=(1, 2),
        analytic=True,
    )
    report = run_experiment(cfg)
    assert report.aggregate("learn-missing/h1", 2, "struct_err") == 0.0
    assert report.aggregate("learn-missing/h2", 2, "struct_err") == 0.0


def test_curves_file_deterministic(tmp_path):
    cfg = small_config()
    run_experiment(cfg, outdir=tmp_path / "a")
    run_experiment(cfg, outdir=tmp_path / "b")
    a = (tmp_path / "a" / "curves.csv").read_bytes()
    b = (tmp_path / "b" / "curves.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"task,m,seed,metric,value"


def test_golden_schema(tmp_path):
    # the first rows of the curve file are pinned: schema changes must be loud
    run_experiment(small_config(m_grid=(200,), seeds=(0,)), outdir=tmp_path)
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "task,m,seed,metric,value"
    fields = [ln.split(",")[:4] for ln in lines[1:]]
    assert ["learn", "200", "0", "mu_p_err"] in fields
    assert ["learn", "200", "0", "struct_err"] in fields


def test_learn_params_task_runs():
    cfg = small_config(task="learn-params", m_grid=(4000,), seeds=(0, 1))
    report = run_experiment(cfg)
    assert report.aggregate("learn-params", 4000, "struct_err") <= 0.25
    assert report.aggregate("learn-params", 4000, "r_err") < 0.5


def test_learn_missing_task_records_counts():
    cfg = ExperimentConfig(
        task="learn-missing",
        feeder=FeederSpec(n_loads=14, n_trees=1, extra_lines=4),
        m_grid=(3000,),
        seeds=(0, 1),
        layout_seed=3,
        missing_counts=(1,),
    )
    report = run_experiment(cfg)
    assert report.aggregate("learn-missing/h1", 3000, "struct_err") <= 0.5


def test_failures_recorded_not_fatal():
    # tiny m forces frequent learner failures; cells still score
    cfg = small_config(m_grid=(2,), seeds=tuple(range(4)))
    report = run_experiment(cfg)
    vals = [r for r in report.rows if r[3] == "struct_err"]
    assert len(vals) == 4


def test_fig5_cells_match_sampled_oracle(monkeypatch):
    # cells that take their moments from the draws score as cells that form
    # the samples and call from_samples; the oracle stands in for every
    # cell's moments, and each cell's own moments (drawn by the workers)
    # match it to rounding
    def struct_rows():
        report = run_experiment(fig5_config(seeds=(0, 1)))
        return [r for r in report.rows if r[3] == "struct_err"]

    def recorded(cell_jobs, n):
        jobs.extend(cell_jobs)
        return cell_draws(cell_jobs, n)

    def oracle(forest, inj, m, draws, hidden):
        _dist, job_m, _n, seed = jobs[len(calls)]  # the cells come in job order
        assert job_m == m
        want = sampled_moments(forest, inj, m, seed, hidden)
        got = from_draws(forest, inj, m, draws, hidden)
        for c in ("eps", "theta", "eps_theta"):
            b = want.full_cov(c)
            np.testing.assert_allclose(got.full_cov(c), b, rtol=0, atol=1e-12 * np.abs(b).max())
        for a, b in ((got.mu_eps, want.mu_eps), (got.mu_theta, want.mu_theta)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
        calls.append(seed)
        return want

    got = struct_rows()
    jobs, calls = [], []
    cell_draws, from_draws = experiments._cell_draws, experiments.empirical_moments
    monkeypatch.setattr(experiments, "_cell_draws", recorded)
    monkeypatch.setattr(experiments, "empirical_moments", oracle)
    assert got == struct_rows()
    assert len(calls) == len(got)


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


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


def _die(*job):
    """A ``draw_moments`` stand-in that ends the worker process."""
    os._exit(1)


def _watch_workers(monkeypatch, fail_at=None):
    """Record the pids of this process's live children at each learner call;
    raise a RuntimeError, which is no GridForestError, at call ``fail_at``."""
    seen = []
    learner = experiments.run_learner

    def spy(*args, **kwargs):
        seen.append({p.pid for p in multiprocessing.active_children()})
        if len(seen) == fail_at:
            raise RuntimeError("a cell fails outside the learners")
        return learner(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_learner", spy)
    return seen


@_START_METHODS
@pytest.mark.parametrize("make_config", [fig4_config, fig5_config], ids=["fig4", "fig5"])
def test_pooled_and_in_process_sweeps_agree_bit_for_bit(monkeypatch, make_config, start_method):
    monkeypatch.setattr(experiments, "_START_METHOD", start_method)
    config = make_config(seeds=(0, 1))
    seen = _watch_workers(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    alone = run_experiment(config)
    assert seen and not any(seen)  # every cell drew in process
    seen.clear()
    _usable_cpus(monkeypatch, 2)
    pooled = run_experiment(config)
    assert seen and all(len(pids) == 2 for pids in seen)  # two workers drew
    assert repr(pooled.rows) == repr(alone.rows)
    assert pooled.failures == alone.failures


@_START_METHODS
@pytest.mark.parametrize("fail_at", [None, 3], ids=["completes", "cell_raises"])
def test_no_worker_outlives_the_sweep(monkeypatch, fail_at, start_method):
    monkeypatch.setattr(experiments, "_START_METHOD", start_method)
    threads = threading.active_count()
    seen = _watch_workers(monkeypatch, fail_at)
    _usable_cpus(monkeypatch, 2)
    if fail_at is None:
        run_experiment(fig5_config(seeds=(0,)))
    else:
        with pytest.raises(RuntimeError, match="outside the learners"):
            run_experiment(fig5_config(seeds=(0,)))
    workers = set().union(*seen)
    assert len(workers) == 2
    assert multiprocessing.active_children() == []
    for pid in workers:  # joined, so reaped: the pid names no process
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert threading.active_count() == threads  # the pool's own threads are gone too


def test_a_dead_worker_fails_the_sweep(monkeypatch):
    # a worker that dies (killed, out of memory) fails the sweep instead of
    # leaving it waiting for the lost results
    monkeypatch.setattr(experiments, "draw_moments", _die)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(fig5_config(seeds=(0,)))
    assert multiprocessing.active_children() == []
