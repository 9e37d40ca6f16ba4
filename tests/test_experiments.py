import functools
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from gridforest import experiments, parallel
from gridforest.errors import AssumptionViolated, InfeasibleSpec
from gridforest.experiments import (
    TASKS,
    ExperimentConfig,
    fig4_config,
    fig5_config,
    fractional_error,
    injection_errors,
    population_moments,
    run_experiment,
    run_learner,
    score,
    structural_error,
)
from gridforest.lines import learn_structure_and_params
from gridforest.missing import MissingSpec, learn_with_missing
from gridforest.moments import MomentSet
from gridforest.network import line_param_map
from gridforest.powerflow import analytic_moments, sample_voltages
from gridforest.structure import (
    EstimationDiagnostics,
    StructureDiagnostics,
    estimate_injection_stats,
    learn_structure,
    recover_parent_map,
)
from gridforest.synth import (
    FeederSpec,
    choose_hidden,
    draw_injections,
    preset,
    synth_feeder,
    synth_layout,
)

from conftest import sampled_moments
from stand_ins import die
from test_parallel import _START_METHODS, _usable_cpus


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
    forest = synth_layout(FeederSpec(n_loads=8, n_trees=2, extra_lines=3), 5)
    inj = draw_injections(forest.load_ids, [5, 0])
    got, parts = run_learner("learn", forest, population_moments(forest, inj), inj)
    metrics = score(forest, got.parent, parts, inj)
    assert metrics["struct_err"] == 0.0
    assert metrics["omega_p_err"] < 1e-8


def test_error_decreases_with_samples():
    report = run_experiment(small_config(m_grid=(100, 1600), seeds=tuple(range(20))))
    hi = report.aggregate("learn", 100, "omega_p_err")
    lo = report.aggregate("learn", 1600, "omega_p_err")
    assert lo < hi


def test_learn_missing_analytic_mode_exact():
    forest = synth_layout(FeederSpec(n_loads=14, n_trees=1, extra_lines=4), 3)
    for seed in (0, 1, 2):
        inj = draw_injections(forest.load_ids, [3, seed])
        for count in (1, 2):
            spec = MissingSpec(choose_hidden(forest, count, [3, seed, count]))
            got, _ = run_learner(
                "learn-missing", forest, population_moments(forest, inj), inj, spec=spec
            )
            assert got.parent == forest.parent


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


@pytest.mark.parametrize("m", [None, 6400], ids=["population", "samples"])
def test_learn_missing_drops_the_hidden_rows_itself(m):
    # the learner path takes every load's moments and learns as the
    # hidden-node learner does on the observed loads' moments
    forest, inj = synth_feeder(preset("bus_29_1"), 11)
    spec = MissingSpec(choose_hidden(forest, 2, 5))
    if m is None:
        full = population_moments(forest, inj)
    else:
        full = sampled_moments(forest, inj, m, 3)
    got, parts = run_learner("learn-missing", forest, full, inj, spec=spec)
    observed = full.restrict([i for i in forest.load_ids if i not in spec.ids])
    vp, vq, s = inj.as_maps()
    want, diag = learn_with_missing(
        observed, spec, vp, vq, s, line_param_map(forest.lines), forest.substation_children()
    )
    assert got.parent == want.parent
    assert parts["events"] == diag.events


def test_learn_checks_fluctuation_on_population_moments_only():
    # a load with no injection variance gives a wrong forest from population
    # moments; samples carry their own variances, so they are not checked
    forest, inj = synth_feeder(preset("bus_13_3"), 0)
    still = np.arange(inj.n) > 0  # the first load does not fluctuate
    zero = replace(inj, var_p=inj.var_p * still, var_q=inj.var_q * still,
                   cov_pq=inj.cov_pq * still)
    with pytest.raises(AssumptionViolated, match="no injection variance"):
        run_learner("learn", forest, population_moments(forest, inj), zero)
    got, _ = run_learner("learn", forest, sampled_moments(forest, inj, 50_000, 2), zero)
    assert got.parent == forest.parent


# -- the learner contract -----------------------------------------------------------------

_MODES = pytest.mark.parametrize("m", [None, 2000], ids=["population", "samples"])


def _moments(forest, inj, m, zero_ids=()):
    """Population moments (``m`` None) or those of ``m`` samples."""
    if m is None:
        return MomentSet.from_analytic(analytic_moments(forest, inj), zero_ids=zero_ids)
    return MomentSet.from_samples(sample_voltages(forest, inj, m, 3), zero_ids=zero_ids)


def _bits(value):
    """``value`` with every array and injection model as its bytes, so that
    == compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "cov_pq"):  # an InjectionModel
        return _bits([value.node_ids, value.mu_p, value.mu_q, value.var_p, value.var_q,
                      value.cov_pq])
    if hasattr(value, "edge_params"):  # a RadialForest
        return _bits([value.parent, value.edge_params])
    return value


@_MODES
def test_structure_learners_give_the_same_bits_with_a_diagnostics_object(m):
    # the object receives recover_parent_map's evidence and changes nothing
    forest, inj = synth_feeder(preset("bus_13_3"), 4)
    ms = _moments(forest, inj, m)
    declared = forest.substation_children()
    vp, vq, _ = inj.as_maps()
    want = StructureDiagnostics()
    recover_parent_map(ms, declared, diagnostics=want)
    assert want.decisions

    diag = StructureDiagnostics()
    got = learn_structure(ms, declared, diagnostics=diag)
    assert _bits(got) == _bits(learn_structure(ms, declared))
    assert diag == want

    diag = StructureDiagnostics()
    got = learn_structure_and_params(ms, vp, vq, declared, diagnostics=diag)
    assert _bits(got) == _bits(learn_structure_and_params(ms, vp, vq, declared))
    assert diag == want


@pytest.mark.parametrize("m", [None, 6], ids=["population", "samples"])
def test_statistics_give_the_same_bits_with_a_diagnostics_object(m):
    # six samples make negative variances and covariances out of bound
    forest, inj = synth_feeder(preset("bus_13_3"), 4)
    ms = _moments(forest, inj, m)
    diag = EstimationDiagnostics()
    got = estimate_injection_stats(ms, forest, diagnostics=diag)
    assert _bits(got) == _bits(estimate_injection_stats(ms, forest))
    clamped = bool(diag.clamped_variances) and bool(diag.clamped_covariances)
    assert clamped == (m is not None)
    # each clamp records the solved value the model then holds at its bound
    k = forest.load_index
    for a, name, raw in diag.clamped_variances:
        assert raw < 0.0 and getattr(got, name)[k(a)] == 0.0
    for a, raw in diag.clamped_covariances:
        bound = np.sqrt(got.var_p[k(a)] * got.var_q[k(a)])
        assert abs(raw) > bound and abs(got.cov_pq[k(a)]) == bound


@_MODES
@pytest.mark.parametrize("task", TASKS)
def test_learners_register_the_slacks_themselves(task, m):
    # moments built with the slacks as zero ids learn the same bits
    forest, inj = synth_feeder(preset("bus_13_3"), 4)
    spec = MissingSpec(choose_hidden(forest, 2, 5))
    plain = run_learner(task, forest, _moments(forest, inj, m), inj, spec=spec)
    zeroed = run_learner(task, forest, _moments(forest, inj, m, forest.slack_ids), inj,
                         spec=spec)
    assert plain[0].parent == forest.parent
    assert _bits(plain) == _bits(zeroed)


def test_score_gives_struct_err_alone_without_both_injection_models():
    forest, inj = synth_feeder(preset("bus_13_3"), 4)
    _, parts = run_learner("learn", forest, population_moments(forest, inj), inj)
    assert score(forest, forest.parent, parts) == {"struct_err": 0.0}
    assert score(forest, forest.parent, {**parts, "inj_hat": None}, inj) == {"struct_err": 0.0}
    assert score(forest, {}, {}, inj) == {"struct_err": 1.0}
    want = {"struct_err": 0.0, **injection_errors(parts["inj_hat"], inj)}
    assert score(forest, forest.parent, parts, inj) == want


def test_fig5_cells_match_sampled_oracle(monkeypatch):
    # cells that take their moments from the draws score as cells that form
    # the samples and call from_samples; the oracle stands in for every
    # cell's moments, in process, and each cell's own moments match it to
    # rounding
    def struct_rows():
        report = run_experiment(fig5_config(seeds=(0, 1)))
        return [r for r in report.rows if r[3] == "struct_err"]

    def oracle(forest, inj, m, seed):
        want = sampled_moments(forest, inj, m, seed)
        got = from_draws(forest, inj, m, seed)
        for c in ("eps", "theta", "eps_theta"):
            b = want.full_cov(c)
            np.testing.assert_allclose(got.full_cov(c), b, rtol=0, atol=1e-12 * np.abs(b).max())
        for a, b in ((got.mu_eps, want.mu_eps), (got.mu_theta, want.mu_theta)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
        calls.append(seed)
        return want

    got = struct_rows()
    calls = []
    from_draws = experiments.empirical_moments
    _usable_cpus(monkeypatch, 1)  # the oracle is no function a worker can import
    monkeypatch.setattr(experiments, "empirical_moments", oracle)
    assert got == struct_rows()
    assert len(calls) == len(got)


# the cell function itself: a forked worker inherits the stand-in in its place
_RUN_CELL = experiments._run_cell


def _tracked_cell(outdir, main_pid, fail, forest, task, cell):
    """A ``_run_cell`` stand-in: leaves a file named by the pid of the process
    that runs the cell in ``outdir``, raises a RuntimeError, which is no
    GridForestError, at the cell whose (label, m) is ``fail``, and runs the
    cell.  A worker's cells wait, up to a minute, until a second process has
    run one, so two workers of a pool each run cells."""
    (outdir / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while os.getpid() != main_pid and len(os.listdir(outdir)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    if (cell[0], cell[2]) == fail:
        raise RuntimeError("a cell fails outside the learners")
    return _RUN_CELL(forest, task, cell)


def _track_cells(monkeypatch, outdir, fail=None):
    """Run the cells through ``_tracked_cell``, in ``outdir``."""
    outdir.mkdir()
    cell = functools.partial(_tracked_cell, outdir, os.getpid(), fail)
    monkeypatch.setattr(experiments, "_run_cell", cell)
    return outdir


def _runners(outdir):
    """The pids of the processes that ran cells through ``_tracked_cell``."""
    return {int(path.name) for path in outdir.iterdir()}


def _spy_on_this_process(monkeypatch):
    """The names of the draw, fold and learner calls made in this process."""
    calls = []
    for name in ("draw_moments", "fold_moments", "run_learner"):

        def spy(*args, _name=name, _real=getattr(experiments, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, spy)
    return calls


@_START_METHODS
@pytest.mark.parametrize("make_config", [fig4_config, fig5_config], ids=["fig4", "fig5"])
def test_pooled_and_in_process_sweeps_agree_bit_for_bit(
    monkeypatch, tmp_path, make_config, start_method
):
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    config = make_config(seeds=(0, 1))
    calls = _spy_on_this_process(monkeypatch)
    alone_cells = _track_cells(monkeypatch, tmp_path / "alone")
    _usable_cpus(monkeypatch, 1)
    alone = run_experiment(config)
    assert _runners(alone_cells) == {os.getpid()}  # every cell ran in process
    assert set(calls) == {"draw_moments", "fold_moments", "run_learner"}
    calls.clear()
    pooled_cells = _track_cells(monkeypatch, tmp_path / "pooled")
    _usable_cpus(monkeypatch, 2)
    pooled = run_experiment(config)
    workers = _runners(pooled_cells)
    assert len(workers) == 2 and os.getpid() not in workers  # two workers ran the cells
    assert calls == []  # and this process drew, folded and learned nothing
    assert repr(pooled.rows) == repr(alone.rows)
    assert pooled.failures == alone.failures


@_START_METHODS
@pytest.mark.parametrize(
    "fail", [None, ("learn-missing/h3", 400)], ids=["completes", "cell_raises"]
)
def test_no_worker_outlives_the_sweep(monkeypatch, tmp_path, fail, start_method):
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    threads = threading.active_count()
    cells = _track_cells(monkeypatch, tmp_path / "cells", fail)  # fails the third cell
    _usable_cpus(monkeypatch, 2)
    if fail is None:
        run_experiment(fig5_config(seeds=(0,)))
    else:
        with pytest.raises(RuntimeError, match="outside the learners"):
            run_experiment(fig5_config(seeds=(0,)))
    workers = _runners(cells)
    assert len(workers) == 2 and os.getpid() not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:  # joined, so reaped: the pid names no process
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert threading.active_count() == threads  # the pool's own threads are gone too


@_START_METHODS
def test_a_dead_worker_fails_the_sweep(monkeypatch, start_method):
    # a worker that dies (killed, out of memory) fails the sweep instead of
    # leaving it waiting for the lost results
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    monkeypatch.setattr(experiments, "_run_cell", die)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(fig5_config(seeds=(0,)))
    assert multiprocessing.active_children() == []
