import pytest

from gridforest import experiments
from gridforest.errors import InfeasibleSpec
from gridforest.experiments import (
    ExperimentConfig,
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
    # the samples and call from_samples
    def struct_rows():
        report = run_experiment(fig5_config(seeds=(0, 1)))
        return [r for r in report.rows if r[3] == "struct_err"]

    got = struct_rows()
    monkeypatch.setattr(experiments, "empirical_moments", sampled_moments)
    assert got == struct_rows()
