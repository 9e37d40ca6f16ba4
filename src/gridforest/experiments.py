"""Experiment harness: synthesize, simulate, learn, score, emit curve data.

A run sweeps a sample-count grid times a seed list (times a hidden-node
count list for missing-data studies).  Each cell redraws injection
statistics and samples, runs the selected learner, and scores the result
against the ground truth.  The learners read the samples only through their
means and covariances, so a cell takes those moments straight from the
standard draws (``empirical_moments``) and never forms the (m, n) voltage
matrices.  Learner failures are recorded per cell, never fatal.  Identical
configs produce byte-identical curves.csv files.

The cells are independent, so ``run_experiment`` lists them first and maps
``_run_cell`` over them, which draws, learns and scores one cell from the
forest, the task and the cell alone.  ``parallel.ordered_map`` runs them, in
chunks of consecutive cells, in a pool of worker processes (one per usable
CPU, a cgroup CPU quota counted) or in process, and the report takes their
results in cell order, so it does not depend on the number of workers.

``run_learner`` is the one learner path: it maps a task (``learn``,
``learn-params``, ``learn-missing``) to its learner, reads the priors
(substation children, line parameters) from the network and drops the
hidden nodes' rows of the moments for learn-missing.  Each learner keeps
its own tolerance default, which follows the moments: population moments
(``m`` None) or samples.  ``score`` turns its result into the metrics.  The
sweep cells and the command line both call the two with the plain moments
of every load (the learners register the slacks), and both take population
moments from ``population_moments``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GridForestError, InfeasibleSpec
from .fileio import save_curves
from .lines import learn_structure_and_params
from .missing import MissingSpec, learn_with_missing
from .moments import MomentSet
from .network import RadialForest, line_param_map
from .parallel import ordered_map, usable_cpus
from .powerflow import InjectionModel, analytic_moments, draw_moments, fold_moments
from .powerflow import sample_voltages  # unused here; perfbench's tracer wraps this name
from .structure import StructureDiagnostics, check_fluctuating, estimate_injection_stats
from .structure import learn_structure
from .synth import FeederSpec, choose_hidden, draw_injections, synth_layout

TASKS = ("learn", "learn-params", "learn-missing")
_FRACTION_FLOOR = 1e-300  # the least |truth| fractional_error divides by


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    feeder: FeederSpec
    m_grid: tuple[int, ...]
    seeds: tuple[int, ...]
    layout_seed: int = 7
    missing_counts: tuple[int, ...] = ()

    def validate(self):
        if self.task not in TASKS:
            raise InfeasibleSpec(f"unknown task {self.task!r}")
        if not self.m_grid or any(m < 2 for m in self.m_grid):
            raise InfeasibleSpec("sample grid must be non-empty with all m >= 2")
        if not self.seeds:
            raise InfeasibleSpec("need at least one seed")
        if self.task == "learn-missing" and not self.missing_counts:
            raise InfeasibleSpec("learn-missing needs missing_counts")


@dataclass
class MetricsReport:
    rows: list[tuple] = field(default_factory=list)  # (task, m, seed, metric, value)
    failures: list[tuple] = field(default_factory=list)  # (task, m, seed, repr(exc))

    def add(self, task, m, seed, metric, value):
        self.rows.append((task, int(m), int(seed), metric, float(value)))

    def aggregate(self, task, m, metric) -> float:
        vals = [
            v
            for (t, mm, _s, met, v) in self.rows
            if t == task and mm == m and met == metric
        ]
        if not vals:
            raise KeyError(f"no rows for ({task}, {m}, {metric})")
        return float(np.mean(vals))

    def failure_counts(self) -> dict[str, int]:
        """Failed cells by exception class, in name order."""
        return dict(sorted(Counter(f[3].split("(", 1)[0] for f in self.failures).items()))

    def failures_per_cell(self) -> dict[tuple[str, int], tuple[int, int]]:
        """(failed, scored) cell counts per (task, m), in key order."""
        scored = Counter((t, m) for (t, m, _s, met, _v) in self.rows if met == "struct_err")
        failed = Counter((t, m) for (t, m, _s, _e) in self.failures)
        return {key: (failed[key], n) for key, n in sorted(scored.items())}

    def aggregates(self) -> dict:
        """Mean of every metric per (task, m), except the per-cell ``failed``
        flag, which ``failures_per_cell`` counts instead."""
        keys = sorted({(t, m, met) for (t, m, _s, met, _v) in self.rows if met != "failed"})
        return {f"{t}|m={m}|{met}": self.aggregate(t, m, met) for (t, m, met) in keys}


# -- metrics -------------------------------------------------------------------------


def structural_error(truth: RadialForest, recovered_parent: dict[int, int]) -> float:
    """Fraction of load nodes whose recovered parent differs from the truth.

    Nodes absent from the recovery count as wrong.
    """
    wrong = 0
    for a in truth.load_ids:
        if recovered_parent.get(a) != truth.parent[a]:
            wrong += 1
    return wrong / truth.n_loads


def fractional_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Mean |estimate - truth| / |truth| over entries."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.mean(np.abs(estimate - truth) / np.maximum(np.abs(truth), _FRACTION_FLOOR)))


def injection_errors(inj_hat: InjectionModel, inj: InjectionModel) -> dict[str, float]:
    inj = inj.for_nodes(inj_hat.node_ids)
    return {
        "mu_p_err": fractional_error(inj_hat.mu_p, inj.mu_p),
        "mu_q_err": fractional_error(inj_hat.mu_q, inj.mu_q),
        "omega_p_err": fractional_error(inj_hat.var_p, inj.var_p),
        "omega_q_err": fractional_error(inj_hat.var_q, inj.var_q),
        "omega_pq_err": fractional_error(inj_hat.cov_pq, inj.cov_pq),
    }


def line_errors(estimates, truth: RadialForest) -> dict[str, float]:
    params = line_param_map(truth.lines)
    rerrs, xerrs = [], []
    for (a, b), est in sorted(estimates.items()):  # a result file's order
        key = (a, b) if a < b else (b, a)
        if key not in params:
            continue
        r, x = params[key]
        rerrs.append(abs(est.r_hat - r) / r)
        xerrs.append(abs(est.x_hat - x) / x)
    return {
        "r_err": float(np.mean(rerrs)) if rerrs else 1.0,
        "x_err": float(np.mean(xerrs)) if xerrs else 1.0,
    }


# -- the learner path -------------------------------------------------------------------


def population_moments(forest: RadialForest, inj: InjectionModel) -> MomentSet:
    """Population moments of the loads."""
    return MomentSet.from_analytic(analytic_moments(forest, inj))


def empirical_moments(forest: RadialForest, inj: InjectionModel, m: int, seed) -> MomentSet:
    """Divisor-m moments of the ``m`` samples ``sample_voltages`` draws with
    ``seed``, folded from the draws' own statistics (``draw_moments``); no
    sample is formed.
    """
    draws = draw_moments(inj.distribution, m, forest.n_loads, seed)
    return MomentSet(forest.load_ids, *fold_moments(forest, inj, *draws), m=m)


def run_learner(task, network, momset, inj, *, spec=None, tol_rel=None, estimate=True):
    """Run ``task``'s learner; returns ``(forest, parts)``, where ``parts`` are
    the task's ``fileio.result_to_dict`` keywords (``inj_hat`` is None unless
    ``estimate``) and ``score`` scores them.  The priors come from
    ``network``: its substation children and its line parameters.  ``inj``
    are the known injection statistics and ``spec`` the hidden nodes, whose
    rows of ``momset`` learn-missing drops.  Population moments are those
    with ``momset.m`` None.  With ``tol_rel`` None each learner takes its
    default.  The learners register the slacks themselves.
    """
    declared, params = network.substation_children(), line_param_map(network.lines)
    diag = StructureDiagnostics()
    if task == "learn":
        if momset.m is None:  # such moments give a wrong forest, with no error
            check_fluctuating(*inj.as_maps()[:2], momset.node_ids)
        forest = learn_structure(momset, declared, line_params=params, diagnostics=diag)
        inj_hat = estimate_injection_stats(momset, forest) if estimate else None
        return forest, dict(inj_hat=inj_hat, margins=diag.decisions)
    vp, vq, s = inj.as_maps()
    if task == "learn-params":
        forest, estimates = learn_structure_and_params(
            momset, vp, vq, declared, rel_tol=tol_rel, diagnostics=diag
        )
        return forest, dict(edge_estimates=estimates, margins=diag.decisions)
    hidden = set(spec.ids)
    momset = momset.restrict([i for i in momset.node_ids if i not in hidden])
    forest, diag = learn_with_missing(momset, spec, vp, vq, s, params, declared, tol_rel=tol_rel)
    return forest, dict(events=diag.events)


def score(truth: RadialForest, parent, parts, inj: InjectionModel | None = None) -> dict:
    """Metrics of a ``run_learner`` result: ``struct_err``, then the injection
    errors if ``parts`` hold an ``inj_hat`` and ``inj`` is given, and the line
    errors if they hold ``edge_estimates``."""
    metrics = {"struct_err": structural_error(truth, parent)}
    if parts.get("inj_hat") is not None and inj is not None:
        metrics.update(injection_errors(parts["inj_hat"], inj))
    if "edge_estimates" in parts:
        metrics.update(line_errors(parts["edge_estimates"], truth))
    return metrics


# -- cells ------------------------------------------------------------------------------


# The pool takes the cells in chunks of consecutive cells, one chunk length
# per sweep: about _CHUNKS_PER_WORKER chunks per worker, so the work
# balances.  A task per cell costs a round trip through the pool per cell,
# which took back most of the gain on a shared 2-CPU machine.
_CHUNKS_PER_WORKER = 4


def _run_cell(forest: RadialForest, task: str, cell) -> tuple[str | None, dict]:
    """Draw, learn and score one cell of a ``task`` sweep on ``forest``:
    ``(failure, metrics)``, where ``failure`` is the repr of the learner's
    GridForestError, or None if it returned."""
    _label, inj, m, _seed, sample_seed, spec = cell
    momset = empirical_moments(forest, inj, m, sample_seed)
    try:
        recovered, parts = run_learner(task, forest, momset, inj, spec=spec)
    except GridForestError as exc:
        return repr(exc), {**score(forest, getattr(exc, "parent_map", {}), {}), "failed": 1.0}
    return None, score(forest, recovered.parent, parts, inj)


def _run_chunk(run, chunk) -> list:
    """``run`` of each cell of ``chunk``: one task of the pool."""
    return [run(cell) for cell in chunk]


def _map_cells(run, cells) -> list:
    """``run`` of each cell, in cell order, through ``parallel.ordered_map``
    over chunks of consecutive cells."""
    length = max(1, len(cells) // (_CHUNKS_PER_WORKER * usable_cpus()))
    chunks = [cells[k : k + length] for k in range(0, len(cells), length)]
    results = ordered_map(functools.partial(_run_chunk, run), chunks)
    return [out for chunk in results for out in chunk]


def run_experiment(config: ExperimentConfig, outdir=None) -> MetricsReport:
    """Sweep the grid, score each cell, optionally write curves.csv.

    The cells are listed first, in grid order, and run by ``_map_cells``,
    possibly in worker processes; the report takes their results in cell
    order.
    """
    config.validate()
    forest = synth_layout(config.feeder, config.layout_seed)
    report = MetricsReport()

    cells = []  # (task, inj, m, seed, sample seed, missing spec)
    for m in config.m_grid:
        for seed in config.seeds:
            inj = draw_injections(forest.load_ids, [config.layout_seed, seed])
            if config.task != "learn-missing":
                cells.append((config.task, inj, m, seed, [config.layout_seed, seed, m], None))
                continue
            for count in config.missing_counts:
                spec = MissingSpec(choose_hidden(forest, count, [config.layout_seed, seed, count]))
                sample_seed = [config.layout_seed, seed, m, count]
                cells.append((f"learn-missing/h{count}", inj, m, seed, sample_seed, spec))

    run = functools.partial(_run_cell, forest, config.task)
    for (task, _inj, m, seed, _s, _h), (failure, metrics) in zip(cells, _map_cells(run, cells)):
        if failure is not None:
            report.failures.append((task, m, seed, failure))
        for name, val in metrics.items():
            report.add(task, m, seed, name, val)

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        save_curves(outdir / "curves.csv", sorted(report.rows))
    return report


# -- canned reproductions ------------------------------------------------------------------


def fig4_config(seeds=tuple(range(24))) -> ExperimentConfig:
    """Error-decay study on the 13-load / 3-substation synthetic feeder."""
    from .synth import preset

    return ExperimentConfig(
        task="learn",
        feeder=preset("bus_13_3"),
        m_grid=(400, 1600, 6400, 25600),
        seeds=tuple(seeds),
        layout_seed=7,
    )


def fig5_config(seeds=tuple(range(24))) -> ExperimentConfig:
    """Missing-data study on the 29-load single-tree synthetic feeder."""
    from .synth import preset

    return ExperimentConfig(
        task="learn-missing",
        feeder=preset("bus_29_1"),
        m_grid=(400, 1600, 6400),
        seeds=tuple(seeds),
        layout_seed=11,
        missing_counts=(1, 2, 3),
    )

