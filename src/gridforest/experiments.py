"""Experiment harness: synthesize, simulate, learn, score, emit curve data.

A run sweeps a sample-count grid times a seed list (times a hidden-node
count list for missing-data studies).  Each cell redraws injection
statistics and samples, runs the selected learner, and scores the result
against the ground truth.  The learners read the samples only through their
means and covariances, so a cell takes those moments straight from the
standard draws (``empirical_moments``) and never forms the (m, n) voltage
matrices.  Learner failures are recorded per cell, never fatal.  Identical
configs produce byte-identical curves.csv files.

The cells are independent, and their draws are most of a sweep's time, so
``run_experiment`` lists the cells first and computes each cell's draw
statistics (``powerflow.draw_moments``, fixed by the cell's own seed) in a
pool of worker processes, one per usable CPU.  The fold through the
network's map, the learners and the scoring stay in this process and take
the cells in order: the fold needs the forest and its cached path-sum
matrix, which a worker would rebuild, and the report then does not depend
on the number of workers.  The draws run in process instead when fewer than
two CPUs are usable, the sweep has one cell, it uses population moments
(``analytic``; it draws nothing), or the platform cannot tell the usable
CPUs (``os.sched_getaffinity``) or lacks the start method.  Before Python
3.12 the workers are forked from this process; from 3.12 on a fork server
starts them, because ``os.fork`` then warns in a process with other
threads, as numpy's BLAS pool makes this one.

``run_learner`` is the one learner path: it maps a task (``learn``,
``learn-params``, ``learn-missing``) to its learner and holds the
learn-params tolerance default.  The sweep cells and the command line both
call it, and both take population moments from ``population_moments``.
"""

from __future__ import annotations

import contextlib
import os
import sys
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
from .powerflow import InjectionModel, analytic_moments, draw_moments, fold_moments
from .powerflow import sample_voltages  # unused here; perfbench's tracer wraps this name
from .structure import estimate_injection_stats, learn_structure
from .synth import FeederSpec, choose_hidden, draw_injections, synth_layout

TASKS = ("learn", "learn-params", "learn-missing")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    feeder: FeederSpec
    m_grid: tuple[int, ...]
    seeds: tuple[int, ...]
    layout_seed: int = 7
    missing_counts: tuple[int, ...] = ()
    analytic: bool = False

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


def fractional_error(estimate: np.ndarray, truth: np.ndarray, floor: float = 1e-300) -> float:
    """Mean |estimate - truth| / |truth| over entries."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.mean(np.abs(estimate - truth) / np.maximum(np.abs(truth), floor)))


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
    for (a, b), est in estimates.items():
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


def _observed(forest: RadialForest, momset: MomentSet, hidden) -> MomentSet:
    """The moments of the loads not in ``hidden``."""
    if not hidden:
        return momset
    hidden = set(hidden)
    return momset.restrict([i for i in forest.load_ids if i not in hidden])


def population_moments(forest: RadialForest, inj: InjectionModel, hidden=()) -> MomentSet:
    """Population moments of the loads not in ``hidden``, slacks as zero ids."""
    am = analytic_moments(forest, inj.for_nodes(forest.load_ids))
    return _observed(forest, MomentSet.from_analytic(am, zero_ids=forest.slack_ids), hidden)


def empirical_moments(
    forest: RadialForest, inj: InjectionModel, m: int, draws, hidden=()
) -> MomentSet:
    """Divisor-m moments of the ``m`` samples ``sample_voltages`` draws with a
    seed, of the loads not in ``hidden``, slacks as zero ids.  ``draws`` are
    that seed's standard-draw statistics, ``draw_moments(inj.distribution, m,
    forest.n_loads, seed)``; no sample is formed.
    """
    moments = fold_moments(forest, inj, *draws)
    momset = MomentSet(forest.load_ids, *moments, m=m, zero_ids=forest.slack_ids)
    return _observed(forest, momset, hidden)


def run_learner(
    task, momset, declared, params, inj, *, analytic, spec=None, tol_rel=None, estimate=True
):
    """Run ``task``'s learner; returns ``(forest, parts)``, where ``parts`` are
    the task's ``fileio.result_to_dict`` keywords (``inj_hat`` is None unless
    ``estimate``).  ``declared`` are the substation children, ``params`` the
    known line parameters, ``inj`` the known injection statistics and
    ``spec`` the hidden nodes.  With ``tol_rel`` None each learner takes its
    default; for learn-params that is 1e-9 on population moments
    (``analytic``) and 1e-6 on samples.
    """
    if task == "learn":
        forest, diag = learn_structure(
            momset, declared, line_params=params, return_diagnostics=True
        )
        inj_hat = estimate_injection_stats(momset, forest) if estimate else None
        return forest, dict(inj_hat=inj_hat, margins=diag.decisions)
    vp, vq, s = inj.as_maps()
    if task == "learn-params":
        if tol_rel is None:
            tol_rel = 1e-9 if analytic else 1e-6
        forest, estimates, diag = learn_structure_and_params(
            momset, vp, vq, declared, rel_tol=tol_rel, return_diagnostics=True
        )
        return forest, dict(edge_estimates=estimates, margins=diag.structure.decisions)
    forest, diag = learn_with_missing(momset, spec, vp, vq, s, params, declared, tol_rel=tol_rel)
    return forest, dict(events=diag.events)


# -- cells ------------------------------------------------------------------------------


# The pool takes the cells in chunks of consecutive cells, one chunk length
# per sweep: about _CHUNKS_PER_WORKER chunks per worker, so the work
# balances, and at most _CHUNK_BYTES of covariances, so a chunk's result
# message stays under glibc's default mmap threshold (128 kB).  A task per
# cell costs a round trip through the pool per cell, which took back most
# of the gain on a shared 2-CPU machine; larger messages grew this process's
# resident memory by 10-20 MB over a few sweeps.
_CHUNKS_PER_WORKER = 4
_CHUNK_BYTES = 96 << 10
# A forked worker imports nothing; one from a fork server imports the package
# on every sweep, which cost about 0.5 s of a 1.4 s fig4 + fig5 pass on
# Python 3.11.  From 3.12 on, os.fork warns in a process with other threads.
_START_METHOD = "fork" if sys.version_info < (3, 12) else "forkserver"


def _cell_draws(jobs, n: int):
    """``draw_moments(*job)`` for each job (all for n loads), in job order.

    With at least two usable CPUs and two jobs, a pool of one worker per
    usable CPU computes them; otherwise they run here, one by one.  A worker
    that dies fails the sweep (``BrokenProcessPool``).  The workers are shut
    down and joined when the generator finishes or is closed.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the CPUs this process may run on; 1 where the platform cannot tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers < 2 or _START_METHOD not in multiprocessing.get_all_start_methods():
        for job in jobs:
            yield draw_moments(*job)
        return
    length = min(_CHUNK_BYTES // (8 * (2 * n) ** 2), len(jobs) // (_CHUNKS_PER_WORKER * workers))
    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        yield from pool.map(draw_moments, *zip(*jobs), chunksize=max(1, length))


def run_experiment(config: ExperimentConfig, outdir=None) -> MetricsReport:
    """Sweep the grid, score each cell, optionally write curves.csv.

    The cells are listed first, in grid order.  Their draw statistics come
    from ``_cell_draws``, possibly in worker processes; each cell's fold,
    learner and scoring run here, in cell order, so the report does not
    depend on how many workers there were.
    """
    config.validate()
    forest = synth_layout(config.feeder, config.layout_seed)
    declared = forest.substation_children()
    params = line_param_map(forest.lines)
    report = MetricsReport()

    cells = []  # (task, inj, m, seed, sample seed, missing spec)
    for m in config.m_grid:
        for seed in config.seeds:
            inj = draw_injections(config.feeder, forest.load_ids, [config.layout_seed, seed])
            if config.task != "learn-missing":
                cells.append((config.task, inj, m, seed, [config.layout_seed, seed, m], None))
                continue
            for count in config.missing_counts:
                hidden = choose_hidden(forest, count, [config.layout_seed, seed, count])
                spec = MissingSpec.from_injections(hidden, inj)
                sample_seed = [config.layout_seed, seed, m, count]
                cells.append((f"learn-missing/h{count}", inj, m, seed, sample_seed, spec))

    def score(task, inj, m, seed, spec, momset):
        try:
            recovered, parts = run_learner(
                config.task, momset, declared, params, inj,
                analytic=config.analytic, spec=spec,
            )
        except GridForestError as exc:
            parent_map = getattr(exc, "parent_map", {})
            report.add(task, m, seed, "struct_err", structural_error(forest, parent_map))
            report.add(task, m, seed, "failed", 1.0)
            report.failures.append((task, m, seed, repr(exc)))
            return
        report.add(task, m, seed, "struct_err", structural_error(forest, recovered.parent))
        if "inj_hat" in parts:
            scores = injection_errors(parts["inj_hat"], inj)
        elif "edge_estimates" in parts:
            scores = line_errors(parts["edge_estimates"], forest)
        else:
            scores = {}
        for name, val in scores.items():
            report.add(task, m, seed, name, val)

    if config.analytic:
        for task, inj, m, seed, _sample_seed, spec in cells:
            hidden = spec.ids if spec else ()
            score(task, inj, m, seed, spec, population_moments(forest, inj, hidden))
    else:
        n = forest.n_loads
        jobs = [(inj.distribution, m, n, s) for (_t, inj, m, _s, s, _h) in cells]
        with contextlib.closing(_cell_draws(jobs, n)) as all_draws:
            for (task, inj, m, seed, _sample_seed, spec), draws in zip(cells, all_draws):
                hidden = spec.ids if spec else ()
                score(task, inj, m, seed, spec, empirical_moments(forest, inj, m, draws, hidden))

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        save_curves(outdir / "curves.csv", sorted(report.rows))
    return report


# -- canned reproductions ------------------------------------------------------------------


def fig4_config(seeds=tuple(range(24)), analytic=False) -> ExperimentConfig:
    """Error-decay study on the 13-load / 3-substation synthetic feeder."""
    from .synth import preset

    return ExperimentConfig(
        task="learn",
        feeder=preset("bus_13_3"),
        m_grid=(400, 1600, 6400, 25600),
        seeds=tuple(seeds),
        layout_seed=7,
        analytic=analytic,
    )


def fig5_config(seeds=tuple(range(24)), analytic=False) -> ExperimentConfig:
    """Missing-data study on the 29-load single-tree synthetic feeder."""
    from .synth import preset

    return ExperimentConfig(
        task="learn-missing",
        feeder=preset("bus_29_1"),
        m_grid=(400, 1600, 6400),
        seeds=tuple(seeds),
        layout_seed=11,
        missing_counts=(1, 2, 3),
        analytic=analytic,
    )


def reproduce_fig4(outdir, seeds=tuple(range(24))) -> MetricsReport:
    return run_experiment(fig4_config(seeds), outdir=outdir)


def reproduce_fig5(outdir, seeds=tuple(range(24))) -> MetricsReport:
    return run_experiment(fig5_config(seeds), outdir=outdir)
