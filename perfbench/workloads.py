"""The four benchmark workloads, driven through gridforest's public functions.

Each workload has a ``setup(seed, scale, workdir)`` that makes its inputs
from the seed, and a ``run_pass(inputs, tracer)`` that runs one cold pass and
returns its accuracy figures, exact counts and output-check problems.

Cold start: every pass rebuilds the ``RadialForest`` from its nodes and lines
and builds a fresh ``MomentSet``, because a command-line user pays the
path-sum matrices and the pair memo on every run.

Package callables are looked up through their module at call time, so the
tracer's wrappers (see spans.py) see every call the workloads make.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import gridforest.cli as cli
import gridforest.experiments as experiments
import gridforest.lines as lines
import gridforest.network as network
import gridforest.powerflow as powerflow
import gridforest.structure as structure
import gridforest.synth as synth
from gridforest.moments import MomentSet

from spans import CELL_FAILURE_CLASSES

# Sizes per scale. "full" is what the benchmark measures; "tiny" is for the
# harness self-tests only.
SIZES = {
    "full": {
        "learn_wide": dict(n_loads=500, n_trees=5, extra_lines=250, m=2000),
        "chain_population": dict(n_loads=600),
        "paper_sweeps": dict(seeds=None, m_grid4=None, m_grid5=None),
        "csv_cli": dict(preset="bus_83_11", samples=6400),
    },
    "tiny": {
        "learn_wide": dict(n_loads=40, n_trees=2, extra_lines=10, m=400),
        "chain_population": dict(n_loads=12),
        "paper_sweeps": dict(seeds=(0, 1), m_grid4=(400,), m_grid5=(1600,)),
        "csv_cli": dict(preset="bus_13_3", samples=200),
    },
}


# Population moments are exact, so the learners' statistics and line
# parameters must round-trip to rounding error. Seen on the 600-deep chain:
# stats_err about 5e-8, line_err about 5e-10.
POPULATION_TOL = 1e-6


@dataclasses.dataclass
class PassResult:
    accuracy: dict  # struct_err, stats_err, line_err, cell_fail_frac
    counts: dict  # exact counts known without tracing
    problems: list  # output-check failures; empty when the pass is correct


def _raw(forest):
    """Nodes and lines from which each pass rebuilds a cold forest."""
    nodes = [network.Node(i, role) for i, role in sorted(forest.nodes.items())]
    return nodes, tuple(forest.lines)


def _stats_err(inj_hat, inj) -> float:
    return max(experiments.injection_errors(inj_hat, inj).values())


def _finite_problems(accuracy: dict) -> list:
    return [f"{k} is not finite ({v})" for k, v in accuracy.items() if not math.isfinite(v)]


# -- learn_wide: empirical learn on a bushy 500-load feeder ------------------------------


def setup_learn_wide(seed, scale, workdir):
    sz = SIZES[scale]["learn_wide"]
    spec = synth.FeederSpec(
        n_loads=sz["n_loads"], n_trees=sz["n_trees"], extra_lines=sz["extra_lines"]
    )
    forest, inj = synth.synth_feeder(spec, seed)
    samples = powerflow.sample_voltages(forest, inj, sz["m"], [seed, 1])
    nodes, line_list = _raw(forest)
    return dict(nodes=nodes, lines=line_list, inj=inj, samples=samples)


def run_learn_wide(inp, tracer) -> PassResult:
    truth = network.build_forest(inp["nodes"], inp["lines"])
    momset = MomentSet.from_samples(inp["samples"], zero_ids=truth.slack_ids)
    recovered = structure.learn_structure(
        momset, truth.substation_children(), line_params=network.line_param_map(truth.lines)
    )
    inj_hat = structure.estimate_injection_stats(momset, recovered)
    acc = {
        "struct_err": experiments.structural_error(truth, recovered.parent),
        "stats_err": _stats_err(inj_hat, inp["inj"]),
    }
    return PassResult(acc, {}, _finite_problems(acc))


# -- chain_population: population mode on one 600-deep chain ----------------------------


def setup_chain_population(seed, scale, workdir):
    sz = SIZES[scale]["chain_population"]
    spec = synth.FeederSpec(
        n_loads=sz["n_loads"], n_trees=1, chain_bias=1.0, max_children=1
    )
    forest, inj = synth.synth_feeder(spec, seed)
    nodes, line_list = _raw(forest)
    return dict(nodes=nodes, lines=line_list, inj=inj)


def run_chain_population(inp, tracer) -> PassResult:
    truth = network.build_forest(inp["nodes"], inp["lines"])
    inj = inp["inj"]
    am = powerflow.analytic_moments(truth, inj)
    momset = MomentSet.from_analytic(am, zero_ids=truth.slack_ids)
    declared = truth.substation_children()
    recovered = structure.learn_structure(
        momset, declared, line_params=network.line_param_map(truth.lines)
    )
    inj_hat = structure.estimate_injection_stats(momset, recovered)
    vp, vq, _ = inj.as_maps()
    with_params, estimates = lines.learn_structure_and_params(
        momset, vp, vq, declared, rel_tol=1e-9
    )
    err1 = experiments.structural_error(truth, recovered.parent)
    err2 = experiments.structural_error(truth, with_params.parent)
    acc = {
        "struct_err": (err1 + err2) / 2,
        "stats_err": _stats_err(inj_hat, inj),
        "line_err": max(experiments.line_errors(estimates, truth).values()),
    }
    problems = _finite_problems(acc)
    if err1 or err2:
        problems.append(f"population pass missed the true forest ({err1}, {err2})")
    for key in ("stats_err", "line_err"):
        if not acc[key] <= POPULATION_TOL:
            problems.append(f"population {key} {acc[key]:.3g} above {POPULATION_TOL}")
    return PassResult(acc, {}, problems)


# -- paper_sweeps: the committed fig4 and fig5 reproductions -----------------------------


def setup_paper_sweeps(seed, scale, workdir):
    # The sweeps are the paper's own configs, exactly as committed: the seed
    # is recorded but does not change them.
    sz = SIZES[scale]["paper_sweeps"]
    fig4 = experiments.fig4_config()
    fig5 = experiments.fig5_config()
    if sz["seeds"] is not None:
        fig4 = dataclasses.replace(fig4, seeds=sz["seeds"], m_grid=sz["m_grid4"])
        fig5 = dataclasses.replace(fig5, seeds=sz["seeds"], m_grid=sz["m_grid5"])
    return dict(fig4=fig4, fig5=fig5)


def _failure_class(rec) -> str:
    cls = rec[3].split("(", 1)[0]
    return cls if cls in CELL_FAILURE_CLASSES else "other"


def run_paper_sweeps(inp, tracer) -> PassResult:
    with tracer.span("experiments.fig4"):
        r4 = experiments.run_experiment(inp["fig4"])
    with tracer.span("experiments.fig5"):
        r5 = experiments.run_experiment(inp["fig5"])
    rows = r4.rows + r5.rows
    struct = [v for (_t, _m, _s, met, v) in rows if met == "struct_err"]
    failures = r4.failures + r5.failures
    counts = {"experiments.cells": len(struct)}
    for cls in CELL_FAILURE_CLASSES:
        counts[f"experiments.cell_failures.{cls}"] = sum(
            _failure_class(f) == cls for f in failures
        )
    for name, n in counts.items():
        tracer.count(name, n)
    stats_names = ("mu_p_err", "mu_q_err", "omega_p_err", "omega_q_err", "omega_pq_err")
    stats = {
        name: [v for (_t, _m, _s, met, v) in r4.rows if met == name] for name in stats_names
    }
    acc = {
        "struct_err": sum(struct) / len(struct),
        "stats_err": max(sum(v) / len(v) for v in stats.values()),
        "cell_fail_frac": len(failures) / len(struct),
    }
    problems = _finite_problems(acc)
    expected = len(inp["fig4"].m_grid) * len(inp["fig4"].seeds) + len(
        inp["fig5"].m_grid
    ) * len(inp["fig5"].seeds) * len(inp["fig5"].missing_counts)
    if len(struct) != expected:
        problems.append(f"{len(struct)} cells scored, expected {expected}")
    return PassResult(acc, counts, problems)


# -- csv_cli: simulate to CSV, then learn from it, through the command line --------------


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup_csv_cli(seed, scale, workdir):
    sz = SIZES[scale]["csv_cli"]
    indir = Path(workdir) / "inputs"
    code = _cli(["synth", "--preset", sz["preset"], "--seed", str(seed), "--out", str(indir)])
    if code != 0:
        raise RuntimeError(f"gridforest synth exited {code}")
    return dict(
        network=str(indir / "network.json"),
        inj=str(indir / "injection.json"),
        samples=sz["samples"],
        seed=seed,
        passdir=Path(workdir) / "pass",
    )


def run_csv_cli(inp, tracer) -> PassResult:
    passdir = inp["passdir"]
    shutil.rmtree(passdir, ignore_errors=True)  # so a stale result cannot pass the check
    result = passdir / "result.json"
    with tracer.span("cli.simulate"):
        sim = _cli(
            ["simulate", "--network", inp["network"], "--inj", inp["inj"],
             "--samples", str(inp["samples"]), "--seed", str(inp["seed"]),
             "--out", str(passdir)]
        )
    with tracer.span("cli.learn"):
        learn = _cli(
            ["learn", "--network", inp["network"], "--data", str(passdir / "samples.csv"),
             "--inj", inp["inj"], "--out", str(result)]
        )
    problems = [f"{cmd} exited {code}" for cmd, code in (("simulate", sim), ("learn", learn)) if code]
    acc = {"struct_err": math.nan, "stats_err": math.nan}
    if result.is_file():
        metrics = json.loads(result.read_text())["metrics"]
        acc["struct_err"] = metrics["struct_err"]
        acc["stats_err"] = max(v for k, v in metrics.items() if k != "struct_err")
    else:
        problems.append("learn wrote no result JSON")
    problems += _finite_problems(acc)
    return PassResult(acc, {}, problems)


WORKLOADS = {
    "learn_wide": (setup_learn_wide, run_learn_wide),
    "chain_population": (setup_chain_population, run_chain_population),
    "paper_sweeps": (setup_paper_sweeps, run_paper_sweeps),
    "csv_cli": (setup_csv_cli, run_csv_cli),
}
