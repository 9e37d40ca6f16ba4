"""Command-line front end.

Exit codes: 0 success; 1 configuration or input error, or an input that
breaks a learner's precondition (every GridForestError outside
LEARNER_ERRORS, a missing spec that breaks the hidden-node placement
assumptions included); 2 learner failure (LEARNER_ERRORS).  The README
lists the classes of each.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .errors import (
    AssumptionViolated,
    BothRootsFeasible,
    GridForestError,
    IncompleteCover,
    NoConsistentPlacement,
    NoRealRoot,
    SingularSystem,
    UnknownNode,
    UnobservedNode,
)
from .experiments import (
    injection_errors,
    population_moments,
    reproduce_fig4,
    reproduce_fig5,
    run_learner,
    structural_error,
)
from .missing import validate_missing_spec
from .moments import MomentSet
from .network import line_param_map
from .powerflow import sample_voltages
from .synth import FeederSpec, draw_injections, preset, synth_layout

LEARNER_ERRORS = (
    IncompleteCover,
    NoConsistentPlacement,
    NoRealRoot,
    BothRootsFeasible,
    SingularSystem,
)


class CliConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="gridforest", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic feeder and injection model")
    sp.add_argument("--preset", choices=("bus_13_3", "bus_29_1", "bus_83_11"))
    sp.add_argument("--n", type=int, help="number of load nodes")
    sp.add_argument("--trees", type=int, default=1, help="number of substations")
    sp.add_argument("--extra-lines", type=int, default=0, help="open tie lines to add")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="draw voltage samples from a network")
    sp.add_argument("--network", required=True)
    sp.add_argument("--inj", required=True)
    sp.add_argument("--samples", type=int, required=True, help="sample count m")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("moments", help="dump empirical moments of a samples file")
    sp.add_argument("--data", required=True, help="samples CSV")
    sp.add_argument("--out", required=True, help="output JSON path")

    sp = sub.add_parser("learn", help="recover structure and injection statistics")
    sp.add_argument("--network", required=True, help="truth network (priors + scoring)")
    sp.add_argument("--data", help="samples CSV (omit with --analytic)")
    sp.add_argument("--inj", help="true injection model (needed for --analytic)")
    sp.add_argument("--analytic", action="store_true", help="population-moment mode")
    sp.add_argument("--no-estimate", action="store_true", help="structure only")
    sp.add_argument("--out", required=True, help="result JSON path")

    sp = sub.add_parser("learn-params", help="recover structure and line parameters")
    sp.add_argument("--network", required=True)
    sp.add_argument("--data", help="samples CSV (omit with --analytic)")
    sp.add_argument("--inj", required=True, help="known true injection variances")
    sp.add_argument("--analytic", action="store_true")
    sp.add_argument("--tol-rel", type=float, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("learn-missing", help="recover structure with hidden nodes")
    sp.add_argument("--network", required=True)
    sp.add_argument("--data", help="samples CSV of the observed nodes")
    sp.add_argument("--inj", required=True, help="known true injection statistics")
    sp.add_argument("--missing", required=True, help="missing-spec JSON")
    sp.add_argument("--analytic", action="store_true")
    sp.add_argument("--tol-rel", type=float, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("eval", help="score a result file against a truth network")
    sp.add_argument("--result", required=True)
    sp.add_argument("--network", required=True)
    sp.add_argument("--inj", help="true injections for statistics errors")

    sp = sub.add_parser("reproduce-fig4", help="error-decay study (13-load feeder)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seeds", type=int, default=24)

    sp = sub.add_parser("reproduce-fig5", help="missing-data study (29-load feeder)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seeds", type=int, default=24)
    return p


def _load_momset(args, forest, inj, hidden=()):
    """Moments of the network's loads less the ``hidden`` ids: population
    moments of ``inj`` (--analytic) or those of the --data samples, whose
    nodes must be exactly those loads (the hidden ids may also be absent)."""
    if args.analytic:
        if inj is None:
            raise CliConfigError("--analytic needs --inj")
        return population_moments(forest, inj, hidden)
    if not args.data:
        raise CliConfigError("need --data unless --analytic")
    samples = fileio.load_samples(args.data)
    observed, loads = set(samples.node_ids), set(forest.load_ids)
    foreign = sorted(observed - loads)
    if foreign:
        raise UnknownNode(f"{args.data}: node {foreign[0]} is not a load of the network")
    unobserved = sorted(loads - observed - set(hidden))
    if unobserved:
        raise UnobservedNode(f"{args.data}: no samples for network load {unobserved[0]}")
    return MomentSet.from_samples(samples, zero_ids=forest.slack_ids)


def _cmd_synth(args) -> int:
    if args.preset:
        spec = preset(args.preset)
    elif args.n:
        spec = FeederSpec(n_loads=args.n, n_trees=args.trees, extra_lines=args.extra_lines)
    else:
        raise CliConfigError("need --preset or --n")
    forest = synth_layout(spec, args.seed)
    inj = draw_injections(spec, forest.load_ids, [args.seed, 1])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_network(out / "network.json", forest)
    fileio.save_injection(out / "injection.json", inj)
    print(f"wrote {out / 'network.json'} and {out / 'injection.json'}")
    return 0


def _cmd_simulate(args) -> int:
    forest = fileio.load_network(args.network)
    inj = fileio.load_injection(args.inj)
    samples = sample_voltages(forest, inj, args.samples, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_samples(out / "samples.csv", samples)
    print(f"wrote {out / 'samples.csv'} ({samples.m} samples, {len(samples.node_ids)} nodes)")
    return 0


def _cmd_moments(args) -> int:
    samples = fileio.load_samples(args.data)
    ms = MomentSet.from_samples(samples)
    Path(args.out).write_text(json.dumps(ms.to_dict(), indent=1))
    print(f"wrote {args.out}")
    return 0


def _cmd_learn(args) -> int:
    """learn, learn-params and learn-missing: load, learn, score, save."""
    truth = fileio.load_network(args.network)
    spec = None
    if args.command == "learn-missing":
        spec = fileio.load_missing(args.missing)
        foreign = sorted(set(spec.ids) - set(truth.load_ids))
        if foreign:
            raise UnknownNode(
                f"{args.missing}: hidden node {foreign[0]} is not a load of the network"
            )
        violations = validate_missing_spec(truth, spec)
        if violations:
            raise AssumptionViolated(f"{args.missing}: {'; '.join(violations)}")
    inj = fileio.load_injection(args.inj) if args.inj else None
    momset = _load_momset(args, truth, inj, hidden=spec.ids if spec else ())
    forest, parts = run_learner(
        args.command, momset, truth.substation_children(), line_param_map(truth.lines), inj,
        analytic=args.analytic, spec=spec, tol_rel=getattr(args, "tol_rel", None),
        estimate=not getattr(args, "no_estimate", False),
    )
    metrics = {"struct_err": structural_error(truth, forest.parent)}
    if parts.get("inj_hat") is not None and inj is not None:
        metrics.update(injection_errors(parts["inj_hat"], inj))
    fileio.save_result(args.out, fileio.result_to_dict(forest, metrics=metrics, **parts))
    print(f"struct_err={metrics['struct_err']:.4f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    truth = fileio.load_network(args.network)
    parent, inj_hat = fileio.result_from_dict(fileio.load_result(args.result), args.result)
    metrics = {"struct_err": structural_error(truth, parent)}
    if args.inj and inj_hat is not None:
        metrics.update(injection_errors(inj_hat, fileio.load_injection(args.inj)))
    print(json.dumps(metrics, indent=1))
    return 0


def _cmd_reproduce(args) -> int:
    """reproduce-fig4 and reproduce-fig5."""
    run = reproduce_fig4 if args.command == "reproduce-fig4" else reproduce_fig5
    report = run(args.out, seeds=tuple(range(args.seeds)))
    for key, val in report.aggregates().items():
        print(f"{key}: {val:.5f}")
    for (task, m), (failed, cells) in report.failures_per_cell().items():
        print(f"{task}|m={m}|failed: {failed} of {cells}")
    failed = ", ".join(f"{cls}={n}" for cls, n in report.failure_counts().items())
    print(f"failed cells: {failed or 0}")
    print(f"wrote {Path(args.out) / 'curves.csv'}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "learn": _cmd_learn,
    "learn-params": _cmd_learn,
    "learn-missing": _cmd_learn,
    "eval": _cmd_eval,
    "reproduce-fig4": _cmd_reproduce,
    "reproduce-fig5": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LEARNER_ERRORS as exc:
        print(f"learner failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError, GridForestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
