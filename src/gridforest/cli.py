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
import math
import sys
from pathlib import Path

from . import fileio
from .errors import (
    AssumptionViolated,
    BothRootsFeasible,
    GridForestError,
    IncompleteCover,
    MalformedJSON,
    NoConsistentPlacement,
    NoRealRoot,
    SingularSystem,
    UnknownNode,
    UnobservedNode,
)
from .experiments import (
    fig4_config,
    fig5_config,
    run_experiment,
    run_learner,
    score,
)
from .missing import validate_missing_spec
from .moments import MomentSet
from .powerflow import analytic_moments, sample_voltages
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


def _tol_rel(text: str) -> float:
    """--tol-rel: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(k: int):
    """An argparse type: an integer >= ``k``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = k - 1
        if value < k:
            raise argparse.ArgumentTypeError(f"must be an integer >= {k}, got {text!r}")
        return value

    return parse


def _moment_source(sp):
    """--data or --analytic: exactly one."""
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="samples CSV (omit with --analytic)")
    group.add_argument("--analytic", action="store_true", help="population-moment mode")


def _build_parser() -> _Parser:
    p = _Parser(prog="gridforest", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic feeder and injection model")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=("bus_13_3", "bus_29_1", "bus_83_11"))
    group.add_argument("--n", type=int, help="number of load nodes")
    sp.add_argument("--trees", type=int, help="number of substations (with --n; default 1)")
    sp.add_argument("--extra-lines", type=int, help="open tie lines to add (with --n; default 0)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="draw voltage samples from a network")
    sp.add_argument("--network", required=True)
    sp.add_argument("--inj", required=True)
    sp.add_argument("--samples", type=_int_at_least(2), required=True, help="sample count m")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("moments", help="dump empirical moments of a samples file")
    sp.add_argument("--data", required=True, help="samples CSV")
    sp.add_argument("--out", required=True, help="output JSON path")

    sp = sub.add_parser("learn", help="recover structure and injection statistics")
    sp.add_argument("--network", required=True, help="truth network (priors + scoring)")
    _moment_source(sp)
    sp.add_argument("--inj", help="true injection model (needed for --analytic)")
    sp.add_argument("--no-estimate", action="store_true", help="structure only")
    sp.add_argument("--out", required=True, help="result JSON path")

    sp = sub.add_parser("learn-params", help="recover structure and line parameters")
    sp.add_argument("--network", required=True)
    _moment_source(sp)
    sp.add_argument("--inj", required=True, help="known true injection variances")
    sp.add_argument("--tol-rel", type=_tol_rel, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("learn-missing", help="recover structure with hidden nodes")
    sp.add_argument("--network", required=True)
    _moment_source(sp)
    sp.add_argument("--inj", required=True, help="known true injection statistics")
    sp.add_argument("--missing", required=True, help="missing-spec JSON")
    sp.add_argument("--tol-rel", type=_tol_rel, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("eval", help="score a result file against a truth network")
    sp.add_argument("--result", required=True)
    sp.add_argument("--network", required=True)
    sp.add_argument("--inj", help="true injections for statistics errors")

    sp = sub.add_parser("reproduce-fig4", help="error-decay study (13-load feeder)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seeds", type=_int_at_least(1), default=24)

    sp = sub.add_parser("reproduce-fig5", help="missing-data study (29-load feeder)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seeds", type=_int_at_least(1), default=24)
    return p


def _load_network(path):
    """The --network forest at ``path``, which must hold a load node: every
    command that reads one works on its loads."""
    forest = fileio.load_network(path)
    if not forest.load_ids:
        raise MalformedJSON(path, "nodes", "network needs at least one load node")
    return forest


def _loads_only(path, data, network, what, hidden=()):
    """``data`` read from ``path``, whose ``node_ids`` must be the loads of
    ``network``; only the ``hidden`` loads may lack ``what``."""
    foreign = sorted(set(data.node_ids) - set(network.load_ids))
    if foreign:
        raise UnknownNode(f"{path}: node {foreign[0]} is not a load of the network")
    lacking = sorted(set(network.load_ids) - set(data.node_ids) - set(hidden))
    if lacking:
        raise UnobservedNode(f"{path}: no {what} for network load {lacking[0]}")
    return data


def _load_injection(path, network):
    """The --inj model at ``path``, whose nodes must be the loads of ``network``."""
    return _loads_only(path, fileio.load_injection(path), network, "injection statistics")


def _load_momset(args, forest, inj, hidden=()):
    """Population moments of ``inj`` (--analytic) or the moments of the
    --data samples, whose nodes must be the network's loads; the columns of
    the ``hidden`` ids may be absent.  learn-missing drops the hidden rows."""
    if args.analytic:
        if inj is None:
            raise CliConfigError("--analytic needs --inj")
        return analytic_moments(forest, inj)
    samples = _loads_only(args.data, fileio.load_samples(args.data), forest, "samples", hidden)
    return MomentSet.from_samples(samples)


def _cmd_synth(args) -> int:
    shape = {"n_trees": args.trees, "extra_lines": args.extra_lines}  # FeederSpec fields
    shape = {field: value for field, value in shape.items() if value is not None}
    if args.preset and shape:
        option = "--trees" if "n_trees" in shape else "--extra-lines"
        raise CliConfigError(f"argument {option}: not allowed with argument --preset")
    spec = preset(args.preset) if args.preset else FeederSpec(args.n, **shape)
    forest = synth_layout(spec, args.seed)
    inj = draw_injections(forest.load_ids, [args.seed, 1])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_network(out / "network.json", forest)
    fileio.save_injection(out / "injection.json", inj)
    print(f"wrote {out / 'network.json'} and {out / 'injection.json'}")
    return 0


def _cmd_simulate(args) -> int:
    forest = _load_network(args.network)
    inj = _load_injection(args.inj, forest)
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
    truth = _load_network(args.network)
    spec = None
    if args.command == "learn-missing":
        spec = fileio.load_missing(args.missing)
        violations = validate_missing_spec(truth, spec)
        if violations:
            raise AssumptionViolated(f"{args.missing}: {'; '.join(violations)}")
    inj = _load_injection(args.inj, truth) if args.inj else None
    momset = _load_momset(args, truth, inj, hidden=spec.ids if spec else ())
    estimate = not getattr(args, "no_estimate", False)
    # learn-missing reads eps only, so magnitude-only data is enough there
    if args.command != "learn-missing" and estimate and not momset.has_theta:
        what, hint = (
            ("statistics", "; pass --no-estimate to learn the structure only")
            if args.command == "learn" else ("line-parameter", "")
        )
        raise UnobservedNode(f"{args.data}: {what} estimation needs the theta channel, "
                             f"but the theta column is blank{hint}")
    forest, parts = run_learner(
        args.command, truth, momset, inj, spec=spec, tol_rel=getattr(args, "tol_rel", None),
        estimate=estimate,
    )
    metrics = score(truth, forest.parent, parts, inj)
    fileio.save_result(args.out, fileio.result_to_dict(forest, metrics=metrics, **parts))
    print(f"struct_err={metrics['struct_err']:.4f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    truth = _load_network(args.network)
    parent, parts = fileio.result_from_dict(fileio.load_result(args.result), args.result)
    inj = _load_injection(args.inj, truth) if args.inj else None
    metrics = score(truth, parent, parts, inj)
    print(json.dumps(metrics, indent=1))
    return 0


def _cmd_reproduce(args) -> int:
    """reproduce-fig4 and reproduce-fig5."""
    config = fig4_config if args.command == "reproduce-fig4" else fig5_config
    report = run_experiment(config(range(args.seeds)), args.out)
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
