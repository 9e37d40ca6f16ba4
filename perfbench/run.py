#!/usr/bin/env python3
"""gridforest benchmark: run one workload (or all of them) and report.

Run from the root of a source checkout; gridforest is imported from ./src:

    python3 perfbench/run.py --workload learn_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics (tracing off). ``--trace 1``
alternates untraced and traced passes and reports per-layer self times and
exact counts, plus the tracing overhead. Every metric is printed by name with
its unit; the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Full results (environment,
pass times, raw errors, counts) go to perfbench/out/, and a traced run also
writes its spans there. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import envinfo
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("learn_wide", "chain_population", "paper_sweeps", "csv_cli")
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import gridforest, gridforest.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "struct_acc": "fraction",
    "stats_acc": "fraction",
    "cell_ok_frac": "fraction",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    units = {f"{name}.s": "s" for name in spans.SELF_TIMES}
    units.update({name: "count" for name in spans.COUNTERS})
    units["moments.sqdiff.repeat_ratio"] = "ratio"
    units["fileio.save_samples.mb_per_s"] = "MB/s"
    units["fileio.load_samples.mb_per_s"] = "MB/s"
    units.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the harness self-tests")
    return p.parse_args(argv)


def _import_package():
    """Import gridforest from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gridforest" / "__init__.py").is_file():
        raise ImportError(f"no gridforest sources under {src}")
    sys.path.insert(0, str(src))
    import gridforest

    if Path(gridforest.__file__).resolve().parent != (src / "gridforest").resolve():
        raise ImportError(f"gridforest imported from {gridforest.__file__}, not {src}")


def _import_seconds() -> float:
    """Median import time of the package in a fresh interpreter, as every
    command-line run pays it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def _measure(args, run_pass, inp):
    """Run passes for --seconds; returns per-pass records and the tracer."""
    null = spans.NullTracer()
    tracer = spans.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        rec = {"pass": i, "traced": traced, "problems": [], "accuracy": {}, "counts": {}}
        t0 = time.perf_counter()
        try:
            if traced:
                with spans.installed(tracer):
                    tracer.begin_pass(i)
                    res = run_pass(inp, tracer)
            else:
                res = run_pass(inp, null)
            rec["wall_s"] = time.perf_counter() - t0
            rec.update(accuracy=res.accuracy, counts=res.counts, problems=list(res.problems))
        except Exception:  # one failed pass is counted; the run goes on
            rec["wall_s"] = time.perf_counter() - t0
            rec["problems"].append("raised:\n" + traceback.format_exc())
        passes.append(rec)
        i += 1
        # Stop at the pass end nearest to --seconds.
        if time.perf_counter() - start + rec["wall_s"] / 2 >= args.seconds and i >= (
            2 if args.trace else 1
        ):
            return passes, tracer


def _check_counts(passes, traced_counts):
    """Exact counts must repeat between passes of the same inputs."""
    ref = passes[0]["counts"]
    for rec in passes[1:]:
        if rec["counts"] != ref:
            rec["problems"].append(f"counts {rec['counts']} differ from pass 0 {ref}")
    traced = [rec for rec in passes if rec["traced"]]
    for rec, counts in zip(traced[1:], traced_counts[1:]):
        if counts != traced_counts[0]:
            rec["problems"].append(f"traced counts {counts} differ from {traced_counts[0]}")


def _source_digest() -> str:
    """Digest of the package and benchmark sources that decide the counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "gridforest").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_earlier_run(tag: str, counts: dict) -> list:
    """Exact counts must also repeat between runs: compare with the last run
    of the same workload, seed and scale on the same sources, then record
    this one."""
    path = OUT / f"{tag}-counts.json"
    digest = _source_digest()
    problems = []
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source_digest"] == digest and earlier["counts"] != counts:
            problems.append(f"counts {counts} differ from an earlier run's {earlier['counts']}")
    path.write_text(json.dumps({"source_digest": digest, "counts": counts}, indent=1))
    return problems


def _summarise_untraced(passes, import_s, setup_times):
    acc = {}
    for key in ("struct_err", "stats_err", "line_err", "cell_fail_frac"):
        vals = [rec["accuracy"][key] for rec in passes if key in rec["accuracy"]]
        if vals:
            acc[key] = statistics.median(vals)
    metrics = {
        "pass_s": statistics.median(rec["wall_s"] for rec in passes),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "struct_acc": 1.0 - acc.get("struct_err", 1.0),
        "stats_acc": 1.0 - acc.get("stats_err", 1.0),
        "cell_ok_frac": 1.0 - acc.get("cell_fail_frac", 0.0),
    }
    return metrics, {"accuracy": acc}


def _summarise_traced(passes, tracer, workload):
    traced = [rec for rec in passes if rec["traced"]]
    layer, traced_counts = spans.layer_metrics(tracer, [rec["pass"] for rec in traced])
    _check_counts(passes, traced_counts)
    t_pass = statistics.median(rec["wall_s"] for rec in traced)
    u_pass = statistics.median(rec["wall_s"] for rec in passes if not rec["traced"])
    layer.update({"trace.pass_s": t_pass, "trace.untraced_pass_s": u_pass,
                  "trace.overhead_s": t_pass - u_pass})
    spans_path = OUT / f"{workload}-spans.csv"
    tracer.write(spans_path)
    details = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.start),
               "traced_counts": traced_counts[0]}
    return {name: layer[name] for name in per_layer_units()}, details


def run_one(args) -> int:
    blas_threads = envinfo.pin_blas_threads()
    try:
        _import_package()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT, blas_threads, args.workload, args.seed)

    setup, run_pass = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        import_s = _import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = setup(args.seed, args.scale, workdir)
            setup_times.append(time.perf_counter() - t0)
        passes, tracer = _measure(args, run_pass, inp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details = _summarise_traced(passes, tracer, args.workload)
        units = per_layer_units()
        counts = details["traced_counts"]
    else:
        _check_counts(passes, [])
        metrics, details = _summarise_untraced(passes, import_s, setup_times)
        units = END_TO_END_UNITS
        counts = passes[0]["counts"]
    passes[-1]["problems"] += _check_earlier_run(tag, counts)

    wall = [rec["wall_s"] for rec in passes]
    failed = sum(1 for rec in passes if rec["problems"])
    q1, q3 = _quartiles(wall)
    details.update(import_s=import_s, setup_repeats_s=setup_times, passes=len(passes),
                   pass_wall_s=wall, pass_q1_s=q1, pass_q3_s=q3,
                   op_fail_frac=failed / len(passes), counts=passes[0]["counts"],
                   problems={rec["pass"]: rec["problems"] for rec in passes if rec["problems"]})
    for rec in passes:
        for problem in rec["problems"]:
            print(f"perfbench: pass {rec['pass']} failed its check: {problem}", file=sys.stderr)

    result = {"environment": env, "scale": args.scale, "seconds": args.seconds,
              "trace": args.trace,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "details": details}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
          f"{len(passes)} passes, {failed} failed; pass wall q1/median/q3 = "
          f"{q1:.4f}/{statistics.median(wall):.4f}/{q3:.4f} s")
    print("# environment " + json.dumps(env))
    for key, val in details.get("accuracy", {}).items():
        print(f"{key} = {val:.6g} fraction (raw)")
    print(f"op_fail_frac = {failed / len(passes):.6g} fraction")
    for name, val in metrics.items():
        print(f"{name} = {val:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
