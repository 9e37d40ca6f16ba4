"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- self-time arithmetic ------------------------------------------------------------------


def test_self_times_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_times_counts_overlapping_children_once_and_clips():
    # children [1, 4] and [3, 6] cover [1, 6]; [9, 12] is clipped to [9, 10]
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parent_and_pass():
    tr = spans.Tracer()
    tr.begin_pass(3)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert list(tr.parent) == [-1, 0]
    assert list(tr.pass_of) == [3, 3]
    per = tr.per_pass()[3]
    assert set(per["self_s"]) == {"outer", "inner"}
    assert per["counts"]["moments.sqdiff.calls"] == 0


def test_installed_wrappers_are_removed_on_exit():
    import gridforest.experiments as experiments
    import gridforest.powerflow as powerflow
    from gridforest.moments import MomentSet

    before = (experiments.sample_voltages, powerflow.sample_voltages, MomentSet.sqdiff,
              MomentSet.__dict__["from_samples"])
    with spans.installed(spans.Tracer()):
        assert experiments.sample_voltages is not before[0]
        assert experiments.sample_voltages is powerflow.sample_voltages
    after = (experiments.sample_voltages, powerflow.sample_voltages, MomentSet.sqdiff,
             MomentSet.__dict__["from_samples"])
    assert after == before


# -- the declared metrics are the emitted ones ----------------------------------------------


def test_benchmark_json_matches_the_harness():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.per_layer_units()
    # learn_wide stays runnable by hand but is left out of BENCHMARK.json
    # (see README.md, "Workloads").
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOAD_NAMES if w != "learn_wide"
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- tiny-size smoke runs ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke(workload, trace):
    res = _last_json(_run("--workload", workload, "--seed", "5", "--seconds", "0.3",
                          "--trace", str(trace), "--scale", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_counts_repeat_between_runs():
    args = ("--workload", "paper_sweeps", "--seed", "6", "--seconds", "0.3", "--trace", "1",
            "--scale", "tiny")
    first, second = _last_json(_run(*args)), _last_json(_run(*args))
    assert first["correct"] and second["correct"]
    for name in spans.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["experiments.cells"]["value"] == 2 + 2 * 3


def test_earlier_run_with_other_counts_is_a_failure():
    tag = "selftest-counts"
    path = run.OUT / f"{tag}-counts.json"
    run.OUT.mkdir(exist_ok=True)
    try:
        assert run._check_earlier_run(tag, {"a": 1}) == []
        assert run._check_earlier_run(tag, {"a": 1}) == []
        assert run._check_earlier_run(tag, {"a": 2})
    finally:
        path.unlink(missing_ok=True)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "learn_wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
