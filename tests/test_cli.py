import json

import pytest

from gridforest import fileio
from gridforest.cli import main
from gridforest.missing import MissingSpec
from gridforest.synth import choose_hidden


@pytest.fixture
def workspace(tmp_path):
    rc = main(["synth", "--n", "10", "--trees", "2", "--extra-lines", "4",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path


def test_synth_writes_files(workspace):
    forest = fileio.load_network(workspace / "network.json")
    assert forest.n_loads == 10
    inj = fileio.load_injection(workspace / "injection.json")
    assert inj.assumption1_ok()


def test_synth_preset(tmp_path):
    rc = main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)])
    assert rc == 0
    assert fileio.load_network(tmp_path / "network.json").n_loads == 13


def test_simulate_then_moments(workspace):
    rc = main(["simulate", "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json"),
               "--samples", "50", "--seed", "1", "--out", str(workspace)])
    assert rc == 0
    samples = fileio.load_samples(workspace / "samples.csv")
    assert samples.m == 50
    rc = main(["moments", "--data", str(workspace / "samples.csv"),
               "--out", str(workspace / "moments.json")])
    assert rc == 0
    dump = json.loads((workspace / "moments.json").read_text())
    assert dump["m"] == 50 and len(dump["nodes"]) == 10


def test_learn_analytic_exact(workspace):
    out = workspace / "result.json"
    rc = main(["learn", "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json"),
               "--analytic", "--out", str(out)])
    assert rc == 0
    result = fileio.load_result(out)
    assert result["metrics"]["struct_err"] == 0.0
    assert "injection" in result and "selection_margins" in result


def test_learn_from_samples_and_eval(workspace, capsys):
    main(["simulate", "--network", str(workspace / "network.json"),
          "--inj", str(workspace / "injection.json"),
          "--samples", "4000", "--seed", "2", "--out", str(workspace)])
    out = workspace / "result.json"
    rc = main(["learn", "--network", str(workspace / "network.json"),
               "--data", str(workspace / "samples.csv"), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--result", str(out),
               "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json")])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert "struct_err" in metrics and "omega_p_err" in metrics


def test_learn_params_cli(workspace):
    out = workspace / "params.json"
    rc = main(["learn-params", "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json"),
               "--analytic", "--out", str(out)])
    assert rc == 0
    result = fileio.load_result(out)
    assert result["metrics"]["struct_err"] == 0.0
    assert all(e["residual"] < 1e-6 for e in result["line_estimates"])


def test_learn_missing_cli(workspace):
    forest = fileio.load_network(workspace / "network.json")
    inj = fileio.load_injection(workspace / "injection.json")
    hidden = choose_hidden(forest, 1, 7)
    fileio.save_missing(
        workspace / "missing.json", MissingSpec.from_injections(hidden, inj)
    )
    observed = tuple(i for i in forest.load_ids if i not in set(hidden))
    from gridforest.powerflow import sample_voltages

    samples = sample_voltages(forest, inj, 50_000, seed=1).restrict(observed)
    fileio.save_samples(workspace / "obs.csv", samples)
    out = workspace / "missing_result.json"
    rc = main(["learn-missing", "--network", str(workspace / "network.json"),
               "--data", str(workspace / "obs.csv"),
               "--inj", str(workspace / "injection.json"),
               "--missing", str(workspace / "missing.json"),
               "--out", str(out)])
    assert rc == 0
    result = fileio.load_result(out)
    assert result["metrics"]["struct_err"] == 0.0
    assert any(ev["kind"] != "direct_edge" for ev in result["placement_events"])


def test_reproduce_fig4_quick(tmp_path, capsys):
    rc = main(["reproduce-fig4", "--out", str(tmp_path), "--seeds", "2"])
    assert rc == 0
    assert (tmp_path / "curves.csv").exists()
    out = capsys.readouterr().out
    assert "omega_p_err" in out


def test_reproduce_fig5_quick(tmp_path, capsys):
    rc = main(["reproduce-fig5", "--out", str(tmp_path), "--seeds", "2"])
    assert rc == 0
    rows = (tmp_path / "curves.csv").read_text().splitlines()
    assert any("learn-missing/h3" in r for r in rows)
    assert "struct_err" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 1  # no --preset / --n
    assert main(["learn", "--network", str(tmp_path / "nope.json"),
                 "--analytic", "--out", str(tmp_path / "r.json")]) == 1
    assert main(["nonsense-subcommand"]) == 1


def test_missing_inj_for_analytic(workspace):
    rc = main(["learn", "--network", str(workspace / "network.json"),
               "--analytic", "--out", str(workspace / "x.json")])
    assert rc == 1


def test_learner_failure_exit_code(tmp_path):
    # a hidden node that exists nowhere in the data can never be placed
    from gridforest.missing import HiddenNodeInfo
    from gridforest.network import Line, Node, build_forest
    from gridforest.powerflow import InjectionModel, sample_voltages

    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    forest = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    inj = InjectionModel(node_ids=(1, 2), mu_p=[0, 0], mu_q=[0, 0],
                         var_p=[1, 1], var_q=[1, 1], cov_pq=[0.5, 0.5])
    fileio.save_network(tmp_path / "net.json", forest)
    fileio.save_injection(tmp_path / "inj.json", inj)
    fileio.save_missing(
        tmp_path / "missing.json",
        MissingSpec(hidden=(HiddenNodeInfo(99, 1.0, 1.0, 0.5),)),
    )
    samples = sample_voltages(forest, inj, 5000, seed=0)
    fileio.save_samples(tmp_path / "obs.csv", samples)
    rc = main(["learn-missing", "--network", str(tmp_path / "net.json"),
               "--data", str(tmp_path / "obs.csv"),
               "--inj", str(tmp_path / "inj.json"),
               "--missing", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2


def _drop_row(lines):
    del lines[5]


def _drop_last_row(lines):
    del lines[-1]


def _repeat_row(lines):
    lines.insert(6, lines[5])


def _negative_sample(lines):
    lines[5] = "-1," + lines[5].split(",", 1)[1]


def _blank_theta(lines):
    lines[5] = lines[5].rsplit(",", 1)[0] + ","


def _nan_eps(lines):
    s, n, _, t = lines[5].split(",")
    lines[5] = f"{s},{n},nan,{t}"


def _header_only(lines):
    del lines[1:]


@pytest.mark.parametrize(
    "corrupt, line, text",
    [
        (_drop_row, None, "no row for sample 0"),
        (_drop_last_row, None, "no row for sample 49"),
        (_repeat_row, 7, "duplicate"),
        (_negative_sample, 6, "sample index out of range"),
        (_blank_theta, 6, "blank theta"),
        (_nan_eps, 6, "finite"),
        (_header_only, 2, "no data rows"),
    ],
)
def test_learn_rejects_malformed_samples(tmp_path, capsys, corrupt, line, text):
    from gridforest.errors import MalformedSamples

    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--network", str(tmp_path / "network.json"),
                 "--inj", str(tmp_path / "injection.json"),
                 "--samples", "50", "--out", str(tmp_path)]) == 0
    path = tmp_path / "samples.csv"
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedSamples) as exc_info:
        fileio.load_samples(path)
    assert (exc_info.value.path, exc_info.value.line) == (str(path), line)
    capsys.readouterr()
    rc = main(["learn", "--network", str(tmp_path / "network.json"),
               "--data", str(path), "--out", str(tmp_path / "result.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err and text in err
    if line is not None:
        assert f"line {line}" in err
    assert not (tmp_path / "result.json").exists()
