import contextlib
import inspect
import json
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gridforest import errors, fileio
from gridforest.cli import _COMMANDS, LEARNER_ERRORS, _build_parser, _cmd_learn, main
from gridforest.missing import MissingSpec
from gridforest.synth import choose_hidden

from conftest import depths, magnitude_only, restrict_samples
from test_parallel import _one_cpu


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
    assert np.all(inj.var_p > 0.0) and np.all(inj.var_q > 0.0) and np.all(inj.cov_pq > 0.0)


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
    assert result["metrics"]["r_err"] < 1e-9 and result["metrics"]["x_err"] < 1e-9
    assert all(e["residual"] < 1e-6 for e in result["line_estimates"])


def test_learn_missing_cli(workspace):
    forest = fileio.load_network(workspace / "network.json")
    inj = fileio.load_injection(workspace / "injection.json")
    hidden = choose_hidden(forest, 1, 7)
    fileio.save_missing(workspace / "missing.json", MissingSpec(hidden))
    observed = tuple(i for i in forest.load_ids if i not in set(hidden))
    from gridforest.powerflow import sample_voltages

    samples = restrict_samples(sample_voltages(forest, inj, 50_000, seed=1), observed)
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


def test_learn_missing_analytic_cli(workspace):
    forest = fileio.load_network(workspace / "network.json")
    hidden = choose_hidden(forest, 1, 7)
    fileio.save_missing(workspace / "missing.json", MissingSpec(hidden))
    out = workspace / "missing_result.json"
    rc = main(["learn-missing", "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json"),
               "--missing", str(workspace / "missing.json"),
               "--analytic", "--out", str(out)])
    assert rc == 0
    result = fileio.load_result(out)
    assert result["metrics"]["struct_err"] == 0.0
    assert any(ev["kind"] != "direct_edge" for ev in result["placement_events"])


def test_learn_params_from_samples_cli(workspace):
    # the command line's default tolerance on samples is 1e-6
    from gridforest.experiments import line_errors
    from gridforest.lines import EdgeEstimate, learn_structure_and_params
    from gridforest.moments import MomentSet

    main(["simulate", "--network", str(workspace / "network.json"),
          "--inj", str(workspace / "injection.json"),
          "--samples", "4000", "--seed", "2", "--out", str(workspace)])
    out = workspace / "params.json"
    rc = main(["learn-params", "--network", str(workspace / "network.json"),
               "--data", str(workspace / "samples.csv"),
               "--inj", str(workspace / "injection.json"), "--out", str(out)])
    assert rc == 0
    forest = fileio.load_network(workspace / "network.json")
    momset = MomentSet.from_samples(
        fileio.load_samples(workspace / "samples.csv"), zero_ids=forest.slack_ids
    )
    vp, vq, _ = fileio.load_injection(workspace / "injection.json").as_maps()
    _, estimates = learn_structure_and_params(
        momset, vp, vq, forest.substation_children(), rel_tol=1e-6
    )
    expected = fileio.result_to_dict(forest, edge_estimates=estimates)["line_estimates"]
    result = fileio.load_result(out)
    assert result["line_estimates"] == expected
    # the metrics score the line estimates the result holds
    saved = {
        (e["child"], e["parent"]): EdgeEstimate(
            e["r_hat"], e["x_hat"], e["cov_pq_hat"], e["residual"], e["root_choice"]
        )
        for e in result["line_estimates"]
    }
    assert result["metrics"] == {"struct_err": 0.0, **line_errors(saved, forest)}
    assert result["metrics"]["r_err"] > 0.0


def _zero_variances(tmp_path, load):
    """A copy of the injection file whose ``load`` has no variance."""
    inj = json.loads((tmp_path / "injection.json").read_text())
    node = next(n for n in inj["nodes"] if n["id"] == load)
    node["var_p"] = node["var_q"] = node["cov_pq"] = 0.0
    (tmp_path / "zero.json").write_text(json.dumps(inj))
    return tmp_path / "zero.json"


@pytest.mark.parametrize(
    "load, parent, quantity",
    [(2, 9, r"subtree variance sums must be positive \(Sp 0, Sq 0\)"),
     (1, 6, r"pairwise statistics must be positive \(A 0, B 0\)")],
)
def test_learn_params_names_the_edge_of_a_zero_variance_load(
    tmp_path, capsys, load, parent, quantity
):
    # valid injection JSON whose load has no variance breaks the learner's
    # precondition on that load's edge
    assert main(["synth", "--preset", "bus_13_3", "--seed", "0", "--out", str(tmp_path)]) == 0
    args = ["learn-params", "--network", str(tmp_path / "network.json"),
            "--inj", str(_zero_variances(tmp_path, load)), "--analytic",
            "--out", str(tmp_path / "params.json")]
    message = rf"edge \(child {load}, parent {parent}\): {quantity}"
    with pytest.raises(errors.AssumptionViolated, match=message):
        _cmd_learn(_build_parser().parse_args(args))
    capsys.readouterr()
    assert main(args) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "params.json").exists()


_NO_FLUCTUATION = r"load {} has no injection variance \(var_p 0, var_q 0\)"


def test_learn_rejects_a_load_that_does_not_fluctuate(tmp_path, capsys):
    # population moments of a load with no injection variance give a forest,
    # a wrong one (node 13 under 1 instead of 6), so the learner rejects them
    assert main(["synth", "--preset", "bus_13_3", "--seed", "0", "--out", str(tmp_path)]) == 0
    args = ["learn", "--network", str(tmp_path / "network.json"),
            "--inj", str(_zero_variances(tmp_path, 1)), "--analytic",
            "--out", str(tmp_path / "result.json")]
    with pytest.raises(errors.AssumptionViolated, match=_NO_FLUCTUATION.format(1)):
        _cmd_learn(_build_parser().parse_args(args))
    capsys.readouterr()
    assert main(args) == 1
    assert re.search(_NO_FLUCTUATION.format(1), capsys.readouterr().err)
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("where", ["observed", "hidden"])
@pytest.mark.parametrize("mode", ["analytic", "data"])
def test_learn_missing_rejects_a_load_that_does_not_fluctuate(tmp_path, capsys, mode, where):
    # the known statistics of every observed and hidden node must fluctuate
    assert main(["synth", "--preset", "bus_29_1", "--seed", "11", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    hidden = choose_hidden(forest, 2, 5)
    load = hidden[0] if where == "hidden" else next(a for a in (1, 3) if a not in hidden)
    zero = _zero_variances(tmp_path, load)
    inj = fileio.load_injection(zero)
    fileio.save_missing(tmp_path / "missing.json", MissingSpec(hidden))
    args = ["learn-missing", "--network", str(tmp_path / "network.json"), "--inj", str(zero),
            "--missing", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json")]
    if mode == "analytic":
        args.append("--analytic")
    else:
        from gridforest.powerflow import sample_voltages

        observed = [a for a in forest.load_ids if a not in hidden]
        samples = restrict_samples(sample_voltages(forest, inj, 400, seed=1), observed)
        fileio.save_samples(tmp_path / "obs.csv", samples)
        args += ["--data", str(tmp_path / "obs.csv")]
    capsys.readouterr()
    assert main(args) == 1
    assert re.search(_NO_FLUCTUATION.format(load), capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


def test_learn_no_estimate_on_magnitude_only_samples(tmp_path, capsys):
    # without the theta channel learn can recover the structure only, and
    # says so, naming the file, unless --no-estimate asks for just that
    from gridforest.powerflow import sample_voltages

    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    inj = fileio.load_injection(tmp_path / "injection.json")
    path = tmp_path / "magnitude.csv"
    fileio.save_samples(path, magnitude_only(sample_voltages(forest, inj, 4000, seed=2)))
    out = tmp_path / "result.json"
    args = ["learn", "--network", str(tmp_path / "network.json"),
            "--data", str(path), "--out", str(out)]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: statistics estimation needs the theta channel" in err
    assert "--no-estimate" in err
    assert not out.exists()
    assert main([*args, "--no-estimate"]) == 0
    result = fileio.load_result(out)
    assert "injection" not in result and "selection_margins" in result
    assert result["metrics"]["struct_err"] == 0.0


def test_learn_params_names_a_magnitude_only_file(tmp_path, capsys):
    # line parameters need the theta channel: learn-params on a magnitude-only
    # CSV names the file and the blank column; learn-missing reads eps only
    from gridforest.powerflow import sample_voltages

    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    inj = fileio.load_injection(tmp_path / "injection.json")
    hidden = choose_hidden(forest, 1, 0)
    fileio.save_missing(tmp_path / "missing.json", MissingSpec(hidden))
    observed = tuple(i for i in forest.load_ids if i not in set(hidden))
    samples = magnitude_only(sample_voltages(forest, inj, 50_000, seed=1))
    path, obs = tmp_path / "magnitude.csv", tmp_path / "obs.csv"
    fileio.save_samples(path, samples)
    fileio.save_samples(obs, restrict_samples(samples, observed))
    known = ["--network", str(tmp_path / "network.json"),
             "--inj", str(tmp_path / "injection.json")]
    capsys.readouterr()
    assert main(["learn-params", *known, "--data", str(path),
                 "--out", str(tmp_path / "params.json")]) == 1
    err = capsys.readouterr().err
    assert (f"error: {path}: line-parameter estimation needs the theta channel, "
            "but the theta column is blank") in err
    assert not (tmp_path / "params.json").exists()
    out = tmp_path / "missing_result.json"
    assert main(["learn-missing", *known, "--data", str(obs),
                 "--missing", str(tmp_path / "missing.json"), "--out", str(out)]) == 0
    assert fileio.load_result(out)["metrics"]["struct_err"] == 0.0


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "1e-400", "tiny"])
@pytest.mark.parametrize("command", ["learn-params", "learn-missing"])
def test_tol_rel_must_be_a_finite_positive_number(tmp_path, capsys, command, value):
    # such a tolerance matches everything or nothing; it is an input error
    # naming the option, not a learner failure or a silent result
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    spec = tmp_path / "missing.json"
    fileio.save_missing(spec, MissingSpec(choose_hidden(forest, 1, 0)))
    args = [command, "--network", str(tmp_path / "network.json"),
            "--inj", str(tmp_path / "injection.json"), "--analytic",
            "--out", str(tmp_path / "r.json")]
    if command == "learn-missing":
        args += ["--missing", str(spec)]
    capsys.readouterr()
    assert main([*args, f"--tol-rel={value}"]) == 1
    assert f"error: argument --tol-rel: must be a finite number > 0, got '{value}'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "r.json").exists()
    assert main([*args, "--tol-rel", "1e-6"]) == 0


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
    out = capsys.readouterr().out
    assert "struct_err" in out
    # one cell of the two-seed sweep finds no consistent placement: it is
    # counted per (task, m), not averaged into the printed means
    assert "failed cells: NoConsistentPlacement=1\n" in out
    assert "learn-missing/h2|m=400|failed: 1 of 2\n" in out
    assert "learn-missing/h1|m=400|failed: 0 of 2\n" in out
    assert "|failed: 1.00000" not in out


def test_simulate_rejects_non_finite_injection(workspace, capsys):
    # json reads the bare NaN literal; the injection model must refuse it
    path = workspace / "injection.json"
    data = json.loads(path.read_text())
    node = data["nodes"][3]
    node["var_p"] = float("nan")
    path.write_text(json.dumps(data))
    rc = main(["simulate", "--network", str(workspace / "network.json"),
               "--inj", str(path), "--samples", "50", "--out", str(workspace)])
    assert rc == 1
    assert f"var_p at node {node['id']} is not finite" in capsys.readouterr().err
    assert not (workspace / "samples.csv").exists()


def _learn_after_edit(tmp_path, capsys, name, edit, command="learn"):
    """Run ``command`` on bus_13_3 population moments after ``edit`` rewrote
    the decoded ``name`` file; returns (exit code, stderr)."""
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    spec = MissingSpec(choose_hidden(forest, 1, 0))
    fileio.save_missing(tmp_path / "missing.json", spec)
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    argv = [command, "--network", str(tmp_path / "network.json"),
            "--inj", str(tmp_path / "injection.json"), "--analytic",
            "--out", str(tmp_path / "result.json")]
    if command == "learn-missing":
        argv += ["--missing", str(tmp_path / "missing.json")]
    rc = main(argv)
    assert not (tmp_path / "result.json").exists()
    return rc, capsys.readouterr().err


def test_network_nodes_not_an_array(tmp_path, capsys):
    def edit(doc):
        doc["nodes"] = 5
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "network.json", edit)
    assert rc == 1
    assert f"{tmp_path / 'network.json'}: nodes: expected an array, got a number" in err


def test_network_null_line_endpoint(tmp_path, capsys):
    def edit(doc):
        doc["lines"][0]["a"] = None
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "network.json", edit)
    assert rc == 1
    assert f"{tmp_path / 'network.json'}: lines[0].a: expected an integer, got null" in err


def test_network_root_is_a_list(tmp_path, capsys):
    rc, err = _learn_after_edit(tmp_path, capsys, "network.json", lambda doc: [doc])
    assert rc == 1
    assert f"{tmp_path / 'network.json'}: top level: expected an object, got an array" in err


def test_network_line_key_missing(tmp_path, capsys):
    def edit(doc):
        del doc["lines"][2]["x"]
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "network.json", edit)
    assert rc == 1
    assert f"{tmp_path / 'network.json'}: lines[2].x: missing" in err


# Each edit breaks a bus_13_3 network document (16 nodes, 26 lines) in place
# and returns the JSON path and the message the reader must give.


def _set_line(k, key, value):
    def edit(doc):
        ln = doc["lines"][k]
        ln[key] = value
        return f"lines[{k}].{key}", {
            "r": f"line ({ln['a']}, {ln['b']}) needs r > 0 and x > 0",
            "x": f"line ({ln['a']}, {ln['b']}) needs r > 0 and x > 0",
            "status": f"unknown line status {value!r}",
            "a": f"line references unknown node {value}",
        }[key]

    return edit


def _self_loop(doc):
    a = doc["lines"][2]["a"]
    doc["lines"][2]["b"] = a
    return "lines[2].b", f"line endpoints must differ, got ({a}, {a})"


def _gen_role(doc):
    doc["nodes"][4]["role"] = "gen"
    return "nodes[4].role", "unknown node role 'gen'"


def _repeat_line(doc):  # the same two nodes, ends swapped
    ln = doc["lines"][2]
    doc["lines"].append({**ln, "a": ln["b"], "b": ln["a"]})
    a, b = sorted((ln["a"], ln["b"]))
    return "lines[26]", f"parallel lines between {a} and {b}"


def _repeat_node(doc):
    doc["nodes"].append(dict(doc["nodes"][1]))
    return "nodes[16].id", f"duplicate node id {doc['nodes'][1]['id']}"


def _close_loop(doc):  # a line from a node of depth 2 or more to its grandparent
    forest = fileio.network_from_dict(doc)
    depth = depths(forest)
    a = next(i for i in forest.topo_order if depth[i] >= 2)
    g = forest.parent[forest.parent[a]]
    doc["lines"].append({"a": a, "b": g, "r": 0.1, "x": 0.1})
    return "lines[26]", f"operational lines close a loop through ({a}, {g})"


def _join_substations(doc):
    s1, s2 = [nd["id"] for nd in doc["nodes"] if nd["role"] == "substation"][:2]
    doc["lines"].append({"a": s1, "b": s2, "r": 0.1, "x": 0.1})
    k = next(k for k, nd in enumerate(doc["nodes"]) if nd["id"] == s2)
    return f"nodes[{k}]", f"substations {s1} and {s2} share an operational component"


def _lone_load(doc):
    doc["nodes"].append({"id": 999, "role": "load"})
    return "nodes[16]", "load nodes [999] unreachable from any substation"


def _no_substation(doc):
    for nd in doc["nodes"]:
        nd["role"] = "load"
    return "nodes", "forest needs at least one substation"


@pytest.mark.parametrize(
    "edit",
    [_set_line(3, "r", 0), _set_line(0, "x", float("nan")), _set_line(1, "status", "closed"),
     _set_line(5, "a", 999), _self_loop, _gen_role, _repeat_line, _repeat_node, _close_loop,
     _join_substations, _lone_load, _no_substation],
    ids=["zero_r", "nan_x", "closed_status", "foreign_end", "self_loop", "gen_role",
         "repeated_line", "repeated_node", "loop", "joined_substations", "unreachable_load",
         "no_substation"],
)
def test_network_value_errors_name_file_and_path(tmp_path, capsys, edit):
    # a value the network model rejects is MalformedJSON at its JSON path in
    # the named file, and the CLI exits 1
    expected = []
    rc, err = _learn_after_edit(
        tmp_path, capsys, "network.json", lambda doc: expected.extend(edit(doc)) or doc
    )
    where, message = expected
    path = tmp_path / "network.json"
    assert rc == 1
    assert err == f"error: {path}: {where}: {message}\n"
    with pytest.raises(errors.MalformedJSON) as exc_info:
        fileio.load_network(path)
    assert (exc_info.value.path, exc_info.value.where) == (str(path), where)


def test_injection_value_not_a_number(tmp_path, capsys):
    def edit(doc):
        doc["nodes"][3]["var_q"] = "high"
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "injection.json", edit)
    assert rc == 1
    assert f"{tmp_path / 'injection.json'}: nodes[3].var_q: expected a number, got a string" in err


def test_missing_spec_id_missing(tmp_path, capsys):
    def edit(doc):
        doc["hidden"][0] = None
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "missing.json", edit, "learn-missing")
    assert rc == 1
    assert f"{tmp_path / 'missing.json'}: hidden[0]: expected an integer, got null" in err


def test_missing_spec_repeated_id(tmp_path, capsys):
    def edit(doc):
        doc["hidden"].append(doc["hidden"][0])
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "missing.json", edit, "learn-missing")
    assert rc == 1
    assert f"{tmp_path / 'missing.json'}: hidden[1]: duplicate hidden node id " in err


def test_missing_spec_in_the_former_format(tmp_path, capsys):
    # a spec that also carries the hidden nodes' statistics is refused,
    # never read with its statistics dropped: they come from --inj
    def edit(doc):
        doc["hidden"] = [{"id": i, "var_p": 1.0, "var_q": 1.0, "cov_pq": 0.5}
                         for i in doc["hidden"]]
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "missing.json", edit, "learn-missing")
    assert rc == 1
    assert err == (f"error: {tmp_path / 'missing.json'}: hidden[0]: "
                   "expected an integer, got an object\n")


def _eval_after_edit(tmp_path, capsys, edit):
    """Run eval on a bus_13_3 result file (with an injection estimate) after
    ``edit`` rewrote the decoded document; returns (exit code, stderr)."""
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj, out = (str(tmp_path / f) for f in ("network.json", "injection.json", "result.json"))
    assert main(["learn", "--network", net, "--inj", inj, "--analytic", "--out", out]) == 0
    path = tmp_path / "result.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    rc = main(["eval", "--result", out, "--network", net, "--inj", inj])
    return rc, capsys.readouterr()


def _null_child(doc):
    doc["edges"][0]["child"] = None
    return doc


def _drop_injection_var_p(doc):
    del doc["injection"]["nodes"][2]["var_p"]
    return doc


@pytest.mark.parametrize(
    "edit, where, message",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "edges"}, "edges", "missing"),
        (_null_child, r"edges\[0\]\.child", "expected an integer, got null"),
        (lambda doc: [doc], "top level", "expected an object, got an array"),
        (lambda doc: {**doc, "injection": "none"}, "injection", "expected an object, got a string"),
        (_drop_injection_var_p, r"injection\.nodes\[2\]\.var_p", "missing"),
        (lambda doc: {**doc, "line_estimates": [{"child": 1, "parent": 0}]},
         r"line_estimates\[0\]\.r_hat", "missing"),
    ],
    ids=["no_edges", "null_child", "list_root", "string_injection", "injection_key_missing",
         "line_estimate_key_missing"],
)
def test_eval_rejects_malformed_result(tmp_path, capsys, edit, where, message):
    rc, out = _eval_after_edit(tmp_path, capsys, edit)
    assert rc == 1 and not out.out
    assert re.fullmatch(rf"error: {re.escape(str(tmp_path / 'result.json'))}: {where}: {message}\n", out.err)


def test_json_syntax_error_names_file(tmp_path, capsys):
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    (tmp_path / "network.json").write_text('{"nodes": [')
    rc = main(["learn", "--network", str(tmp_path / "network.json"), "--analytic",
               "--inj", str(tmp_path / "injection.json"), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert f"{tmp_path / 'network.json'}: line 1 column 12" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 1  # no --preset / --n
    assert main(["learn", "--network", str(tmp_path / "nope.json"),
                 "--analytic", "--out", str(tmp_path / "r.json")]) == 1
    assert main(["nonsense-subcommand"]) == 1


def test_missing_inj_for_analytic(workspace):
    rc = main(["learn", "--network", str(workspace / "network.json"),
               "--analytic", "--out", str(workspace / "x.json")])
    assert rc == 1


def _chain_missing_args(tmp_path, hidden, var_p2=1.0):
    """learn-missing arguments on the chain slack 0 - load 1 - load 2, with
    samples of load 1 only, drawn with unit variances, ``hidden`` as the
    missing spec and ``var_p2`` as the --inj variance of load 2."""
    from gridforest.network import Line, Node, build_forest
    from gridforest.powerflow import InjectionModel, sample_voltages

    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    forest = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    inj = InjectionModel(node_ids=(1, 2), mu_p=[0, 0], mu_q=[0, 0],
                         var_p=[1, 1], var_q=[1, 1], cov_pq=[0.5, 0.5])
    fileio.save_network(tmp_path / "net.json", forest)
    fileio.save_injection(tmp_path / "inj.json", replace(inj, var_p=[1, var_p2]))
    fileio.save_missing(tmp_path / "missing.json", MissingSpec((hidden,)))
    samples = restrict_samples(sample_voltages(forest, inj, 5000, seed=0), (1,))
    fileio.save_samples(tmp_path / "obs.csv", samples)
    return ["learn-missing", "--network", str(tmp_path / "net.json"),
            "--data", str(tmp_path / "obs.csv"),
            "--inj", str(tmp_path / "inj.json"),
            "--missing", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "r.json")]


def test_learner_failure_exit_code(tmp_path, capsys):
    # hidden load 2 with a far too large known var_p explains no statistic of
    # the data, so the learner cannot place it
    rc = main(_chain_missing_args(tmp_path, 2, var_p2=100.0))
    assert rc == 2
    assert "learner failure: hidden nodes never placed: [2]" in capsys.readouterr().err


def test_missing_spec_names_a_foreign_node(tmp_path, capsys):
    # a hidden id that is not a load of the network is an input error
    rc = main(_chain_missing_args(tmp_path, 99))
    assert rc == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "missing.json") in err and "hidden node 99" in err
    assert not (tmp_path / "r.json").exists()


def _near_pair(forest, hops):
    """The first two loads ``hops`` apart, neither a substation child."""
    deep = [a for a in forest.load_ids if not forest.is_slack(forest.parent[a])]
    return next(
        (a, b) for i, a in enumerate(deep) for b in deep[i + 1 :]
        if forest.tree_distance(a, b) == hops
    )


@pytest.mark.parametrize("hops", [1, 2])
def test_missing_spec_breaking_placement_assumptions(tmp_path, capsys, hops):
    # hidden nodes must be more than two hops apart; a spec that breaks this
    # is an input error naming the spec file, not a learner failure
    assert main(["synth", "--preset", "bus_29_1", "--seed", "11", "--out", str(tmp_path)]) == 0
    forest = fileio.load_network(tmp_path / "network.json")
    a, b = _near_pair(forest, hops)
    spec = tmp_path / "missing.json"
    fileio.save_missing(spec, MissingSpec((a, b)))
    capsys.readouterr()
    rc = main(["learn-missing", "--network", str(tmp_path / "network.json"),
               "--inj", str(tmp_path / "injection.json"), "--missing", str(spec),
               "--analytic", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {spec}: hidden nodes {a} and {b} are {hops} hops apart" in err
    assert not (tmp_path / "r.json").exists()


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


def _short_row(lines):
    lines[5] = lines[5].rsplit(",", 1)[0]


def _text_eps(lines):
    s, n, _, t = lines[5].split(",")
    lines[5] = f"{s},{n},abc,{t}"


def _fractional_node(lines):
    s, _, e, t = lines[5].split(",")
    lines[5] = f"{s},1.5,{e},{t}"


def _huge_sample(lines):
    lines[5] = "99999999999999999999," + lines[5].split(",", 1)[1]


def _empty_line(lines):
    lines.insert(6, "")


def _trailing_empty_line(lines):
    lines.append("")


def _blank_first_theta(lines):
    lines[1] = lines[1].rsplit(",", 1)[0] + ","


def _fifth_field(lines):
    lines[5] += ",7"


def _multiline_field(lines):  # the first eps is "0.5\n"
    s, n, _, t = lines[1].split(",")
    lines[1:2] = [f'{s},{n},"0.5', f'",{t}']


def _open_quote_last_row(lines):  # numpy's reader would close it at the end
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ',"0.25'


def _repeat_row_then_nan_eps(lines):  # the non-finite line is named, though later
    lines.insert(2, lines[1])
    s, n, _, t = lines[-1].split(",")
    lines[-1] = f"{s},{n},nan,{t}"


def _nan_eps_then_drop_last_row(lines):  # the non-finite line is named, not the gap
    _nan_eps(lines)
    del lines[-1]


def _repeat_row_then_drop_rows(lines):  # fewer rows than cells: the duplicate is named
    lines.insert(2, lines[1])
    del lines[-3:-1]


def _two_repeats_then_drop_rows(lines):  # the first repeat in the file, not in cell order
    lines.insert(6, lines[5])
    lines.insert(-1, lines[1])
    del lines[2:5]


def _theta_in_magnitude_file(lines):
    lines[1:] = [ln.rsplit(",", 1)[0] + "," for ln in lines[1:]]
    lines[5] += "0.5"


# (corruption of the lines of a 50-sample bus_13_3 file, line named, error text)
MALFORMED_SAMPLES = [
    (_drop_row, None, "no row for sample 0"),
    (_drop_last_row, None, "no row for sample 49"),
    (_repeat_row, 7, "duplicate"),
    (_negative_sample, 6, "sample index out of range"),
    (_blank_theta, 6, "blank theta"),
    (_nan_eps, 6, "finite"),
    (_header_only, 2, "no data rows"),
    (_short_row, 6, "expected"),
    (_text_eps, 6, "expected"),
    (_fractional_node, 6, "expected"),
    (_huge_sample, 6, "expected"),
    (_empty_line, 7, "expected"),
    (_trailing_empty_line, 652, "expected"),  # 13 loads x 50 samples + header
    (_blank_first_theta, 2, "blank theta"),
    (_fifth_field, 6, "expected 4 fields"),
    (_theta_in_magnitude_file, 6, "theta given"),
    (_multiline_field, 2, "spans lines"),
    (_open_quote_last_row, 651, "spans lines"),
    (_repeat_row_then_nan_eps, 652, "finite"),
    (_nan_eps_then_drop_last_row, 6, "finite"),
    (_repeat_row_then_drop_rows, 3, "duplicate"),
    (_two_repeats_then_drop_rows, 4, "duplicate"),
]


# block sizes, in bytes, that cut a samples CSV inside its lines, and the
# reader's own
BLOCK_BYTES = (1, 2, 3, 7, 50, fileio._BLOCK_BYTES)


@contextlib.contextmanager
def blocks_of(nbytes):
    """A context in which ``fileio.load_samples`` cuts its blocks at
    ``nbytes`` bytes and reads them in process."""
    with mock.patch.object(fileio, "_BLOCK_BYTES", nbytes), _one_cpu():
        yield


@pytest.mark.parametrize("corrupt, line, text", MALFORMED_SAMPLES)
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
    # the line named does not depend on where the reader cuts its blocks
    for nbytes in BLOCK_BYTES:
        with blocks_of(nbytes), pytest.raises(MalformedSamples) as exc_info:
            fileio.load_samples(path)
        assert (exc_info.value.path, exc_info.value.line) == (str(path), line), nbytes
    capsys.readouterr()
    rc = main(["learn", "--network", str(tmp_path / "network.json"),
               "--data", str(path), "--out", str(tmp_path / "result.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err and text in err
    if line is not None:
        assert f"line {line}" in err
    assert not (tmp_path / "result.json").exists()


def test_learn_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    # the file is UTF-8 whatever the locale: a byte that does not decode is a
    # malformed line, named with the file, not a bare UnicodeDecodeError
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--network", str(tmp_path / "network.json"),
                 "--inj", str(tmp_path / "injection.json"),
                 "--samples", "50", "--out", str(tmp_path)]) == 0
    path = tmp_path / "samples.csv"
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = lines[2][:-1] + b"\xff"
    path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    rc = main(["learn", "--network", str(tmp_path / "network.json"),
               "--data", str(path), "--out", str(tmp_path / "result.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err and "line 3" in err and "byte 0xff is not UTF-8" in err
    assert not (tmp_path / "result.json").exists()


def _drop_load_1(lines):
    lines[1:] = [ln for ln in lines[1:] if ln.split(",")[1] != "1"]


def _add_node_9999(lines):  # a copy of load 1's rows under a foreign id
    lines += [ln.replace(",1,", ",9999,", 1) for ln in lines if ln.split(",")[1] == "1"]


@pytest.mark.parametrize(
    "corrupt, error, text",
    [
        (_drop_load_1, "UnobservedNode", "no samples for network load 1"),
        (_add_node_9999, "UnknownNode", "node 9999 is not a load"),
    ],
)
def test_learn_rejects_samples_of_other_nodes(tmp_path, capsys, corrupt, error, text):
    # the samples file must cover exactly the network's loads
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--network", str(tmp_path / "network.json"),
                 "--inj", str(tmp_path / "injection.json"),
                 "--samples", "50", "--out", str(tmp_path)]) == 0
    path = tmp_path / "samples.csv"
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    fileio.load_samples(path)  # a well-formed table
    args = ["learn", "--network", str(tmp_path / "network.json"),
            "--data", str(path), "--out", str(tmp_path / "result.json")]
    with pytest.raises(getattr(errors, error), match=text):
        _cmd_learn(_build_parser().parse_args(args))
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(path) in err and text in err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("mode", ["analytic", "data"])
@pytest.mark.parametrize("command", ["learn", "learn-params", "learn-missing"])
def test_inj_must_cover_every_network_load(tmp_path, capsys, command, mode):
    # checked where --inj enters, naming the file and the load; the load
    # dropped here is hidden for learn-missing, whose --inj covers those too
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = tmp_path / "network.json", tmp_path / "injection.json"
    assert main(["simulate", "--network", str(net), "--inj", str(inj),
                 "--samples", "50", "--out", str(tmp_path)]) == 0
    hidden = choose_hidden(fileio.load_network(net), 2, 5)
    fileio.save_missing(tmp_path / "missing.json", MissingSpec(hidden))
    doc = json.loads(inj.read_text())
    doc["nodes"] = [nd for nd in doc["nodes"] if nd["id"] != hidden[0]]
    lacking = tmp_path / "lacking.json"
    lacking.write_text(json.dumps(doc))
    args = [command, "--network", str(net), "--inj", str(lacking),
            "--out", str(tmp_path / "r.json")]
    args += ["--analytic"] if mode == "analytic" else ["--data", str(tmp_path / "samples.csv")]
    if command == "learn-missing":
        args += ["--missing", str(tmp_path / "missing.json")]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {lacking}: no injection statistics for network load {hidden[0]}\n"
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_every_command_checks_the_inj_against_the_network(tmp_path, capsys, command):
    # simulate and eval read --inj as the learners do: one that lacks a load
    # exits 1 naming the file and the load, and so does an unreadable one,
    # also when the result to score holds no injection estimate
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = tmp_path / "network.json", tmp_path / "injection.json"
    doc = json.loads(inj.read_text())
    dropped = doc["nodes"].pop(0)["id"]
    lacking = tmp_path / "lacking.json"
    lacking.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "simulate":
        args = ["simulate", "--network", str(net), "--samples", "10", "--out", str(out)]
    else:
        assert main(["learn-params", "--network", str(net), "--inj", str(inj), "--analytic",
                     "--out", str(tmp_path / "r.json")]) == 0
        args = ["eval", "--result", str(tmp_path / "r.json"), "--network", str(net)]
    capsys.readouterr()
    assert main([*args, "--inj", str(lacking)]) == 1
    captured = capsys.readouterr()
    assert not captured.out and not out.exists()
    assert captured.err == (
        f"error: {lacking}: no injection statistics for network load {dropped}\n"
    )
    absent = tmp_path / "absent.json"
    assert main([*args, "--inj", str(absent)]) == 1
    captured = capsys.readouterr()
    assert not captured.out and str(absent) in captured.err


@pytest.mark.parametrize("command", ["simulate", "learn", "learn-params", "learn-missing", "eval"])
def test_every_command_rejects_an_inj_node_that_is_no_load(tmp_path, capsys, command):
    # the --inj nodes must be the network's loads: an extra node exits 1
    # naming the file and the node, as in a samples file
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = tmp_path / "network.json", tmp_path / "injection.json"
    doc = json.loads(inj.read_text())
    doc["nodes"].append({**doc["nodes"][0], "id": 9999})
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps(doc))
    spec = tmp_path / "missing.json"
    fileio.save_missing(spec, MissingSpec(choose_hidden(fileio.load_network(net), 2, 5)))
    result, out = tmp_path / "r.json", tmp_path / "out"
    assert main(["learn", "--network", str(net), "--inj", str(inj), "--analytic",
                 "--out", str(result)]) == 0
    args = {
        "simulate": ["--samples", "10", "--out", str(out)],
        "learn": ["--analytic", "--out", str(out)],
        "learn-params": ["--analytic", "--out", str(out)],
        "learn-missing": ["--analytic", "--missing", str(spec), "--out", str(out)],
        "eval": ["--result", str(result)],
    }[command]
    capsys.readouterr()
    assert main([command, "--network", str(net), "--inj", str(foreign), *args]) == 1
    captured = capsys.readouterr()
    assert not captured.out and not out.exists()
    assert captured.err == f"error: {foreign}: node 9999 is not a load of the network\n"


@pytest.mark.parametrize("command", ["simulate", "learn", "learn-params", "learn-missing", "eval"])
def test_every_command_rejects_a_network_with_no_load(tmp_path, capsys, command):
    # a substation alone leaves no load to work on: exit 1 naming the file,
    # before the other inputs, which all fit that network, are used
    net = tmp_path / "network.json"
    net.write_text(json.dumps({"nodes": [{"id": 0, "role": "substation"}], "lines": []}))
    inj, spec, result = tmp_path / "inj.json", tmp_path / "missing.json", tmp_path / "r.json"
    inj.write_text(json.dumps({"distribution": "gaussian", "nodes": []}))
    spec.write_text(json.dumps({"hidden": []}))
    result.write_text(json.dumps({"edges": [], "substations": [0]}))
    out = tmp_path / "out"
    args = {
        "simulate": ["--samples", "10", "--out", str(out)],
        "learn": ["--analytic", "--out", str(out)],
        "learn-params": ["--analytic", "--out", str(out)],
        "learn-missing": ["--analytic", "--missing", str(spec), "--out", str(out)],
        "eval": ["--result", str(result)],
    }[command]
    capsys.readouterr()
    assert main([command, "--network", str(net), "--inj", str(inj), *args]) == 1
    captured = capsys.readouterr()
    assert not captured.out and not out.exists()
    assert captured.err == f"error: {net}: nodes: network needs at least one load node\n"


def test_inj_nodes_in_any_order_give_the_same_bytes(tmp_path):
    # an --inj file lists its nodes in any order: reindexed onto the
    # network's loads, reversed, it samples and learns the same bytes
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = str(tmp_path / "network.json"), tmp_path / "injection.json"
    doc = json.loads(inj.read_text())
    doc["nodes"].reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(doc))
    outputs = {}
    for name in ("injection", "reversed"):
        given, out = str(tmp_path / f"{name}.json"), tmp_path / name
        assert main(["simulate", "--network", net, "--inj", given, "--samples", "60",
                     "--out", str(out)]) == 0
        for mode in (["--analytic"], ["--data", str(out / "samples.csv")]):
            assert main(["learn", "--network", net, "--inj", given, *mode,
                         "--out", str(out / f"{mode[0][2:]}.json")]) == 0
        files = ("samples.csv", "analytic.json", "data.json")
        outputs[name] = [(out / f).read_bytes() for f in files]
    loads = fileio.load_network(net).load_ids
    assert fileio.load_injection(inj).node_ids == loads
    assert fileio.load_injection(tmp_path / "reversed.json").node_ids == loads[::-1]
    assert outputs["injection"] == outputs["reversed"]


@pytest.mark.parametrize("command", ["learn", "learn-params", "learn-missing"])
def test_eval_prints_the_metrics_of_the_result(tmp_path, capsys, command):
    # eval scores every estimate the result holds, injection statistics and
    # line parameters, as the learner did when it saved them, to the bit
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = str(tmp_path / "network.json"), str(tmp_path / "injection.json")
    assert main(["simulate", "--network", net, "--inj", inj, "--samples", "400",
                 "--out", str(tmp_path)]) == 0
    spec = []
    if command == "learn-missing":
        hidden = choose_hidden(fileio.load_network(net), 1, 0)
        fileio.save_missing(tmp_path / "missing.json", MissingSpec(hidden))
        spec = ["--missing", str(tmp_path / "missing.json")]
    out = tmp_path / "result.json"
    assert main([command, "--network", net, "--inj", inj, *spec,
                 "--data", str(tmp_path / "samples.csv"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--result", str(out), "--network", net, "--inj", inj]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics == fileio.load_result(out)["metrics"]
    assert {"learn": "omega_p_err", "learn-params": "r_err",
            "learn-missing": "struct_err"}[command] in metrics


@pytest.mark.parametrize("option, value", [("--n", "40"), ("--trees", "5"), ("--extra-lines", "2")])
def test_synth_preset_takes_no_shape_option(tmp_path, capsys, option, value):
    # a preset fixes the feeder's shape, so a shape option beside it is an
    # input error naming the option
    assert main(["synth", "--preset", "bus_13_3", option, value, "--out", str(tmp_path)]) == 1
    assert (f"error: argument {option}: not allowed with argument --preset"
            in capsys.readouterr().err)
    assert not (tmp_path / "network.json").exists()


@pytest.mark.parametrize("m", [400, 6400])
def test_learn_missing_drops_the_hidden_columns_of_the_data(tmp_path, m):
    # hidden nodes carry no data: the learner drops their columns from a
    # samples file that holds them, as --analytic drops their moments
    assert main(["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]) == 0
    net, inj = str(tmp_path / "network.json"), str(tmp_path / "injection.json")
    assert main(["simulate", "--network", net, "--inj", inj,
                 "--samples", str(m), "--out", str(tmp_path)]) == 0
    spec = tmp_path / "missing.json"
    fileio.save_missing(spec, MissingSpec(choose_hidden(fileio.load_network(net), 2, 5)))
    out = tmp_path / "result.json"
    assert main(["learn-missing", "--network", net, "--inj", inj, "--missing", str(spec),
                 "--data", str(tmp_path / "samples.csv"), "--out", str(out)]) == 0
    assert fileio.load_result(out)["metrics"]["struct_err"] == 0.0


def test_synth_names_a_load_count_below_one(tmp_path, capsys):
    # --n 0 is a count, not an absent option
    assert main(["synth", "--n", "0", "--out", str(tmp_path)]) == 1
    assert "error: need n_loads >= n_trees >= 1, got (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "network.json").exists()


@pytest.mark.parametrize("value", ["0", "1", "-3", "2.5", "many"])
def test_simulate_names_a_bad_sample_count(workspace, capsys, value):
    # the learners need two samples, so one is refused before any is drawn
    rc = main(["simulate", "--network", str(workspace / "network.json"),
               "--inj", str(workspace / "injection.json"),
               "--samples", value, "--out", str(workspace)])
    assert rc == 1
    assert (f"error: argument --samples: must be an integer >= 2, got '{value}'"
            in capsys.readouterr().err)
    assert not (workspace / "samples.csv").exists()


@pytest.mark.parametrize(
    "command, option, least, value",
    [
        ("synth", "--seed", 0, "-1"),
        ("synth", "--seed", 0, "1.5"),
        ("simulate", "--seed", 0, "-2"),
        ("reproduce-fig4", "--seeds", 1, "0"),
        ("reproduce-fig5", "--seeds", 1, "-1"),
    ],
)
def test_integer_options_name_a_bad_value(workspace, capsys, command, option, least, value):
    args = {
        "synth": ["--preset", "bus_13_3"],
        "simulate": ["--network", str(workspace / "network.json"),
                     "--inj", str(workspace / "injection.json"), "--samples", "10"],
    }.get(command, [])
    out = workspace / "out"
    assert main([command, *args, option, value, "--out", str(out)]) == 1
    assert (f"error: argument {option}: must be an integer >= {least}, got '{value}'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "learn-params", "learn-missing"])
def test_analytic_and_data_are_exclusive(workspace, capsys, command):
    # --analytic reads no samples, so a --data beside it is an input error,
    # even when the file does not exist
    args = [command, "--network", str(workspace / "network.json"),
            "--inj", str(workspace / "injection.json"), "--analytic",
            "--data", str(workspace / "absent.csv"), "--out", str(workspace / "r.json")]
    if command == "learn-missing":
        args += ["--missing", str(workspace / "missing.json")]
    assert main(args) == 1
    assert ("error: argument --data: not allowed with argument --analytic"
            in capsys.readouterr().err)
    assert not (workspace / "r.json").exists()


@pytest.mark.parametrize("command", ["learn", "learn-params", "learn-missing"])
def test_a_moment_source_is_required(workspace, capsys, command):
    args = [command, "--network", str(workspace / "network.json"),
            "--inj", str(workspace / "injection.json"), "--out", str(workspace / "r.json")]
    if command == "learn-missing":
        args += ["--missing", str(workspace / "missing.json")]
    assert main(args) == 1
    assert ("error: one of the arguments --data --analytic is required"
            in capsys.readouterr().err)
    assert not (workspace / "r.json").exists()


def _documented_exit_codes() -> dict[str, int]:
    """errors.py class name -> exit code, from the README's exit code list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Exit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    codes = {}
    for item in section.split("* ")[1:]:
        code, text = item.split(":", 1)
        for name in re.findall(r"`([A-Z]\w+)`", text):
            if name != "GridForestError" and hasattr(errors, name):
                codes[name] = int(code)
    return codes


def _instance(cls):
    """An instance of an errors.py class, with a placeholder for each argument."""
    if cls.__init__ is Exception.__init__:
        return cls("probe")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*["probe" for p in params if p.default is p.empty])


def test_every_error_class_exits_with_its_documented_code(tmp_path, monkeypatch, capsys):
    documented = _documented_exit_codes()
    classes = {
        name: cls for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.GridForestError)
        and cls is not errors.GridForestError
    }
    assert set(documented) == set(classes)
    assert {cls.__name__ for cls in LEARNER_ERRORS} == {
        name for name, code in documented.items() if code == 2
    }
    for name, cls in classes.items():
        def raiser(args, exc=_instance(cls)):
            raise exc

        monkeypatch.setitem(_COMMANDS, "synth", raiser)
        argv = ["synth", "--preset", "bus_13_3", "--out", str(tmp_path)]
        assert main(argv) == documented[name], name
    capsys.readouterr()
