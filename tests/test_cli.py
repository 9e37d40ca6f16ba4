import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gridforest import errors, fileio
from gridforest.cli import _COMMANDS, LEARNER_ERRORS, _build_parser, _cmd_learn, main
from gridforest.missing import MissingSpec
from gridforest.synth import choose_hidden

from conftest import restrict_samples


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
    inj = fileio.load_injection(workspace / "injection.json")
    hidden = choose_hidden(forest, 1, 7)
    fileio.save_missing(
        workspace / "missing.json", MissingSpec.from_injections(hidden, inj)
    )
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
    from gridforest.lines import learn_structure_and_params
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
    assert fileio.load_result(out)["line_estimates"] == expected


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
    inj = fileio.load_injection(tmp_path / "injection.json")
    spec = MissingSpec.from_injections(choose_hidden(forest, 1, 0), inj)
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
    a = next(i for i in forest.topo_order if forest.depth[i] >= 2)
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
        del doc["hidden"][0]["id"]
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "missing.json", edit, "learn-missing")
    assert rc == 1
    assert f"{tmp_path / 'missing.json'}: hidden[0].id: missing" in err


def test_missing_spec_repeated_id(tmp_path, capsys):
    def edit(doc):
        doc["hidden"].append(dict(doc["hidden"][0]))
        return doc

    rc, err = _learn_after_edit(tmp_path, capsys, "missing.json", edit, "learn-missing")
    assert rc == 1
    assert f"{tmp_path / 'missing.json'}: hidden[1].id: duplicate hidden node id " in err


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
    ],
    ids=["no_edges", "null_child", "list_root", "string_injection", "injection_key_missing"],
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


def _chain_missing_args(tmp_path, hidden):
    """learn-missing arguments on the chain slack 0 - load 1 - load 2, with
    samples of load 1 only and ``hidden`` as the missing spec."""
    from gridforest.network import Line, Node, build_forest
    from gridforest.powerflow import InjectionModel, sample_voltages

    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    forest = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    inj = InjectionModel(node_ids=(1, 2), mu_p=[0, 0], mu_q=[0, 0],
                         var_p=[1, 1], var_q=[1, 1], cov_pq=[0.5, 0.5])
    fileio.save_network(tmp_path / "net.json", forest)
    fileio.save_injection(tmp_path / "inj.json", inj)
    fileio.save_missing(tmp_path / "missing.json", MissingSpec(hidden=(hidden,)))
    samples = restrict_samples(sample_voltages(forest, inj, 5000, seed=0), (1,))
    fileio.save_samples(tmp_path / "obs.csv", samples)
    return ["learn-missing", "--network", str(tmp_path / "net.json"),
            "--data", str(tmp_path / "obs.csv"),
            "--inj", str(tmp_path / "inj.json"),
            "--missing", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "r.json")]


def test_learner_failure_exit_code(tmp_path, capsys):
    # hidden load 2 with a far too large var_p explains no statistic of the
    # data, so the learner cannot place it
    from gridforest.missing import HiddenNodeInfo

    rc = main(_chain_missing_args(tmp_path, HiddenNodeInfo(2, 100.0, 1.0, 0.5)))
    assert rc == 2
    assert "learner failure: hidden nodes never placed: [2]" in capsys.readouterr().err


def test_missing_spec_names_a_foreign_node(tmp_path, capsys):
    # a hidden id that is not a load of the network is an input error
    from gridforest.missing import HiddenNodeInfo

    rc = main(_chain_missing_args(tmp_path, HiddenNodeInfo(99, 1.0, 1.0, 0.5)))
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
    inj = fileio.load_injection(tmp_path / "injection.json")
    a, b = _near_pair(forest, hops)
    spec = tmp_path / "missing.json"
    fileio.save_missing(spec, MissingSpec.from_injections((a, b), inj))
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


def _theta_in_magnitude_file(lines):
    lines[1:] = [ln.rsplit(",", 1)[0] + "," for ln in lines[1:]]
    lines[5] += "0.5"


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
        assert main(["synth", "--out", str(tmp_path)]) == documented[name], name
    capsys.readouterr()
