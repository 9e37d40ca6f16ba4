import csv

import numpy as np
import pytest

from gridforest import fileio
from gridforest.missing import HiddenNodeInfo, MissingSpec
from gridforest.powerflow import sample_voltages
from gridforest.synth import FeederSpec, draw_injections, synth_layout


@pytest.fixture
def feeder():
    spec = FeederSpec(n_loads=9, n_trees=2, extra_lines=4)
    forest = synth_layout(spec, 13)
    inj = draw_injections(spec, forest.load_ids, 14)
    return forest, inj


def test_network_round_trip(tmp_path, feeder):
    forest, _ = feeder
    path = tmp_path / "net.json"
    fileio.save_network(path, forest)
    back = fileio.load_network(path)
    assert back.parent_map() == forest.parent_map()
    assert back.lines == forest.lines
    assert back.nodes == forest.nodes
    # byte-for-byte stability of a rewrite
    fileio.save_network(tmp_path / "net2.json", back)
    assert (tmp_path / "net.json").read_bytes() == (tmp_path / "net2.json").read_bytes()


def test_injection_round_trip(tmp_path, feeder):
    _, inj = feeder
    path = tmp_path / "inj.json"
    fileio.save_injection(path, inj)
    back = fileio.load_injection(path)
    assert back.node_ids == inj.node_ids
    np.testing.assert_array_equal(back.var_p, inj.var_p)
    np.testing.assert_array_equal(back.cov_pq, inj.cov_pq)
    assert back.distribution == inj.distribution


def test_samples_round_trip(tmp_path, feeder):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 7, seed=0)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    back = fileio.load_samples(path)
    assert back.node_ids == s.node_ids
    np.testing.assert_array_equal(back.eps, s.eps)
    np.testing.assert_array_equal(back.theta, s.theta)


def test_samples_without_theta(tmp_path, feeder):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 3, seed=1).without_theta()
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    back = fileio.load_samples(path)
    assert back.theta is None
    np.testing.assert_array_equal(back.eps, s.eps)


@pytest.mark.parametrize("with_theta", [True, False])
def test_samples_bytes_match_csv_writer(tmp_path, feeder, with_theta):
    # reference: the per-element csv.writer loop the format was defined by
    forest, inj = feeder
    s = sample_voltages(forest, inj, 5, seed=2)
    s = s if with_theta else s.without_theta()
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "node", "eps", "theta"])
        for j in range(s.m):
            for k, node in enumerate(s.node_ids):
                tv = "" if s.theta is None else repr(float(s.theta[j, k]))
                w.writerow([j, node, repr(float(s.eps[j, k])), tv])
    fileio.save_samples(tmp_path / "got.csv", s)
    assert (tmp_path / "got.csv").read_bytes() == ref.read_bytes()


def test_missing_spec_round_trip(tmp_path):
    spec = MissingSpec(
        hidden=(HiddenNodeInfo(4, 1.5, 0.9, 0.4), HiddenNodeInfo(9, 1.0, 1.0, 0.2))
    )
    path = tmp_path / "missing.json"
    fileio.save_missing(path, spec)
    assert fileio.load_missing(path) == spec


def test_curves_round_trip(tmp_path):
    rows = [("learn", 100, 0, "struct_err", 0.25), ("learn", 100, 1, "struct_err", 0.0)]
    path = tmp_path / "curves.csv"
    fileio.save_curves(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "task,m,seed,metric,value"
    back = fileio.load_curves(path)
    assert back[0] == {"task": "learn", "m": 100, "seed": 0, "metric": "struct_err", "value": 0.25}


def test_result_dict_shape(feeder):
    forest, inj = feeder
    data = fileio.result_to_dict(forest, inj_hat=inj, metrics={"struct_err": 0.0})
    assert {e["child"] for e in data["edges"]} == set(forest.load_ids)
    assert data["metrics"]["struct_err"] == 0.0
    assert len(data["injection"]["nodes"]) == forest.n_loads
