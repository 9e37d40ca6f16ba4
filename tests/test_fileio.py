import csv
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforest import fileio
from gridforest.errors import MalformedJSON, MalformedSamples
from gridforest.missing import HiddenNodeInfo, MissingSpec
from gridforest.network import Node, build_forest
from gridforest.powerflow import InjectionModel, VoltageSamples, sample_voltages
from gridforest.synth import FeederSpec, draw_injections, synth_layout

from conftest import magnitude_only


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
    assert back.parent == forest.parent
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


@pytest.mark.parametrize(
    "value, message",
    [(1.5, "expected an integer, got a number"), (True, "expected an integer, got a boolean")],
)
def test_network_id_must_be_an_integer(feeder, value, message):
    # "2" and 2.0 still read as node 2; a fraction or a boolean does not
    data = fileio.network_to_dict(feeder[0])
    ids = [nd["id"] for nd in data["nodes"]]
    data["nodes"][1]["id"] = value
    with pytest.raises(MalformedJSON, match=rf"^<data>: nodes\[1\]\.id: {message}$"):
        fileio.network_from_dict(data)
    data["nodes"][1]["id"] = float(ids[1])
    data["nodes"][2]["id"] = str(ids[2])
    assert fileio.network_from_dict(data).nodes == feeder[0].nodes


def test_samples_round_trip(tmp_path, feeder):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 7, seed=0)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    lines = path.read_bytes().decode().splitlines()
    for newline in (None, "\n", "\r\n"):  # as written, then with other line endings
        if newline is not None:
            path.write_bytes(newline.join(lines).encode() + newline.encode())
        back = fileio.load_samples(path)
        assert back.node_ids == s.node_ids
        np.testing.assert_array_equal(back.eps, s.eps)
        np.testing.assert_array_equal(back.theta, s.theta)


def test_samples_without_theta(tmp_path, feeder):
    forest, inj = feeder
    s = magnitude_only(sample_voltages(forest, inj, 3, seed=1))
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    back = fileio.load_samples(path)
    assert back.theta is None
    np.testing.assert_array_equal(back.eps, s.eps)


def _csv_writer_bytes(s) -> bytes:
    """The per-element csv.writer loop the samples format was defined by."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["sample", "node", "eps", "theta"])
    for j in range(s.m):
        for k, node in enumerate(s.node_ids):
            tv = "" if s.theta is None else repr(float(s.theta[j, k]))
            w.writerow([j, node, repr(float(s.eps[j, k])), tv])
    return buf.getvalue().encode()


@pytest.mark.parametrize("with_theta", [True, False])
def test_samples_bytes_match_csv_writer(tmp_path, feeder, with_theta):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 5, seed=2)
    s = s if with_theta else magnitude_only(s)
    fileio.save_samples(tmp_path / "got.csv", s)
    assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(s)


@pytest.mark.parametrize("with_theta", [True, False])
def test_samples_across_blocks(tmp_path, with_theta):
    # more rows than one block, and neither rows nor samples a whole number of blocks
    n = 7
    m = 2 * (fileio._BLOCK_ROWS // n) + 1
    assert (m * n) % fileio._BLOCK_ROWS and m % (fileio._BLOCK_ROWS // n)
    rng = np.random.default_rng(5)
    theta = rng.normal(size=(m, n)) if with_theta else None
    s = VoltageSamples(node_ids=range(10, 10 + n), eps=rng.normal(size=(m, n)), theta=theta)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    assert path.read_bytes() == _csv_writer_bytes(s)
    back = fileio.load_samples(path)
    assert back.node_ids == s.node_ids
    np.testing.assert_array_equal(back.eps, s.eps)
    np.testing.assert_array_equal(back.theta, s.theta)
    lines = path.read_text().splitlines()
    bad = fileio._BLOCK_ROWS + 100  # a line in the second block
    lines.insert(bad - 1, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedSamples) as exc_info:
        fileio.load_samples(path)
    assert exc_info.value.line == bad


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 1e16, -1e16, 0.1)


@settings(max_examples=60, deadline=None)
@given(
    node_ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
    m=st.integers(1, 6),
    with_theta=st.booleans(),
    data=st.data(),
)
def test_samples_round_trip_property(node_ids, m, with_theta, data):
    value = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    shape = (m, len(node_ids))
    table = st.lists(value, min_size=m * len(node_ids), max_size=m * len(node_ids))
    eps = np.reshape(data.draw(table), shape)
    theta = np.reshape(data.draw(table), shape) if with_theta else None
    s = VoltageSamples(node_ids=node_ids, eps=eps, theta=theta)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        fileio.save_samples(path, s)
        assert path.read_bytes() == _csv_writer_bytes(s)
        back = fileio.load_samples(path)
    order = np.argsort(node_ids)  # the reader returns columns by ascending node id
    assert back.node_ids == tuple(np.asarray(node_ids)[order].tolist())
    np.testing.assert_array_equal(back.eps.view(np.int64), eps[:, order].view(np.int64))
    if with_theta:
        np.testing.assert_array_equal(back.theta.view(np.int64), theta[:, order].view(np.int64))
    else:
        assert back.theta is None


_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def networks(draw):
    """A synthetic forest with open tie lines and arbitrary positive impedances."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 3)))
    extra = draw(st.integers(0, min(3, (n + k) * (n + k - 1) // 2 - n)))
    forest = synth_layout(FeederSpec(n_loads=n, n_trees=k, extra_lines=extra), draw(st.integers(0, 99)))
    lines = [replace(ln, r=draw(_POSITIVE), x=draw(_POSITIVE)) for ln in forest.lines]
    return build_forest([Node(i, role) for i, role in forest.nodes.items()], lines)


@st.composite
def injections(draw):
    """An injection model on distinct ids: finite means, non-negative
    variances and a covariance inside the Cauchy-Schwarz bound."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True))
    n = len(ids)
    variance = st.floats(min_value=0.0, max_value=1e300)
    var_p, var_q = (np.array(draw(st.lists(variance, min_size=n, max_size=n))) for _ in range(2))
    rho = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return InjectionModel(
        node_ids=ids,
        mu_p=draw(st.lists(_FINITE, min_size=n, max_size=n)),
        mu_q=draw(st.lists(_FINITE, min_size=n, max_size=n)),
        var_p=var_p,
        var_q=var_q,
        cov_pq=rho * np.sqrt(var_p) * np.sqrt(var_q),
        distribution=draw(st.sampled_from(("gaussian", "uniform", "laplace"))),
    )


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(forest=networks())
def test_network_json_round_trip_property(forest):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        fileio.save_network(path, forest)
        back = fileio.load_network(path)
    assert back.nodes == forest.nodes
    assert back.lines == forest.lines
    assert [_bits([ln.r, ln.x]) for ln in back.lines] == [_bits([ln.r, ln.x]) for ln in forest.lines]
    assert back.parent == forest.parent


@settings(max_examples=60, deadline=None)
@given(inj=injections())
def test_injection_json_round_trip_property(inj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "injection.json"
        fileio.save_injection(path, inj)
        back = fileio.load_injection(path)
    assert back.node_ids == inj.node_ids
    assert back.distribution == inj.distribution
    for name in ("mu_p", "mu_q", "var_p", "var_q", "cov_pq"):
        assert _bits(getattr(back, name)) == _bits(getattr(inj, name))


@st.composite
def missing_specs(draw):
    """A missing spec on distinct ids with finite covariances."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True))
    return MissingSpec(
        hidden=tuple(HiddenNodeInfo(i, draw(_FINITE), draw(_FINITE), draw(_FINITE)) for i in ids)
    )


@settings(max_examples=60, deadline=None)
@given(spec=missing_specs())
def test_missing_spec_json_round_trip_property(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "missing.json"
        fileio.save_missing(path, spec)
        back = fileio.load_missing(path)
    assert back.ids == spec.ids
    for name in ("var_p", "var_q", "cov_pq"):
        assert _bits([getattr(h, name) for h in back.hidden]) == _bits(
            [getattr(h, name) for h in spec.hidden]
        )


@settings(max_examples=60, deadline=None)
@given(forest=networks(), inj=st.none() | injections())
def test_result_json_round_trip_property(forest, inj):
    # eval reads back the recovered parents and the injection estimate
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        fileio.save_result(path, fileio.result_to_dict(forest, inj_hat=inj))
        parent, back = fileio.result_from_dict(fileio.load_result(path), path)
    assert parent == forest.parent
    if inj is None:
        assert back is None
        return
    assert back.node_ids == inj.node_ids
    assert back.distribution == inj.distribution
    for name in ("mu_p", "mu_q", "var_p", "var_q", "cov_pq"):
        assert _bits(getattr(back, name)) == _bits(getattr(inj, name))


# keys a reader defaults when absent; null is still no value of their type
_OPTIONAL_KEYS = {"status", "distribution", "injection"}

# what each kind of document is read with, and the keys of it nothing reads
_READERS = {
    "network": (fileio.load_network, set()),
    "injection": (fileio.load_injection, set()),
    "missing": (fileio.load_missing, set()),
    "result": (lambda path: fileio.result_from_dict(fileio.load_result(path), path),
               {"r", "x", "substations"}),
}


def _value_paths(value, keys=(), at=""):
    """(keys, JSON path) of every value held by an object in a document,
    however deeply nested in objects and arrays."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = f"{at}.{key}" if at else key
            yield (*keys, key), where
            yield from _value_paths(item, (*keys, key), where)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _value_paths(item, (*keys, k), f"{at}[{k}]")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_READERS)), forest=networks(), inj=injections(),
       spec=missing_specs(), null=st.booleans(), data=st.data())
def test_json_missing_or_null_key_property(kind, forest, inj, spec, null, data):
    # deleting a required key, or setting any key that is read to null, is
    # MalformedJSON at that key's JSON path, never a KeyError or a TypeError
    doc = {
        "network": lambda: fileio.network_to_dict(forest),
        "injection": lambda: fileio.injection_to_dict(inj),
        "missing": lambda: fileio.missing_to_dict(spec),
        "result": lambda: fileio.result_to_dict(forest, inj_hat=inj),
    }[kind]()
    load, unread = _READERS[kind]
    paths = [
        p for p in _value_paths(doc)
        if p[0][-1] not in unread and (null or p[0][-1] not in _OPTIONAL_KEYS)
    ]
    keys, where = data.draw(st.sampled_from(paths))
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    if null:
        holder[keys[-1]] = None
    else:
        del holder[keys[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedJSON) as exc_info:
            load(path)
    assert exc_info.value.where == where
    assert exc_info.value.path == str(path)


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
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back[0] == {"task": "learn", "m": "100", "seed": "0", "metric": "struct_err", "value": "0.25"}
    assert [float(rec["value"]) for rec in back] == [0.25, 0.0]


def test_result_dict_shape(feeder):
    forest, inj = feeder
    data = fileio.result_to_dict(forest, inj_hat=inj, metrics={"struct_err": 0.0})
    assert {e["child"] for e in data["edges"]} == set(forest.load_ids)
    assert data["metrics"]["struct_err"] == 0.0
    assert len(data["injection"]["nodes"]) == forest.n_loads
