import numpy as np
import pytest

from gridforest.errors import InfeasibleSpec
from gridforest.synth import (
    FeederSpec,
    choose_hidden,
    draw_injections,
    preset,
    synth_feeder,
    synth_layout,
)

from conftest import children_map


def test_same_seed_same_feeder():
    spec = FeederSpec(n_loads=15, n_trees=2, extra_lines=8)
    f1, i1 = synth_feeder(spec, 3)
    f2, i2 = synth_feeder(spec, 3)
    assert f1.parent == f2.parent
    assert [ln for ln in f1.lines] == [ln for ln in f2.lines]
    np.testing.assert_array_equal(i1.var_p, i2.var_p)
    f3, _ = synth_feeder(spec, 4)
    assert f3.parent != f1.parent or f3.lines != f1.lines


def test_preset_shapes():
    for name, nloads, ntrees in (
        ("bus_13_3", 13, 3),
        ("bus_29_1", 29, 1),
        ("bus_83_11", 83, 11),
    ):
        spec = preset(name)
        forest = synth_layout(spec, 0)
        assert forest.n_loads == nloads
        assert len(forest.slack_ids) == ntrees
        open_lines = [ln for ln in forest.lines if ln.status == "open"]
        assert len(open_lines) == spec.extra_lines
        # every tree holds at least one load
        for s in forest.slack_ids:
            assert children_map(forest)[s]


def test_single_edge_feeder():
    forest = synth_layout(FeederSpec(n_loads=1, n_trees=1), 9)
    assert forest.n_loads == 1
    assert len([ln for ln in forest.lines if ln.status == "operational"]) == 1


def test_unknown_preset():
    with pytest.raises(InfeasibleSpec):
        preset("bus_999")


def test_infeasible_specs():
    with pytest.raises(InfeasibleSpec):
        synth_layout(FeederSpec(n_loads=2, n_trees=3), 0)
    with pytest.raises(InfeasibleSpec):
        synth_layout(FeederSpec(n_loads=0, n_trees=0), 0)
    with pytest.raises(InfeasibleSpec):
        synth_layout(FeederSpec(n_loads=2, n_trees=1, extra_lines=100), 0)


def test_injections_satisfy_positivity():
    spec = preset("bus_29_1")
    forest = synth_layout(spec, 1)
    inj = draw_injections(forest.load_ids, 2)
    assert np.all(inj.var_p > 0.0) and np.all(inj.var_q > 0.0) and np.all(inj.cov_pq > 0.0)
    assert np.all(np.abs(inj.cov_pq) <= np.sqrt(inj.var_p * inj.var_q) + 1e-15)
    assert np.all(inj.mu_p < 0)


def test_choose_hidden_spacing():
    spec = preset("bus_83_11")
    forest = synth_layout(spec, 2)
    hidden = choose_hidden(forest, 3, 11)
    assert len(hidden) == 3
    for i, a in enumerate(hidden):
        assert not forest.is_slack(forest.parent[a])
        for b in hidden[i + 1 :]:
            assert forest.tree_distance(a, b) > 2


def test_load_and_slack_id_ranges():
    spec = FeederSpec(n_loads=7, n_trees=2)
    forest = synth_layout(spec, 4)
    assert forest.load_ids == tuple(range(1, 8))
    assert forest.slack_ids == (8, 9)
