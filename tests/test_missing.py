import numpy as np
import pytest

from gridforest.errors import AssumptionViolated, InfeasibleSpec, NoConsistentPlacement
from gridforest.missing import (
    HiddenNodeInfo,
    MissingSpec,
    learn_with_missing,
    residual_match,
    validate_missing_spec,
)
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, build_forest, line_param_map
from gridforest.powerflow import InjectionModel, analytic_moments, sample_voltages
from gridforest.structure import learn_structure
from gridforest.synth import FeederSpec, choose_hidden, draw_injections, synth_layout

from conftest import random_feeder, restrict_samples


def observed_momset(forest, inj, hidden=()):
    """Population moments over the observed nodes only."""
    ms = MomentSet.from_analytic(analytic_moments(forest, inj), zero_ids=forest.slack_ids)
    return ms.restrict(i for i in forest.load_ids if i not in set(hidden))


def run_missing(forest, inj, hidden, **kw):
    spec = MissingSpec.from_injections(hidden, inj)
    ms = observed_momset(forest, inj, hidden)
    vp, vq, s = inj.as_maps()
    return learn_with_missing(
        ms, spec, vp, vq, s, line_param_map(forest.lines),
        forest.substation_children(), **kw,
    )


# -- residual_match -----------------------------------------------------------------


def test_residual_match_exact():
    assert residual_match(1.0, 1.0, 1.0, tol_rel=1e-12)


def test_residual_match_rejects_beyond_tolerance():
    assert not residual_match(1.0, 1.1, 1.0, tol_rel=0.05)
    assert residual_match(1.0, 1.04, 1.0, tol_rel=0.05)


def test_residual_match_needs_positive_scale():
    with pytest.raises(ValueError):
        residual_match(1.0, 1.0, 0.0, tol_rel=0.1)


# -- assumption validation -----------------------------------------------------------


def test_hidden_siblings_flagged():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    f = build_forest(
        nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1), Line(3, 1, r=1, x=1)]
    )
    spec = MissingSpec(
        hidden=(HiddenNodeInfo(2, 1, 1, 0.5), HiddenNodeInfo(3, 1, 1, 0.5))
    )
    out = validate_missing_spec(f, spec)
    assert any("2 hops" in v for v in out)


def test_hidden_in_different_trees_ok():
    nodes = [Node(0, "substation"), Node(9, "substation")] + [
        Node(i, "load") for i in (1, 2, 3, 4)
    ]
    f = build_forest(
        nodes,
        [
            Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1),
            Line(3, 9, r=1, x=1), Line(4, 3, r=1, x=1),
        ],
    )
    spec = MissingSpec(hidden=(HiddenNodeInfo(2, 1, 1, 0.5), HiddenNodeInfo(4, 1, 1, 0.5)))
    assert validate_missing_spec(f, spec) == []


def test_hidden_substation_child_flagged():
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    spec = MissingSpec(hidden=(HiddenNodeInfo(1, 1, 1, 0.5),))
    out = validate_missing_spec(f, spec)
    assert any("immediate substation child" in v for v in out)


def test_choose_hidden_respects_assumptions():
    spec = FeederSpec(n_loads=30, n_trees=2, extra_lines=5)
    forest = synth_layout(spec, 5)
    inj = draw_injections(spec, forest.load_ids, 6)
    hidden = choose_hidden(forest, 3, 9)
    mspec = MissingSpec.from_injections(hidden, inj)
    assert validate_missing_spec(forest, mspec) == []


def test_choose_hidden_infeasible():
    spec = FeederSpec(n_loads=2, n_trees=2)
    forest = synth_layout(spec, 0)
    with pytest.raises(InfeasibleSpec):
        choose_hidden(forest, 1, 0)  # all loads are substation children


# -- population placements -------------------------------------------------------------


def test_empty_missing_set_equals_plain_learner():
    forest, inj = random_feeder(3, n_range=(5, 25), k_max=3)
    ms = observed_momset(forest, inj)
    plain = learn_structure(ms, forest.substation_children())
    via_missing, _ = run_missing(forest, inj, ())
    assert via_missing.parent == plain.parent == forest.parent


def hidden_leaf_fixture():
    # slack 0 -> 1 -> 2 -> hidden leaf 3; plus sibling 4 under 2
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3, 4)]
    lines = [
        Line(1, 0, r=0.5, x=0.7),
        Line(2, 1, r=0.6, x=0.5),
        Line(3, 2, r=0.4, x=0.8),
        Line(4, 2, r=0.7, x=0.4),
    ]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3, 4),
        mu_p=[-1, -2, -1.5, -0.5], mu_q=[-0.5, -1, -0.25, -0.75],
        var_p=[1.0, 1.5, 2.0, 0.8], var_q=[0.9, 1.1, 0.7, 1.3],
        cov_pq=[0.5, 0.9, 0.6, 0.7],
    )
    return f, inj


def test_hidden_leaf_placed():
    f, inj = hidden_leaf_fixture()
    rec, diag = run_missing(f, inj, (3,))
    assert rec.parent == f.parent
    kinds = {ev.child: ev.accepted.kind for ev in diag.events if ev.accepted}
    assert kinds[2] == "missing_leaf_child"


def test_hidden_intermediate_placed():
    # slack 0 -> 1 -> hidden 2 -> {3, 4}: parked children re-attach below 2
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3, 4)]
    lines = [
        Line(1, 0, r=0.5, x=0.7),
        Line(2, 1, r=0.6, x=0.5),
        Line(3, 2, r=0.4, x=0.8),
        Line(4, 2, r=0.7, x=0.4),
    ]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3, 4),
        mu_p=[-1, -2, -1.5, -0.5], mu_q=[-0.5, -1, -0.25, -0.75],
        var_p=[1.0, 1.5, 2.0, 0.8], var_q=[0.9, 1.1, 0.7, 1.3],
        cov_pq=[0.5, 0.9, 0.6, 0.7],
    )
    rec, diag = run_missing(f, inj, (2,))
    assert rec.parent == f.parent
    accepted = {ev.child: ev.accepted for ev in diag.events if ev.accepted}
    assert accepted[1].kind == "missing_intermediate"
    assert accepted[1].candidate == 2


def test_hidden_node_with_four_children():
    rng = np.random.default_rng(2)
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in range(1, 8)]
    lines = [Line(1, 0, r=0.2, x=0.3), Line(2, 1, r=0.25, x=0.2)] + [
        Line(i, 2, r=rng.uniform(0.05, 0.3), x=rng.uniform(0.05, 0.3))
        for i in (3, 4, 5, 6)
    ] + [Line(7, 3, r=0.1, x=0.12)]
    f = build_forest(nodes, lines)
    vp = rng.uniform(0.5, 2.0, 7)
    vq = rng.uniform(0.5, 2.0, 7)
    inj = InjectionModel(
        node_ids=f.load_ids, mu_p=np.zeros(7), mu_q=np.zeros(7),
        var_p=vp, var_q=vq, cov_pq=rng.uniform(0.2, 0.8, 7) * np.sqrt(vp * vq),
    )
    rec, _ = run_missing(f, inj, (2,))
    assert rec.parent == f.parent


def test_hidden_leaf_and_intermediate_in_same_tree():
    # hidden intermediate 2 and hidden leaf 6: three hops apart, both placed
    rng = np.random.default_rng(3)
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in range(1, 7)]
    lines = [
        Line(1, 0, r=0.2, x=0.3), Line(2, 1, r=0.22, x=0.18),
        Line(3, 2, r=0.15, x=0.28), Line(4, 2, r=0.3, x=0.1),
        Line(5, 3, r=0.12, x=0.2), Line(6, 5, r=0.17, x=0.23),
    ]
    f = build_forest(nodes, lines)
    assert f.tree_distance(2, 6) == 3
    vp = rng.uniform(0.5, 2.0, 6)
    vq = rng.uniform(0.5, 2.0, 6)
    inj = InjectionModel(
        node_ids=f.load_ids, mu_p=np.zeros(6), mu_q=np.zeros(6),
        var_p=vp, var_q=vq, cov_pq=rng.uniform(0.2, 0.8, 6) * np.sqrt(vp * vq),
    )
    rec, diag = run_missing(f, inj, (2, 6))
    assert rec.parent == f.parent
    kinds = {ev.accepted.kind for ev in diag.events if ev.accepted}
    assert "missing_leaf_child" in kinds and "missing_intermediate" in kinds


def test_hidden_leaf_under_declared_substation_child():
    # the declared child's own edge is prior knowledge; its final check
    # still has to surface the hidden leaf below it
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    lines = [Line(1, 0, r=0.2, x=0.3), Line(2, 1, r=0.15, x=0.22), Line(3, 1, r=0.28, x=0.11)]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3), mu_p=np.zeros(3), mu_q=np.zeros(3),
        var_p=[1.2, 0.9, 1.5], var_q=[0.8, 1.3, 0.7], cov_pq=[0.5, 0.6, 0.4],
    )
    rec, diag = run_missing(f, inj, (2,))
    assert rec.parent == f.parent
    forced = [ev for ev in diag.events if ev.child == 1][0]
    assert forced.accepted.kind == "missing_leaf_child"


def test_hidden_intermediate_under_declared_substation_child():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3, 4)]
    lines = [
        Line(1, 0, r=0.2, x=0.3), Line(2, 1, r=0.15, x=0.22),
        Line(3, 2, r=0.28, x=0.11), Line(4, 2, r=0.19, x=0.27),
    ]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3, 4), mu_p=np.zeros(4), mu_q=np.zeros(4),
        var_p=[1.2, 0.9, 1.5, 1.1], var_q=[0.8, 1.3, 0.7, 0.95],
        cov_pq=[0.5, 0.6, 0.4, 0.55],
    )
    rec, diag = run_missing(f, inj, (2,))
    assert rec.parent == f.parent
    forced = [ev for ev in diag.events if ev.child == 1][0]
    assert forced.accepted.kind == "missing_intermediate"


def test_population_randomized_suite():
    rng = np.random.default_rng(77)
    for trial in range(30):
        n = int(rng.integers(8, 35))
        k = int(rng.integers(1, 4))
        spec = FeederSpec(n_loads=n, n_trees=k, extra_lines=int(rng.integers(0, 10)))
        forest = synth_layout(spec, int(rng.integers(2**31)))
        inj = draw_injections(spec, forest.load_ids, int(rng.integers(2**31)))
        try:
            hidden = choose_hidden(forest, int(rng.integers(1, 4)), trial, max_tries=40)
        except InfeasibleSpec:
            continue
        rec, _ = run_missing(forest, inj, hidden)
        assert rec.parent == forest.parent, f"trial {trial}"


def test_exactly_one_zero_residual_check_per_event():
    f, inj = hidden_leaf_fixture()
    rec, diag = run_missing(f, inj, (3,))
    for ev in diag.events:
        if ev.accepted is None or not ev.checks:
            continue
        zero = [c for c in ev.checks if c.residual <= 1e-9 * max(abs(c.lhs), 1e-300)]
        assert len(zero) == 1
        assert zero[0] is ev.accepted
        assert ev.wrong_margin > 0


def test_all_hidden_nodes_placed_once():
    forest, inj = random_feeder(19, n_range=(14, 30), k_max=2)
    try:
        hidden = choose_hidden(forest, 3, 4, max_tries=60)
    except InfeasibleSpec:
        hidden = choose_hidden(forest, 2, 4)
    rec, _ = run_missing(forest, inj, hidden)
    pm = rec.parent
    for h in hidden:
        assert h in pm
    assert sorted(pm) == sorted(forest.parent)


def test_hidden_node_with_observations_rejected():
    f, inj = hidden_leaf_fixture()
    spec = MissingSpec.from_injections((3,), inj)
    ms = observed_momset(f, inj, hidden=())  # 3 still observed
    vp, vq, s = inj.as_maps()
    with pytest.raises(AssumptionViolated):
        learn_with_missing(
            ms, spec, vp, vq, s, line_param_map(f.lines), f.substation_children()
        )


def test_ambiguous_candidates_reported():
    # two hidden nodes with identical covariances in symmetric positions tie
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3, 4, 5, 6)]
    lines = [
        Line(1, 0, r=0.5, x=0.5),
        Line(2, 1, r=0.5, x=0.5),
        Line(3, 1, r=0.5, x=0.5),
        Line(4, 2, r=0.7, x=0.7),   # hidden leaf under 2
        Line(5, 3, r=0.7, x=0.7),   # hidden leaf under 3 (same everything)
        Line(6, 3, r=0.2, x=0.3),
    ]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3, 4, 5, 6),
        mu_p=np.zeros(6), mu_q=np.zeros(6),
        var_p=[1.0, 1.2, 1.2, 0.9, 0.9, 1.4],
        var_q=[1.0, 0.8, 0.8, 1.1, 1.1, 0.6],
        cov_pq=[0.5, 0.6, 0.6, 0.4, 0.4, 0.3],
    )
    # distance(4, 5) = 4 hops: a valid but perfectly symmetric configuration
    with pytest.raises(NoConsistentPlacement):
        run_missing(f, inj, (4, 5))


def test_finite_sample_recovery_smoke():
    forest, inj = random_feeder(23, n_range=(18, 26), k_max=1)
    hidden = choose_hidden(forest, 1, 2)
    spec = MissingSpec.from_injections(hidden, inj)
    observed = tuple(i for i in forest.load_ids if i not in set(hidden))
    samples = restrict_samples(sample_voltages(forest, inj, 60_000, seed=5), observed)
    ms = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
    vp, vq, s = inj.as_maps()
    rec, _ = learn_with_missing(
        ms, spec, vp, vq, s, line_param_map(forest.lines), forest.substation_children()
    )
    assert rec.parent == forest.parent
