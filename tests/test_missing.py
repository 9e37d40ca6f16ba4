import dataclasses

import numpy as np
import pytest

from gridforest.errors import (
    InfeasibleSpec,
    NoConsistentPlacement,
    UnobservedNode,
)
from gridforest.missing import (
    MissingSpec,
    _predicted_sqdiff,
    learn_with_missing,
    validate_missing_spec,
)
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, build_forest, line_param_map
from gridforest.powerflow import InjectionModel, analytic_moments, sample_voltages
from gridforest.structure import learn_structure, recover_parent_map
from gridforest.synth import FeederSpec, choose_hidden, draw_injections, synth_layout

from conftest import moment_blocks, pair_stat, random_feeder, restrict_samples, variance_order


def observed_momset(forest, inj, hidden=()):
    """Population moments over the observed nodes only."""
    ms = analytic_moments(forest, inj)
    return ms.restrict(i for i in forest.load_ids if i not in set(hidden))


def run_missing(forest, inj, hidden, ms=None, **kw):
    spec = MissingSpec(hidden)
    ms = observed_momset(forest, inj, hidden) if ms is None else ms
    vp, vq, s = inj.as_maps()
    return learn_with_missing(
        ms, spec, vp, vq, s, line_param_map(forest.lines),
        forest.substation_children(), **kw,
    )


# -- assumption validation -----------------------------------------------------------


def test_hidden_siblings_flagged():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    f = build_forest(
        nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1), Line(3, 1, r=1, x=1)]
    )
    spec = MissingSpec((2, 3))
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
    spec = MissingSpec((2, 4))
    assert validate_missing_spec(f, spec) == []


def test_hidden_substation_child_flagged():
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    spec = MissingSpec((1,))
    out = validate_missing_spec(f, spec)
    assert any("immediate substation child" in v for v in out)


@pytest.mark.parametrize("hidden", [99, 0], ids=["foreign", "substation"])
def test_hidden_node_that_is_no_load_flagged(hidden):
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    out = validate_missing_spec(f, MissingSpec((hidden, 2)))
    assert out == [f"hidden node {hidden} is not a load of the network"]


def test_choose_hidden_respects_assumptions():
    spec = FeederSpec(n_loads=30, n_trees=2, extra_lines=5)
    forest = synth_layout(spec, 5)
    hidden = choose_hidden(forest, 3, 9)
    assert validate_missing_spec(forest, MissingSpec(hidden)) == []


def test_choose_hidden_infeasible():
    spec = FeederSpec(n_loads=2, n_trees=2)
    forest = synth_layout(spec, 0)
    with pytest.raises(InfeasibleSpec):
        choose_hidden(forest, 1, 0)  # all loads are substation children
    forest = synth_layout(FeederSpec(n_loads=30, n_trees=2, extra_lines=5), 5)
    with pytest.raises(InfeasibleSpec, match="must be >= 0, got -1"):
        choose_hidden(forest, -1, 9)  # not after _HIDDEN_TRIES orders


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
    kinds = {ev.child: ev.kind for ev in diag.events}
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
    accepted = {ev.child: (ev.kind, ev.candidate) for ev in diag.events}
    assert accepted[1] == ("missing_intermediate", 2)


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
    kinds = {ev.kind for ev in diag.events}
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
    assert forced.kind == "missing_leaf_child"


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
    assert forced.kind == "missing_intermediate"


def test_population_randomized_suite():
    rng = np.random.default_rng(77)
    for trial in range(30):
        n = int(rng.integers(8, 35))
        k = int(rng.integers(1, 4))
        spec = FeederSpec(n_loads=n, n_trees=k, extra_lines=int(rng.integers(0, 10)))
        forest = synth_layout(spec, int(rng.integers(2**31)))
        inj = draw_injections(forest.load_ids, int(rng.integers(2**31)))
        try:
            hidden = choose_hidden(forest, int(rng.integers(1, 4)), trial)
        except InfeasibleSpec:
            continue
        rec, _ = run_missing(forest, inj, hidden)
        assert rec.parent == forest.parent, f"trial {trial}"


@pytest.mark.parametrize("seed", range(6))
def test_events_fire_at_their_targets_pop(seed):
    # each undeclared node's checks run when its selected parent pops, the
    # nodes of one pop in their own pop order; the declared substation
    # children resolve last, in id order
    forest, inj = random_feeder(seed, n_range=(12, 40), k_max=3)
    hidden = choose_hidden(forest, 2, seed)
    declared = forest.substation_children()
    ms = observed_momset(forest, inj, hidden)
    selected = recover_parent_map(ms, declared)
    slack_of = {c: s for s, cs in declared.items() for c in cs}
    pops = variance_order(ms)
    want = [(a, t) for t in pops for a in pops if a not in slack_of and selected[a] == t]
    want += sorted(slack_of.items())
    _, missing_diag = run_missing(forest, inj, hidden)
    assert [(ev.child, ev.parent) for ev in missing_diag.events] == want


def test_exactly_one_zero_residual_check_per_event():
    # the accepted check is exact, and every other check misses
    f, inj = hidden_leaf_fixture()
    rec, diag = run_missing(f, inj, (3,))
    accepted = [ev for ev in diag.events if ev.kind is not None]
    assert accepted
    for ev in accepted:
        zero = 1e-9 * max(abs(ev.lhs), 1e-300)
        assert ev.residual <= zero < ev.wrong_margin
    with pytest.raises(dataclasses.FrozenInstanceError):
        accepted[0].kind = None


def test_all_hidden_nodes_placed_once():
    forest, inj = random_feeder(19, n_range=(14, 30), k_max=2)
    try:
        hidden = choose_hidden(forest, 3, 4)
    except InfeasibleSpec:
        hidden = choose_hidden(forest, 2, 4)
    rec, _ = run_missing(forest, inj, hidden)
    pm = rec.parent
    for h in hidden:
        assert h in pm
    assert sorted(pm) == sorted(forest.parent)


def test_hidden_rows_in_the_moments_change_nothing():
    # the learner drops the hidden nodes' rows itself: population moments
    # and sample moments, with or without those rows, give the same forest,
    # events and diagnostics
    forest, inj = random_feeder(23, n_range=(18, 26), k_max=1)
    hidden = choose_hidden(forest, 2, 2)
    observed = [i for i in forest.load_ids if i not in set(hidden)]
    samples = MomentSet.from_samples(sample_voltages(forest, inj, 6400, seed=5))
    for full in (analytic_moments(forest, inj), samples):
        with_rows = run_missing(forest, inj, hidden, ms=full)
        without = run_missing(forest, inj, hidden, ms=full.restrict(observed))
        assert with_rows[0].parent == without[0].parent
        assert with_rows[1] == without[1]
        assert with_rows[1].events


@pytest.mark.parametrize("where, load", [("observed", 4), ("hidden", 3)])
@pytest.mark.parametrize("name", ["var_p", "var_q", "cov_pq"])
def test_known_statistics_must_cover_observed_and_hidden_loads(name, where, load):
    # a gap in any of the three maps is named on entry, not met as a KeyError
    f, inj = hidden_leaf_fixture()
    known = dict(zip(("var_p", "var_q", "cov_pq"), inj.as_maps()))
    known[name] = {a: v for a, v in known[name].items() if a != load}
    with pytest.raises(UnobservedNode, match=rf"known {name} missing for nodes \[{load}\]"):
        learn_with_missing(
            observed_momset(f, inj, (3,)), MissingSpec((3,)), *known.values(),
            line_param_map(f.lines), f.substation_children(),
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
    with pytest.raises(NoConsistentPlacement) as info:
        run_missing(f, inj, (4, 5))
    # both hidden leaves explain node 2's edge equally well, so neither is
    # placed there (nor anywhere else)
    ev = next(ev for ev in info.value.events if ev.child == 2)
    assert (ev.kind, ev.candidate, ev.residual) == (None, None, None)
    assert ev.wrong_margin <= 1e-9 * abs(ev.lhs)
    assert not {4, 5} & set(info.value.parent_map)
    assert "hidden nodes never placed: [4, 5]" in str(info.value)


def nudge_eps_cov(ms, a, b, delta):
    """``ms`` built from its covariance blocks, with ``delta`` added to the
    eps covariance of loads ``a`` and ``b`` (to both triangles; to the
    variance when ``a == b``), and the nudged covariance factored again
    (its Cholesky factor the rows)."""
    blocks = moment_blocks(ms)
    et = blocks["omega_eps_theta"]
    cov = np.block([[blocks["omega_eps"], et], [et.T, blocks["omega_theta"]]])
    i, j = ms.node_ids.index(a), ms.node_ids.index(b)
    cov[i, j] += delta
    if i != j:
        cov[j, i] += delta
    rows = np.linalg.cholesky(cov)
    return MomentSet(ms.node_ids, ms.mu_eps, ms.mu_theta, rows, zero_ids=ms.zero_ids)


def test_direct_edge_under_parked_children_then_adoption():
    # slack 0 -> 1 -> 2 -> 3, hidden leaf 4 under 1.  A nudged statistic of
    # the edge (3, 2) misses every check, so 3 parks under 2; at 2's event
    # the interposition check misses and the direct edge is accepted, and
    # the adoption pass then gives 3 its line to 2
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3, 4)]
    lines = [
        Line(1, 0, r=0.2, x=0.3), Line(2, 1, r=0.25, x=0.2),
        Line(3, 2, r=0.15, x=0.28), Line(4, 1, r=0.3, x=0.1),
    ]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3, 4), mu_p=np.zeros(4), mu_q=np.zeros(4),
        var_p=[1.2, 0.9, 1.5, 1.1], var_q=[0.8, 1.3, 0.7, 0.95],
        cov_pq=[0.5, 0.6, 0.4, 0.55],
    )
    ms = observed_momset(f, inj, (4,))
    ms = nudge_eps_cov(ms, 3, 2, 0.05 * pair_stat(ms, "eps", 3, 2))
    rec, diag = run_missing(f, inj, (4,), ms=ms)
    assert rec.parent == f.parent
    assert diag.parked == [(3, 2)]
    assert diag.fallback_edges == [(3, 2)]
    ev = next(ev for ev in diag.events if ev.child == 2)
    assert (ev.kind, ev.candidate) == ("direct_edge", None)
    assert ev.wrong_margin > 1e-9 * abs(ev.lhs)  # the interposition check missed
    assert diag.unresolved == []


def test_declared_child_keeps_its_slack_edge_when_no_check_matches():
    # slack 0 -> 1 and slack 0 -> 2 -> 3, no hidden node.  A nudged eps
    # variance of 1 matches no prediction of its slack edge, which is drawn
    # anyway (prior knowledge) and recorded as unresolved
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    lines = [Line(1, 0, r=0.2, x=0.3), Line(2, 0, r=0.15, x=0.22), Line(3, 2, r=0.28, x=0.11)]
    f = build_forest(nodes, lines)
    inj = InjectionModel(
        node_ids=(1, 2, 3), mu_p=np.zeros(3), mu_q=np.zeros(3),
        var_p=[1.2, 0.9, 1.5], var_q=[0.8, 1.3, 0.7], cov_pq=[0.5, 0.6, 0.4],
    )
    ms = observed_momset(f, inj)
    ms = nudge_eps_cov(ms, 1, 1, 0.05 * pair_stat(ms.with_zero_ids((0,)), "eps", 1, 0))
    rec, diag = run_missing(f, inj, (), ms=ms)
    assert rec.parent == f.parent
    ev = next(ev for ev in diag.events if ev.child == 1)
    assert (ev.parent, ev.kind) == (0, None)
    # the one check, the direct edge of leaf 1, missed
    assert ev.wrong_margin == abs(ev.lhs - _predicted_sqdiff(0.2, 0.3, 1.2, 0.8, 0.5))
    assert diag.unresolved == [1]
    assert diag.parked == []


def test_finite_sample_recovery_smoke():
    forest, inj = random_feeder(23, n_range=(18, 26), k_max=1)
    hidden = choose_hidden(forest, 1, 2)
    spec = MissingSpec(hidden)
    observed = tuple(i for i in forest.load_ids if i not in set(hidden))
    samples = restrict_samples(sample_voltages(forest, inj, 60_000, seed=5), observed)
    ms = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
    vp, vq, s = inj.as_maps()
    rec, _ = learn_with_missing(
        ms, spec, vp, vq, s, line_param_map(forest.lines), forest.substation_children()
    )
    assert rec.parent == forest.parent
