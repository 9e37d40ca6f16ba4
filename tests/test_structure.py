import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforest import structure
from gridforest.errors import IncompleteCover, UnobservedNode
from gridforest.missing import MissingSpec, learn_with_missing
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, build_forest, line_param_map
from gridforest.powerflow import InjectionModel, analytic_moments, sample_voltages
from gridforest.structure import (
    EstimationDiagnostics,
    StructureDiagnostics,
    estimate_injection_stats,
    learn_structure,
    recover_parent_map,
    solve_edge_system,
)
from gridforest.synth import FeederSpec, draw_injections, preset, synth_layout

from conftest import (
    direct_injection_stats,
    magnitude_only,
    random_feeder,
    scalar_parent_map,
    variance_order,
)


def sample_momset(forest, inj, m, seed):
    return MomentSet.from_samples(
        sample_voltages(forest, inj, m, seed), zero_ids=forest.slack_ids
    )


# -- structure recovery -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_population_structure_exact(seed):
    forest, inj = random_feeder(seed, n_range=(2, 60), k_max=8)
    ms = analytic_moments(forest, inj)
    rec = learn_structure(
        ms, forest.substation_children(), line_params=line_param_map(forest.lines)
    )
    assert rec.parent == forest.parent


def test_single_load_attaches_to_declared_slack():
    nodes = [Node(0, "substation"), Node(1, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1)])
    inj = InjectionModel(
        node_ids=(1,), mu_p=[0.0], mu_q=[0.0], var_p=[1.0], var_q=[1.0], cov_pq=[0.5]
    )
    rec = learn_structure(analytic_moments(f, inj), {0: (1,)})
    assert rec.parent == {1: 0}


def test_three_node_chain_statistical():
    """Moderate-noise chain recovered in at least 99 of 100 seeded runs."""
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    f = build_forest(
        nodes, [Line(1, 0, r=0.4, x=0.5), Line(2, 1, r=0.5, x=0.4), Line(3, 2, r=0.45, x=0.5)]
    )
    inj = InjectionModel(
        node_ids=(1, 2, 3),
        mu_p=[-0.4, -0.5, -0.3], mu_q=[-0.2, -0.2, -0.1],
        var_p=[1.0, 1.1, 0.9], var_q=[0.8, 1.0, 1.2], cov_pq=[0.4, 0.5, 0.45],
    )
    wins = 0
    for seed in range(100):
        ms = sample_momset(f, inj, 10_000, seed)
        rec = learn_structure(ms, {0: (1,)})
        wins += rec.parent == f.parent
    assert wins >= 99


def test_structure_ignores_theta_channel():
    forest, inj = random_feeder(4, n_range=(5, 25))
    samples = sample_voltages(forest, inj, 2000, seed=1)
    with_theta = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
    without = MomentSet.from_samples(magnitude_only(samples), zero_ids=forest.slack_ids)
    declared = forest.substation_children()
    a = learn_structure(with_theta, declared)
    b = learn_structure(without, declared)
    assert a.parent == b.parent


def test_undeclared_substation_child_raises():
    nodes = [Node(0, "substation"), Node(1, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1)])
    inj = InjectionModel(
        node_ids=(1,), mu_p=[0.0], mu_q=[0.0], var_p=[1.0], var_q=[1.0], cov_pq=[0.5]
    )
    with pytest.raises(IncompleteCover):
        learn_structure(analytic_moments(f, inj), {0: ()})


def test_declared_child_must_be_observed():
    ms_src = random_feeder(1, n_range=(4, 8), k_max=1)
    forest, inj = ms_src
    ms = analytic_moments(forest, inj)
    with pytest.raises(UnobservedNode):
        learn_structure(ms, {forest.slack_ids[0]: (9999,)})


def test_selection_margins_recorded():
    forest, inj = random_feeder(6, n_range=(6, 20), k_max=2)
    ms = analytic_moments(forest, inj)
    diag = StructureDiagnostics()
    learn_structure(ms, forest.substation_children(), diagnostics=diag)
    non_declared = [a for a in forest.load_ids if not forest.is_slack(forest.parent[a])]
    assert {d.child for d in diag.decisions} == set(non_declared)
    assert all(d.margin > 0 for d in diag.decisions)
    assert not diag.ambiguous_edges


def test_exact_tie_picks_smallest_id():
    # pops 9 (var 4), 7 (var 2), 5 (var 1): node 9's squared differences to
    # 7 and to 5 are both exactly 4.0, and the smaller id wins although 7 is
    # popped first
    # covariance [[1, 0.5, 0.5], [0.5, 2, 1], [0.5, 1, 4]] from a factor with
    # small dyadic entries, whose products and sums are exact
    rows = 0.5 * np.array(
        [[2, 0, 0, 0, 0, 0, 0], [1, 2, 1, 1, 1, 0, 0], [1, 1, 1, 0, 0, 3, 2]], dtype=float
    )
    ms = MomentSet((5, 7, 9), np.zeros(3), None, rows, zero_ids=(0,))
    assert ms.cov_eps.tolist() == [[1.0, 0.5, 0.5], [0.5, 2.0, 1.0], [0.5, 1.0, 4.0]]
    declared = {0: (5,)}
    diag = StructureDiagnostics()
    rec = learn_structure(ms, declared, diagnostics=diag)
    assert rec.parent == {9: 5, 7: 5, 5: 0}
    tie, single = diag.decisions
    assert (tie.child, tie.parent, tie.runner_up) == (9, 5, 7)
    assert tie.margin == 0.0 and tie.ambiguous
    assert (single.child, single.parent, single.runner_up) == (7, 5, None)
    assert single.margin == float("inf") and not single.ambiguous

    ones = {5: 1.0, 7: 1.0, 9: 1.0}
    lines = {(5, 9): (1.0, 1.0), (5, 7): (1.0, 1.0), (0, 5): (1.0, 1.0)}
    rec, mdiag = learn_with_missing(
        ms, MissingSpec(()), ones, ones, ones, lines, declared
    )
    assert {ev.child: ev.parent for ev in mdiag.events} == {9: 5, 7: 5, 5: 0}
    assert rec.parent == {9: 5, 7: 5, 5: 0}


# -- the row-block kernel against the scalar loop ------------------------------------


def _selection(kernel, momset, declared):
    """(parent map items in insertion order, whether IncompleteCover was
    raised, the diagnostics) of one parent-selection kernel."""
    diag = StructureDiagnostics()
    try:
        return list(kernel(momset, declared, diagnostics=diag).items()), False, diag
    except IncompleteCover as exc:
        return list(exc.parent_map.items()), True, diag


def assert_same_selection(momset, declared):
    got = _selection(recover_parent_map, momset, declared)
    assert got == _selection(scalar_parent_map, momset, declared)
    return got


def random_eps_momset(seed, n, *, ties=False):
    """Eps moments of n loads with scattered ids, and two unobserved zero
    ids, whose factor is the rows b (covariance b bᵀ).  With ``ties`` the
    rows are 0/1, so many variances and squared differences tie exactly."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10 * n + 10, size=n + 2, replace=False)
    b = rng.integers(0, 2, (n, 4)) if ties else rng.standard_normal((n, n))
    return MomentSet(ids[:n], np.zeros(n), None, b.astype(float), zero_ids=ids[n:])


def declare(momset, seed, count, *, last):
    """``count`` random loads, plus the last pop when ``last`` (so the cover
    completes), declared under the two zero ids."""
    slacks = sorted(momset.zero_ids)
    order = variance_order(momset)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(order[:-1], size=count, replace=False).tolist()
    if last:
        chosen.append(order[-1])
    return {slacks[0]: chosen[::2], slacks[1]: chosen[1::2]}


@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("seed", range(6))
def test_row_blocks_match_scalar_loop(seed, ties):
    n = 13 + 9 * seed
    ms = random_eps_momset(seed, n, ties=ties)
    items, raised, diag = assert_same_selection(ms, declare(ms, seed, min(3, n // 3), last=True))
    assert not raised and len(items) == n and diag.decisions
    if ties:
        # exact ties are broken by the smallest id, whichever pops first
        tied = [d for d in diag.decisions if d.margin == 0.0]
        assert tied and all(d.parent < d.runner_up and d.ambiguous for d in tied)


@pytest.mark.parametrize("seed", range(4))
def test_row_blocks_incomplete_cover(seed):
    ms = random_eps_momset(seed, 12, ties=seed % 2 == 1)
    for declared in ({}, declare(ms, seed, 2, last=False)):
        items, raised, diag = assert_same_selection(ms, declared)
        assert raised and len(items) == 11 and variance_order(ms)[-1] not in dict(items)


@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("seed", range(4))
def test_the_map_is_in_variance_order(seed, ties):
    # the learners read the pop order off the map: its keys, then the one
    # load an IncompleteCover leaves out, are the loads by decreasing
    # variance, ties by id, in the kernel and in the scalar oracle alike
    ms = random_eps_momset(seed, 12 + seed, ties=ties)
    for last in (True, False):
        declared = declare(ms, seed, 3, last=last)
        for kernel in (recover_parent_map, scalar_parent_map):
            items, raised, _ = _selection(kernel, ms, declared)
            dangling = [a for a in ms.node_ids if a not in dict(items)]
            assert raised is not last and len(dangling) == int(raised)
            assert [a for a, _ in items] + dangling == variance_order(ms)


@pytest.mark.parametrize("seed", range(4))
def test_row_blocks_match_scalar_loop_on_feeders(seed):
    forest, inj = random_feeder(seed, n_range=(2, 60), k_max=8)
    declared = forest.substation_children()
    for ms in (analytic_moments(forest, inj), sample_momset(forest, inj, 30, seed)):
        assert not assert_same_selection(ms, declared)[1]


@pytest.mark.parametrize(
    "n, block, ties",
    [(400, None, False), (300, None, True), (37, 100, False), (37, 100, True), (9, 1, True)],
)
def test_row_blocks_across_block_boundaries(monkeypatch, n, block, ties):
    # 400 loads take three row blocks at the default size, the last partial
    if block is not None:
        monkeypatch.setattr(structure, "_SELECT_BLOCK", block)
    assert structure._SELECT_BLOCK // n < n - 1
    ms = random_eps_momset(n, n, ties=ties)
    for last in (True, False):
        assert assert_same_selection(ms, declare(ms, n, 5, last=last))[1] is not last


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    ties=st.booleans(),
    declared=st.integers(0, 4),
)
def test_parent_map_is_leaf_first_property(seed, n, ties, declared):
    # the line learner walks the parent map in its own order as a leaf-first
    # order: every node comes before its parent, under exact variance ties too
    ms = random_eps_momset(seed, n, ties=ties)
    parent = recover_parent_map(ms, declare(ms, seed, min(declared, n - 1), last=True))
    pos = {a: k for k, a in enumerate(parent)}
    assert sorted(parent) == sorted(ms.node_ids)
    assert all(pos[a] < pos[b] for a, b in parent.items() if b in pos)


# -- injection statistics ------------------------------------------------------------


def test_edge_system_worked_example():
    # r=1, x=2, subtree sums (1, 1, 0.5): statistics A=7, B=3, C=1.5
    sums = solve_edge_system(1.0, 2.0, 7.0, 3.0, 1.5)
    np.testing.assert_allclose(sums, [1.0, 1.0, 0.5], atol=1e-12)


def test_edge_system_solvable_at_equal_impedances():
    # equal r and x leave the system nonsingular: det = -(r^2+x^2)^3
    sums = solve_edge_system(1.0, 1.0, 3.0, 1.0, 0.25)
    a, b, c = 3.0, 1.0, 0.25
    p_plus_q = (a + b) / 2.0
    s = (a - b) / 4.0
    p_minus_q = c
    np.testing.assert_allclose(
        sums, [(p_plus_q + p_minus_q) / 2, (p_plus_q - p_minus_q) / 2, s], atol=1e-12
    )


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("sums", [(1.0, 1.0, 0.5), (2.0, 0.3, -0.7), (1e-4, 5.0, 0.02)])
def test_edge_system_round_trip(ratio, sums):
    # forward through the real 3 x 3 system, back through the closed form
    r, x = np.sqrt(ratio), 1.0 / np.sqrt(ratio)
    mat = np.array(
        [
            [r * r, x * x, 2.0 * r * x],
            [x * x, r * r, -2.0 * r * x],
            [r * x, -r * x, x * x - r * r],
        ]
    )
    got = solve_edge_system(r, x, *(mat @ np.array(sums)))
    np.testing.assert_allclose(got, sums, rtol=1e-10, atol=1e-10 * max(map(abs, sums)))


@pytest.mark.parametrize("seed", range(10))
def test_population_estimation_round_trip(seed):
    forest, inj = random_feeder(seed, n_range=(2, 40), k_max=4)
    ms = analytic_moments(forest, inj)
    inj_hat = estimate_injection_stats(ms, forest)
    for est, tru in (
        (inj_hat.mu_p, inj.mu_p),
        (inj_hat.mu_q, inj.mu_q),
        (inj_hat.var_p, inj.var_p),
        (inj_hat.var_q, inj.var_q),
        (inj_hat.cov_pq, inj.cov_pq),
    ):
        np.testing.assert_allclose(est, tru, rtol=1e-8)


def test_zero_mean_injections_recovered_as_zero():
    forest, inj0 = random_feeder(7, n_range=(3, 12))
    inj = InjectionModel(
        node_ids=inj0.node_ids,
        mu_p=np.zeros(inj0.n), mu_q=np.zeros(inj0.n),
        var_p=inj0.var_p, var_q=inj0.var_q, cov_pq=inj0.cov_pq,
    )
    inj_hat = estimate_injection_stats(analytic_moments(forest, inj), forest)
    np.testing.assert_allclose(inj_hat.mu_p, 0.0, atol=1e-12)
    np.testing.assert_allclose(inj_hat.mu_q, 0.0, atol=1e-12)


def test_direct_mode_matches_sequential():
    forest, inj = random_feeder(13, n_range=(4, 30), k_max=3)
    ms = analytic_moments(forest, inj)
    seq = estimate_injection_stats(ms, forest)
    direct = direct_injection_stats(ms, forest)
    np.testing.assert_allclose(direct.var_p, seq.var_p, rtol=1e-8)
    np.testing.assert_allclose(direct.var_q, seq.var_q, rtol=1e-8)
    np.testing.assert_allclose(direct.cov_pq, seq.cov_pq, rtol=1e-8)
    np.testing.assert_allclose(direct.mu_p, seq.mu_p, rtol=1e-8)


def test_direct_mode_on_samples():
    # the edge walk and the direct oracle are distinct finite-sample
    # estimators of the same truth: means are the same linear map of the
    # sample means, covariances agree only statistically
    forest, inj = random_feeder(17, n_range=(4, 15), k_max=2)
    ms = sample_momset(forest, inj, 20_000, seed=2)
    seq = estimate_injection_stats(ms, forest)
    direct = direct_injection_stats(ms, forest)
    np.testing.assert_allclose(direct.mu_p, seq.mu_p, rtol=1e-8, atol=1e-14)
    np.testing.assert_allclose(direct.mu_q, seq.mu_q, rtol=1e-8, atol=1e-14)
    assert np.mean(np.abs(direct.var_p - inj.var_p) / inj.var_p) < 0.2
    assert np.mean(np.abs(seq.var_p - inj.var_p) / inj.var_p) < 0.2


def test_estimation_requires_theta():
    forest, inj = random_feeder(3, n_range=(3, 8))
    samples = magnitude_only(sample_voltages(forest, inj, 100, seed=0))
    ms = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
    with pytest.raises(UnobservedNode):
        estimate_injection_stats(ms, forest)


def test_negative_variance_clamped_and_flagged():
    forest, inj = random_feeder(8, n_range=(6, 12), k_max=1)
    # tiny m makes negative solved variances likely across seeds
    for seed in range(30):
        ms = sample_momset(forest, inj, 6, seed)
        diag = EstimationDiagnostics()
        inj_hat = estimate_injection_stats(ms, forest, diagnostics=diag)
        assert np.all(inj_hat.var_p >= 0) and np.all(inj_hat.var_q >= 0)
        if diag.clamped_variances:
            raw = [v for (_n, _f, v) in diag.clamped_variances]
            assert all(v < 0 for v in raw)
            return
    pytest.fail("no negative variance produced across 30 tiny-sample runs")


@pytest.mark.parametrize("var", [1e-170, 1e170], ids=["tiny", "huge"])
def test_no_covariance_clamped_at_extreme_variances(var):
    # var_p * var_q underflows to 0 at the tiny end (every covariance would
    # be clamped to 0) and overflows at the huge end; the clamp's bound is
    # sqrt(var_p) * sqrt(var_q), the bound InjectionModel checks
    forest = synth_layout(preset("bus_13_3"), 7)
    n = forest.n_loads
    inj = InjectionModel(
        node_ids=forest.load_ids, mu_p=np.zeros(n), mu_q=np.zeros(n),
        var_p=np.full(n, var), var_q=np.full(n, var),
        cov_pq=np.full(n, 0.5 * np.sqrt(var) * np.sqrt(var)),
    )
    diag = EstimationDiagnostics()
    got = estimate_injection_stats(analytic_moments(forest, inj), forest, diagnostics=diag)
    assert diag.clamped_covariances == [] and diag.clamped_variances == []
    np.testing.assert_allclose(got.cov_pq, inj.cov_pq, rtol=1e-12, atol=0)


def test_estimation_error_non_increasing_in_m():
    spec = FeederSpec(n_loads=8, n_trees=1, extra_lines=4)
    forest = synth_layout(spec, 3)
    grid = (500, 2000, 8000)
    errs = []
    for m in grid:
        vals = []
        for seed in range(12):
            inj = draw_injections(forest.load_ids, [31, seed])
            ms = sample_momset(forest, inj, m, [m, seed])
            inj_hat = estimate_injection_stats(ms, forest)
            vals.append(np.mean(np.abs(inj_hat.var_p - inj.var_p) / inj.var_p))
        errs.append(np.mean(vals))
    assert errs[0] > errs[1] > errs[2]


def test_deep_chain_population():
    rng = np.random.default_rng(0)
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in range(1, 46)]
    lines = [Line(1, 0, r=rng.uniform(0.05, 0.3), x=rng.uniform(0.05, 0.3))] + [
        Line(i, i - 1, r=rng.uniform(0.05, 0.3), x=rng.uniform(0.05, 0.3))
        for i in range(2, 46)
    ]
    chain = build_forest(nodes, lines)
    vp = rng.uniform(0.5, 2.0, 45) * 1e-4
    vq = rng.uniform(0.5, 2.0, 45) * 1e-4
    inj = InjectionModel(
        node_ids=chain.load_ids,
        mu_p=rng.uniform(-1, -0.2, 45), mu_q=rng.uniform(-1, -0.2, 45),
        var_p=vp, var_q=vq, cov_pq=rng.uniform(0.2, 0.8, 45) * np.sqrt(vp * vq),
    )
    ms = analytic_moments(chain, inj)
    rec = learn_structure(ms, chain.substation_children())
    assert rec.parent == chain.parent
    inj_hat = estimate_injection_stats(ms, chain)
    # descendant-sum subtraction stays stable even 45 levels deep
    assert np.max(np.abs(inj_hat.var_p - inj.var_p) / inj.var_p) < 1e-8


def test_wide_star_population():
    rng = np.random.default_rng(1)
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in range(1, 32)]
    lines = [Line(1, 0, r=0.2, x=0.25)] + [
        Line(i, 1, r=rng.uniform(0.05, 0.3), x=rng.uniform(0.05, 0.3))
        for i in range(2, 32)
    ]
    star = build_forest(nodes, lines)
    vp = rng.uniform(0.5, 2.0, 31) * 1e-4
    vq = rng.uniform(0.5, 2.0, 31) * 1e-4
    inj = InjectionModel(
        node_ids=star.load_ids,
        mu_p=np.zeros(31), mu_q=np.zeros(31),
        var_p=vp, var_q=vq, cov_pq=rng.uniform(0.2, 0.8, 31) * np.sqrt(vp * vq),
    )
    rec = learn_structure(analytic_moments(star, inj), star.substation_children())
    assert rec.parent == star.parent


def test_full_pipeline_learn_result():
    forest, inj = random_feeder(10, n_range=(4, 20), k_max=2)
    ms = analytic_moments(forest, inj)
    rec = learn_structure(
        ms, forest.substation_children(), line_params=line_param_map(forest.lines)
    )
    assert rec.parent == forest.parent
    inj_hat = estimate_injection_stats(ms, rec)
    np.testing.assert_allclose(inj_hat.var_p, inj.var_p, rtol=1e-8)
