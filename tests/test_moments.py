import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridforest.errors import TooFewSamples, UnobservedNode
from gridforest.experiments import empirical_moments
from gridforest.missing import _predicted_sqdiff
from gridforest.moments import MomentSet
from gridforest.powerflow import (
    VoltageSamples,
    analytic_moments,
    sample_voltages,
)
from gridforest.synth import (
    FeederSpec,
    choose_hidden,
    draw_injections,
    preset,
    synth_feeder,
    synth_layout,
)

from conftest import (
    depths,
    descendant_set,
    pair_stat,
    pairwise_sqdiff_analytic,
    random_feeder,
    restrict_samples,
    root_of,
)


def two_point_samples():
    # node 1: {1, 3}; node 2: {0, 0}
    return VoltageSamples(node_ids=(1, 2), eps=np.array([[1.0, 0.0], [3.0, 0.0]]))


def test_two_point_mean_and_variance():
    ms = MomentSet.from_samples(two_point_samples())
    nodes = ms.to_dict()["nodes"]
    assert nodes[0]["mu_eps"] == pytest.approx(2.0)
    # divisor-m estimator: (1 + 9)/2 - 4 = 1
    assert nodes[0]["var_eps"] == pytest.approx(1.0)
    assert nodes[1]["var_eps"] == 0.0


def test_two_point_sqdiff():
    ms = MomentSet.from_samples(two_point_samples())
    # ((1-2)-0)^2 and ((3-2)-0)^2, averaged
    assert pair_stat(ms, "eps", 1, 2) == pytest.approx(1.0)
    assert pair_stat(ms, "eps", 2, 1) == pytest.approx(1.0)


def test_constant_samples_zero_variance():
    s = VoltageSamples(node_ids=(5,), eps=np.full((4, 1), 2.5))
    ms = MomentSet.from_samples(s)
    assert ms.cov_eps[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_sqdiff_same_node_zero():
    ms = MomentSet.from_samples(two_point_samples())
    assert ms.sqdiff("eps", 1, 1) == 0.0


def test_too_few_samples():
    s = VoltageSamples(node_ids=(1,), eps=np.array([[1.0]]))
    with pytest.raises(TooFewSamples):
        MomentSet.from_samples(s)


def test_unobserved_node():
    ms = MomentSet.from_samples(two_point_samples(), zero_ids=(0,))
    with pytest.raises(UnobservedNode):
        pair_stat(ms, "eps", 1, 99)
    # neither observed nor a zero id, on either side of a pair
    with pytest.raises(UnobservedNode, match="node 99"):
        ms.edge_stats([1, 2], [0, 99])
    with pytest.raises(UnobservedNode, match="node 99"):
        ms.edge_stats([99], [1])


def test_theta_channel_absent():
    ms = MomentSet.from_samples(two_point_samples(), zero_ids=(0,))
    assert not ms.has_theta
    with pytest.raises(UnobservedNode):
        pair_stat(ms, "theta", 1, 2)
    eps, theta, cross = ms.edge_stats([1, 2], [2, 0])
    assert eps.tolist() == [pair_stat(ms, "eps", 1, 2), pair_stat(ms, "eps", 2, 0)]
    assert theta is None and cross is None


def test_zero_ids_reduce_to_single_node_stats():
    ms = MomentSet.from_samples(two_point_samples(), zero_ids=(0,))
    assert pair_stat(ms, "eps", 1, 0) == ms.cov_eps[0, 0]
    assert pair_stat(ms, "eps", 0, 1) == ms.cov_eps[0, 0]
    assert pair_stat(ms, "eps", 0, 0) == 0.0


def test_with_zero_ids_rejects_observed():
    ms = MomentSet.from_samples(two_point_samples())
    with pytest.raises(ValueError):
        ms.with_zero_ids((1,))


def test_observed_zero_id_rejected_at_construction():
    # the learners skip zero ids, so an observed one would silently drop
    # that load: learn_structure would return 12 of bus_13_3's 13 edges
    spec = preset("bus_13_3")
    forest = synth_layout(spec, 7)
    inj = draw_injections(forest.load_ids, [7, 0])
    samples = sample_voltages(forest, inj, 400, seed=1)
    zero_ids = (*forest.slack_ids, 1)
    with pytest.raises(ValueError, match=r"zero ids \[1\] are observed nodes"):
        MomentSet.from_samples(samples, zero_ids=zero_ids)
    with pytest.raises(ValueError, match=r"zero ids \[1\] are observed nodes"):
        analytic_moments(forest, inj).with_zero_ids(zero_ids)


@settings(max_examples=40, deadline=None)
@given(
    data=arrays(
        np.float64,
        (7, 3),
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
)
def test_sqdiff_identity_against_direct_sum(data):
    """sqdiff equals var(a) - 2 cov(a, b) + var(b) and the direct average."""
    s = VoltageSamples(node_ids=(1, 2, 3), eps=data)
    ms = MomentSet.from_samples(s)
    m = data.shape[0]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ca = data[:, a] - data[:, a].mean()
        cb = data[:, b] - data[:, b].mean()
        direct = np.mean((ca - cb) ** 2)
        va = np.mean(ca**2)
        vb = np.mean(cb**2)
        cab = np.mean(ca * cb)
        ident = va - 2 * cab + vb
        got = pair_stat(ms, "eps", a + 1, b + 1)
        assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert got == pytest.approx(ident, rel=1e-9, abs=1e-12)


def test_sqdiff_wide_matches_per_pair_mean():
    # N above the old lazy-path cutoff: the covariance blocks come from one
    # matrix product, and every statistic still equals its per-pair mean
    rng = np.random.default_rng(8)
    n, m = 250, 400
    eps = rng.normal(size=(m, n)) + rng.normal(size=(m, 1))
    theta = 0.5 * eps + rng.normal(size=(m, n))
    ms = MomentSet.from_samples(VoltageSamples(node_ids=range(n), eps=eps, theta=theta))
    ce = eps - eps.mean(axis=0)
    ct = theta - theta.mean(axis=0)
    for a, b in rng.integers(0, n, size=(60, 2)):
        if a == b:
            continue
        de, dt = ce[:, a] - ce[:, b], ct[:, a] - ct[:, b]
        assert pair_stat(ms, "eps", a, b) == pytest.approx(np.mean(de * de), rel=1e-12)
        assert pair_stat(ms, "theta", a, b) == pytest.approx(np.mean(dt * dt), rel=1e-12)
        assert pair_stat(ms, "cross", a, b) == pytest.approx(np.mean(de * dt), rel=1e-12)


def test_sqdiff_converges_to_analytic():
    forest, inj = random_feeder(5, n_range=(3, 8), k_max=1)
    am = analytic_moments(forest, inj)
    m = 100_000
    s = sample_voltages(forest, inj, m, seed=17)
    ms = MomentSet.from_samples(s)
    a, b = forest.load_ids[0], forest.load_ids[-1]
    if root_of(forest, a) != root_of(forest, b):
        pytest.skip("cross-tree pair")
    for channel in ("eps", "theta", "cross"):
        ana = pairwise_sqdiff_analytic(forest, inj, a, b, channel)
        emp = pair_stat(ms, channel, a, b)
        scale = abs(pairwise_sqdiff_analytic(forest, inj, a, b, "eps"))
        assert abs(emp - ana) < 6.0 * scale / np.sqrt(m)


def test_cross_channel_parent_edge_convergence():
    # empirical cross statistic approaches its descendant-sum value
    forest, inj = random_feeder(9, n_range=(4, 10), k_max=1)
    vp, vq, ss = inj.as_maps()
    m = 200_000
    s = sample_voltages(forest, inj, m, seed=4)
    ms = MomentSet.from_samples(s)
    for a in forest.load_ids:
        b = forest.parent[a]
        if not forest.is_load(b):
            continue
        r, x = forest.edge_params[a]
        desc = descendant_set(forest, a)
        want = r * x * sum(vp[c] - vq[c] for c in desc) + (x * x - r * r) * sum(
            ss[c] for c in desc
        )
        got = pair_stat(ms, "cross", a, b)
        eps_scale = pair_stat(ms, "eps", a, b)
        assert abs(got - want) < 6.0 * eps_scale / np.sqrt(m)
        break


def test_analytic_momset_matches_pairwise():
    forest, inj = random_feeder(11, n_range=(4, 12), k_max=1)
    ms = analytic_moments(forest, inj)
    a, b = forest.load_ids[0], forest.load_ids[2]
    for channel in ("eps", "theta", "cross"):
        assert pair_stat(ms, channel, a, b) == pytest.approx(
            pairwise_sqdiff_analytic(forest, inj, a, b, channel), rel=1e-12
        )


def test_from_analytic_is_a_view_of_the_population_moments():
    # population moments are a MomentSet with m None, and the shim registers
    # the slacks on a view that shares their factor and eps block, so a
    # population pass forms cov_eps once
    forest, inj = random_feeder(11, n_range=(4, 12), k_max=3)
    am = analytic_moments(forest, inj)
    assert isinstance(am, MomentSet) and am.m is None and not am.zero_ids
    ms = MomentSet.from_analytic(am, zero_ids=forest.slack_ids)
    assert ms.rows is am.rows and ms.cov_eps is am.cov_eps
    assert ms.zero_ids == frozenset(forest.slack_ids) and not am.zero_ids
    children = list(forest.load_ids)
    parents = [forest.parent[a] for a in children]
    want = am.with_zero_ids(forest.slack_ids).edge_stats(children, parents)
    got = ms.edge_stats(children, parents)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert MomentSet.from_analytic(am) is am


def test_restriction_to_observed_subset():
    forest, inj = random_feeder(2, n_range=(5, 9), k_max=1)
    s = sample_voltages(forest, inj, 50, seed=2)
    keep = forest.load_ids[:3]
    ms = MomentSet.from_samples(restrict_samples(s, keep))
    assert ms.node_ids == tuple(keep)
    with pytest.raises(UnobservedNode):
        pair_stat(ms, "eps", keep[0], forest.load_ids[-1])
    # a restricted view of the full set answers the same questions
    view = MomentSet.from_samples(s).restrict(reversed(keep))
    assert view.node_ids == tuple(reversed(keep))
    np.testing.assert_allclose(view.mu_theta[::-1], ms.mu_theta, rtol=1e-12)
    for a in keep:
        for b in keep:
            for channel in ("eps", "theta", "cross"):
                assert pair_stat(view, channel, a, b) == pytest.approx(
                    pair_stat(ms, channel, a, b), rel=1e-12, abs=1e-300
                )
    with pytest.raises(UnobservedNode):
        pair_stat(view, "eps", keep[0], forest.load_ids[-1])


def test_restriction_slices_only_the_eps_block():
    # the view shares the factor, so its peak is about one observed-by-
    # observed eps block; the theta and cross blocks are not copied
    forest, inj = synth_feeder(FeederSpec(400, n_trees=4, extra_lines=100), 1)
    hidden = set(choose_hidden(forest, 20, 1))
    keep = [i for i in forest.load_ids if i not in hidden]
    ms = analytic_moments(forest, inj)
    tracemalloc.start()
    try:
        view = ms.restrict(keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert view.rows is ms.rows
    assert peak < 1.5 * 8 * len(keep) ** 2


def test_edge_stats_on_a_deep_chain():
    # each edge's eps statistic is its subtree's closed form to 1e-12 on a
    # 1500-deep chain: the rows' difference cancels only the shared path,
    # where var(a) - 2 cov(a, b) + var(b) cancels about depth^3 worth of
    # digits
    spec = FeederSpec(1500, n_trees=1, chain_bias=1.0, max_children=1)
    forest, inj = synth_feeder(spec, 1)
    depth = depths(forest)
    assert max(depth.values()) == 1500
    ms = analytic_moments(forest, inj).with_zero_ids(forest.slack_ids)
    order = sorted(forest.load_ids, key=lambda a: -depth[a])  # leaf first
    eps, _, _ = ms.edge_stats(order, [forest.parent[a] for a in order])
    vp, vq, s = inj.as_maps()
    sums = np.cumsum([(vp[a], vq[a], s[a]) for a in order], axis=0)  # subtree sums
    want = [_predicted_sqdiff(*forest.edge_params[a], *sums[k]) for k, a in enumerate(order)]
    np.testing.assert_allclose(eps, want, rtol=1e-12, atol=0)


def _scalar_stat(ms, channel, a, b):
    """Reference: one pair's statistic from its own two rows of the factor
    alone (a zero id's row is zero), in the operation order edge_stats
    promises."""
    if a == b:
        return 0.0
    pos = {i: k for k, i in enumerate(ms.node_ids)}

    def row(i, theta):
        if i in ms.zero_ids:
            return np.zeros(ms.rows.shape[1])
        return ms.rows[ms._rix[int(theta), pos[i]]]

    de = row(a, False) - row(b, False)
    dt = row(a, True) - row(b, True)
    x, y = {"eps": (de, de), "theta": (dt, dt), "cross": (de, dt)}[channel]
    return float(np.einsum("j,j->", x, y))


def test_edge_stats_match_scalar_bit_for_bit():
    rng = np.random.default_rng(3)
    n, m = 30, 80
    eps = rng.normal(size=(m, n)) + rng.normal(size=(m, 1))
    theta = 0.5 * eps + rng.normal(size=(m, n))
    ids = tuple(range(1, n + 1))
    ms = MomentSet.from_samples(
        VoltageSamples(node_ids=ids, eps=eps, theta=theta), zero_ids=(0, -1)
    )
    children = [int(i) for i in rng.choice(ids, size=60)]
    parents = [int(i) for i in rng.choice(ids, size=60)]
    children += [5, 7, 0, 3, 0]  # slack parents and children, a == b
    parents += [0, -1, 4, 3, 0]
    got = ms.edge_stats(children, parents)
    for channel, vals in zip(("eps", "theta", "cross"), got):
        for a, b, v in zip(children, parents, vals.tolist()):
            assert v == _scalar_stat(ms, channel, a, b)
            assert v == ms.sqdiff(channel, a, b)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("m", [2, 599, 600, 601, 15_000], ids=["2", "2n-1", "2n", "2n+1", "50n"])
def test_sweep_cell_edge_stats_match_one_pair_bit_for_bit(m, dist):
    # a sweep cell's set on both sides of m = 2n, its samples' own moments
    # and then the swept factor of its draws' covariance: each edge reads
    # the same in a block of edges as alone
    forest, inj = synth_feeder(FeederSpec(300, n_trees=3), 3)
    assert 2 * forest.n_loads == 600
    inj = dataclasses.replace(inj, distribution=dist)
    ms = empirical_moments(forest, inj, m, 1).with_zero_ids(forest.slack_ids)
    assert ms.rows.shape == (600, min(m, 600))
    children = list(forest.load_ids)
    parents = [forest.parent[a] for a in children]
    got = ms.edge_stats(children, parents)
    for channel, vals in zip(("eps", "theta", "cross"), got):
        for a, b, v in zip(children, parents, vals.tolist()):
            assert v == pair_stat(ms, channel, a, b)


def test_to_dict_shape():
    ms = MomentSet.from_samples(two_point_samples())
    d = ms.to_dict()
    assert d["m"] == 2
    assert {row["id"] for row in d["nodes"]} == {1, 2}
    assert "var_eps" in d["nodes"][0]
