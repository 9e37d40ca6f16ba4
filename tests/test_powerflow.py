from dataclasses import replace

import numpy as np
import pytest

from gridforest.errors import (
    DimensionMismatch,
    InvalidCovariance,
    NonFiniteSamples,
    TooFewSamples,
)
from gridforest.experiments import empirical_moments
from gridforest.network import Line, Node, build_forest
from gridforest.powerflow import (
    InjectionModel,
    VoltageSamples,
    _draw_rows,
    _standard_draws,
    analytic_moments,
    apply_path_inverse,
    draw_moments,
    fold_moments,
    sample_voltages,
    solve_lcpf,
)
from gridforest.synth import FeederSpec, choose_hidden, preset, synth_feeder

from conftest import (
    dense_path_matrix,
    descendant_set,
    pairwise_sqdiff_analytic,
    random_feeder,
    reference_analytic_moments,
    reference_sample_voltages,
    magnitude_only,
    one_pass_sample_moments,
    restrict_samples,
    sampled_moments,
)


def unit_injections(forest, var_p=1.0, var_q=1.0, cov=0.5):
    n = forest.n_loads
    return InjectionModel(
        node_ids=forest.load_ids,
        mu_p=np.zeros(n),
        mu_q=np.zeros(n),
        var_p=np.full(n, var_p),
        var_q=np.full(n, var_q),
        cov_pq=np.full(n, cov),
    )


@pytest.fixture
def chain2():
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    lines = [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)]
    return build_forest(nodes, lines)


@pytest.fixture
def single():
    nodes = [Node(0, "substation"), Node(1, "load")]
    return build_forest(nodes, [Line(1, 0, r=1.0, x=2.0)])


# -- linear solve ---------------------------------------------------------------


def test_solve_zero_is_zero(chain2):
    theta, eps = solve_lcpf(chain2, [0, 0], [0, 0])
    assert np.all(theta == 0) and np.all(eps == 0)


def test_solve_unit_injection_chain(chain2):
    theta, eps = solve_lcpf(chain2, [0.0, 1.0], [0.0, 0.0])
    np.testing.assert_allclose(eps, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(theta, [1.0, 2.0], atol=1e-14)


def test_solve_superposition(chain2):
    rng = np.random.default_rng(0)
    p1, p2, q = rng.normal(size=(3, 2))
    t12, e12 = solve_lcpf(chain2, p1 + p2, q)
    t1, e1 = solve_lcpf(chain2, p1, q)
    t2, e2 = solve_lcpf(chain2, p2, np.zeros(2))
    np.testing.assert_allclose(t12, t1 + t2, atol=1e-12)
    np.testing.assert_allclose(e12, e1 + e2, atol=1e-12)


def test_solve_dimension_mismatch(chain2):
    with pytest.raises(DimensionMismatch):
        solve_lcpf(chain2, [1.0], [0.0, 0.0])


@pytest.mark.parametrize("seed", range(6))
def test_two_sweep_matches_dense(seed):
    forest, _ = random_feeder(seed)
    rng = np.random.default_rng(seed + 99)
    n = forest.n_loads
    dense = dense_path_matrix(forest, "r") + 1j * dense_path_matrix(forest, "x")
    real = rng.normal(size=(n, 4))
    # a real input runs as a complex one with a zero imaginary part
    for draws in (real, real + 1j * rng.normal(size=(n, 4))):
        u, block = draws[:, 0], draws[:, 1:]
        got = apply_path_inverse(forest, u)
        np.testing.assert_allclose(got, dense @ u, rtol=1e-10, atol=1e-12)
        # an (N, k) block is k independent sweeps, bit for bit
        got = apply_path_inverse(forest, block)
        cols = [apply_path_inverse(forest, block[:, j]) for j in range(3)]
        assert np.array_equal(got, np.stack(cols, axis=1))
        np.testing.assert_allclose(got, dense @ block, rtol=1e-10, atol=1e-12)


# -- analytic moments --------------------------------------------------------------


def test_single_node_eps_variance(single):
    # var contributions: r^2 * 1 + x^2 * 1 + 2 r x * 0.5 = 1 + 4 + 2 = 7
    inj = unit_injections(single)
    am = analytic_moments(single, inj)
    assert am.omega_eps[0, 0] == pytest.approx(7.0, abs=1e-14)


def test_degenerate_zero_covariances(single):
    inj = InjectionModel(
        node_ids=(1,), mu_p=[0.3], mu_q=[-0.1],
        var_p=[0.0], var_q=[0.0], cov_pq=[0.0],
    )
    am = analytic_moments(single, inj)
    assert np.all(am.omega_eps == 0) and np.all(am.omega_theta == 0)
    assert am.mu_eps[0] == pytest.approx(0.3 * 1.0 + (-0.1) * 2.0)


def test_moment_matrix_symmetries(chain2):
    inj = unit_injections(chain2, var_p=1.3, var_q=0.7, cov=0.2)
    am = analytic_moments(chain2, inj)
    np.testing.assert_allclose(am.omega_eps, am.omega_eps.T)
    np.testing.assert_allclose(am.omega_theta, am.omega_theta.T)
    assert np.all(np.linalg.eigvalsh(am.omega_eps) > -1e-12)
    assert np.all(np.linalg.eigvalsh(am.omega_theta) > -1e-12)


def assert_matches_reference_moments(forest, inj):
    """Every AnalyticMoments block within 1e-12 of the block's largest
    absolute entry of the complex oracle (exactly, for an all-zero block)."""
    am = analytic_moments(forest, inj)
    assert am.node_ids == forest.load_ids
    for name, want in reference_analytic_moments(forest, inj).items():
        got = getattr(am, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("seed", range(12))
def test_analytic_moments_match_complex_reference(seed):
    assert_matches_reference_moments(*random_feeder(seed))


def test_analytic_moments_match_complex_reference_on_deep_chain():
    spec = FeederSpec(n_loads=600, n_trees=1, max_children=1, chain_bias=1.0)
    forest, inj = synth_feeder(spec, 1)
    assert max(forest.depth.values()) == 600
    assert_matches_reference_moments(forest, inj)


@pytest.mark.parametrize(
    "case", ["var_p_zero", "cov_at_bound", "cov_at_negative_bound", "zero_variances"]
)
def test_analytic_moments_match_complex_reference_degenerate(case):
    forest, inj = random_feeder(7, n_range=(10, 30))
    root, zero = np.sqrt(inj.var_p) * np.sqrt(inj.var_q), np.zeros(inj.n)
    changes = {
        "var_p_zero": dict(var_p=zero, cov_pq=zero),
        "cov_at_bound": dict(cov_pq=root),
        "cov_at_negative_bound": dict(cov_pq=-root),
        "zero_variances": dict(var_p=zero, var_q=zero, cov_pq=zero),
    }[case]
    assert_matches_reference_moments(forest, replace(inj, **changes))


def test_single_node_monte_carlo_three_sigma(single):
    inj = unit_injections(single)
    m = 1_000_000
    s = sample_voltages(single, inj, m, seed=5)
    emp = s.eps[:, 0].var()
    tol = 3.0 * 7.0 * np.sqrt(2.0 / m)
    assert abs(emp - 7.0) < tol


def test_variance_ordering_along_ancestry():
    # deviation variance grows strictly toward the leaves
    for seed in range(8):
        forest, inj = random_feeder(seed, n_range=(3, 40))
        am = analytic_moments(forest, inj)
        pos = forest.load_index
        for a in forest.load_ids:
            b = forest.parent[a]
            if forest.is_load(b):
                assert am.omega_eps[pos(a), pos(a)] > am.omega_eps[pos(b), pos(b)]


def test_parent_is_argmin_over_non_descendants():
    for seed in range(8):
        forest, inj = random_feeder(seed, n_range=(3, 30))
        for a in forest.load_ids:
            b = forest.parent[a]
            if not forest.is_load(b):
                continue
            desc = descendant_set(forest, a)
            best = min(
                (
                    c
                    for c in forest.load_ids
                    if c not in desc and forest.tree_of[c] == forest.tree_of[a]
                ),
                key=lambda c: pairwise_sqdiff_analytic(forest, inj, a, c),
            )
            assert best == b


# -- pairwise squared differences -----------------------------------------------------


def test_leaf_edge_closed_form():
    # leaf over unit edge: r^2 var_p + x^2 var_q + 2 r x cov = 1 + 1 + 1
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1)])
    inj = unit_injections(f)
    got = pairwise_sqdiff_analytic(f, inj, 2, 1, "eps")
    assert got == pytest.approx(1.0 + 1.0 + 2 * 0.5, abs=1e-14)


@pytest.mark.parametrize("channel", ["eps", "theta", "cross"])
def test_parent_edge_matches_subtree_closed_form(channel):
    # general pairwise form vs the descendant-sum closed form on parent edges
    for seed in range(8):
        forest, inj = random_feeder(seed, n_range=(3, 35))
        vp, vq, s = inj.as_maps()
        for a in forest.load_ids:
            b = forest.parent[a]
            if not forest.is_load(b):
                continue
            r, x = forest.edge_params[a]
            desc = descendant_set(forest, a)
            sp = sum(vp[c] for c in desc)
            sq = sum(vq[c] for c in desc)
            ss = sum(s[c] for c in desc)
            if channel == "eps":
                want = r * r * sp + x * x * sq + 2 * r * x * ss
            elif channel == "theta":
                want = x * x * sp + r * r * sq - 2 * r * x * ss
            else:
                want = r * x * (sp - sq) + (x * x - r * r) * ss
            got = pairwise_sqdiff_analytic(forest, inj, a, b, channel)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_sqdiff_ancestor_chain_ordering():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    f = build_forest(
        nodes, [Line(1, 0, r=1, x=1), Line(2, 1, r=2, x=2), Line(3, 2, r=1, x=1)]
    )
    inj = unit_injections(f)
    # nearer ancestors give smaller squared differences
    assert pairwise_sqdiff_analytic(f, inj, 3, 2) < pairwise_sqdiff_analytic(f, inj, 3, 1)


def test_sqdiff_same_node_rejected(chain2):
    inj = unit_injections(chain2)
    with pytest.raises(ValueError):
        pairwise_sqdiff_analytic(chain2, inj, 1, 1)


def test_sqdiff_cross_tree_rejected():
    nodes = [Node(0, "substation"), Node(9, "substation"), Node(1, "load"), Node(2, "load")]
    f = build_forest(nodes, [Line(1, 0, r=1, x=1), Line(2, 9, r=1, x=1)])
    inj = unit_injections(f)
    with pytest.raises(ValueError, match="different trees"):
        pairwise_sqdiff_analytic(f, inj, 1, 2)


# -- sampling -----------------------------------------------------------------------


def test_sampling_deterministic(chain2):
    inj = unit_injections(chain2)
    s1 = sample_voltages(chain2, inj, 64, seed=11)
    s2 = sample_voltages(chain2, inj, 64, seed=11)
    assert np.array_equal(s1.eps, s2.eps) and np.array_equal(s1.theta, s2.theta)
    s3 = sample_voltages(chain2, inj, 64, seed=12)
    assert not np.array_equal(s1.eps, s3.eps)


def test_sampling_zero_variance_equals_mean_solve(chain2):
    inj = InjectionModel(
        node_ids=chain2.load_ids,
        mu_p=[0.4, -0.3], mu_q=[0.1, 0.2],
        var_p=[0, 0], var_q=[0, 0], cov_pq=[0, 0],
    )
    s = sample_voltages(chain2, inj, 5, seed=0)
    theta, eps = solve_lcpf(chain2, inj.mu_p, inj.mu_q)
    for j in range(5):
        np.testing.assert_allclose(s.eps[j], eps, atol=1e-14)
        np.testing.assert_allclose(s.theta[j], theta, atol=1e-14)


def test_sample_rows_equal_per_sample_solve():
    forest, inj = random_feeder(3, n_range=(3, 12))
    m = 16
    s = sample_voltages(forest, inj, m, seed=21)
    # invert the voltage map per row to recover (p, q), then re-solve
    tr = dense_path_matrix(forest, "r")
    tx = dense_path_matrix(forest, "x")
    block = np.block([[tx, -tr], [tr, tx]])
    for j in range(0, m, 5):
        sol = np.linalg.solve(block, np.concatenate([s.theta[j], s.eps[j]]))
        theta, eps = solve_lcpf(forest, sol[: forest.n_loads], sol[forest.n_loads :])
        np.testing.assert_allclose(theta, s.theta[j], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(eps, s.eps[j], rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize(
    "spec",
    [preset("bus_13_3"), FeederSpec(n_loads=40, max_children=1, chain_bias=1.0)],
    ids=["bus_13_3", "chain_40"],
)
def test_sampler_matches_complex_reference(spec, dist):
    forest, inj = synth_feeder(replace(spec, distribution=dist), 5)
    assert inj.distribution == dist
    m, seed = 300, [7, 1]
    s = sample_voltages(forest, inj, m, seed)
    ref_eps, ref_theta = reference_sample_voltages(forest, inj, m, seed)
    for got, want in ((s.eps, ref_eps), (s.theta, ref_theta)):
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # the sampler's single (2, m, n) draw is the stream of two (m, n) draws
    both = _standard_draws(np.random.default_rng(seed), dist, (2, m, inj.n))
    rng = np.random.default_rng(seed)
    assert np.array_equal(both[0], _standard_draws(rng, dist, (m, inj.n)))
    assert np.array_equal(both[1], _standard_draws(rng, dist, (m, inj.n)))


_MOMENT_FEEDERS = pytest.mark.parametrize(
    "spec, hidden",
    [
        (preset("bus_13_3"), 0),
        (preset("bus_29_1"), 3),
        (FeederSpec(n_loads=40, max_children=1, chain_bias=1.0), 0),
    ],
    ids=["bus_13_3", "bus_29_1_observed", "chain_40"],
)


def assert_moments_from_draws(spec, hidden, m, dist):
    # the moments taken from the draws are those of the samples themselves
    forest, inj = synth_feeder(replace(spec, distribution=dist), 5)
    hidden = choose_hidden(forest, hidden, 3) if hidden else ()
    seed = [7, 1, m]
    draws = draw_moments(dist, m, forest.n_loads, seed)
    got = empirical_moments(forest, inj, m, draws, hidden)
    want = sampled_moments(forest, inj, m, seed, hidden)
    assert got.node_ids == want.node_ids
    assert got.zero_ids == want.zero_ids
    assert got.m == want.m == m
    pairs = [(got.mu_eps, want.mu_eps), (got.mu_theta, want.mu_theta)]
    pairs += [(got.full_cov(c), want.full_cov(c)) for c in ("eps", "theta", "eps_theta")]
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("m", [2, 400])
@_MOMENT_FEEDERS
def test_moments_from_draws_match_sample_moments(spec, hidden, m, dist):
    assert_moments_from_draws(spec, hidden, m, dist)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (3, 5)])
@_MOMENT_FEEDERS
def test_moments_from_draws_across_draw_blocks(spec, hidden, blocks, extra, dist):
    # m = one block's rows, one more, and three blocks and a partial one
    m = blocks * _draw_rows(spec.n_loads) + extra
    assert_moments_from_draws(spec, hidden, m, dist)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("spec", [preset("bus_13_3"), preset("bus_29_1")], ids=["n13", "n29"])
def test_draw_then_fold_is_the_one_pass_moments(spec, extra, dist):
    # the draw and fold steps, composed, are bit for bit the one-pass blocked
    # moments, on each side of the first draw-block boundary
    forest, inj = synth_feeder(replace(spec, distribution=dist), 5)
    m, seed = _draw_rows(forest.n_loads) + extra, [7, 1]
    want = one_pass_sample_moments(forest, inj, m, seed)
    zbar, s = draw_moments(dist, m, forest.n_loads, seed)
    assert zbar.shape == (2 * forest.n_loads,) and s.shape == (2 * forest.n_loads,) * 2
    for a, b in zip(fold_moments(forest, inj, zbar, s), want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_moments_from_draws_need_two_samples():
    forest, inj = synth_feeder(preset("bus_13_3"), 5)
    with pytest.raises(TooFewSamples):
        draw_moments(inj.distribution, 1, forest.n_loads, 0)


def test_empirical_matches_analytic_at_clt_scale(chain2):
    inj = unit_injections(chain2, var_p=2.0, var_q=1.0, cov=0.8)
    am = analytic_moments(chain2, inj)
    m = 100_000
    s = sample_voltages(chain2, inj, m, seed=3)
    for k in range(2):
        emp = s.eps[:, k].var()
        ana = am.omega_eps[k, k]
        assert abs(emp - ana) < 5.0 * ana / np.sqrt(m)


def test_monte_carlo_convergence_rate(single):
    # log-error vs log-m regression slope near -1/2
    inj = unit_injections(single)
    am = analytic_moments(single, inj)
    truth = am.omega_eps[0, 0]
    ms = [100, 1000, 10_000, 100_000, 1_000_000]
    errs = []
    for m in ms:
        vals = []
        for rep in range(6):
            s = sample_voltages(single, inj, m, seed=[m, rep])
            vals.append(abs(s.eps[:, 0].var() - truth) / truth)
        errs.append(np.mean(vals))
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_invalid_covariance_rejected(chain2):
    with pytest.raises(InvalidCovariance):
        InjectionModel(
            node_ids=chain2.load_ids,
            mu_p=[0, 0], mu_q=[0, 0],
            var_p=[1, 1], var_q=[1, 1], cov_pq=[1.5, 0.0],
        )


@pytest.mark.parametrize("var", [1.57e-162, 1e200], ids=["tiny", "huge"])
def test_covariance_bound_at_extreme_variances(chain2, var):
    # var_p * var_q underflows to 0 at the tiny end and overflows at the huge
    # end; the bound must hold at both
    root = np.sqrt(var) * np.sqrt(var)
    stats = dict(mu_p=[0, 0], mu_q=[0, 0], var_p=[var, var], var_q=[var, var])
    inj = InjectionModel(node_ids=chain2.load_ids, cov_pq=[0.5 * root, -root], **stats)
    assert inj.cov_pq.tolist() == [0.5 * root, -root]
    with pytest.raises(InvalidCovariance):
        InjectionModel(node_ids=chain2.load_ids, cov_pq=[1.01 * root, 0.0], **stats)


@pytest.mark.parametrize("field", ["mu_p", "mu_q", "var_p", "var_q", "cov_pq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_injection_rejected(chain2, field, bad):
    stats = dict(mu_p=[0, 0], mu_q=[0, 0], var_p=[1, 1], var_q=[1, 1], cov_pq=[0.5, 0.5])
    stats[field] = [stats[field][0], bad]
    with pytest.raises(InvalidCovariance, match=f"{field} at node 2 is not finite"):
        InjectionModel(node_ids=chain2.load_ids, **stats)


@pytest.mark.parametrize("dist", ["uniform", "laplace"])
def test_non_gaussian_second_moments(dist, chain2):
    inj = InjectionModel(
        node_ids=chain2.load_ids,
        mu_p=[0.0, 0.0], mu_q=[0.0, 0.0],
        var_p=[1.0, 1.0], var_q=[1.0, 1.0], cov_pq=[0.5, 0.5],
        distribution=dist,
    )
    am = analytic_moments(chain2, inj)
    m = 200_000
    s = sample_voltages(chain2, inj, m, seed=8)
    emp = s.eps[:, 1].var()
    assert abs(emp - am.omega_eps[1, 1]) < 8.0 * am.omega_eps[1, 1] / np.sqrt(m)


def test_voltage_samples_restrict_and_without_theta(chain2):
    inj = unit_injections(chain2)
    s = sample_voltages(chain2, inj, 10, seed=1)
    r = restrict_samples(s, (2,))
    assert r.node_ids == (2,) and r.eps.shape == (10, 1)
    nt = magnitude_only(s)
    assert nt.theta is None and np.array_equal(nt.eps, s.eps)


@pytest.mark.parametrize("channel", ["eps", "theta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(channel, bad):
    vals = {"eps": np.zeros((4, 3)), "theta": np.zeros((4, 3))}
    vals[channel][2, 1] = bad
    vals[channel][3, 0] = bad  # a later row: the first bad value is named
    with pytest.raises(NonFiniteSamples, match=f"{channel} of node 8 in sample row 2") as exc:
        VoltageSamples(node_ids=(5, 8, 9), **vals)
    assert (exc.value.channel, exc.value.node, exc.value.row) == (channel, 8, 2)


def test_assumption1_flag(chain2):
    # Assumption 1 is strict positivity: var_p, var_q > 0 and cov_pq > 0
    inj = unit_injections(chain2)
    assert np.all(inj.var_p > 0.0) and np.all(inj.var_q > 0.0) and np.all(inj.cov_pq > 0.0)
    inj0 = InjectionModel(
        node_ids=chain2.load_ids, mu_p=[0, 0], mu_q=[0, 0],
        var_p=[1, 1], var_q=[1, 1], cov_pq=[0.0, 0.5],
    )
    assert not (
        np.all(inj0.var_p > 0.0) and np.all(inj0.var_q > 0.0) and np.all(inj0.cov_pq > 0.0)
    )
