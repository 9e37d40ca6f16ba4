import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridforest
from gridforest import powerflow

from gridforest.errors import (
    DimensionMismatch,
    InvalidCovariance,
    NonFiniteSamples,
    TooFewSamples,
)
from gridforest.experiments import empirical_moments
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, apply_path_inverse, build_forest
from gridforest.powerflow import (
    InjectionModel,
    VoltageSamples,
    _draw_rows,
    _standard_draws,
    analytic_moments,
    draw_moments,
    sample_voltages,
)
from gridforest.synth import FeederSpec, choose_hidden, preset, synth_feeder

from conftest import (
    dense_path_matrix,
    depths,
    descendant_set,
    pairwise_sqdiff_analytic,
    random_feeder,
    reference_analytic_moments,
    reference_sample_voltages,
    magnitude_only,
    moment_blocks,
    blocked_draw_moments,
    folded_map,
    one_pass_sample_moments,
    restrict_samples,
    root_of,
    sampled_moments,
    solve_lcpf,
    swept_factor,
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
    assert moment_blocks(am)["omega_eps"][0, 0] == pytest.approx(7.0, abs=1e-14)


def test_degenerate_zero_covariances(single):
    inj = InjectionModel(
        node_ids=(1,), mu_p=[0.3], mu_q=[-0.1],
        var_p=[0.0], var_q=[0.0], cov_pq=[0.0],
    )
    am = analytic_moments(single, inj)
    blocks = moment_blocks(am)
    assert np.all(blocks["omega_eps"] == 0) and np.all(blocks["omega_theta"] == 0)
    assert am.mu_eps[0] == pytest.approx(0.3 * 1.0 + (-0.1) * 2.0)


def test_moment_matrix_symmetries(chain2):
    inj = unit_injections(chain2, var_p=1.3, var_q=0.7, cov=0.2)
    blocks = moment_blocks(analytic_moments(chain2, inj))
    for name in ("omega_eps", "omega_theta"):
        np.testing.assert_allclose(blocks[name], blocks[name].T)
        assert np.all(np.linalg.eigvalsh(blocks[name]) > -1e-12)


def assert_matches_reference_moments(forest, inj):
    """Every mean and covariance block of the population moments within
    1e-12 of the block's largest absolute entry of the complex oracle
    (exactly, for an all-zero block)."""
    am = analytic_moments(forest, inj)
    assert am.node_ids == forest.load_ids
    fields = {"mu_theta": am.mu_theta, "mu_eps": am.mu_eps, **moment_blocks(am)}
    for name, want in reference_analytic_moments(forest, inj).items():
        got = fields[name]
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("seed", range(12))
def test_analytic_moments_match_complex_reference(seed):
    assert_matches_reference_moments(*random_feeder(seed))


def test_analytic_moments_match_complex_reference_on_deep_chain():
    spec = FeederSpec(n_loads=600, n_trees=1, max_children=1, chain_bias=1.0)
    forest, inj = synth_feeder(spec, 1)
    assert max(depths(forest).values()) == 600
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
        var = np.diag(moment_blocks(analytic_moments(forest, inj))["omega_eps"])
        pos = forest.load_index
        for a in forest.load_ids:
            b = forest.parent[a]
            if forest.is_load(b):
                assert var[pos(a)] > var[pos(b)]


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
                    if c not in desc and root_of(forest, c) == root_of(forest, a)
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


def _tagged_feeder(spec, dist):
    """``synth_feeder(spec, 5)`` with its injections drawn from ``dist``."""
    forest, inj = synth_feeder(spec, 5)
    return forest, replace(inj, distribution=dist)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize(
    "spec",
    [preset("bus_13_3"), FeederSpec(n_loads=40, max_children=1, chain_bias=1.0)],
    ids=["bus_13_3", "chain_40"],
)
def test_sampler_matches_complex_reference(spec, dist):
    forest, inj = _tagged_feeder(spec, dist)
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


@pytest.mark.parametrize(
    "spec, m",
    [
        (preset("bus_13_3"), 50),
        (FeederSpec(n_loads=15, n_trees=3, extra_lines=5), 50),
        (FeederSpec(n_loads=800, n_trees=8, extra_lines=50), 1700),
    ],
    ids=["bus_13_3", "n15_3_trees", "n800_8_trees"],
)
def test_sweep_blocks_give_the_same_bits(spec, m, monkeypatch):
    # one column (or sample) per sweep, seven, all of them and the default
    # width: the factor is the dense map's A^T, and the samples and a sweep
    # cell's factor past m = 2n are each one set of bits, whatever the
    # block.  At 800 loads the default width (n // 8 = 100) differs from
    # the samples' former _SWEEP_BLOCK // n (81), which takes the place of
    # one and seven there
    forest, inj = synth_feeder(spec, 5)
    n = forest.n_loads
    assert m > 2 * n
    want = np.ascontiguousarray(folded_map(forest, inj)[0].T)
    narrow = (1, 7) if n < 100 else (powerflow._SWEEP_BLOCK // n,)
    samples, cells = [], []
    for width in (*narrow, max(n, m), None):
        if width is None:
            monkeypatch.undo()
        else:
            monkeypatch.setattr(powerflow, "_sweep_width", lambda n: width)
        assert analytic_moments(forest, inj).rows.tobytes() == want.tobytes()
        s = sample_voltages(forest, inj, m, seed=5)
        samples.append(s.eps.tobytes() + s.theta.tobytes())
        cells.append(empirical_moments(forest, inj, m, 5).rows.tobytes())
    assert len(set(samples)) == 1 and len(set(cells)) == 1


def test_the_sweep_width_is_at_least_one_column():
    # no load (and no division by zero), the paper's sizes, where both of
    # the former rules agree, and past 724 loads an eighth of the columns
    assert powerflow._sweep_width(0) == powerflow._sweep_width(1) == powerflow._SWEEP_BLOCK
    for n in (13, 83, 600, 724):
        assert powerflow._sweep_width(n) == powerflow._SWEEP_BLOCK // n
    assert [powerflow._sweep_width(n) for n in (800, 3000)] == [100, 375]


def test_factor_peak_memory_is_near_its_own_bytes():
    # the factor is swept in blocks of columns beside no dense (2n, 2n) map
    # and no dense T_z: on a 600-deep chain the traced peak stays within
    # 1.5x the factor's own bytes (a dense map and its copy took 2.5x)
    spec = FeederSpec(n_loads=600, n_trees=1, chain_bias=1.0, max_children=1)
    forest, inj = synth_feeder(spec, 1)
    tracemalloc.start()
    try:
        rows = analytic_moments(forest, inj).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (1200, 1200)
    assert peak <= 1.5 * rows.nbytes, peak / rows.nbytes


_SAMPLES_DIGEST = """
import hashlib
from gridforest.powerflow import sample_voltages
from gridforest.synth import preset, synth_feeder
forest, inj = synth_feeder(preset("bus_83_11"), 5)
s = sample_voltages(forest, inj, 6400, 5)
print(hashlib.sha256(s.eps.tobytes() + s.theta.tobytes()).hexdigest())
"""


def _digests_by_blas_threads(script: str) -> set[str]:
    """The output of ``script`` run with OpenBLAS at one thread and at two,
    each count in a fresh process: one entry per distinct output."""
    src = str(Path(gridforest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    return digests


def test_samples_do_not_depend_on_the_blas_thread_count():
    # the sweeps make no BLAS call, so OpenBLAS's thread count cannot change
    # how the samples' sums are split
    digests = _digests_by_blas_threads(_SAMPLES_DIGEST)
    assert len(digests) == 1, digests


_CELL_DIGEST = """
import hashlib
from gridforest.experiments import empirical_moments
from gridforest.synth import FeederSpec, synth_feeder
forest, inj = synth_feeder(FeederSpec(500, n_trees=5, extra_lines=125, max_children=5), 1)
for m in (400, 1000):
    ms = empirical_moments(forest, inj, m, [1, m])
    data = ms.rows.tobytes() + ms.mu_eps.tobytes() + ms.mu_theta.tobytes()
    print(m, hashlib.sha256(data).hexdigest())
"""


def test_cell_moments_up_to_2n_do_not_depend_on_the_blas_thread_count():
    # up to m = 2n a sweep cell's rows and means are its samples' own, which
    # no BLAS call splits (its cov_eps is a BLAS product, and is not read here)
    digests = _digests_by_blas_threads(_CELL_DIGEST)
    assert len(digests) == 1, digests


_MOMENT_FEEDERS = pytest.mark.parametrize(
    "spec, hidden",
    [
        (preset("bus_13_3"), 0),
        (preset("bus_29_1"), 3),
        (FeederSpec(n_loads=40, max_children=1, chain_bias=1.0), 0),
        (FeederSpec(n_loads=100, n_trees=2), 0),
    ],
    ids=["bus_13_3", "bus_29_1_observed", "chain_40", "n100_row_floor"],
)


def assert_moments_from_draws(spec, hidden, m, dist):
    # the moments taken from the draws are those of the samples themselves
    forest, inj = _tagged_feeder(spec, dist)
    hidden = choose_hidden(forest, hidden, 3) if hidden else ()
    seed = [7, 1, m]
    got = empirical_moments(forest, inj, m, seed)
    got = got.restrict([i for i in got.node_ids if i not in hidden])
    want = sampled_moments(forest, inj, m, seed, hidden)
    assert got.node_ids == want.node_ids
    assert got.zero_ids == frozenset()  # the learners register the slacks
    assert got.m == want.m == m
    pairs = [(got.mu_eps, want.mu_eps), (got.mu_theta, want.mu_theta)]
    pairs += [(got.cov_eps, want.cov_eps)]
    got_blocks, want_blocks = moment_blocks(got), moment_blocks(want)
    pairs += [(got_blocks[name], want_blocks[name]) for name in want_blocks]
    # the statistics of every observed edge, a slack parent's too
    children = [a for a in got.node_ids if forest.parent[a] not in hidden]
    parents = [forest.parent[a] for a in children]
    got_edges = got.with_zero_ids(forest.slack_ids).edge_stats(children, parents)
    pairs += zip(got_edges, want.edge_stats(children, parents), strict=True)
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


# sample counts on both sides of 2n, where a sweep cell turns from its
# samples' own moments (m columns) to the swept Cholesky factor of its
# draws' covariance (2n columns)
_SIDES_OF_2N = pytest.mark.parametrize("count", ["2", "2n-1", "2n", "2n+1", "50n"])


def _sample_count(count: str, n: int) -> int:
    return {"2": 2, "2n-1": 2 * n - 1, "2n": 2 * n, "2n+1": 2 * n + 1, "50n": 50 * n}[count]


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("m", [2, 400])
@_MOMENT_FEEDERS
def test_moments_from_draws_match_sample_moments(spec, hidden, m, dist):
    assert_moments_from_draws(spec, hidden, m, dist)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@_SIDES_OF_2N
@_MOMENT_FEEDERS
def test_moments_from_draws_on_both_sides_of_2n(spec, hidden, count, dist):
    assert_moments_from_draws(spec, hidden, _sample_count(count, spec.n_loads), dist)


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@_SIDES_OF_2N
@pytest.mark.parametrize("n", [13, 29, 200])
def test_draw_factor_is_the_blocked_covariance(n, count, dist):
    # past m = 2n, L L^T is the blocked Gram matrix's S and L is its (2n x
    # 2n) Cholesky factor; up to 2n, S is singular and draw_moments rejects m
    m = _sample_count(count, n)
    if m <= 2 * n:
        with pytest.raises(ValueError, match=f"at m = {m}, n = {n}$"):
            draw_moments(dist, m, n, [5, m])
        return
    want_zbar, s = blocked_draw_moments(dist, m, n, [5, m])
    zbar, factor = draw_moments(dist, m, n, [5, m])
    assert factor.shape == (2 * n, 2 * n)
    np.testing.assert_allclose(zbar, want_zbar, rtol=0, atol=1e-12 * np.abs(want_zbar).max())
    np.testing.assert_allclose(factor @ factor.T, s, rtol=0, atol=1e-12 * np.abs(s).max())


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("count", ["2", "2n-1", "2n"])
@pytest.mark.parametrize(
    "spec",
    [preset("bus_13_3"), preset("bus_29_1"), FeederSpec(n_loads=200, n_trees=2)],
    ids=["n13", "n29", "n200"],
)
def test_cell_up_to_2n_is_its_samples_moments(spec, count, dist):
    # up to m = 2n a sweep cell's moments are those of its samples, bit for bit
    forest, inj = _tagged_feeder(spec, dist)
    m, seed = _sample_count(count, forest.n_loads), [5, 2]
    got = empirical_moments(forest, inj, m, seed)
    want = MomentSet.from_samples(sample_voltages(forest, inj, m, seed))
    assert got.m == m and got.rows.shape == (2 * forest.n_loads, m)
    for a, b in ((got.rows, want.rows), (got.mu_eps, want.mu_eps), (got.mu_theta, want.mu_theta)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (3, 5)])
@_MOMENT_FEEDERS
def test_moments_from_draws_across_draw_blocks(spec, hidden, blocks, extra, dist):
    # m = one block's rows, one more, and three blocks and a partial one
    m = blocks * _draw_rows(spec.n_loads) + extra
    assert_moments_from_draws(spec, hidden, m, dist)


def test_draw_rows_keep_the_paper_blocks_above_a_floor():
    # the paper's feeders keep their blocks, so fig4 and fig5 keep their
    # bytes; past 64 loads a block keeps 256 rows
    assert [_draw_rows(n) for n in (13, 29, 64, 100, 3000)] == [1260, 564, 256, 256, 256]


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("spec", [preset("bus_13_3"), preset("bus_29_1")], ids=["n13", "n29"])
def test_draw_then_fold_is_the_one_pass_moments(spec, extra, dist):
    # a sweep cell's draw step and swept factor, composed, are bit for bit
    # the one-pass blocked means and one whole-block sweep of the Cholesky
    # factor's columns, on each side of the first draw-block boundary
    forest, inj = _tagged_feeder(spec, dist)
    m, seed = _draw_rows(forest.n_loads) + extra, [7, 1]
    mu_eps, mu_theta, rows, s = one_pass_sample_moments(forest, inj, m, seed)
    want = (mu_eps, mu_theta, swept_factor(forest, inj, np.linalg.cholesky(s)))
    zbar, factor = draw_moments(dist, m, forest.n_loads, seed)
    assert zbar.shape == (2 * forest.n_loads,) and factor.shape == (2 * forest.n_loads,) * 2
    got = empirical_moments(forest, inj, m, seed)
    assert got.rows.flags.c_contiguous
    for a, b in zip((got.mu_eps, got.mu_theta, got.rows), want, strict=True):
        assert a.tobytes() == b.tobytes()
    # the factor's covariance is the dense rows · S · rows^T, to rounding
    cov = rows @ s @ rows.T
    np.testing.assert_allclose(got.rows @ got.rows.T, cov, rtol=0, atol=1e-12 * np.abs(cov).max())
    # the means are the dense map's zbar A + c, up to the order of the sums
    a, c = folded_map(forest, inj)
    mu = zbar @ a
    n = forest.n_loads
    for got_mu, dense in ((got.mu_eps, mu[:n] + c.real), (got.mu_theta, mu[n:] + c.imag)):
        np.testing.assert_allclose(got_mu, dense, rtol=0, atol=1e-13 * np.abs(dense).max())


@pytest.mark.parametrize("dist", ["gaussian", "laplace"])
@pytest.mark.parametrize("n", [13, 29, 200])
def test_draw_moments_centre_in_place_bit_for_bit(n, dist):
    # S centred row by row in the Gram matrix's storage is the whole-matrix
    # G/m - outer(zbar, zbar), bit for bit, across several draw blocks, and
    # so is its Cholesky factor
    m = 2 * _draw_rows(n) + 3
    zbar, s = blocked_draw_moments(dist, m, n, [3, n])
    want = (zbar, np.linalg.cholesky(s))
    got = draw_moments(dist, m, n, [3, n])
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_moments_from_draws_need_two_samples():
    forest, inj = synth_feeder(preset("bus_13_3"), 5)
    with pytest.raises(TooFewSamples):
        empirical_moments(forest, inj, 1, 0)


def test_empirical_matches_analytic_at_clt_scale(chain2):
    inj = unit_injections(chain2, var_p=2.0, var_q=1.0, cov=0.8)
    am = analytic_moments(chain2, inj)
    m = 100_000
    s = sample_voltages(chain2, inj, m, seed=3)
    for k in range(2):
        emp = s.eps[:, k].var()
        ana = moment_blocks(am)["omega_eps"][k, k]
        assert abs(emp - ana) < 5.0 * ana / np.sqrt(m)


def test_monte_carlo_convergence_rate(single):
    # log-error vs log-m regression slope near -1/2
    inj = unit_injections(single)
    am = analytic_moments(single, inj)
    truth = moment_blocks(am)["omega_eps"][0, 0]
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
    var = moment_blocks(am)["omega_eps"][1, 1]
    assert abs(emp - var) < 8.0 * var / np.sqrt(m)


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
