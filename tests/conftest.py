"""Shared fixtures and independent oracles.

The dense oracle here deliberately avoids the package's path-walk code: it
assembles the reduced weighted Laplacian from the raw line list with plain
loops and inverts it with numpy.  The direct statistics oracle avoids the
leaf-upward edge walk: it maps the voltage moments back through the complex
reduced Laplacian in one shot, and solves for the means against the dense
oracle T_r + j T_x.  The reference sampler keeps the complex form of the
forward model: two sequential standard draws, u = p - jq, then u T_z.
"""

import numpy as np
import pytest

from gridforest.errors import DifferentTrees
from gridforest.network import Line, Node, build_forest
from gridforest.powerflow import InjectionModel, _standard_draws
from gridforest.synth import FeederSpec, draw_injections, synth_layout


def dense_path_matrix(forest, kind: str) -> np.ndarray:
    """Oracle: inverse of the reduced weighted Laplacian, built from lines."""
    loads = forest.load_ids
    pos = {i: k for k, i in enumerate(loads)}
    lap = np.zeros((len(loads), len(loads)))
    for ln in forest.lines:
        if ln.status != "operational":
            continue
        w = 1.0 / (ln.r if kind == "r" else ln.x)
        for u, v in ((ln.a, ln.b),):
            iu = pos.get(u)
            iv = pos.get(v)
            if iu is not None:
                lap[iu, iu] += w
            if iv is not None:
                lap[iv, iv] += w
            if iu is not None and iv is not None:
                lap[iu, iv] -= w
                lap[iv, iu] -= w
    return np.linalg.inv(lap)


def reduced_laplacian(forest, kind: str) -> np.ndarray:
    """Oracle: reduced Laplacian with reciprocal edge weights, from the
    parent links.

    ``kind``: "r" -> weights 1/r, "x" -> 1/x, "z" -> 1/(r + jx) (complex).
    """
    n = forest.n_loads
    pos = forest.load_index
    out = np.zeros((n, n), dtype=complex if kind == "z" else float)
    for a in forest.topo_order:
        w = 1.0 / forest.edge_weight(a, kind)
        ia = pos(a)
        p = forest.parent[a]
        out[ia, ia] += w
        if forest.is_load(p):
            ip = pos(p)
            out[ip, ip] += w
            out[ia, ip] -= w
            out[ip, ia] -= w
    return out


def pairwise_sqdiff_analytic(forest, inj, a, b, channel: str = "eps") -> float:
    """Oracle: population squared centered difference between two nodes'
    deviations, from the rows of T_r and T_x.

    ``channel``: "eps", "theta", or "cross" (the eps-theta product moment).
    """
    if a == b:
        raise ValueError("nodes must differ")
    ia = forest.load_index(a)
    ib = forest.load_index(b)
    if forest.tree_of[a] != forest.tree_of[b]:
        raise DifferentTrees(f"nodes {a} and {b} sit in different trees")
    inj = inj.for_nodes(forest.load_ids)
    tr = forest.h_inverse_matrix("r")
    tx = forest.h_inverse_matrix("x")
    dr = tr[ia] - tr[ib]
    dx = tx[ia] - tx[ib]
    if channel == "eps":
        return float(np.sum(dr**2 * inj.var_p + dx**2 * inj.var_q + 2.0 * dr * dx * inj.cov_pq))
    if channel == "theta":
        return float(np.sum(dx**2 * inj.var_p + dr**2 * inj.var_q - 2.0 * dx * dr * inj.cov_pq))
    if channel == "cross":
        return float(
            np.sum(dr * dx * (inj.var_p - inj.var_q) + (dx**2 - dr**2) * inj.cov_pq)
        )
    raise ValueError(f"unknown channel {channel!r}")


def reference_sample_voltages(forest, inj, m: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (eps, theta) samples by the complex form, with the seed
    semantics of ``sample_voltages``: two sequential (m, n) draws z1, z2,
    the Cholesky pair p = mu_p + a11 z1, q = mu_q + a21 z1 + a22 z2, and
    eps + j theta = (p - jq) T_z."""
    inj = inj.for_nodes(forest.load_ids)
    rng = np.random.default_rng(seed)
    z1 = _standard_draws(rng, inj.distribution, (m, inj.n))
    z2 = _standard_draws(rng, inj.distribution, (m, inj.n))
    a11 = np.sqrt(inj.var_p)
    a21 = np.divide(inj.cov_pq, a11, out=np.zeros(inj.n), where=a11 > 0.0)
    a22 = np.sqrt(np.maximum(inj.var_q - a21**2, 0.0))
    u = np.empty((m, inj.n), dtype=complex)
    u.real = inj.mu_p + a11 * z1
    u.imag = -(inj.mu_q + a21 * z1 + a22 * z2)
    v = u @ forest.h_inverse_matrix("z")
    return v.real, v.imag


def _aligned_matrix(momset, ids, channel: str) -> np.ndarray:
    mat = momset.full_cov(channel)
    pos = {i: k for k, i in enumerate(momset.node_ids)}
    idx = np.array([pos[i] for i in ids], dtype=int)
    return mat[np.ix_(idx, idx)]


def direct_injection_stats(momset, forest) -> InjectionModel:
    """Oracle: injection statistics on a known forest in one shot.

    With H = g + j b the complex reduced Laplacian (weights 1/(r + jx)),
    p - jq = H (eps + j theta), so the injection moments are linear maps of
    the voltage moments.  Variances are clamped at zero and covariances into
    the Cauchy-Schwarz bound, as the package's estimator does.
    """
    ids = forest.load_ids
    hz = reduced_laplacian(forest, "z")
    g, bm = hz.real, hz.imag
    cov_e = _aligned_matrix(momset, ids, "eps")
    cov_t = _aligned_matrix(momset, ids, "theta")
    cov_et = _aligned_matrix(momset, ids, "eps_theta")
    cov_te = cov_et.T
    var_p = np.diag(g @ cov_e @ g.T - g @ cov_et @ bm.T - bm @ cov_te @ g.T + bm @ cov_t @ bm.T)
    var_q = np.diag(bm @ cov_e @ bm.T + bm @ cov_et @ g.T + g @ cov_te @ bm.T + g @ cov_t @ g.T)
    cov_pq = np.diag(-g @ cov_e @ bm.T - g @ cov_et @ g.T + bm @ cov_te @ bm.T + bm @ cov_t @ g.T)
    var_p = np.maximum(var_p, 0.0)
    var_q = np.maximum(var_q, 0.0)
    bound = np.sqrt(var_p * var_q)
    idx = [momset.node_ids.index(i) for i in ids]
    mu_theta, mu_eps = momset.mu_theta[idx], momset.mu_eps[idx]
    tz = dense_path_matrix(forest, "r") + 1j * dense_path_matrix(forest, "x")
    mu = np.linalg.solve(tz, mu_eps + 1j * mu_theta)
    return InjectionModel(
        node_ids=ids,
        mu_p=mu.real,
        mu_q=-mu.imag,
        var_p=var_p,
        var_q=var_q,
        cov_pq=np.clip(cov_pq, -bound, bound),
    )


@pytest.fixture
def chain4():
    """0(sub) - 1 - 2 - 3 with r = (1, 2, 1), x = (1, 2, 1)."""
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    lines = [
        Line(1, 0, r=1.0, x=1.0),
        Line(2, 1, r=2.0, x=2.0),
        Line(3, 2, r=1.0, x=1.0),
    ]
    return build_forest(nodes, lines)


@pytest.fixture
def branch_layout():
    """Slack 0 feeding e; e feeds b and d; b feeds a.

    ids: 0 = slack, 5 = e, 4 = b, 3 = d, 1 = a.
    """
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 3, 4, 5)]
    lines = [
        Line(5, 0, r=0.5, x=0.7),
        Line(4, 5, r=0.3, x=0.4),
        Line(3, 5, r=0.2, x=0.9),
        Line(1, 4, r=0.8, x=0.6),
    ]
    return build_forest(nodes, lines)


def random_feeder(seed, n_range=(2, 50), k_max=5, extra=10):
    """Deterministic random feeder + injections for property suites."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*n_range))
    k = int(rng.integers(1, min(n, k_max) + 1))
    cap = max((n + k) * (n + k - 1) // 2 - n, 0)
    spec = FeederSpec(
        n_loads=n, n_trees=k, extra_lines=min(int(rng.integers(0, extra)), cap)
    )
    forest = synth_layout(spec, int(rng.integers(2**31)))
    inj = draw_injections(spec, forest.load_ids, int(rng.integers(2**31)))
    return forest, inj
