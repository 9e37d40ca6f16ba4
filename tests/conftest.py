"""Shared fixtures and independent oracles.

The dense oracle here deliberately avoids the package's path-walk code: it
assembles the incidence matrix of the reduced weighted Laplacian from the
raw line list with plain loops and inverts the Laplacian through it with
numpy.  The direct statistics oracle avoids the leaf-upward edge walk: it
maps the voltage moments back through the complex reduced Laplacian in one
shot, and solves for the means against the dense oracle T_r + j T_x.  The
reference sampler keeps the complex form of the forward model: two
sequential standard draws, u = p - jq, then u T_z.  The population-moment
oracle keeps it too, on the dense oracle T_z: the complex second moments of
u through T_z, with the real blocks read off.
The sampled-moments oracle forms the samples that the sweep cells skip.
The one-pass blocked-moments oracle draws and folds in one function, as the
package did before it split the sample moments into ``draw_moments`` and
``fold_moments``.
The path-entry and descendant oracles walk the parent and children links.
The scalar parent-selection oracle takes one pop's row at a time.
The linear edge oracle solves one edge for (r, x) when its covariance sum is
known too, the cross check of the quadratic path.
"""

import functools
import math

import numpy as np
import pytest

from gridforest.errors import IncompleteCover, NoRealRoot, SingularSystem, UnobservedNode
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, build_forest
from gridforest.powerflow import (
    InjectionModel,
    VoltageSamples,
    _draw_rows,
    _folded_map,
    _standard_draws,
    sample_voltages,
)
from gridforest.structure import _AMBIGUOUS_RTOL, EdgeDecision, _declared_map
from gridforest.synth import FeederSpec, draw_injections, synth_layout


def dense_path_matrix(forest, kind: str) -> np.ndarray:
    """Oracle: inverse of the reduced weighted Laplacian, built from lines.

    The Laplacian is B diag(1/w) B^T, with B the load-by-line incidence of
    the operational lines: square and invertible on a forest, so the inverse
    is B^-T diag(w) B^-1.  B^-1 holds only 0 and +-1, which numpy's inverse
    gets exactly, so each entry is a sum of line weights, accurate at any
    depth; inverting the assembled Laplacian instead loses digits with its
    condition number (1e-12 relative on a 600-deep chain).
    """
    pos = {i: k for k, i in enumerate(forest.load_ids)}
    lines = [ln for ln in forest.lines if ln.status == "operational"]
    inc = np.zeros((len(pos), len(lines)))
    w = np.empty(len(lines))
    for k, ln in enumerate(lines):
        for end, sign in ((ln.a, 1.0), (ln.b, -1.0)):
            if end in pos:
                inc[pos[end], k] = sign
        w[k] = ln.r if kind == "r" else ln.x
    binv = np.linalg.inv(inc)
    return (binv.T * w) @ binv


@functools.lru_cache(maxsize=4096)
def _path_sums(forest, kind: str, a) -> dict:
    """Each node on the path from ``a`` up to its slack, mapped to the sum of
    the ``kind`` weights above it, added root first (the sweep's order)."""
    path = [a]
    while path[-1] in forest.parent:
        path.append(forest.parent[path[-1]])
    sums, total = {path[-1]: 0.0}, 0.0
    for node in reversed(path[:-1]):
        r, x = forest.edge_params[node]
        total += r if kind == "r" else x
        sums[node] = total
    return sums


def h_inverse_entry(forest, kind: str, a, b) -> float:
    """Oracle: summed ``kind`` ("r" or "x") weights on the shared part of the
    paths of loads ``a`` and ``b`` to their slack, from the parent links and
    ``edge_params``; zero across trees."""
    forest.load_index(a)
    forest.load_index(b)
    sums = _path_sums(forest, kind, a)
    meet = b
    while meet not in sums:
        if meet not in forest.parent:
            return 0.0  # b's slack is not a's
        meet = forest.parent[meet]
    return sums[meet]


def descendant_set(forest, a) -> frozenset:
    """Oracle: ``a`` and every load whose path to the slack passes through
    it, from the children links."""
    forest.load_index(a)
    out, stack = set(), [a]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(forest.children[cur])
    return frozenset(out)


def reduced_laplacian(forest, kind: str) -> np.ndarray:
    """Oracle: reduced Laplacian with reciprocal edge weights, from the
    parent links.

    ``kind``: "r" -> weights 1/r, "x" -> 1/x, "z" -> 1/(r + jx) (complex).
    """
    n = forest.n_loads
    pos = forest.load_index
    out = np.zeros((n, n), dtype=complex if kind == "z" else float)
    for a in forest.topo_order:
        r, x = forest.edge_params[a]
        w = 1.0 / {"r": r, "x": x, "z": complex(r, x)}[kind]
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
    deviations, from the rows of T_r and T_x.  Nodes of different trees
    raise ValueError.

    ``channel``: "eps", "theta", or "cross" (the eps-theta product moment).
    """
    if a == b:
        raise ValueError("nodes must differ")
    ia = forest.load_index(a)
    ib = forest.load_index(b)
    if forest.tree_of[a] != forest.tree_of[b]:
        raise ValueError(f"nodes {a} and {b} sit in different trees")
    inj = inj.for_nodes(forest.load_ids)
    tz = forest.h_inverse_matrix("z")
    tr, tx = tz.real, tz.imag
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


def reference_analytic_moments(forest, inj) -> dict:
    """Oracle for ``powerflow.analytic_moments`` by the complex form, on the
    dense oracle T_z = T_r + j T_x: with v = eps + j theta = T_z u and
    u = p - jq, the complex second moments C = E[v v^H] =
    T_z diag(var_p + var_q) T_z^H and P = E[v v^T] =
    T_z diag(var_p - var_q - 2j cov_pq) T_z^T hold every real block:
    Omega_eps = Re(C + P)/2, Omega_theta = Re(C - P)/2 and E[eps theta^T] =
    Im(P - C)/2.  Returns the ``AnalyticMoments`` blocks by field name."""
    inj = inj.for_nodes(forest.load_ids)
    tz = dense_path_matrix(forest, "r") + 1j * dense_path_matrix(forest, "x")
    c = (tz * (inj.var_p + inj.var_q)) @ tz.conj().T
    pm = (tz * (inj.var_p - inj.var_q - 2j * inj.cov_pq)) @ tz.T
    mu = tz @ (inj.mu_p - 1j * inj.mu_q)
    return {
        "mu_theta": mu.imag,
        "mu_eps": mu.real,
        "omega_theta": (c - pm).real / 2.0,
        "omega_eps": (c + pm).real / 2.0,
        "omega_eps_theta": (pm - c).imag / 2.0,
    }


def sampled_moments(forest, inj, m: int, seed, hidden=()) -> MomentSet:
    """Oracle for ``experiments.empirical_moments``: the moments of the
    samples themselves, drawn by ``sample_voltages``, with the hidden columns
    dropped before ``MomentSet.from_samples``."""
    samples = sample_voltages(forest, inj, m, seed)
    if hidden:
        samples = restrict_samples(
            samples, [i for i in forest.load_ids if i not in set(hidden)]
        )
    return MomentSet.from_samples(samples, zero_ids=forest.slack_ids)


def one_pass_sample_moments(forest, inj, m: int, seed):
    """Oracle for ``fold_moments`` of ``draw_moments``, bit for bit: the
    blocked Gram matrix of the draws and its fold through ``_folded_map`` in
    one pass."""
    inj = inj.for_nodes(forest.load_ids)
    rng = np.random.default_rng(seed)
    n = inj.n
    z1 = _standard_draws(rng, inj.distribution, (m, n))
    rows = _draw_rows(n)
    block = np.empty((min(rows, m), 2 * n))
    ones = np.ones(len(block))
    gram = np.zeros((2 * n, 2 * n))
    zsum = np.zeros(2 * n)
    for j0 in range(0, m, rows):
        b = block[: min(rows, m - j0)]
        b[:, :n] = z1[j0 : j0 + len(b)]
        b[:, n:] = _standard_draws(rng, inj.distribution, (len(b), n))
        gram += b.T @ b
        zsum += ones[: len(b)] @ b
    zbar = zsum / m
    s = gram / m - np.outer(zbar, zbar)
    a, c = _folded_map(forest, inj)
    cov = a.T @ (s @ a)
    mu = zbar @ a
    return mu[:n] + c.real, mu[n:] + c.imag, cov[:n, :n], cov[n:, n:], cov[:n, n:]


def restrict_samples(samples, ids) -> VoltageSamples:
    """The columns of the given nodes, in that order (observability masking)."""
    pos = {i: k for k, i in enumerate(samples.node_ids)}
    idx = np.array([pos[i] for i in ids], dtype=int)
    theta = None if samples.theta is None else samples.theta[:, idx]
    return VoltageSamples(tuple(ids), samples.eps[:, idx], theta)


def magnitude_only(samples) -> VoltageSamples:
    """The same samples without the theta channel."""
    return VoltageSamples(samples.node_ids, samples.eps)


def estimate_edge_linear(a_stat, b_stat, c_stat, sum_var_p, sum_var_q, sum_cov_pq):
    """Oracle for ``lines.estimate_edge`` when the covariance sum is known
    too, in closed form: with z = r + jx, A + B = |z|^2 (Sp + Sq) and
    A - B + 2jC = z^2 (Sp - Sq - 2jS).  Returns (r, x, rx)."""
    t = sum_var_p + sum_var_q
    dz = complex(sum_var_p - sum_var_q, -2.0 * sum_cov_pq)
    if not (t > 0.0 and abs(dz) > 1e-13 * t):
        raise SingularSystem("variance sums identify only r^2 + x^2")
    zz = complex(a_stat - b_stat, 2.0 * c_stat) / dz
    u = ((a_stat + b_stat) / t + zz.real) / 2.0
    v = ((a_stat + b_stat) / t - zz.real) / 2.0
    if u <= 0.0 or v <= 0.0:
        raise NoRealRoot(f"linear path produced non-positive squares ({u:.3e}, {v:.3e})")
    return math.sqrt(u), math.sqrt(v), zz.imag / 2.0


def scalar_parent_map(momset, substation_children, *, diagnostics=None) -> dict:
    """Oracle for ``structure.recover_parent_map``: the same selection, one
    pop at a time, each row of squared differences against the later pops
    only, with the ties and diagnostics taken from that row alone."""
    declared = _declared_map(substation_children)
    loads = sorted(set(momset.observed) - momset.zero_ids)
    unknown = [c for c in declared if c not in set(loads)]
    if unknown:
        raise UnobservedNode(f"declared substation children {unknown} not observed")

    cov = momset.full_cov("eps")
    pos = {a: k for k, a in enumerate(momset.observed)}
    var_of = {a: float(cov[pos[a], pos[a]]) for a in loads}
    order = sorted(loads, key=lambda a: (-var_of[a], a))
    if diagnostics is not None:
        diagnostics.pop_order = list(order)
        for i in range(len(order) - 1):
            diagnostics.variance_margins.append(
                (order[i], var_of[order[i]] - var_of[order[i + 1]])
            )

    # Row i holds the squared differences of pop i against every later pop,
    # in the operation order of the scalar MomentSet.sqdiff.
    idx = np.array([pos[a] for a in order], dtype=int)
    ids = np.array(order, dtype=int)
    var = np.diag(cov)[idx]
    parent: dict[int, int] = {}
    for i, a in enumerate(order):
        if a in declared:
            parent[a] = declared[a]
            continue
        if i + 1 == len(order):
            raise IncompleteCover(
                f"node {a} has no remaining parent candidates", parent_map=parent
            )
        later = idx[i + 1 :]
        vals = var[i] - 2.0 * cov[idx[i], later] + var[i + 1 :]
        cands = ids[i + 1 :]
        best_val = vals.min()
        chosen = int(cands[vals == best_val].min())
        parent[a] = chosen
        if diagnostics is not None:
            others = cands != chosen
            if others.any():
                runner_val = vals[others].min()
                runner = int(cands[others & (vals == runner_val)].min())
                margin = float(runner_val - best_val)
                scale = max(abs(best_val), abs(runner_val), 1e-300)
                ambiguous = bool(margin <= _AMBIGUOUS_RTOL * scale)
            else:
                runner, margin, ambiguous = None, float("inf"), False
            diagnostics.decisions.append(
                EdgeDecision(a, chosen, margin, runner, ambiguous)
            )
    return parent


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
