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
The forward-model oracle solves one injection vector pair by the package's
complex tree sweep.
The sampled-moments oracle takes the moments of the samples themselves,
which a sweep cell past m = 2n never forms.
The dense path-inverse helper is the package's own sweep applied to the
identity, the dense T_z that the package no longer forms.  The folded-map
oracle forms the dense real map from a row of standard draws to the
voltages on it.  The one-pass blocked-moments oracle draws and maps in one
function the mean and the draw covariance S of a sweep cell past m = 2n:
the map is that dense A^T, and the mean the forward-model oracle's solve of
the draws' mean injection.  Its draw step centres the Gram matrix as one whole-matrix
expression, as ``draw_moments`` did before it centred it in place.  The
swept-factor oracle sweeps the zero-mean injections of all the columns of
a draw factor L as one block, where the package sweeps blocks of them.
The moment-blocks oracle forms the whole voltage covariance from a factor,
which the package never does.
The path-entry and descendant oracles walk the parent links, and so do the
shape helpers (``children_map``, ``depths``, ``root_of``), which the forest
does not keep.  The hop-count oracle searches the raw operational lines
breadth first.
The sorted samples-CSV oracle reads the file as one block and assembles it by
whole-file sorts, as the reader did before it placed each block at its cells.
The variance-order oracle sorts the loads by their eps variance, and the
scalar parent-selection oracle takes one pop's row of that order at a time.
The one-pair helper reads one pair's statistic by ``MomentSet.edge_stats``.
The linear edge oracle solves one edge for (r, x) when its covariance sum is
known too.  The quadratic edge oracle solves one edge for (r, x, cov_pq) as
a quadratic in r^2, eliminating the covariance sum, against the complex
closed form of ``lines.estimate_edge``.
"""

import functools
import math

import numpy as np
import pytest

from gridforest import fileio
from gridforest.errors import (
    BothRootsFeasible,
    DimensionMismatch,
    IncompleteCover,
    MalformedSamples,
    NoRealRoot,
    SingularSystem,
    UnobservedNode,
)
from gridforest.lines import EdgeEstimate
from gridforest.moments import MomentSet
from gridforest.network import Line, Node, apply_path_inverse, build_forest
from gridforest.powerflow import (
    InjectionModel,
    VoltageSamples,
    _draw_rows,
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


def dense_path_inverse(forest) -> np.ndarray:
    """The dense complex path-sum matrix T_z: ``apply_path_inverse`` of the
    identity, so each entry adds its shared-path weights root first."""
    return apply_path_inverse(forest, np.eye(forest.n_loads))


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


@functools.lru_cache(maxsize=64)
def children_map(forest) -> dict:
    """Each node, slacks included, mapped to the tuple of its children, from
    the parent links."""
    out = {i: [] for i in forest.nodes}
    for child, par in forest.parent.items():
        out[par].append(child)
    return {i: tuple(c) for i, c in out.items()}


def depths(forest) -> dict:
    """Each node's hops up to its slack (0 at a slack), from the parent links."""
    out = {s: 0 for s in forest.slack_ids}
    for a in forest.load_ids:
        path = []
        while a not in out:
            path.append(a)
            a = forest.parent[a]
        for b in reversed(path):
            out[b] = out[a] + 1
            a = b
    return out


def root_of(forest, a):
    """The slack of ``a``'s tree, from the parent links."""
    while a in forest.parent:
        a = forest.parent[a]
    return a


def hop_count(forest, a, b) -> float:
    """Oracle for ``tree_distance``: the fewest operational lines from ``a``
    to ``b``, by a breadth-first search of the raw line list; inf when no
    path joins them."""
    adj = {i: [] for i in forest.nodes}
    for ln in forest.lines:
        if ln.status == "operational":
            adj[ln.a].append(ln.b)
            adj[ln.b].append(ln.a)
    hops, frontier = {a: 0}, [a]
    for cur in frontier:
        for nxt in adj[cur]:
            if nxt not in hops:
                hops[nxt] = hops[cur] + 1
                frontier.append(nxt)
    return float(hops.get(b, math.inf))


def descendant_set(forest, a) -> frozenset:
    """Oracle: ``a`` and every load whose path to the slack passes through
    it, from the parent links."""
    forest.load_index(a)
    children = children_map(forest)
    out, stack = set(), [a]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(children[cur])
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
    if root_of(forest, a) != root_of(forest, b):
        raise ValueError(f"nodes {a} and {b} sit in different trees")
    inj = inj.for_nodes(forest.load_ids)
    tz = dense_path_inverse(forest)
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


def _check_vector(forest, v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (forest.n_loads,):
        raise DimensionMismatch(
            f"{name} must have shape ({forest.n_loads},), got {arr.shape}"
        )
    return arr


def solve_lcpf(forest, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Forward-model oracle: phase and magnitude deviations of one injection
    vector pair, eps + j theta = T_z (p - j q), by one complex tree sweep."""
    p = _check_vector(forest, p, "p")
    q = _check_vector(forest, q, "q")
    v = apply_path_inverse(forest, p - 1j * q)
    return v.imag, v.real


def injection_factors(inj):
    """(a11, a21, a22): each node's Cholesky factor [[a11, 0], [a21, a22]] of
    its injection covariance [[var_p, cov_pq], [cov_pq, var_q]]."""
    a11 = np.sqrt(inj.var_p)
    a21 = np.divide(inj.cov_pq, a11, out=np.zeros(inj.n), where=a11 > 0.0)
    a22 = np.sqrt(np.maximum(inj.var_q - a21**2, 0.0))
    return a11, a21, a22


def reference_sample_voltages(forest, inj, m: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (eps, theta) samples by the complex form, with the seed
    semantics of ``sample_voltages``: two sequential (m, n) draws z1, z2,
    the Cholesky pair p = mu_p + a11 z1, q = mu_q + a21 z1 + a22 z2, and
    eps + j theta = (p - jq) T_z."""
    inj = inj.for_nodes(forest.load_ids)
    rng = np.random.default_rng(seed)
    z1 = _standard_draws(rng, inj.distribution, (m, inj.n))
    z2 = _standard_draws(rng, inj.distribution, (m, inj.n))
    a11, a21, a22 = injection_factors(inj)
    u = np.empty((m, inj.n), dtype=complex)
    u.real = inj.mu_p + a11 * z1
    u.imag = -(inj.mu_q + a21 * z1 + a22 * z2)
    v = u @ dense_path_inverse(forest)
    return v.real, v.imag


def reference_analytic_moments(forest, inj) -> dict:
    """Oracle for ``powerflow.analytic_moments`` by the complex form, on the
    dense oracle T_z = T_r + j T_x: with v = eps + j theta = T_z u and
    u = p - jq, the complex second moments C = E[v v^H] =
    T_z diag(var_p + var_q) T_z^H and P = E[v v^T] =
    T_z diag(var_p - var_q - 2j cov_pq) T_z^T hold every real block:
    Omega_eps = Re(C + P)/2, Omega_theta = Re(C - P)/2 and E[eps theta^T] =
    Im(P - C)/2.  Returns the means and ``moment_blocks``' blocks by name."""
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


def blocked_draw_moments(distribution: str, m: int, n: int, seed):
    """Oracle for ``draw_moments``, bit for bit: the blocked Gram matrix of
    the draws and the column means, with S = G/m - outer(zbar, zbar) formed
    as a whole-matrix expression."""
    rng = np.random.default_rng(seed)
    z1 = _standard_draws(rng, distribution, (m, n))
    rows = _draw_rows(n)
    block = np.empty((min(rows, m), 2 * n))
    ones = np.ones(len(block))
    gram = np.zeros((2 * n, 2 * n))
    zsum = np.zeros(2 * n)
    for j0 in range(0, m, rows):
        b = block[: min(rows, m - j0)]
        b[:, :n] = z1[j0 : j0 + len(b)]
        b[:, n:] = _standard_draws(rng, distribution, (len(b), n))
        gram += b.T @ b
        zsum += ones[: len(b)] @ b
    zbar = zsum / m
    return zbar, gram / m - np.outer(zbar, zbar)


def folded_map(forest, inj):
    """Oracle: the dense real map (A, c) from one row of standard draws
    [z1, z2] to the voltages, [eps, theta] = [z1, z2] A + [Re c, Im c], on
    the dense T_z of ``dense_path_inverse``: the Cholesky factors folded into
    the rows of T_r and T_x,

        A = [[a11 T_r + a21 T_x,  a11 T_x - a21 T_r],
             [a22 T_x,           -a22 T_r          ]]

    (eps columns first), and the mean row c = (mu_p - j mu_q) T_z."""
    inj = inj.for_nodes(forest.load_ids)
    a11, a21, a22 = (f[:, None] for f in injection_factors(inj))
    tz = dense_path_inverse(forest)
    tr, tx = tz.real, tz.imag
    a = np.block([[a11 * tr + a21 * tx, a11 * tx - a21 * tr], [a22 * tx, -a22 * tr]])
    return a, (inj.mu_p - 1j * inj.mu_q) @ tz


def one_pass_sample_moments(forest, inj, m: int, seed):
    """Oracle for a sweep cell's moments past m = 2n
    (``experiments.empirical_moments``): ``(mu_eps, mu_theta, rows, s)`` in
    one pass, with the dense map A^T of ``folded_map`` as the rows and the
    blocked draw covariance ``s``, so that the voltage covariance is
    rows · s · rows^T, and the means solved for the draws' mean injection
    by ``solve_lcpf``."""
    inj = inj.for_nodes(forest.load_ids)
    n = inj.n
    zbar, s = blocked_draw_moments(inj.distribution, m, n, seed)
    a11, a21, a22 = injection_factors(inj)
    p = inj.mu_p + a11 * zbar[:n]
    q = inj.mu_q + a21 * zbar[:n] + a22 * zbar[n:]
    mu_theta, mu_eps = solve_lcpf(forest, p, q)
    return mu_eps, mu_theta, np.ascontiguousarray(folded_map(forest, inj)[0].T), s


def swept_factor(forest, inj, factor) -> np.ndarray:
    """Oracle for a sweep cell's covariance factor past m = 2n
    (``powerflow.voltage_moments``): one ``apply_path_inverse`` of the
    zero-mean injections of all the columns of the draw factor L (z1 rows
    first), the real parts over the imaginary parts."""
    inj = inj.for_nodes(forest.load_ids)
    n = inj.n
    a11, a21, a22 = (f[:, None] for f in injection_factors(inj))
    zero = np.zeros((n, 1))  # the zero means, added as the package adds them
    z1, z2 = factor[:n], factor[n:]
    v = apply_path_inverse(forest, (zero + a11 * z1) - 1j * (zero + a21 * z1 + a22 * z2))
    return np.concatenate([v.real, v.imag])


def moment_blocks(moments) -> dict:
    """Oracle: the covariance blocks of a ``MomentSet`` over its nodes
    (``omega_eps``, and with theta ``omega_theta`` and ``omega_eps_theta`` =
    E[eps theta^T]), formed whole as rows · rows^T."""
    rows = moments.rows[moments._rix.ravel()]
    cov = rows @ rows.T
    n = len(moments.node_ids)
    blocks = {"omega_eps": cov[:n, :n]}
    if len(cov) > n:
        blocks.update(omega_theta=cov[n:, n:], omega_eps_theta=cov[:n, n:])
    return blocks


def sorted_load_samples(path) -> VoltageSamples:
    """Oracle for ``fileio.load_samples``: the same arrays, or the same error
    line and message. The data rows are read as one block, then checked over
    the concatenated table and assembled by whole-file sorts."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fileio._fields(fh.readline())
        if header[:4] != ["sample", "node", "eps", "theta"]:
            raise MalformedSamples(path, 1, f"unexpected samples header {header}")
        lines = fh.readlines()

    def check(bad, msg):  # row i of the table is line i + 2 of the file
        bad = np.flatnonzero(bad)
        if bad.size:
            raise MalformedSamples(path, int(bad[0]) + 2, msg)

    if not lines:
        raise MalformedSamples(path, 2, "no data rows")
    block = fileio._read_block(lines)
    if block is None:
        k, msg = fileio._bad_line(lines)
        raise MalformedSamples(path, k + 2, msg)
    table, given = block
    if given.any():  # name the first row of the smaller theta mode
        if given.sum() < len(given) / 2:
            check(given, "theta given, but other rows leave it blank")
        check(~given, "blank theta, but other rows give theta")
    eps, theta = table["eps"], table["theta"]  # theta is 0 where blank
    check(~(np.isfinite(eps) & np.isfinite(theta)), "eps and theta must be finite")
    j = table["sample"]
    check((j < 0) | (j >= len(table)), "sample index out of range")
    node_ids, pos = np.unique(table["node"], return_inverse=True)
    m, n = int(j.max()) + 1, len(node_ids)
    cell, first = np.unique(j * n + pos, return_index=True)
    check(~np.isin(np.arange(len(table)), first), "duplicate (sample, node) row")
    if len(cell) < m * n:
        gap = np.flatnonzero(cell != np.arange(len(cell)))
        k = int(gap[0]) if gap.size else len(cell)
        msg = f"no row for sample {k // n}, node {node_ids[k % n]}"
        raise MalformedSamples(path, None, msg)
    return VoltageSamples(  # rows of ``first`` are in (sample, node) order
        node_ids=node_ids.tolist(),
        eps=eps[first].reshape(m, n),
        theta=theta[first].reshape(m, n) if given[0] else None,
    )


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


def quadratic_estimate_edge(
    a_stat: float,
    b_stat: float,
    c_stat: float,
    sum_var_p: float,
    sum_var_q: float,
    desc_cov_pq: float = 0.0,
    *,
    rel_tol: float = 1e-9,
) -> EdgeEstimate:
    """Oracle for ``lines.estimate_edge``: the same inversion as a quadratic
    in u = r^2.  With T = r^2 + x^2 = (A + B) / (Sp + Sq), D = 2u - T,
    w = r x, d = Sp - Sq and e = A - B, eliminating x and S leaves

        u^2 [e^2 + 4C^2] - u T [e^2 + 4C^2 + dTe] + T^2 [e + dT]^2 / 4 = 0.

    Squaring w = sqrt(u (T - u)) introduces a mirror root; it is rejected by
    the sign of the unsquared relation 4 C w = d T^2 - e D (skipped while
    |C| <= rel_tol (A + B) leaves C's sign open) and by preferring a
    positive covariance sum.
    """
    if not (sum_var_p > 0.0 and sum_var_q > 0.0):
        raise ValueError("subtree variance sums must be positive")
    if not (a_stat > 0.0 and b_stat > 0.0):
        raise ValueError("pairwise statistics must be positive")

    t_sum = (a_stat + b_stat) / (sum_var_p + sum_var_q)
    d = sum_var_p - sum_var_q
    e = a_stat - b_stat

    alpha = e * e + 4.0 * c_stat * c_stat
    stat_scale = (a_stat + b_stat) ** 2
    if alpha <= rel_tol * rel_tol * stat_scale:
        # A = B and C = 0: consistent only with a zero covariance sum, and
        # any (r, x) on the circle r^2 + x^2 = T.  Report what is pinned.
        exc = SingularSystem(
            "statistics identify only r^2 + x^2 (A = B and C = 0); "
            f"r^2 + x^2 = {t_sum:.6e}, cov sum = 0"
        )
        exc.identifiable = {"r2_plus_x2": t_sum, "sum_cov_pq": 0.0}
        raise exc
    beta = t_sum * (alpha + d * t_sum * e)
    gamma = t_sum * t_sum * (e + d * t_sum) ** 2 / 4.0

    # beta^2 - 4 alpha gamma in closed form: the difference itself cancels
    # to half its digits when the two roots nearly coincide.
    disc = 4.0 * c_stat * c_stat * t_sum * t_sum * (alpha - (d * t_sum) ** 2)
    disc_scale = max(beta * beta, abs(4.0 * alpha * gamma), 1e-300)
    if disc < -rel_tol * disc_scale:
        raise NoRealRoot(f"discriminant {disc:.3e} below tolerance")
    coincident = bool(disc <= rel_tol * disc_scale)
    disc = max(float(disc), 0.0)
    sq = math.sqrt(disc)
    roots = [((beta + sq) / (2.0 * alpha), "plus"), ((beta - sq) / (2.0 * alpha), "minus")]

    c_floor = rel_tol * (a_stat + b_stat)
    candidates = []
    for u, choice in roots:
        v = t_sum - u
        if u <= rel_tol * t_sum or v <= rel_tol * t_sum:
            continue  # r, x must both be positive
        w = math.sqrt(u * v)
        if abs(c_stat) > c_floor:
            w_pred = (d * t_sum * t_sum - e * (2.0 * u - t_sum)) / (4.0 * c_stat)
            if w_pred < -rel_tol * max(w, abs(w_pred)):
                continue
        s = (e - (2.0 * u - t_sum) * d) / (4.0 * w)
        resid = (
            abs(u * sum_var_p + v * sum_var_q + 2.0 * w * s - a_stat)
            + abs(v * sum_var_p + u * sum_var_q - 2.0 * w * s - b_stat)
            + abs(w * d + (v - u) * s - c_stat)
        )
        candidates.append((resid, u, v, w, s, choice))

    if not candidates:
        raise NoRealRoot("no feasible root with positive impedances")

    positive = [c for c in candidates if c[4] > 0.0]
    pool = positive if positive else candidates
    pool.sort(key=lambda c: c[0])
    resid_scale = a_stat + b_stat + abs(c_stat)
    if len(pool) >= 2:
        r0, r1 = pool[0][0], pool[1][0]
        distinct = abs(pool[0][1] - pool[1][1]) > max(rel_tol * t_sum, 1e-300)
        if distinct and r0 <= rel_tol * resid_scale and r1 <= rel_tol * resid_scale:
            raise BothRootsFeasible(
                "two consistent (r, x) solutions",
                candidates=[
                    (math.sqrt(c[1]), math.sqrt(c[2]), c[4]) for c in pool[:2]
                ],
            )
    resid, u, v, w, s, choice = pool[0]
    return EdgeEstimate(
        r_hat=math.sqrt(u),
        x_hat=math.sqrt(v),
        cov_pq_hat=s - desc_cov_pq,
        residual=float(resid),
        root_choice=choice,
        coincident=coincident,
        sign_violation=not positive,
    )


def pair_stat(momset, channel: str, a, b) -> float:
    """One pair's ``channel`` ("eps", "theta" or "cross") statistic, read by
    ``MomentSet.edge_stats``; UnobservedNode for theta or cross on a
    magnitude-only set."""
    stat = momset.edge_stats((a,), (b,))[("eps", "theta", "cross").index(channel)]
    if stat is None:
        raise UnobservedNode(f"{channel} channel not observed")
    return float(stat[0])


def variance_order(momset) -> list:
    """Oracle: the observed loads by decreasing eps variance, ties by id (the
    pop order of parent selection)."""
    loads = set(momset.node_ids) - momset.zero_ids
    pos = {a: k for k, a in enumerate(momset.node_ids)}
    return sorted(loads, key=lambda a: (-float(momset.cov_eps[pos[a], pos[a]]), a))


def scalar_parent_map(momset, substation_children, *, diagnostics=None) -> dict:
    """Oracle for ``structure.recover_parent_map``: the same selection, one
    pop of ``variance_order`` at a time, each row of squared differences
    against the later pops only, with the ties and diagnostics taken from
    that row alone."""
    declared = _declared_map(substation_children)
    order = variance_order(momset)
    unknown = [c for c in declared if c not in set(order)]
    if unknown:
        raise UnobservedNode(f"declared substation children {unknown} not observed")

    cov = momset.cov_eps
    pos = {a: k for k, a in enumerate(momset.node_ids)}
    var_of = {a: float(cov[pos[a], pos[a]]) for a in order}
    if diagnostics is not None:
        for i in range(len(order) - 1):
            diagnostics.variance_margins.append(
                (order[i], var_of[order[i]] - var_of[order[i + 1]])
            )

    # Row i holds the squared differences of pop i against every later pop,
    # in the kernel's operation order, var(a) - 2 cov(a, b) + var(b).
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
    mat = moment_blocks(momset)[channel]
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
    cov_e = _aligned_matrix(momset, ids, "omega_eps")
    cov_t = _aligned_matrix(momset, ids, "omega_theta")
    cov_et = _aligned_matrix(momset, ids, "omega_eps_theta")
    cov_te = cov_et.T
    var_p = np.diag(g @ cov_e @ g.T - g @ cov_et @ bm.T - bm @ cov_te @ g.T + bm @ cov_t @ bm.T)
    var_q = np.diag(bm @ cov_e @ bm.T + bm @ cov_et @ g.T + g @ cov_te @ bm.T + g @ cov_t @ g.T)
    cov_pq = np.diag(-g @ cov_e @ bm.T - g @ cov_et @ g.T + bm @ cov_te @ bm.T + bm @ cov_t @ g.T)
    var_p = np.maximum(var_p, 0.0)
    var_q = np.maximum(var_q, 0.0)
    bound = np.sqrt(var_p) * np.sqrt(var_q)
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
    inj = draw_injections(forest.load_ids, int(rng.integers(2**31)))
    return forest, inj
