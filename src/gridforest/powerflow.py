"""Forward model: voltage deviations and their moments from injections.

The Linear-Coupled model is one complex linear map from nodal injections to
voltage deviations:

    eps + j theta = T_z (p - j q)

with T_z = T_r + j T_x the path-sum inverse for impedance weights r + jx
(equivalently theta = T_x p - T_r q and eps = T_r p + T_x q).  A single
solve applies T_z by one complex tree sweep (``apply_path_inverse``).

Everything else is one real map.  Each node's injection pair is its mean
plus its Cholesky factor times two standard draws z1, z2; ``_folded_map``
folds the factors into the rows of T_r and T_x, giving a real (2n x 2n) map
A and a mean row c with [eps, theta] = [z1, z2] A + [Re c, Im c].  The
population moments, the samples and the sample moments are that map under
three draw statistics: ``analytic_moments`` takes the draws' unit
covariance (A^T A), ``sample_voltages`` maps m rows of draws, and
``fold_moments`` maps the draws' own divisor-m mean and covariance S
(A^T S A), without forming the (m, n) voltage matrices.

The sample moments are two steps.  ``draw_moments`` computes the draws'
mean and covariance from the distribution, m, n and the seed alone, so the
experiment sweeps run it in worker processes; ``fold_moments`` maps them
through (A, c), which needs the network, and runs where the network and
its cached path-sum matrix live: in the sweep's main process.

Substations hold the reference and contribute identically-zero channels, so
all vectors and matrices here cover load nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCovariance, NonFiniteSamples, TooFewSamples
from .network import RadialForest, apply_path_inverse

_DISTRIBUTIONS = ("gaussian", "uniform", "laplace")

# Entries of standard draws per block that draw_moments adds into its Gram
# matrix at once: large enough to amortise each product, small enough that a
# block stays in cache whatever m is.
_DRAW_BLOCK = 1 << 15


def _draw_rows(n: int) -> int:
    """Rows of [z1 | z2] per draw_moments block for n loads."""
    return max(1, _DRAW_BLOCK // (2 * n))


@dataclass(frozen=True)
class InjectionModel:
    """Per-load-node injection means and diagonal second moments.

    Injections at distinct nodes are uncorrelated; ``cov_pq`` is the per-node
    covariance between active and reactive injection.
    """

    node_ids: tuple[int, ...]
    mu_p: np.ndarray
    mu_q: np.ndarray
    var_p: np.ndarray
    var_q: np.ndarray
    cov_pq: np.ndarray
    distribution: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(int(i) for i in self.node_ids))
        n = len(self.node_ids)
        for name in ("mu_p", "mu_q", "var_p", "var_q", "cov_pq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} must have shape ({n},), got {arr.shape}")
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                k = bad[0]
                raise InvalidCovariance(
                    f"{name} at node {self.node_ids[k]} is not finite ({arr[k]})"
                )
            object.__setattr__(self, name, arr)
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if np.any(self.var_p < 0.0) or np.any(self.var_q < 0.0):
            raise InvalidCovariance("variances must be non-negative")
        # the product of the roots neither underflows nor overflows where
        # var_p * var_q would
        bound = np.sqrt(self.var_p) * np.sqrt(self.var_q)
        if np.any(np.abs(self.cov_pq) > bound * (1.0 + 1e-12) + 1e-300):
            raise InvalidCovariance("cov_pq exceeds sqrt(var_p) * sqrt(var_q)")

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def for_nodes(self, ids) -> "InjectionModel":
        """Reindex onto the given node ordering; ``self`` if already in it."""
        if tuple(ids) == self.node_ids:
            return self
        pos = {i: k for k, i in enumerate(self.node_ids)}
        try:
            idx = np.array([pos[i] for i in ids], dtype=int)
        except KeyError as exc:
            raise DimensionMismatch(f"injection model lacks node {exc.args[0]}") from None
        return InjectionModel(
            node_ids=tuple(ids),
            mu_p=self.mu_p[idx],
            mu_q=self.mu_q[idx],
            var_p=self.var_p[idx],
            var_q=self.var_q[idx],
            cov_pq=self.cov_pq[idx],
            distribution=self.distribution,
        )

    def as_maps(self) -> tuple[dict, dict, dict]:
        """(var_p, var_q, cov_pq) keyed by node id."""
        vp = {i: float(v) for i, v in zip(self.node_ids, self.var_p)}
        vq = {i: float(v) for i, v in zip(self.node_ids, self.var_q)}
        s = {i: float(v) for i, v in zip(self.node_ids, self.cov_pq)}
        return vp, vq, s


@dataclass(frozen=True)
class VoltageSamples:
    """Joint voltage observations; row j, column k is sample j at node_ids[k].

    Substation channels are identically zero and therefore not stored.
    ``theta`` may be None for magnitude-only data.  Every value must be
    finite; NonFiniteSamples names the channel, node and row of the first
    that is not.
    """

    node_ids: tuple[int, ...]
    eps: np.ndarray
    theta: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(int(i) for i in self.node_ids))
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", eps)
        if eps.ndim != 2 or eps.shape[1] != len(self.node_ids):
            raise DimensionMismatch(f"eps must be (m, {len(self.node_ids)})")
        if self.theta is not None:
            th = np.asarray(self.theta, dtype=float)
            if th.shape != eps.shape:
                raise DimensionMismatch("theta shape must match eps")
            object.__setattr__(self, "theta", th)
        for channel in ("eps", "theta"):
            arr = getattr(self, channel)
            if arr is not None and not np.isfinite(arr).all():
                row, k = np.argwhere(~np.isfinite(arr))[0]
                raise NonFiniteSamples(channel, self.node_ids[k], int(row), arr[row, k])

    @property
    def m(self) -> int:
        return self.eps.shape[0]


@dataclass(frozen=True)
class AnalyticMoments:
    """Population means and covariance matrices of (theta, eps) over loads;
    ``omega_eps_theta`` is E[eps theta^T] (rows eps, columns theta)."""

    node_ids: tuple[int, ...]
    mu_theta: np.ndarray
    mu_eps: np.ndarray
    omega_theta: np.ndarray
    omega_eps: np.ndarray
    omega_eps_theta: np.ndarray


def _check_vector(forest: RadialForest, v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (forest.n_loads,):
        raise DimensionMismatch(
            f"{name} must have shape ({forest.n_loads},), got {arr.shape}"
        )
    return arr


def solve_lcpf(forest: RadialForest, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Phase and magnitude deviations for one injection vector pair."""
    p = _check_vector(forest, p, "p")
    q = _check_vector(forest, q, "q")
    v = apply_path_inverse(forest, p - 1j * q)
    return v.imag, v.real


def _standard_draws(rng, distribution: str, shape) -> np.ndarray:
    """Zero-mean unit-variance draws from the tagged family."""
    if distribution == "gaussian":
        return rng.standard_normal(shape)
    if distribution == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    if distribution == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=shape)
    raise ValueError(f"unknown distribution {distribution!r}")


def _folded_map(forest: RadialForest, inj: InjectionModel) -> tuple[np.ndarray, np.ndarray]:
    """The map (A, c) from one row of standard draws [z1, z2] to the voltages:
    [eps, theta] = [z1, z2] A + [Re c, Im c], with ``inj`` in load order.

    Each node's pair is p = mu_p + a11 z1, q = mu_q + a21 z1 + a22 z2, with
    [[a11, 0], [a21, a22]] the Cholesky factor of [[var_p, cov_pq],
    [cov_pq, var_q]], so second moments are exact for any tagged
    distribution.  The factor is folded into the rows of T_r = Re T_z and
    T_x = Im T_z, giving the real (2n, 2n) map

        A = [[a11 T_r + a21 T_x,  a11 T_x - a21 T_r],
             [a22 T_x,           -a22 T_r          ]]

    (eps columns first), and c = (mu_p - j mu_q) T_z is the mean row.
    """
    a11 = np.sqrt(inj.var_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        a21 = np.where(a11 > 0.0, inj.cov_pq / np.where(a11 > 0.0, a11, 1.0), 0.0)
    a22 = np.sqrt(np.maximum(inj.var_q - a21**2, 0.0))
    a11, a21, a22 = a11[:, None], a21[:, None], a22[:, None]

    tz = forest.h_inverse_matrix("z")
    tr, tx = tz.real, tz.imag
    n = inj.n
    a = np.empty((2 * n, 2 * n))
    a[:n, :n] = a11 * tr + a21 * tx
    a[:n, n:] = a11 * tx - a21 * tr
    a[n:, :n] = a22 * tx
    a[n:, n:] = -a22 * tr
    return a, (inj.mu_p - 1j * inj.mu_q) @ tz


def analytic_moments(forest: RadialForest, inj: InjectionModel) -> AnalyticMoments:
    """Exact voltage moments induced by an injection model.

    The identity-covariance case of ``fold_moments``: the standard draws
    have zero mean and unit covariance, so through the map (A, c) of
    ``_folded_map`` the voltages [eps, theta] have covariance A^T A and mean
    [Re c, Im c], for every tagged distribution.  The blocks are sliced in
    ``fold_moments``' layout.
    """
    inj = inj.for_nodes(forest.load_ids)
    a, c = _folded_map(forest, inj)
    cov = a.T @ a
    n = inj.n
    return AnalyticMoments(
        node_ids=forest.load_ids,
        mu_theta=c.imag,
        mu_eps=c.real,
        omega_theta=cov[n:, n:],
        omega_eps=cov[:n, :n],
        omega_eps_theta=cov[:n, n:],
    )


def sample_voltages(
    forest: RadialForest, inj: InjectionModel, m: int, seed
) -> VoltageSamples:
    """Monte-Carlo voltage samples; deterministic for a given seed.

    Two standard draws z1, z2 per node and sample go through the map of
    ``_folded_map`` by four real products, so each row equals the linear
    solve for its injections, without forming p - j q.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inj = inj.for_nodes(forest.load_ids)
    rng = np.random.default_rng(seed)
    # one (2, m, n) draw is the same stream as two sequential (m, n) draws
    z1, z2 = _standard_draws(rng, inj.distribution, (2, m, inj.n))
    a, c = _folded_map(forest, inj)
    n = inj.n
    eps = z1 @ a[:n, :n]
    eps += z2 @ a[n:, :n]
    eps += c.real
    theta = z1 @ a[:n, n:]
    theta += z2 @ a[n:, n:]
    theta += c.imag
    return VoltageSamples(node_ids=forest.load_ids, eps=eps, theta=theta)


def draw_moments(distribution: str, m: int, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Divisor-m mean ``zbar`` (2n,) and covariance ``S`` (2n, 2n) of the m
    rows of standard draws z = [z1, z2] that ``sample_voltages`` maps for n
    loads and ``seed``.

    z1 is drawn whole, then z2 in blocks of ``_draw_rows(n)`` rows, the same
    stream as ``sample_voltages``' single draw.  Each block [z1 | z2] is added
    into the uncentred Gram matrix G = z^T z and the column sums, and
    S = G/m - zbar^T zbar.  It needs neither the network nor the injection
    statistics, so it is a module-level function a worker process can run.
    """
    if m < 2:
        raise TooFewSamples(f"need at least 2 samples, got {m}")
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
        gram += b.T @ b  # numpy takes the symmetric rank-k (SYRK) product
        zsum += ones[: len(b)] @ b  # a matrix-vector product; faster than sum(axis=0)
    zbar = zsum / m
    return zbar, gram / m - np.outer(zbar, zbar)


def fold_moments(forest: RadialForest, inj: InjectionModel, zbar, s):
    """The voltage moments of draws with mean ``zbar`` and covariance ``s``
    (``draw_moments``' statistics), through the map (A, c) of ``_folded_map``:
    ``(mu_eps, mu_theta, cov_eps, cov_theta, cov_eps_theta)`` over the loads,
    in the order ``MomentSet`` takes them.  The covariance of [eps, theta]
    is A^T S A and its mean is zbar A + [Re c, Im c].
    """
    inj = inj.for_nodes(forest.load_ids)
    a, c = _folded_map(forest, inj)
    cov = a.T @ (s @ a)
    mu = zbar @ a
    n = inj.n
    return mu[:n] + c.real, mu[n:] + c.imag, cov[:n, :n], cov[n:, n:], cov[:n, n:]

