"""Forward model: voltage deviations and their second moments from injections.

Phase and voltage-magnitude deviations respond linearly to nodal active and
reactive injections through the two path-sum matrices of the forest:

    theta = T_x p - T_r q        eps = T_r p + T_x q

with T_r, T_x the path-sum inverses for resistance and reactance weights.
A single solve applies them by tree sweeps (``apply_path_inverse``); the
moment and sampling paths use the dense matrices that the same sweeps build.
Substations hold the reference and contribute identically-zero channels, so
all vectors and matrices here cover load nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DifferentTrees, DimensionMismatch, InvalidCovariance
from .network import RadialForest, apply_path_inverse

_DISTRIBUTIONS = ("gaussian", "uniform", "laplace")


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
            object.__setattr__(self, name, arr)
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if np.any(self.var_p < 0.0) or np.any(self.var_q < 0.0):
            raise InvalidCovariance("variances must be non-negative")
        bound = np.sqrt(self.var_p * self.var_q)
        if np.any(np.abs(self.cov_pq) > bound * (1.0 + 1e-12) + 1e-300):
            raise InvalidCovariance("cov_pq exceeds sqrt(var_p * var_q)")

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def assumption1_ok(self) -> bool:
        """Strict positivity: var_p, var_q > 0 and cov_pq > 0 at every node."""
        return bool(
            np.all(self.var_p > 0.0)
            and np.all(self.var_q > 0.0)
            and np.all(self.cov_pq > 0.0)
        )

    def for_nodes(self, ids) -> "InjectionModel":
        """Reindex onto the given node ordering."""
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
    ``theta`` may be None for magnitude-only data.
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

    @property
    def m(self) -> int:
        return self.eps.shape[0]

    def without_theta(self) -> "VoltageSamples":
        return VoltageSamples(node_ids=self.node_ids, eps=self.eps, theta=None)

    def restrict(self, ids) -> "VoltageSamples":
        """Keep only the given nodes (observability masking)."""
        pos = {i: k for k, i in enumerate(self.node_ids)}
        idx = np.array([pos[i] for i in ids], dtype=int)
        return VoltageSamples(
            node_ids=tuple(ids),
            eps=self.eps[:, idx],
            theta=None if self.theta is None else self.theta[:, idx],
        )


@dataclass(frozen=True)
class AnalyticMoments:
    """Population means and covariance matrices of (theta, eps) over loads."""

    node_ids: tuple[int, ...]
    mu_theta: np.ndarray
    mu_eps: np.ndarray
    omega_theta: np.ndarray
    omega_eps: np.ndarray
    omega_theta_eps: np.ndarray
    omega_eps_theta: np.ndarray = field(default=None)  # transpose, filled in post-init

    def __post_init__(self):
        if self.omega_eps_theta is None:
            object.__setattr__(self, "omega_eps_theta", self.omega_theta_eps.T.copy())


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
    trp = apply_path_inverse(forest, "r", p)
    txp = apply_path_inverse(forest, "x", p)
    trq = apply_path_inverse(forest, "r", q)
    txq = apply_path_inverse(forest, "x", q)
    theta = txp - trq
    eps = trp + txq
    return theta, eps


def analytic_moments(forest: RadialForest, inj: InjectionModel) -> AnalyticMoments:
    """Exact voltage moments induced by an injection model."""
    inj = inj.for_nodes(forest.load_ids)
    tr = forest.h_inverse_matrix("r")
    tx = forest.h_inverse_matrix("x")
    vp, vq, s = inj.var_p, inj.var_q, inj.cov_pq

    trp = tr * vp  # T_r diag(var_p)
    txp = tx * vp
    trq = tr * vq
    txq = tx * vq
    trs = tr * s
    txs = tx * s

    omega_theta = txp @ tx + trq @ tr - txs @ tr - trs @ tx
    omega_eps = trp @ tr + txq @ tx + trs @ tx + txs @ tr
    omega_theta_eps = txp @ tr - trq @ tx + txs @ tx - trs @ tr

    mu_theta = tx @ inj.mu_p - tr @ inj.mu_q
    mu_eps = tr @ inj.mu_p + tx @ inj.mu_q
    return AnalyticMoments(
        node_ids=forest.load_ids,
        mu_theta=mu_theta,
        mu_eps=mu_eps,
        omega_theta=omega_theta,
        omega_eps=omega_eps,
        omega_theta_eps=omega_theta_eps,
    )


def _standard_draws(rng, distribution: str, shape) -> np.ndarray:
    """Zero-mean unit-variance draws from the tagged family."""
    if distribution == "gaussian":
        return rng.standard_normal(shape)
    if distribution == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    if distribution == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=shape)
    raise ValueError(f"unknown distribution {distribution!r}")


def sample_voltages(
    forest: RadialForest, inj: InjectionModel, m: int, seed
) -> VoltageSamples:
    """Monte-Carlo voltage samples; deterministic for a given seed.

    Per-node (p, q) pairs are generated through the 2x2 Cholesky factor of
    [[var_p, cov_pq], [cov_pq, var_q]], so second moments are exact for any
    tagged distribution.  Each row equals the linear solve for that draw.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inj = inj.for_nodes(forest.load_ids)
    rng = np.random.default_rng(seed)
    z1 = _standard_draws(rng, inj.distribution, (m, inj.n))
    z2 = _standard_draws(rng, inj.distribution, (m, inj.n))

    a11 = np.sqrt(inj.var_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        a21 = np.where(a11 > 0.0, inj.cov_pq / np.where(a11 > 0.0, a11, 1.0), 0.0)
    a22 = np.sqrt(np.maximum(inj.var_q - a21**2, 0.0))

    p = inj.mu_p + a11 * z1
    q = inj.mu_q + a21 * z1 + a22 * z2

    tr = forest.h_inverse_matrix("r")
    tx = forest.h_inverse_matrix("x")
    eps = p @ tr + q @ tx
    theta = p @ tx - q @ tr
    return VoltageSamples(node_ids=forest.load_ids, eps=eps, theta=theta)


def pairwise_sqdiff_analytic(
    forest: RadialForest, inj: InjectionModel, a, b, channel: str = "eps"
) -> float:
    """Population squared centered difference between two nodes' deviations.

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
