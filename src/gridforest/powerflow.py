"""Forward model: voltage deviations and their moments from injections.

The Linear-Coupled model is one complex linear map from nodal injections to
voltage deviations:

    eps + j theta = T_z (p - j q)

with T_z = T_r + j T_x the path-sum inverse for impedance weights r + jx
(equivalently theta = T_x p - T_r q and eps = T_r p + T_x q).  Its one
operator is the complex tree sweep ``network.apply_path_inverse`` over a
block of columns: no dense T_z or map is formed.  A sweep makes no BLAS
call, so the samples do not depend on the BLAS thread count.

Each node's injection pair is its mean plus its Cholesky factor times two
standard draws z1, z2 (``_cholesky``), so a row of draws z = [z1, z2] maps
to the voltages [eps, theta] = z A + [Re c, Im c], with A real (2n x 2n)
and c = T_z (mu_p - j mu_q).  Every moment source sweeps injections, and
none multiplies by A.  ``sample_voltages`` sweeps the samples' draws, and
a sweep cell with m <= 2n takes those samples' moments.  Past 2n a cell
takes the draws' mean and the Cholesky factor L of their covariance
(``draw_moments``), and ``voltage_moments`` sweeps the mean draw's
injection and, for the factor A^T L, the zero-mean injections of L's
columns.  The population moments (``analytic_moments``) have L = I: T_z is
symmetric, so A^T is swept as unit columns scaled by their loads' factors,
n columns rather than 2n.  ``moments.MomentSet`` holds the factor, and the
population moments are one with ``m`` None, ready for every learner.

Substations hold the reference and contribute identically-zero channels, so
all vectors and matrices here cover load nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidCovariance, NonFiniteSamples
from .moments import MomentSet
from .network import RadialForest, apply_path_inverse

_DISTRIBUTIONS = ("gaussian", "uniform", "laplace")

# Complex entries per block that analytic_moments and _sweeps sweep at once:
# 1 MB, about a third of a 600-load factor's bytes (``_sweep_width``).
_SWEEP_BLOCK = 1 << 16

# Entries of standard draws per block that draw_moments adds into its Gram
# matrix at once: large enough to amortise each product, small enough that a
# block stays in cache whatever m is.  Past 64 loads a block keeps 256 rows:
# fewer would cost a pass over the whole (2n, 2n) Gram matrix per few rows.
_DRAW_BLOCK = 1 << 15


def _sweep_width(n: int) -> int:
    """Columns per sweep block for n loads: about ``_SWEEP_BLOCK`` entries,
    but past 724 loads an eighth of n, so at most eight sweeps cover n
    columns.  At least one, n = 0 included.  Each column of a sweep has the
    same bits whatever the width."""
    return max(1, _SWEEP_BLOCK // max(n, 1), n // 8)


def _draw_rows(n: int) -> int:
    """Rows of [z1 | z2] per draw_moments block for n loads."""
    return max(256, _DRAW_BLOCK // (2 * n))


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


def _standard_draws(rng, distribution: str, shape) -> np.ndarray:
    """Zero-mean unit-variance draws from the tagged family."""
    if distribution == "gaussian":
        return rng.standard_normal(shape)
    if distribution == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    if distribution == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=shape)
    raise ValueError(f"unknown distribution {distribution!r}")


def _cholesky(inj: InjectionModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a11, a21, a22)``: each node's Cholesky factor [[a11, 0], [a21, a22]]
    of [[var_p, cov_pq], [cov_pq, var_q]], so that p = mu_p + a11 z1 and
    q = mu_q + a21 z1 + a22 z2 have the model's second moments."""
    a11 = np.sqrt(inj.var_p)
    a21 = np.divide(inj.cov_pq, a11, out=np.zeros(inj.n), where=a11 > 0.0)
    a22 = np.sqrt(np.maximum(inj.var_q - a21**2, 0.0))
    return a11, a21, a22


def _injections(inj: InjectionModel, z1, z2) -> np.ndarray:
    """p - j q of the standard draws z1, z2 (one row or rows of them)."""
    a11, a21, a22 = _cholesky(inj)
    return (inj.mu_p + a11 * z1) - 1j * (inj.mu_q + a21 * z1 + a22 * z2)


def _sweeps(forest: RadialForest, inj: InjectionModel, z1, z2):
    """``(block, v)`` per block of rows of the standard draws z1, z2 (k, n):
    v (n, rows) is the voltages eps + j theta of the block's injections, one
    sweep, each column with the same bits whatever the block."""
    width = _sweep_width(inj.n)
    for j0 in range(0, len(z1), width):
        b = slice(j0, j0 + width)
        yield b, apply_path_inverse(forest, _injections(inj, z1[b], z2[b]).T)


def analytic_moments(forest: RadialForest, inj: InjectionModel) -> MomentSet:
    """Exact voltage moments induced by an injection model, as the
    population ``MomentSet`` of the loads (``m`` None): the mean, one sweep
    of the mean injection, and the node-major factor ``rows`` (2n x 2n, eps
    rows first) of the draws' unit covariance, rows = A^T.

    Columns k and n + k of rows are the voltages of a unit z1 and z2 draw
    at load k: column k of T_z scaled by load k's factors.  A block of
    columns is one sweep of unit columns, which adds the shared-path weights
    root first, so T_z is exactly symmetric and rows is exactly A^T.
    """
    inj = inj.for_nodes(forest.load_ids)
    n = inj.n
    mu = apply_path_inverse(forest, _injections(inj, 0.0, 0.0))
    a11, a21, a22 = _cholesky(inj)
    rows = np.empty((2 * n, 2 * n))
    quarter = rows.reshape(2, n, 2, n)  # quarter[e, :, c] is rows' (e, c) quarter
    width = _sweep_width(n)
    for j0 in range(0, n, width):
        j = slice(j0, min(j0 + width, n))
        t = apply_path_inverse(forest, np.eye(n, j.stop - j0, -j0, dtype=complex))
        tr, tx = t.real, t.imag
        quarter[0, :, 0, j] = a11[j] * tr + a21[j] * tx
        quarter[0, :, 1, j] = a22[j] * tx
        quarter[1, :, 0, j] = a11[j] * tx - a21[j] * tr
        quarter[1, :, 1, j] = -(a22[j] * tr)
    t = tr = tx = None  # free the last block's sweep before MomentSet forms cov_eps
    return MomentSet(forest.load_ids, mu.real, mu.imag, rows)


def voltage_moments(forest: RadialForest, inj: InjectionModel, zbar, factor):
    """``(mu_eps, mu_theta, rows)`` of draws [z1, z2] with mean ``zbar`` and
    covariance factor L (``factor``, 2n rows, z1's first): the mean is one
    sweep of the mean draw's injection, and by linearity rows = A^T L (eps
    rows first) is the voltages of the zero-mean injections of L's columns,
    swept in blocks of columns."""
    inj = inj.for_nodes(forest.load_ids)
    n = inj.n
    mu = apply_path_inverse(forest, _injections(inj, zbar[:n], zbar[n:]))
    rows = np.empty((2 * n, factor.shape[1]))
    centred = replace(inj, mu_p=np.zeros(n), mu_q=np.zeros(n))
    for b, v in _sweeps(forest, centred, factor[:n].T, factor[n:].T):
        rows[:n, b] = v.real
        rows[n:, b] = v.imag
    return mu.real, mu.imag, rows


def sample_voltages(forest: RadialForest, inj: InjectionModel, m: int, seed) -> VoltageSamples:
    """Monte-Carlo voltage samples; deterministic for a given seed.

    Two standard draws z1, z2 per node and sample give the injections p - j q,
    and one sweep per block of samples maps them to the voltages: each row is
    the linear solve of its injections, with the same bits whatever the block.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inj = inj.for_nodes(forest.load_ids)
    n = inj.n
    rng = np.random.default_rng(seed)
    # one (2, m, n) draw is the same stream as two sequential (m, n) draws
    z1, z2 = _standard_draws(rng, inj.distribution, (2, m, n))
    eps, theta = np.empty((m, n)), np.empty((m, n))
    for b, v in _sweeps(forest, inj, z1, z2):
        eps[b] = v.real.T
        theta[b] = v.imag.T
    return VoltageSamples(node_ids=forest.load_ids, eps=eps, theta=theta)


def draw_moments(distribution: str, m: int, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Divisor-m mean ``zbar`` (2n,) and the Cholesky factor ``L`` (2n x 2n)
    of the divisor-m covariance S = L L^T of the m rows of standard draws
    z = [z1, z2] that ``sample_voltages`` maps for n loads and ``seed``.
    S is singular unless m > 2n, so a smaller m is a ValueError.

    z1 is drawn whole, then z2 in blocks of ``_draw_rows(n)`` rows, the same
    stream as ``sample_voltages``' single draw.  Each block [z1 | z2] is
    added into the uncentred Gram matrix G = z^T z and the column sums, and
    S = G/m - zbar^T zbar is formed in G's own storage.
    """
    if m <= 2 * n:
        raise ValueError(f"draw_moments needs m > 2n: S is singular at m = {m}, n = {n}")
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
    gram /= m  # S in place, row by row: no (2n, 2n) temporaries
    for i in range(2 * n):
        gram[i] -= zbar[i] * zbar
    return zbar, np.linalg.cholesky(gram)
