"""Sample statistics consumed by the learners.

A MomentSet holds the per-node means (``mu_eps``, ``mu_theta``, in
``node_ids`` order) and the voltage covariance as one factor: a node-major
real array ``rows`` (eps rows first, then theta rows when the phase channel
is observed; k columns), with covariance ``rows · rowsᵀ``.  Three sources
build one, each filling ``rows`` without forming that covariance: the
population moments ``powerflow.analytic_moments`` take the rows of the
forward map (k = 2n, ``m`` None), ``from_samples`` the samples' centred
values divided by √m (k = m, divisor m, matching the estimators the
learners are defined with), and a sweep cell past m = 2n the voltages of
the columns of a Cholesky factor of its draws' covariance
(``powerflow.voltage_moments``, k = 2n).  So learners run identically in
empirical and analytic mode.

Only the eps block ``cov_eps`` is formed, once, because parent selection
reads it whole.  Each learner reads the statistics of all the (child,
parent) edges it walks with one ``edge_stats`` call, which takes each edge
from the difference of its two rows, so only the shared part of the two
nodes' voltages cancels, at O(k) per edge.  There are no per-node scalar
accessors.

Substation ids may be registered as ``zero_ids``: their channels are
identically zero, so statistics against them reduce to single-node moments.
A zero id must not be an observed node (ValueError otherwise), so the
learners take every one of ``node_ids`` as a load.  The program builds its
moments without zero ids: each learner registers the slacks it is given
(``with_zero_ids``).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from .errors import TooFewSamples, UnobservedNode

if TYPE_CHECKING:
    from .powerflow import VoltageSamples

# Entries of row differences that edge_stats holds at once per channel:
# 128 kB whatever k is, so that the learners' edge walk adds little to the
# memory the rows take.
_EDGE_BLOCK = 1 << 14


def _difference(rows, a, b) -> np.ndarray:
    """rows[a] - rows[b], where a row index of -1 stands for a zero row (so
    a slack parent gives the child's own row)."""
    d, g = rows[a], rows[b]
    d[a < 0] = 0.0
    g[b < 0] = 0.0
    d -= g
    return d


class MomentSet:
    def __init__(self, node_ids, mu_eps, mu_theta, rows, *, m=None, zero_ids=()):
        self.node_ids = tuple(int(i) for i in node_ids)
        self._pos = {i: k for k, i in enumerate(self.node_ids)}
        self.zero_ids = self._zero(zero_ids)
        self.m = m
        self.mu_eps = np.asarray(mu_eps, dtype=float)
        self.mu_theta = None if mu_theta is None else np.asarray(mu_theta, dtype=float)
        n, channels = len(self.node_ids), 1 if mu_theta is None else 2
        self.rows = np.asarray(rows, dtype=float)
        if self.rows.ndim != 2 or len(self.rows) != channels * n:
            raise ValueError(f"rows must have {channels * n} rows, got shape {self.rows.shape}")
        # the rows of each node in ``rows``: one line per channel
        self._rix = np.arange(channels * n).reshape(channels, n)
        self.cov_eps = self.rows[:n] @ self.rows[:n].T  # numpy takes SYRK here

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_samples(cls, samples: VoltageSamples, zero_ids=()):
        """Empirical moments with divisor m (biased, by construction)."""
        if samples.m < 2:
            raise TooFewSamples(f"need at least 2 samples, got {samples.m}")
        m, n = samples.m, len(samples.node_ids)
        channels = [samples.eps] if samples.theta is None else [samples.eps, samples.theta]
        rows = np.empty((len(channels) * n, m))
        means = [None, None]  # eps, theta
        for k, values in enumerate(channels):
            means[k] = values.mean(axis=0)
            np.subtract(values.T, means[k][:, None], out=rows[k * n : (k + 1) * n])
        rows /= np.sqrt(m)
        return cls(samples.node_ids, *means, rows, m=m, zero_ids=zero_ids)

    @classmethod
    def from_analytic(cls, am: MomentSet, zero_ids=()):
        """``am.with_zero_ids(zero_ids)``: a view of population moments that
        shares their ``rows`` and ``cov_eps``.

        No program path calls it: only perfbench's workloads do, and deleting
        it (ROADMAP item 3) waits for the benchmark change that re-bases them
        (ROADMAP item 1, step 2).
        """
        return am.with_zero_ids(zero_ids)

    # -- queries ---------------------------------------------------------------------

    @property
    def has_theta(self) -> bool:
        return self.mu_theta is not None

    def _zero(self, ids) -> frozenset:
        zero = frozenset(int(i) for i in ids)
        overlap = zero.intersection(self.node_ids)
        if overlap:
            raise ValueError(f"zero ids {sorted(overlap)} are observed nodes")
        return zero

    def _index(self, a):
        try:
            return self._pos[a]
        except KeyError:
            raise UnobservedNode(f"node {a} has no observations") from None

    def _rows_of(self, ids) -> np.ndarray:
        """Rows of each id in ``rows``, one line per channel; -1 for a zero id."""
        ids = [int(i) for i in ids]
        zero = np.array([i in self.zero_ids for i in ids], dtype=bool)
        pos = np.array([0 if z else self._index(i) for i, z in zip(ids, zero)], dtype=int)
        return np.where(zero, -1, self._rix[:, pos])

    def _forms(self, ra, rb) -> np.ndarray:
        """``d · d`` of each pair of rows, with d = row a - row b (a row of
        -1 is zero), and with theta also ``d_t · d_t`` and ``d_e · d_t``: an
        array of one or three lines over the pairs.  The pairs go in blocks
        of about ``_EDGE_BLOCK`` entries, and each pair's value does not
        depend on the block it is in."""
        channels, count = ra.shape
        out = np.empty((2 * channels - 1, count))
        step = max(1, _EDGE_BLOCK // max(self.rows.shape[1], 1))
        for j0 in range(0, count, step):
            a, b = ra[:, j0 : j0 + step], rb[:, j0 : j0 + step]
            d = _difference(self.rows, a, b)
            out[0, j0 : j0 + step] = np.einsum("ij,ij->i", d[0], d[0])
            if channels == 2:
                out[1, j0 : j0 + step] = np.einsum("ij,ij->i", d[1], d[1])
                out[2, j0 : j0 + step] = np.einsum("ij,ij->i", d[0], d[1])
        return out

    def edge_stats(self, children, parents):
        """Centered squared differences (eps, theta) and cross product of
        each (child, parent) pair, as arrays over the pairs.

        Each pair's statistics come from the difference d of its two rows,
        as ``d · d``, so every entry equals the one-pair ``sqdiff`` bit for
        bit.  A zero id has zero moments, so a slack parent gives
        the child's own moments.  theta and cross are None on a
        magnitude-only set.
        """
        ra, rb = self._rows_of(children), self._rows_of(parents)
        if ra.shape != rb.shape:
            raise ValueError(f"{ra.shape[1]} children but {rb.shape[1]} parents")
        stats = self._forms(ra, rb)
        if not self.has_theta:
            return stats[0], None, None
        return stats[0], stats[1], stats[2]

    def sqdiff(self, channel: str, a, b) -> float:
        """One-pair view of ``edge_stats``; symmetric in (a, b), zero at a == b."""
        if channel not in ("eps", "theta", "cross"):
            raise ValueError(f"unknown channel {channel!r}")
        stats = dict(zip(("eps", "theta", "cross"), self.edge_stats((a,), (b,))))
        if stats[channel] is None:
            raise UnobservedNode("theta channel not observed")
        return float(stats[channel][0])

    def with_zero_ids(self, ids) -> "MomentSet":
        """Shallow view with additional identically-zero channels (slacks)."""
        extra = frozenset(int(i) for i in ids)
        if extra <= self.zero_ids:
            return self
        out = copy.copy(self)
        out.zero_ids = self._zero(self.zero_ids | extra)
        return out

    def restrict(self, ids) -> "MomentSet":
        """Moments of a subset of the observed nodes, in the given order.

        The view shares ``rows``; only the eps block is sliced.  Zero ids
        carry over; an id that is not observed raises UnobservedNode.
        """
        ids = tuple(int(i) for i in ids)
        idx = np.array([self._index(i) for i in ids], dtype=int)
        out = copy.copy(self)
        out.node_ids = ids
        out._pos = {i: k for k, i in enumerate(ids)}
        out.mu_eps = self.mu_eps[idx]
        out.mu_theta = None if self.mu_theta is None else self.mu_theta[idx]
        out._rix = self._rix[:, idx]
        out.cov_eps = self.cov_eps[np.ix_(idx, idx)]
        return out

    def to_dict(self) -> dict:
        """Debug dump of the single-node statistics."""
        var_eps = np.diag(self.cov_eps)
        if self.has_theta:
            var_theta = self._forms(self._rix, np.full_like(self._rix, -1))[1]
        return {
            "m": self.m,
            "nodes": [
                {
                    "id": i,
                    "mu_eps": float(self.mu_eps[k]),
                    "var_eps": float(var_eps[k]),
                    **(
                        {
                            "mu_theta": float(self.mu_theta[k]),
                            "var_theta": float(var_theta[k]),
                        }
                        if self.has_theta
                        else {}
                    ),
                }
                for k, i in enumerate(self.node_ids)
            ],
        }
