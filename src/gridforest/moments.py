"""Sample statistics consumed by the learners.

A MomentSet holds the per-node means (``mu_eps``, ``mu_theta``, in
``node_ids`` order) and three covariance blocks (eps, theta, eps-theta).  It
can be backed either by finite samples (divisor m, matching the estimators
the learners are defined with) or by population moment matrices, so learners
run identically in empirical and analytic mode.  The blocks are formed once,
with one matrix product each in sample mode, and never change afterwards.

The learners read the blocks as arrays: parent selection slices the eps
block (``full_cov``), and the edge walks read the (eps, theta, cross)
statistics of all their (child, parent) pairs with one ``edge_stats`` call.
There are no per-node scalar accessors.

Substation ids may be registered as ``zero_ids``: their channels are
identically zero, so statistics against them reduce to single-node moments.
A zero id must not be an observed node (ValueError otherwise): the learners
skip zero ids, so an observed one would silently drop that node.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewSamples, UnobservedNode
from .powerflow import AnalyticMoments, VoltageSamples


class MomentSet:
    def __init__(
        self,
        node_ids,
        mu_eps,
        mu_theta,
        cov_eps,
        cov_theta,
        cov_eps_theta,
        *,
        m=None,
        zero_ids=(),
    ):
        self.node_ids = tuple(int(i) for i in node_ids)
        self._pos = {i: k for k, i in enumerate(self.node_ids)}
        self.zero_ids = frozenset(int(i) for i in zero_ids)
        overlap = self.zero_ids.intersection(self.node_ids)
        if overlap:
            raise ValueError(f"zero ids {sorted(overlap)} are observed nodes")
        self.m = m
        self.mu_eps = None if mu_eps is None else np.asarray(mu_eps, dtype=float)
        self.mu_theta = None if mu_theta is None else np.asarray(mu_theta, dtype=float)
        self._cov_eps = cov_eps
        self._cov_theta = cov_theta
        self._cov_eps_theta = cov_eps_theta

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_samples(cls, samples: VoltageSamples, zero_ids=()):
        """Empirical moments with divisor m (biased, by construction)."""
        if samples.m < 2:
            raise TooFewSamples(f"need at least 2 samples, got {samples.m}")
        m = samples.m
        mu_eps = samples.eps.mean(axis=0)
        ce = samples.eps - mu_eps
        cov_eps = (ce.T @ ce) / m
        mu_theta = cov_theta = cov_eps_theta = None
        if samples.theta is not None:
            mu_theta = samples.theta.mean(axis=0)
            ct = samples.theta - mu_theta
            cov_theta = (ct.T @ ct) / m
            cov_eps_theta = (ce.T @ ct) / m
        return cls(
            samples.node_ids,
            mu_eps,
            mu_theta,
            cov_eps,
            cov_theta,
            cov_eps_theta,
            m=m,
            zero_ids=zero_ids,
        )

    @classmethod
    def from_analytic(cls, am: AnalyticMoments, zero_ids=()):
        """Population mode: statistics read off the moment matrices."""
        return cls(
            am.node_ids,
            am.mu_eps,
            am.mu_theta,
            am.omega_eps,
            am.omega_theta,
            am.omega_eps_theta,
            m=None,
            zero_ids=zero_ids,
        )

    # -- queries ---------------------------------------------------------------------

    @property
    def observed(self) -> tuple[int, ...]:
        return self.node_ids

    @property
    def has_theta(self) -> bool:
        return self.mu_theta is not None or self._cov_theta is not None

    def _index(self, a):
        try:
            return self._pos[a]
        except KeyError:
            raise UnobservedNode(f"node {a} has no observations") from None

    def _positions(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Row of each id in the blocks (0 for a zero id) and the zero-id mask."""
        ids = [int(i) for i in ids]
        zero = np.array([i in self.zero_ids for i in ids], dtype=bool)
        idx = [0 if z else self._index(i) for i, z in zip(ids, zero)]
        return np.array(idx, dtype=int), zero

    def edge_stats(self, children, parents):
        """Centered squared differences (eps, theta) and cross product of
        each (child, parent) pair, as arrays over the pairs.

        eps is var(a) - 2 cov(a, b) + var(b) and cross is
        C(a, a) - C(a, b) - C(b, a) + C(b, b), in that operation order, so
        every entry equals the one-pair ``sqdiff`` bit for bit.  A zero id
        has zero moments, so a slack parent gives the child's own moments.
        theta and cross are None on a magnitude-only set.
        """
        ia, za = self._positions(children)
        ib, zb = self._positions(parents)
        if len(ia) != len(ib):
            raise ValueError(f"{len(ia)} children but {len(ib)} parents")
        zab = za | zb

        def entries(block, rows, cols, zero):
            return np.where(zero, 0.0, block[rows, cols])

        def sq(block):
            return (
                entries(block, ia, ia, za)
                - 2.0 * entries(block, ia, ib, zab)
                + entries(block, ib, ib, zb)
            )

        eps = sq(self._cov_eps)
        if not self.has_theta:
            return eps, None, None
        c = self._cov_eps_theta
        cross = (
            entries(c, ia, ia, za)
            - entries(c, ia, ib, zab)
            - entries(c, ib, ia, zab)
            + entries(c, ib, ib, zb)
        )
        return eps, sq(self._cov_theta), cross

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
        return MomentSet(
            self.node_ids,
            self.mu_eps,
            self.mu_theta,
            self._cov_eps,
            self._cov_theta,
            self._cov_eps_theta,
            m=self.m,
            zero_ids=self.zero_ids | extra,
        )

    def restrict(self, ids) -> "MomentSet":
        """Moments of a subset of the observed nodes, in the given order.

        Zero ids carry over; an id that is not observed raises UnobservedNode.
        """
        ids = tuple(int(i) for i in ids)
        idx = np.array([self._index(i) for i in ids], dtype=int)
        block = np.ix_(idx, idx)

        def take(arr, sel):
            return None if arr is None else arr[sel]

        return MomentSet(
            ids,
            take(self.mu_eps, idx),
            take(self.mu_theta, idx),
            take(self._cov_eps, block),
            take(self._cov_theta, block),
            take(self._cov_eps_theta, block),
            m=self.m,
            zero_ids=self.zero_ids,
        )

    def full_cov(self, channel: str) -> np.ndarray:
        """Full covariance matrix over node_ids for one channel pair."""
        if channel == "eps":
            return self._cov_eps
        if not self.has_theta:
            raise UnobservedNode("theta channel not observed")
        if channel == "theta":
            return self._cov_theta
        if channel == "eps_theta":
            return self._cov_eps_theta
        raise ValueError(f"unknown channel {channel!r}")

    def to_dict(self) -> dict:
        """Debug dump of the single-node statistics."""
        var_eps = np.diag(self._cov_eps)
        var_theta = np.diag(self._cov_theta) if self.has_theta else None
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
