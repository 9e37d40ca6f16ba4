"""Sample statistics consumed by the learners.

A MomentSet answers three questions about any pair of nodes: per-node mean,
per-node variance, and the centered squared difference (or cross product)
between the two nodes' deviations.  It can be backed either by finite
samples (divisor m, matching the estimators the learners are defined with)
or by population moment matrices, so learners run identically in empirical
and analytic mode.

Substation ids may be registered as ``zero_ids``: their channels are
identically zero, so statistics against them reduce to single-node moments.

The three covariance blocks (eps, theta, eps-theta) are formed once, with one
matrix product each in sample mode, and never change afterwards.
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
        self.m = m
        self.mu_eps = None if mu_eps is None else np.asarray(mu_eps, dtype=float)
        self.mu_theta = None if mu_theta is None else np.asarray(mu_theta, dtype=float)
        self._cov_eps = cov_eps
        self._cov_theta = cov_theta
        self._cov_eps_theta = cov_eps_theta

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_samples(cls, samples: VoltageSamples, observed=None, zero_ids=()):
        """Empirical moments with divisor m (biased, by construction)."""
        if samples.m < 2:
            raise TooFewSamples(f"need at least 2 samples, got {samples.m}")
        if observed is not None:
            samples = samples.restrict(tuple(observed))
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

    def mu_eps_of(self, a) -> float:
        if a in self.zero_ids:
            return 0.0
        return float(self.mu_eps[self._index(a)])

    def mu_theta_of(self, a) -> float:
        if a in self.zero_ids:
            return 0.0
        if not self.has_theta:
            raise UnobservedNode("theta channel not observed")
        return float(self.mu_theta[self._index(a)])

    def _cov(self, channel: str, a, b) -> float:
        """Centered second moment between two node channels (zero ids are zero)."""
        if a in self.zero_ids or b in self.zero_ids:
            if a in self.zero_ids and b in self.zero_ids:
                return 0.0
            # one zero channel: the product moment vanishes
            self._index(b if a in self.zero_ids else a)
            return 0.0
        ia, ib = self._index(a), self._index(b)
        return float(self.full_cov(channel)[ia, ib])

    def var_eps(self, a) -> float:
        return self._cov("eps", a, a)

    def var_theta(self, a) -> float:
        return self._cov("theta", a, a)

    def sqdiff(self, channel: str, a, b) -> float:
        """Centered squared difference (or cross product) between two nodes.

        Symmetric in (a, b); zero at a == b.  Uses the exact algebraic
        identity sqdiff = var(a) - 2 cov(a, b) + var(b) for its estimator.
        """
        if channel not in ("eps", "theta", "cross"):
            raise ValueError(f"unknown channel {channel!r}")
        if a == b:
            if a not in self.zero_ids:
                self._index(a)
            return 0.0
        if channel == "cross":
            return (
                self._cov("eps_theta", a, a)
                - self._cov("eps_theta", a, b)
                - self._cov("eps_theta", b, a)
                + self._cov("eps_theta", b, b)
            )
        return (
            self._cov(channel, a, a)
            - 2.0 * self._cov(channel, a, b)
            + self._cov(channel, b, b)
        )

    def with_zero_ids(self, ids) -> "MomentSet":
        """Shallow view with additional identically-zero channels (slacks)."""
        extra = frozenset(int(i) for i in ids)
        if extra <= self.zero_ids:
            return self
        overlap = extra & set(self.node_ids)
        if overlap:
            raise ValueError(f"zero ids {sorted(overlap)} are observed nodes")
        out = MomentSet(
            self.node_ids,
            self.mu_eps,
            self.mu_theta,
            self._cov_eps,
            self._cov_theta,
            self._cov_eps_theta,
            m=self.m,
            zero_ids=self.zero_ids | extra,
        )
        return out

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

    def mean_vectors(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """(mu_theta, mu_eps) restricted to the given ids (zero ids allowed)."""
        mt = np.array([self.mu_theta_of(i) for i in ids])
        me = np.array([self.mu_eps_of(i) for i in ids])
        return mt, me

    def to_dict(self) -> dict:
        """Debug dump of the single-node statistics."""
        out = {
            "m": self.m,
            "nodes": [
                {
                    "id": i,
                    "mu_eps": float(self.mu_eps[k]),
                    "var_eps": float(self.var_eps(i)),
                    **(
                        {
                            "mu_theta": float(self.mu_theta[k]),
                            "var_theta": float(self.var_theta(i)),
                        }
                        if self.has_theta
                        else {}
                    ),
                }
                for k, i in enumerate(self.node_ids)
            ],
        }
        return out


def estimate(samples: VoltageSamples, observed=None, zero_ids=()) -> MomentSet:
    """Empirical MomentSet over the observed nodes."""
    return MomentSet.from_samples(samples, observed=observed, zero_ids=zero_ids)


def sqdiff(momset: MomentSet, channel: str, a, b) -> float:
    return momset.sqdiff(channel, a, b)
