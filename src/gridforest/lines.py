"""Per-edge impedance recovery when injection variances are known.

An edge's three pairwise statistics (eps A, theta B, cross C) and the
subtree sums (Sp, Sq, S) of (var_p, var_q, cov_pq) below it satisfy the
complex edge relation that ``structure.solve_edge_system`` inverts for the
sums when z = r + jx is known:

    A + B = |z|^2 (Sp + Sq),    W = A - B + 2jC = z^2 (Sp - Sq - 2jS).

Here Sp and Sq are known and the relation is inverted for (z, S): the first
equation pins T = |z|^2, the modulus of the second then pins |S| through
|Sp - Sq - 2jS| = |W| / T (so |Sp - Sq| <= |W| / T is needed), and each sign
of S gives z^2 = W / (Sp - Sq - 2jS).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    BothRootsFeasible,
    NoRealRoot,
    SingularSystem,
    UnobservedNode,
)
from .moments import MomentSet
from .network import line_key
from .structure import (
    StructureDiagnostics,
    forest_from_parent_map,
    recover_parent_map,
)


@dataclass(frozen=True)
class EdgeEstimate:
    """Recovered per-unit impedances and own-node pq covariance for one edge."""

    r_hat: float
    x_hat: float
    cov_pq_hat: float
    residual: float
    root_choice: str  # "plus" | "minus": the larger | smaller r^2 of the two solutions
    coincident: bool = False  # the two r^2 agree to about sqrt(rel_tol) relative
    sign_violation: bool = False  # implied covariance sum came out non-positive


def estimate_edge(
    a_stat: float,
    b_stat: float,
    c_stat: float,
    sum_var_p: float,
    sum_var_q: float,
    desc_cov_pq: float = 0.0,
    *,
    rel_tol: float = 1e-9,
) -> EdgeEstimate:
    """Invert one edge's statistics for (r, x, own cov_pq).

    ``sum_var_p`` / ``sum_var_q`` are the known subtree sums including the
    node itself; ``desc_cov_pq`` is the already-known covariance sum of the
    strict descendants, subtracted from the recovered subtree total.  Of the
    solutions those with r, x > 0 are kept and a positive covariance sum is
    preferred.  While |C| <= rel_tol (A + B) leaves the sign of C open, the
    solutions for conj(W) count too: each mirrors one for W as (r, -x, -S).
    """
    if not (sum_var_p > 0.0 and sum_var_q > 0.0):
        raise ValueError(
            f"subtree variance sums must be positive (Sp {sum_var_p:g}, Sq {sum_var_q:g})"
        )
    if not (a_stat > 0.0 and b_stat > 0.0):
        raise ValueError(f"pairwise statistics must be positive (A {a_stat:g}, B {b_stat:g})")

    scale = a_stat + b_stat
    t_sum = scale / (sum_var_p + sum_var_q)
    d = sum_var_p - sum_var_q
    w = complex(a_stat - b_stat, 2.0 * c_stat)
    if abs(w) <= rel_tol * scale:
        # A = B and C = 0: consistent only with a zero covariance sum, and
        # any (r, x) on the circle r^2 + x^2 = T.  Report what is pinned.
        exc = SingularSystem(f"A = B, C = 0 pin only r^2 + x^2 = {t_sum:.6e} (cov sum 0)")
        exc.identifiable = {"r2_plus_x2": t_sum, "sum_cov_pq": 0.0}
        raise exc
    mod = abs(w) / t_sum  # |Sp - Sq - 2jS|
    if abs(d) > (1.0 + rel_tol) * mod:
        raise NoRealRoot(f"|Sp - Sq| = {abs(d):.6e} exceeds |A - B + 2jC| / T = {mod:.6e}")
    s_abs = math.sqrt(max(mod - abs(d), 0.0) * (mod + abs(d))) / 2.0

    sols = [(s, cmath.sqrt(w / complex(d, -2.0 * s))) for s in (s_abs, -s_abs)]
    u_pair = [z.real**2 for _, z in sols]
    coincident = abs(u_pair[0] - u_pair[1]) <= math.sqrt(rel_tol) * sum(u_pair)
    candidates = []
    for (s, z), u, u_other in zip(sols, u_pair, u_pair[::-1]):
        if z.imag < 0.0 and abs(c_stat) <= rel_tol * scale:
            s, z = -s, z.conjugate()  # the solution for conj(W)
        v, rx = z.imag**2, z.real * z.imag
        if u <= rel_tol * t_sum or v <= rel_tol * t_sum or z.imag < 0.0:
            continue  # r, x must both be positive
        resid = (
            abs(u * sum_var_p + v * sum_var_q + 2.0 * rx * s - a_stat)
            + abs(v * sum_var_p + u * sum_var_q - 2.0 * rx * s - b_stat)
            + abs(rx * d + (v - u) * s - c_stat)
        )
        candidates.append((resid, u, z, s, "plus" if u >= u_other else "minus"))
    if not candidates:
        raise NoRealRoot("no solution with positive impedances")

    positive = [c for c in candidates if c[3] > 0.0]
    pool = sorted(positive or candidates, key=lambda c: c[0])
    distinct = len(pool) >= 2 and abs(pool[0][1] - pool[1][1]) > max(rel_tol * t_sum, 1e-300)
    if distinct and pool[1][0] <= rel_tol * (scale + abs(c_stat)):
        pair = [(c[2].real, c[2].imag, c[3]) for c in pool[:2]]
        raise BothRootsFeasible("two consistent (r, x) solutions", candidates=pair)
    resid, _, z, s, choice = pool[0]
    return EdgeEstimate(
        z.real, z.imag, s - desc_cov_pq, float(resid), choice, coincident, not positive
    )


def learn_structure_and_params(
    momset: MomentSet,
    var_p,
    var_q,
    substation_children,
    *,
    rel_tol: float | None = None,
    diagnostics: StructureDiagnostics | None = None,
):
    """Recover the forest, then per discovered edge its (r, x) and own cov_pq;
    returns ``(forest, estimates)``, the estimates keyed by (child, parent).

    ``var_p`` / ``var_q`` map node id to the known true injection variances.
    ``rel_tol`` is ``estimate_edge``'s tolerance; None takes 1e-9 on
    population moments (``momset.m`` None) and 1e-6 on samples.
    An edge whose variance sums or statistics are not positive raises
    AssumptionViolated naming it.  ``diagnostics`` receives the parent
    selections (``recover_parent_map``).
    """
    if rel_tol is None:
        rel_tol = 1e-9 if momset.m is None else 1e-6
    parent = recover_parent_map(momset, substation_children, diagnostics=diagnostics)
    momset = momset.with_zero_ids(substation_children.keys())

    missing = [a for a in parent if a not in var_p or a not in var_q]
    if missing:
        raise UnobservedNode(f"known variances missing for nodes {missing}")

    # pop order is leaf-first: every node pops before its parent
    order = list(parent)
    eps, theta, cross = momset.edge_stats(order, [parent[a] for a in order])
    if theta is None:
        raise UnobservedNode("line-parameter estimation needs the theta channel")
    # strict-descendant sums of var_p, var_q and the estimated cov_pq
    desc = {a: np.zeros(3) for a in parent}
    estimates: dict[tuple[int, int], EdgeEstimate] = {}

    for a, *stats in zip(order, eps.tolist(), theta.tolist(), cross.tolist()):
        b = parent[a]
        desc_p, desc_q, desc_s = desc[a].tolist()
        sp, sq = var_p[a] + desc_p, var_q[a] + desc_q
        try:
            est = estimate_edge(*stats, sp, sq, desc_cov_pq=desc_s, rel_tol=rel_tol)
        except ValueError as exc:
            raise AssumptionViolated(f"edge (child {a}, parent {b}): {exc}") from exc
        estimates[(a, b)] = est
        if b in desc:
            desc[b] += (sp, sq, est.cov_pq_hat + desc_s)

    line_params = {line_key(*e): (est.r_hat, est.x_hat) for e, est in estimates.items()}
    forest = forest_from_parent_map(parent, substation_children, line_params=line_params)
    return forest, estimates
