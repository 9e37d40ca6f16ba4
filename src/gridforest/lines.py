"""Per-edge impedance recovery when injection variances are known.

For an edge between a node and its parent, the three pairwise statistics
(eps, theta, cross) satisfy

    A = r^2 Sp + x^2 Sq + 2 r x S
    B = x^2 Sp + r^2 Sq - 2 r x S
    C = r x (Sp - Sq) + (x^2 - r^2) S

with Sp, Sq, S the subtree sums of var_p, var_q, cov_pq.  With Sp and Sq
known a priori, eliminating x and S leaves a quadratic in r^2: adding the
first two equations pins T = r^2 + x^2 = (A + B) / (Sp + Sq), and the
remaining two reduce (with u = r^2, D = 2u - T, w = r x, d = Sp - Sq) to

    u^2 [(A-B)^2 + 4C^2] - u T [(A-B)^2 + 4C^2 + dT(A-B)]
        + T^2 [(A-B) + dT]^2 / 4  =  0.

Squaring w = sqrt(u (T - u)) introduces a mirror root; it is rejected by
the sign of the unsquared relation 4 C w = d T^2 - (A-B) D and by the
positivity of the implied covariance sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BothRootsFeasible, NoRealRoot, SingularSystem, UnobservedNode
from .moments import MomentSet
from .structure import (
    StructureDiagnostics,
    forest_from_parent_map,
    leaf_upward_edges,
    recover_parent_map,
)


@dataclass(frozen=True)
class EdgeEstimate:
    """Recovered per-unit impedances and own-node pq covariance for one edge."""

    r_hat: float
    x_hat: float
    cov_pq_hat: float
    residual: float
    root_choice: str  # "plus" | "minus"
    coincident: bool = False
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
    strict descendants, subtracted from the recovered subtree total.
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


@dataclass
class ParamLearnDiagnostics:
    structure: StructureDiagnostics = field(default_factory=StructureDiagnostics)


def learn_structure_and_params(
    momset: MomentSet,
    var_p,
    var_q,
    substation_children,
    *,
    rel_tol: float = 1e-9,
    return_diagnostics: bool = False,
):
    """Recover the forest, then per discovered edge its (r, x) and own cov_pq.

    ``var_p`` / ``var_q`` map node id to the known true injection variances.
    """
    diag = ParamLearnDiagnostics()
    parent = recover_parent_map(momset, substation_children, diagnostics=diag.structure)
    momset = momset.with_zero_ids(substation_children.keys())

    missing = [a for a in parent if a not in var_p or a not in var_q]
    if missing:
        raise UnobservedNode(f"known variances missing for nodes {missing}")

    order, stats = leaf_upward_edges(momset, parent)
    # strict-descendant sums of var_p, var_q and the estimated cov_pq
    desc = {a: np.zeros(3) for a in parent}
    estimates: dict[tuple[int, int], EdgeEstimate] = {}

    for a in order:
        b = parent[a]
        desc_p, desc_q, desc_s = desc[a].tolist()
        sp = var_p[a] + desc_p
        sq = var_q[a] + desc_q
        est = estimate_edge(*stats[a], sp, sq, desc_cov_pq=desc_s, rel_tol=rel_tol)
        estimates[(a, b)] = est
        if b in desc:
            desc[b] += (sp, sq, est.cov_pq_hat + desc_s)

    line_params = {
        ((a, b) if a < b else (b, a)): (est.r_hat, est.x_hat)
        for (a, b), est in estimates.items()
    }
    forest = forest_from_parent_map(
        parent, substation_children.keys(), line_params=line_params
    )
    if return_diagnostics:
        return forest, estimates, diag
    return forest, estimates
