"""Forest recovery and injection-statistics estimation from voltage moments.

Structure recovery uses two ordering facts about radial grids under
uncorrelated nodal injections:

* voltage-deviation variance strictly increases moving away from the slack,
  so processing nodes in decreasing variance visits every node only after
  all of its descendants; and
* among a node's non-descendants, the centered squared difference of
  voltage deviations is minimized exactly at its parent.

The learner therefore pops nodes by decreasing variance and attaches each
previously-popped node to the pop that minimizes its squared difference.
Loads directly attached to substations must be declared up front: slack
channels are identically zero, which makes all slacks indistinguishable as
parents.

Only voltage magnitudes drive the structure.  Phase data and line
parameters enter solely in the statistics estimator.

``recover_parent_map`` is the one implementation of this pass; the
line-parameter and hidden-node learners call it too.  ``leaf_upward_edges``
is the leaf-upward edge walk of the statistics and line-parameter learners.
All three learners carry each node's strict-descendant sums of (var_p,
var_q, cov_pq) to its parent the same way, as ``desc[parent] += ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteCover, UnobservedNode
from .moments import MomentSet
from .network import (
    ROLE_LOAD,
    ROLE_SUBSTATION,
    Line,
    Node,
    RadialForest,
    apply_local_inverse,
    build_forest,
)
from .powerflow import InjectionModel

# Relative gap below which a parent selection's runner-up counts as a tie
# (diagnostics only; the smallest id wins either way).
_AMBIGUOUS_RTOL = 1e-9

# Squared differences that recover_parent_map holds at once (rows of pops
# times loads): a few hundred kB whatever N is.
_SELECT_BLOCK = 1 << 16


@dataclass
class EdgeDecision:
    """Outcome of one parent selection."""

    child: int
    parent: int
    margin: float  # runner-up sqdiff minus chosen sqdiff
    runner_up: int | None
    ambiguous: bool


@dataclass
class StructureDiagnostics:
    pop_order: list[int] = field(default_factory=list)
    decisions: list[EdgeDecision] = field(default_factory=list)
    variance_margins: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ambiguous_edges(self) -> list[EdgeDecision]:
        return [d for d in self.decisions if d.ambiguous]


@dataclass
class EstimationDiagnostics:
    clamped_variances: list[tuple[int, str, float]] = field(default_factory=list)
    clamped_covariances: list[tuple[int, float]] = field(default_factory=list)


def _declared_map(substation_children) -> dict[int, int]:
    """child -> slack, validated for duplicates."""
    out: dict[int, int] = {}
    for slack, children in substation_children.items():
        for c in children:
            if c in out:
                raise ValueError(f"node {c} declared under two substations")
            out[int(c)] = int(slack)
    return out


def recover_parent_map(
    momset: MomentSet,
    substation_children,
    *,
    diagnostics: StructureDiagnostics | None = None,
) -> dict[int, int]:
    """Parent-selection kernel shared by all structure learners.

    Pops the observed loads by decreasing eps variance (ties by id) and
    attaches each undeclared pop to the later pop with the smallest squared
    difference, the smallest id among exact ties.  Returns child -> parent
    over the observed loads, in pop order; declared substation children map
    to their slack.  Raises IncompleteCover when the last pop is undeclared
    (its parent would have to be an undeclared slack), carrying every other
    node's selection.

    The squared differences are taken for a block of pops at a time, each
    row against every load in id order and masked to the later pops by pop
    position, in the operation order of the scalar ``MomentSet.sqdiff``, so
    every value matches it bit for bit.  Blocks of about ``_SELECT_BLOCK``
    entries keep the temporaries small whatever N is.
    """
    declared = _declared_map(substation_children)
    loads = sorted(set(momset.observed) - momset.zero_ids)
    unknown = [c for c in declared if c not in set(loads)]
    if unknown:
        raise UnobservedNode(f"declared substation children {unknown} not observed")

    cov = momset.full_cov("eps")
    pos = {a: k for k, a in enumerate(momset.observed)}
    # columns stay in id order, so argmin takes the smallest id among exact ties
    ids = np.array(loads, dtype=int)
    idx = np.array([pos[a] for a in loads], dtype=int)
    var = np.diag(cov)[idx]
    n = len(loads)
    by_pop = np.lexsort((ids, -var))
    rank = np.empty(n, dtype=int)
    rank[by_pop] = np.arange(n)
    order = ids[by_pop].tolist()
    if diagnostics is not None:
        diagnostics.pop_order = order
        popped = var[by_pop]
        diagnostics.variance_margins.extend(zip(order, (popped[:-1] - popped[1:]).tolist()))

    parent: dict[int, int] = {}
    step = max(1, _SELECT_BLOCK // max(n, 1))
    for i0 in range(0, n - 1, step):
        rows = by_pop[i0 : min(i0 + step, n - 1)]
        vals = var[rows, None] - 2.0 * cov[np.ix_(idx[rows], idx)] + var
        vals[rank <= rank[rows, None]] = np.inf  # only later pops are candidates
        r = np.arange(len(rows))
        best = vals.argmin(axis=1)
        best_val = vals[r, best]
        vals[r, best] = np.inf
        runner = vals.argmin(axis=1)
        runner_val = vals[r, runner]
        margin = runner_val - best_val
        scale = np.maximum(np.maximum(np.abs(best_val), np.abs(runner_val)), 1e-300)
        ambiguous = margin <= _AMBIGUOUS_RTOL * scale
        i1 = i0 + len(rows)
        picks = zip(
            range(i0, i1), order[i0:i1], ids[best].tolist(), margin.tolist(),
            ids[runner].tolist(), ambiguous.tolist(),
        )
        for i, a, c, mgn, run, amb in picks:
            if a in declared:
                parent[a] = declared[a]
                continue
            parent[a] = c
            if diagnostics is None:
                continue
            if i + 2 == n:  # the pop before last has one candidate: no runner-up
                mgn, run, amb = float("inf"), None, False
            diagnostics.decisions.append(EdgeDecision(a, c, mgn, run, amb))
    if order:
        last = order[-1]
        if last not in declared:
            raise IncompleteCover(
                f"node {last} has no remaining parent candidates", parent_map=parent
            )
        parent[last] = declared[last]
    return parent


def forest_from_parent_map(
    parent: dict[int, int], slack_ids, *, line_params=None
) -> RadialForest:
    """Materialize a recovered parent map as a forest.

    Line parameters come from ``line_params`` (keyed by unordered endpoint
    pair) when available, unit impedance otherwise.
    """
    line_params = line_params or {}
    slack_ids = set(slack_ids)
    node_ids = set(parent) | set(parent.values()) | slack_ids
    nodes = [
        Node(i, ROLE_SUBSTATION if i in slack_ids else ROLE_LOAD)
        for i in sorted(node_ids)
    ]
    lines = []
    for child, par in sorted(parent.items()):
        key = (child, par) if child < par else (par, child)
        r, x = line_params.get(key, (1.0, 1.0))
        lines.append(Line(child, par, r=r, x=x))
    return build_forest(nodes, lines)


def learn_structure(
    momset: MomentSet,
    substation_children,
    *,
    line_params=None,
    return_diagnostics: bool = False,
):
    """Recover the operational forest from voltage-magnitude moments alone."""
    diag = StructureDiagnostics()
    parent = recover_parent_map(momset, substation_children, diagnostics=diag)
    forest = forest_from_parent_map(
        parent, substation_children.keys(), line_params=line_params
    )
    if return_diagnostics:
        return forest, diag
    return forest


def solve_edge_system(r: float, x: float, a_stat: float, b_stat: float, c_stat: float):
    """Subtree sums (var_p, var_q, cov_pq) of an edge from its three pairwise
    statistics (eps, theta, cross), in closed form.

    The edge's voltage drop is z (p - jq) with z = r + jx, summed over the
    subtree, so A + B = |z|^2 (var_p + var_q) and
    A - B + 2jC = z^2 (var_p - var_q - 2j cov_pq).  Exact for any r, x > 0
    (the equivalent 3 x 3 real system has condition number 2).
    """
    z = complex(r, x)
    t = (a_stat + b_stat) / (r * r + x * x)
    w = complex(a_stat - b_stat, 2.0 * c_stat) / (z * z)
    return np.array([(t + w.real) / 2.0, (t - w.real) / 2.0, -w.imag / 2.0])


def leaf_upward_edges(momset: MomentSet, parent: dict[int, int]):
    """Walk plan for the edges of a parent map, leaves first.

    Returns ``(order, stats)``: the children ordered by decreasing depth
    (ties in parent-map order), so every node comes after all of its
    descendants, and each child's three pairwise statistics (eps, theta,
    cross) against its parent as a tuple of floats, read with one
    ``MomentSet.edge_stats`` call over all the edges.  A learner that adds
    each node's sums into its parent in this order sums siblings in
    parent-map order.  ``momset`` must carry the slacks as zero ids and the
    theta channel (UnobservedNode otherwise).
    """
    depth: dict[int, int] = {}
    for a in parent:
        path = []
        while a in parent and a not in depth:
            path.append(a)
            a = parent[a]
        k = depth.get(a, 0)
        for b in reversed(path):
            k += 1
            depth[b] = k
    order = sorted(parent, key=lambda a: -depth[a])
    eps, theta, cross = momset.edge_stats(order, [parent[a] for a in order])
    if theta is None:
        raise UnobservedNode("the edge walk needs the theta channel")
    stats = dict(zip(order, zip(eps.tolist(), theta.tolist(), cross.tolist())))
    return order, stats


def estimate_injection_stats(
    momset: MomentSet,
    forest: RadialForest,
    *,
    return_diagnostics: bool = False,
):
    """Recover per-node injection means and second moments on a known forest.

    Edges are walked leaf-upward: each edge's three pairwise statistics
    determine the subtree sums of (var_p, var_q, cov_pq), and the
    already-estimated descendant sums are subtracted off.

    Negative solved variances are clamped to zero and reported.  Covariances
    are clamped into the Cauchy-Schwarz bound the model requires.
    """
    if not momset.has_theta:
        raise UnobservedNode("statistics estimation needs the theta channel")
    momset = momset.with_zero_ids(forest.slack_ids)
    pos = {a: k for k, a in enumerate(momset.observed)}
    missing = [a for a in forest.load_ids if a not in pos]
    if missing:
        raise UnobservedNode(f"moments missing for nodes {missing}")

    diag = EstimationDiagnostics()
    ids = forest.load_ids
    var_p, var_q, cov_pq = np.zeros((3, forest.n_loads))
    desc = {a: np.zeros(3) for a in ids}
    # the parent map in id order, so siblings' sums add up in id order
    order, stats = leaf_upward_edges(momset, {a: forest.parent[a] for a in ids})
    for a in order:
        own = solve_edge_system(*forest.edge_params[a], *stats[a]) - desc[a]
        k = forest.load_index(a)
        var_p[k], var_q[k], cov_pq[k] = own
        for j, name in enumerate(("var_p", "var_q")):
            if own[j] < 0.0:
                diag.clamped_variances.append((a, name, float(own[j])))
        var_p[k] = max(var_p[k], 0.0)
        var_q[k] = max(var_q[k], 0.0)
        p = forest.parent[a]
        if forest.is_load(p):
            desc[p] += np.array([var_p[k], var_q[k], cov_pq[k]]) + desc[a]

    bound = np.sqrt(var_p * var_q)
    for k, a in enumerate(ids):
        if abs(cov_pq[k]) > bound[k]:
            diag.clamped_covariances.append((a, float(cov_pq[k])))
            cov_pq[k] = np.sign(cov_pq[k]) * bound[k]

    # Means: mu_eps + j mu_theta = T_z (mu_p - j mu_q), and the local
    # inverse undoes T_z exactly.
    idx = [pos[a] for a in ids]
    mu_v = momset.mu_eps[idx] + 1j * momset.mu_theta[idx]
    mu = apply_local_inverse(forest, mu_v)

    inj = InjectionModel(
        node_ids=ids,
        mu_p=mu.real,
        mu_q=-mu.imag,
        var_p=var_p,
        var_q=var_q,
        cov_pq=cov_pq,
    )
    if return_diagnostics:
        return inj, diag
    return inj
