"""Forest recovery when some nodes contribute no voltage data.

Hidden nodes are assumed pairwise more than two hops apart and never direct
substation children, so every hidden node has an observed parent and
observed children.  True injection covariances of all nodes and the
parameters of all lines are known inputs here; the learner estimates
nothing, it only places nodes.  It drops the hidden nodes' rows of the
moments when they are there, and takes its order from the parent map of
``recover_parent_map`` on the observed loads, which is in pop order.

Each time a node is matched to its parent candidate, the measured squared
difference of their voltage deviations is compared against predictions:

1. direct edge - the subtree sums already accumulated explain the statistic;
2. hidden node - some unplaced hidden node's covariances, added to the
   subtree sums, explain it.  The hidden node is a leaf child of the matched
   node, or, when the matched node has parked (unattached) children, an
   intermediate: it becomes the matched node's child and adopts the parked
   nodes.  One event checks one of the two kinds, never both.

A node with parked children sits above a hidden node, so there the
hidden checks come first and the direct edge second; elsewhere the direct
edge comes first.  Exact equalities become residual checks with a relative
tolerance; among hidden candidates the minimum residual wins, and a tie for
it places none.

Each event leaves one frozen ``PlacementEvent``: the accepted check, if any,
and the smallest residual of the others; the checks themselves are not kept.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    IncompleteCover,
    NoConsistentPlacement,
    UnobservedNode,
    located,
)
from .moments import MomentSet
from .network import RadialForest, line_key
from .structure import (
    _declared_map,
    check_fluctuating,
    forest_from_parent_map,
    recover_parent_map,
)


@dataclass(frozen=True)
class MissingSpec:
    """The ids of the loads whose voltages are not observed."""

    ids: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for k, i in enumerate(self.ids):
            if i in seen:
                raise located(ValueError(f"duplicate hidden node id {i}"), "hidden", k)
            seen.add(i)


@dataclass(frozen=True)
class PlacementEvent:
    """One placement event: ``child`` matched to parent candidate ``parent``,
    whose measured eps squared difference is ``lhs``.  ``kind`` (direct_edge
    | missing_leaf_child | missing_intermediate), ``candidate`` (the hidden
    node placed) and ``residual`` describe the accepted check, all None when
    no check passed; ``wrong_margin`` is the smallest residual among the
    other checks, inf when there are none."""

    child: int
    parent: int
    lhs: float
    kind: str | None
    candidate: int | None
    residual: float | None
    wrong_margin: float


@dataclass
class MissingDiagnostics:
    events: list[PlacementEvent] = field(default_factory=list)
    parked: list[tuple[int, int]] = field(default_factory=list)  # (node, under)
    fallback_edges: list[tuple[int, int]] = field(default_factory=list)
    unresolved: list[int] = field(default_factory=list)


def validate_missing_spec(forest_truth: RadialForest, spec: MissingSpec) -> list[str]:
    """Violations of the hidden-node placement assumptions, one message each;
    ``learn-missing`` rejects a spec with any (AssumptionViolated)."""
    violations = []
    ids = spec.ids
    for h in ids:
        if not forest_truth.is_load(h):
            violations.append(f"hidden node {h} is not a load of the network")
        elif forest_truth.is_slack(forest_truth.parent[h]):
            violations.append(f"hidden node {h} is an immediate substation child")
    known = [h for h in ids if forest_truth.is_load(h)]
    for i, a in enumerate(known):
        for b in known[i + 1 :]:
            dist = forest_truth.tree_distance(a, b)
            if dist <= 2:
                violations.append(
                    f"hidden nodes {a} and {b} are {int(dist)} hops apart"
                )
    return violations


def _predicted_sqdiff(r: float, x: float, p: float, q: float, s: float) -> float:
    """Squared-difference statistic an edge (r, x) with subtree covariance
    sums (p, q, s) would produce."""
    return r * r * p + x * x * q + 2.0 * r * x * s


_TIE_RTOL = 1e-12


class _MissingLearner:
    def __init__(
        self,
        momset: MomentSet,
        missing: MissingSpec,
        var_p,
        var_q,
        cov_pq,
        line_params,
        substation_children,
        tol_rel: float,
    ):
        self.substation_children = substation_children
        self.declared = _declared_map(substation_children)
        self.slack_ids = tuple(substation_children.keys())
        self.hidden_left = set(missing.ids)
        observed = [a for a in momset.node_ids if a not in self.hidden_left]
        self.momset = momset.restrict(observed).with_zero_ids(self.slack_ids)
        self.var_p, self.var_q, self.cov_pq = var_p, var_q, cov_pq
        self.lines = line_params
        self.tol_rel = tol_rel

        hidden_declared = self.hidden_left & set(self.declared)
        if hidden_declared:
            raise AssumptionViolated(
                f"hidden nodes {sorted(hidden_declared)} declared as substation children"
            )
        nodes = sorted(set(observed) | self.hidden_left)
        for name, known in (("var_p", var_p), ("var_q", var_q), ("cov_pq", cov_pq)):
            lacking = [a for a in nodes if a not in known]
            if lacking:
                raise UnobservedNode(f"known {name} missing for nodes {lacking}")
        check_fluctuating(var_p, var_q, nodes)

        self.parent: dict[int, int] = {}
        self.parked: dict[int, list[int]] = {}
        # strict-descendant sums of (var_p, var_q, cov_pq), parked nodes included
        self.desc: defaultdict[int, np.ndarray] = defaultdict(lambda: np.zeros(3))
        self.diag = MissingDiagnostics()

    def _resolve(self, a, b, lhs: float, *, forced: bool):
        """Place child ``a`` against parent candidate ``b``, whose measured
        eps squared difference is ``lhs``, in three steps.

        Build: with the line (a, b) known, one check of the direct edge, then
        one per hidden node still unplaced, in id order: a leaf child of
        ``a``, or, when ``a`` has parked children, an intermediate between
        ``a`` and them.  Without the line there are no checks.
        Pick: when ``a`` has parked children it sits above a hidden node, so
        the best hidden check comes first and the direct edge second;
        otherwise the direct edge is the default explanation and the best
        hidden check comes second.  The first check within ``tol_rel`` wins.
        Two best hidden checks that tie place no hidden node.
        Apply: ``a`` becomes a child of ``b`` (a placed hidden node becomes
        ``a``'s child and adopts the nodes parked under ``a``), and ``b``'s
        subtree sums grow by ``a``'s.  When no check wins, a declared
        substation child still takes its slack edge, which is prior
        knowledge, and is listed as unresolved (as is a node whose checks
        tie); any other node is parked under ``b`` (its subtree sums still
        accumulate), to be adopted at the end if its line to the host exists.
        """
        sub_p, sub_q, sub_s = self.desc[a].tolist()
        p0, q0, s0 = self.var_p[a] + sub_p, self.var_q[a] + sub_q, self.cov_pq[a] + sub_s
        has_parked = bool(self.parked.get(a))
        adds = {None: (p0, q0, s0)}
        for d in sorted(self.hidden_left):
            adds[d] = (p0 + self.var_p[d], q0 + self.var_q[d], s0 + self.cov_pq[d])

        # one (residual, candidate) per check: the direct edge (candidate
        # None) first, then the hidden nodes in id order
        params = self.lines.get(line_key(a, b))
        checks = [] if params is None else [
            (abs(lhs - _predicted_sqdiff(*params, *add)), d) for d, add in adds.items()
        ]
        scale = max(abs(lhs), 1e-300)

        def ok(check):  # the tolerance form of the algorithm's exact equalities
            return check[0] <= self.tol_rel * scale

        direct = checks[:1]
        ranked = sorted(checks[1:])  # by residual, then candidate
        tie = len(ranked) > 1 and ok(ranked[1]) and (
            abs(ranked[1][0] - ranked[0][0]) <= _TIE_RTOL * scale
        )
        best = [] if tie else ranked[:1]
        order = best + direct if has_parked else direct + best
        acc = next(filter(ok, order), None)
        residual, d = (None, None) if acc is None else acc
        hidden_kind = "missing_intermediate" if has_parked else "missing_leaf_child"
        kind = None if acc is None else "direct_edge" if d is None else hidden_kind
        self.diag.events.append(PlacementEvent(
            a, b, lhs, kind, d, residual,
            wrong_margin=min((r for r, c in checks if acc is None or c != d), default=math.inf),
        ))

        if acc is None and (tie or forced):
            self.diag.unresolved.append(a)
        if acc is None and not forced:
            # Park: a's parent may be hidden (or the checks missed under noise).
            self.parked.setdefault(b, []).append(a)
            self.diag.parked.append((a, b))
        else:
            self.parent[a] = b
        if d is not None:
            self.parent[d] = a
            # The hidden node adopts every node parked under ``a``,
            # transitively: siblings of a hidden node's child may have parked
            # under each other before this event fired.
            stack = list(self.parked.pop(a, []))
            while stack:
                w = stack.pop()
                self.parent[w] = d
                stack.extend(self.parked.pop(w, []))
            self.hidden_left.discard(d)
        self.desc[b] += adds[d]

    def run(self) -> dict[int, int]:
        # Each non-declared node fires at the pop of its squared-difference
        # argmin among later-popped nodes (the candidate set it would see).
        # The map is in pop order.  The last pop has no candidates;
        # undeclared, it is left dangling, the one node the map lacks.
        dangling = []
        try:
            selected = recover_parent_map(self.momset, self.substation_children)
        except IncompleteCover as exc:
            selected = exc.parent_map
            dangling = [a for a in self.momset.node_ids if a not in selected]
        pos = {a: i for i, a in enumerate([*selected, *dangling])}
        target = {a: t for a, t in selected.items() if a not in self.declared}
        undeclared = sorted(target, key=lambda a: (pos[target[a]], pos[a]))

        # Declared substation children resolve last, against their slack
        # edge, which may also surface hidden nodes parked beneath them.
        events = [(a, target[a], False) for a in undeclared]
        events += [(a, self.declared[a], True) for a in sorted(self.declared)]
        lhs, _, _ = self.momset.edge_stats(
            [a for a, _, _ in events], [b for _, b, _ in events]
        )
        for (a, b, forced), stat in zip(events, lhs.tolist()):
            self._resolve(a, b, stat, forced=forced)

        # Adoption pass: parked nodes whose line to the host exists become
        # plain children (repairs noise-induced parking; no-op at population).
        for host in sorted(self.parked):
            for w in self.parked[host]:
                if w not in self.parent and line_key(w, host) in self.lines:
                    self.parent[w] = host
                    self.diag.fallback_edges.append((w, host))

        problems = []
        if self.hidden_left:
            problems.append(f"hidden nodes never placed: {sorted(self.hidden_left)}")
        still_parked = {w for ws in self.parked.values() for w in ws}
        leftover = sorted(
            w for w in still_parked | set(dangling) if w not in self.parent
        )
        if leftover:
            problems.append(f"nodes never attached: {leftover}")
        if problems:
            raise NoConsistentPlacement(
                "; ".join(problems), parent_map=self.parent, events=self.diag.events
            )
        return self.parent


def learn_with_missing(
    momset: MomentSet,
    missing: MissingSpec,
    var_p,
    var_q,
    cov_pq,
    line_params,
    substation_children,
    *,
    tol_rel: float | None = None,
):
    """Recover the full forest, hidden nodes included; returns ``(forest,
    diagnostics)``.

    ``var_p`` / ``var_q`` / ``cov_pq`` map node ids to their true values and
    must cover every observed and every hidden load; ``missing`` names the
    hidden ones, whose rows of ``momset``, if present, are dropped, so the
    same forest comes from moments with or without them.  ``line_params``
    maps unordered endpoint pairs to (r, x) for every known line.
    """
    if tol_rel is None:
        # ~3.9 sigma of the sqdiff statistic's own sampling noise
        tol_rel = 5.5 / math.sqrt(momset.m) if momset.m else 1e-9
    learner = _MissingLearner(
        momset,
        missing,
        var_p,
        var_q,
        cov_pq,
        line_params,
        substation_children,
        tol_rel,
    )
    parent = learner.run()
    forest = forest_from_parent_map(
        parent, substation_children.keys(), line_params=line_params
    )
    return forest, learner.diag
