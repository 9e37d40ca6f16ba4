"""Forest recovery when some nodes contribute no voltage data.

Hidden nodes are assumed pairwise more than two hops apart and never direct
substation children, so every hidden node has an observed parent and
observed children.  True injection covariances of all nodes and the
parameters of all lines are known inputs here; the learner estimates
nothing, it only places nodes.

Each time a node is matched to its parent candidate, the measured squared
difference of their voltage deviations is compared against predictions in
a fixed order:

1. direct edge - the subtree sums already accumulated explain the statistic;
2. hidden leaf child - some hidden node's covariances, added to the subtree,
   explain it;
3. hidden intermediate - the node has parked (unattached) descendants, so a
   hidden node is interposed: it becomes the child of the matched node and
   adopts the parked nodes.

Exact equalities become residual checks with a relative tolerance; among
hidden candidates the minimum residual wins.
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
from .network import RadialForest
from .structure import (
    StructureDiagnostics,
    _declared_map,
    forest_from_parent_map,
    recover_parent_map,
)


@dataclass(frozen=True)
class HiddenNodeInfo:
    id: int
    var_p: float
    var_q: float
    cov_pq: float


@dataclass(frozen=True)
class MissingSpec:
    hidden: tuple[HiddenNodeInfo, ...]

    def __post_init__(self):
        seen = set()
        for k, h in enumerate(self.hidden):
            if h.id in seen:
                raise located(ValueError(f"duplicate hidden node id {h.id}"), "hidden", k, "id")
            seen.add(h.id)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(h.id for h in self.hidden)

    def cov_maps(self):
        vp = {h.id: h.var_p for h in self.hidden}
        vq = {h.id: h.var_q for h in self.hidden}
        s = {h.id: h.cov_pq for h in self.hidden}
        return vp, vq, s

    @classmethod
    def from_injections(cls, ids, inj) -> "MissingSpec":
        """Build from the true injection model of the hidden nodes."""
        vp, vq, s = inj.as_maps()
        return cls(
            hidden=tuple(HiddenNodeInfo(int(i), vp[i], vq[i], s[i]) for i in ids)
        )


@dataclass
class MatchCheck:
    kind: str  # direct_edge | missing_leaf_child | missing_intermediate
    child: int
    parent: int
    candidate: int | None
    lhs: float
    rhs: float
    residual: float
    accepted: bool = False


@dataclass
class PlacementEvent:
    child: int
    parent: int
    accepted: MatchCheck | None
    checks: list[MatchCheck] = field(default_factory=list)

    @property
    def wrong_margin(self) -> float:
        """Smallest residual among the non-accepted alternatives."""
        others = [c.residual for c in self.checks if not c.accepted]
        return min(others) if others else math.inf


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
        if h not in forest_truth.nodes:
            violations.append(f"hidden node {h} not in the grid")
            continue
        if forest_truth.is_slack(h):
            violations.append(f"hidden node {h} is a substation")
            continue
        if forest_truth.is_slack(forest_truth.parent[h]):
            violations.append(f"hidden node {h} is an immediate substation child")
    known = [h for h in ids if h in forest_truth.nodes and forest_truth.is_load(h)]
    for i, a in enumerate(known):
        for b in known[i + 1 :]:
            dist = forest_truth.tree_distance(a, b)
            if dist <= 2:
                violations.append(
                    f"hidden nodes {a} and {b} are {int(dist)} hops apart"
                )
    return violations


def residual_match(lhs: float, rhs: float, scale: float, tol_rel: float) -> bool:
    """Tolerance form of the algorithm's exact equality checks."""
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    return abs(lhs - rhs) <= tol_rel * scale


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
        self.momset = momset.with_zero_ids(self.slack_ids)
        self.hidden_left = set(missing.ids)
        hvp, hvq, hs = missing.cov_maps()
        self.var_p = {**var_p, **hvp}
        self.var_q = {**var_q, **hvq}
        self.cov_pq = {**cov_pq, **hs}
        self.lines = line_params
        self.tol_rel = tol_rel

        observed = set(self.momset.observed) - self.momset.zero_ids
        overlap = self.hidden_left & observed
        if overlap:
            raise AssumptionViolated(f"hidden nodes {sorted(overlap)} have observations")
        hidden_declared = self.hidden_left & set(self.declared)
        if hidden_declared:
            raise AssumptionViolated(
                f"hidden nodes {sorted(hidden_declared)} declared as substation children"
            )
        missing_cov = [a for a in observed if a not in self.var_p or a not in self.cov_pq]
        if missing_cov:
            raise UnobservedNode(f"known covariances missing for nodes {missing_cov}")

        self.parent: dict[int, int] = {}
        self.parked: dict[int, list[int]] = {}
        # strict-descendant sums of (var_p, var_q, cov_pq), parked nodes included
        self.desc: defaultdict[int, np.ndarray] = defaultdict(lambda: np.zeros(3))
        self.diag = MissingDiagnostics()

    def _resolve(self, a, b, lhs: float, *, forced: bool):
        """Play the placement checks for child ``a`` against parent candidate
        ``b``, whose measured eps squared difference is ``lhs``.

        ``forced`` marks declared substation children, whose edge is prior
        knowledge: the checks then only decide hidden placements below them.
        At finite samples a node whose checks all miss is parked under ``b``
        (its subtree sums still accumulate), to be adopted at the end if the
        line to its host exists.
        """
        key = (a, b) if a < b else (b, a)
        params = self.lines.get(key)
        sub_p, sub_q, sub_s = self.desc[a].tolist()
        p0, q0, s0 = self.var_p[a] + sub_p, self.var_q[a] + sub_q, self.cov_pq[a] + sub_s
        has_parked = bool(self.parked.get(a))
        event = PlacementEvent(child=a, parent=b, accepted=None)
        self.diag.events.append(event)

        def check(kind, cand, p, q, s):
            if params is None:
                return None
            rhs = _predicted_sqdiff(params[0], params[1], p, q, s)
            mc = MatchCheck(kind, a, b, cand, lhs, rhs, abs(lhs - rhs))
            event.checks.append(mc)
            return mc

        kind = "missing_intermediate" if has_parked else "missing_leaf_child"
        direct = check("direct_edge", None, p0, q0, s0)
        adds = [
            check(kind, d, p0 + self.var_p[d], q0 + self.var_q[d], s0 + self.cov_pq[d])
            for d in sorted(self.hidden_left)
        ]
        adds = [mc for mc in adds if mc is not None]

        scale = max(abs(lhs), 1e-300)

        def ok(mc):
            return mc is not None and residual_match(mc.lhs, mc.rhs, scale, self.tol_rel)

        def accept_direct():
            direct.accepted = True
            event.accepted = direct
            self.parent[a] = b
            self.desc[b] += (p0, q0, s0)

        def accept_hidden(mc):
            d = mc.candidate
            mc.accepted = True
            event.accepted = mc
            self.parent[a] = b
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
            self.desc[b] += (p0 + self.var_p[d], q0 + self.var_q[d], s0 + self.cov_pq[d])

        best = None
        tie = False
        if adds:
            adds_sorted = sorted(adds, key=lambda mc: (mc.residual, mc.candidate))
            best = adds_sorted[0]
            if len(adds_sorted) > 1:
                nxt = adds_sorted[1]
                tie = ok(nxt) and abs(nxt.residual - best.residual) <= _TIE_RTOL * scale

        # A node with parked children sits above a hidden node, so the
        # interposition check runs first there; otherwise the direct edge
        # is the default explanation and hidden leaves come second.
        if not has_parked:
            if ok(direct):
                accept_direct()
                return
            if best is not None and ok(best) and not tie:
                accept_hidden(best)
                return
        else:
            if best is not None and ok(best) and not tie:
                accept_hidden(best)
                return
            if ok(direct):
                # Finite-sample fallback: the parked children were parked by
                # noise, not by a hidden node; keep them for adoption.
                accept_direct()
                return

        if tie:
            self.diag.unresolved.append(a)
        if forced:
            # The slack edge itself is prior knowledge; draw it even when no
            # check explains the statistic, and leave the mismatch recorded.
            self.parent[a] = b
            self.desc[b] += (p0, q0, s0)
            self.diag.unresolved.append(a)
            return
        # Park: a's parent may be hidden (or the checks missed under noise).
        self.parked.setdefault(b, []).append(a)
        self.diag.parked.append((a, b))
        self.desc[b] += (p0, q0, s0)

    def run(self) -> dict[int, int]:
        # Each non-declared node fires at the pop of its squared-difference
        # argmin among later-popped nodes (the candidate set it would see).
        # The last pop has no candidates; undeclared, it is left dangling.
        sdiag = StructureDiagnostics()
        dangling = []
        try:
            selected = recover_parent_map(
                self.momset, self.substation_children, diagnostics=sdiag
            )
        except IncompleteCover as exc:
            selected = exc.parent_map
            dangling.append(sdiag.pop_order[-1])
        order = sdiag.pop_order
        pos = {a: i for i, a in enumerate(order)}
        target = {a: t for a, t in selected.items() if a not in self.declared}

        fired: dict[int, list[int]] = {}
        for a, t in target.items():
            fired.setdefault(t, []).append(a)
        for t in fired:
            fired[t].sort(key=lambda a: pos[a])

        # Declared substation children resolve last, against their slack
        # edge, which may also surface hidden nodes parked beneath them.
        events = [(a, b, False) for b in order for a in fired.get(b, ())]
        events += [(a, self.declared[a], True) for a in sorted(self.declared)]
        lhs, _, _ = self.momset.edge_stats(
            [a for a, _, _ in events], [b for _, b, _ in events]
        )
        for (a, b, forced), stat in zip(events, lhs.tolist()):
            self._resolve(a, b, stat, forced=forced)

        # Adoption pass: parked nodes whose line to the host exists become
        # plain children (repairs noise-induced parking; no-op at population).
        for host in sorted(self.parked):
            kept = []
            for w in self.parked[host]:
                key = (w, host) if w < host else (host, w)
                if w not in self.parent and key in self.lines:
                    self.parent[w] = host
                    self.diag.fallback_edges.append((w, host))
                else:
                    kept.append(w)
            self.parked[host] = kept

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

    ``var_p`` / ``var_q`` / ``cov_pq`` map observed node ids to their true
    values; hidden nodes' values come from the missing spec.  ``line_params``
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
