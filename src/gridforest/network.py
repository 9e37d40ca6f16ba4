"""Radial distribution forests and their path-sum inverse structure.

The operational layout of a distribution grid is a union of disjoint trees,
each rooted at one substation (slack) bus.  Everything downstream relies on
one structural fact: the inverse of the reduced edge-weighted Laplacian of
such a forest has entries equal to the summed edge weights on the shared
portion of the two nodes' paths to their slack.

Each edge weighs its complex impedance z = r + jx, and the path-sum matrix
of those weights is T_z = T_r + j T_x, the only one the forward model
needs.  Products with T_z are two tree sweeps (``apply_path_inverse``), and
products with its inverse, the reduced Laplacian with weights 1/z, are one
local sweep over the edges (``apply_local_inverse``); dense inversion exists
only in the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetected,
    DimensionMismatch,
    DisconnectedLoadNode,
    MultipleSlacksInComponent,
    ParallelLine,
    UnknownNode,
    located,
)

ROLE_SUBSTATION = "substation"
ROLE_LOAD = "load"

STATUS_OPERATIONAL = "operational"
STATUS_OPEN = "open"


@dataclass(frozen=True)
class Node:
    id: int
    role: str

    def __post_init__(self):
        if self.role not in (ROLE_SUBSTATION, ROLE_LOAD):
            raise located(ValueError(f"unknown node role {self.role!r}"), "role")


@dataclass(frozen=True)
class Line:
    """An undirected line with per-unit series impedance."""

    a: int
    b: int
    r: float
    x: float
    status: str = STATUS_OPERATIONAL

    def __post_init__(self):
        if self.a == self.b:
            msg = f"line endpoints must differ, got ({self.a}, {self.b})"
            raise located(ValueError(msg), "b")
        if not (self.r > 0.0 and self.x > 0.0):
            msg = f"line ({self.a}, {self.b}) needs r > 0 and x > 0"
            raise located(ValueError(msg), "x" if self.r > 0.0 else "r")
        if self.status not in (STATUS_OPERATIONAL, STATUS_OPEN):
            raise located(ValueError(f"unknown line status {self.status!r}"), "status")

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


def line_param_map(lines) -> dict[tuple[int, int], tuple[float, float]]:
    """Lookup of (r, x) keyed by unordered endpoint pair, all statuses."""
    return {ln.key: (ln.r, ln.x) for ln in lines}


class RadialForest:
    """Validated operational forest: parent links oriented toward each slack.

    Immutable after construction; all caches are append-only, so concurrent
    reads are safe.  A construction error carries the ``location`` of the
    node or line at fault in ``nodes`` or ``lines`` (``errors.located``).
    """

    def __init__(self, nodes, lines):
        nodes = tuple(nodes)
        lines = tuple(lines)
        self.nodes: dict[int, str] = {}
        index: dict[int, int] = {}  # position of each node id in ``nodes``
        for k, nd in enumerate(nodes):
            if nd.id in self.nodes:
                raise located(ValueError(f"duplicate node id {nd.id}"), "nodes", k, "id")
            self.nodes[nd.id] = nd.role
            index[nd.id] = k
        self.lines = lines

        self.slack_ids: tuple[int, ...] = tuple(
            sorted(i for i, role in self.nodes.items() if role == ROLE_SUBSTATION)
        )
        self.load_ids: tuple[int, ...] = tuple(
            sorted(i for i, role in self.nodes.items() if role == ROLE_LOAD)
        )
        if not self.slack_ids:
            raise located(ValueError("forest needs at least one substation"), "nodes")
        self._loadpos = {i: k for k, i in enumerate(self.load_ids)}

        seen_pairs: set[tuple[int, int]] = set()
        for k, ln in enumerate(lines):
            for name, end in (("a", ln.a), ("b", ln.b)):
                if end not in self.nodes:
                    msg = f"line references unknown node {end}"
                    raise located(UnknownNode(msg), "lines", k, name)
            if ln.key in seen_pairs:
                msg = f"parallel lines between {ln.key[0]} and {ln.key[1]}"
                raise located(ParallelLine(msg), "lines", k)
            seen_pairs.add(ln.key)

        # Cycle check via union-find over operational lines.
        uf = {i: i for i in self.nodes}

        def find(i):
            while uf[i] != i:
                uf[i] = uf[uf[i]]
                i = uf[i]
            return i

        operational = []
        for k, ln in enumerate(lines):
            if ln.status != STATUS_OPERATIONAL:
                continue
            ra, rb = find(ln.a), find(ln.b)
            if ra == rb:
                msg = f"operational lines close a loop through ({ln.a}, {ln.b})"
                raise located(CycleDetected(msg), "lines", k)
            uf[ra] = rb
            operational.append(ln)

        adj: dict[int, list[tuple[int, Line]]] = {i: [] for i in self.nodes}
        for ln in operational:
            adj[ln.a].append((ln.b, ln))
            adj[ln.b].append((ln.a, ln))

        self.parent: dict[int, int] = {}
        self.children: dict[int, tuple[int, ...]] = {}
        self.tree_of: dict[int, int] = {}
        self.depth: dict[int, int] = {}
        self.edge_params: dict[int, tuple[float, float]] = {}  # keyed by child id
        children_acc: dict[int, list[int]] = {i: [] for i in self.nodes}
        order: list[int] = []  # loads, parents before children

        visited: set[int] = set()
        for k, slack in enumerate(self.slack_ids):
            self.tree_of[slack] = k
            self.depth[slack] = 0
            visited.add(slack)
            frontier = [slack]
            while frontier:
                cur = frontier.pop(0)
                for nxt, ln in adj[cur]:
                    if nxt in visited:
                        continue
                    if self.nodes[nxt] == ROLE_SUBSTATION:
                        msg = f"substations {slack} and {nxt} share an operational component"
                        raise located(MultipleSlacksInComponent(msg), "nodes", index[nxt])
                    visited.add(nxt)
                    self.parent[nxt] = cur
                    children_acc[cur].append(nxt)
                    self.tree_of[nxt] = k
                    self.depth[nxt] = self.depth[cur] + 1
                    self.edge_params[nxt] = (ln.r, ln.x)
                    order.append(nxt)
                    frontier.append(nxt)

        missing = [i for i in self.load_ids if i not in visited]
        if missing:
            msg = f"load nodes {missing} unreachable from any substation"
            raise located(DisconnectedLoadNode(msg), "nodes", index[missing[0]])

        self.children = {i: tuple(c) for i, c in children_acc.items()}
        self.topo_order: tuple[int, ...] = tuple(order)

        self._hinv: np.ndarray | None = None

    # -- basic queries ---------------------------------------------------------

    @property
    def n_loads(self) -> int:
        return len(self.load_ids)

    def is_load(self, a) -> bool:
        return self.nodes.get(a) == ROLE_LOAD

    def is_slack(self, a) -> bool:
        return self.nodes.get(a) == ROLE_SUBSTATION

    def load_index(self, a) -> int:
        try:
            return self._loadpos[a]
        except KeyError:
            raise UnknownNode(f"{a} is not a load node") from None

    def children_of(self, a) -> tuple[int, ...]:
        if a not in self.nodes:
            raise UnknownNode(f"unknown node {a}")
        return self.children.get(a, ())

    def substation_children(self) -> dict[int, tuple[int, ...]]:
        """Loads directly attached to each slack (the declared prior)."""
        return {s: self.children_of(s) for s in self.slack_ids}

    def edge_weight(self, a) -> complex:
        """Impedance r + jx of the line between load ``a`` and its parent."""
        return complex(*self.edge_params[a])

    # -- path structure ----------------------------------------------------------

    def _lca(self, a, b):
        if self.tree_of[a] != self.tree_of[b]:
            return None
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def tree_distance(self, a, b) -> float:
        """Hop count between two loads; inf across trees."""
        self.load_index(a)
        self.load_index(b)
        lca = self._lca(a, b)
        if lca is None:
            return math.inf
        return float(self.depth[a] + self.depth[b] - 2 * self.depth[lca])

    # -- dense derived matrices (loads only) -------------------------------------------

    def h_inverse_matrix(self, kind: str) -> np.ndarray:
        """Full N x N complex path-sum matrix T_z: the two-sweep operator
        applied to the identity, O(N^2), built once per forest.  Each entry
        adds the shared-path weights in root-to-leaf order.

        ``kind`` must be "z", the only path-sum matrix the forward model
        uses; the argument stays because perfbench's tracer wraps this method
        and passes it on.
        """
        if kind != "z":
            raise ValueError(f"only the complex path-sum matrix is built, got kind {kind!r}")
        if self._hinv is None:
            self._hinv = apply_path_inverse(self, np.eye(self.n_loads))
        return self._hinv


def apply_path_inverse(forest: RadialForest, u) -> np.ndarray:
    """Apply T_z to a complex vector or (N, k) block.

    Bottom-up subtree sums, then top-down accumulation of weighted sums
    along each root-to-node path, with edge weights r + jx.  Exact, O(N k);
    columns are independent.  A vector runs as a one-column block, so it
    gives the same bits as that column of a block.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (1, 2) or u.shape[0] != forest.n_loads:
        raise DimensionMismatch(
            f"u must have shape ({forest.n_loads},) or ({forest.n_loads}, k), got {u.shape}"
        )
    pos = forest._loadpos
    s = (u[:, None] if u.ndim == 1 else u).copy()
    for a in reversed(forest.topo_order):
        p = forest.parent[a]
        if forest.is_load(p):
            s[pos[p]] += s[pos[a]]
    v = np.zeros_like(s)
    for a in forest.topo_order:
        p = forest.parent[a]
        base = v[pos[p]] if forest.is_load(p) else 0.0
        v[pos[a]] = base + forest.edge_weight(a) * s[pos[a]]
    return v[:, 0] if u.ndim == 1 else v


def apply_local_inverse(forest: RadialForest, v) -> np.ndarray:
    """Exact inverse of ``apply_path_inverse`` on a complex vector, in one
    O(N) sweep.

    This is the reduced Laplacian with edge weights 1/z applied to ``v``:
    u_a = (v_a - v_parent) / z_a - sum over children c of (v_c - v_a) / z_c,
    with v = 0 at a slack.  Each edge's flow is added to its child and
    subtracted from its parent, in ``topo_order``.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (forest.n_loads,):
        raise DimensionMismatch(f"v must have shape ({forest.n_loads},), got {v.shape}")
    pos = forest._loadpos
    u = np.zeros_like(v)
    for a in forest.topo_order:
        p = forest.parent[a]
        up = forest.is_load(p)
        flow = (v[pos[a]] - (v[pos[p]] if up else 0.0)) / forest.edge_weight(a)
        u[pos[a]] += flow
        if up:
            u[pos[p]] -= flow
    return u


def build_forest(nodes, lines) -> RadialForest:
    """Validate and orient an operational forest from nodes and lines."""
    return RadialForest(nodes, lines)
