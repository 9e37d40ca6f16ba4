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
local sweep over the edges (``apply_local_inverse``), both over the walk
table the forest records once; dense inversion exists only in the test
oracles.  That table is the forest's one oriented form: beside it the forest
keeps only the parent links, line parameters and load order it is built from.
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
    distinct_ids,
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
        return line_key(self.a, self.b)


def line_key(a, b) -> tuple[int, int]:
    """The unordered endpoint pair of a line between ``a`` and ``b``."""
    return (a, b) if a < b else (b, a)


def line_param_map(lines) -> dict[tuple[int, int], tuple[float, float]]:
    """Lookup of (r, x) keyed by unordered endpoint pair, all statuses."""
    return {ln.key: (ln.r, ln.x) for ln in lines}


class RadialForest:
    """Validated operational forest: parent links oriented toward each slack.

    Beside its ``nodes`` and ``lines`` it keeps each load's ``parent`` and
    ``edge_params`` (the (r, x) of its line up), ``topo_order`` (the loads
    breadth first) and ``_walk``, the table that the tree sweeps and the
    statistics estimator read: one ``(row, parent row, r + jx)`` entry per
    load in ``topo_order``, with parent row -1 for a slack; reversed, it is
    leaf-first.  It holds no cache, so concurrent reads are safe.  A
    construction error carries the ``location`` of the node or line at fault
    in ``nodes`` or ``lines`` (``errors.located``).
    """

    def __init__(self, nodes, lines):
        nodes = tuple(nodes)
        lines = tuple(lines)
        distinct_ids(nd.id for nd in nodes)
        self.nodes: dict[int, str] = {nd.id: nd.role for nd in nodes}
        index = {nd.id: k for k, nd in enumerate(nodes)}  # position in ``nodes``
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
        self.edge_params: dict[int, tuple[float, float]] = {}  # keyed by child id
        order: list[int] = []  # loads, parents before children
        walk: list[tuple[int, int, complex]] = []  # their sweep entries
        pos = self._loadpos

        visited: set[int] = set()
        for slack in self.slack_ids:
            visited.add(slack)
            frontier = [slack]
            for cur in frontier:  # breadth first: the list grows as it is walked
                for nxt, ln in adj[cur]:
                    if nxt in visited:
                        continue
                    if self.nodes[nxt] == ROLE_SUBSTATION:
                        msg = f"substations {slack} and {nxt} share an operational component"
                        raise located(MultipleSlacksInComponent(msg), "nodes", index[nxt])
                    visited.add(nxt)
                    self.parent[nxt] = cur
                    self.edge_params[nxt] = (ln.r, ln.x)
                    order.append(nxt)
                    walk.append((pos[nxt], pos.get(cur, -1), complex(ln.r, ln.x)))
                    frontier.append(nxt)

        missing = [i for i in self.load_ids if i not in visited]
        if missing:
            msg = f"load nodes {missing} unreachable from any substation"
            raise located(DisconnectedLoadNode(msg), "nodes", index[missing[0]])

        self.topo_order: tuple[int, ...] = tuple(order)
        self._walk: tuple[tuple[int, int, complex], ...] = tuple(walk)

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

    def substation_children(self) -> dict[int, tuple[int, ...]]:
        """Loads directly attached to each slack (the declared prior), in
        ``topo_order``."""
        out: dict[int, list[int]] = {s: [] for s in self.slack_ids}
        for a in self.topo_order:
            if self.parent[a] in out:
                out[self.parent[a]].append(a)
        return {s: tuple(c) for s, c in out.items()}

    def tree_distance(self, a, b) -> float:
        """Hop count between two loads, walked along their parent links; inf
        across trees."""
        self.load_index(a)
        self.load_index(b)
        up, hops = {}, 0  # a and each ancestor -> its hops from a
        while a is not None:
            up[a] = hops
            a, hops = self.parent.get(a), hops + 1
        hops = 0
        while b not in up:
            b = self.parent.get(b)
            if b is None:  # b's slack is not a's
                return math.inf
            hops += 1
        return float(up[b] + hops)

    # -- dense derived matrices (loads only) -------------------------------------------

    def h_inverse_matrix(self, kind: str) -> np.ndarray:
        """Full N x N complex path-sum matrix T_z: the two-sweep operator
        applied to the identity, O(N^2), built anew on each call.  Each entry
        adds the shared-path weights in root-to-leaf order.

        No program path calls it: only the test oracles and perfbench's
        tracer do, and deleting it (ROADMAP item 3) waits for the benchmark
        change that re-bases the tracer (ROADMAP item 1, step 2).  ``kind``
        must be "z"; the argument stays because the tracer passes it on.
        """
        if kind != "z":
            raise ValueError(f"only the complex path-sum matrix is built, got kind {kind!r}")
        return apply_path_inverse(self, np.eye(self.n_loads))


def apply_path_inverse(forest: RadialForest, u) -> np.ndarray:
    """Apply T_z to a complex vector or (N, k) block.

    Bottom-up subtree sums, then top-down accumulation of weighted sums
    along each root-to-node path, with edge weights r + jx, both over the
    forest's walk table and one buffer: a row holds its node's subtree sum
    until the top-down pass replaces it by the node's voltage, after its
    parent's.  Exact, O(N k); columns are independent.  A vector runs as a
    one-column block, so it gives the same bits as that column of a block.
    """
    u = np.asarray(u, dtype=complex)
    n = forest.n_loads
    if u.ndim not in (1, 2) or u.shape[0] != n:
        raise DimensionMismatch(f"u must have shape ({n},) or ({n}, k), got {u.shape}")
    # one extra row, which parent row -1 indexes: a slack's
    s = np.zeros((n + 1, 1 if u.ndim == 1 else u.shape[1]), dtype=complex)
    s[:n] = u[:, None] if u.ndim == 1 else u
    rows = list(s)  # a view per row, made once
    for a, p, _ in reversed(forest._walk):
        rows[p] += rows[a]
    s[n] = 0.0  # the slack's voltage, where its children's sums went
    for a, p, z in forest._walk:
        np.add(rows[p], z * rows[a], out=rows[a])
    return s[:n, 0] if u.ndim == 1 else s[:n]


def apply_local_inverse(forest: RadialForest, v) -> np.ndarray:
    """Exact inverse of ``apply_path_inverse`` on a complex vector, in one
    O(N) sweep over the forest's walk table.

    This is the reduced Laplacian with edge weights 1/z applied to ``v``:
    u_a = (v_a - v_parent) / z_a - sum over children c of (v_c - v_a) / z_c,
    with v = 0 at a slack.  Each edge's flow is added to its child and
    subtracted from its parent, in ``topo_order``.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (forest.n_loads,):
        raise DimensionMismatch(f"v must have shape ({forest.n_loads},), got {v.shape}")
    v = np.append(v, 0.0)  # parent row -1, a slack's: v = 0 there
    u = np.zeros_like(v)
    for a, p, z in forest._walk:
        flow = (v[a] - v[p]) / z
        u[a] += flow
        u[p] -= flow
    return u[:-1]


def build_forest(nodes, lines) -> RadialForest:
    """Validate and orient an operational forest from nodes and lines."""
    return RadialForest(nodes, lines)
