"""Random radial feeder synthesis with tie lines and injection models.

Generated feeders stand in for published distribution test systems: the
presets mirror their (load, substation, tie-switch) counts without using
any third-party data.  Everything is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpec
from .network import (
    ROLE_LOAD,
    ROLE_SUBSTATION,
    STATUS_OPEN,
    Line,
    Node,
    RadialForest,
    build_forest,
    line_key,
)
from .powerflow import InjectionModel

# The uniform ranges of every draw: line resistance and reactance; the
# injection variances, a scale times a spread; the p-q correlation; and the
# mean active and reactive injections, negative as loads draw power.
_R_RANGE = (0.05, 0.30)
_X_RANGE = (0.05, 0.30)
_VAR_SCALE = 1e-4
_VAR_SPREAD = (0.5, 2.0)
_CORR_RANGE = (0.2, 0.8)
_MEAN_P_RANGE = (-1.5e-2, -0.5e-2)
_MEAN_Q_RANGE = (-0.8e-2, -0.2e-2)
_HIDDEN_TRIES = 400  # random orders choose_hidden tries before it gives up


@dataclass(frozen=True)
class FeederSpec:
    """Shape of a synthetic feeder."""

    n_loads: int
    n_trees: int = 1
    extra_lines: int = 0
    max_children: int = 3
    chain_bias: float = 0.4

    def validate(self):
        if self.n_trees < 1 or self.n_loads < self.n_trees:
            raise InfeasibleSpec(
                f"need n_loads >= n_trees >= 1, got ({self.n_loads}, {self.n_trees})"
            )
        if self.max_children < 1:
            raise InfeasibleSpec("max_children must be >= 1")
        if self.extra_lines < 0:
            raise InfeasibleSpec("extra_lines must be >= 0")


# Sizes mirroring the usual benchmark feeders (loads / substations / open lines).
PRESETS = {
    "bus_13_3": FeederSpec(n_loads=13, n_trees=3, extra_lines=13),
    "bus_29_1": FeederSpec(n_loads=29, n_trees=1, extra_lines=21),
    "bus_83_11": FeederSpec(n_loads=83, n_trees=11, extra_lines=43),
}


def preset(name: str) -> FeederSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise InfeasibleSpec(f"unknown preset {name!r}") from None


def synth_layout(spec: FeederSpec, seed) -> RadialForest:
    """Random operational forest plus open tie lines; loads 1..N, slacks above."""
    spec.validate()
    rng = np.random.default_rng(seed)

    n, k = spec.n_loads, spec.n_trees
    load_ids = list(range(1, n + 1))
    slack_ids = list(range(n + 1, n + k + 1))
    nodes = [Node(i, ROLE_LOAD) for i in load_ids] + [
        Node(s, ROLE_SUBSTATION) for s in slack_ids
    ]

    # Split loads across trees: every tree gets at least one load.
    perm = [int(v) for v in rng.permutation(load_ids)]
    counts = np.ones(k, dtype=int)
    for _ in range(n - k):
        counts[rng.integers(0, k)] += 1

    lines: list[Line] = []
    used_pairs: set[tuple[int, int]] = set()
    start = 0
    for t in range(k):
        chunk = perm[start : start + counts[t]]
        start += counts[t]
        tree_nodes = [slack_ids[t]]
        degree = {slack_ids[t]: 0}
        last = slack_ids[t]
        for a in chunk:
            if rng.random() < spec.chain_bias and degree[last] < spec.max_children:
                parent = last
            else:
                eligible = [u for u in tree_nodes if degree[u] < spec.max_children]
                parent = eligible[rng.integers(0, len(eligible))]
            ln = Line(a, parent, r=rng.uniform(*_R_RANGE), x=rng.uniform(*_X_RANGE))
            lines.append(ln)
            used_pairs.add(ln.key)
            degree[parent] += 1
            degree[a] = 0
            tree_nodes.append(a)
            last = a

    # Tie (open) lines on top of the forest.
    all_ids = load_ids + slack_ids
    max_extra = len(all_ids) * (len(all_ids) - 1) // 2 - len(used_pairs)
    if spec.extra_lines > max_extra:
        raise InfeasibleSpec(
            f"cannot place {spec.extra_lines} extra lines on {len(all_ids)} nodes"
        )
    placed = 0
    while placed < spec.extra_lines:
        u, v = rng.choice(all_ids, size=2, replace=False)
        key = line_key(int(u), int(v))
        if key in used_pairs:
            continue
        lines.append(
            Line(
                key[0],
                key[1],
                r=rng.uniform(*_R_RANGE),
                x=rng.uniform(*_X_RANGE),
                status=STATUS_OPEN,
            )
        )
        used_pairs.add(key)
        placed += 1

    return build_forest(nodes, lines)


def draw_injections(load_ids, seed) -> InjectionModel:
    """Random injection statistics satisfying the positivity assumptions."""
    rng = np.random.default_rng(seed)
    ids = tuple(load_ids)
    n = len(ids)
    var_p = _VAR_SCALE * rng.uniform(*_VAR_SPREAD, size=n)
    var_q = _VAR_SCALE * rng.uniform(*_VAR_SPREAD, size=n)
    rho = rng.uniform(*_CORR_RANGE, size=n)
    cov_pq = rho * np.sqrt(var_p * var_q)
    mu_p = rng.uniform(*_MEAN_P_RANGE, size=n)
    mu_q = rng.uniform(*_MEAN_Q_RANGE, size=n)
    return InjectionModel(
        node_ids=ids,
        mu_p=mu_p,
        mu_q=mu_q,
        var_p=var_p,
        var_q=var_q,
        cov_pq=cov_pq,
    )


def synth_feeder(spec: FeederSpec, seed) -> tuple[RadialForest, InjectionModel]:
    """Layout and injection model from one seed (layout first, then statistics)."""
    forest = synth_layout(spec, seed)
    inj = draw_injections(forest.load_ids, np.random.default_rng(seed).integers(2**32))
    return forest, inj


def choose_hidden(forest: RadialForest, count: int, seed):
    """Random hidden-node set: pairwise more than two hops apart, never a
    direct substation child."""
    if count < 0:
        raise InfeasibleSpec(f"hidden-node count must be >= 0, got {count}")
    if count == 0:
        return ()
    rng = np.random.default_rng(seed)
    candidates = [a for a in forest.load_ids if not forest.is_slack(forest.parent[a])]
    if not candidates:
        raise InfeasibleSpec("no eligible hidden nodes on this feeder")
    for _ in range(_HIDDEN_TRIES):
        picked: list[int] = []
        for a in rng.permutation(candidates):
            a = int(a)
            if all(forest.tree_distance(a, b) > 2 for b in picked):
                picked.append(a)
                if len(picked) == count:
                    return tuple(sorted(picked))
    raise InfeasibleSpec(
        f"could not place {count} hidden nodes more than two hops apart"
    )
