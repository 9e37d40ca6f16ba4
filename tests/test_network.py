import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforest.errors import (
    CycleDetected,
    DimensionMismatch,
    DisconnectedLoadNode,
    MultipleSlacksInComponent,
    ParallelLine,
    UnknownNode,
)
from gridforest.network import (
    Line,
    Node,
    apply_local_inverse,
    apply_path_inverse,
    build_forest,
)
from gridforest.synth import FeederSpec, synth_layout

from conftest import (
    children_map,
    dense_path_inverse,
    dense_path_matrix,
    depths,
    descendant_set,
    h_inverse_entry,
    hop_count,
    random_feeder,
    reduced_laplacian,
    root_of,
)


def test_chain_orientation(chain4):
    assert chain4.parent == {1: 0, 2: 1, 3: 2}
    assert chain4.slack_ids == (0,)
    assert chain4.load_ids == (1, 2, 3)


def test_open_lines_ignored():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 3)]
    lines = [
        Line(1, 0, r=1, x=1),
        Line(2, 1, r=2, x=2),
        Line(3, 2, r=1, x=1),
        Line(1, 3, r=5, x=5, status="open"),
    ]
    forest = build_forest(nodes, lines)
    assert forest.parent == {1: 0, 2: 1, 3: 2}
    assert len(forest.lines) == 4  # open line retained for round-trips


def test_two_slacks_in_component_rejected():
    nodes = [Node(0, "substation"), Node(9, "substation"), Node(1, "load")]
    lines = [Line(1, 0, r=1, x=1), Line(1, 9, r=1, x=1)]
    with pytest.raises(MultipleSlacksInComponent):
        build_forest(nodes, lines)


def test_cycle_rejected():
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2)]
    lines = [Line(1, 0, r=1, x=1), Line(2, 1, r=1, x=1), Line(2, 0, r=1, x=1)]
    with pytest.raises(CycleDetected):
        build_forest(nodes, lines)


def test_disconnected_load_rejected():
    nodes = [Node(0, "substation"), Node(1, "load"), Node(2, "load")]
    with pytest.raises(DisconnectedLoadNode):
        build_forest(nodes, [Line(1, 0, r=1, x=1)])


def test_parallel_lines_rejected():
    nodes = [Node(0, "substation"), Node(1, "load")]
    lines = [Line(1, 0, r=1, x=1), Line(0, 1, r=2, x=2, status="open")]
    with pytest.raises(ParallelLine):
        build_forest(nodes, lines)


def test_line_field_validation():
    with pytest.raises(ValueError):
        Line(1, 1, r=1, x=1)
    with pytest.raises(ValueError):
        Line(1, 2, r=0.0, x=1)
    with pytest.raises(ValueError):
        Line(1, 2, r=1, x=-0.5)


def test_unknown_endpoint():
    with pytest.raises(UnknownNode):
        build_forest([Node(0, "substation")], [Line(0, 7, r=1, x=1)])


# -- path-sum entries ---------------------------------------------------------


def test_entry_chain_value(chain4):
    # frozen from the dense oracle: shared path of 2 and 3 is edges (1,0), (2,1)
    assert h_inverse_entry(chain4, "r", 2, 3) == pytest.approx(3.0, abs=1e-14)
    oracle = dense_path_matrix(chain4, "r")
    assert oracle[1, 2] == pytest.approx(3.0, abs=1e-12)


def test_entry_branch_layout(branch_layout):
    f = branch_layout
    # nodes a=1 and d=3 share only the edge (e=5, slack): entry = r_e0 ... plus
    # nothing else; a's path also holds (a,b) and (b,e).
    assert h_inverse_entry(f, "r", 1, 3) == pytest.approx(0.5)
    # a and b share (b,e) and (e,0)
    assert h_inverse_entry(f, "r", 1, 4) == pytest.approx(0.3 + 0.5)
    assert h_inverse_entry(f, "x", 1, 4) == pytest.approx(0.4 + 0.7)


def test_entry_cousin_subtrees():
    # slack 0 - e - b with a and d both hanging under b: the shared path of
    # a and d is {(b, e), (e, 0)}, so the entry sums those two weights
    nodes = [Node(0, "substation")] + [Node(i, "load") for i in (1, 2, 4, 5)]
    lines = [
        Line(5, 0, r=0.5, x=0.7),   # e - slack
        Line(4, 5, r=0.3, x=0.4),   # b - e
        Line(1, 4, r=0.8, x=0.6),   # a - b
        Line(2, 4, r=0.9, x=0.2),   # d - b
    ]
    f = build_forest(nodes, lines)
    assert h_inverse_entry(f, "r", 1, 2) == pytest.approx(0.3 + 0.5)
    assert h_inverse_entry(f, "x", 1, 2) == pytest.approx(0.4 + 0.7)


def test_entry_cross_tree_zero():
    nodes = [Node(0, "substation"), Node(9, "substation"), Node(1, "load"), Node(2, "load")]
    lines = [Line(1, 0, r=1, x=1), Line(2, 9, r=1, x=1)]
    forest = build_forest(nodes, lines)
    assert h_inverse_entry(forest, "r", 1, 2) == 0.0


def test_entry_requires_load(chain4):
    with pytest.raises(UnknownNode):
        h_inverse_entry(chain4, "r", 0, 1)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["r", "x"])
def test_entry_matches_dense_oracle(seed, kind):
    forest, _ = random_feeder(seed)
    oracle = dense_path_matrix(forest, kind)
    pos = {i: k for k, i in enumerate(forest.load_ids)}
    for a in forest.load_ids:
        for b in forest.load_ids:
            got = h_inverse_entry(forest, kind, a, b)
            want = oracle[pos[a], pos[b]]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_h_inverse_matrix_matches_entries(chain4):
    # the sweep-built matrix adds the same weights in the same root-to-leaf
    # order as the path walk, so its real and imaginary parts equal the "r"
    # and "x" path sums exactly; the forest's matrix is that sweep's
    deep = synth_layout(FeederSpec(n_loads=300, chain_bias=1.0, max_children=1), 5)
    bushy = synth_layout(FeederSpec(n_loads=120, n_trees=4, extra_lines=30), 6)
    assert max(depths(deep).values()) == 300
    for forest in (chain4, deep, bushy):
        tz = dense_path_inverse(forest)
        assert forest.h_inverse_matrix("z").tobytes() == tz.tobytes()
        for part, kind in ((tz.real, "r"), (tz.imag, "x")):
            for a in forest.load_ids:
                for b in forest.load_ids:
                    got = part[forest.load_index(a), forest.load_index(b)]
                    assert got == h_inverse_entry(forest, kind, a, b)
    with pytest.raises(ValueError, match="kind 'r'"):
        chain4.h_inverse_matrix("r")


def test_the_forest_keeps_no_matrix():
    # the dense T_z is the caller's: once it is dropped, its N^2 * 16 bytes
    # are freed, and the forest holds nothing it was built from
    forest = synth_layout(FeederSpec(n_loads=300, n_trees=3, extra_lines=20), 1)
    size = forest.n_loads**2 * 16
    attrs = dict(vars(forest))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert dense_path_inverse(forest).nbytes == size
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= size / 10, kept / size
    assert vars(forest).keys() == attrs.keys()
    assert all(vars(forest)[k] is v for k, v in attrs.items())  # none set anew


# -- row differences --------------------------------------------------------------


def test_diff_chain(chain4):
    def diff(a, b, c):
        return h_inverse_entry(chain4, "r", a, c) - h_inverse_entry(chain4, "r", b, c)

    # c = 3 descends from 2, so the row difference is the (2, 1) edge weight
    assert diff(2, 1, 3) == pytest.approx(2.0)
    # c = 1 is not a descendant of 2
    assert diff(2, 1, 1) == 0.0
    # a leaf includes itself in its descendant set
    assert diff(3, 2, 3) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(8))
def test_diff_is_entry_difference(seed):
    # a node's path-sum row minus its parent's is the edge weight on the
    # node's descendants and zero elsewhere
    forest, _ = random_feeder(seed, n_range=(2, 25))
    for a in forest.load_ids:
        b = forest.parent[a]
        if forest.is_slack(b):
            continue
        w = forest.edge_params[a][0]
        desc = descendant_set(forest, a)
        for c in forest.load_ids:
            got = h_inverse_entry(forest, "r", a, c) - h_inverse_entry(forest, "r", b, c)
            assert got == pytest.approx(w if c in desc else 0.0, abs=1e-12)


# -- descendant sets ---------------------------------------------------------------------


def test_descendants_examples(chain4, branch_layout):
    assert descendant_set(chain4, 3) == {3}
    assert descendant_set(chain4, 1) == {1, 2, 3}
    # in the branch layout, b (=4) holds itself and a (=1)
    assert descendant_set(branch_layout, 4) == {4, 1}


def test_sibling_descendants_disjoint(branch_layout):
    assert descendant_set(branch_layout, 4) & descendant_set(branch_layout, 3) == set()


@pytest.mark.parametrize("seed", range(8))
def test_path_set_invariants(seed):
    forest, _ = random_feeder(seed, n_range=(2, 30))
    desc = lambda a: descendant_set(forest, a)
    for a in forest.load_ids:
        assert a in desc(a)
        p = forest.parent[a]
        if forest.is_load(p):
            assert desc(a) < desc(p)
        sibs = [c for c in children_map(forest)[p] if c != a]
        for s in sibs:
            assert desc(a) & desc(s) == set()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_descendant_sets_partition_each_tree(seed):
    forest, _ = random_feeder(seed, n_range=(2, 20))
    for slack in forest.slack_ids:
        tops = children_map(forest)[slack]
        union = set()
        for t in tops:
            d = descendant_set(forest, t)
            assert union & d == set()
            union |= d
        assert union == {a for a in forest.load_ids if root_of(forest, a) == slack}


@pytest.mark.parametrize("seed", range(4))
def test_incidence_assembles_laplacian(seed):
    # M^T W M from the directed incidence is the oracle Laplacian, and the
    # local inverse applies it edge by edge
    forest, _ = random_feeder(seed, n_range=(3, 20))
    m = np.zeros((forest.n_loads, forest.n_loads))
    for e, a in enumerate(forest.topo_order):
        m[e, forest.load_index(a)] = 1.0
        if forest.is_load(forest.parent[a]):
            m[e, forest.load_index(forest.parent[a])] = -1.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=forest.n_loads) + 1j * rng.normal(size=forest.n_loads)
    z = np.array([complex(*forest.edge_params[a]) for a in forest.topo_order])
    for kind, w in (("r", 1.0 / z.real), ("x", 1.0 / z.imag), ("z", 1.0 / z)):
        lap = m.T @ (w[:, None] * m)
        np.testing.assert_allclose(lap, reduced_laplacian(forest, kind), atol=1e-12)
    np.testing.assert_allclose(apply_local_inverse(forest, v), lap @ v, atol=1e-10)
    np.testing.assert_allclose(apply_local_inverse(forest, v.real), lap @ v.real, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_local_inverse_undoes_two_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    spec = FeederSpec(n_loads=n, n_trees=int(rng.integers(2, 6)), extra_lines=5)
    forest = synth_layout(spec, seed)
    hz = reduced_laplacian(forest, "z")
    for u in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        back = apply_local_inverse(forest, apply_path_inverse(forest, u))
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-12)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = apply_local_inverse(forest, v)
    np.testing.assert_allclose(got, hz @ v, rtol=1e-12, atol=1e-12 * np.abs(got).max())


def test_local_inverse_dimension_mismatch(chain4):
    with pytest.raises(DimensionMismatch):
        apply_local_inverse(chain4, np.zeros(4))


def test_tree_distance(branch_layout):
    f = branch_layout
    assert f.tree_distance(1, 3) == 3  # a - b - e - d
    assert f.tree_distance(4, 3) == 2
    assert f.tree_distance(1, 1) == 0


def test_tree_distance_counts_the_hops():
    # the parent walk agrees with a breadth-first search of the lines on
    # every pair: a == b, pairs that meet below or at the slack, and pairs
    # across trees
    kinds = set()
    for seed in range(12):
        forest, _ = random_feeder(seed, n_range=(2, 30))
        for a in forest.load_ids:
            for b in forest.load_ids:
                want = hop_count(forest, a, b)
                assert forest.tree_distance(a, b) == want, (seed, a, b)
                kinds.add("same" if a == b else "across" if want == math.inf else "within")
    assert kinds == {"same", "within", "across"}


def test_substation_children(branch_layout):
    assert branch_layout.substation_children() == {0: (5,)}


@pytest.mark.parametrize("seed", range(12))
def test_substation_children_are_the_far_ends_of_the_slacks_lines(seed):
    # in the order of the line list, which the breadth-first build follows
    forest, _ = random_feeder(seed)
    want = {
        s: tuple(
            ln.b if ln.a == s else ln.a
            for ln in forest.lines
            if ln.status == "operational" and s in (ln.a, ln.b)
        )
        for s in forest.slack_ids
    }
    assert forest.substation_children() == want
    assert want == {s: children_map(forest)[s] for s in forest.slack_ids}
