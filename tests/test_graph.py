"""Graph container and homophily tests.

The randomized checks compare the CSR construction and the homophily
routines against brute-force dense recomputations.
"""

import numpy as np
import pytest

import disamgnn as d
from oracles import node_homophily


def random_graph(rng, n=30, num_classes=3, p=0.15, feat_dim=4):
    """Erdos-Renyi style graph with random labels and features."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    features = rng.normal(size=(n, feat_dim))
    labels = rng.integers(0, num_classes, size=n)
    return d.build_graph(edges, features, labels, num_classes)


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u in range(g.num_nodes):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    return a


# ---------------------------------------------------------------------------
# construction


def test_single_edge_csr_layout():
    g = d.build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]), 2)
    assert g.csr_offsets.tolist() == [0, 1, 2]
    assert g.csr_targets.tolist() == [1, 0]
    assert g.num_edges == 1


def test_duplicates_and_self_loops_dropped():
    edges = [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]
    g = d.build_graph(edges, np.zeros((3, 1)), np.array([0, 1, 1]), 2)
    assert g.num_edges == 2
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [1]


def test_csr_matches_row_unique_reference():
    # reference: deduplicate (src, dst) rows with a row-wise unique
    rng = np.random.default_rng(11)
    for rep in range(20):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        if len(edges):
            edges = np.concatenate([edges, edges[::2], edges[::3, ::-1]])
        g = d.build_graph(edges, np.zeros((n, 1)), np.arange(n) % 2, 2)
        src = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
        dst = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
        keep = src != dst
        pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))])
        assert np.array_equal(g.csr_offsets, offsets)
        assert np.array_equal(g.csr_targets, pairs[:, 1])
        assert g.csr_targets.dtype == np.int64


def test_neighbor_lists_sorted_and_match_dense():
    rng = np.random.default_rng(7)
    for rep in range(10):
        g = random_graph(rng)
        a = dense_adjacency(g)
        assert np.array_equal(a, a.T)
        for u in range(g.num_nodes):
            nbrs = g.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)
            assert np.array_equal(np.flatnonzero(a[u]), nbrs)
        assert np.array_equal(g.degrees(), a.sum(axis=1).astype(np.int64))


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(11)
    for rep in range(20):
        g = random_graph(rng, n=int(rng.integers(2, 60)))
        assert int(g.degrees().sum()) == 2 * g.num_edges


def test_build_graph_rejects_bad_input():
    feats = np.zeros((3, 2))
    labels = np.array([0, 1, 0])
    with pytest.raises(ValueError):
        d.build_graph([(0, 3)], feats, labels, 2)
    with pytest.raises(ValueError):
        d.build_graph([(-1, 0)], feats, labels, 2)
    with pytest.raises(ValueError):
        d.build_graph([], feats, np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        d.build_graph([], feats, np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        d.build_graph([], feats, labels, 1)
    with pytest.raises(ValueError):
        d.build_graph([], np.array([[np.nan, 0.0]] * 3), labels, 2)


# ---------------------------------------------------------------------------
# homophily


def test_triangle_same_label_homophily_one():
    g = d.build_graph([(0, 1), (1, 2), (0, 2)], np.zeros((3, 1)),
                      np.array([0, 0, 0]), 2)
    assert d.node_homophily_vector(g).tolist() == [1.0, 1.0, 1.0]
    assert d.graph_homophily(g) == 1.0


def test_star_disagreeing_center_homophily_zero():
    edges = [(0, i) for i in range(1, 5)]
    labels = np.array([1, 0, 0, 0, 0])
    g = d.build_graph(edges, np.zeros((5, 1)), labels, 2)
    assert d.node_homophily_vector(g).tolist() == [0.0] * 5
    assert d.graph_homophily(g) == 0.0


def test_isolated_node_homophily_convention():
    g = d.build_graph([(0, 1)], np.zeros((3, 1)), np.array([0, 0, 1]), 2)
    vec = d.node_homophily_vector(g)
    assert vec[2] == 1.0
    assert node_homophily(g, 2) == 1.0
    # graph level averages over non-isolated nodes only
    assert d.graph_homophily(g) == 1.0


def test_graph_homophily_requires_an_edge():
    g = d.build_graph([], np.zeros((4, 1)), np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ValueError):
        d.graph_homophily(g)


def test_node_homophily_matches_brute_force():
    rng = np.random.default_rng(23)
    for rep in range(10):
        g = random_graph(rng, n=25, p=0.2)
        vec = d.node_homophily_vector(g)
        for u in range(g.num_nodes):
            nbrs = g.neighbors(u)
            if len(nbrs) == 0:
                expected = 1.0
            else:
                expected = float(np.mean(g.labels[nbrs] == g.labels[u]))
            assert vec[u] == pytest.approx(expected, abs=1e-15)
            assert node_homophily(g, u) == pytest.approx(expected, abs=1e-15)
            # the fraction times the degree is a whole number of edges
            if len(nbrs) > 0:
                assert vec[u] * len(nbrs) == pytest.approx(
                    round(vec[u] * len(nbrs)), abs=1e-9)


def test_homophily_invariant_under_label_permutation():
    rng = np.random.default_rng(31)
    for rep in range(10):
        g = random_graph(rng, n=20, num_classes=4)
        edges = [(int(u), int(v)) for u in range(g.num_nodes)
                 for v in g.neighbors(u) if u < v]
        perm = rng.permutation(4)
        g2 = d.build_graph(edges, g.features, perm[g.labels], 4)
        assert np.array_equal(d.node_homophily_vector(g),
                              d.node_homophily_vector(g2))


# ---------------------------------------------------------------------------
# split masks


def test_split_masks_validation():
    m = d.SplitMasks(train=np.array([0, 1]), val=np.array([2]),
                     test=np.array([3]))
    assert m.mask("train").tolist() == [0, 1]
    with pytest.raises(ValueError):
        m.mask("bogus")
    with pytest.raises(ValueError):
        d.SplitMasks(train=np.array([0, 0]), val=np.array([2]),
                     test=np.array([3]))
    with pytest.raises(ValueError):
        d.SplitMasks(train=np.array([0, 1]), val=np.array([1]),
                     test=np.array([3]))
    with pytest.raises(ValueError):
        d.SplitMasks(train=np.array([-1]), val=np.array([2]),
                     test=np.array([3]))


def _star():
    return d.build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], np.zeros((5, 2)),
                         np.array([0, 0, 1, 1, 0]), 2)


INDEX_TAKERS = {
    "SplitMasks": lambda ids: d.SplitMasks(train=ids, val=[3], test=[4]),
    "accuracy": lambda ids: d.accuracy([0, 1, 1], [0, 0, 1], ids),
    "cross_entropy_loss": lambda ids: d.cross_entropy_loss(
        d.Tensor(np.zeros((3, 2))), [0, 0, 1], ids),
    "group_report": lambda ids: d.group_report(
        d.strategy1_groups(_star()), np.zeros(5, int), np.zeros(5, int), np.zeros(5), ids),
    "build_contrast_groups": lambda ids: d.build_contrast_groups(
        np.eye(5), _star(), ids, d.DisamConfig(), np.random.default_rng(0)),
}


@pytest.mark.parametrize("take", INDEX_TAKERS.values(), ids=INDEX_TAKERS.keys())
def test_index_arrays_must_have_an_integer_dtype(take):
    # A boolean mask read as ids names nodes 1, 0, 1; float ids truncate.
    for ids in ([True, False, True], np.array([1.7, 2.2])):
        with pytest.raises(ValueError, match="integer node indices"):
            take(ids)
    take([0, 1, 2])


@pytest.mark.parametrize("take", INDEX_TAKERS.values(), ids=INDEX_TAKERS.keys())
def test_index_arrays_must_be_one_dimensional(take):
    with pytest.raises(ValueError, match="1-D"):
        take([[0, 1]])


# Node count per taker; SplitMasks has no graph to bound its ids by.
NODE_COUNTS = {"accuracy": 3, "cross_entropy_loss": 3, "group_report": 5, "build_contrast_groups": 5}


@pytest.mark.parametrize("name", [name for name in INDEX_TAKERS if name != "SplitMasks"])
def test_index_arrays_must_name_nodes_of_the_graph(name):
    # -1 would wrap around to the last node rather than fail
    n = NODE_COUNTS[name]
    for ids in ([-1], [n]):
        with pytest.raises(IndexError, match=rf"outside \[0, {n}\)"):
            INDEX_TAKERS[name](ids)


def test_an_empty_index_list_is_allowed_though_numpy_reads_it_as_float():
    assert d.SplitMasks(train=[], val=[3], test=[4]).train.dtype == np.int64
