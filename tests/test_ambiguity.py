"""Ambiguity discovery and contrast-loss tests.

Embeddings with prescribed cosine similarities are built from unit vectors
so pool membership and loss values can be computed by hand. The randomized
loss check re-derives every pair term with the scalar softplus.
"""

import os
import sys
import threading

import numpy as np
import pytest
import scipy.stats

import disamgnn as d
from disamgnn import tensor as T
from oracles import contrast_groups, neighbor_pools, similarity, softplus

LN2 = np.log(2.0)


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def vector_at_cosine(c):
    """Unit 2-D vector whose cosine with [1, 0] is exactly c."""
    return np.array([c, np.sqrt(max(0.0, 1.0 - c * c))])


def star_graph(num_leaves, feat_dim=2):
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    n = num_leaves + 1
    return d.build_graph(edges, np.zeros((n, feat_dim)),
                         np.zeros(n, dtype=np.int64), 2)


def random_graph(rng, n=40, num_classes=3, p=0.12, feat_dim=4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return d.build_graph(edges, rng.normal(size=(n, feat_dim)),
                         rng.integers(0, num_classes, size=n), num_classes)


# ---------------------------------------------------------------------------
# memory updates


def test_first_update_copies_predictions():
    state = d.AmbiguityState.create(2, 2)
    probs = np.array([[0.9, 0.1], [0.3, 0.7]])
    d.update_memory(state, probs, memory_decay=0.5)
    assert np.array_equal(state.memory, probs)
    assert state.initialized


def test_update_decay_endpoints():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    state = d.AmbiguityState.create(1, 2)
    d.update_memory(state, a, 0.0)
    d.update_memory(state, b, 0.0)  # decay 0 forgets everything
    assert np.array_equal(state.memory, b)
    state = d.AmbiguityState.create(1, 2)
    d.update_memory(state, a, 1.0)
    d.update_memory(state, b, 1.0)  # decay 1 never moves
    assert np.array_equal(state.memory, a)


def test_update_half_decay_blends_equally():
    state = d.AmbiguityState.create(1, 2)
    d.update_memory(state, np.array([[1.0, 0.0]]), 0.5)
    d.update_memory(state, np.array([[0.0, 1.0]]), 0.5)
    assert np.allclose(state.memory, [[0.5, 0.5]], atol=1e-15)


def test_update_memory_validation():
    state = d.AmbiguityState.create(2, 3)
    good = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError):
        d.update_memory(state, good, memory_decay=1.5)
    with pytest.raises(ValueError):
        d.update_memory(state, np.full((3, 3), 1 / 3), 0.5)
    with pytest.raises(ValueError):
        d.update_memory(state, np.array([[0.5, 0.5, 0.5]] * 2), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_update_memory_rejects_non_finite_rows(bad):
    # a NaN row sums to NaN, which no tolerance comparison catches
    state = d.AmbiguityState.create(2, 2)
    d.update_memory(state, np.array([[0.5, 0.5], [0.25, 0.75]]), 0.5)
    before = state.memory.copy()
    with pytest.raises(ValueError, match="finite probability vectors"):
        d.update_memory(state, np.array([[bad, bad], [0.5, 0.5]]), 0.5)
    assert np.array_equal(state.memory, before)


def test_memory_rows_stay_probability_vectors():
    rng = np.random.default_rng(13)
    state = d.AmbiguityState.create(6, 4)
    for step in range(50):
        logits = rng.normal(scale=4, size=(6, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        d.update_memory(state, probs, memory_decay=rng.random())
        assert np.all(state.memory >= -1e-12)
        assert np.allclose(state.memory.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# scores and selection


def test_score_endpoints():
    mem = np.array([[0.25, 0.25, 0.25, 0.25],
                    [1.0, 0.0, 0.0, 0.0]])
    scores = d.ambiguity_scores(mem)
    assert scores[0] == 1.0
    assert scores[1] == 0.0


def test_score_frozen_intermediate_value():
    # entropy of (1/2, 1/4, 1/4) is 1.5*ln2; normalized by ln3
    scores = d.ambiguity_scores(np.array([[0.5, 0.25, 0.25]]))
    expected = 1.5 * LN2 / np.log(3.0)
    assert scores[0] == pytest.approx(expected, abs=1e-12)
    assert scores[0] == pytest.approx(0.946395, abs=1e-6)


def test_scores_invariant_under_class_permutation():
    rng = np.random.default_rng(21)
    for rep in range(20):
        logits = rng.normal(size=(5, 4))
        mem = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        perm = rng.permutation(4)
        assert np.allclose(d.ambiguity_scores(mem),
                           d.ambiguity_scores(mem[:, perm]), atol=1e-12)


def test_scores_order_by_concentration():
    # a distribution closer to uniform must score strictly higher
    pairs = [((0.6, 0.4), (0.9, 0.1)),
             ((0.5, 0.3, 0.2), (0.8, 0.15, 0.05)),
             ((0.4, 0.3, 0.3), (0.7, 0.2, 0.1))]
    for flat, sharp in pairs:
        s = d.ambiguity_scores(np.array([flat, sharp]))
        assert s[0] > s[1]


def test_scores_validation():
    with pytest.raises(ValueError):
        d.ambiguity_scores(np.array([[1.0]]))
    with pytest.raises(ValueError):
        d.ambiguity_scores(np.array([0.5, 0.5]))


def test_select_ambiguous_is_strict():
    scores = np.array([0.2, 0.8, 0.80001, 1.0, 0.0])
    assert d.select_ambiguous(scores, 0.8).tolist() == [2, 3]
    assert d.select_ambiguous(np.zeros(4), 0.0).size == 0
    assert d.select_ambiguous(np.ones(4), 1.0).size == 0


def test_select_ambiguous_matches_linear_scan():
    rng = np.random.default_rng(33)
    for rep in range(30):
        scores = rng.random(50)
        thr = rng.random()
        got = d.select_ambiguous(scores, thr)
        expected = [i for i in range(50) if scores[i] > thr]
        assert got.tolist() == expected
        assert got.dtype == np.int64


# ---------------------------------------------------------------------------
# similarity


def test_similarity_reference_points():
    assert similarity([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert similarity([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0, abs=1e-12)
    assert similarity([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)
    assert similarity([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_similarity_matches_naive_cosine():
    rng = np.random.default_rng(44)
    for rep in range(30):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert similarity(u, v) == pytest.approx(expected, abs=1e-12)
        # invariant to positive rescaling of either argument
        assert similarity(3.0 * u, 0.25 * v) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# neighbor pools


def node_pools(emb, g, v, rng=None, **cfg):
    """Pools that ``build_contrast_groups`` gives node v when it is the only node."""
    rng = np.random.default_rng(0) if rng is None else rng
    groups = d.build_contrast_groups(emb, g, [v], d.DisamConfig(**cfg), rng)
    return groups.pools[v]


def test_single_similar_neighbor_is_positive():
    g = star_graph(1)
    emb = np.array([[1.0, 0.0], vector_at_cosine(0.9)])
    pools = node_pools(emb, g, 0)
    assert pools.pos.tolist() == [1]
    assert pools.neg.size == 0


def test_three_band_neighbors_split_as_documented():
    # neighbor sims 1.0, 0.5, 0.2 with max 1.0: only the 1.0 neighbor is
    # positive, only the 0.2 one negative, the middle neighbor is neither
    g = star_graph(3)
    emb = np.array([[1.0, 0.0], vector_at_cosine(1.0),
                    vector_at_cosine(0.5), vector_at_cosine(0.2)])
    pools = node_pools(emb, g, 0)
    assert pools.pos.tolist() == [1]
    assert pools.neg.tolist() == [3]


def test_all_dissimilar_neighbors_fall_in_negative_pool():
    g = star_graph(2)
    emb = np.array([[1.0, 0.0], vector_at_cosine(-1.0), vector_at_cosine(-0.5)])
    pools = node_pools(emb, g, 0)
    assert pools.pos.size == 0
    assert sorted(pools.neg.tolist()) == [1, 2]


def test_build_groups_matches_direct_definition():
    rng = np.random.default_rng(55)
    for rep in range(5):
        g = random_graph(rng, n=40)
        emb = rng.normal(size=(40, 4))
        zn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        for v in range(g.num_nodes):
            nbr = g.neighbors(v)
            if nbr.size == 0:
                continue
            pools = node_pools(emb, g, v)
            sims = zn[nbr] @ zn[v]
            m = sims.max()
            exp_pos = nbr[sims > 0.75 * m] if m > 0 else np.empty(0, int)
            exp_neg = nbr[sims <= 0.4 * m]
            assert pools.pos.tolist() == exp_pos.tolist(), f"pos pool of node {v}"
            assert pools.neg.tolist() == exp_neg.tolist(), f"neg pool of node {v}"


def test_build_groups_invariant_under_positive_rescaling():
    rng = np.random.default_rng(66)
    for rep in range(10):
        g = random_graph(rng, n=20)
        emb = rng.normal(size=(20, 3))
        scales = rng.uniform(0.1, 10.0, size=(20, 1))
        for v in range(g.num_nodes):
            if g.neighbors(v).size == 0:
                continue
            base = node_pools(emb, g, v)
            for scaled in (7.3 * emb, scales * emb):
                other = node_pools(scaled, g, v)
                assert base.pos.tolist() == other.pos.tolist()
                assert base.neg.tolist() == other.neg.tolist()


# ---------------------------------------------------------------------------
# auxiliary positives


def aux_test_graph():
    """Node 0 linked only to node 1; nodes 2.. are similar non-neighbors."""
    n = 22
    emb = np.zeros((n, 2))
    emb[0] = [1.0, 0.0]
    emb[1] = [1.0, 0.0]
    for i in range(2, n):
        emb[i] = vector_at_cosine(0.9)
    g = d.build_graph([(0, 1)], np.zeros((n, 2)), np.zeros(n, dtype=np.int64), 2)
    return g, emb


def test_aux_threshold_above_one_yields_nothing():
    g, emb = aux_test_graph()
    out = node_pools(emb, g, 0, aux_similarity_min=1.01).aux_pos
    assert out.size == 0


def test_aux_returns_all_candidates_when_fewer_than_count():
    g, emb = aux_test_graph()
    emb[5:] = [0.0, 1.0]  # leave only nodes 2, 3, 4 similar
    out = node_pools(emb, g, 0, aux_samples=8).aux_pos
    assert out.tolist() == [2, 3, 4]


def test_aux_excludes_self_and_neighbors():
    g, emb = aux_test_graph()
    for seed in range(5):
        out = node_pools(emb, g, 0, np.random.default_rng(seed), aux_samples=8).aux_pos
        assert out.size == 8
        assert 0 not in out
        assert 1 not in out
        assert np.all(np.diff(out) > 0)


def test_aux_sampling_deterministic_under_seed():
    g, emb = aux_test_graph()
    a = node_pools(emb, g, 0, np.random.default_rng(7), aux_samples=5).aux_pos
    b = node_pools(emb, g, 0, np.random.default_rng(7), aux_samples=5).aux_pos
    assert a.tolist() == b.tolist()


def test_aux_sampling_is_uniform_chi_square():
    g, emb = aux_test_graph()
    rng = np.random.default_rng(101)
    counts = np.zeros(g.num_nodes)
    draws = 10_000
    for _ in range(draws):
        pick = node_pools(emb, g, 0, rng, aux_samples=1).aux_pos
        counts[pick[0]] += 1
    cells = counts[2:]  # the 20 eligible candidates
    assert cells.sum() == draws
    expected = draws / cells.size
    stat = np.sum((cells - expected) ** 2 / expected)
    cutoff = scipy.stats.chi2.ppf(0.999, df=cells.size - 1)
    assert stat < cutoff, f"chi-square {stat:.1f} exceeds {cutoff:.1f}"


def per_row_choice(cands, k, rng):
    """Auxiliary draws as a per-node loop makes them: numpy's choice, one row at a time."""
    return [np.sort(rng.choice(c, size=k, replace=False)) if c.size > k else c for c in cands]


# Candidate counts around numpy's switch from Floyd's rule to a tail shuffle,
# which takes rows of more than 10,000 candidates when k > count // 50.
TAIL_EDGE = [10_000, 10_001, 10_049, 10_050]


@pytest.mark.parametrize("k", [0, 1, 8, 200, 201, 300])
def test_batched_aux_draws_equal_per_row_choice(k):
    gen = np.random.default_rng(1000 + k)
    for rep in range(12):
        counts = (2.0 ** gen.uniform(0, 20, size=gen.integers(1, 10))).astype(np.int64)
        counts[gen.random(counts.size) < 0.2] = 0
        if k == 201:
            counts = gen.permutation(np.concatenate((counts, TAIL_EDGE)))
        cands = [int(gen.integers(0, 50)) + 3 * np.arange(c) for c in counts]
        ours, ref = np.random.default_rng(rep), np.random.default_rng(rep)
        picks = d.ambiguity._aux_picks(counts, k, ours)
        expected = per_row_choice(cands, k, ref)
        for c, p, want in zip(cands, picks, expected, strict=True):
            assert c[p].dtype == np.int64 and np.array_equal(c[p], want), (c.size, k)
        assert ours.bit_generator.state == ref.bit_generator.state
        if k == 0:
            assert all(c[p].size == 0 for c, p in zip(cands, picks))
            assert ours.bit_generator.state == np.random.default_rng(rep).bit_generator.state


# ---------------------------------------------------------------------------
# contrast loss


def groups_for(v, pos=(), neg=(), aux=()):
    return contrast_groups({v: (pos, neg, aux)})


def test_loss_orthogonal_pairs_is_two_ln_two():
    emb = T.Tensor(np.eye(3))
    groups = groups_for(0, pos=[1], neg=[2])
    loss = d.jsd_contrast_loss(emb, groups)
    assert loss.item() == pytest.approx(2 * LN2, abs=1e-12)
    assert loss.item() == pytest.approx(1.386294, abs=1e-6)


def test_loss_aligned_positive_opposed_negative():
    emb = T.Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
    groups = groups_for(0, pos=[1], neg=[2])
    loss = d.jsd_contrast_loss(emb, groups)
    expected = 2 * np.log1p(np.exp(-1.0))
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.626523, abs=1e-6)


def test_loss_empty_groups_is_zero():
    emb = T.Tensor(np.eye(2), requires_grad=True)
    loss = d.jsd_contrast_loss(emb, contrast_groups({}))
    assert loss.item() == 0.0
    assert not loss.requires_grad


def test_loss_pools_positives_with_aux_and_averages():
    # one neighbor positive at cos a and one aux positive at cos b pool
    # together: loss = (softplus(-a) + softplus(-b)) / 2
    a, b = 0.8, 0.3
    emb = T.Tensor(np.array([[1.0, 0.0], vector_at_cosine(a),
                             vector_at_cosine(b)]))
    groups = groups_for(0, pos=[1], aux=[2])
    loss = d.jsd_contrast_loss(emb, groups)
    expected = 0.5 * (softplus(-a) + softplus(-b))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_loss_sums_over_selected_nodes():
    emb = T.Tensor(np.eye(4))
    single = d.jsd_contrast_loss(emb, groups_for(0, pos=[1], neg=[2]))
    both = contrast_groups({0: ([1], [2], []), 3: ([1], [2], [])})
    double = d.jsd_contrast_loss(emb, both)
    assert double.item() == pytest.approx(2 * single.item(), abs=1e-12)


def test_loss_matches_per_pair_oracle():
    rng = np.random.default_rng(77)
    for rep in range(5):
        g = random_graph(rng, n=20)
        emb = rng.normal(size=(20, 4))
        cfg = d.DisamConfig(aux_samples=3)
        nodes = rng.choice(20, size=6, replace=False)
        groups = d.build_contrast_groups(emb, g, nodes, cfg,
                                         np.random.default_rng(rep))
        expected = 0.0
        for v, pools in groups.pools.items():
            pos_pool = np.concatenate([pools.pos, pools.aux_pos])
            if pos_pool.size:
                expected += np.mean([softplus(-similarity(emb[v], emb[u]))
                                     for u in pos_pool])
            if pools.neg.size:
                expected += np.mean([softplus(similarity(emb[v], emb[u]))
                                     for u in pools.neg])
        loss = d.jsd_contrast_loss(T.Tensor(emb), groups)
        assert loss.item() == pytest.approx(expected, abs=1e-10)


def composed_contrast_loss(emb, groups):
    """The contrast loss and its gradient, composed in closed form in numpy.

    Forward: sum over pairs of w * softplus(s * <z_l, z_r>), with z the
    row-L2-normalized embeddings (zero rows stay zero).
    Backward: each pair sends w * s * sigmoid(s * sim) times the other
    endpoint's row to both endpoints, then the row normalization's Jacobian
    (I - z z^T) / |x| maps that back onto the raw rows.
    """
    left, right, signs, weights = [], [], [], []
    for v in sorted(groups.pools):
        pools = groups.pools[v]
        for pool, sign in ((np.concatenate([pools.pos, pools.aux_pos]), -1.0),
                           (pools.neg, 1.0)):
            for u in pool:
                left.append(v)
                right.append(int(u))
                signs.append(sign)
                weights.append(1.0 / pool.size)
    left, right = np.array(left), np.array(right)
    signs, weights = np.array(signs), np.array(weights)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    z = emb / safe
    signed = signs * np.einsum("ij,ij->i", z[left], z[right])
    loss = np.sum(weights * np.logaddexp(0.0, signed))
    coef = (weights * signs / (1.0 + np.exp(-signed)))[:, None]
    grad_z = np.zeros_like(emb)
    np.add.at(grad_z, left, coef * z[right])
    np.add.at(grad_z, right, coef * z[left])
    radial = np.sum(grad_z * z, axis=1, keepdims=True)
    return loss, np.where(norms > 0, (grad_z - z * radial) / safe, 0.0)


def test_fused_loss_matches_composed_ops():
    rng = np.random.default_rng(99)
    for rep in range(6):
        g = random_graph(rng, n=30)
        emb = rng.normal(size=(30, 5))
        emb[rng.integers(0, 30)] = 0.0
        cfg = d.DisamConfig(aux_samples=3, aux_similarity_min=0.3)
        nodes = rng.choice(30, size=12, replace=False)
        groups = d.build_contrast_groups(emb, g, nodes, cfg, np.random.default_rng(rep))
        assert groups.pairs().left.size > 0
        x = T.Tensor(emb.copy(), requires_grad=True)
        fused = d.jsd_contrast_loss(x, groups)
        T.backward(fused)
        loss, grad = composed_contrast_loss(emb, groups)
        assert abs(fused.item() - loss) < 1e-12
        assert np.max(np.abs(x.grad - grad)) < 1e-10


def test_pairs_follow_anchor_then_pool_order():
    groups = contrast_groups({3: ([5], [0, 1], [7]), 1: ([], [2], [])})
    plan = groups.pairs()
    assert plan.left.tolist() == [1, 3, 3, 3, 3]
    assert plan.right.tolist() == [2, 5, 7, 0, 1]
    assert plan.signs.tolist() == [1.0, -1.0, -1.0, 1.0, 1.0]
    assert plan.weights.tolist() == [1.0, 0.5, 0.5, 0.5, 0.5]
    assert groups.pairs() is groups.pairs()


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(88)
    g = random_graph(rng, n=12)
    emb = T.Tensor(rng.normal(size=(12, 3)), requires_grad=True)
    cfg = d.DisamConfig(aux_samples=2)
    groups = d.build_contrast_groups(emb.values, g, np.arange(12), cfg,
                                     np.random.default_rng(1))
    assert len(groups) > 0
    loss = d.jsd_contrast_loss(emb, groups)
    T.backward(loss)
    h = 1e-5
    for i in range(12):
        for j in range(3):
            orig = emb.values[i, j]
            emb.values[i, j] = orig + h
            up = d.jsd_contrast_loss(emb, groups).item()
            emb.values[i, j] = orig - h
            dn = d.jsd_contrast_loss(emb, groups).item()
            emb.values[i, j] = orig
            fd = (up - dn) / (2 * h)
            a = emb.grad[i, j]
            rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-8)
            assert rel < 1e-4, f"entry ({i},{j}): {a} vs {fd}"


def test_loss_monotone_in_pair_similarity():
    # pulling a positive closer lowers the loss; pushing a negative closer
    # raises it
    def loss_at(pos_cos, neg_cos):
        emb = T.Tensor(np.array([[1.0, 0.0], vector_at_cosine(pos_cos),
                                 vector_at_cosine(neg_cos)]))
        return d.jsd_contrast_loss(emb, groups_for(0, pos=[1], neg=[2])).item()

    assert loss_at(0.9, -0.5) < loss_at(0.5, -0.5)
    assert loss_at(0.9, 0.2) > loss_at(0.9, -0.3)


# ---------------------------------------------------------------------------
# group construction invariants


def planted_cut_graph(rng, dim=64):
    """Stars whose centers have a neighbor on a pool cut, plus a random graph.

    Center 0's neighbors sit at cosines 0.9, 0.75*0.9 and 0.2, so one lies
    on the positive cut of the default pos_ratio; center 4's at 0.9, 0.5 and
    0.4*0.9, one on the negative cut; center 8's neighbors are orthogonal to
    it, so its best similarity m is 0 up to rounding. Each neighbor is
    a*e + sqrt(1 - a^2)*f in a random orthonormal frame, so every coordinate
    is nonzero and the computed cosines land within a few ulps of a. Nodes
    12..41 form a random graph with random embeddings.
    """
    frame = np.linalg.qr(rng.normal(size=(dim, dim)))[0].T
    emb = np.zeros((42, dim))
    edges = []
    for center, cosines in [(0, (0.9, 0.75 * 0.9, 0.2)), (4, (0.9, 0.5, 0.4 * 0.9)),
                            (8, (0.0, 0.0, 0.0))]:
        emb[center] = frame[center]
        for k, a in enumerate(cosines, start=1):
            emb[center + k] = a * frame[center] + np.sqrt(1 - a * a) * frame[center + k]
            edges.append((center, center + k))
    edges += [(u, v) for u in range(12, 42) for v in range(u + 1, 42) if rng.random() < 0.15]
    emb[12:] = rng.normal(size=(30, dim))
    g = d.build_graph(edges, np.zeros((42, 2)), np.zeros(42, dtype=np.int64), 2)
    return g, emb


def test_build_contrast_groups_invariants():
    rng = np.random.default_rng(99)
    cases = [(random_graph(rng, n=25, p=0.1), rng.normal(size=(25, 3)),
              rng.choice(25, size=10, replace=False)) for _ in range(10)]
    cases.append((*planted_cut_graph(np.random.default_rng(8)), np.arange(42)))
    cfg = d.DisamConfig(aux_samples=4)
    for rep, (g, emb, nodes) in enumerate(cases):
        groups = d.build_contrast_groups(emb, g, nodes, cfg,
                                         np.random.default_rng(rep))
        for v, pools in groups.pools.items():
            nbrs = set(g.neighbors(v).tolist())
            assert len(nbrs) > 0, "isolated nodes must be skipped"
            pos, neg, aux = (set(pools.pos.tolist()), set(pools.neg.tolist()),
                             set(pools.aux_pos.tolist()))
            assert pos <= nbrs and neg <= nbrs
            assert not pos & neg
            assert not aux & (nbrs | {v})
            assert len(aux) <= cfg.aux_samples
        selected = set(int(v) for v in nodes if g.neighbors(int(v)).size > 0)
        assert set(groups.pools) == selected


def per_node_contrast_groups(emb, g, nodes, cfg, rng):
    """The pool builder as a per-node loop with a full similarity scan each."""
    zn = T.row_l2_normalize(T.Tensor(emb)).values
    pools = {}
    for v in np.asarray(nodes, dtype=np.int64).tolist():
        if g.neighbors(v).size == 0:
            continue
        pos, neg = neighbor_pools(zn, g, v, cfg.pos_ratio, cfg.neg_ratio)
        eligible = zn @ zn[v] >= cfg.aux_similarity_min
        eligible[v] = False
        eligible[g.neighbors(v)] = False
        cand = np.flatnonzero(eligible)
        if cand.size > cfg.aux_samples:
            cand = rng.choice(cand, size=cfg.aux_samples, replace=False)
        pools[v] = (pos, neg, np.sort(cand))
    return pools


@pytest.mark.parametrize("block_elems", [None, 1, 90])
def test_blocked_builder_matches_per_node_oracle(monkeypatch, block_elems):
    if block_elems is not None:  # 1 row, or 3 rows of 30 nodes, per block
        monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(123)
    cases = [dict(), dict(aux_similarity_min=1.5),  # no auxiliary candidates
             dict(aux_samples=0), dict(aux_samples=50, aux_similarity_min=0.2)]
    for kwargs in cases:
        cfg = d.DisamConfig(**{"aux_samples": 3, "aux_similarity_min": 0.3, **kwargs})
        for rep in range(4):
            # nodes 26..29 are isolated
            edges = [(u, v) for u in range(26) for v in range(u + 1, 26)
                     if rng.random() < 0.15]
            g = d.build_graph(edges, np.zeros((30, 2)), np.zeros(30, dtype=np.int64), 2)
            emb = rng.normal(size=(30, 3))
            emb[rng.integers(0, 26)] = 0.0
            nodes = rng.permutation(30)
            ours_rng, ref_rng = np.random.default_rng(rep), np.random.default_rng(rep)
            groups = d.build_contrast_groups(emb, g, nodes, cfg, ours_rng)
            expected = per_node_contrast_groups(emb, g, nodes, cfg, ref_rng)
            assert list(groups.pools) == list(expected)
            for v, (pos, neg, aux) in expected.items():
                pools = groups.pools[v]
                assert np.array_equal(pools.pos, pos), f"pos pool of node {v}"
                assert np.array_equal(pools.neg, neg), f"neg pool of node {v}"
                assert np.array_equal(pools.aux_pos, aux), f"aux pool of node {v}"
                assert pools.aux_pos.dtype == np.int64
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block_elems", [None, 1, 100, 250])
def test_blocked_builder_matches_per_node_oracle_at_d64(monkeypatch, block_elems):
    # At d=64 the blocked product and the per-node product differ in the
    # last bits, unlike at d=3.
    if block_elems is not None:  # 1, 2 or 5 rows of 50 nodes per block
        monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(2024)
    for kwargs in [dict(), dict(aux_samples=2, aux_similarity_min=0.1),
                   dict(aux_samples=40, aux_similarity_min=-0.05, pos_ratio=0.5, neg_ratio=0.1)]:
        cfg = d.DisamConfig(**kwargs)
        for rep in range(3):
            g = random_graph(rng, n=50, p=0.2, feat_dim=2)
            emb = rng.normal(size=(50, 64)) + rng.normal(size=64)  # correlated rows
            nodes = rng.permutation(50)[:40]
            ours_rng, ref_rng = np.random.default_rng(rep), np.random.default_rng(rep)
            groups = d.build_contrast_groups(emb, g, nodes, cfg, ours_rng)
            expected = per_node_contrast_groups(emb, g, nodes, cfg, ref_rng)
            assert list(groups.pools) == list(expected)
            for v, (pos, neg, aux) in expected.items():
                pools = groups.pools[v]
                assert np.array_equal(pools.pos, pos), f"pos pool of node {v}"
                assert np.array_equal(pools.neg, neg), f"neg pool of node {v}"
                assert np.array_equal(pools.aux_pos, aux), f"aux pool of node {v}"
                assert pools.pos.dtype == pools.neg.dtype == pools.aux_pos.dtype == np.int64
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


def correlated_case(seed, n=50):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, p=0.2, feat_dim=2)
    return g, rng.normal(size=(n, 16)) + rng.normal(size=16), rng.permutation(n)


def assert_same_pools(groups, expected):
    assert list(groups.pools) == list(expected)
    for v, (pos, neg, aux) in expected.items():
        pools = groups.pools[v]
        for got, want in ((pools.pos, pos), (pools.neg, neg), (pools.aux_pos, aux)):
            assert np.array_equal(got, want) and got.dtype == np.int64, f"pools of node {v}"


def two_cpus(monkeypatch):
    """Lets the refresh overlap its blocks, which it does only where it may use two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_refresh_of_many_blocks_with_a_short_last_block_matches_oracle(monkeypatch):
    monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", 7 * 50)  # 7 rows of 50 nodes
    two_cpus(monkeypatch)
    cfg = d.DisamConfig(aux_samples=3, aux_similarity_min=0.2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the worker and the draw loop trade the lock as often as they can
    try:
        for rep in range(6):
            g, emb, nodes = correlated_case(rep)
            selected = int((g.degrees()[nodes] > 0).sum())
            assert selected > 14 and selected % 7 != 0  # three blocks or more, the last one short
            ours_rng, ref_rng = np.random.default_rng(rep), np.random.default_rng(rep)
            groups = d.build_contrast_groups(emb, g, nodes, cfg, ours_rng)
            assert_same_pools(groups, per_node_contrast_groups(emb, g, nodes, cfg, ref_rng))
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
    finally:
        sys.setswitchinterval(interval)


class DrawFails:
    def integers(self, *args, **kwargs):
        raise RuntimeError("draw failed")


@pytest.mark.parametrize("block_elems", [None, 50])
def test_refresh_leaves_no_thread_running(monkeypatch, block_elems):
    if block_elems is not None:  # one row per block, so a block is always in flight
        monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", block_elems)
    two_cpus(monkeypatch)
    g, emb, nodes = correlated_case(4)
    cfg = d.DisamConfig(aux_samples=1, aux_similarity_min=-1.0)  # every node draws
    before = threading.active_count()
    d.build_contrast_groups(emb, g, nodes, cfg, np.random.default_rng(0))
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="draw failed"):
        d.build_contrast_groups(emb, g, nodes, cfg, DrawFails())
    assert threading.active_count() == before


@pytest.mark.parametrize("block_elems, threads", [(None, 0), (50, 1)], ids=["one-block", "many-blocks"])
def test_refresh_starts_a_worker_only_for_a_second_block(monkeypatch, block_elems, threads):
    if block_elems is not None:
        monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", block_elems)
    two_cpus(monkeypatch)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    g, emb, nodes = correlated_case(4)
    d.build_contrast_groups(emb, g, nodes, d.DisamConfig(), np.random.default_rng(0))
    assert len(started) == threads


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_refresh_on_one_cpu_starts_no_worker_and_draws_the_same(monkeypatch, affinity):
    monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", 7 * 50)  # 7 rows of 50 nodes per block
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    else:  # platforms without CPU affinity fall back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    cfg = d.DisamConfig(aux_samples=3, aux_similarity_min=0.2)
    g, emb, nodes = correlated_case(5)
    ours_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    groups = d.build_contrast_groups(emb, g, nodes, cfg, ours_rng)
    assert started == []
    assert_same_pools(groups, per_node_contrast_groups(emb, g, nodes, cfg, ref_rng))
    assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


def test_pools_keep_their_values_after_a_second_refresh(monkeypatch):
    monkeypatch.setattr(d.ambiguity, "_SCAN_BLOCK_ELEMS", 7 * 50)
    g, emb, nodes = correlated_case(5)
    cfg = d.DisamConfig(aux_samples=3, aux_similarity_min=0.2)
    first = d.build_contrast_groups(emb, g, nodes, cfg, np.random.default_rng(1))
    kept = {v: [a.copy() for a in (p.pos, p.neg, p.aux_pos)] for v, p in first.pools.items()}
    d.build_contrast_groups(-emb, g, nodes, cfg, np.random.default_rng(2))
    for v, p in first.pools.items():
        for got, want in zip((p.pos, p.neg, p.aux_pos), kept[v]):
            assert np.array_equal(got, want), f"pools of node {v}"


def refresh_case(seed=3):
    """A graph, embeddings and a state whose memory holds random probability rows."""
    g, emb, _ = correlated_case(seed)
    state = d.AmbiguityState.create(g.num_nodes, g.num_classes)
    state.memory[...] = np.random.default_rng(seed).dirichlet(np.ones(g.num_classes), g.num_nodes)
    return g, emb, state


def test_ambiguity_refresh_without_loss_weight_selects_but_draws_nothing():
    g, emb, state = refresh_case()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    cfg = d.DisamConfig(loss_weight=0.0, score_threshold=0.5)
    assert d.refresh(state, emb, g, cfg, rng) is None
    assert np.array_equal(state.scores, d.ambiguity_scores(state.memory))
    assert np.array_equal(state.ambiguous, d.select_ambiguous(state.scores, 0.5))
    assert state.ambiguous.size
    assert rng.bit_generator.state == before


def test_ambiguity_refresh_of_an_empty_selection_returns_none():
    g, emb, state = refresh_case()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert d.refresh(state, emb, g, d.DisamConfig(score_threshold=1.0), rng) is None
    assert state.ambiguous.size == 0 and state.scores.max() > 0
    assert rng.bit_generator.state == before


def test_ambiguity_refresh_builds_the_pools_of_its_selection():
    g, emb, state = refresh_case()
    cfg = d.DisamConfig(score_threshold=0.5, aux_samples=3, aux_similarity_min=0.2)
    ours_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    groups = d.refresh(state, emb, g, cfg, ours_rng)
    direct = d.build_contrast_groups(emb, g, state.ambiguous, cfg, ref_rng)
    assert len(groups) and any(p.aux_pos.size for p in direct.pools.values())
    assert_same_pools(groups, {v: (p.pos, p.neg, p.aux_pos) for v, p in direct.pools.items()})
    assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


def test_build_groups_rejects_out_of_range_nodes():
    g, emb = aux_test_graph()
    for nodes in ([-1], [0, g.num_nodes]):
        with pytest.raises(IndexError):
            d.build_contrast_groups(emb, g, nodes, d.DisamConfig(), np.random.default_rng(0))


def test_build_groups_rejects_non_integer_nodes():
    g, emb = aux_test_graph()
    for nodes in ([1.7], [0.0, 1.0], [True], [[0, 1]]):
        with pytest.raises(ValueError):
            d.build_contrast_groups(emb, g, nodes, d.DisamConfig(), np.random.default_rng(0))


def test_build_groups_rejects_repeated_nodes():
    g, emb = aux_test_graph()
    with pytest.raises(ValueError, match="repeat"):
        d.build_contrast_groups(emb, g, [0, 3, 0], d.DisamConfig(), np.random.default_rng(0))


def test_build_groups_rejects_embeddings_without_one_row_per_node():
    g, emb = aux_test_graph()
    for bad in (emb[:-1], emb[None], emb.ravel()):
        with pytest.raises(ValueError, match="embeddings"):
            d.build_contrast_groups(bad, g, [0], d.DisamConfig(), np.random.default_rng(0))


def test_build_groups_accepts_no_nodes():
    g, emb = aux_test_graph()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for nodes in ([], np.empty(0, dtype=np.int64)):
        assert len(d.build_contrast_groups(emb, g, nodes, d.DisamConfig(), rng)) == 0
    assert rng.bit_generator.state == before


def test_disam_config_validation():
    d.DisamConfig().validate()
    bad = [dict(memory_decay=1.2), dict(score_threshold=0.0),
           dict(pos_ratio=0.3, neg_ratio=0.4), dict(neg_ratio=0.0),
           dict(aux_samples=-1), dict(loss_weight=-0.1),
           dict(refresh_period=0), dict(warmup_epochs=-5)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            d.DisamConfig(**kwargs).validate()
