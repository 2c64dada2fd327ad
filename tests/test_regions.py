"""Region grouping and per-group report tests.

The randomized checks re-derive every node's group assignment from the
documented rules and confirm that group-level counts and accuracies
recompose into the global numbers.
"""

import numpy as np
import pytest

import disamgnn as d
from disamgnn.regions import TIER_MAJORITY, TIER_MIDDLE, TIER_MINORITY


def random_graph(rng, n=60, num_classes=3, p=0.08):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    sizes = [n - n // 2 - n // 5, n // 2, n // 5]
    labels = np.repeat(np.arange(num_classes), sizes)
    rng.shuffle(labels)
    return d.build_graph(edges, rng.normal(size=(n, 3)), labels, num_classes)


def tie_and_isolated_graph():
    # classes 0 and 1 (10 nodes each) are Majority, class 2 (2 nodes) is
    # Minority. Node 0 has one Minority and one Majority neighbor of other
    # classes, a tied count; node 1 has two Minority neighbors and one
    # Majority one; nodes 2-9 and 12-19 are isolated.
    labels = np.repeat([0, 1, 2], [10, 10, 2])
    edges = [(0, 20), (0, 10), (1, 20), (1, 21), (1, 11)]
    return d.build_graph(edges, np.zeros((22, 2)), labels, 3)


# ---------------------------------------------------------------------------
# tiers


def test_tier_example_with_width_thirty():
    # counts 100/55/10 span 90, so bins are (10,40], (40,70], (70,100]
    labels = np.repeat([0, 1, 2], [100, 55, 10])
    tiers = d.class_size_tiers(labels, 3)
    assert tiers[2] == TIER_MINORITY
    assert tiers[1] == TIER_MIDDLE
    assert tiers[0] == TIER_MAJORITY


def test_tier_bins_are_upper_inclusive():
    # counts 100/40/10 give width 30 with edges at 40 and 70; a count
    # sitting exactly on an edge belongs to the lower tier
    labels = np.repeat([0, 1, 2], [100, 40, 10])
    tiers = d.class_size_tiers(labels, 3)
    assert tiers.tolist() == [TIER_MAJORITY, TIER_MINORITY, TIER_MINORITY]
    labels = np.repeat([0, 1, 2], [100, 70, 10])
    tiers = d.class_size_tiers(labels, 3)
    assert tiers.tolist() == [TIER_MAJORITY, TIER_MIDDLE, TIER_MINORITY]


def test_tier_zero_spread_is_all_majority():
    labels = np.repeat([0, 1, 2], [20, 20, 20])
    assert d.class_size_tiers(labels, 3).tolist() == [TIER_MAJORITY] * 3


def test_tier_validation():
    with pytest.raises(ValueError):
        d.class_size_tiers(np.array([], dtype=np.int64), 3)


# ---------------------------------------------------------------------------
# strategy 1


def test_strategy1_pure_neighborhood_is_same_class():
    # triangle of one class plus a contested node of another
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    labels = np.array([0, 0, 0, 1])
    g = d.build_graph(edges, np.zeros((4, 2)), labels, 2)
    groups = d.strategy1_groups(g)
    names = [groups.labels[i] for i in groups.group_ids]
    assert names[0].endswith("Same-class")
    assert names[3].endswith("Others") or names[3].endswith("Minor-class")
    assert groups.counts.sum() == 4
    assert len(groups.labels) == 9


def test_strategy1_matches_direct_rules():
    rng = np.random.default_rng(3)
    for g in [random_graph(rng) for _ in range(8)] + [tie_and_isolated_graph()]:
        cut = d.regions.HOMOPHILY_CUT
        groups = d.strategy1_groups(g)
        tiers = d.class_size_tiers(g.labels, g.num_classes)
        hom = d.node_homophily_vector(g)
        for v in range(g.num_nodes):
            tier = tiers[g.labels[v]]
            if hom[v] >= cut:
                sub = "Same-class"
            else:
                nbr_tiers = tiers[g.labels[g.neighbors(v)]]
                n_min = int(np.sum(nbr_tiers == TIER_MINORITY))
                n_mid = int(np.sum(nbr_tiers == TIER_MIDDLE))
                n_maj = int(np.sum(nbr_tiers == TIER_MAJORITY))
                if n_min > n_mid and n_min > n_maj:
                    sub = "Minor-class"
                else:
                    sub = "Others"
            expected = f"{d.regions.TIER_NAMES[tier]}/{sub}"
            assert groups.labels[groups.group_ids[v]] == expected, f"node {v}"
        assert groups.counts.sum() == g.num_nodes
        assert np.array_equal(groups.counts,
                              np.bincount(groups.group_ids, minlength=9))


# ---------------------------------------------------------------------------
# strategy 2


def test_strategy2_quadrants_and_isolated_bucket():
    # node 0: minority neighbor + low homophily; node 3: same-class
    # neighbors only; node 5 isolated
    edges = [(0, 1), (0, 2), (3, 4)]
    labels = np.array([0, 2, 1, 0, 0, 1])
    sizes = np.array([3, 2, 1])  # class 2 is the minority tier
    feats = np.zeros((6, 2))
    g = d.build_graph(edges, feats, labels, 3)
    groups = d.strategy2_groups(g)
    name = lambda v: groups.labels[groups.group_ids[v]]
    assert name(0) == "AdjMinority/LowHom"
    assert name(3) == "NotAdjMinority/HighHom"
    assert groups.group_ids[5] == -1
    assert groups.excluded_label == "Isolated"
    assert groups.excluded().tolist() == [5]


def test_strategy2_matches_direct_rules():
    rng = np.random.default_rng(7)
    for g in [random_graph(rng, p=0.05) for _ in range(8)] + [tie_and_isolated_graph()]:
        groups = d.strategy2_groups(g)
        tiers = d.class_size_tiers(g.labels, g.num_classes)
        hom = d.node_homophily_vector(g)
        for v in range(g.num_nodes):
            nbrs = g.neighbors(v)
            if nbrs.size == 0:
                assert groups.group_ids[v] == -1
                continue
            adjacent = bool(np.any(tiers[g.labels[nbrs]] == TIER_MINORITY))
            high = hom[v] >= 0.5
            expected = (f"{'AdjMinority' if adjacent else 'NotAdjMinority'}/"
                        f"{'HighHom' if high else 'LowHom'}")
            assert groups.labels[groups.group_ids[v]] == expected, f"node {v}"
        assert groups.counts.sum() + groups.excluded().size == g.num_nodes


def test_strategies_are_deterministic():
    rng = np.random.default_rng(9)
    g = random_graph(rng)
    a = d.strategy1_groups(g)
    b = d.strategy1_groups(g)
    assert np.array_equal(a.group_ids, b.group_ids)
    a2 = d.strategy2_groups(g)
    b2 = d.strategy2_groups(g)
    assert np.array_equal(a2.group_ids, b2.group_ids)


# ---------------------------------------------------------------------------
# group report


def one_group_partition(n):
    return d.NodeGroups(strategy=1, group_ids=np.zeros(n, dtype=np.int64),
                        labels=("All",), counts=np.array([n]))


def test_single_group_report_equals_global_metrics():
    rng = np.random.default_rng(15)
    n = 40
    preds = rng.integers(0, 3, size=n)
    labels = rng.integers(0, 3, size=n)
    scores = rng.random(n)
    mask = rng.choice(n, size=25, replace=False)
    rows = d.group_report(one_group_partition(n), preds, labels, scores, mask)
    assert len(rows) == 1
    assert rows[0]["count"] == 25
    assert rows[0]["accuracy"] == pytest.approx(
        d.accuracy(preds, labels, mask), abs=0)
    assert rows[0]["mean_ambiguity"] == pytest.approx(
        scores[mask].mean(), abs=1e-15)


def test_report_all_correct_and_all_wrong_groups():
    groups = d.NodeGroups(strategy=1,
                          group_ids=np.array([0, 0, 1, 1]),
                          labels=("good", "bad"), counts=np.array([2, 2]))
    labels = np.array([1, 1, 0, 0])
    preds = np.array([1, 1, 1, 1])
    rows = d.group_report(groups, preds, labels, np.zeros(4), np.arange(4))
    assert rows[0]["accuracy"] == 1.0
    assert rows[1]["accuracy"] == 0.0


def test_empty_group_row_has_nan_stats():
    groups = d.NodeGroups(strategy=1,
                          group_ids=np.zeros(3, dtype=np.int64),
                          labels=("used", "empty"), counts=np.array([3, 0]))
    rows = d.group_report(groups, np.zeros(3, int), np.zeros(3, int),
                          np.ones(3), np.arange(3))
    assert rows[1]["count"] == 0
    assert np.isnan(rows[1]["accuracy"])
    assert np.isnan(rows[1]["mean_ambiguity"])


def test_report_recomposes_to_global_accuracy():
    rng = np.random.default_rng(19)
    for rep in range(5):
        g = random_graph(rng)
        preds = rng.integers(0, 3, size=g.num_nodes)
        scores = rng.random(g.num_nodes)
        mask = rng.choice(g.num_nodes, size=40, replace=False)
        for groups in (d.strategy1_groups(g), d.strategy2_groups(g)):
            rows = d.group_report(groups, preds, g.labels, scores, mask)
            total = sum(r["count"] for r in rows)
            assert total == mask.size
            weighted = sum(r["count"] * r["accuracy"]
                           for r in rows if r["count"] > 0)
            assert weighted / total == pytest.approx(
                d.accuracy(preds, g.labels, mask), abs=1e-12)
            weighted_amb = sum(r["count"] * r["mean_ambiguity"]
                               for r in rows if r["count"] > 0)
            assert weighted_amb / total == pytest.approx(
                scores[mask].mean(), abs=1e-12)


def test_report_recomputation_per_group():
    rng = np.random.default_rng(21)
    g = random_graph(rng)
    preds = rng.integers(0, 3, size=g.num_nodes)
    scores = rng.random(g.num_nodes)
    mask = np.arange(g.num_nodes)
    groups = d.strategy2_groups(g)
    rows = d.group_report(groups, preds, g.labels, scores, mask)
    for gid, row in enumerate(rows[:4]):
        members = np.flatnonzero(groups.group_ids == gid)
        assert row["count"] == members.size
        if members.size:
            assert row["accuracy"] == pytest.approx(
                np.mean(preds[members] == g.labels[members]), abs=0)
            assert row["mean_ambiguity"] == pytest.approx(
                scores[members].mean(), abs=1e-15)
