"""Metric tests against brute-force oracles.

The AUROC oracle walks every positive/negative pair (ties count half),
which the midrank implementation must reproduce exactly. Accuracy and F1
get recomputed from independently tallied confusion counts.
"""

import numpy as np
import pytest
import scipy.stats

import disamgnn as d


def pairwise_auroc(scores, is_pos):
    """O(n^2) pair-counting AUROC used as the reference."""
    pos = scores[is_pos]
    neg = scores[~is_pos]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def naive_confusion(preds, labels, mask, c):
    cm = np.zeros((c, c), dtype=np.int64)
    for v in mask:
        cm[labels[v], preds[v]] += 1
    return cm


def f1_from_confusion(cm):
    c = cm.shape[0]
    out = np.zeros(c)
    for k in range(c):
        tp = cm[k, k]
        fp = cm[:, k].sum() - tp
        fn = cm[k, :].sum() - tp
        if 2 * tp + fp + fn > 0:
            out[k] = 2 * tp / (2 * tp + fp + fn)
    return out


# ---------------------------------------------------------------------------
# fixed examples


def test_all_correct_predictor():
    labels = np.array([0, 1, 2, 0, 1])
    mask = np.arange(5)
    assert d.accuracy(labels, labels, mask) == 1.0
    assert d.macro_f1(labels, labels, mask, 3) == 1.0


def test_constant_predictor_on_balanced_binary():
    # predicting class 0 always: accuracy 1/2; F1 is 2/3 for class 0 and 0
    # for class 1, so the macro average is 1/3
    labels = np.array([0, 0, 1, 1])
    preds = np.zeros(4, dtype=np.int64)
    mask = np.arange(4)
    assert d.accuracy(preds, labels, mask) == 0.5
    assert d.macro_f1(preds, labels, mask, 2) == pytest.approx(1 / 3, abs=1e-12)
    assert d.per_class_f1(preds, labels, mask, 2).tolist() == [
        pytest.approx(2 / 3, abs=1e-12), 0.0]


def test_perfect_separation_auroc_is_one():
    labels = np.array([0, 0, 1, 1])
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    assert d.macro_auroc(probs, labels, np.arange(4)) == 1.0


def test_all_tied_scores_auroc_is_half():
    labels = np.array([0, 1, 0, 1])
    probs = np.full((4, 2), 0.5)
    assert d.macro_auroc(probs, labels, np.arange(4)) == 0.5


def test_chance_level_auroc_near_half():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=4000)
    probs = rng.random((4000, 2))
    probs /= probs.sum(axis=1, keepdims=True)
    assert d.macro_auroc(probs, labels, np.arange(4000)) == pytest.approx(
        0.5, abs=0.05)


# ---------------------------------------------------------------------------
# oracles


def test_confusion_matrix_matches_scatter():
    rng = np.random.default_rng(12)
    for rep in range(20):
        n, c = int(rng.integers(1, 50)), int(rng.integers(1, 7))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        mask = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))  # repeats count
        expected = np.zeros((c, c), dtype=np.int64)
        np.add.at(expected, (labels[mask], preds[mask]), 1)
        cm = d.confusion_matrix(preds, labels, mask, c)
        assert cm.dtype == expected.dtype and np.array_equal(cm, expected)
    with pytest.raises(ValueError, match="empty"):
        d.confusion_matrix(preds, labels, [], c)
    for bad in (c, -1):
        preds[mask[0]] = bad
        with pytest.raises(IndexError):
            d.confusion_matrix(preds, labels, mask, c)


def test_confusion_and_derived_metrics_match_naive_tally():
    rng = np.random.default_rng(11)
    for rep in range(10):
        n, c = 200, int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        mask = rng.choice(n, size=int(rng.integers(10, n)), replace=False)
        cm = d.confusion_matrix(preds, labels, mask, c)
        expected = naive_confusion(preds, labels, mask, c)
        assert np.array_equal(cm, expected)
        assert cm.sum() == mask.size
        assert d.accuracy(preds, labels, mask) == np.trace(expected) / mask.size
        assert np.allclose(d.per_class_f1(preds, labels, mask, c),
                           f1_from_confusion(expected), atol=0)
        present = expected.sum(axis=1) > 0
        assert d.macro_f1(preds, labels, mask, c) == pytest.approx(
            f1_from_confusion(expected)[present].mean(), abs=0)


def test_macro_auroc_matches_pair_counting_oracle():
    rng = np.random.default_rng(13)
    for rep in range(100):
        n, c = int(rng.integers(10, 61)), int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        # quantized scores force plenty of ties through the midrank path
        probs = np.round(rng.random((n, c)), 1)
        probs += 1e-9
        probs /= probs.sum(axis=1, keepdims=True)
        mask = np.arange(n)
        per_class = []
        for k in range(c):
            is_pos = labels == k
            if is_pos.all() or not is_pos.any():
                continue
            per_class.append(pairwise_auroc(probs[:, k], is_pos))
        if not per_class:
            with pytest.raises(ValueError):
                d.macro_auroc(probs, labels, mask)
            continue
        got = d.macro_auroc(probs, labels, mask)
        assert got == pytest.approx(np.mean(per_class), abs=1e-12)


def test_midranks_equal_scipy_average_ranks():
    rng = np.random.default_rng(19)
    for x in (rng.random(50), np.round(rng.random(300), 1), np.zeros(7), np.array([2.0])):
        got = d.metrics._midranks(x)
        assert np.array_equal(got, scipy.stats.rankdata(x, method="average"))


def test_auroc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 3, size=60)
    probs = rng.random((60, 3))
    mask = np.arange(60)
    base = d.macro_auroc(probs, labels, mask)
    assert d.macro_auroc(100.0 * probs + 3.0, labels, mask) == pytest.approx(
        base, abs=1e-12)
    assert d.macro_auroc(np.exp(probs), labels, mask) == pytest.approx(
        base, abs=1e-12)


def test_auroc_skips_classes_without_both_outcomes():
    # class 2 has no positives in the mask and must not contribute
    labels = np.array([0, 0, 1, 1])
    probs = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1],
                      [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
    assert d.macro_auroc(probs, labels, np.arange(4)) == 1.0
    with pytest.raises(ValueError):
        d.macro_auroc(probs, np.zeros(4, dtype=np.int64), np.arange(4))


# ---------------------------------------------------------------------------
# report plumbing


def test_metrics_report_consistency():
    rng = np.random.default_rng(23)
    labels = rng.integers(0, 3, size=50)
    probs = rng.random((50, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    cases = [(probs, labels, np.arange(0, 50, 2), 3)]
    for _ in range(20):
        n, c = int(rng.integers(10, 80)), int(rng.integers(2, 7))
        mask = rng.choice(n, size=int(rng.integers(n // 2, n + 1)), replace=False)
        cases.append((rng.random((n, c)), rng.integers(0, c, size=n), mask, c))
    for probs, labels, mask, c in cases:
        rep = d.metrics_report(probs, labels, mask, c)
        preds = probs.argmax(axis=1)
        assert rep.acc == d.accuracy(preds, labels, mask)
        assert rep.macro_f1 == d.macro_f1(preds, labels, mask, c)
        assert rep.per_class_f1.tobytes() == d.per_class_f1(preds, labels, mask, c).tobytes()
        assert np.array_equal(rep.confusion, d.confusion_matrix(preds, labels, mask, c))
        assert rep.macro_auroc == d.macro_auroc(probs, labels, mask)
        assert rep.confusion.sum() == mask.size
    as_dict = rep.to_dict()
    assert set(as_dict) == {"acc", "macro_f1", "macro_auroc",
                            "per_class_f1", "confusion"}
    assert as_dict["acc"] == rep.acc


def test_empty_and_out_of_range_masks_raise():
    labels = np.array([0, 1])
    with pytest.raises(ValueError):
        d.accuracy(labels, labels, np.array([], dtype=np.int64))
    with pytest.raises(IndexError):
        d.accuracy(labels, labels, np.array([2]))
