"""Every per-node input is checked by one of four rules, one row per case.

A per-node array must hold one row per node, a mask must name nodes and may
not be empty where a mean is taken over it, a class id must lie in [0, C),
and node and class ids must have an integer dtype. Each row below calls a library entry point with one input that
breaks a rule and names the error it must end in. A new per-node input
joins by adding one row.
"""

import numpy as np
import pytest

import disamgnn as d
from disamgnn import tensor as T

FIVE = d.NodeGroups(strategy=1, group_ids=np.zeros(5, dtype=np.int64), labels=("all",),
                    counts=np.array([5]))
PATH = d.build_graph([(0, 1), (1, 2), (2, 3)], np.eye(4), [0, 0, 1, 1])
LOGITS = T.Tensor(np.zeros((3, 2)))
PROBS3 = np.full((3, 3), 1 / 3)

CASES = [
    # (id, callable, arguments, exception, message fragment)
    ("group_report short arrays, mask past them", d.group_report,
     (FIVE, [0, 1, 0], [0, 1, 1], [0.1, 0.2, 0.3], [4]),
     ValueError, "preds must be 1-D with 5 rows (one per node), got shape (3,)"),
    ("group_report short scores", d.group_report,
     (FIVE, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64), [0.1, 0.2], [0, 1]),
     ValueError, "scores must be 1-D with 5 rows (one per node), got shape (2,)"),
    ("accuracy short preds", d.accuracy, ([0, 1], [0, 1, 1], [1]),
     ValueError, "preds must be 1-D with 3 rows (one per node), got shape (2,)"),
    ("confusion_matrix short preds", d.confusion_matrix, ([0, 1], [0, 1, 1], [1], 2),
     ValueError, "preds must be 1-D with 3 rows (one per node), got shape (2,)"),
    ("confusion_matrix predicted class past C", d.confusion_matrix, ([0, 3, 1], [0, 1, 1], [0, 1], 3),
     IndexError, "preds holds class index 3 outside [0, 3)"),
    ("confusion_matrix negative true class", d.confusion_matrix, ([0, 1, 1], [0, -1, 1], [0, 1], 3),
     IndexError, "labels holds class index -1 outside [0, 3)"),
    ("cross_entropy_loss more labels than logit rows", d.cross_entropy_loss,
     (LOGITS, np.zeros(6, dtype=np.int64), [0]),
     ValueError, "labels must be 1-D with 3 rows (one per node), got shape (6,)"),
    ("cross_entropy_loss empty mask", d.cross_entropy_loss, (LOGITS, [0, 0, 0], []),
     ValueError, "cross_entropy_loss mask is empty"),
    ("cross_entropy_loss repeated mask node", d.cross_entropy_loss, (LOGITS, [0, 0, 1], [2, 0, 2]),
     ValueError, "cross_entropy_loss mask repeats a node"),
    ("cross_entropy_loss masked class past C", d.cross_entropy_loss, (LOGITS, [0, 5, 1], [0, 1]),
     IndexError, "labels holds class index 5 outside [0, 2)"),
    ("macro_auroc fewer probability rows than labels", d.macro_auroc,
     (np.full((2, 2), 0.5), [0, 1, 1], [0, 1, 2]),
     ValueError, "class_probs must be 2-D with 3 rows (one per node), got shape (2, 2)"),
    ("macro_auroc masked class past C", d.macro_auroc, (PROBS3, [0, 1, 3], [0, 1, 2]),
     IndexError, "labels holds class index 3 outside [0, 3)"),
    ("class_size_tiers class past C", d.class_size_tiers, ([0, 1, 5], 3),
     IndexError, "labels holds class index 5 outside [0, 3)"),
    ("class_size_tiers negative class", d.class_size_tiers, ([0, 1, -1], 3),
     IndexError, "labels holds class index -1 outside [0, 3)"),
    ("build_contrast_groups short embeddings", d.build_contrast_groups,
     (np.zeros((3, 2)), PATH, [0], d.DisamConfig(), np.random.default_rng(0)),
     ValueError, "embeddings must be 2-D with 4 rows (one per node), got shape (3, 2)"),
    ("build_graph float edge endpoints", d.build_graph, ([[0.5, 1.9]], np.zeros((3, 2)), [0, 1, 0]),
     ValueError, "edges must hold integer node indices, got dtype float64"),
    ("build_graph float labels", d.build_graph, ([[0, 1]], np.zeros((3, 2)), [0.2, 1.7, 0.0]),
     ValueError, "labels must hold integer class ids, got dtype float64"),
    ("cross_entropy_loss float labels", d.cross_entropy_loss,
     (LOGITS, np.array([0.9, 1.7, 0.2]), [0, 1, 2]),
     ValueError, "labels must hold integer class ids, got dtype float64"),
    ("confusion_matrix float labels", d.confusion_matrix,
     ([0, 1, 1], np.array([0.5, 1.5, 1.0]), [0, 1, 2], 2),
     ValueError, "labels must hold integer class ids, got dtype float64"),
    ("confusion_matrix bool preds", d.confusion_matrix, ([True, False, True], [0, 1, 1], [0, 1], 2),
     ValueError, "preds must hold integer class ids, got dtype bool"),
    ("accuracy float preds", d.accuracy, (np.array([0.0, 1.0, 1.0]), [0, 1, 1], [0, 1]),
     ValueError, "preds must hold integer class ids, got dtype float64"),
    ("macro_auroc float labels", d.macro_auroc, (PROBS3, np.array([0.0, 1.0, 2.0]), [0, 1, 2]),
     ValueError, "labels must hold integer class ids, got dtype float64"),
    ("class_size_tiers float labels", d.class_size_tiers, (np.array([0.5, 1.5, 1.0, 0.0]), 2),
     ValueError, "labels must hold integer class ids, got dtype float64"),
    ("group_report float preds", d.group_report,
     (FIVE, np.zeros(5), np.zeros(5, dtype=np.int64), np.zeros(5), [0, 1]),
     ValueError, "preds must hold integer class ids, got dtype float64"),
    ("group_report float labels", d.group_report,
     (FIVE, np.zeros(5, dtype=np.int64), np.full(5, 0.5), np.zeros(5), [0, 1]),
     ValueError, "labels must hold integer class ids, got dtype float64"),
]


@pytest.mark.parametrize("fn, args, exc, fragment", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_per_node_input_is_rejected(fn, args, exc, fragment):
    with pytest.raises(exc) as info:
        fn(*args)
    assert fragment in str(info.value)
