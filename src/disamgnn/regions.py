"""Graph-region grouping strategies and per-group performance reports.

Two complementary partitions of the node set:

Strategy 1 crosses class-frequency tiers with a local-structure subgroup.
Classes fall into Minority / Middle / Majority tiers by splitting the
[min class count, max class count] range into three equal-width,
upper-inclusive bins. Within a tier a node is Same-class when its label
homophily reaches HOMOPHILY_CUT (0.5), else Minor-class when a strict
plurality of its neighbors belongs to Minority-tier classes, else Others.

Strategy 2 crosses minority adjacency (at least one neighbor from a
Minority-tier class) with the same homophily cut, giving four groups;
isolated nodes are excluded into a residual Isolated bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, _class_ids, _frozen, _integers, _memoized, _node_index, _node_rows,
                    node_homophily_vector)
from .metrics import accuracy

__all__ = [
    "TIER_NAMES",
    "NodeGroups",
    "class_size_tiers",
    "strategy1_groups",
    "strategy2_groups",
    "group_report",
]

TIER_MINORITY, TIER_MIDDLE, TIER_MAJORITY = 0, 1, 2
TIER_NAMES = ("Minority", "Middle", "Majority")
_SUBGROUP_NAMES = ("Same-class", "Minor-class", "Others")
HOMOPHILY_CUT = 0.5


@dataclass(frozen=True)
class NodeGroups:
    """A partition of nodes into labeled groups.

    group_ids[v] indexes into ``labels``; -1 marks an excluded node, counted
    under ``excluded_label``. ``counts`` covers all nodes per group.
    """

    strategy: int
    group_ids: np.ndarray
    labels: tuple[str, ...]
    counts: np.ndarray
    excluded_label: str | None = None

    def excluded(self) -> np.ndarray:
        return np.flatnonzero(self.group_ids < 0)


def class_size_tiers(labels, num_classes: int) -> np.ndarray:
    """Tier id per class: 0 Minority, 1 Middle, 2 Majority.

    Equal-width bins over [min count, max count] of the classes that have
    members, upper-inclusive. With zero spread every class is Majority.
    Empty classes are binned too but never matter (no node carries them).
    """
    labels = _class_ids(_integers(labels, "labels", "class ids"), "labels", num_classes)
    counts = np.bincount(labels, minlength=num_classes)
    present = counts > 0
    if not present.any():
        raise ValueError("no labeled nodes to tier")
    lo = counts[present].min()
    hi = counts[present].max()
    if hi == lo:
        return np.full(num_classes, TIER_MAJORITY, dtype=np.int64)
    width = (hi - lo) / 3.0
    tiers = np.where(
        counts <= lo + width,
        TIER_MINORITY,
        np.where(counts <= lo + 2.0 * width, TIER_MIDDLE, TIER_MAJORITY),
    )
    return tiers.astype(np.int64)


def _neighbor_tiers(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tier per class, node homophily, (n, 3) count of each node's neighbors per tier).

    Computed once per graph and kept, read-only, in its memo for both strategies.
    """

    def compute():
        tiers = class_size_tiers(g.labels, g.num_classes)
        arc_src = np.repeat(np.arange(g.num_nodes), g.degrees())
        arc_tier = tiers[g.labels[g.csr_targets]]
        counts = np.bincount(arc_src * 3 + arc_tier, minlength=3 * g.num_nodes).reshape(-1, 3)
        return tuple(_frozen(a) for a in (tiers, node_homophily_vector(g), counts))

    return _memoized(g, "neighbor_tiers", compute)


def strategy1_groups(g: Graph) -> NodeGroups:
    """Class-frequency tier x {Same-class, Minor-class, Others}; 9 groups."""
    tiers, hom, nbr = _neighbor_tiers(g)
    # Strict plurality of Minority-tier neighbors; ties go to Others.
    minor = (nbr[:, TIER_MINORITY] > nbr[:, TIER_MIDDLE]) & (
        nbr[:, TIER_MINORITY] > nbr[:, TIER_MAJORITY]
    )
    sub = np.where(hom >= HOMOPHILY_CUT, 0, np.where(minor, 1, 2))
    ids = tiers[g.labels] * 3 + sub
    labels = tuple(
        f"{tier}/{sub}" for tier in TIER_NAMES for sub in _SUBGROUP_NAMES
    )
    counts = np.bincount(ids, minlength=len(labels))
    return NodeGroups(strategy=1, group_ids=ids, labels=labels, counts=counts)


def strategy2_groups(g: Graph) -> NodeGroups:
    """Minority adjacency x homophily level; isolated nodes excluded."""
    _, hom, nbr = _neighbor_tiers(g)
    adjacent = nbr[:, TIER_MINORITY] > 0
    high = hom >= HOMOPHILY_CUT
    ids = np.where(g.degrees() == 0, -1, np.where(adjacent, 0, 2) + high)
    labels = (
        "AdjMinority/LowHom",
        "AdjMinority/HighHom",
        "NotAdjMinority/LowHom",
        "NotAdjMinority/HighHom",
    )
    counts = np.bincount(ids[ids >= 0], minlength=len(labels))
    return NodeGroups(
        strategy=2,
        group_ids=ids,
        labels=labels,
        counts=counts,
        excluded_label="Isolated",
    )


def group_report(
    groups: NodeGroups, preds, labels, scores, mask
) -> list[dict]:
    """Per-group count, accuracy, and mean ambiguity over masked nodes.

    Empty groups appear with count 0 and NaN statistics. When the grouping
    excludes nodes, a residual row is appended under its excluded_label.
    """
    n = groups.group_ids.size
    preds = _node_rows(_integers(preds, "preds", "class ids"), "preds", n, 1)
    labels = _node_rows(_integers(labels, "labels", "class ids"), "labels", n, 1)
    scores = _node_rows(np.asarray(scores, dtype=np.float64), "scores", n, 1)
    idx = _node_index(mask, "group_report mask", n)

    def row(label: str, members: np.ndarray) -> dict:
        count = int(members.size)
        acc = amb = math.nan
        if count:
            acc = accuracy(preds, labels, members)
            amb = float(scores[members].mean())
        return {"group": label, "count": count, "accuracy": acc, "mean_ambiguity": amb}

    gids = groups.group_ids[idx]
    rows = [
        row(label, idx[gids == gid]) for gid, label in enumerate(groups.labels)
    ]
    if groups.excluded_label is not None:
        rows.append(row(groups.excluded_label, idx[gids < 0]))
    return rows
