"""Tests of the benchmark's own parts: the sparse SBM generator and BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import sbm  # noqa: E402
from disamgnn.data import ambiguity_preset, block_probability_matrix  # noqa: E402

SEEDS = range(8)


def _block_pair_counts(edges, labels, c):
    counts = np.zeros((c, c), dtype=np.int64)
    a, b = np.sort(labels[edges], axis=1).T
    np.add.at(counts, (a, b), 1)
    return counts


def test_expected_degrees_match_the_package_preset():
    spec = ambiguity_preset()
    probs = block_probability_matrix(spec)
    sizes = np.asarray(spec.class_sizes, dtype=np.float64)
    preset = (probs * (sizes[None, :] - np.eye(sizes.size))).sum(axis=1)
    scaled = sbm.scaled_spec(10)
    np.testing.assert_allclose(scaled.expected_degrees(), preset, rtol=1e-12)
    assert np.array(scaled.sizes) / sum(scaled.sizes) == pytest.approx(sizes / sizes.sum())


@pytest.mark.parametrize("seed", SEEDS)
def test_block_pair_densities_within_binomial_error(seed):
    spec = sbm.scaled_spec(10)
    edges, _, labels = sbm.generate(spec, seed)
    counts = _block_pair_counts(edges, labels, len(spec.sizes))
    for a in range(len(spec.sizes)):
        for b in range(a, len(spec.sizes)):
            n, p = spec.possible_pairs(a, b), spec.probs[a, b]
            sd = np.sqrt(n * p * (1 - p))
            # 5 sd of binomial error, plus the few edges that join isolated nodes.
            assert abs(counts[a, b] - n * p) <= 5 * sd + 3, (a, b, counts[a, b], n * p)


@pytest.mark.parametrize("seed", SEEDS)
def test_edges_are_distinct_loop_free_and_leave_no_node_isolated(seed):
    spec = sbm.scaled_spec(10)
    edges, features, labels = sbm.generate(spec, seed)
    n = sum(spec.sizes)
    assert (edges[:, 0] != edges[:, 1]).all()
    assert np.unique(np.sort(edges, axis=1), axis=0).shape[0] == edges.shape[0]
    assert np.bincount(edges.ravel(), minlength=n).min() >= 1
    assert features.shape == (n, 3) and labels.shape == (n,)
    deg = np.bincount(edges.ravel(), minlength=n)
    for c, expected in enumerate(spec.expected_degrees()):
        members = deg[labels == c]
        assert abs(members.mean() - expected) <= 5 * np.sqrt(expected / members.size) + 0.01


def test_isolated_nodes_are_joined_within_their_block():
    spec = sbm.BlockSpec(sizes=(20, 30), probs=np.zeros((2, 2)))
    edges, _, labels = sbm.generate(spec, 3)
    assert np.bincount(edges.ravel(), minlength=50).min() >= 1
    assert (labels[edges[:, 0]] == labels[edges[:, 1]]).all()


def test_same_seed_same_graph_and_bundle_round_trip(tmp_path):
    from disamgnn.data import load_bundle

    spec = sbm.scaled_spec(2)
    first = sbm.generate(spec, 5)
    second = sbm.generate(spec, 5)
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(first[0], sbm.generate(spec, 6)[0])
    sbm.write_bundle(str(tmp_path), *first)
    g, masks = load_bundle(str(tmp_path))
    assert masks is None
    np.testing.assert_array_equal(g.features, first[1])
    np.testing.assert_array_equal(g.labels, first[2])
    assert g.num_edges == first[0].shape[0]


def test_benchmark_json_matches_run_py():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
