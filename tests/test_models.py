"""Backbone forward-pass and cross-entropy tests.

Each architecture is checked against a straight dense numpy reimplementation
on a small random graph, plus hand-computable special cases (isolated nodes,
edgeless graphs, identity weights).
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import disamgnn as d
from disamgnn import models as M
from disamgnn import tensor as T
import oracles
from oracles import weighted_sum


def random_graph(rng, n=15, num_classes=3, p=0.25, feat_dim=5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return d.build_graph(edges, rng.normal(size=(n, feat_dim)),
                         rng.integers(0, num_classes, size=n), num_classes)


def dense_gcn_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u in range(g.num_nodes):
        a[u, g.neighbors(u)] = 1.0
    a_tilde = a + np.eye(g.num_nodes)
    dinv = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * dinv[:, None] * dinv[None, :]


# ---------------------------------------------------------------------------
# normalized adjacency


def test_normalized_adjacency_isolated_node():
    g = d.build_graph([(0, 1)], np.zeros((3, 1)), np.array([0, 1, 0]), 2)
    dense = d.gcn_normalized_adjacency(g).toarray()
    assert dense[2, 2] == 1.0
    assert np.all(dense[2, :2] == 0.0)


def test_normalized_adjacency_single_edge_is_half_everywhere():
    g = d.build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]), 2)
    dense = d.gcn_normalized_adjacency(g).toarray()
    assert np.allclose(dense, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_normalized_adjacency_matches_dense_formula():
    rng = np.random.default_rng(3)
    for rep in range(5):
        g = random_graph(rng, n=20)
        got = d.gcn_normalized_adjacency(g).toarray()
        assert np.allclose(got, dense_gcn_adjacency(g), atol=1e-12)


def test_normalized_adjacency_has_the_sparse_product_bytes():
    rng = np.random.default_rng(21)
    graphs = [d.sbm_generate(d.get_preset("ambiguity")),
              d.build_graph([(0, 3), (3, 4), (1, 5)], np.zeros((7, 1)), np.zeros(7, dtype=np.int64), 2),
              d.build_graph(np.zeros((0, 2), dtype=np.int64), np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 2)]
    graphs += [random_graph(rng, n=n, p=p) for n, p in [(20, 0.05), (40, 0.3), (60, 0.9)]]
    for g in graphs:
        got, want = d.gcn_normalized_adjacency(g), oracles.gcn_normalized_adjacency(g)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        x = rng.normal(size=(g.num_nodes, 8))
        assert (got @ x).tobytes() == (want @ x).tobytes()


def test_mean_adjacency_rows_and_isolated():
    g = d.build_graph([(0, 1), (0, 2)], np.zeros((4, 1)),
                      np.array([0, 1, 0, 1]), 2)
    dense = M.mean_adjacency(g).toarray()
    assert np.allclose(dense[0], [0.0, 0.5, 0.5, 0.0], atol=1e-15)
    assert np.all(dense[3] == 0.0)


@pytest.mark.parametrize("build", [d.gcn_normalized_adjacency, M.mean_adjacency,
                                   M.sum_adjacency])
def test_adjacency_builders_return_canonical_csr(build):
    g = random_graph(np.random.default_rng(4), n=30)
    adj = build(g)
    # sorted, duplicate-free rows fix each row's summation order in spmm
    assert isinstance(adj, sp.csr_array) and adj.has_canonical_format
    assert adj.shape == (g.num_nodes, g.num_nodes)


def test_spmm_gradient_on_the_mean_adjacency_is_its_transpose():
    rng = np.random.default_rng(5)
    g = d.build_graph([(0, 1), (0, 2), (0, 3), (3, 4)], np.zeros((6, 1)),
                      np.array([0, 1, 0, 1, 0, 1]), 2)
    adj, adj_t = M._adjacency(g, "mean_adj")
    dense = adj.toarray()
    assert not np.allclose(dense, dense.T)
    x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    upstream = rng.normal(size=(6, 3))
    T.backward(weighted_sum(T.spmm(adj, adj_t, x), upstream))
    assert np.allclose(x.grad, dense.T @ upstream, rtol=0, atol=1e-12)


def _graph_with_an_isolated_node():
    # node 5 has no edges: empty rows and columns in every adjacency
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]
    rng = np.random.default_rng(6)
    return d.build_graph(edges, rng.normal(size=(6, 2)), np.array([0, 1, 0, 1, 0, 1]), 2)


@pytest.mark.parametrize("adj_key", ["gcn_adj", "mean_adj", "sum_adj"])
@pytest.mark.parametrize("graph", ["preset", "isolated"])
def test_spmm_backward_operand_is_the_transpose_bit_for_bit(graph, adj_key):
    g = (d.sbm_generate(d.get_preset("ambiguity")) if graph == "preset"
         else _graph_with_an_isolated_node())
    adj, adj_t = M._adjacency(g, adj_key)
    # the symmetric adjacencies are their own operand; only the mean one is copied
    assert (adj_t is adj) == (adj_key != "mean_adj")
    assert M._adjacency(g, adj_key)[1] is adj_t
    rng = np.random.default_rng(12)
    for width in (1, 7, 64):
        upstream = rng.normal(size=(g.num_nodes, width))
        x = T.Tensor(rng.normal(size=(g.num_nodes, width)), requires_grad=True)
        T.backward(weighted_sum(T.spmm(adj, adj_t, x), upstream))
        assert x.grad.tobytes() == (adj.T @ upstream).tobytes(), width


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_training_builds_no_sparse_transpose_per_backward(backbone, monkeypatch):
    # five epochs, five backward passes: only SAGE's mean adjacency needs a
    # transpose, built once with the graph's other constants
    calls = []
    for cls in (sp.csr_array, sp.csc_array):
        transpose = cls.transpose
        monkeypatch.setattr(cls, "transpose",
                            lambda self, *a, transpose=transpose, **k:
                            calls.append(type(self)) or transpose(self, *a, **k))
    g = random_graph(np.random.default_rng(8), n=20)
    masks = d.SplitMasks(train=np.arange(10), val=np.arange(10, 15), test=np.arange(15, 20))
    cfg = d.TrainConfig(backbone=backbone, hidden_dim=6, max_epochs=5, patience=5)
    d.train(cfg, g, masks)
    assert len(calls) == (1 if backbone == "sage" else 0)


# ---------------------------------------------------------------------------
# the flat parameter buffer


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_parameter_values_are_views_into_one_flat_buffer(backbone):
    params = d.init_model(backbone, 5, 3, hidden_dim=4, num_layers=2,
                          rng=np.random.default_rng(9))
    values = params.named_values()
    # checkpoint order, each tensor's values C-ordered
    assert params.flat.ndim == 1 and params.flat.dtype == np.float64
    assert params.flat.size == sum(v.size for v in values.values())
    assert params.flat.tobytes() == b"".join(v.tobytes() for v in values.values())
    params.flat[:] = np.arange(params.flat.size)
    offset = 0
    for name, v in values.items():
        assert np.shares_memory(v, params.flat), name
        assert np.array_equal(v.ravel(), np.arange(offset, offset + v.size)), name
        offset += v.size
    values[next(iter(values))][0, 0] = -1.0
    assert params.flat[0] == -1.0


def test_init_model_keeps_its_draw_order():
    # the flat buffer packs what init_model drew, in the order it drew it
    rng = np.random.default_rng(10)
    params = d.init_model("gcn", 5, 3, hidden_dim=4, num_layers=2, rng=np.random.default_rng(10))
    w0 = M._glorot(rng, 5, 4)
    w1 = M._glorot(rng, 4, 3)
    assert params.params["layer0.weight"].values.tobytes() == w0.tobytes()
    assert params.params["layer1.weight"].values.tobytes() == w1.tobytes()


def test_snapshot_and_restore_round_trip_the_flat_buffer():
    params = d.init_model("gin", 5, 3, hidden_dim=4, rng=np.random.default_rng(11))
    before = params.flat.tobytes()
    snap = params.snapshot()
    assert not np.shares_memory(snap, params.flat)
    for t in params.params.values():
        t.values += 1.0
    assert params.flat.tobytes() != before
    params.restore(snap)
    assert params.flat.tobytes() == before
    assert params.params["layer0.eps"].values.tobytes() == np.zeros((1, 1)).tobytes()


def test_a_parameter_without_gradient_reads_zeros_and_zero_grads_reattaches_its_view():
    params = d.init_model("sgc", 5, 3, rng=np.random.default_rng(12))
    weight, bias = params.params["linear.weight"], params.params["linear.bias"]
    params.grad += 1.0  # left over from an earlier step
    params.zero_grads()
    T.backward(weighted_sum(weight, np.full((5, 3), 2.0)))
    assert np.array_equal(params.grad, np.r_[np.full(15, 2.0), np.zeros(3)])
    bias.grad = None
    params.zero_grads()
    assert np.shares_memory(bias.grad, params.grad)
    T.backward(weighted_sum(bias, np.full((1, 3), 3.0)))
    assert np.array_equal(params.grad, np.r_[np.zeros(15), np.full(3, 3.0)])


def adam_steps(zero, steps=5):
    """``params.flat``'s bytes after ``steps`` Adam steps of cross entropy, clearing with ``zero``."""
    g = random_graph(np.random.default_rng(21))
    params = d.init_model("gcn", 5, 3, hidden_dim=4, rng=np.random.default_rng(22))
    start, opt = params.flat.tobytes(), d.AdamState(lr=0.01)
    for _ in range(steps):
        zero(params)
        T.backward(M.cross_entropy_loss(M.forward(params, g), g.labels, np.arange(g.num_nodes)))
        d.adam_step(opt, params.flat, params.grad)
    assert params.flat.tobytes() != start
    return params.flat.tobytes()


def test_per_tensor_zero_grad_trains_like_zero_grads():
    # zero_grad zeroes a view in place, so backward still adds into params.grad
    def per_tensor(params):
        for t in params.params.values():
            t.zero_grad()

    assert adam_steps(per_tensor) == adam_steps(M.ModelParams.zero_grads)


# ---------------------------------------------------------------------------
# forward passes against dense oracles


def gcn_oracle(g, params):
    a = dense_gcn_adjacency(g)
    h = g.features
    p = params.named_values()
    for i in range(params.num_layers):
        h = a @ (h @ p[f"layer{i}.weight"]) + p[f"layer{i}.bias"]
        if i < params.num_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def sage_oracle(g, params):
    deg = g.degrees().astype(float)
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u in range(g.num_nodes):
        if deg[u]:
            a[u, g.neighbors(u)] = 1.0 / deg[u]
    h = g.features
    p = params.named_values()
    for i in range(params.num_layers):
        h = np.hstack([h, a @ h]) @ p[f"layer{i}.weight"] + p[f"layer{i}.bias"]
        if i < params.num_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def gin_oracle(g, params):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u in range(g.num_nodes):
        a[u, g.neighbors(u)] = 1.0
    h = g.features
    p = params.named_values()
    for i in range(params.num_layers):
        agg = (1.0 + p[f"layer{i}.eps"][0, 0]) * h + a @ h
        z = np.maximum(agg @ p[f"layer{i}.mlp0.weight"] + p[f"layer{i}.mlp0.bias"], 0.0)
        h = z @ p[f"layer{i}.mlp1.weight"] + p[f"layer{i}.mlp1.bias"]
        if i < params.num_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def sgc_oracle(g, params):
    a = dense_gcn_adjacency(g)
    h = g.features
    for _ in range(params.sgc_k):
        h = a @ h
    p = params.named_values()
    return h @ p["linear.weight"] + p["linear.bias"]


ORACLES = {"gcn": gcn_oracle, "sage": sage_oracle, "gin": gin_oracle,
           "sgc": sgc_oracle}


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_forward_matches_dense_oracle(backbone):
    rng = np.random.default_rng(17)
    g = random_graph(rng, n=15)
    params = d.init_model(backbone, g.num_features, g.num_classes,
                          hidden_dim=8, num_layers=2,
                          rng=np.random.default_rng(5))
    # make biases and epsilons nonzero so the oracle exercises them
    for name, t in params.params.items():
        if name.endswith("bias") or name.endswith("eps"):
            t.values += rng.normal(scale=0.3, size=t.values.shape)
    out = d.forward(params, g)
    assert np.allclose(out.logits.values, ORACLES[backbone](g, params),
                       atol=1e-10)
    assert np.allclose(out.class_probs.sum(axis=1), 1.0, atol=1e-12)


def test_gcn_isolated_node_with_identity_weights():
    # an isolated node only sees itself through the self-loop, so with
    # identity weights and zero bias its logits are relu applied to its
    # own feature row
    feats = np.array([[1.0, -2.0, 3.0],
                      [0.5, 0.5, 0.5],
                      [-1.0, 4.0, -0.5]])
    g = d.build_graph([(0, 1)], feats, np.array([0, 1, 2]), 3)
    params = d.init_model("gcn", 3, 3, hidden_dim=3, num_layers=2,
                          rng=np.random.default_rng(0))
    params.params["layer0.weight"].values[:] = np.eye(3)
    params.params["layer1.weight"].values[:] = np.eye(3)
    out = d.forward(params, g)
    assert np.allclose(out.logits.values[2], np.maximum(feats[2], 0.0),
                       atol=1e-12)


def test_gin_neighborless_node_is_plain_mlp():
    feats = np.array([[0.3, -0.7], [1.0, 2.0], [0.0, 1.0]])
    g = d.build_graph([(0, 1)], feats, np.array([0, 1, 0]), 2)
    params = d.init_model("gin", 2, 2, hidden_dim=4, num_layers=1,
                          rng=np.random.default_rng(1))
    p = params.named_values()
    out = d.forward(params, g)
    expected = (np.maximum(feats[2] @ p["layer0.mlp0.weight"]
                           + p["layer0.mlp0.bias"], 0.0)
                @ p["layer0.mlp1.weight"] + p["layer0.mlp1.bias"])
    assert np.allclose(out.logits.values[2], expected, atol=1e-12)


def test_edgeless_gcn_equals_mlp():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 4))
    g = d.build_graph([], feats, rng.integers(0, 3, size=6), 3)
    params = d.init_model("gcn", 4, 3, hidden_dim=5, num_layers=2,
                          rng=np.random.default_rng(2))
    p = params.named_values()
    mlp = np.maximum(feats @ p["layer0.weight"] + p["layer0.bias"], 0.0)
    mlp = mlp @ p["layer1.weight"] + p["layer1.bias"]
    out = d.forward(params, g)
    assert np.allclose(out.logits.values, mlp, atol=1e-12)


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_forward_is_permutation_equivariant(backbone):
    rng = np.random.default_rng(29)
    g = random_graph(rng, n=12, feat_dim=4)
    params = d.init_model(backbone, 4, 3, hidden_dim=6, num_layers=2,
                          rng=np.random.default_rng(6))
    perm = rng.permutation(g.num_nodes)
    inv = np.argsort(perm)
    edges = [(int(perm[u]), int(perm[v]))
             for u in range(g.num_nodes) for v in g.neighbors(u) if u < v]
    g2 = d.build_graph(edges, g.features[inv], g.labels[inv], g.num_classes)
    out1 = d.forward(params, g).logits.values
    out2 = d.forward(params, g2).logits.values
    assert np.allclose(out2, out1[inv], atol=1e-9)


def test_sgc_embeddings_are_constant_propagated_features():
    rng = np.random.default_rng(8)
    g = random_graph(rng, n=10, feat_dim=3)
    params = d.init_model("sgc", 3, 3, num_layers=2, sgc_k=2,
                          rng=np.random.default_rng(3))
    out = d.forward(params, g)
    a = dense_gcn_adjacency(g)
    assert np.allclose(out.embeddings.values, a @ (a @ g.features), atol=1e-12)
    assert not out.embeddings.requires_grad


def test_forward_cache_is_reused():
    rng = np.random.default_rng(9)
    g = random_graph(rng, n=8)
    params = d.init_model("gcn", g.num_features, 3,
                          rng=np.random.default_rng(4))
    out1 = d.forward(params, g)
    assert "gcn_adj" in g._memo
    out2 = d.forward(params, g)
    assert np.array_equal(out1.logits.values, out2.logits.values)


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_replaced_or_rebuilt_graph_never_reads_another_graphs_constants(backbone):
    rng = np.random.default_rng(47)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.3]
    labels = rng.integers(0, 3, size=10)
    features, other = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
    params = d.init_model(backbone, 4, 3, hidden_dim=6, rng=np.random.default_rng(1))
    g = d.build_graph(edges, features, labels, 3)
    d.forward(params, g)  # fills g's memo
    replaced = dataclasses.replace(g, features=other)
    assert replaced._memo == {}
    fresh = d.forward(params, d.build_graph(edges, other, labels, 3)).logits.values
    assert np.array_equal(d.forward(params, replaced).logits.values, fresh)
    rebuilt = d.build_graph(edges, features, labels, 3)
    assert rebuilt._memo == {}
    assert np.array_equal(d.forward(params, rebuilt).logits.values,
                          d.forward(params, g).logits.values)


@pytest.mark.parametrize("num_layers", [1, 3])
def test_gcn_aggregate_first_layer_matches_dense_oracle(num_layers):
    rng = np.random.default_rng(23)
    g = random_graph(rng, n=15)
    params = d.init_model("gcn", g.num_features, g.num_classes, hidden_dim=8,
                          num_layers=num_layers, rng=np.random.default_rng(5))
    for name, t in params.params.items():
        if name.endswith("bias"):
            t.values += rng.normal(scale=0.3, size=t.values.shape)
    out = d.forward(params, g)
    assert np.allclose(out.logits.values, gcn_oracle(g, params), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_warm_cache_leaves_one_spmm_per_layer_after_the_first(backbone, num_layers, monkeypatch):
    rng = np.random.default_rng(31)
    g = random_graph(rng, n=12)
    params = d.init_model(backbone, g.num_features, g.num_classes, hidden_dim=6,
                          num_layers=num_layers, rng=np.random.default_rng(7))
    d.forward(params, g)
    warm = dict(g._memo)
    calls = []
    spmm = M.spmm
    monkeypatch.setattr(M, "spmm", lambda s, s_t, x: calls.append(s) or spmm(s, s_t, x))
    d.forward(params, g)
    assert len(calls) == (0 if backbone == "sgc" else num_layers - 1)
    assert g._memo.keys() == warm.keys()
    assert all(g._memo[k] is warm[k] for k in warm)


def test_adjacency_builders_are_looked_up_at_call_time(monkeypatch):
    # a wrapper set on the module (as a tracer does) must see every build;
    # one graph builds each matrix once, so SGC reuses the Â that GCN built
    calls = []
    for name in ("gcn_normalized_adjacency", "mean_adjacency", "sum_adjacency"):
        build = getattr(M, name)
        monkeypatch.setattr(M, name, lambda g, build=build, name=name: calls.append(name) or build(g))
    g = random_graph(np.random.default_rng(43), n=8)
    for backbone in d.BACKBONES:
        d.forward(d.init_model(backbone, g.num_features, g.num_classes,
                               rng=np.random.default_rng(0)), g)
    assert calls == ["gcn_normalized_adjacency", "mean_adjacency", "sum_adjacency"]


def test_tape_ops_are_looked_up_at_call_time(monkeypatch):
    # a tracer wraps the ops where models reads them; a name bound at import
    # time would hide its calls from the trace
    calls = set()
    for name in ("linear", "matmul", "add", "relu", "spmm"):
        op = getattr(M, name)
        monkeypatch.setattr(M, name, lambda *a, op=op, name=name: calls.add(name) or op(*a))
    g = random_graph(np.random.default_rng(44), n=8)
    reached = {}
    for backbone in d.BACKBONES:
        calls.clear()
        d.forward(d.init_model(backbone, g.num_features, g.num_classes,
                               rng=np.random.default_rng(0)), g)
        reached[backbone] = set(calls)
    assert reached == {"gcn": {"linear", "matmul", "add", "relu", "spmm"},
                       "sage": {"linear", "relu", "spmm"},
                       "gin": {"linear", "add", "relu", "spmm"},
                       "sgc": {"linear"}}


def tape_nodes(loss):
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_backward_keeps_owned_gradients_on_leaves_only(backbone):
    rng = np.random.default_rng(45)
    g = random_graph(rng, n=15)
    params = d.init_model(backbone, g.num_features, g.num_classes, hidden_dim=6,
                          rng=np.random.default_rng(3))
    groups = d.build_contrast_groups(d.forward(params, g).embeddings.values, g,
                                     np.arange(g.num_nodes), d.DisamConfig(),
                                     np.random.default_rng(5))
    assert groups.pairs().left.size > 0

    weight = T.Tensor(1.0, requires_grad=True)  # a leaf outside the model

    def joint_loss():
        # a fresh generator per call keeps the dropout mask fixed
        out = d.forward(params, g, training=True, dropout_rate=0.3, rng=np.random.default_rng(4))
        ce = M.cross_entropy_loss(out, g.labels, np.arange(g.num_nodes))
        return T.add(ce, T.scalar_mul(weight, d.jsd_contrast_loss(out.embeddings, groups)))

    loss = joint_loss()
    T.backward(loss)
    nodes = tape_nodes(loss)
    assert all(t.grad is None for t in nodes if t._backward_fn is not None)
    leaves = [t for t in nodes if t._backward_fn is None and t.grad is not None]
    assert {id(t) for t in leaves} == {id(t) for t in [weight, *params.params.values()]}
    # the model's gradients are disjoint views of its one buffer; other leaves own theirs
    assert weight.grad.flags.c_contiguous and weight.grad.flags.owndata
    grads = [t.grad for t in params.params.values()]
    for i, grad in enumerate(grads):
        assert grad.base is params.grad and grad.flags.c_contiguous
        assert not any(np.shares_memory(grad, other) for other in grads[:i])
    assert sum(grad.size for grad in grads) == params.grad.size
    # and the handed-down arrays still add up to the right gradients
    h = 1e-6
    for t in params.params.values():
        for idx in np.ndindex(*t.shape):
            orig = t.values[idx]
            t.values[idx] = orig + h
            up = joint_loss().item()
            t.values[idx] = orig - h
            dn = joint_loss().item()
            t.values[idx] = orig
            fd = (up - dn) / (2 * h)
            assert abs(t.grad[idx] - fd) / max(abs(t.grad[idx]) + abs(fd), 1e-8) < 1e-4, idx


@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_cached_aggregate_is_a_constant_that_backward_leaves_alone(backbone):
    rng = np.random.default_rng(37)
    g = random_graph(rng, n=12)
    params = d.init_model(backbone, g.num_features, g.num_classes, hidden_dim=6,
                          rng=np.random.default_rng(2))
    out = d.forward(params, g)
    consts = [t for t in g._memo.values() if isinstance(t, T.Tensor)]
    before = [t.values.copy() for t in consts]
    assert consts
    T.backward(M.cross_entropy_loss(out, g.labels, np.arange(g.num_nodes)))
    assert all(t.grad is not None for t in params.params.values())
    for t, values in zip(consts, before):
        assert not t.requires_grad and t.grad is None
        assert np.array_equal(t.values, values)


def test_gcn_layer0_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    g = random_graph(rng, n=10, feat_dim=4)
    params = d.init_model("gcn", 4, 3, hidden_dim=5, rng=np.random.default_rng(8))
    w = params.params["layer0.weight"]
    mask, h = np.arange(g.num_nodes), 1e-5

    def loss():
        return M.cross_entropy_loss(d.forward(params, g), g.labels, mask)

    T.backward(loss())
    for idx in np.ndindex(*w.shape):
        orig = w.values[idx]
        w.values[idx] = orig + h
        up = loss().item()
        w.values[idx] = orig - h
        dn = loss().item()
        w.values[idx] = orig
        fd = (up - dn) / (2 * h)
        assert abs(w.grad[idx] - fd) / max(abs(w.grad[idx]) + abs(fd), 1e-8) < 1e-4, idx


def test_forward_validation_errors():
    g = d.build_graph([(0, 1)], np.zeros((2, 3)), np.array([0, 1]), 2)
    params = d.init_model("gcn", 4, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        d.forward(params, g)
    params = d.init_model("gcn", 3, 3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        d.forward(params, g)
    params = d.init_model("gcn", 3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        d.forward(params, g, training=True, dropout_rate=0.5)
    with pytest.raises(ValueError):
        d.init_model("mystery", 3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        d.init_model("gcn", 3, 2, num_layers=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="sgc_k must be None or >= 0"):
        d.init_model("sgc", 3, 2, sgc_k=-1, rng=np.random.default_rng(0))



@pytest.mark.parametrize("backbone", d.BACKBONES)
@pytest.mark.parametrize("dim", ["in_dim", "hidden_dim", "num_classes"])
def test_init_model_rejects_a_width_below_one(backbone, dim):
    for bad in (0, -5):
        sizes = {"in_dim": 3, "hidden_dim": 4, "num_classes": 2, dim: bad}
        with pytest.raises(ValueError, match=f"^{dim} must be >= 1, got {bad}$"):
            d.init_model(backbone, sizes["in_dim"], sizes["num_classes"], hidden_dim=sizes["hidden_dim"],
                         rng=np.random.default_rng(0))

def test_class_probs_equal_reduction_max_formula():
    # numpy's row-max reduction is the reference: on each backbone's logits,
    # and on the special values that no forward here produces, through the
    # helper that forward calls
    def reference(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(27)
    g = random_graph(rng, n=40, num_classes=5)
    for backbone in d.BACKBONES:
        params = d.init_model(backbone, g.num_features, g.num_classes, hidden_dim=6, rng=rng)
        params.flat *= 20.0
        out = d.forward(params, g)
        assert out.class_probs.tobytes() == reference(out.logits.values).tobytes(), backbone
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 3.5])
    with np.errstate(invalid="ignore", over="ignore"):
        for cols in (1, 2, 3, 5, 8, 13):
            v = rng.choice(specials, size=(300, cols))
            v[::4] = rng.normal(size=(len(v[::4]), cols))
            v[1::7, :] = v[1::7, :1]  # ties across the whole row
            assert M._softmax(v).tobytes() == reference(v).tobytes(), cols


def test_class_probs_sum_to_one_even_at_large_magnitude():
    rng = np.random.default_rng(30)
    x = rng.normal(scale=300.0, size=(8, 6))
    g = d.build_graph([], x, np.arange(8) % 6, 6)
    params = d.init_model("sgc", 6, 6, sgc_k=0, rng=rng)
    params.params["linear.weight"].values[...] = np.eye(6)
    out = d.forward(params, g)
    assert np.array_equal(out.logits.values, x)
    assert np.all(np.isfinite(out.class_probs))
    assert np.allclose(out.class_probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.class_probs >= 0)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits_is_log_num_classes():
    logits = T.Tensor(np.zeros((5, 4)))
    labels = np.array([0, 1, 2, 3, 0])
    loss = d.cross_entropy_loss(logits, labels, np.arange(5))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_saturates_near_zero_on_confident_logits():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 50.0
    loss = d.cross_entropy_loss(T.Tensor(logits), labels, np.arange(3))
    assert 0.0 <= loss.item() < 1e-15


def test_cross_entropy_matches_naive_oracle():
    rng = np.random.default_rng(41)
    for rep in range(10):
        n, c = 10, int(rng.integers(2, 6))
        logits = rng.normal(scale=3, size=(n, c))
        labels = rng.integers(0, c, size=n)
        mask = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        total = 0.0
        for v in mask:
            p = np.exp(logits[v]) / np.exp(logits[v]).sum()
            total -= np.log(p[labels[v]])
        expected = total / mask.size
        loss = d.cross_entropy_loss(T.Tensor(logits), labels, mask)
        assert loss.item() == pytest.approx(expected, abs=1e-10)
        assert loss.item() >= 0.0


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    logits = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=6)
    mask = np.array([0, 2, 3, 5])
    loss = d.cross_entropy_loss(logits, labels, mask)
    T.backward(loss)
    h = 1e-6
    for i in range(6):
        for j in range(3):
            orig = logits.values[i, j]
            logits.values[i, j] = orig + h
            up = d.cross_entropy_loss(logits, labels, mask).item()
            logits.values[i, j] = orig - h
            dn = d.cross_entropy_loss(logits, labels, mask).item()
            logits.values[i, j] = orig
            fd = (up - dn) / (2 * h)
            assert abs(logits.grad[i, j] - fd) < 1e-6
    # unmasked rows get no gradient at all
    assert np.all(logits.grad[[1, 4]] == 0.0)


def test_cross_entropy_mask_validation():
    logits = T.Tensor(np.zeros((4, 2)))
    labels = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError):
        d.cross_entropy_loss(logits, labels, np.array([], dtype=np.int64))
    with pytest.raises(IndexError):
        d.cross_entropy_loss(logits, labels, np.array([4]))


def test_cross_entropy_rejects_masked_labels_outside_the_classes():
    # numpy indexing would read label -1 as the last class
    logits = T.Tensor(np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5]]), requires_grad=True)
    for bad in (-1, 3):
        with pytest.raises(IndexError, match="class index"):
            d.cross_entropy_loss(logits, np.array([bad, 0]), np.arange(2))
    # labels outside the mask are never read
    assert d.cross_entropy_loss(logits, np.array([-1, 0]), np.array([1])).item() > 0
