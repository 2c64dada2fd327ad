"""Acceptance suite: the nine shipped guarantees, one verdict line each.

Every test prints a single ``criterion N: PASS/FAIL`` line through the
conftest recorder, so a pytest run doubles as the acceptance report. The
training-based checks share module-scoped fixtures to stay inside their
stated runtime budgets; everything is seeded and deterministic.
"""

import os
import time

import numpy as np
import pytest
from scipy.sparse import csr_array

import disamgnn as d
from disamgnn import tensor as T
from disamgnn.ambiguity import (
    AmbiguityState,
    DisamConfig,
    ambiguity_scores,
    build_contrast_groups,
    jsd_contrast_loss,
    select_ambiguous,
    update_memory,
)
from disamgnn.metrics import accuracy
from disamgnn.models import BACKBONES, cross_entropy_loss, forward, init_model
from disamgnn.optim import AdamState
from disamgnn.regions import strategy2_groups
from oracles import adam_step, contrast_groups, weighted_sum

AMB_SEEDS = (0, 1, 2)
SPLIT_STREAM = 104729  # same split stream tag the CLI uses


def verdict(record, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    record(line)
    assert ok, line


def split_for(g, seed):
    return d.make_split(g, rng=np.random.default_rng([SPLIT_STREAM, seed]))


def macro_f1_of(params, g, masks):
    return d.evaluate(params, g, masks, "test").macro_f1


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks


def fd_max_rel_err(make_loss, tensors, h=1e-5):
    """Worst relative error between tape gradients and central differences."""
    for t in tensors:
        t.zero_grad()
    T.backward(make_loss())
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.values)
        for i in range(t.values.shape[0]):
            for j in range(t.values.shape[1]):
                orig = t.values[i, j]
                t.values[i, j] = orig + h
                up = make_loss().item()
                t.values[i, j] = orig - h
                dn = make_loss().item()
                t.values[i, j] = orig
                fd = (up - dn) / (2.0 * h)
                a = analytic[i, j]
                worst = max(worst, abs(a - fd) / max(abs(a) + abs(fd), 1e-8))
    return worst


def away_from_kinks(arr, margin=0.1):
    out = arr.copy()
    out[np.abs(out) < margin] += 2 * margin
    return out


def op_sweep_worst():
    """FD-check every gradient-tracked op through a weighted-sum readout."""
    rng = np.random.default_rng(31)

    def t(shape, kink_safe=False):
        vals = rng.normal(size=shape)
        if kink_safe:
            vals = away_from_kinks(vals)
        return T.Tensor(vals, requires_grad=True)

    def reduce_fd(build, *tensors):
        w = rng.normal(size=build().shape)
        return fd_max_rel_err(lambda: weighted_sum(build(), w), tensors)

    worst = 0.0
    a, b = t((3, 4)), t((4, 2))
    worst = max(worst, reduce_fd(lambda: T.matmul(a, b), a, b))

    sp = csr_array(np.where(rng.random((4, 3)) < 0.6, rng.normal(size=(4, 3)), 0.0))
    x = t((3, 2))
    worst = max(worst, reduce_fd(lambda: T.spmm(sp, sp.T, x), x))

    a, b = t((3, 4)), t((3, 4))
    worst = max(worst, reduce_fd(lambda: T.add(a, b), a, b))
    a, bias = t((3, 4)), t((1, 4))
    worst = max(worst, reduce_fd(lambda: T.add(a, bias), a, bias))

    x = t((3, 4), kink_safe=True)
    worst = max(worst, reduce_fd(lambda: T.relu(x), x))

    x = t((3, 4))
    worst = max(worst, reduce_fd(lambda: T.scalar_mul(T.Tensor(1.7), x), x))

    s, x = t((1, 1)), t((3, 4))
    worst = max(worst, reduce_fd(lambda: T.scalar_mul(s, x), s, x))

    x = t((4, 3))
    worst = max(worst, reduce_fd(lambda: T.row_l2_normalize(x), x))

    a, b = t((3, 2)), t((3, 3))
    worst = max(worst, reduce_fd(lambda: T.concat_cols(a, b), a, b))

    x = t((3, 4))
    w = rng.normal(size=(3, 4))
    worst = max(worst, fd_max_rel_err(lambda: weighted_sum(x, w), [x]))

    # dropout: a freshly seeded generator per call freezes the mask, so the
    # finite differences see the same subnetwork the tape differentiated
    x = t((4, 5))
    w = rng.normal(size=(4, 5))
    worst = max(
        worst,
        fd_max_rel_err(
            lambda: weighted_sum(
                T.dropout(x, 0.35, np.random.default_rng(7)), w), [x]),
    )

    x = t((4, 3))
    left, right = np.array([0, 0, 1, 2, 3]), np.array([1, 3, 0, 2, 1])
    signs, pw = np.array([-1.0, 1.0, 1.0, -1.0, 1.0]), rng.random(5)
    worst = max(worst, fd_max_rel_err(
        lambda: T.pair_softplus(x, T.PairPlan(left, right, signs, pw)), [x]))

    x, w, bias = t((3, 4)), t((4, 2)), t((1, 2))
    worst = max(worst, reduce_fd(lambda: T.linear(x, w, bias), x, w, bias))
    return worst


# The tensor type, the pair plan and the tape walk are not tape ops.
SWEEP_EXEMPT = {"Tensor", "PairPlan", "backward"}


def test_op_sweep_calls_every_tape_op(monkeypatch):
    called = set()

    def counting(name, op):
        def wrapper(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        return wrapper

    ops = set(T.__all__) - SWEEP_EXEMPT
    for name in ops:
        monkeypatch.setattr(T, name, counting(name, getattr(T, name)))
    op_sweep_worst()
    assert called == ops, f"ops without a finite-difference check: {sorted(ops - called)}"


def joint_loss_fixture():
    """12-node graph, 2-layer GCN, one ambiguous node with all three pools."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (4, 5), (5, 6),
             (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (2, 7), (5, 11), (1, 9)]
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    feats = np.random.default_rng(0).normal(size=(12, 5))
    g = d.build_graph(edges, feats, labels)
    params = init_model("gcn", 5, 3, hidden_dim=6, num_layers=2,
                        rng=np.random.default_rng(0))

    out0 = forward(params, g)
    state = update_memory(AmbiguityState.create(12, 3), out0.class_probs, 0.5)
    ambiguous = select_ambiguous(ambiguity_scores(state.memory), 0.8)
    assert ambiguous.size > 0
    all_groups = build_contrast_groups(out0.embeddings.values, g, ambiguous,
                                       DisamConfig(), np.random.default_rng(5))
    full = [v for v, p in sorted(all_groups.pools.items())
            if p.pos.size and p.neg.size and p.aux_pos.size]
    assert full, "no ambiguous node ended up with non-empty pos/neg/aux pools"
    anchor = full[0]
    p = all_groups.pools[anchor]
    groups = contrast_groups({anchor: (p.pos, p.neg, p.aux_pos)})
    return g, params, groups


def test_criterion_1_gradients_match_finite_differences(criterion):
    worst_ops = op_sweep_worst()

    g, params, groups = joint_loss_fixture()
    train_idx = np.array([0, 1, 4, 5, 8, 9])

    def make_loss():
        out = forward(params, g)
        ce = cross_entropy_loss(out, g.labels, train_idx)
        cs = jsd_contrast_loss(out.embeddings, groups)
        return T.add(ce, T.scalar_mul(T.Tensor(1.0), cs))

    worst_joint = fd_max_rel_err(make_loss, list(params.params.values()))
    worst = max(worst_ops, worst_joint)
    verdict(criterion, 1, worst < 1e-4,
            f"max FD rel err {worst:.2e} (ops {worst_ops:.2e}, "
            f"joint loss {worst_joint:.2e}; tol 1e-4)")


# ---------------------------------------------------------------------------
# criterion 2: metric oracles


def pairwise_auroc(scores, is_pos):
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


def test_criterion_2_metrics_match_brute_force_oracles(criterion):
    rng = np.random.default_rng(424242)
    worst_auroc = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 61))
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, n)
        labels[:2] = (0, 1)
        scores = rng.random((n, c))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force heavy score ties
        mask = np.sort(rng.permutation(n)[: int(rng.integers(2, n + 1))])
        if np.unique(labels[mask]).size < 2:
            mask = np.arange(n)

        aucs = []
        for k in range(c):
            is_pos = labels[mask] == k
            if 0 < is_pos.sum() < is_pos.size:
                aucs.append(pairwise_auroc(scores[mask, k], is_pos))
        worst_auroc = max(worst_auroc,
                          abs(d.macro_auroc(scores, labels, mask) - np.mean(aucs)))

        preds = scores.argmax(axis=1)
        cm = naive_confusion(preds, labels, mask, c)
        assert d.accuracy(preds, labels, mask) == cm.trace() / cm.sum()
        ref_f1 = f1_from_confusion(cm)
        assert np.array_equal(d.per_class_f1(preds, labels, mask, c), ref_f1)
        # macro averages only over classes with true instances in the mask
        present = cm.sum(axis=1) > 0
        assert d.macro_f1(preds, labels, mask, c) == float(ref_f1[present].mean())

    verdict(criterion, 2, worst_auroc <= 1e-12,
            f"100 instances: AUROC vs pair oracle max diff {worst_auroc:.1e} "
            f"(tol 1e-12); acc/F1 equal exactly")


# ---------------------------------------------------------------------------
# criterion 3: disambiguation-module properties


def test_criterion_3_disambiguation_properties_hold(criterion):
    rng = np.random.default_rng(987654321)
    worst_row_err = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(6, 25))

        state = AmbiguityState.create(n, c)
        for _ in range(3):
            probs = rng.dirichlet(np.full(c, float(rng.uniform(0.2, 3.0))), size=n)
            update_memory(state, probs, float(rng.uniform(0.0, 1.0)))
        worst_row_err = max(worst_row_err,
                            float(np.abs(state.memory.sum(axis=1) - 1.0).max()))
        assert state.memory.min() >= 0.0

        mem = state.memory.copy()
        mem[0] = 0.0
        mem[0, int(rng.integers(c))] = 1.0  # one-hot row
        mem[1] = 1.0 / c  # uniform row
        sc = ambiguity_scores(mem)
        assert sc[0] == 0.0
        # the uniform endpoint is exact except when 1/c itself rounds (c=3),
        # where the entropy sum lands one ulp short of 1
        assert sc[1] >= 1.0 - 5e-16
        assert sc.min() >= 0.0 and sc.max() <= 1.0

        upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.4), 1)
        labels = rng.integers(0, c, n)
        labels[:c] = np.arange(c)
        g = d.build_graph(np.argwhere(upper), rng.normal(size=(n, 3)), labels)

        emb = rng.normal(size=(n, int(rng.integers(2, 5))))
        pos_ratio = float(rng.uniform(0.5, 1.0))
        cfg = DisamConfig(
            pos_ratio=pos_ratio,
            neg_ratio=float(rng.uniform(0.05, pos_ratio)),
            aux_similarity_min=float(rng.uniform(-0.2, 0.95)),
            aux_samples=int(rng.integers(1, 6)),
        )
        nodes = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        group_seed = int(rng.integers(2**32))
        groups = build_contrast_groups(emb, g, nodes, cfg,
                                       np.random.default_rng(group_seed))

        assert set(groups.pools) == {
            int(v) for v in nodes if g.neighbors(int(v)).size > 0}
        for v, pools in groups.pools.items():
            nbrs = set(g.neighbors(v).tolist())
            pos = set(pools.pos.tolist())
            neg = set(pools.neg.tolist())
            aux = set(pools.aux_pos.tolist())
            assert not pos & neg
            assert pos | neg <= nbrs
            assert not aux & (nbrs | {v})
            assert len(pools.aux_pos) <= cfg.aux_samples

        # positive per-row rescaling must leave every pool untouched
        rescaled = emb * rng.uniform(0.1, 5.0, size=(n, 1))
        groups2 = build_contrast_groups(rescaled, g, nodes, cfg,
                                        np.random.default_rng(group_seed))
        assert groups.pools.keys() == groups2.pools.keys()
        for v in groups.pools:
            assert np.array_equal(groups.pools[v].pos, groups2.pools[v].pos)
            assert np.array_equal(groups.pools[v].neg, groups2.pools[v].neg)
            assert np.array_equal(groups.pools[v].aux_pos, groups2.pools[v].aux_pos)

    verdict(criterion, 3, worst_row_err < 1e-9,
            f"1000 cases: memory rows off by at most {worst_row_err:.1e} "
            f"(tol 1e-9); score endpoints, pool invariants, and rescaling "
            f"invariance never violated")


# ---------------------------------------------------------------------------
# criterion 4: disabled contrast equals plain cross-entropy training


def plain_ce_train(cfg, g, masks):
    """Independent cross-entropy-only loop mirroring the public trainer's
    seeding, evaluation cadence, early stopping, and best-snapshot rules.
    Its Adam step is the per-tensor oracle, not the trainer's flat one."""
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(streams[0])
    dropout_rng = np.random.default_rng(streams[1])
    params = init_model(cfg.backbone, g.num_features, g.num_classes,
                        hidden_dim=cfg.hidden_dim, num_layers=cfg.num_layers,
                        sgc_k=cfg.sgc_k, rng=init_rng)
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay, m={}, v={})
    records = []
    best_val = -1.0
    best_epoch = -1
    best_snapshot = params.snapshot()
    stale = 0
    for epoch in range(cfg.max_epochs):
        eval_out = forward(params, g)
        preds = eval_out.class_probs.argmax(axis=1)
        train_acc = accuracy(preds, g.labels, masks.train)
        val_acc = accuracy(preds, g.labels, masks.val)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_snapshot = params.snapshot()
            stale = 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break
        train_out = forward(params, g, training=True, dropout_rate=cfg.dropout,
                            rng=dropout_rng)
        ce = cross_entropy_loss(train_out, g.labels, masks.train)
        params.zero_grads()
        T.backward(ce)
        grads = {name: t.grad if t.grad is not None else np.zeros(t.shape)
                 for name, t in params.params.items()}
        adam_step(opt, params.named_values(), grads)
        records.append((epoch, ce.item(), train_acc, val_acc))
    else:
        final_out = forward(params, g)
        final_val = accuracy(final_out.class_probs.argmax(axis=1),
                             g.labels, masks.val)
        if final_val > best_val:
            best_val = final_val
            best_epoch = cfg.max_epochs
            best_snapshot = params.snapshot()
    params.restore(best_snapshot)
    return params, records, best_epoch, best_val


def test_criterion_4_disabled_contrast_is_plain_cross_entropy(criterion):
    spec = d.SbmSpec(class_sizes=(25, 25, 25), intra_p=0.2, inter_p=0.01,
                     class_means=np.eye(3), noise_scale=0.5, seed=0)
    g = d.sbm_generate(spec)
    masks = d.make_split(g, rng=np.random.default_rng(0))
    base = dict(hidden_dim=16, dropout=0.3, max_epochs=50, patience=50, seed=3)
    ref_params, ref_records, ref_best_epoch, ref_best_val = plain_ce_train(
        d.TrainConfig(**base), g, masks)

    arms = {
        "loss_weight=0": DisamConfig(loss_weight=0.0, score_threshold=0.2,
                                     warmup_epochs=5, refresh_period=5),
        "threshold=1.0": DisamConfig(loss_weight=1.0, score_threshold=1.0,
                                     warmup_epochs=5, refresh_period=5),
    }
    for tag, disam in arms.items():
        params, state, hist = d.train(d.TrainConfig(**base, disam=disam), g, masks)
        assert len(hist.records) == len(ref_records), tag
        for rec, (epoch, ce, train_acc, val_acc) in zip(hist.records, ref_records):
            assert rec.epoch == epoch, tag
            assert rec.loss_ce == ce and rec.loss_total == ce, tag
            assert rec.loss_contrast == 0.0, tag
            assert rec.train_acc == train_acc and rec.val_acc == val_acc, tag
        assert hist.best_epoch == ref_best_epoch, tag
        assert hist.best_val_acc == ref_best_val, tag
        for name in params.params:
            assert np.array_equal(params.params[name].values,
                                  ref_params.params[name].values), (tag, name)
        if tag == "threshold=1.0":
            assert all(r.num_ambiguous == 0 for r in hist.records)

    verdict(criterion, 4, True,
            f"loss_weight=0 and threshold=1.0 both reproduce the independent "
            f"plain-CE loop bit for bit over {len(ref_records)} epochs "
            f"(losses, accuracies, best epoch, final parameters)")


# ---------------------------------------------------------------------------
# criteria 5, 6, 8: the shipped contested-region SBM preset


@pytest.fixture(scope="module")
def preset_runs():
    """CE and contrast-regularized runs on the shipped preset, seeds 0-2."""
    g = d.sbm_generate(d.ambiguity_preset())
    start = time.perf_counter()
    runs = {}
    for seed in AMB_SEEDS:
        masks = split_for(g, seed)
        ce_params, _, _ = d.train(
            d.TrainConfig(seed=seed, disam=DisamConfig(loss_weight=0.0)), g, masks)
        dg_params, dg_state, _ = d.train(
            d.TrainConfig(seed=seed, disam=DisamConfig(loss_weight=1.0)), g, masks)
        runs[seed] = {
            "masks": masks,
            "ce_f1": macro_f1_of(ce_params, g, masks),
            "dg_f1": macro_f1_of(dg_params, g, masks),
            "dg_scores": dg_state.scores,
        }
    elapsed = time.perf_counter() - start
    return g, runs, elapsed


def test_criterion_5_contrast_improves_minority_macro_f1(criterion, preset_runs):
    g, runs, elapsed = preset_runs
    deltas = [100.0 * (runs[s]["dg_f1"] - runs[s]["ce_f1"]) for s in AMB_SEEDS]
    mean_delta = float(np.mean(deltas))
    ok = mean_delta >= 0.5 and min(deltas) >= -1.0 and elapsed < 300.0
    verdict(criterion, 5, ok,
            f"test Macro-F1 deltas {[f'{x:+.2f}' for x in deltas]} points, "
            f"mean {mean_delta:+.2f} (need >= +0.50, none < -1.00); "
            f"{elapsed:.0f}s for 6 runs (budget 300s)")


def test_criterion_6_ambiguity_concentrates_on_contested_region(criterion, preset_runs):
    g, runs, _ = preset_runs
    groups = strategy2_groups(g)
    lo = groups.labels.index("AdjMinority/LowHom")
    hi = groups.labels.index("NotAdjMinority/HighHom")
    pairs = []
    for seed in AMB_SEEDS:
        scores = runs[seed]["dg_scores"]
        pairs.append((float(scores[groups.group_ids == lo].mean()),
                      float(scores[groups.group_ids == hi].mean())))
    wins = sum(a > b for a, b in pairs)
    detail = ", ".join(f"seed {s}: {a:.3f} vs {b:.3f}"
                       for s, (a, b) in zip(AMB_SEEDS, pairs))
    verdict(criterion, 6, wins >= 2,
            f"mean score AdjMinority/LowHom vs NotAdjMinority/HighHom - "
            f"{detail}; {wins}/3 seeds higher (need >= 2)")


@pytest.fixture(scope="module")
def sensitivity_runs(preset_runs):
    g, runs, _ = preset_runs
    out = {"lam4": [], "thr02": []}
    for seed in AMB_SEEDS:
        masks = runs[seed]["masks"]
        lam4, _, _ = d.train(
            d.TrainConfig(seed=seed, disam=DisamConfig(loss_weight=4.0)), g, masks)
        thr02, _, _ = d.train(
            d.TrainConfig(seed=seed, disam=DisamConfig(loss_weight=1.0,
                                                       score_threshold=0.2)),
            g, masks)
        out["lam4"].append(macro_f1_of(lam4, g, masks))
        out["thr02"].append(macro_f1_of(thr02, g, masks))
    return out


def test_criterion_8_sensitivity_orderings(criterion, preset_runs, sensitivity_runs):
    _, runs, _ = preset_runs
    lam1 = float(np.mean([runs[s]["dg_f1"] for s in AMB_SEEDS]))
    lam4 = float(np.mean(sensitivity_runs["lam4"]))
    thr08 = lam1  # the default-config runs use threshold 0.8
    thr02 = float(np.mean(sensitivity_runs["thr02"]))
    ok = lam1 >= lam4 and thr08 >= thr02
    verdict(criterion, 8, ok,
            f"mean Macro-F1: weight 1.0 {lam1:.4f} >= weight 4.0 {lam4:.4f}; "
            f"threshold 0.8 {thr08:.4f} >= threshold 0.2 {thr02:.4f} "
            f"(3 seeds each)")


# ---------------------------------------------------------------------------
# criterion 7: conditional real-citation-graph reproduction


def find_cora_bundle():
    root = os.environ.get("DISAMGNN_DATA")
    candidates = [os.path.join(root, "cora")] if root else []
    candidates.append(os.path.join("data", "cora"))
    for path in candidates:
        if os.path.isdir(path):
            return path
    return None


def test_criterion_7_cora_reproduction(criterion):
    path = find_cora_bundle()
    if path is None:
        criterion("criterion 7: SKIP - no cora bundle found under "
                  "$DISAMGNN_DATA/cora or data/cora")
        pytest.skip("cora bundle not provided")

    g, bundle_masks = d.load_bundle(path)
    start = time.perf_counter()
    ce_accs, dg_accs = [], []
    for seed in AMB_SEEDS:
        masks = bundle_masks if bundle_masks is not None else split_for(g, seed)
        for accs, weight in ((ce_accs, 0.0), (dg_accs, 1.0)):
            params, _, _ = d.train(
                d.TrainConfig(seed=seed, disam=DisamConfig(loss_weight=weight)),
                g, masks)
            accs.append(d.evaluate(params, g, masks, "test").acc)
    elapsed = time.perf_counter() - start
    ce_mean = 100.0 * float(np.mean(ce_accs))
    dg_mean = 100.0 * float(np.mean(dg_accs))
    ok = abs(ce_mean - 80.8) <= 3.0 and dg_mean >= ce_mean and elapsed < 900.0
    verdict(criterion, 7, ok,
            f"CE test acc {ce_mean:.1f} (need 80.8 +/- 3.0), with contrast "
            f"{dg_mean:.1f} (need >= CE); {elapsed:.0f}s (budget 900s)")


# ---------------------------------------------------------------------------
# criterion 9: every backbone trains cleanly on the separated preset


def test_criterion_9_all_backbones_train_cleanly(criterion):
    g = d.sbm_generate(d.separated_preset())
    masks = split_for(g, 0)
    cells = {}
    diverged = []
    for backbone in BACKBONES:
        for weight in (0.0, 1.0):
            # lr 1e-2: the 500-epoch cap is tight for the single linear
            # layer of sgc at the default 1e-3, which is purely a question
            # of optimizer speed, not capacity
            cfg = d.TrainConfig(backbone=backbone, max_epochs=500, seed=0,
                                lr=1e-2, disam=DisamConfig(loss_weight=weight))
            try:
                params, _, _ = d.train(cfg, g, masks)
            except d.TrainingDiverged:
                diverged.append((backbone, weight))
                continue
            cells[(backbone, weight)] = d.evaluate(params, g, masks, "test").acc
    ok = not diverged and all(acc > 0.70 for acc in cells.values())
    low = min(cells.values()) if cells else float("nan")
    verdict(criterion, 9, ok,
            f"4 backbones x (contrast off/on), 500-epoch cap: min test acc "
            f"{low:.3f} (need > 0.70), diverged={diverged or 'none'}")
