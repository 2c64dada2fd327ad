"""Training-loop behavior tests on a small, easily separable SBM graph.

Covers determinism, the exact equivalence of disabled-contrast
configurations with plain cross-entropy training, per-epoch loss
bookkeeping, refresh scheduling, early stopping, and divergence detection.
"""

import sys

import numpy as np
import pytest

import disamgnn as d
from disamgnn import tensor as T


def small_graph(seed=0):
    spec = d.SbmSpec(class_sizes=(25, 25, 25), intra_p=0.2, inter_p=0.01,
                     class_means=np.eye(3), noise_scale=0.5, seed=seed)
    return d.sbm_generate(spec)


def small_masks(g, seed=0):
    return d.make_split(g, rng=np.random.default_rng(seed))


def run(cfg, g=None, masks=None):
    g = small_graph() if g is None else g
    masks = small_masks(g) if masks is None else masks
    return d.train(cfg, g, masks)


def records_close(a, b, *, ignore_ambiguous=False):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.epoch == rb.epoch
        assert ra.loss_ce == rb.loss_ce
        assert ra.loss_contrast == rb.loss_contrast
        assert ra.loss_total == rb.loss_total
        assert ra.train_acc == rb.train_acc
        assert ra.val_acc == rb.val_acc
        if not ignore_ambiguous:
            assert ra.num_ambiguous == rb.num_ambiguous


def test_training_is_deterministic():
    cfg = d.TrainConfig(max_epochs=60, patience=60, dropout=0.3, seed=4,
                        disam=d.DisamConfig(warmup_epochs=10,
                                            refresh_period=5))
    p1, s1, h1 = run(cfg)
    p2, s2, h2 = run(cfg)
    records_close(h1.records, h2.records)
    assert h1.best_epoch == h2.best_epoch
    for name in p1.params:
        assert np.array_equal(p1.params[name].values,
                              p2.params[name].values), name
    assert np.array_equal(s1.memory, s2.memory)


def test_disabled_contrast_matches_plain_cross_entropy_exactly():
    # a zero loss weight and an unreachable threshold must both walk the
    # bit-identical parameter trajectory of plain cross-entropy training;
    # only the ambiguous-set bookkeeping may differ between them
    base = dict(max_epochs=80, patience=80, dropout=0.25, seed=9)
    cfg_ce = d.TrainConfig(**base, disam=d.DisamConfig(loss_weight=0.0))
    cfg_thr = d.TrainConfig(**base, disam=d.DisamConfig(
        loss_weight=1.0, score_threshold=1.0,
        warmup_epochs=10, refresh_period=5))
    cfg_ce.disam.warmup_epochs = 10
    cfg_ce.disam.refresh_period = 5
    p_ce, _, h_ce = run(cfg_ce)
    p_thr, _, h_thr = run(cfg_thr)
    records_close(h_ce.records, h_thr.records, ignore_ambiguous=True)
    for name in p_ce.params:
        assert np.array_equal(p_ce.params[name].values,
                              p_thr.params[name].values), name
    assert all(r.loss_contrast == 0.0 for r in h_thr.records)
    assert all(r.num_ambiguous == 0 for r in h_thr.records)


def test_loss_bookkeeping_identity():
    weight = 2.0
    cfg = d.TrainConfig(max_epochs=40, patience=40, seed=3,
                        disam=d.DisamConfig(loss_weight=weight,
                                            score_threshold=0.2,
                                            warmup_epochs=8,
                                            refresh_period=4))
    _, _, hist = run(cfg)
    saw_contrast = False
    for r in hist.records:
        assert r.loss_total == pytest.approx(
            r.loss_ce + weight * r.loss_contrast, abs=1e-9)
        if r.epoch < 8:
            assert r.loss_contrast == 0.0
            assert r.loss_total == r.loss_ce
        if r.loss_contrast > 0:
            saw_contrast = True
    assert saw_contrast, "the contrast term never activated"


def test_refresh_schedule_controls_ambiguous_set():
    warmup, period = 12, 4
    cfg = d.TrainConfig(max_epochs=30, patience=30, seed=5,
                        disam=d.DisamConfig(score_threshold=0.2,
                                            warmup_epochs=warmup,
                                            refresh_period=period))
    _, _, hist = run(cfg)
    for r in hist.records:
        if r.epoch < warmup:
            assert r.num_ambiguous == 0
    # between refreshes the selection is frozen
    for ra, rb in zip(hist.records, hist.records[1:]):
        if rb.epoch >= warmup and rb.epoch % period != 0:
            assert rb.num_ambiguous == ra.num_ambiguous


def test_contrast_pairs_compile_once_per_refresh(monkeypatch):
    from disamgnn import ambiguity

    compile_pairs = ambiguity._compile_pairs
    compiles = []

    def counting(groups):
        compiles.append(len(groups))
        return compile_pairs(groups)

    monkeypatch.setattr(ambiguity, "_compile_pairs", counting)
    cfg = d.TrainConfig(max_epochs=30, patience=30, seed=2,
                        disam=d.DisamConfig(score_threshold=1e-6, loss_weight=1.0,
                                            warmup_epochs=10, refresh_period=10))
    _, _, hist = run(cfg)
    assert sum(r.loss_contrast > 0 for r in hist.records) == 20
    assert len(compiles) == 2 and all(compiles)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_one_eval_forward_per_epoch_and_a_train_forward_only_for_dropout(monkeypatch, dropout):
    module = sys.modules["disamgnn.train"]
    inner = module.forward
    training_flags = []

    def counting(*args, **kwargs):
        training_flags.append(kwargs.get("training", False))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "forward", counting)
    epochs = 30
    cfg = d.TrainConfig(max_epochs=epochs, patience=epochs, dropout=dropout, seed=2,
                        disam=d.DisamConfig(score_threshold=0.2, warmup_epochs=10,
                                            refresh_period=5))
    _, _, hist = run(cfg)
    assert len(hist.records) == epochs
    assert training_flags.count(False) == epochs + 1
    assert training_flags.count(True) == (epochs if dropout > 0 else 0)


def two_forward_train(cfg, g, masks):
    """Reference loop whose loss always comes from a second, train-mode
    forward, with the public trainer's seeding, refresh and snapshot rules."""
    dc = cfg.disam
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    dropout_rng = np.random.default_rng(streams[1])
    contrast_rng = np.random.default_rng(streams[2])
    params = d.init_model(cfg.backbone, g.num_features, g.num_classes,
                          hidden_dim=cfg.hidden_dim, num_layers=cfg.num_layers,
                          sgc_k=cfg.sgc_k, rng=np.random.default_rng(streams[0]))
    opt = d.AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    state = d.AmbiguityState.create(g.num_nodes, g.num_classes)
    groups = None
    records = []
    best_val, best_epoch, best_snapshot = -1.0, -1, params.snapshot()
    for epoch in range(cfg.max_epochs):
        eval_out = d.forward(params, g)
        d.update_memory(state, eval_out.class_probs, dc.memory_decay)
        preds = eval_out.class_probs.argmax(axis=1)
        train_acc = d.accuracy(preds, g.labels, masks.train)
        val_acc = d.accuracy(preds, g.labels, masks.val)
        if val_acc > best_val:
            best_val, best_epoch, best_snapshot = val_acc, epoch, params.snapshot()
        if epoch >= dc.warmup_epochs and epoch % dc.refresh_period == 0:
            state.scores = d.ambiguity_scores(state.memory)
            state.ambiguous = d.select_ambiguous(state.scores, dc.score_threshold)
            groups = None
            if state.ambiguous.size:
                groups = d.build_contrast_groups(eval_out.embeddings.values, g,
                                                 state.ambiguous, dc, contrast_rng)
        train_out = d.forward(params, g, training=True, dropout_rate=cfg.dropout,
                              rng=dropout_rng)
        ce = d.cross_entropy_loss(train_out, g.labels, masks.train)
        total, contrast_val = ce, 0.0
        if groups is not None and len(groups):
            contrast = d.jsd_contrast_loss(train_out.embeddings, groups)
            total = T.add(ce, T.scalar_mul(T.Tensor(dc.loss_weight), contrast))
            contrast_val = contrast.item()
        params.zero_grads()
        T.backward(total)
        d.adam_step(opt, params.flat,
                    np.concatenate([t.grad for t in params.params.values()], axis=None))
        records.append(d.EpochRecord(epoch, ce.item(), contrast_val, total.item(),
                                     train_acc, val_acc, int(state.ambiguous.size),
                                     float(state.scores.mean())))
    final_out = d.forward(params, g)
    if d.accuracy(final_out.class_probs.argmax(axis=1), g.labels, masks.val) > best_val:
        best_epoch, best_snapshot = cfg.max_epochs, params.snapshot()
    params.restore(best_snapshot)
    return params, records, best_epoch


def test_single_forward_matches_two_forward_loop_bit_for_bit():
    cfg = d.TrainConfig(max_epochs=60, patience=60, seed=6,
                        disam=d.DisamConfig(loss_weight=1.0, score_threshold=0.2,
                                            warmup_epochs=10, refresh_period=5))
    g = small_graph()
    masks = small_masks(g)
    params, _, hist = d.train(cfg, g, masks)
    ref_params, ref_records, ref_best = two_forward_train(cfg, g, masks)
    assert any(r.loss_contrast > 0 for r in hist.records)
    assert hist.records == ref_records
    assert hist.best_epoch == ref_best
    for name in params.params:
        assert np.array_equal(params.params[name].values,
                              ref_params.params[name].values), name


def test_early_stopping_honors_patience():
    cfg = d.TrainConfig(max_epochs=5000, patience=12, seed=1)
    _, _, hist = run(cfg)
    assert len(hist.records) < 5000
    assert len(hist.records) == hist.best_epoch + cfg.patience
    last_val = max(r.val_acc for r in hist.records)
    assert hist.best_val_acc == last_val


def test_returned_params_are_best_snapshot_not_last():
    cfg = d.TrainConfig(max_epochs=50, patience=50, seed=6)
    g = small_graph()
    masks = small_masks(g)
    params, _, hist = d.train(cfg, g, masks)
    out = d.forward(params, g)
    preds = out.class_probs.argmax(axis=1)
    val_acc = d.accuracy(preds, g.labels, masks.val)
    assert val_acc == pytest.approx(hist.best_val_acc, abs=0)


def test_divergence_is_detected():
    cfg = d.TrainConfig(max_epochs=20, patience=20, lr=1e200, seed=0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(d.TrainingDiverged):
            run(cfg)


def test_a_non_finite_loss_is_caught_before_its_step():
    # finite class probabilities and a finite contrast, but a weight that overflows their sum
    g = d.sbm_generate(d.ambiguity_preset())
    disam = d.DisamConfig(loss_weight=1e308, warmup_epochs=5, refresh_period=5, score_threshold=1e-6)
    cfg = d.TrainConfig(max_epochs=30, seed=0, disam=disam)
    with np.errstate(over="ignore"):
        with pytest.raises(d.TrainingDiverged, match="non-finite loss at epoch 5: ce=1.07"):
            run(cfg, g, small_masks(g))


def test_a_last_step_that_leaves_the_parameters_non_finite_is_caught(monkeypatch):
    # the extra pass after the last epoch goes through the same guard as every epoch
    module = sys.modules["disamgnn.train"]
    inner = module.adam_step
    epochs, steps = 12, []

    def poisoning(opt, flat, grad):
        inner(opt, flat, grad)
        steps.append(None)
        if len(steps) == epochs:
            flat[...] = np.nan

    monkeypatch.setattr(module, "adam_step", poisoning)
    cfg = d.TrainConfig(max_epochs=epochs, patience=epochs, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(d.TrainingDiverged, match=f"at epoch {epochs},"):
            run(cfg)
    assert len(steps) == epochs


def test_train_validates_masks_and_config():
    g = small_graph()
    masks = small_masks(g)
    empty = d.SplitMasks(train=np.empty(0, dtype=np.int64), val=masks.val,
                         test=masks.test)
    with pytest.raises(ValueError):
        d.train(d.TrainConfig(max_epochs=5), g, empty)
    with pytest.raises(ValueError):
        d.train(d.TrainConfig(max_epochs=0), g, masks)
    with pytest.raises(ValueError):
        d.train(d.TrainConfig(max_epochs=5, dropout=1.0), g, masks)


def test_evaluate_matches_direct_metrics():
    g = small_graph()
    masks = small_masks(g)
    cfg = d.TrainConfig(max_epochs=30, patience=30, seed=7)
    params, _, _ = d.train(cfg, g, masks)
    rep = d.evaluate(params, g, masks, which="test")
    out = d.forward(params, g)
    direct = d.metrics_report(out.class_probs, g.labels, masks.test,
                              g.num_classes)
    assert rep.acc == direct.acc
    assert rep.macro_f1 == direct.macro_f1
    assert rep.macro_auroc == direct.macro_auroc
    with pytest.raises(ValueError):
        d.evaluate(params, g, masks, which="bogus")


def test_history_epochs_are_contiguous_and_scores_bounded():
    cfg = d.TrainConfig(max_epochs=25, patience=25, seed=8,
                        disam=d.DisamConfig(warmup_epochs=5,
                                            refresh_period=5,
                                            score_threshold=0.5))
    _, state, hist = run(cfg)
    assert [r.epoch for r in hist.records] == list(range(len(hist.records)))
    assert np.all(state.scores >= 0.0) and np.all(state.scores <= 1.0)
    assert np.all(state.memory >= 0.0)
    assert np.allclose(state.memory.sum(axis=1), 1.0, atol=1e-9)
