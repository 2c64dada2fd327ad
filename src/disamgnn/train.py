"""Full-graph training loop with ambiguity tracking and contrast refreshes.

Each epoch runs one eval-mode forward whose output (1) passes the
finiteness guard and competes for the best-validation slot; (2) feeds the
prediction memory and the accuracy bookkeeping; (3) on refresh epochs
(past warmup, every refresh_period) goes to ``ambiguity.refresh``, which
rebuilds the scores, ambiguous set and contrast pools; and (4) carries the
tape for the loss, cross entropy plus the weighted contrast term over the
pools from the last refresh, followed by one Adam step. With dropout > 0
the loss comes instead from a second, train-mode forward that draws the
dropout masks. A run that does not stop early ends with a pass at epoch
max_epochs that runs step (1) alone. The contrast term is identically zero
before the first refresh, when the ambiguous set is empty, or when
loss_weight is 0, which makes those configurations reproduce plain
cross-entropy training bit for bit.

Randomness is split into independent init/dropout/contrast streams derived
from the config seed, so identical configs give identical histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguityState, DisamConfig, jsd_contrast_loss, refresh, update_memory
from .graph import Graph, SplitMasks
from .metrics import MetricsReport, accuracy, metrics_report
from .models import ModelParams, cross_entropy_loss, forward, init_model
from .optim import AdamState, adam_step
from .tensor import Tensor, add, backward, scalar_mul

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "TrainingDiverged",
    "train",
    "evaluate",
]


@dataclass
class TrainConfig:
    backbone: str = "gcn"
    hidden_dim: int = 64
    num_layers: int = 2
    sgc_k: int | None = None
    dropout: float = 0.0
    lr: float = 1e-3
    weight_decay: float = 5e-4
    max_epochs: int = 8000
    patience: int = 200
    seed: int = 0
    disam: DisamConfig = field(default_factory=DisamConfig)

    def validate(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.sgc_k is not None and self.sgc_k < 0:
            raise ValueError("sgc_k must be None or >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError("weight_decay must be finite and >= 0")
        self.disam.validate()


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss_ce: float
    loss_contrast: float
    loss_total: float
    train_acc: float
    val_acc: float
    num_ambiguous: int
    mean_ambiguity: float


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int
    best_val_acc: float


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the class probabilities stop being finite."""


def train(
    cfg: TrainConfig, g: Graph, masks: SplitMasks
) -> tuple[ModelParams, AmbiguityState, TrainHistory]:
    """Train a backbone on one graph; returns the best-validation snapshot."""
    cfg.validate()
    if masks.train.size == 0 or masks.val.size == 0:
        raise ValueError("train and val masks must be non-empty")
    dc = cfg.disam

    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    dropout_rng = np.random.default_rng(streams[1])
    contrast_rng = np.random.default_rng(streams[2])

    params = init_model(
        cfg.backbone,
        g.num_features,
        g.num_classes,
        hidden_dim=cfg.hidden_dim,
        num_layers=cfg.num_layers,
        sgc_k=cfg.sgc_k,
        rng=np.random.default_rng(streams[0]),
    )
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    state = AmbiguityState.create(g.num_nodes, g.num_classes)
    groups = None
    records: list[EpochRecord] = []
    best_val = -1.0
    best_epoch = -1
    best_snapshot = params.snapshot()
    stale = 0

    for epoch in range(cfg.max_epochs + 1):
        out = forward(params, g)
        if not np.isfinite(out.class_probs).all():
            raise TrainingDiverged(f"non-finite class probabilities at epoch {epoch}, lr={cfg.lr}")
        preds = out.class_probs.argmax(axis=1)
        val_acc = accuracy(preds, g.labels, masks.val)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_snapshot = params.snapshot()
            stale = 0
        else:
            stale += 1
        if epoch == cfg.max_epochs:
            break  # the extra pass only evaluates the final update
        update_memory(state, out.class_probs, dc.memory_decay)
        if stale >= cfg.patience:
            break
        train_acc = accuracy(preds, g.labels, masks.train)

        if epoch >= dc.warmup_epochs and epoch % dc.refresh_period == 0:
            groups = refresh(state, out.embeddings.values, g, dc, contrast_rng)

        if cfg.dropout > 0:
            out = forward(params, g, training=True, dropout_rate=cfg.dropout, rng=dropout_rng)
        ce = cross_entropy_loss(out, g.labels, masks.train)
        if groups:
            contrast = jsd_contrast_loss(out.embeddings, groups)
            total = add(ce, scalar_mul(Tensor(dc.loss_weight), contrast))
            contrast_val = contrast.item()
        else:
            contrast_val = 0.0
            total = ce
        total_val = total.item()
        if not math.isfinite(total_val):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}: ce={ce.item()}, "
                f"contrast={contrast_val}, backbone={cfg.backbone}, lr={cfg.lr}"
            )

        params.zero_grads()
        backward(total)
        adam_step(opt, params.flat, params.grad)

        records.append(
            EpochRecord(
                epoch=epoch,
                loss_ce=ce.item(),
                loss_contrast=contrast_val,
                loss_total=total_val,
                train_acc=train_acc,
                val_acc=val_acc,
                num_ambiguous=int(state.ambiguous.size),
                mean_ambiguity=float(state.scores.mean()),
            )
        )

    params.restore(best_snapshot)
    history = TrainHistory(records=records, best_epoch=best_epoch, best_val_acc=best_val)
    return params, state, history


def evaluate(
    params: ModelParams, g: Graph, masks: SplitMasks, which: str = "test"
) -> MetricsReport:
    """Metrics for one split using an eval-mode forward."""
    out = forward(params, g)
    return metrics_report(out.class_probs, g.labels, masks.mask(which), g.num_classes)
