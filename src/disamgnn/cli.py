"""Command line interface: train, analyze, sweep, gen.

Datasets are bundle directories, ``sbm:<preset>`` synthetic graphs, or bare
names resolved under $DISAMGNN_DATA. All outputs are plain CSV/JSON and are
reproducible byte for byte for a fixed flag set. Exit codes: 0 on success,
2 for configuration errors (argparse), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import sys

import numpy as np

from . import data as dataio
from .graph import Graph, SplitMasks, _node_rows
from .ambiguity import DisamConfig, _usable_cpus
from .metrics import metrics_report
from .models import BACKBONES, forward
from .regions import group_report, strategy1_groups, strategy2_groups
from .train import TrainConfig, TrainingDiverged, train

__all__ = ["main", "build_parser"]

_SPLIT_STREAM = 104729  # distinct rng stream tag for split sampling


def _comma_list(text: str, cast, name: str, item: str, error=ValueError) -> list:
    """``text``'s non-blank comma-separated tokens through ``cast``; ``error`` names the list
    ``name`` when a token fails, none is left or an ``item`` repeats."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise error(f"bad {name} {text!r}") from exc
    if not values:
        raise error(f"{name} is empty")
    if len(set(values)) != len(values):
        raise error(f"{name} {text!r} repeats a {item}")
    return values


def _parse_seeds(text: str) -> list[int]:
    return _comma_list(text, int, "seed list", "seed", argparse.ArgumentTypeError)


# Hyperparameter flags per argument group, in --help order: flag -> the field
# it sets. Each flag's default is the field's default and its type is that
# default's type (int for sgc_k, whose default is None).
_TRAIN_FLAGS = {
    "backbone": "backbone", "hidden": "hidden_dim", "layers": "num_layers", "sgc-k": "sgc_k",
    "dropout": "dropout", "lr": "lr", "weight-decay": "weight_decay", "epochs": "max_epochs",
    "patience": "patience",
}
_DISAM_FLAGS = {
    "lambda": "loss_weight", "mu": "memory_decay", "threshold": "score_threshold",
    "eps1": "pos_ratio", "eps2": "neg_ratio", "tau": "aux_similarity_min",
    "k-aux": "aux_samples", "refresh": "refresh_period", "warmup": "warmup_epochs",
}
_GROUPS = (
    ("model and training", TrainConfig(), _TRAIN_FLAGS),
    ("ambiguity and contrast", DisamConfig(), _DISAM_FLAGS),
)


def _glue_option_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--option -x`` written ``--option=-x``: every option but --help takes a value.

    argparse reads a token that starts with '-' as an option unless it looks
    like -1 or -0.5, so -1e-3 or -1,2 would end in "expected one argument"
    instead of reaching validation. Only -h and tokens that start with '--' stay apart.
    """
    out = list(argv)
    for i in range(len(out) - 1, 0, -1):
        opt, value = out[i - 1], out[i]
        if (opt.startswith("--") and "=" not in opt and opt not in ("--", "--help")
                and value.startswith("-") and value != "-h" and not value.startswith("--")):
            out[i - 1 : i + 1] = [f"{opt}={value}"]
    return out


def _hyper_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    for title, defaults, flags in _GROUPS:
        group = p.add_argument_group(title)
        for flag, attr in flags.items():
            default = getattr(defaults, attr)
            group.add_argument(
                f"--{flag}", dest=attr, default=default,
                type=int if default is None else type(default),
                choices=list(BACKBONES) if attr == "backbone" else None,
            )
    return p


def _config_from_args(args, seed: int, **override) -> TrainConfig:
    """The validated config that ``args``, with fields replaced by ``override``, select."""
    values = {**vars(args), **override}
    train_kw = {attr: values[attr] for attr in _TRAIN_FLAGS.values()}
    disam_kw = {attr: values[attr] for attr in _DISAM_FLAGS.values()}
    cfg = TrainConfig(**train_kw, seed=seed, disam=DisamConfig(**disam_kw))
    cfg.validate()
    return cfg


def resolve_dataset(name: str) -> tuple[Graph, SplitMasks | None]:
    """Load ``name`` as a preset (sbm:x), a directory, or $DISAMGNN_DATA/name."""
    if name.startswith("sbm:"):
        return dataio.sbm_generate(dataio.get_preset(name[4:])), None
    if os.path.isdir(name):
        return dataio.load_bundle(name)
    root = os.environ.get("DISAMGNN_DATA")
    if root and os.path.isdir(os.path.join(root, name)):
        return dataio.load_bundle(os.path.join(root, name))
    raise FileNotFoundError(
        f"dataset {name!r} is not a directory, a known sbm: preset, "
        f"or a name under $DISAMGNN_DATA"
    )


def _split_for_seed(g: Graph, masks: SplitMasks | None, seed: int) -> SplitMasks:
    if masks is not None:
        return masks
    rng = np.random.default_rng([_SPLIT_STREAM, seed])
    return dataio.make_split(g, rng=rng)


def _aggregate(per_seed: list[dict]) -> dict:
    out: dict = {}
    for split in ("train", "val", "test"):
        out[split] = {}
        for key in ("acc", "macro_f1", "macro_auroc"):
            vals = np.array([m[split][key] for m in per_seed])
            out[split][key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


def _run_one_seed(cfg: TrainConfig, g: Graph, bundle_masks: SplitMasks | None):
    masks = _split_for_seed(g, bundle_masks, cfg.seed)
    params, state, history = train(cfg, g, masks)
    probs = forward(params, g).class_probs
    reports = {
        which: metrics_report(probs, g.labels, masks.mask(which), g.num_classes).to_dict()
        for which in ("train", "val", "test")
    }
    return params, state, history, reports


def cmd_train(args) -> int:
    configs = [_config_from_args(args, seed) for seed in args.seeds]
    g, bundle_masks = resolve_dataset(args.dataset)
    os.makedirs(args.out, exist_ok=True)
    per_seed = []
    for cfg in configs:
        params, state, history, reports = _run_one_seed(cfg, g, bundle_masks)
        seed_dir = os.path.join(args.out, f"seed_{cfg.seed}")
        os.makedirs(seed_dir, exist_ok=True)
        dataio.write_history_csv(history, os.path.join(seed_dir, "history.csv"))
        dataio.write_ambiguity_csv(state, os.path.join(seed_dir, "ambiguity.csv"))
        dataio.save_checkpoint(params, os.path.join(seed_dir, "checkpoint"), split_seed=cfg.seed)
        per_seed.append(reports)
        print(
            f"seed {cfg.seed}: best val acc {history.best_val_acc:.4f} "
            f"(epoch {history.best_epoch}), test acc {reports['test']['acc']:.4f}"
        )
    summary = {
        "dataset": args.dataset,
        "backbone": args.backbone,
        "seeds": args.seeds,
        "splits": _aggregate(per_seed),
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.join(args.out, 'metrics.json')}")
    return 0


def cmd_gen(args) -> int:
    spec = dataio.get_preset(args.preset)
    g = dataio.sbm_generate(spec)
    dataio.save_bundle(g, args.out, name=f"sbm-{args.preset}")
    print(
        f"wrote bundle {args.out}: {g.num_nodes} nodes, {g.num_edges} edges, "
        f"{g.num_classes} classes"
    )
    return 0


def cmd_analyze(args) -> int:
    if args.split_seed is not None and args.split_seed < 0:
        raise ValueError(f"--split-seed must be >= 0, got {args.split_seed}")
    g, bundle_masks = resolve_dataset(args.dataset)
    params = dataio.load_checkpoint(args.checkpoint)
    scores = _node_rows(dataio.read_ambiguity_csv(args.ambiguity)[0], args.ambiguity, g.num_nodes, 1)
    split_seed = args.split_seed
    if bundle_masks is None and split_seed is None:
        split_seed = dataio.checkpoint_split_seed(args.checkpoint)
        if split_seed is None:
            raise ValueError(
                f"{args.dataset} ships no splits and {args.checkpoint}.json records no "
                f"split_seed; pass --split-seed"
            )
    masks = _split_for_seed(g, bundle_masks, split_seed)
    mask = masks.mask(args.split)
    preds = forward(params, g).class_probs.argmax(axis=1)

    os.makedirs(args.out, exist_ok=True)
    by_strategy = {}
    for tag, groups in (("strategy1", strategy1_groups(g)), ("strategy2", strategy2_groups(g))):
        rows = group_report(groups, preds, g.labels, scores, mask)
        dataio.write_group_report_csv(rows, os.path.join(args.out, f"{tag}_report.csv"))
        by_strategy[tag] = rows
    dataio.write_csv(
        os.path.join(args.out, "ambiguity_by_group.csv"),
        ["strategy", "group", "count", "mean_ambiguity"],
        ([tag, r["group"], r["count"], r["mean_ambiguity"]]
         for tag, rows in by_strategy.items() for r in rows),
    )
    print(f"wrote group reports under {args.out}")
    return 0


# Flags `sweep --param` accepts -> the field each sets.
_SWEEPABLE = {
    flag: attr for flag, attr in {**_TRAIN_FLAGS, **_DISAM_FLAGS}.items()
    if flag not in ("backbone", "sgc-k", "epochs", "patience")
}


def _sweep_job(cfg: TrainConfig, g: Graph, bundle_masks: SplitMasks | None) -> dict:
    """Worker for one (value, seed) sweep cell; must stay picklable."""
    return _run_one_seed(cfg, g, bundle_masks)[-1]


def _sweep_workers(jobs: int, cells: int) -> int:
    """Worker processes for ``--jobs``: at most one per cell and per CPU."""
    return min(jobs, cells, _usable_cpus())


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.param not in _SWEEPABLE:
        raise ValueError(
            f"cannot sweep {args.param!r}; choose from {sorted(_SWEEPABLE)}"
        )
    attr = _SWEEPABLE[args.param]
    cast = type(getattr(args, attr))  # the field's type, as the flag parsed it
    values = _comma_list(args.values, cast, "--values list", "value")

    cells = [
        (value, _config_from_args(args, seed, **{attr: value}))
        for value in values
        for seed in args.seeds
    ]
    g, bundle_masks = resolve_dataset(args.dataset)
    jobs = (_sweep_job, [cfg for _, cfg in cells], itertools.repeat(g),
            itertools.repeat(bundle_masks))
    workers = _sweep_workers(args.jobs, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker pickles the graph once for each, so each
            # worker builds its propagation constants once
            results = list(pool.map(*jobs, chunksize=-(-len(cells) // workers)))
    else:
        results = list(map(*jobs))

    by_value: dict = {}
    for (value, _), reports in zip(cells, results):
        by_value.setdefault(value, []).append(reports)
    rows = []
    for value in values:
        test = _aggregate(by_value[value])["test"]
        row = [args.param, value, len(by_value[value])]
        for key in ("acc", "macro_f1", "macro_auroc"):
            row.extend([test[key]["mean"], test[key]["std"]])
        rows.append(row)
    directory = os.path.dirname(args.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    dataio.write_csv(
        args.out,
        [
            "param", "value", "num_seeds",
            "test_acc_mean", "test_acc_std",
            "test_macro_f1_mean", "test_macro_f1_std",
            "test_macro_auroc_mean", "test_macro_auroc_std",
        ],
        rows,
    )
    print(f"wrote {args.out} ({len(values)} values x {len(args.seeds)} seeds)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disamgnn",
        description="Ambiguity-aware GNN training and graph-region analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hyper = _hyper_parser()

    p_train = sub.add_parser("train", parents=[hyper], help="train one model per seed")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seeds", type=_parse_seeds, default=[0])
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("gen", help="materialize a synthetic dataset bundle")
    p_gen.add_argument("--preset", choices=list(dataio.PRESET_NAMES), required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="per-group reports for a trained model")
    p_an.add_argument("--dataset", required=True)
    p_an.add_argument("--checkpoint", required=True, help="checkpoint base path (no extension)")
    p_an.add_argument("--ambiguity", required=True, help="ambiguity.csv from train")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_an.add_argument("--split-seed", type=int, default=None,
                      help="seed for the split when the bundle ships none "
                           "(default: the seed recorded in the checkpoint)")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", parents=[hyper], help="grid over one hyperparameter")
    p_sw.add_argument("--dataset", required=True)
    p_sw.add_argument("--param", required=True)
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--out", required=True, help="sweep.csv path")
    p_sw.add_argument("--seeds", type=_parse_seeds, default=[0])
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_option_values(sys.argv[1:] if argv is None else argv))
    try:
        with np.errstate(all="ignore"):  # a diverging run reports itself in one error line
            return args.func(args)
    except (TrainingDiverged, FileNotFoundError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
