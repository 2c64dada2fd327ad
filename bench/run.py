"""Benchmark for disamgnn: `disamgnn train`, then `disamgnn analyze`, per workload.

    python3 bench/run.py --workload preset-ce --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run repeats whole rounds until ``--seconds`` have passed. A round trains
each of the workload's training seeds (derived from ``--seed``) through the
public CLI entry point ``disamgnn.cli.main``, analyzes the checkpoint, and
checks every artifact (bench/checks.py). With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it wraps the package's modules
from outside (bench/spans.py) and prints per-layer self times and counts.
The last line of stdout is one JSON object. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads, so every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import sbm
import spans
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    lam: float
    epochs: int
    warmup: int  # refreshes happen at epochs >= warmup that are multiples of refresh
    refresh: int
    seeds_per_round: int
    scale: int = 0  # 0: the sbm:ambiguity preset; n: a bench/sbm.py graph n times its size


# The threshold sits below every score, so each refresh selects every node:
# the contrast term's largest workload, the same for every training seed.
THRESHOLD = 1e-6
# Trains to its best validation epoch within the preset's 30 epochs.
LR = 0.03
WORKLOADS = {
    "preset-ce": Workload(lam=0.0, epochs=30, warmup=10, refresh=10, seeds_per_round=5),
    "preset-contrast": Workload(lam=1.0, epochs=30, warmup=10, refresh=10, seeds_per_round=5),
    "scaled-pipeline": Workload(lam=1.0, epochs=17, warmup=16, refresh=16, seeds_per_round=1, scale=10),
}
# name -> (unit, better); the order is the order printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_cmd_s": ("s", "lower"),
    "epoch_ms_p50": ("ms", "lower"),
    "analyze_cmd_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_macro_f1": ("ratio", "higher"),
    "minority_f1": ("ratio", "higher"),
}
OPS = ("matmul", "spmm", "add", "relu", "gather_rows", "row_dot", "softplus_elem", "row_l2_normalize", "weighted_sum")
TIMED = (
    ["tensor.backward"]
    + [f"tensor.{op}{sfx}" for op in OPS for sfx in ("", "_bwd")]
    + ["models.forward", "models.cross_entropy_loss", "models.cross_entropy_loss_bwd", "models.gcn_normalized_adjacency"]
    + ["ambiguity.jsd_contrast_loss", "ambiguity.build_contrast_groups", "ambiguity.update_memory"]
    + ["optim.adam_step", "graph.build_graph", "graph.node_homophily_vector"]
    + [f"data.{f}" for f in ("sbm_generate", "make_split", "load_bundle", "write_history_csv",
                             "write_ambiguity_csv", "save_checkpoint", "load_checkpoint",
                             "read_ambiguity_csv", "write_group_report_csv")]
    + ["regions.strategy1_groups", "regions.strategy2_groups", "regions.group_report"]
    + ["metrics.metrics_report", "metrics.macro_auroc"]
)
PER_LAYER = {f"{name}_ms": ("ms", "lower") for name in TIMED}
PER_LAYER.update({f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS})
PER_LAYER.update({
    "tensor.tape_nodes_per_epoch": ("count/epoch", "lower"),
    "models.forward_calls_per_epoch": ("count/epoch", "lower"),
    "ambiguity.contrast_pairs_per_epoch": ("count/epoch", "lower"),
    "ambiguity.refreshes": ("count", "lower"),
    "ambiguity.ambiguous_nodes": ("count", "lower"),
})


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "disamgnn", "__init__.py")):
        sys.exit(f"error: {SRC}/disamgnn not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import disamgnn.cli

    return disamgnn.cli


class EpochClock:
    """Timestamps each eval-mode forward that `train()` makes.

    train() makes one per epoch and one after the last epoch, so the first
    epochs+1 stamps of a train command bound its epochs.
    """

    def __init__(self, train_module):
        self.stamps: list[float] = []
        inner = train_module.forward

        def forward(*args, **kwargs):
            if not kwargs.get("training", False):
                self.stamps.append(perf_counter())
            return inner(*args, **kwargs)

        train_module.forward = forward


def _training_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([4_241, seed]).integers(0, 2**31 - 1, size=count)]


def _inputs(cli, w: Workload, seed: int, work: str):
    """Dataset argument, check reference and per-seed splits for this run."""
    from disamgnn import data, graph

    if w.scale:
        edges, features, labels = sbm.generate(sbm.scaled_spec(w.scale), seed)
        dataset = os.path.join(work, "scaled")
        sbm.write_bundle(dataset, edges, features, labels)
        g = graph.build_graph(edges, features, labels)
    else:
        dataset = "sbm:ambiguity"
        g = data.sbm_generate(data.get_preset("ambiguity"))
        src = np.repeat(np.arange(g.num_nodes), g.degrees())
        edges = np.stack([src, g.csr_targets], axis=1)
        edges = edges[edges[:, 0] < edges[:, 1]]
        features, labels = g.features, g.labels
    ref = checks.Reference(edges, features, labels)
    seeds = _training_seeds(seed, w.seeds_per_round)
    splits = {s: cli._split_for_seed(g, None, s) for s in seeds}
    return dataset, ref, seeds, splits


def _flags(w: Workload) -> list[str]:
    return [
        "--backbone", "gcn", "--lr", repr(LR), "--lambda", repr(w.lam),
        "--threshold", repr(THRESHOLD), "--epochs", str(w.epochs), "--patience", str(w.epochs),
        "--warmup", str(w.warmup), "--refresh", str(w.refresh),
    ]


def _cli(cli_module, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_module.main(argv)


class Run:
    def __init__(self, workload: str, seed: int, work: str, trace: bool):
        self.cli = _import_package()
        self.w = WORKLOADS[workload]
        self.work = work
        self.dataset, self.ref, self.seeds, self.splits = _inputs(self.cli, self.w, seed, work)
        self.tracer = None
        if trace:
            self.tracer = spans.Tracer()
            spans.install(self.tracer)
        self.clock = EpochClock(sys.modules["disamgnn.train"])
        self.setup, self.train_s, self.analyze_s, self.epochs_ms = [], [], [], []
        self.windows = []
        self.quality = {}  # seed -> (test macro-F1, minority F1, last |A|)
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, s):
        """Train, analyze and check one training seed: two CLI commands, five checks.

        A pass stops at its first failure; the operations it did not reach
        count as failed, so every pass attempts the same number.
        """
        ref, split = self.ref, self.splits[s]
        test = split.test
        train_dir = os.path.join(self.work, f"train-{s}")
        analyze_dir = os.path.join(self.work, f"analyze-{s}")
        seed_dir = os.path.join(train_dir, f"seed_{s}")
        ctx = {}

        def metrics():
            ctx["probs"], ctx["mine"], ctx["reported"] = checks.check_metrics(ref, split, train_dir, s)

        def ambiguity_csv():
            ctx["scores"] = checks.check_ambiguity_csv(
                os.path.join(seed_dir, "ambiguity.csv"), ref.num_nodes, THRESHOLD,
                int(ctx["hist"]["num_ambiguous"][-1]))

        steps = {
            "train": lambda: self._train(train_dir, s),
            "analyze": lambda: self._analyze(train_dir, analyze_dir, s),
            "history": lambda: ctx.update(hist=self._history(seed_dir)),
            "metrics": metrics,
            "ambiguity_csv": ambiguity_csv,
            "analyze_groups": lambda: checks.check_analyze(
                ref, analyze_dir, test, ctx["probs"], ctx["scores"], ctx["mine"]["test"]["acc"]),
            "beats_majority": lambda: checks.check_beats_majority(ref, test, ctx["mine"]["test"]["acc"]),
        }
        for k, (name, step) in enumerate(steps.items()):
            self.attempted += 1
            try:
                step()
            except Exception as exc:  # one failed operation must not end the run
                self.errors.append(f"seed {s} {name}: {exc}")
                if len(self.errors) <= 3:
                    traceback.print_exc(file=sys.stderr)
                self.attempted += len(steps) - k - 1
                self.failed += len(steps) - k
                return
        minority = int(np.argmin(np.bincount(ref.labels)))
        self.quality[s] = (
            ctx["reported"]["test"]["macro_f1"]["mean"],
            float(ctx["mine"]["test"]["per_class_f1"][minority]),
            int(ctx["hist"]["num_ambiguous"][-1]),
        )

    def _train(self, out_dir, s):
        self.clock.stamps.clear()
        t0 = perf_counter()
        rc = _cli(self.cli, ["train", "--dataset", self.dataset, "--out", out_dir, "--seeds", str(s)] + _flags(self.w))
        t1 = perf_counter()
        if rc != 0:
            raise RuntimeError(f"disamgnn train exited {rc}")
        stamps = self.clock.stamps[: self.w.epochs + 1]
        if len(stamps) != self.w.epochs + 1:
            raise RuntimeError(f"saw {len(stamps) - 1} epochs, want {self.w.epochs}")
        self.setup.append(stamps[0] - t0)
        self.train_s.append(t1 - t0)
        self.epochs_ms.extend(np.diff(stamps) * 1e3)
        self.windows.append((stamps[0], stamps[-1]))

    def _analyze(self, train_dir, out_dir, s):
        base = os.path.join(train_dir, f"seed_{s}")
        t0 = perf_counter()
        rc = _cli(self.cli, [
            "analyze", "--dataset", self.dataset, "--checkpoint", os.path.join(base, "checkpoint"),
            "--ambiguity", os.path.join(base, "ambiguity.csv"), "--out", out_dir, "--split-seed", str(s),
        ])
        if rc != 0:
            raise RuntimeError(f"disamgnn analyze exited {rc}")
        self.analyze_s.append(perf_counter() - t0)

    def _history(self, seed_dir):
        hist = checks.read_history(os.path.join(seed_dir, "history.csv"))
        checks.check_history(hist, self.w.epochs, self.w.lam, self.w.warmup, self.w.refresh)
        return hist

    def end_to_end(self) -> dict:
        med = statistics.median
        q = list(self.quality.values())
        return {
            "setup_s": med(self.setup),
            "train_cmd_s": med(self.train_s),
            "epoch_ms_p50": float(med(self.epochs_ms)),
            "analyze_cmd_s": med(self.analyze_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_macro_f1": med(x[0] for x in q),
            "minority_f1": med(x[1] for x in q),
        }

    def per_layer(self) -> dict:
        by_name, calls, by_layer, ops, forwards = spans.summarize(self.tracer, self.windows)
        passes = len(self.train_s)
        epochs = passes * self.w.epochs
        ms = 1e3 / passes
        out = {f"{name}_ms": by_name.get(name, 0.0) * ms for name in TIMED}
        out.update({f"{layer}.self_ms": by_layer.get(layer, 0.0) * ms for layer in LAYERS})
        out["tensor.tape_nodes_per_epoch"] = ops / epochs
        out["models.forward_calls_per_epoch"] = forwards / epochs
        out["ambiguity.contrast_pairs_per_epoch"] = self.tracer.pairs / epochs
        out["ambiguity.refreshes"] = calls.get("ambiguity.select_ambiguous", 0) / passes
        out["ambiguity.ambiguous_nodes"] = float(statistics.mean(x[2] for x in self.quality.values()))
        return out


def run_workload(args) -> int:
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(args.workload, args.seed, work, bool(args.trace))
        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < args.seconds:
            for s in run.seeds:
                run.one_pass(s)
            rounds += 1
        measured = perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work))
    if not run.quality:
        print("error: no pass completed; " + "; ".join(run.errors[:3]), file=sys.stderr)
        return 1
    e2e = run.end_to_end()
    table = dict(e2e)
    units = {k: v[0] for k, v in END_TO_END.items()}
    if args.trace:
        metrics = run.per_layer()
        table.update(metrics)
        units.update({k: v[0] for k, v in PER_LAYER.items()})
    else:
        metrics = e2e
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"passes {len(run.train_s)}  measured {measured:.1f} s  training seeds {run.seeds}")
    for name, value in table.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  attempted {run.attempted}  failed {run.failed}")
    for err in run.errors[:5]:
        print(f"  error: {err}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
