"""Span tracing of the disamgnn modules, installed from outside the package.

``install`` wraps every public function of each module under
``src/disamgnn`` and rebinds it in every module that imported it by name,
so calls between modules go through the wrapper. Each call records one span
(name, start, end, parent). The gradient function of each tape node that a
wrapped function returns is wrapped too, as ``<module>.<function>_bwd``.
Spans stay in memory; ``summarize`` turns them into self times and counts.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "models", "ambiguity", "optim", "train", "graph", "data", "regions", "metrics", "cli")
# The tape-op vocabulary of disamgnn.tensor: every public function but these.
NOT_OPS = {"tensor.backward", "tensor.softplus"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.pairs = 0  # contrast pairs seen by jsd_contrast_loss

    def wrap(self, name: str, fn):
        tensor_cls = sys.modules["disamgnn.tensor"].Tensor

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if (
                isinstance(out, tensor_cls)
                and out._backward_fn is not None
                and not hasattr(out._backward_fn, "_span")
            ):
                out._backward_fn = self.wrap(name + "_bwd", out._backward_fn)
            return out

        traced._span = name
        return traced

    def count_pairs(self, fn):
        def counted(embeddings, groups, **kwargs):
            self.pairs += sum(p.pos.size + p.aux_pos.size + p.neg.size for p in groups.pools.values())
            return fn(embeddings, groups, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    import disamgnn

    modules = {layer: sys.modules[f"disamgnn.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if f"{layer}.{name}" == "ambiguity.jsd_contrast_loss":
                obj = tracer.count_pairs(obj)
            wrappers[id(vars(mod)[name])] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in [disamgnn, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])


def summarize(tracer: Tracer, epoch_windows: list[tuple[float, float]]):
    """Self time and calls per span name and per layer, plus per-epoch counts.

    ``epoch_windows`` holds (first epoch start, end of last epoch) for each
    train command; tape ops and forwards are counted inside those windows.
    """
    starts = np.asarray(tracer.starts)
    durs = np.asarray(tracer.ends) - starts
    parents = np.asarray(tracer.parents, dtype=np.int64)
    child = np.zeros_like(durs)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durs[has_parent])
    self_time = durs - child
    by_name = defaultdict(float)
    calls = defaultdict(int)
    for name, t in zip(tracer.names, self_time.tolist()):
        by_name[name] += t
        calls[name] += 1
    by_layer = defaultdict(float)
    for name, t in by_name.items():
        by_layer[name.split(".", 1)[0]] += t
    names = np.asarray(tracer.names, dtype=object)
    is_op = np.array([n.startswith("tensor.") and not n.endswith("_bwd") and n not in NOT_OPS for n in tracer.names])
    is_forward = names == "models.forward"
    ops = forwards = 0
    for lo, hi in epoch_windows:
        a, b = np.searchsorted(starts, [lo, hi])
        ops += int(is_op[a:b].sum())
        forwards += int(is_forward[a:b].sum())
    return by_name, calls, by_layer, ops, forwards
