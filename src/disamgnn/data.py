"""Dataset bundles, stratified splits, SBM generation, and serialization.

A dataset bundle is a directory holding edges.tsv (two integer columns),
features.csv (dense real rows), labels.csv (one integer per node), an
optional splits.json, and meta.json. Checkpoints are a {base}.json manifest
plus a {base}.bin little-endian float64 blob and round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .graph import Graph, SplitMasks, build_graph
from .models import ModelParams, init_model
from .train import EpochRecord

__all__ = [
    "load_bundle",
    "save_bundle",
    "make_split",
    "SbmSpec",
    "block_probability_matrix",
    "sbm_generate",
    "ambiguity_preset",
    "separated_preset",
    "get_preset",
    "PRESET_NAMES",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_split_seed",
    "write_csv",
    "write_history_csv",
    "write_ambiguity_csv",
    "read_ambiguity_csv",
    "write_group_report_csv",
]


# ---------------------------------------------------------------------------
# bundles


def _read_json_object(path: str) -> dict:
    """Parse a JSON file whose top level must be an object; errors name the file."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(blob).__name__!r}")
    return blob


@contextlib.contextmanager
def _utf8_errors(path: str):
    """Re-raise a UnicodeDecodeError in the block as a ValueError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


_INT_BYTES = b"0123456789+- \t\r\n"
_FLOAT_BYTES = _INT_BYTES + b".eE,"


def _parse_table(path: str, loop, chars: bytes, row_shape=None, skiprows: int = 0, **loadtxt_kw):
    """The array ``loop()`` reads from ``path``, parsed by ``np.loadtxt`` where that agrees.

    ``loop`` is the reference: it defines what the file may hold and names the
    bad line otherwise. numpy's C parser returns the same array ~10x faster on
    plain input, but it skips blank lines, splits on more whitespace and line
    breaks than the loops, and rejects tokens Python's int() and float() take
    (``1_0``, non-ASCII digits). So its result is used only when the body after
    ``skiprows`` lines starts with a non-blank byte, holds only ``chars``, has
    no carriage return outside CRLF line ends, and parses to one row per line,
    each row of ``row_shape`` (any shape when None). Everything else,
    including every parse error, runs ``loop()``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", skiprows)
    body = parts[skiprows] if len(parts) > skiprows else b""
    if (
        body[:1].strip()
        and not body.translate(None, chars)
        and raw.count(b"\r") == raw.count(b"\r\n")
    ):
        try:
            table = np.loadtxt(
                path, comments=None, skiprows=skiprows, ndmin=1 if row_shape == () else 2,
                **loadtxt_kw,
            )
        except ValueError:
            pass
        else:
            lines = body.count(b"\n") + (not body.endswith(b"\n"))
            if len(table) == lines and row_shape in (None, table.shape[1:]):
                return table
    with _utf8_errors(path):
        return loop()


def _int64(text: str) -> int:
    """``int(text)``, raising ValueError where np.int64 cannot hold the value."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} does not fit in int64")
    return value


def _read_edges(path: str) -> np.ndarray:
    def loop():
        with open(path) as fh:
            content = fh.read().strip()
        if not content:
            return np.empty((0, 2), dtype=np.int64)
        rows = []
        for ln, line in enumerate(content.splitlines(), start=1):
            try:  # a wrong column count fails the unpacking, also with ValueError
                u, v = map(_int64, line.split())
            except ValueError:
                raise ValueError(f"{path}:{ln}: expected two integer columns") from None
            rows.append((u, v))
        return np.asarray(rows, dtype=np.int64)

    return _parse_table(path, loop, _INT_BYTES, row_shape=(2,), dtype=np.int64)


def _read_features(path: str) -> np.ndarray:
    def loop():
        rows = []
        width = None
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    vals = [float(tok) for tok in line.split(",")]
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: {exc}") from None
                if width is None:
                    width = len(vals)
                elif len(vals) != width:
                    raise ValueError(f"{path}:{ln}: ragged row ({len(vals)} vs {width} columns)")
                rows.append(vals)
        if not rows:
            raise ValueError(f"{path}: no feature rows")
        return np.asarray(rows, dtype=np.float64)

    return _parse_table(path, loop, _FLOAT_BYTES, dtype=np.float64, delimiter=",")


def _read_labels(path: str) -> np.ndarray:
    def loop():
        labels = []
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    labels.append(_int64(line))
                except ValueError:
                    raise ValueError(
                        f"{path}:{ln}: expected one integer label per row, got {line!r}"
                    ) from None
        return np.asarray(labels, dtype=np.int64)

    return _parse_table(path, loop, _INT_BYTES, row_shape=(), dtype=np.int64)


def load_bundle(path: str) -> tuple[Graph, SplitMasks | None]:
    """Read a bundle directory into a Graph and its optional split masks."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"dataset bundle directory not found: {path}")

    def p(name):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            raise FileNotFoundError(f"bundle is missing {name}: {full}")
        return full

    edges = _read_edges(p("edges.tsv"))
    features = _read_features(p("features.csv"))
    labels = _read_labels(p("labels.csv"))
    n = features.shape[0]
    if labels.size != n:
        raise ValueError(f"{p('labels.csv')}: {labels.size} labels for the {n} rows of features.csv")
    outside = edges[((edges < 0) | (edges >= n)).any(axis=1)].tolist()
    if outside:
        raise ValueError(f"{p('edges.tsv')}: edge {tuple(outside[0])} has an endpoint outside the {n} nodes")
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{p('features.csv')}: row {bad_rows[0] + 1} holds a non-finite value")

    num_classes = None
    meta_path = os.path.join(path, "meta.json")
    if os.path.isfile(meta_path):
        meta = _read_json_object(meta_path)
        num_classes = meta.get("num_classes")
        if isinstance(num_classes, bool) or not isinstance(num_classes, (int, type(None))):
            raise ValueError(f"{meta_path}: 'num_classes' must be of type int, got {num_classes!r}")
        if num_classes is not None and num_classes < 2:
            raise ValueError(f"{meta_path}: 'num_classes' is {num_classes}, graphs need at least 2")
        for key, actual in (
            ("num_nodes", features.shape[0]),
            ("num_features", features.shape[1]),
        ):
            if key in meta and meta[key] != actual:
                raise ValueError(f"{meta_path}: {key}={meta[key]} but files say {actual}")
    bound = num_classes if num_classes is not None else labels.max() + 1
    bad_rows = np.flatnonzero((labels < 0) | (labels >= bound))
    if bad_rows.size:
        r = bad_rows[0]
        raise ValueError(f"{p('labels.csv')}: row {r + 1} has label {labels[r]}, outside [0, {bound})")

    g = build_graph(edges, features, labels, num_classes=num_classes)

    masks = None
    splits_path = os.path.join(path, "splits.json")
    if os.path.isfile(splits_path):
        blob = _read_json_object(splits_path)
        ids = {}
        for key in ("train", "val", "test"):
            value = blob.get(key)
            if not isinstance(value, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in value
            ):
                raise ValueError(f"{splits_path}: {key!r} must be a list of integer node ids")
            outside = [i for i in value if not 0 <= i < g.num_nodes]
            if outside:
                raise ValueError(
                    f"{splits_path}: {key!r} references node {outside[0]} outside the "
                    f"graph's {g.num_nodes} nodes"
                )
            ids[key] = np.asarray(value, dtype=np.int64)
        masks = SplitMasks(**ids)
    return g, masks


def save_bundle(
    g: Graph, path: str, masks: SplitMasks | None = None, name: str = "dataset"
) -> None:
    """Write a Graph (and optional splits) as a bundle directory."""
    os.makedirs(path, exist_ok=True)
    # Each undirected edge once, as its arc with src < dst, in CSR order.
    src = np.repeat(np.arange(g.num_nodes), g.degrees())
    upper = src < g.csr_targets
    with open(os.path.join(path, "edges.tsv"), "w") as fh:
        fh.writelines(
            f"{u}\t{v}\n" for u, v in zip(src[upper].tolist(), g.csr_targets[upper].tolist())
        )
    with open(os.path.join(path, "features.csv"), "w") as fh:
        for row in g.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(os.path.join(path, "labels.csv"), "w") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
    meta = {
        "name": name,
        "num_nodes": g.num_nodes,
        "num_features": g.num_features,
        "num_classes": g.num_classes,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    if masks is not None:
        blob = {
            "train": masks.train.tolist(),
            "val": masks.val.tolist(),
            "test": masks.test.tolist(),
        }
        with open(os.path.join(path, "splits.json"), "w") as fh:
            json.dump(blob, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# splits


_TRAIN_FRACTION, _VAL_FRACTION = 0.05, 0.1  # the test split gets the rest


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    base = np.floor(quotas).astype(np.int64)
    # ≥ 0: Σ⌊f·cᵢ⌋ ≤ ⌊f·n⌋ ≤ round(f·n); float64 0.05, 0.1 exceed the reals, so floors are exact
    leftover = total - int(base.sum())
    # Stable tie-break: larger remainder first, then lower class index.
    order = np.lexsort((np.arange(quotas.size), -(quotas - base)))
    base[order[:leftover]] += 1
    return base


def make_split(g: Graph, rng: np.random.Generator) -> SplitMasks:
    """Deterministic, stratified 5%/10%/85% train/val/test node split.

    Allocates per class by largest remainder and guarantees at least one
    train node for every class. All three parts must come out non-empty
    and every class must have at least one member.
    """
    n = g.num_nodes
    n_train = int(round(_TRAIN_FRACTION * n))
    n_val = int(round(_VAL_FRACTION * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split sizes ({n_train}, {n_val}, {n_test}) must all be >= 1")

    class_counts = np.bincount(g.labels, minlength=g.num_classes)
    if (class_counts == 0).any():
        empty = np.flatnonzero(class_counts == 0).tolist()
        raise ValueError(f"classes without members cannot be stratified: {empty}")

    train_alloc = _largest_remainder(_TRAIN_FRACTION * class_counts, n_train)
    # Every class contributes at least one train node; borrow from the
    # largest allocation when rounding starved a class.
    for c in range(g.num_classes):
        if train_alloc[c] == 0:
            donor = int(np.argmax(train_alloc))
            if train_alloc[donor] <= 1:
                raise ValueError("train split too small to cover every class")
            train_alloc[donor] -= 1
            train_alloc[c] += 1
    val_alloc = _largest_remainder(_VAL_FRACTION * class_counts, n_val)
    val_alloc = np.minimum(val_alloc, class_counts - train_alloc)  # never beyond what train left
    shortfall = n_val - int(val_alloc.sum())
    if shortfall > 0:
        room = class_counts - train_alloc - val_alloc
        order = np.argsort(-room, kind="stable")
        for c in order:
            take = min(shortfall, int(room[c]))
            val_alloc[c] += take
            shortfall -= take
            if shortfall == 0:
                break

    train_parts, val_parts, test_parts = [], [], []
    for c in range(g.num_classes):
        members = np.flatnonzero(g.labels == c)
        members = rng.permutation(members)
        t, v = int(train_alloc[c]), int(val_alloc[c])
        train_parts.append(members[:t])
        val_parts.append(members[t : t + v])
        test_parts.append(members[t + v :])
    return SplitMasks(
        train=np.concatenate(train_parts),
        val=np.concatenate(val_parts),
        test=np.concatenate(test_parts),
    )


# ---------------------------------------------------------------------------
# stochastic block model


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model with Gaussian features at per-class means."""

    class_sizes: tuple[int, ...]
    intra_p: object  # scalar or per-class sequence of within-block probabilities
    inter_p: object  # scalar or (C, C) array of off-diagonal probabilities
    class_means: np.ndarray
    noise_scale: float = 1.0
    seed: int = 0


def block_probability_matrix(spec: SbmSpec) -> np.ndarray:
    """(C, C) symmetric edge-probability matrix from intra/inter settings."""
    c = len(spec.class_sizes)
    inter = np.asarray(spec.inter_p, dtype=np.float64)
    if inter.ndim == 0:
        probs = np.full((c, c), float(inter))
    elif inter.shape == (c, c):
        probs = inter.copy()
    else:
        raise ValueError(f"inter_p must be scalar or ({c}, {c}) matrix")
    intra = np.asarray(spec.intra_p, dtype=np.float64)
    if intra.ndim == 0:
        intra = np.full(c, float(intra))
    elif intra.shape != (c,):
        raise ValueError(f"intra_p must be scalar or length-{c} per-class values")
    np.fill_diagonal(probs, intra)
    if not np.allclose(probs, probs.T):
        raise ValueError("inter_p matrix must be symmetric")
    if probs.min() < 0 or probs.max() > 1:
        raise ValueError("edge probabilities must lie in [0, 1]")
    return probs


def sbm_generate(spec: SbmSpec) -> Graph:
    """Sample a graph: Bernoulli block edges, Gaussian features per class."""
    sizes = np.asarray(spec.class_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size < 2 or (sizes <= 0).any():
        raise ValueError("class_sizes must list >= 2 positive block sizes")
    means = np.asarray(spec.class_means, dtype=np.float64)
    if means.shape[0] != sizes.size:
        raise ValueError("class_means must have one row per class")
    probs = block_probability_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    labels = np.repeat(np.arange(sizes.size), sizes)

    edge_chunks = []
    for a in range(sizes.size):
        for b in range(a, sizes.size):
            p = probs[a, b]
            if a == b:
                iu, ju = np.triu_indices(sizes[a], k=1)
                hit = rng.random(iu.size) < p
                if hit.any():
                    edge_chunks.append(
                        np.stack([starts[a] + iu[hit], starts[a] + ju[hit]], axis=1)
                    )
            else:
                hits = rng.random((sizes[a], sizes[b])) < p
                ia, ib = np.nonzero(hits)
                if ia.size:
                    edge_chunks.append(
                        np.stack([starts[a] + ia, starts[b] + ib], axis=1)
                    )
    edges = np.concatenate(edge_chunks) if edge_chunks else np.empty((0, 2), np.int64)
    features = means[labels] + spec.noise_scale * rng.standard_normal(
        (n, means.shape[1])
    )
    return build_graph(edges, features, labels, num_classes=sizes.size)


def ambiguity_preset(seed: int = 362) -> SbmSpec:
    """Two major blocks plus a small minority wired 5x more strongly to both.

    The minority class sits on the boundary between the majors: its
    inter-block probability (0.0075) is five times the major-major one
    (0.0015), and the features share one unit of Gaussian noise around
    simplex corners, so minority nodes are the contested region.  The
    minority block itself is dense (intra 0.38 vs 0.04 for the majors),
    which keeps roughly four out of five minority neighbors in-class;
    the contested fringe is the remainder plus a handful of sparse
    boundary nodes.  The default generator seed picks a realization
    where that fringe is populated and the contrast dynamics settle
    early; changing the seed changes the realized graph substantially.
    """
    inter = np.array(
        [
            [0.0, 0.0015, 0.0075],
            [0.0015, 0.0, 0.0075],
            [0.0075, 0.0075, 0.0],
        ]
    )
    return SbmSpec(
        class_sizes=(300, 300, 60),
        intra_p=(0.04, 0.04, 0.38),
        inter_p=inter,
        class_means=np.eye(3),
        noise_scale=1.0,
        seed=seed,
    )


def separated_preset(seed: int = 11) -> SbmSpec:
    """Three equal, well-separated blocks; easy for any backbone."""
    return SbmSpec(
        class_sizes=(100, 100, 100),
        intra_p=0.05,
        inter_p=0.002,
        class_means=np.eye(3),
        noise_scale=0.5,
        seed=seed,
    )


PRESET_NAMES = ("ambiguity", "separated")


def get_preset(name: str) -> SbmSpec:
    if name == "ambiguity":
        return ambiguity_preset()
    if name == "separated":
        return separated_preset()
    raise ValueError(f"unknown preset {name!r}; available: {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_DTYPE = "<f8"


def save_checkpoint(params: ModelParams, base_path: str, split_seed: int | None = None) -> None:
    """Write {base}.json manifest and {base}.bin float64 blob.

    ``split_seed`` is the seed whose split trained the parameters; it is
    recorded in the manifest (null when unknown) for ``analyze``.
    """
    entries = []
    offset = 0
    chunks = []
    for name, t in params.params.items():
        arr = np.ascontiguousarray(t.values, dtype=_CKPT_DTYPE)
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format": "disamgnn-checkpoint",
        "version": 1,
        "backbone": params.backbone,
        "in_dim": params.in_dim,
        "hidden_dim": params.hidden_dim,
        "num_classes": params.num_classes,
        "num_layers": params.num_layers,
        "sgc_k": params.sgc_k,
        "split_seed": split_seed,
        "dtype": _CKPT_DTYPE,
        "total_bytes": offset,
        "entries": entries,
    }
    directory = os.path.dirname(base_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(base_path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    with open(base_path + ".bin", "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(base_path: str) -> ModelParams:
    """Read a checkpoint pair back into ModelParams, validating the layout.

    The entries must name and shape, in order, the parameters that
    init_model builds from the manifest's architecture fields.
    """
    path = base_path + ".json"
    manifest = _read_json_object(path)
    if manifest.get("format") != "disamgnn-checkpoint":
        raise ValueError(f"{path} is not a checkpoint manifest")
    if manifest.get("dtype") != _CKPT_DTYPE:
        raise ValueError(f"{path}: unsupported checkpoint dtype {manifest.get('dtype')!r}")

    def field(key, kind):
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{path}: {key!r} must be of type {kind.__name__}, got {value!r}")
        return value

    try:
        params = init_model(
            field("backbone", str), field("in_dim", int), field("num_classes", int),
            hidden_dim=field("hidden_dim", int), num_layers=field("num_layers", int),
            sgc_k=field("sgc_k", int), rng=np.random.default_rng(0),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    entries = field("entries", list)
    found = [(e.get("name"), e.get("shape")) if isinstance(e, dict) else e for e in entries]
    layout = [(name, list(t.shape)) for name, t in params.params.items()]
    for i, (got, want) in enumerate(itertools.zip_longest(found, layout)):
        if got != want:
            raise ValueError(
                f"{path}: entry {i} is {got}, the {params.backbone} layout expects {want}"
            )
    total = field("total_bytes", int)
    need = sum(t.values.nbytes for t in params.params.values())
    with open(base_path + ".bin", "rb") as fh:
        blob = fh.read()
    if len(blob) != need or total != need:
        raise ValueError(
            f"{base_path}.bin is {len(blob)} bytes and the manifest's total_bytes is {total}, "
            f"the {params.backbone} layout needs {need}"
        )
    offset = 0
    for entry, (name, t) in zip(entries, params.params.items()):
        if entry.get("offset") != offset:
            raise ValueError(f"{path}: entry {name!r} is at offset {entry.get('offset')!r}, not {offset}")
        t.values[...] = np.frombuffer(
            blob, dtype=_CKPT_DTYPE, count=t.values.size, offset=offset
        ).reshape(t.shape)
        offset += t.values.nbytes
    return params


def checkpoint_split_seed(base_path: str) -> int | None:
    """The split seed recorded in a checkpoint manifest, or None if absent."""
    seed = _read_json_object(base_path + ".json").get("split_seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ValueError(f"{base_path}.json has a split_seed {seed!r} that is not an integer >= 0")
    return seed


# ---------------------------------------------------------------------------
# csv surfaces

HISTORY_COLUMNS = tuple(f.name for f in fields(EpochRecord))


def _cell(value):
    """A CSV cell: floats as their repr, NaN as an empty cell, others as is."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return value


def write_csv(path: str, header, rows) -> None:
    """Write a header row and data rows, formatting every cell with _cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_history_csv(history, path: str) -> None:
    rows = ([getattr(r, col) for col in HISTORY_COLUMNS] for r in history.records)
    write_csv(path, HISTORY_COLUMNS, rows)


def write_ambiguity_csv(state, path: str) -> None:
    n = state.scores.shape[0]
    flags = np.zeros(n, dtype=np.int64)
    flags[state.ambiguous] = 1
    rows = zip(range(n), state.scores.tolist(), flags.tolist())
    write_csv(path, ["node_id", "score", "is_ambiguous"], rows)


_AMBIGUITY_ROW = np.dtype([("node_id", np.int64), ("score", np.float64), ("is_ambiguous", bool)])


def read_ambiguity_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (scores, is_ambiguous) arrays indexed by node id.

    The rows must hold each node id 0..n-1 exactly once, in any order.
    Columns may come in any order, next to other columns.
    """
    with _utf8_errors(path), open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or ()
        header_lines = reader.line_num
    missing = sorted(set(_AMBIGUITY_ROW.names) - set(fields))
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    column = {name: i for i, name in enumerate(fields)}  # the last of a repeated name, as in DictReader

    def loop():
        rows = []
        with open(path, newline="") as fh:
            for ln, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    rows.append((
                        _int64(row["node_id"]), float(row["score"]), bool(int(row["is_ambiguous"]))
                    ))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}:{ln}: expected an integer node_id, a score and a 0/1 flag"
                    ) from None
        return np.array(rows, dtype=_AMBIGUITY_ROW)

    table = _parse_table(
        path, loop, _FLOAT_BYTES, row_shape=(), skiprows=header_lines, dtype=_AMBIGUITY_ROW,
        delimiter=",", usecols=[column[name] for name in _AMBIGUITY_ROW.names],
    )
    ids = table["node_id"]
    order = np.sort(ids)
    if ids.size and order[0] < 0:
        raise ValueError(f"{path}: negative node_id {order[0]}")
    dup = order[1:][order[1:] == order[:-1]]
    if dup.size:
        raise ValueError(f"{path}: duplicate node_id {dup[0]}")
    gap = np.flatnonzero(order != np.arange(ids.size))
    if gap.size:
        raise ValueError(f"{path}: no row for node_id {gap[0]}, below the largest id {order[-1]}")
    scores = np.empty(ids.size)
    flags = np.empty(ids.size, dtype=bool)
    scores[ids] = table["score"]
    flags[ids] = table["is_ambiguous"]
    return scores, flags


def write_group_report_csv(rows: list[dict], path: str) -> None:
    cols = ["group", "count", "accuracy", "mean_ambiguity"]
    write_csv(path, cols, ([r[c] for c in cols] for r in rows))
