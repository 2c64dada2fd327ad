"""Fuzz of a bundle's splits.json: truncated, byte-flipped, retyped or nested.

Each example edits the splits.json of a 12-node bundle. Either
``load_bundle`` loads it, each mask holding its list's ids in ascending
order, and the masks come back unchanged through ``save_bundle`` and a
second load; or ``disamgnn train`` on the bundle exits 1 with one
``error:`` line that names splits.json.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import cli
from disamgnn import data as dataio

FUZZ = settings(max_examples=60, deadline=2000, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

N = 12
KEYS = ("train", "val", "test")
SPLITS = {"train": [0, 1, 2], "val": [3, 4, 5], "test": [6, 7, 8, 9, 10, 11]}
IDS = st.integers(-2, N + 1)
SCALARS = st.one_of(st.none(), st.booleans(), IDS, st.floats(), st.text(max_size=4), st.sampled_from(KEYS))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                                               inner, max_size=3),
    max_leaves=6,
)


def truncate(draw, text):
    return text[: draw(st.integers(0, len(text) - 1))]


def flip_bytes(draw, text):
    out = bytearray(text)
    for at in draw(st.lists(st.integers(0, len(text) - 1), min_size=1, max_size=3)):
        out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


def retype(draw, text):
    blob = json.loads(text)
    key = draw(st.sampled_from(KEYS))
    kind = draw(st.sampled_from(["value", "id", "ids", "drop", "top"]))
    if kind == "value":
        blob[key] = draw(VALUES)
    elif kind == "id":
        ids = blob[key]
        ids[draw(st.integers(0, len(ids) - 1))] = draw(VALUES)
    elif kind == "ids":  # well typed, but ids may repeat, overlap or leave the graph
        blob[key] = draw(st.lists(IDS, max_size=6))
    elif kind == "drop":
        del blob[key]
    else:
        blob = draw(VALUES)
    return json.dumps(blob).encode()


def nest(draw, text):
    blob = json.loads(text)
    key, depth = draw(st.sampled_from(KEYS)), draw(st.integers(1, 5000))
    deep = "[" * depth + json.dumps(blob[key]) + "]" * depth
    return json.dumps({**blob, key: "@"}).replace('"@"', deep).encode()


EDITS = (truncate, flip_bytes, retype, nest)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    rng = np.random.default_rng(0)
    g = d.build_graph([(i, (i + 1) % N) for i in range(N)], rng.normal(size=(N, 2)),
                      np.arange(N) % 2)
    path = str(tmp_path_factory.mktemp("data") / "ring")
    dataio.save_bundle(g, path, d.SplitMasks(**SPLITS))
    with open(os.path.join(path, "splits.json"), "rb") as fh:
        return path, fh.read()


def train_stderr(path, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--dataset", path, "--out", out, "--epochs", "1", "--seeds", "0"])
    return code, err.getvalue()


@pytest.mark.parametrize("edit", EDITS, ids=[edit.__name__ for edit in EDITS])
def test_an_edited_splits_json_loads_and_round_trips_or_names_its_file(bundle, edit):
    path, original = bundle
    splits = os.path.join(path, "splits.json")

    @FUZZ
    @given(st.data())
    def check(data):
        text = edit(data.draw, original)
        with open(splits, "wb") as fh:
            fh.write(text)
        try:
            g, masks = dataio.load_bundle(path)
        except Exception:  # whatever it is, the CLI must turn it into one error line
            with tempfile.TemporaryDirectory() as tmp:
                code, err = train_stderr(path, tmp)
            lines = err.strip().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), err
            assert splits in lines[0], err
            return
        blob = json.loads(text.decode("utf-8"))
        for key in KEYS:
            assert masks.mask(key).tolist() == sorted(blob[key]), key
        with tempfile.TemporaryDirectory() as tmp:
            dataio.save_bundle(g, tmp, masks)
            _, again = dataio.load_bundle(tmp)
        for key in KEYS:
            assert np.array_equal(again.mask(key), masks.mask(key)), key

    try:
        check()
    finally:
        with open(splits, "wb") as fh:
            fh.write(original)
