"""Fuzz of the checkpoint loader over edited manifests and .bin files.

Each example saves a small random model, then drops, retypes, reorders,
adds or nudges manifest keys, replaces, removes or repeats entries, and
truncates, extends or flips bytes of the .bin. ``load_checkpoint`` must
either load it, with ``params.flat`` holding the .bin's bytes and a
re-saved manifest equal to the edited one, or raise a ValueError that
starts with the manifest's or the .bin's path. It is called
directly: ``analyze`` would propagate an SGC model's edited ``sgc_k`` times.
Architecture integers stay below a hundred, so no edit builds a large model.
"""

import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import data as dataio

FUZZ = settings(max_examples=60, deadline=2000, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

SMALL = st.integers(-3, 48)
SCALARS = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(), st.text(max_size=4),
    st.sampled_from([*d.BACKBONES, "<f8", "<f4", "layer0.weight", "disamgnn-checkpoint"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def dict_entries(m):
    entries = m.get("entries")
    return [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []


def drop_key(draw, m, blob):
    target = draw(st.sampled_from([m, *dict_entries(m)]))
    if target:
        del target[draw(st.sampled_from(sorted(target)))]
    return m, blob


def retype_key(draw, m, blob):
    target = draw(st.sampled_from([m, *dict_entries(m)]))
    if target:
        target[draw(st.sampled_from(sorted(target)))] = draw(VALUES)
    return m, blob


def reorder_keys(draw, m, blob):
    target = draw(st.sampled_from([m, *dict_entries(m)]))
    items = draw(st.permutations(list(target.items())))
    target.clear()
    target.update(items)
    return m, blob


def add_key(draw, m, blob):
    target = draw(st.sampled_from([m, *dict_entries(m)]))
    target[draw(st.text(max_size=6))] = draw(VALUES)
    return m, blob


def int_slot(draw, m):
    """(container, key) of an integer: a top-level one half the time, else one of an entry or a shape."""
    shapes = [e["shape"] for e in dict_entries(m) if isinstance(e.get("shape"), list)]
    slots = [[(c, k) for c in containers
              for k, v in (c.items() if isinstance(c, dict) else enumerate(c)) if type(v) is int]
             for containers in ([m], dict_entries(m) + shapes)]
    return draw(st.sampled_from([s for s in slots if s]).flatmap(st.sampled_from))


def nudge_int(draw, m, blob):
    c, k = int_slot(draw, m)
    c[k] += draw(st.sampled_from([-8, -2, -1, 1, 2, 8]))
    return m, blob


def retype_int(draw, m, blob):
    """The same number as another JSON type: 3.0, "3", [3], or false for a 0."""
    c, k = int_slot(draw, m)
    v = c[k]
    c[k] = draw(st.sampled_from([float(v), str(v), [v], *([bool(v)] if v in (0, 1) else [])]))
    return m, blob


def replace_entry(draw, m, blob):
    entries = m.get("entries")
    if isinstance(entries, list) and entries:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(VALUES)
    return m, blob


def resize_entries(draw, m, blob):
    """Remove an entry or repeat one, at either end more often than inside."""
    entries = m.get("entries")
    if isinstance(entries, list):
        if entries and draw(st.booleans()):
            entries.pop(draw(st.sampled_from([0, -1]) | st.integers(0, len(entries) - 1)))
        else:
            extra = copy.deepcopy(draw(st.sampled_from(entries))) if entries else draw(VALUES)
            entries.insert(draw(st.sampled_from([0, len(entries)]) | st.integers(0, len(entries))), extra)
    return m, blob


def resize_blob(draw, m, blob):
    if blob and draw(st.booleans()):
        return m, blob[: draw(st.integers(0, len(blob) - 1))]
    return m, blob + bytes(draw(st.integers(1, 16)))


def flip_byte(draw, m, blob):
    if blob:
        i = draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]
    return m, blob


EDITS = [drop_key, retype_key, reorder_keys, add_key, nudge_int, retype_int, replace_entry,
         resize_entries, resize_blob, flip_byte]


@st.composite
def edited_checkpoint(draw, first):
    """A saved checkpoint's (manifest, blob) after edit ``first`` and up to two more."""
    params = d.init_model(
        draw(st.sampled_from(d.BACKBONES)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(1, 4)), num_layers=draw(st.integers(1, 3)),
        sgc_k=draw(st.none() | st.integers(0, 3)), rng=np.random.default_rng(draw(st.integers(0, 9))),
    )
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "checkpoint")
        dataio.save_checkpoint(params, base, split_seed=draw(st.none() | st.integers(0, 9)))
        with open(base + ".json") as fh:
            m = json.load(fh)
        with open(base + ".bin", "rb") as fh:
            blob = fh.read()
    m, blob = first(draw, m, blob)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        m, blob = draw(st.sampled_from(EDITS))(draw, m, blob)
    return m, blob


def write_checkpoint(base, m, blob):
    with open(base + ".json", "w") as fh:
        json.dump(m, fh)
    with open(base + ".bin", "wb") as fh:
        fh.write(blob)


def saved_manifest(params, tmp):
    base = os.path.join(tmp, "resaved")
    dataio.save_checkpoint(params, base)
    with open(base + ".json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("first", EDITS, ids=[edit.__name__ for edit in EDITS])
def test_an_edited_checkpoint_loads_its_bin_or_names_its_file(first):
    @FUZZ
    @given(edited_checkpoint(first))
    def check(case):
        m, blob = case
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "checkpoint")
            write_checkpoint(base, m, blob)
            try:
                params = dataio.load_checkpoint(base)
            except ValueError as exc:
                assert str(exc).startswith((base + ".json", base + ".bin")), exc
                return
            assert params.flat.tobytes() == blob
            dims = params.in_dim, params.hidden_dim, params.num_classes, params.num_layers, params.sgc_k
            assert type(params.backbone) is str and all(type(v) is int for v in dims)
            # what loaded is what the manifest says, up to extra keys, key order and split_seed
            resaved = saved_manifest(params, tmp)
            del resaved["split_seed"]
            for key, want in resaved.items():
                got = m[key]
                if key == "entries":
                    assert len(got) == len(want)
                    got = [{k: e[k] for k in w} for e, w in zip(got, want)]
                assert repr(got) == repr(want), (key, got, want)

    check()
