"""Differential tests of the bundle and ambiguity.csv text readers.

Each reader parses with np.loadtxt where that provably agrees with its line
loop, and runs the loop otherwise. The reference loops below restate what
each file may hold. Generated files (signed and padded ints, tabs, CRLF and
lone CR, blank and comment lines, ``1_0``, ids beyond int64, repr floats,
nan/inf, ragged rows) must either read back bit-equal to the reference or
fail with a ValueError that starts with the file's path.
"""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import data as dataio

FUZZ = settings(max_examples=150, deadline=2000, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _int64(text):
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(text)
    return value


def ref_edges(path):
    with open(path) as fh:
        content = fh.read().strip()
    rows = []
    for line in content.splitlines():
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(line)
        rows.append((_int64(parts[0]), _int64(parts[1])))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def ref_features(path):
    with open(path) as fh:
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("empty or ragged")
    return np.array(rows, dtype=np.float64)


def ref_labels(path):
    with open(path) as fh:
        return np.array([_int64(line) for line in fh if line.strip()], dtype=np.int64)


def ref_ambiguity(path):
    with open(path, newline="") as fh:
        rows = [(_int64(r["node_id"]), float(r["score"]), int(r["is_ambiguous"]))
                for r in csv.DictReader(fh)]
    if any(not 0 <= score <= 1 or flag not in (0, 1) for _, score, flag in rows):
        raise ValueError("a score outside [0, 1] or a flag other than 0 and 1")
    ids = sorted(r[0] for r in rows)
    if ids != list(range(len(rows))):
        raise ValueError("ids are not 0..n-1")
    scores, flags = np.empty(len(rows)), np.empty(len(rows), dtype=bool)
    for node, score, flag in rows:
        scores[node], flags[node] = score, flag
    return scores, flags


def outcome(read, path):
    try:
        return read(path)
    except (ValueError, TypeError, KeyError) as exc:
        return exc


def assert_same(got, want, path):
    if isinstance(want, Exception):
        assert isinstance(got, ValueError), (got, want)
        assert str(got).startswith(path), got
        return
    assert not isinstance(got, Exception), (got, want)
    for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
        assert g.dtype == w.dtype and g.shape == w.shape, (g, w)
        assert g.tobytes() == w.tobytes(), (g, w)


SMALL_INTS = st.integers(-3, 30).map(str)
ODD_INTS = st.sampled_from(["+3", "-0", "007", "1_0", "x", "", "1.0", "٣",
                            "99999999999999999999", "-9223372036854775809",
                            "9223372036854775807", "#", "1e3"])
INTS = st.one_of(SMALL_INTS, SMALL_INTS, ODD_INTS, st.integers(-2**70, 2**70).map(str))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    SMALL_INTS,
    st.sampled_from(["1_0.5", "nan", "-inf", " 1.5", "1.5 ", "\t2", ".5", "5.", "1e999",
                     "", "x", "1e", "--1", "0x1", "99999999999999999999", "#1"]),
)
PAD = st.sampled_from(["", "", "", " ", "\t", " \t ", "\x0c", "\xa0"])
EOL = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
JUNK_LINE = st.sampled_from(["", "  ", "\t", "# note", "\x0c"])


@st.composite
def table_text(draw, token, sep, width):
    """Lines of ``width`` tokens (sometimes another count) joined by ``sep``."""
    width = draw(st.sampled_from([width, width, width, 1, 2, 3]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 7)) == 0:
            line = draw(JUNK_LINE)
        else:
            k = width if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
            line = draw(PAD) + draw(sep).join(draw(token) for _ in range(k)) + draw(PAD)
        lines.append(line + draw(EOL))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def check(read, ref, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_same(outcome(read, path), outcome(ref, path), path)


@FUZZ
@given(table_text(INTS, st.sampled_from([" ", "\t", "  ", " \t", "\x0b", "\u2028"]), 2))
def test_edges_reader_matches_reference_loop(text):
    check(dataio._read_edges, ref_edges, text)


@FUZZ
@given(st.integers(1, 3).flatmap(lambda w: table_text(FLOATS, st.sampled_from([",", " ,", ", "]), w)))
def test_features_reader_matches_reference_loop(text):
    check(dataio._read_features, ref_features, text)


@FUZZ
@given(table_text(INTS, st.just(" "), 1))
def test_labels_reader_matches_reference_loop(text):
    check(dataio._read_labels, ref_labels, text)


@st.composite
def ambiguity_text(draw):
    columns = draw(st.permutations(["node_id", "score", "is_ambiguous", "note"]))
    if draw(st.booleans()):
        columns = [c for c in columns if c != "note"]
    n = draw(st.integers(0, 5))
    ids = [str(i) for i in draw(st.permutations(range(n)))]
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [",".join(columns)]
    for node in ids:
        cells = {
            "node_id": draw(st.one_of(st.just(node), st.just(node), INTS)),
            "score": draw(st.one_of(FLOATS, st.floats(0, 1).map(repr))),
            "is_ambiguous": draw(st.one_of(st.sampled_from(["0", "1"]), INTS)),
            "note": draw(st.sampled_from(["", "7", "text", "1.5"])),
        }
        row = [cells[c] for c in columns]
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, len(row)))]
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(JUNK_LINE))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@FUZZ
@given(ambiguity_text())
def test_ambiguity_reader_matches_reference_loop(text):
    check(dataio.read_ambiguity_csv, ref_ambiguity, text)


def refuse_loop():
    raise AssertionError("the line loop ran on a file the program wrote")


def test_program_written_files_take_the_loadtxt_path(tmp_path):
    g = d.sbm_generate(d.SbmSpec(class_sizes=(20, 20), intra_p=0.3, inter_p=0.05,
                                 class_means=np.eye(2), seed=4))
    dataio.save_bundle(g, str(tmp_path / "b"))
    state = d.AmbiguityState.create(g.num_nodes, g.num_classes)
    state.scores = np.random.default_rng(0).random(g.num_nodes)
    state.ambiguous = np.arange(0, g.num_nodes, 3)
    dataio.write_ambiguity_csv(state, str(tmp_path / "ambiguity.csv"))
    cases = [
        ("b/edges.tsv", dataio._INT_BYTES, dict(row_shape=(2,), dtype=np.int64)),
        ("b/features.csv", dataio._FLOAT_BYTES, dict(dtype=np.float64, delimiter=",")),
        ("b/labels.csv", dataio._INT_BYTES, dict(row_shape=(), dtype=np.int64)),
        ("ambiguity.csv", dataio._FLOAT_BYTES,
         dict(row_shape=(), skiprows=1, dtype=dataio._AMBIGUITY_ROW, delimiter=",",
              usecols=[0, 1, 2])),
    ]
    for name, chars, kw in cases:
        table = dataio._parse_table(str(tmp_path / name), refuse_loop, chars, **kw)
        assert len(table) in (g.num_nodes, g.num_edges)


@pytest.mark.parametrize("read, ref, text", [
    (dataio._read_edges, ref_edges, "0 1\n\n2 3\n"),
    (dataio._read_edges, ref_edges, "0 1\n1_0 2\n"),
    (dataio._read_edges, ref_edges, "0\x0c1\n"),
    (dataio._read_edges, ref_edges, "0 1\n\n2 3\r4 5\n"),
    (dataio._read_edges, ref_edges, "0 1 2\n3 4 5\n"),
    (dataio._read_labels, ref_labels, "0 1\n2 3\n"),
    (dataio._read_features, ref_features, "1,2\n3,1_0\n"),
], ids=["blank-line", "underscore", "form-feed", "blank-line-and-lone-cr", "three-columns",
        "two-label-columns", "underscore-float"])
def test_readers_defer_to_the_loop_where_loadtxt_differs(tmp_path, read, ref, text):
    path = tmp_path / "file"
    path.write_bytes(text.encode())
    assert_same(outcome(read, str(path)), outcome(ref, str(path)), str(path))


def test_save_bundle_writes_each_edge_once_in_first_seen_order(tmp_path):
    g = d.sbm_generate(d.SbmSpec(class_sizes=(15, 15), intra_p=0.4, inter_p=0.1,
                                 class_means=np.eye(2), seed=2))
    seen, want = set(), []
    for v in range(g.num_nodes):
        for u in g.neighbors(v).tolist():
            key = (min(v, u), max(v, u))
            if key not in seen:
                seen.add(key)
                want.append(f"{key[0]}\t{key[1]}\n")
    dataio.save_bundle(g, str(tmp_path))
    assert (tmp_path / "edges.tsv").read_text() == "".join(want)
