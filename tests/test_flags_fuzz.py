"""Fuzz of every option that takes a number or a list: nan, inf, negative, zero and huge values.

Each example sets one to three value options of ``train``, ``sweep`` or
``analyze``, each value its own token after the option: the hyperparameter
flags, ``--seeds``, ``sweep --values --param --jobs`` and ``analyze
--split-seed``. A token after an option is that option's value, even when it
starts with '-', so no run ends in argparse's "expected one argument". Each
run exits 0, and the flags make configs that pass ``validate()``; or exits 1
with one ``error:`` line on stderr; or exits 2 with argparse's message that
the value is invalid. It never raises, and no numpy warning escapes: huge
learning rates and loss weights overflow on the way to the training loop's
finiteness guards, and ``cli.main`` silences numpy's floating-point warnings.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import cli
from disamgnn import data as dataio

FUZZ = settings(max_examples=150, deadline=5000, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

HYPER = cli._hyper_parser()._actions
FLOAT_FLAGS = sorted(a.option_strings[0] for a in HYPER if a.type is float)
INT_FLAGS = sorted(a.option_strings[0] for a in HYPER if a.type is int)
SPECIAL = ("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "0", "-0.0",
           "5e-324", "1e308", "-1e308", "-1", "-0.5", "0.5", "1", "2", "1e6")
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(0, 1).map(repr), st.floats().map(repr))
# small counts only: a size flag of 10**9 would allocate, not fail
ODD = ("-0", "+2", "007", "1.5", "-1e-3", "nan", "-inf", "", "x", "-x", "-", "1,2", "-1,2", "1_0")
INTS = st.one_of(st.integers(-3, 6).map(str), st.sampled_from(ODD))
LISTS = st.lists(st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["", " 1", "-1e-3", "0.5", "x", "-nan"])),
                 min_size=1, max_size=3).map(",".join)
PARAMS = st.sampled_from(["lambda", "lr", "hidden", "tau", "refresh", "epochs", "backbone", "x", "-x", "-1"])
RUN = ("--epochs", "3", "--warmup", "1", "--refresh", "1", "--hidden", "4", "--seeds", "0")
# argparse's exit-2 line for a value its type refuses; --seeds' type names the list
REFUSED = re.compile(r"error: argument (--[\w-]+): (invalid \w+ value: |bad seed list |seed list )")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    rng = np.random.default_rng(0)
    n = 40
    edges = [(i, (i + k) % n) for i in range(n) for k in (1, 3)]
    g = d.build_graph(edges, rng.normal(size=(n, 3)), np.arange(n) % 2)
    path = str(tmp_path_factory.mktemp("data") / "ring")
    dataio.save_bundle(g, path)
    return path


@pytest.fixture(scope="module")
def trained(bundle, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--dataset", bundle, "--out", out, *RUN]) == 0
    return os.path.join(out, "seed_0")


def options(values: dict):
    """One to three distinct options of ``values``, each with a value from its strategy."""
    return st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3, unique=True).flatmap(
        lambda flags: st.tuples(*(values[f] for f in flags)).map(lambda vals: dict(zip(flags, vals))))


def run(argv):
    """``cli.main(argv)``'s exit code, argparse's included, and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the run
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue().splitlines()


def check_outcome(argv, flags, code, lines):
    if code == 0:
        assert lines == [], (argv, lines)
        return
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        return
    refused = REFUSED.search(lines[-1]) if code == 2 and lines else None
    assert refused and refused.group(1) in flags, (argv, code, lines)


def test_every_value_option_is_fuzzed():
    assert FLOAT_FLAGS == ["--dropout", "--eps1", "--eps2", "--lambda", "--lr", "--mu",
                           "--tau", "--threshold", "--weight-decay"]
    assert INT_FLAGS == ["--epochs", "--hidden", "--k-aux", "--layers", "--patience",
                         "--refresh", "--sgc-k", "--warmup"]
    assert [a.option_strings for a in HYPER if a.type not in (float, int)] == [["--backbone"]]


TRAIN_VALUES = {**{f: FLOATS for f in FLOAT_FLAGS}, **{f: INTS for f in INT_FLAGS}, "--seeds": LISTS}


def test_train_options_train_with_valid_configs_or_end_in_one_line(bundle):
    @FUZZ
    @given(options(TRAIN_VALUES))
    @example({"--lr": "1e308"})  # diverges at the first forward
    @example({"--lambda": "1e308"})  # a finite contrast times the weight overflows the loss
    @example({"--weight-decay": "1e308"})  # Adam's second moments overflow
    @example({"--seeds": "-1,2"})
    def check(flags):
        argv = [token for item in flags.items() for token in item]
        with tempfile.TemporaryDirectory() as out:
            full = ["train", "--dataset", bundle, "--out", out, *RUN, *argv]
            code, lines = run(full)
        check_outcome(argv, flags, code, lines)
        if code == 0:
            args = cli.build_parser().parse_args(cli._glue_option_values(full))
            for seed in args.seeds:
                cli._config_from_args(args, seed).validate()

    check()


SWEEP_VALUES = {"--values": st.one_of(LISTS, FLOATS), "--param": PARAMS, "--jobs": INTS, "--seeds": LISTS}


def test_sweep_options_sweep_or_end_in_one_line(bundle):
    @settings(FUZZ, max_examples=40)
    @given(options(SWEEP_VALUES))
    @example({"--values": "-1e-3,0", "--param": "lr"})
    @example({"--values": "-1e-3,0", "--param": "tau"})
    def check(flags):
        argv = [token for item in flags.items() for token in item]
        with tempfile.TemporaryDirectory() as out:
            code, lines = run(["sweep", "--dataset", bundle, "--out", os.path.join(out, "s.csv"),
                               *RUN, "--param", "lambda", "--values", "0.5", *argv])
        check_outcome(argv, flags, code, lines)

    check()


def test_analyze_split_seed_analyzes_or_ends_in_one_line(bundle, trained):
    @settings(FUZZ, max_examples=30)
    @given(options({"--split-seed": INTS}))
    def check(flags):
        argv = [token for item in flags.items() for token in item]
        with tempfile.TemporaryDirectory() as out:
            code, lines = run(["analyze", "--dataset", bundle, "--out", out,
                               "--checkpoint", os.path.join(trained, "checkpoint"),
                               "--ambiguity", os.path.join(trained, "ambiguity.csv"), *argv])
        check_outcome(argv, flags, code, lines)

    check()


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan", "-Infinity", "-1e999"])
def test_a_negative_float_token_reaches_validation(bundle, tmp_path, value):
    # argparse took these for options and exited 2 with "expected one argument"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["train", "--dataset", bundle, "--out", str(tmp_path), *RUN, "--lr", value])
    assert (code, err.getvalue()) == (1, "error: lr must be finite and positive\n")


@pytest.mark.parametrize("argv, message", [
    (["train", *RUN, "--seeds", "-1,2"], "error: seed must be >= 0\n"),
    (["sweep", *RUN, "--param", "lr", "--values", "-1e-3,0", "--out", "s.csv"],
     "error: lr must be finite and positive\n"),
], ids=["train-seeds", "sweep-values"])
def test_a_negative_list_token_reaches_validation(bundle, tmp_path, argv, message):
    # argparse took "-1,2" and "-1e-3,0" for options and exited 2 with "expected one argument"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--dataset", bundle, "--out", str(tmp_path / "out")])
    assert (code, err.getvalue()) == (1, message)
    assert not (tmp_path / "out").exists()


def test_a_negative_token_is_a_value_wherever_it_is_valid(bundle, tmp_path):
    argv = ["train", "--dataset", bundle, "--out", str(tmp_path), *RUN, "--tau", "-1e-3", "--eps1", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(cli._glue_option_values(argv))
    assert (args.aux_similarity_min, args.pos_ratio) == (-1e-3, 1.0)
    assert cli._glue_option_values(["--lr", "-x", "--seeds", "-1e-3", "--out", "-"]) == [
        "--lr=-x", "--seeds=-1e-3", "--out=-"]
    # -h, --help and tokens that start with '--' stay apart, as does a token after --opt=value
    for argv in (["--lr", "-h"], ["--help", "-1"], ["--lr", "--tau"], ["--lr=1", "-2"], ["x", "-1"]):
        assert cli._glue_option_values(argv) == argv
