"""Fuzz of ``disamgnn train``'s float flags: nan, inf, negative, zero and huge values.

Each example sets one to three of the flags whose type is float, each value
its own token after the flag. Either the command exits 0, and the flags make
a config that passes ``validate()``; or it exits 1 with one ``error:`` line
on stderr. It never raises. Huge learning rates and loss weights overflow
on the way to the training loop's finiteness guard; numpy's floating-point
warnings are silenced here, as in the divergence tests.
"""

import contextlib
import io
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import cli
from disamgnn import data as dataio

FUZZ = settings(max_examples=150, deadline=5000, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

FLOAT_FLAGS = sorted(a.option_strings[0] for a in cli._hyper_parser()._actions if a.type is float)
SPECIAL = ("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "0", "-0.0",
           "5e-324", "1e308", "-1e308", "-1", "-0.5", "0.5", "1", "2", "1e6")
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(0, 1).map(repr), st.floats().map(repr))
RUN = ("--epochs", "3", "--warmup", "1", "--refresh", "1", "--hidden", "4", "--seeds", "0")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    rng = np.random.default_rng(0)
    n = 40
    edges = [(i, (i + k) % n) for i in range(n) for k in (1, 3)]
    g = d.build_graph(edges, rng.normal(size=(n, 3)), np.arange(n) % 2)
    path = str(tmp_path_factory.mktemp("data") / "ring")
    dataio.save_bundle(g, path)
    return path


def test_every_float_flag_is_fuzzed_and_takes_negative_values():
    assert FLOAT_FLAGS == ["--dropout", "--eps1", "--eps2", "--lambda", "--lr", "--mu",
                           "--tau", "--threshold", "--weight-decay"]
    assert cli._FLOAT_FLAGS == set(FLOAT_FLAGS)


def test_float_flags_train_with_a_valid_config_or_end_in_one_error_line(bundle):
    @FUZZ
    @given(st.dictionaries(st.sampled_from(FLOAT_FLAGS), VALUES, min_size=1, max_size=3))
    @example({"--lr": "1e308"})  # diverges at the first forward
    @example({"--lambda": "1e308"})  # a finite contrast times the weight overflows the loss
    @example({"--weight-decay": "1e308"})  # Adam's second moments overflow, the step stalls
    def check(flags):
        argv = [token for item in flags.items() for token in item]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, np.errstate(over="ignore", invalid="ignore"):
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["train", "--dataset", bundle, "--out", out, *RUN, *argv])
        if code == 0:
            args = cli.build_parser().parse_args(["train", "--dataset", bundle, "--out", "x",
                                                  *cli._glue_negative_floats(argv)])
            cli._config_from_args(args, 0).validate()
            assert err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())

    check()


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan", "-Infinity", "-1e999"])
def test_a_negative_float_token_reaches_validation(bundle, tmp_path, value):
    # argparse took these for options and exited 2 with "expected one argument"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["train", "--dataset", bundle, "--out", str(tmp_path), *RUN, "--lr", value])
    assert (code, err.getvalue()) == (1, "error: lr must be finite and positive\n")


def test_a_negative_float_token_is_a_value_wherever_it_is_valid(bundle, tmp_path):
    argv = ["train", "--dataset", bundle, "--out", str(tmp_path), *RUN, "--tau", "-1e-3", "--eps1", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(cli._glue_negative_floats(argv))
    assert (args.aux_similarity_min, args.pos_ratio) == (-1e-3, 1.0)
    assert cli._glue_negative_floats(["--lr", "-x", "--seeds", "-1e-3"]) == ["--lr", "-x", "--seeds", "-1e-3"]
