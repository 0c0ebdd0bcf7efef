"""The CLI's argument reader against argparse, its reference.

cli._read_args reads a well-formed command without argparse.  For any
argv it either declines (None), and main hands the argv to argparse, or
returns exactly what build_parser().parse_args(argv) returns.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import cli

NAMES = sorted({name for _, _, options in cli.COMMANDS.values()
                for opt in options for name in (opt.name, *opt.aliases)})
# real names, then abbreviations (argparse takes an unambiguous prefix) and
# tokens no subcommand knows
OPTION_NAMES = NAMES + sorted({name[:k] for name in NAMES for k in (3, 5) if k < len(name)}) + [
    "--bogus", "-h", "--help", "--version", "-n", "--", "-",
]
VALUES = [
    "0", "1", "5", "12", "300", "-1", "-5", "+3", " 7", "1_0", "x", "", "1.5", "1/2",
    "csv", "jsonl", "xml", "1", "no", "corollary", "2", "trivial_arms:1:1/2",
    "1 2 1", "a=b", "--n", "-1,-1", "records.cache", "missing/records.cache", "./d//f",
]


def parse(argv):
    """vars() of what argparse returns, or None where it exits."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def read(argv):
    args = cli._read_args(argv)
    return None if args is None else vars(args)


def _good_values(opt):
    """Values the option's type and choices accept."""
    if opt.choices is not None:
        return list(opt.choices)
    if opt.type is int:
        return ["0", "1", "5", "12", "300", "+3", " 7", "1_0"]
    if opt.name == "--cache":
        return ["records.cache", "", "./records.cache"]
    return ["1", "1/2", "1 2 1", "trivial_arms:1:1/2", "5:1:1", "a=b", "", "x"]


@st.composite
def option(draw, options):
    """One option as a job might write it: a flag, --opt=value, or --opt
    followed by a value token; mostly one of the subcommand's own, with a
    value its type accepts, sometimes anything else."""
    opt = draw(st.sampled_from(options))
    name = draw(st.sampled_from([opt.name, *opt.aliases]))
    if draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(OPTION_NAMES))
    good = _good_values(opt)
    value = draw(st.sampled_from(good) if draw(st.integers(0, 3)) else
                 st.sampled_from(VALUES) | st.text(max_size=4))
    flag = opt.type is bool
    form = draw(st.sampled_from(("alone",) if flag and draw(st.booleans()) else
                                ("alone", "equals", "space")))
    if form == "alone":
        return [name]
    return [f"{name}={value}"] if form == "equals" else [name, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "--help", "--version", None]))
    if command not in cli.COMMANDS:
        options = [opt for _, _, opts in cli.COMMANDS.values() for opt in opts]
        head = [] if command is None else [command]
    else:
        options = list(cli.COMMANDS[command][2])
        head = [command]
        # the required options first, most of the time
        for opt in options:
            if opt.required and draw(st.integers(0, 5)):
                head += [opt.name, draw(st.sampled_from(_good_values(opt)))]
    extra = draw(st.lists(option(options), max_size=5))
    return head + [tok for tokens in extra for tok in tokens]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_declines_or_agrees_with_argparse(argv):
    got = read(argv)
    if got is not None:
        assert got == parse(argv)


WELL_FORMED = [
    ["poly", "--n", "1"],
    ["poly", "--n=5", "--shifted", "--normalized", "--cache", "records.cache"],
    ["verify", "--conjecture", "no", "--max-n", "22", "--force"],
    ["verify", "--conjecture=corollary", "--max-n", "9", "--inject-error", "trivial_arms:9:5"],
    ["roots", "--n", "66", "--hurwitz"],
    ["roots", "--n", "10", "--sturm", "--max-width", "1/64"],
    ["roots", "--poly", "3 2 1", "--isolate", "--max-width=-1"],
    ["pf", "--n", "42", "--strip-linear=-1"],
    ["pf", "--coeffs", "1 2 1", "--max-order", "4", "--max-shift", "0"],
    ["shape", "--max-n", "215", "--format", "jsonl", "--doctor=5:1:-1"],
    ["shape", "--max-n", "3", "--max-n", "4"],  # the last one counts, as in argparse
    ["shape"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_reader_reads_the_forms_jobs_use(argv):
    got = read(argv)
    assert got is not None
    assert got == parse(argv)


DECLINED = [
    ["shape", "--max", "5"],  # an abbreviation, which argparse accepts
    ["pf", "--n", "10", "--strip-linear", "-1"],  # a dash after a space
    ["poly", "--n", "-5"],
    ["poly"],
    ["poly", "--n", "x"],
    ["poly", "--n"],
    ["poly", "--n", "1", "--shifted=yes"],
    ["verify", "--conjecture", "2", "--max-n", "3"],
    ["poly", "--n", "1", "--cache", "missing/records.cache"],
    ["poly", "--help"],
    ["--version"],
    [],
]


@pytest.mark.parametrize("argv", DECLINED, ids=lambda argv: " ".join(argv) or "(empty)")
def test_a_declined_argv_reaches_argparse(argv, monkeypatch, capsys):
    assert read(argv) is None
    built = []
    real = cli.build_parser

    def spy():
        built.append(True)
        return real()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli.main(argv)
    assert built == [True]


def test_a_well_formed_argv_never_builds_the_parser(monkeypatch, capsys):
    def refused():
        raise AssertionError("argparse was built for a well-formed command")

    monkeypatch.setattr(cli, "build_parser", refused)
    assert cli.main(["shape", "--max-n", "3"]) == cli.EXIT_OK
