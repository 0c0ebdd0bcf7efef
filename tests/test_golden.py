"""Golden CLI outputs: exit code and stdout, with `timings` stripped.

Each case in tests/golden/cases.json names an argv; tests/golden/<name>.out
holds the stdout it produced, every JSON line re-rendered without its
`timings` field.  A refactor that changes any byte of a verdict, count or
isolation interval fails here.

To re-derive the files after an intended output change (say so in
CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from fractions import Fraction

import pytest

from darcais import cli
from darcais.cli import main
from darcais.exactnum import ExactPoly
from darcais.polynomials import darcais_record
from darcais.rootcert import RootInterval
from oracles import check_isolation

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def strip_timings(out: str) -> str:
    """Every JSON line without its timings field; other lines unchanged."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.pop("timings", None)
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        lines.append(line + "\n")
    return "".join(lines)


def run_case(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, strip_timings(buf.getvalue())


# below the parse/print boundary the CLI computes on integer tuples, so
# no case may need ExactPoly's ring operators
RING_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__")


def refuse(op):
    def refused(*args):
        raise AssertionError(f"ExactPoly.{op} called below the parse/print boundary")
    return refused


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    for op in RING_OPERATORS:
        monkeypatch.setattr(ExactPoly, op, refuse(op))
    case = CASES[name]
    code, out = run_case(case["argv"])
    assert code == case["exit_code"]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="ascii")


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if "--sturm" in CASES[name]["argv"]
                   or "--isolate" in CASES[name]["argv"])
)
def test_golden_intervals_are_proved_by_sturm(name):
    # every recorded isolating interval holds exactly one root of the
    # case's polynomial by Sturm's theorem, and its endpoints are not roots
    argv = CASES[name]["argv"]
    if "--n" in argv:
        poly = ExactPoly(darcais_record(int(argv[argv.index("--n") + 1])).numer_coeffs)
    else:
        poly = ExactPoly(map(Fraction, argv[argv.index("--poly") + 1].split()))
    width = Fraction(argv[argv.index("--max-width") + 1]) if "--max-width" in argv else 1
    (line,) = (GOLDEN / f"{name}.out").read_text(encoding="ascii").splitlines()
    intervals = [
        RootInterval(Fraction(iv["lower"]), Fraction(iv["upper"]), iv["count"])
        for iv in json.loads(line)["details"].get("intervals", [])
    ]
    check_isolation(poly, intervals, width)


if __name__ == "__main__":
    for name, case in sorted(CASES.items()):
        code, out = run_case(case["argv"])
        case["exit_code"] = code
        (GOLDEN / f"{name}.out").write_text(out, encoding="ascii")
    (GOLDEN / "cases.json").write_text(
        json.dumps(CASES, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
