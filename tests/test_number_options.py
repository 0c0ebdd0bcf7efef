"""How `roots --max-width` and `pf --strip-linear` read a number.

Each case runs `python -m darcais.cli ARGV` in a fresh process.  Its exit
code, stderr and stdout (every JSON line without its `timings` field)
must match tests/golden/number_options.json, which was captured while
both options still read every token with `fractions.Fraction`.  The
widths and roots cover the plain form the integer reader takes (a sign,
ASCII digits, a slash and ASCII digits) and spellings it hands to
Fraction: a decimal point, an exponent, non-ASCII digits.

To re-capture the file, run from the repository root:

    PYTHONPATH=src python tests/test_number_options.py
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcais import cli
from test_exit_contract import _strip_timings

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_FILE = Path(__file__).parent / "golden" / "number_options.json"

WIDTHS = ("1", "1/64", "2/128", "0", "-1", "1/0", "0.5", "+1", "01/064", "1e-2",
          "\N{ARABIC-INDIC DIGIT ONE}/\N{ARABIC-INDIC DIGIT TWO}")
ROOTS = ("-1", "-1/2", "-2", "+1")

CASES = {
    **{f"max_width {w}": ["roots", "--n", "5", "--max-width", w] for w in WIDTHS},
    **{f"strip_linear {r}": ["pf", "--coeffs", "1 3 2", f"--strip-linear={r}"] for r in ROOTS},
}


def run_case(python: str, name: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DARCAIS_CACHE"}
    env.update(PYTHONPATH=str(SRC), LC_ALL="C.UTF-8", PYTHONIOENCODING="utf-8")
    result = subprocess.run(
        [python, "-m", "darcais.cli", *CASES[name]],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    return {
        "exit_code": result.returncode,
        "stdout": _strip_timings(result.stdout),
        "stderr": result.stderr,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_number_options_are_pinned(name):
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[name]
    assert run_case(sys.executable, name) == expected


def _outcome(read, token):
    try:
        return read(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


DIGITS = st.text("0123456789", min_size=1, max_size=6)
PLAIN = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(("", "+", "-")), DIGITS, st.none() | DIGITS,
)


@settings(derandomize=True, max_examples=400)
@given(PLAIN | st.text("+-/0123456789 ._e\N{ARABIC-INDIC DIGIT ONE}", max_size=8))
@example("1" * 4301)  # past int's digit limit: Fraction's ValueError
@example("1/" + "1" * 4301)
@example("0/0")
def test_numbers_have_the_values_fraction_gives(token):
    # every token the integer reader takes has Fraction's value, as an int;
    # every other token gets Fraction's value, or Fraction's refusal
    got = _outcome(cli._number, token)
    assert got == _outcome(Fraction, token)
    if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token) and type(got) is not tuple:
        assert type(got) is (int if got.denominator == 1 else Fraction)


if __name__ == "__main__":
    cases = {name: run_case(sys.executable, name) for name in CASES}
    GOLDEN_FILE.write_text(
        json.dumps(cases, indent=1, sort_keys=True, ensure_ascii=True) + "\n", encoding="utf-8"
    )
