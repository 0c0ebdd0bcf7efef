"""The bytes argparse prints: help, the version and usage errors.

Each case runs `python -m darcais.cli ARGV` in a fresh process, at a
terminal width of 80 columns, in a directory that holds a corrupt cache
file d/f.  Its exit code, stderr and stdout (every JSON line without its
`timings` field) must match tests/golden/usage.json.  Python 3.10,
3.11, 3.12 and 3.13 print the same bytes for every case.

To re-capture the file, run from the repository root:

    PYTHONPATH=src python tests/test_cli_usage.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_FILE = Path(__file__).parent / "golden" / "usage.json"

CASES = {
    "help": ["--help"],
    "version": ["--version"],
    **{f"help_{cmd}": [cmd, "--help"] for cmd in ("poly", "verify", "roots", "pf", "shape")},
    "no_command": [],
    "unknown_command": ["transmogrify"],
    "unknown_option": ["poly", "--n", "1", "--bogus"],
    "poly_without_n": ["poly"],
    "poly_n_not_an_int": ["poly", "--n", "x"],
    "poly_n_negative": ["poly", "--n", "-5"],
    "verify_without_conjecture": ["verify", "--max-n", "3"],
    "verify_bad_conjecture": ["verify", "--conjecture", "2", "--max-n", "3"],
    "shape_bad_format": ["shape", "--format", "xml"],
    "pf_strip_linear_without_equals": ["pf", "--n", "10", "--strip-linear", "-1"],
    "cache_in_missing_directory": ["poly", "--n", "1", "--cache", "missing/records.cache"],
    "shape_abbreviated_option": ["shape", "--max", "5"],
    "cache_error_names_the_clean_path": ["poly", "--n", "1", "--cache", "./d//f"],
}


def _strip_timings(out: str) -> str:
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.pop("timings", None)
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        lines.append(line + "\n")
    return "".join(lines)


def run_case(python: str, argv: list[str], cwd: Path) -> dict:
    (cwd / "d").mkdir(exist_ok=True)
    (cwd / "d" / "f").write_text("not a cache\n", encoding="ascii")
    env = {k: v for k, v in os.environ.items() if k != "DARCAIS_CACHE"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80", LC_ALL="C")
    result = subprocess.run(
        [python, "-m", "darcais.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60,
    )
    return {
        "argv": argv,
        "exit_code": result.returncode,
        "stdout": _strip_timings(result.stdout),
        "stderr": result.stderr,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_usage_output_is_pinned(name, tmp_path):
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[name]
    assert expected["argv"] == CASES[name]
    assert run_case(sys.executable, CASES[name], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(sys.executable, argv, Path(tmp)) for name, argv in CASES.items()}
    GOLDEN_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
