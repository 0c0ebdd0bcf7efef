"""How a `darcais` process ends: exit codes, stdout and stderr.

Each case runs `python -m darcais.cli ARGV` in a fresh process, with
stdout buffered as in a batch job (no PYTHONUNBUFFERED unless the case
sets it), in a directory that holds a corrupt cache file d/f.  Its exit
code, stderr and stdout (every JSON line without its `timings` field)
must match tests/golden/exit_contract.json.  A case may send stdout to
/dev/full, close it, or read one line of it and close the pipe; or run
the module from a script that registers an atexit hook first, or that
makes a function main calls raise.

To re-capture the file, run from the repository root:

    PYTHONPATH=src python tests/test_exit_contract.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_FILE = Path(__file__).parent / "golden" / "exit_contract.json"

# runs the module as `python -m darcais.cli` does, after a line of set-up
_AS_MAIN = """
import atexit, runpy, sys
{setup}
sys.argv = ["darcais", *sys.argv[1:]]
runpy.run_module("darcais.cli", run_name="__main__", alter_sys=True)
"""
_ATEXIT_HOOK = 'atexit.register(print, "atexit hook ran")'
_RAISE_IN_MAIN = """
import darcais.shape
def fail(*args, **kwargs):
    raise RuntimeError("escaped main")
darcais.shape.shape_report = fail
"""

DOCTORED = ["shape", "--max-n", "12", "--doctor", "5:1:1"]

# name: (argv, how stdout is connected, extra environment, set-up script)
CASES = {
    "exit_0": (["poly", "--n", "7"], "pipe", {}, None),
    "exit_1_shape_doctor": (DOCTORED, "pipe", {}, None),
    "exit_1_pf_witness": (["pf", "--n", "31"], "pipe", {}, None),
    "exit_2_usage_error": (["verify", "--max-n", "3"], "pipe", {}, None),
    "exit_2_corrupt_cache": (["poly", "--n", "7", "--cache", "d/f"], "pipe", {}, None),
    "help": (["--help"], "pipe", {}, None),
    "version": (["--version"], "pipe", {}, None),
    "stdout_to_dev_full": (["poly", "--n", "7"], "/dev/full", {}, None),
    "stdout_to_dev_full_unbuffered": (
        ["poly", "--n", "7"], "/dev/full", {"PYTHONUNBUFFERED": "1"}, None,
    ),
    "stdout_closed": (["poly", "--n", "7"], "closed", {}, None),
    "stdout_pipe_closes_after_one_line": (["shape", "--max-n", "215"], "one line", {}, None),
    "atexit_hook_runs_and_prints": (DOCTORED, "pipe", {}, _ATEXIT_HOOK),
    "exception_escapes_main": (["shape", "--max-n", "3"], "pipe", {}, _RAISE_IN_MAIN),
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


def _first_and_last_lines(text: str) -> str:
    """A traceback without its frames, whose paths and line numbers vary."""
    lines = text.splitlines()
    return f"{lines[0]}\n...\n{lines[-1]}\n" if len(lines) > 2 else text


def run_case(python: str, name: str, cwd: Path) -> dict:
    argv, stdout, extra_env, setup = CASES[name]
    (cwd / "d").mkdir(exist_ok=True)
    (cwd / "d" / "f").write_text("not a cache\n", encoding="ascii")
    env = {k: v for k, v in os.environ.items() if k not in ("DARCAIS_CACHE", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80", LC_ALL="C", **extra_env)
    cmd = [python, "-m", "darcais.cli", *argv]
    if setup is not None:
        cmd = [python, "-c", _AS_MAIN.format(setup=setup), *argv]
    options = dict(cwd=cwd, env=env, stderr=subprocess.PIPE, text=True)
    if stdout == "one line":  # as `| head -1` reads it
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, **options) as proc:
            out = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    elif stdout == "pipe":
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=60, **options)
        out, err, code = result.stdout, result.stderr, result.returncode
    else:
        with open(os.devnull if stdout == "closed" else stdout, "w") as sink:
            result = subprocess.run(
                cmd, stdout=sink, timeout=60, **options,
                preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
            )
        out, err, code = "", result.stderr, result.returncode
    if name == "exception_escapes_main":
        err = _first_and_last_lines(err)
    return {"exit_code": code, "stdout": _strip_timings(out), "stderr": err}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_contract_is_pinned(name, tmp_path):
    if CASES[name][1] == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[name]
    assert run_case(sys.executable, name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(sys.executable, name, Path(tmp)) for name in CASES}
    GOLDEN_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
