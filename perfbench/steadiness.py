"""Run the benchmark on many seeds and summarize the spread of each metric.

    python3 perfbench/steadiness.py OUT.json [--sets 2] [--seeds 10] [--seconds S]

Run from the root of a source checkout.  Each set runs every workload of
BENCHMARK.json once per seed, one run at a time, seed by seed with the
workloads interleaved, so that a slow spell of the machine falls on all
workloads alike.  Set k uses seeds 100k+1 ... 100k+N.  For each workload
and end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, their distance
over the median; with two or more sets, also how much worse each later
set's median is than the first set's (positive means worse).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name] for r in mine]
            q1, median, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    sets = {}
    for k in range(1, args.sets + 1):
        runs = []
        for seed in range(100 * k + 1, 100 * k + args.seeds + 1):
            for workload in names:
                runs.append(run_once(workload, seed, args.seconds))
                print(json.dumps(runs[-1]), flush=True)
        sets[chr(ord("A") + k - 1)] = {"runs": runs, "summary": summarize(runs)}

    first = sets["A"]["summary"]
    worse = {}
    for label, later in list(sets.items())[1:]:
        worse[label] = {
            workload: {
                name: (stat["median"] / first[workload][name]["median"] - 1)
                * (1 if better[name] == "lower" else -1)
                for name, stat in metrics.items()
            }
            for workload, metrics in later["summary"].items()
        }
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "python": platform.python_version(),
        "sets": sets,
        "worse_than_A": worse,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for label, data in sets.items():
        for workload, metrics in data["summary"].items():
            print(label, workload, {n: round(s["spread"], 3) for n, s in metrics.items()})
    for label, data in worse.items():
        print(label, "worse than A:", {w: {n: round(v, 3) for n, v in m.items()}
                                       for w, m in data.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
