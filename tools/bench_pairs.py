"""Alternating perfbench pairs of two checkouts, and the verdict per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload simulate-csv \
        --seed 3 --seed 11 --pairs 10 --seconds 10 --json OUT.json

PARENT and CHANGE are two checkouts of this repository that hold the
same `perfbench/` (checked byte for byte, its `out/` and `__pycache__`
aside); they may differ anywhere else.  For each workload and seed, pair
k runs `python3 perfbench/run.py --workload W --seed S --seconds T` once
in each checkout, the parent first in even pairs and the change first in
odd ones, one run at a time.  From each run it keeps the last line of
standard output (perfbench's JSON result) and the `raw wall_s (not
normalised)` line.  Nothing under `perfbench/` is edited; the runs write
their own `perfbench/out/`.

Per workload, seed and metric it prints the two medians, the pairs in
which the change is better (the metric's direction comes from the
parent's BENCHMARK.json; raw_wall_s is lower-better), the parent's
interquartile range and the verdict: "gain" when the change wins at least
9 in 10 pairs and its median beats the parent's by more than the
parent's IQR, "loss" when the parent does, else "level".  --json writes
every run and every verdict.  The exit code is 2 when `perfbench/`
differs (nothing runs), 1 when a run fails or prints no result, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

RAW_WALL = re.compile(r"^raw wall_s \(not normalised\): (\S+) s$", re.M)
SIDES = ("parent", "change")


def same_perfbench(a: str, b: str) -> list:
    """The files under perfbench/ that differ between two checkouts."""
    def files(root):
        found = set()
        for here, dirs, names in os.walk(os.path.join(root, "perfbench")):
            dirs[:] = [d for d in dirs if d not in ("out", "__pycache__")]
            found |= {os.path.relpath(os.path.join(here, n), root)
                      for n in names}
        return found

    names = files(a) | files(b)
    return sorted(n for n in names if not (
        os.path.isfile(os.path.join(a, n)) and os.path.isfile(
            os.path.join(b, n)) and filecmp.cmp(
            os.path.join(a, n), os.path.join(b, n), shallow=False)))


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metrics, raw wall, exit code and duration."""
    began = time.time()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    record = {"exit": done.returncode, "seconds": time.time() - began}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = (done.stderr or done.stdout)[-2000:]
        return record
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    record.update(correct=result["correct"], failed=result["failed"],
                  attempted=result["attempted"], metrics=metrics)
    raw = RAW_WALL.search(done.stdout)
    if raw:
        record["metrics"]["raw_wall_s"] = float(raw.group(1))
    return record


def quartiles(values) -> tuple:
    """First and third quartiles, numpy.percentile's linear interpolation."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent, change, lower_better: bool) -> dict:
    """Medians, the change's wins and the gain/loss/level verdict."""
    sign = -1 if lower_better else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gap = sign * (c_med - p_med)
    needed = 0.9 * len(parent)
    if wins >= needed and gap > q3 - q1:
        call = "gain"
    elif losses >= needed and -gap > q3 - q1:
        call = "loss"
    else:
        call = "level"
    return {"parent_median": p_med, "change_median": c_med,
            "ratio": c_med / p_med if p_med else None,
            "change_wins": wins, "pairs": len(parent),
            "parent_iqr": q3 - q1, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", default=None, help="write the record here")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (os.path.abspath(args.parent),
                                 os.path.abspath(args.change))))
    differ = same_perfbench(*checkouts.values())
    if differ:
        print(f"perfbench/ differs between the checkouts: {differ}",
              file=sys.stderr)
        return 2
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json")) as fh:
        lower = {m["name"]: m["better"] == "lower"
                 for m in json.load(fh)["end_to_end"]}
    lower["raw_wall_s"] = True

    record = {"command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g}",
              "checkouts": checkouts, "nproc": os.cpu_count(),
              "python": platform.python_version(), "sets": []}
    failed = False
    for workload in args.workload:
        for seed in args.seed:
            runs = {side: [] for side in SIDES}
            first = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    result = run(checkouts[side], workload, seed,
                                 args.seconds)
                    runs[side].append(result)
                    failed |= (result["exit"] != 0
                               or "metrics" not in result)
                    print(f"{workload} seed {seed} pair {k + 1} {side}: "
                          f"{json.dumps(result.get('metrics'))}", flush=True)
            verdicts = {}
            if all("metrics" in r for side in SIDES for r in runs[side]):
                for name in runs["parent"][0]["metrics"]:
                    verdicts[name] = verdict(
                        *([r["metrics"][name] for r in runs[side]]
                          for side in SIDES), lower.get(name, True))
            print(f"\n{workload}, seed {seed}, {args.pairs} pairs")
            print(f"{'metric':<16}{'parent':>14}{'change':>14}{'ratio':>8}"
                  f"{'wins':>7}{'parent IQR':>13}  verdict")
            for name, v in verdicts.items():
                ratio = f"{v['ratio']:.3f}" if v["ratio"] is not None else "-"
                print(f"{name:<16}{v['parent_median']:>14.6g}"
                      f"{v['change_median']:>14.6g}{ratio:>8}"
                      f"{v['change_wins']:>4}/{v['pairs']:<2}"
                      f"{v['parent_iqr']:>13.4g}  {v['verdict']}")
            print(flush=True)
            record["sets"].append({"workload": workload, "seed": seed,
                                   "first_in_pair": first, "runs": runs,
                                   "verdicts": verdicts})
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(record, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
