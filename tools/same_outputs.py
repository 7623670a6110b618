"""Do two source trees give the same bytes on every command?

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [--allow FILE]

Each tree is a checkout of this repository.  Every command of a fixed
matrix runs once per tree, in a fresh `python -m zprainbow.cli` process
with that tree's `src` on PYTHONPATH, in a temporary directory that holds
only its config variants, so no path differs between the trees.  Each
run keeps its stdout (which carries the rainbow's config fingerprint),
stderr and exit code, and the output file of a command that takes
--output (or a note that there is none).  Each file prints as identical
or different, with its first differing lines, then a total.  The
--allow FILE lists, one per line, the file names expected to differ,
such as `rainbow-montecarlo.stdout` after a fingerprinted key changes.
The exit code is 1 when a file that is not allowed differs, or when an
allowed name turns out identical or names no file of the matrix (a
stale or misspelt entry), each printed; else 0.

The matrix: `angles`; `rainbow` on both engines; `ratios` on both
engines (Monte Carlo at 10**6 trials) at omega 0.54, 0.5 and 0.6 and
forced to 10/12 degrees; `ratios` at omega 0.54 and 0.57 on both engines
with `couplings.g_up` 0 and with `crystal.window_um` [0.27, 1.02];
`darkrate`, default and `--windows 1 10`; `simulate --trials 200000`,
raw and mapped, in CSV and JSON; and `-h` of the program and of each
command.  Runs are sequential and use the default worker count, as a
user's run does; every output is defined to be independent of it.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time

COMMANDS = ("angles", "rainbow", "ratios", "darkrate", "simulate")
MONTECARLO = ("--engine", "montecarlo", "--trials", "1000000")
COVARIANCE = ("--engine", "covariance")
# config name -> (section, key, value) set on the tree's shipped config
CONFIGS = {"g_up0": ("couplings", "g_up", 0.0),
           "window": ("crystal", "window_um", [0.27, 1.02])}


def matrix():
    """(run name, config name or None, argv, output suffix or None)."""
    runs = [("help", None, ["-h"], None)]
    runs += [(f"{c}-help", None, [c, "-h"], None) for c in COMMANDS]
    runs.append(("angles", None, ["angles"], ".csv"))
    runs += [(f"rainbow-{engine[1]}", None, ["rainbow", *engine], ".csv")
             for engine in (COVARIANCE, MONTECARLO[:2])]
    for engine in (COVARIANCE, MONTECARLO):
        for omega in ("0.54", "0.5", "0.6"):
            runs.append((f"ratios-{engine[1]}-{omega}", None,
                         ["ratios", *engine, "--omega", omega], ".csv"))
        runs.append((f"ratios-{engine[1]}-forced", None,
                     ["ratios", *engine, "--theta-low-deg", "10",
                      "--theta-high-deg", "12"], ".csv"))
        for config in CONFIGS:
            for omega in ("0.54", "0.57"):
                runs.append((f"ratios-{engine[1]}-{config}-{omega}", config,
                             ["ratios", *engine, "--omega", omega], ".csv"))
    runs += [("darkrate", None, ["darkrate"], ".csv"),
             ("darkrate-windows", None,
              ["darkrate", "--windows", "1", "10"], ".csv")]
    for raw in ((), ("--raw-vacuum",)):
        for fmt in ("csv", "json"):
            runs.append((f"simulate{'-raw' if raw else ''}-{fmt}", None,
                         ["simulate", "--trials", "200000", *raw,
                          "--format", fmt], f".{fmt}"))
    return runs


def run_tree(tree, work):
    """Run the matrix on `tree` in the directory `work`, leaving each
    run's four files there; their names, in matrix order."""
    with open(os.path.join(tree, "src", "zprainbow", "configs",
                           "default.json")) as fh:
        shipped = fh.read()
    for name, (section, key, value) in CONFIGS.items():
        config = json.loads(shipped)
        config[section][key] = value
        with open(os.path.join(work, f"{name}.json"), "w") as fh:
            json.dump(config, fh, indent=2)
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.abspath(tree), "src"), PYTHONDONTWRITEBYTECODE="1")
    names = []
    for name, config, argv, suffix in matrix():
        output = name + suffix if suffix else None
        cmd = [sys.executable, "-m", "zprainbow.cli"]
        if config:
            cmd += ["--config", f"{config}.json"]
        cmd += argv + (["--output", output] if output else [])
        run = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                             timeout=600)
        kept = {"stdout": run.stdout, "stderr": run.stderr,
                "exit": f"{run.returncode}\n".encode()}
        if output:
            if os.path.exists(path := os.path.join(work, output)):
                os.replace(path, os.path.join(work, f"{name}.output"))
            else:
                kept["output"] = b"(no output file)\n"
            names.append(f"{name}.output")
        for kind, data in kept.items():
            with open(os.path.join(work, f"{name}.{kind}"), "wb") as fh:
                fh.write(data)
        names += [f"{name}.{kind}" for kind in ("stdout", "stderr", "exit")]
    return names


def differences(a, b, limit: int = 5):
    """The first `limit` lines that differ between the files a and b, with
    their line numbers; a line past the end of a file shows as (no
    line)."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        shown = 0
        for number, (x, y) in enumerate(itertools.zip_longest(fa, fb), 1):
            if x == y:
                continue
            if shown == limit:
                yield "    ..."
                return
            shown += 1
            yield f"    line {number}:"
            for side, line in (("parent", x), ("change", y)):
                text = ("(no line)" if line is None
                        else line.decode(errors="replace").rstrip("\n"))
                yield f"      {side}: {text[:200]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare every command's bytes across two trees")
    parser.add_argument("parent", help="the parent commit's tree")
    parser.add_argument("change", help="the changed tree")
    parser.add_argument("--allow", metavar="FILE",
                        help="file names expected to differ, one per line")
    args = parser.parse_args(argv)
    allowed = set()
    if args.allow:
        with open(args.allow) as fh:
            allowed = {line.strip() for line in fh if line.strip()}
    start = time.perf_counter()
    different = failed = 0
    identical = set()
    with tempfile.TemporaryDirectory() as work:
        parent, change = (os.path.join(work, side)
                          for side in ("parent", "change"))
        for tree, side in ((args.parent, parent), (args.change, change)):
            os.mkdir(side)
            names = run_tree(tree, side)
        for name in names:
            a, b = os.path.join(parent, name), os.path.join(change, name)
            if filecmp.cmp(a, b, shallow=False):
                print(f"identical  {name}")
                identical.add(name)
                continue
            different += 1
            failed += name not in allowed
            print(f"different  {name}"
                  f"{' (allowed)' if name in allowed else ''}")
            for line in differences(a, b):
                print(line)
    print(f"{len(names)} files: {len(names) - different} identical, "
          f"{different} different ({different - failed} allowed); "
          f"{time.perf_counter() - start:.1f} s")
    # an allowed name that matched nothing would hide a later difference
    stale = [(name, "identical" if name in identical else "not in the matrix")
             for name in sorted(allowed - set(names) | allowed & identical)]
    for name, why in stale:
        print(f"allowed but {why}: {name}")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
