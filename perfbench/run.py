"""zprainbow benchmark: three CLI workloads, end-to-end and per-layer metrics.

One workload, as BENCHMARK.json runs it:

    python3 perfbench/run.py --workload rainbow-montecarlo --seed 3 --seconds 30 --trace 0

All workloads, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all

Every timed pass is one call of the public entry point
`zprainbow.cli.main(argv)` in this process, on a config file generated
here from the keys of the shipped schema.  At least two passes run, so
that their outputs can be compared byte for byte, and a further pass
starts only if it is expected to end within --seconds.  Pass and set-up
times are normalised to a reference host speed sampled while they run
(HostSpeed).  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates plain and traced passes and reports the per-layer
metrics of layertrace.py.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; the exit code is 0 only when
every output check passed, and 2 without a result when the package cannot
be imported from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# The speed of a shared host drifts by up to +-25% over tens of seconds
# (process CPU time drifts with wall time), as much as the largest bound.
# So while a pass or a set-up probe runs, a fixed piece of work is timed in
# the main thread every SAMPLE_PERIOD_S (see HostSpeed), and the
# interval, less the sampling, is reported scaled to a host on which that
# work takes SAMPLE_REF_S.
SAMPLE_PERIOD_S = 0.05
SAMPLE_REF_S = 0.0004

# The shipped default configuration, less `workers` (which may go away).
BASE_CONFIG = {
    "crystal": {
        "sellmeier_o": [[1.62, 0.0004], [0.07, 1.69]],
        "sellmeier_e": [[0.55, 0.018], [0.01, 1.69]],
        "cut_angle_deg": 10.166,
        "length_mm": 0.06,
        "pump_wavelength_nm": 400.0,
        "gain_per_mm": 1.6666666666666667,
        "pump_polarization": "extraordinary",
        "window_um": [0.215, 1.02],
    },
    "detector": {"threshold": 0.6, "window_samples": 1, "efficiency": 1.0},
    "engine": "montecarlo",
    "trials": 1_000_000,
    "seed": 3,
    "sweep": {"omega_min": 0.44, "omega_max": 0.58, "steps": 15},
    "output": {"path": "zprainbow_out.csv", "format": "csv"},
}
# the warm-up call: same command and engine on a tiny input
WARMUP = {"sweep": {"omega_min": 0.50, "omega_max": 0.51, "steps": 2},
          "trials": 2000}


@dataclass(frozen=True)
class Workload:
    command: tuple     # CLI words after --config
    config: dict       # overrides of BASE_CONFIG
    item: str          # the unit of work `throughput` counts


WORKLOADS = {
    # coupling (RK4 transforms) is ~97% of a pass; no vacuum sampling and
    # no Monte Carlo reducer.  Twice the shipped density, as dense grids are
    # where batching across omega pays.
    "rainbow-covariance": Workload(
        ("rainbow",),
        {"engine": "covariance",
         "sweep": {"omega_min": 0.44, "omega_max": 0.58, "steps": 30}},
        "sweep points"),
    # the shipped default run: transforms, vacuum sampling and the
    # reduction each take about a third
    "rainbow-montecarlo": Workload(("rainbow",), {}, "vacuum mode-samples"),
    # per-row CSV output is ~94%; one transform, materialised vacuum
    "simulate-csv": Workload(("simulate", "--omega", "0.54"),
                             {"trials": 200_000}, "CSV rows"),
}

END_TO_END = {
    "wall_s": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}


class HostSpeed:
    """Samples the host's speed while a timed interval runs.

    On entry and exit, and from a SIGALRM handler every SAMPLE_PERIOD_S in
    between, times a fixed piece of work (`_work`) in the main thread (a
    signal handler runs between bytecodes, so a long native call delays
    it).  Only the main thread of a process may use it.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.full((6, 6), 0.1 + 0.05j)
        self._floats = [i * 0.123456789 for i in range(40)]
        self.samples = []      # seconds of each sample, in order
        self.seconds = None    # the interval, samples inside it included
        self._start = None

    def _work(self):
        """Interpreter arithmetic, small-array numpy calls and float
        formatting: the kinds of work the passes do."""
        acc = 0.0
        for i in range(2000):
            acc += i * 7 % 13
        for j in range(12):
            s = self._small * self._np.exp(0.01j * j)
            s += self._small
            acc += (s @ self._small).real[0, 0]
        for _ in range(3):
            ",".join(repr(v) for v in self._floats)
        return acc

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def sampled_inside(self):
        """Seconds spent sampling inside the interval."""
        return sum(self.samples[1:-1])

    def speed_factor(self):
        """Reference sample time over the median sample time: 1 at the
        reference speed.  The median ignores a sample that the hypervisor
        happened to pause."""
        return SAMPLE_REF_S / statistics.median(self.samples)

    def normalised(self):
        """The interval, less its sampling, at the reference host speed."""
        return (self.seconds - self.sampled_inside()) * self.speed_factor()


def workload_config(name, seed, out_path, warmup=False):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg.update(copy.deepcopy(WORKLOADS[name].config))
    if warmup:
        cfg.update(copy.deepcopy(WARMUP))
    cfg["seed"] = seed
    cfg["output"] = {"path": str(out_path), "format": "csv"}
    return cfg


def write_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return str(path)


def import_cli():
    """zprainbow.cli from this checkout's src, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import zprainbow
    from zprainbow import cli
    if not Path(zprainbow.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"zprainbow resolved to {zprainbow.__file__}, "
                          f"not under {SRC}")
    return cli


def call_cli(cli, argv):
    """One cli.main call with its console output captured; exit code or None."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else None
    except Exception:
        traceback.print_exc()
        return None


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(loadavg_start):
    import numpy as np
    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        # unset means the BLAS default: one thread per core
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(loadavg_start),
        "commit": git_commit(),
    }


def work_items(name, path, cfg):
    """Units of work one pass did, counted from its checked output."""
    from checks import read_table
    if name == "simulate-csv":
        return cfg["trials"]
    _, rows = read_table(path)
    if name == "rainbow-covariance":
        return len(rows)
    geometries = sum((r[1] is not None) + (r[2] is not None) for r in rows)
    return geometries * cfg["trials"] * 3


def check_output(name, path, seed, cfg):
    import checks
    ref = checks.load_reference()
    if name == "rainbow-covariance":
        return checks.check_rainbow_exact(path, ref, "covariance_30")
    if name == "rainbow-montecarlo":
        return checks.check_rainbow_montecarlo(path, ref, seed, cfg["trials"])
    return checks.check_simulate(path, ref, cfg["trials"])


def setup_probe(args):
    """Child process of a set-up measurement: import, config, warm-up call.

    Prints the host-speed samples of its own run as JSON for the parent.
    """
    with HostSpeed() as host:
        try:
            cli = import_cli()
        except ImportError as e:
            print(f"cannot import zprainbow: {e}", file=sys.stderr)
            return 2
        rc = call_cli(cli, ["--config", args.probe,
                            *WORKLOADS[args.workload].command])
    print(json.dumps({"sampled_inside": host.sampled_inside(),
                      "speed_factor": host.speed_factor()}))
    return 0 if rc == 0 else 1


def measure_setup(name, warm_cfg):
    """Median wall time of fresh processes that set up and warm up.

    Each probe's time, less its own host-speed sampling, is scaled by the
    speed the probe sampled (see HostSpeed).
    """
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--probe", warm_cfg],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=PROBE_TIMEOUT_S, check=False)
        seconds = time.perf_counter() - t0
        try:
            host = json.loads(r.stdout.strip().splitlines()[-1])
            times.append((seconds - host["sampled_inside"])
                         * host["speed_factor"])
        except (IndexError, KeyError, json.JSONDecodeError):
            times.append(seconds)
            problems.append("set-up probe printed no host-speed samples")
        if r.returncode != 0:
            last = (r.stderr.strip().splitlines() or [""])[-1]
            problems.append(f"set-up probe exited {r.returncode}: {last}")
    return statistics.median(times), problems


def run_workload(args, loadavg_start):
    try:
        cli = import_cli()
    except ImportError as e:
        print(f"cannot import zprainbow: {e}", file=sys.stderr)
        return 2
    import layertrace

    name, spec = args.workload, WORKLOADS[args.workload]
    work = OUT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out_path = work / "out.csv"
        first_path = work / "first.csv"
        cfg = workload_config(name, args.seed, out_path)
        argv = ["--config", write_config(cfg, work / "config.json"), *spec.command]
        warm_cfg = write_config(workload_config(name, args.seed, work / "warm.csv",
                                                warmup=True),
                                work / "warm.json")
        problems = []
        if not args.trace:
            setup_s, probe_problems = measure_setup(name, warm_cfg)
            problems += probe_problems
        if call_cli(cli, ["--config", warm_cfg, *spec.command]) != 0:
            problems.append("warm-up call failed")

        tracer = layertrace.Tracer(sys.modules["zprainbow"]) if args.trace else None
        passes = []    # (wall_s, exit code, sha256 of output, traced)
        normalised_walls = []
        start = time.perf_counter()
        # a pass starts only if, at the pace so far, it ends inside the window
        while (len(passes) < MIN_PASSES or time.perf_counter() - start
               + statistics.median(p[0] for p in passes) <= args.seconds):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install(len(passes))
            c0 = time.process_time()
            with HostSpeed() as host:
                rc = call_cli(cli, argv)
            wall, cpu = host.seconds, time.process_time() - c0
            if traced:
                tracer.uninstall()
            sha = digest(out_path) if out_path.exists() else None
            if sha is not None:
                if rc == 0 and not first_path.exists():
                    os.replace(out_path, first_path)
                else:
                    out_path.unlink()
            passes.append((wall, rc, sha, traced))
            normalised_walls.append(host.normalised())
            print(f"pass {len(passes)}: {wall:.4f} s cpu {cpu:.4f} s "
                  f"host speed {host.speed_factor():.4f} "
                  f"({len(host.samples)} samples) normalised "
                  f"{normalised_walls[-1]:.4f} s exit={rc}"
                  f"{' traced' if traced else ''}", flush=True)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # passing outputs must be byte-identical, so checking one checks all
        content, deviation, items = ["no pass wrote an output"], {}, 0
        if first_path.exists():
            content, deviation = check_output(name, first_path, args.seed, cfg)
            if not content:
                items = work_items(name, first_path, cfg)
        problems += content
        first_sha = next((sha for _, rc, sha, _ in passes if rc == 0 and sha),
                         None)
        ok = [rc == 0 and sha == first_sha and not content
              for _, rc, sha, _ in passes]
        for i, (_, rc, sha, _) in enumerate(passes):
            if rc != 0 or sha is None:
                problems.append(f"pass {i + 1}: exit code {rc}, output "
                                f"{'missing' if sha is None else 'written'}")
            elif sha != first_sha:
                problems.append(f"pass {i + 1}: output differs from the "
                                "first passing output")
        attempted, failed = len(passes), ok.count(False)

        walls = [p[0] for p in passes]
        env = environment(loadavg_start)
        if args.trace:
            metrics = tracer.metrics([p[0] for p in passes if p[3]],
                                     [p[0] for p in passes if not p[3]])
            tracer.dump(OUT / f"trace-{name}-seed{args.seed}.json",
                        {"workload": name, "seed": args.seed, "walls": walls,
                         "environment": env})
            if tracer.unwrapped:
                print(f"unwrapped: {', '.join(tracer.unwrapped)}")
        else:
            # a failed pass may return early; it must not look fast
            wall_s = statistics.median(
                [w for w, good in zip(normalised_walls, ok) if good]
                or normalised_walls)
            values = {"wall_s": wall_s,
                      "throughput": items / wall_s,
                      "setup_s": setup_s,
                      "peak_rss_mib": peak_rss_mib,
                      "success_rate": (attempted - failed) / attempted}
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + json.dumps(env, sort_keys=True))
    print("deviation: " + json.dumps(deviation, sort_keys=True))
    for p in problems:
        print(f"check failed: {p}")
    print(f"workload {name}, seed {args.seed}, {attempted} passes "
          f"({spec.item} per pass: {items})")
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    print(f"raw wall_s (not normalised): {statistics.median(walls):.6g} s")
    print(f"error_rate: {failed / attempted:.6g} ({failed}/{attempted} passes)")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process; a summary table; exit 1 on failure."""
    results, rc = {}, 0
    for name in WORKLOADS:
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True, check=False)
        lines = r.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {r.returncode})",
                  file=sys.stderr)
            return r.returncode or 1
        rc = rc or r.returncode
    print(f"{'metric':<40}" + "".join(f"{w:>20}" for w in results))
    first = results["rainbow-covariance"]["metrics"]
    for k, m in first.items():
        print(f"{k + ' (' + m['unit'] + ')':<40}" + "".join(
            f"{r['metrics'][k]['value']:>20.6g}" for r in results.values()))
    print(f"{'error_rate (ratio)':<40}" + "".join(
        f"{r['failed'] / r['attempted']:>20.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return rc


def main(argv=None):
    loadavg_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3,
                        help="config seed of the workload (default: the "
                             "shipped seed 3)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, loadavg_start)


if __name__ == "__main__":
    sys.exit(main())
