"""Output checks for the benchmark workloads.

Every check compares a command's output file with `reference.json`, which
was recorded from the covariance engine and the default Monte Carlo seed at
the commit that introduced the benchmark (see make_reference.py).  Each
function returns (problems, deviation): a list of failed checks, empty when
the output is correct, and the largest deviations seen, for diagnosis.

Tolerances of the exact (covariance) comparison admit a transform that
differs from the reference by ~1e-13 in its entries and reject one wrong at
1e-6.  Monte Carlo checks that hold for every seed are statistical: each
estimate must lie within `SIGMAS` standard errors of the exact value, with
standard errors from the exact second moments.  Only the default seed is
also compared with a pinned realisation, tightly enough to see a changed
vacuum stream (~5e-4) but not reordered sums (~1e-15).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
PINNED_SEED = 3
SIGMAS = 5.0

# column -> (absolute, relative) tolerance against the exact reference
EXACT_TOL = {
    "omega": (1e-12, 0.0),
    "theta_d_ext": (1e-9, 0.0),
    "theta_u_ext": (1e-9, 0.0),
    "main_rate": (1e-10, 0.0),
    "conjugate_rate": (1e-10, 0.0),
    "satellite_rate": (1e-10, 0.0),
    "upper_above_zeropoint": (1e-10, 0.0),
    "eq1_ratio": (0.0, 1e-8),
    "eq2_ratio": (0.0, 1e-5),
}
# the pinned Monte Carlo realisation: rates to 1e-9, ratios as above
PINNED_TOL = dict(EXACT_TOL, main_rate=(1e-9, 0.0), conjugate_rate=(1e-9, 0.0),
                  satellite_rate=(1e-9, 0.0),
                  upper_above_zeropoint=(1e-9, 0.0))
# channels whose Monte Carlo estimate is never clamped at zero
POOLED = ("main_rate", "conjugate_rate", "upper_above_zeropoint")
SIMULATE_HEADER = ["trial", "w_re", "w_im", "s_re", "s_im", "u_re", "u_im"]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def read_table(path):
    """(header, rows) of a CSV table; empty cells (absent values) are None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) if v != "" else None for v in row] for row in reader]
    return header, rows


def _compare(header, rows, ref_header, ref_rows, tol, label):
    problems, deviation = [], {}
    if header != ref_header:
        return [f"{label}: header {header} != {ref_header}"], deviation
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, expected {len(ref_rows)}"], deviation
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            problems.append(f"{label}: row {i} has {len(row)} cells")
            continue
        for name, got, want in zip(header, row, ref):
            if (got is None) != (want is None):
                problems.append(f"{label}: row {i} {name} present={got is not None},"
                                f" expected present={want is not None}")
                continue
            if got is None:
                continue
            atol, rtol = tol[name]
            err = abs(got - want)
            scale = atol + rtol * abs(want)
            deviation[name] = max(deviation.get(name, 0.0), err)
            if not err <= scale:
                problems.append(f"{label}: row {i} {name}={got!r}, expected "
                                f"{want!r} within {scale:.3g}")
    return problems, deviation


def check_rainbow_exact(path, ref, key):
    """Covariance sweep: every point, and the present/absent pattern."""
    header, rows = read_table(path)
    return _compare(header, rows, ref["point_fields"], ref[key], EXACT_TOL, key)


def check_rainbow_montecarlo(path, ref, seed, trials):
    """Monte Carlo sweep at 15 steps, checked against the exact state.

    Angles and presence must equal the covariance reference; rates must lie
    within SIGMAS standard errors of the exact rates.  For a channel with
    exact mean intensity n and anomalous moment m = <a^2>, one trial's
    |a|^2 has variance n^2 + |m|^2.  Points draw independent vacua, so the
    z-scores of a never-clamped channel, summed over the band and divided by
    sqrt(points), must also lie within SIGMAS: one point resolves a 10%
    gain error in the main rate only to ~1.4 standard errors.
    """
    header, rows = read_table(path)
    if header != ref["point_fields"]:
        return [f"montecarlo: header {header} != {ref['point_fields']}"], {}
    problems, deviation = _compare(
        header[:3], [r[:3] for r in rows], header[:3],
        [r[:3] for r in ref["covariance_15"]], EXACT_TOL, "montecarlo angles")
    if problems:
        return problems, deviation
    col = {name: i for i, name in enumerate(header)}
    worst, pooled = 0.0, {c: [] for c in POOLED}
    for i, (row, moments) in enumerate(zip(rows, ref["moments_15"])):
        for channel, (n, m_abs, cos) in moments.items():
            got = row[col[channel]]
            if got is None:
                problems.append(f"montecarlo: row {i} {channel} absent")
                continue
            sigma = math.sqrt((n * n + m_abs * m_abs) / trials)
            excess = n - 0.5
            if channel == "upper_above_zeropoint":
                z = (got - excess) / sigma
                bad = abs(z) > SIGMAS
            else:
                lo = max(excess - SIGMAS * sigma, 0.0) / cos
                hi = max(excess + SIGMAS * sigma, 0.0) / cos
                z = (got * cos - max(excess, 0.0)) / sigma
                bad = not lo <= got <= hi
            worst = max(worst, abs(z))
            if channel in pooled:
                pooled[channel].append(z)
            if bad:
                problems.append(f"montecarlo: row {i} {channel}={got!r} is "
                                f"{abs(z):.1f} standard errors from the exact value")
    for channel, zs in pooled.items():
        z = sum(zs) / math.sqrt(len(zs)) if zs else 0.0
        deviation[f"pooled_standard_errors.{channel}"] = z
        if abs(z) > SIGMAS:
            problems.append(f"montecarlo: {channel} over the band is {z:.1f} "
                            "standard errors from the exact value")
    deviation["max_standard_errors"] = worst
    if seed == PINNED_SEED:
        pinned, dev = _compare(header, rows, ref["point_fields"],
                               ref["montecarlo_seed3"], PINNED_TOL,
                               "montecarlo pinned seed")
        problems += pinned
        deviation.update({f"pinned.{k}": v for k, v in dev.items()})
    return problems, deviation


def check_simulate(path, ref, trials):
    """Per-trial dump: header, row count, trial index, second moments.

    Columns are zero-mean Gaussian, so a sample second moment of columns
    (i, j) has standard error sqrt((S_ii S_jj + S_ij^2) / N) with S the exact
    second-moment matrix.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != SIMULATE_HEADER:
        return [f"simulate: header {header} != {SIMULATE_HEADER}"], {}
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if data.shape != (trials, len(SIMULATE_HEADER)):
        return [f"simulate: table shape {data.shape}, expected "
                f"({trials}, {len(SIMULATE_HEADER)})"], {}
    if not np.array_equal(data[:, 0], np.arange(trials)):
        problems.append("simulate: trial column is not 0..N-1")
    x = data[:, 1:]
    exact = np.array(ref["simulate_second_moments"])
    diag = np.diag(exact)
    z_mean = np.abs(x.mean(axis=0)) / np.sqrt(diag / trials)
    se = np.sqrt((np.outer(diag, diag) + exact ** 2) / trials)
    z_moment = np.abs(x.T @ x / trials - exact) / se
    for name, z in zip(SIMULATE_HEADER[1:], z_mean):
        if z > SIGMAS:
            problems.append(f"simulate: mean of {name} is {z:.1f} standard "
                            "errors from 0")
    for i, j in zip(*np.nonzero(z_moment > SIGMAS)):
        if i <= j:
            problems.append(
                f"simulate: <{SIMULATE_HEADER[i + 1]} {SIMULATE_HEADER[j + 1]}> "
                f"is {z_moment[i, j]:.1f} standard errors from the exact value")
    return problems, {"max_standard_errors": float(max(z_mean.max(),
                                                       z_moment.max()))}
