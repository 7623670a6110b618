"""Frequency sweep synthesizing the main and satellite rainbows.

Each sampled frequency w (as a fraction of the pump) is evaluated at two
geometries:

  * the down-conversion-matched geometry, where the pair process is exact
    and the competing up-conversion runs with its natural mismatch; this
    yields the main rainbow channel at w and its conjugate at w0 - w;
  * the up-conversion-matched geometry, where the conversion is exact and
    the pair process is mismatched; the residual pair excess that survives
    the mismatch is the satellite channel at w, and the signed excess of
    the w0 + w channel feeds the up-conversion rate relation.

The eq1_ratio column isolates the pair process (up-conversion coupling
off) so it reflects the pure geometric cosine asymmetry; main_rate and
conjugate_rate keep the triple's three waves, w, w0 - w and w0 + w, with
both the pair process and the input's up conversion.  The conjugate's
own up conversion, to 2 w0 - w, is outside the triple and not modelled.

The sweep works on columns from start to end.  One dispersion.Band
gives both processes' matched triples as Geometry records of columns,
each absent point with the error that says why: that point is absent
(NaN fields), never extrapolated.  The main, pair-only and satellite
systems' coupling columns are stacked straight from those records into
one coupling.three_wave_matrices call, and every rate and ratio column
comes from their means by detection.rates, down_ratios and up_ratios.
The CLI's ratios report reads the same columns at its one frequency.
No Mode or ThreeWaveSystem is built on that path; only the one-frequency
calls pdc_system and puc_system build them.
Both engines share one path from the vacuum to the means,
mean_intensities.  The engines differ only in the input covariances:
`covariance` takes the exact vacuum (zpf.vacuum_state) for every
transform; `montecarlo` samples every vacuum of the stack in one pass
(zpf.sampled_states) and gives each transform the raw second moments of
its vacuum, which yields the trial means of |T alpha|^2 up to rounding.
One stacked product, coupling.propagate_covariances, then serves both.
At a sweep point the main and pair-only systems share one vacuum and the
satellite has its own, each from a per-point seed derived from the
master seed only where a vacuum is sampled; the ratios report's systems
all share the master seed's vacuum.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import coupling as cp
from . import dispersion as dp
from .detection import DetectorSpec, Rates, down_ratios, rates, up_ratios
from .errors import (BandError, ConfigError, InvalidArgumentError,
                     NoSolutionError, present)
from .zpf import mode_intensities, sampled_states, vacuum_state

ENGINES = ("covariance", "montecarlo")
# Monte Carlo trials and master seed of a sweep, and of a config that
# names none
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Couplings:
    """Effective three-wave couplings beside the pair gain, which is the
    crystal's gain_per_mm; g_up None means auto from that gain.

    The phases are a gauge: they conjugate every transform by a constant
    diagonal phase, which leaves the vacuum and so every mean intensity
    unchanged, and the config sets neither.  They are kept for library
    transforms and for picking Monte Carlo realisations, as the same
    seed maps through a rotated transform to another draw."""

    g_up: float | None = None
    phi_down: float = 0.0
    phi_up: float = 0.0


@dataclass(frozen=True)
class RainbowPoint:
    """One frequency sample of the synthesized rainbows (NaN = absent)."""

    omega: float
    theta_d_ext: float
    theta_u_ext: float
    main_rate: float
    conjugate_rate: float
    satellite_rate: float
    upper_above_zeropoint: float
    eq1_ratio: float
    eq2_ratio: float

    @property
    def has_main(self) -> bool:
        return not math.isnan(self.theta_d_ext)

    @property
    def has_satellite(self) -> bool:
        return not math.isnan(self.theta_u_ext)


POINT_FIELDS = tuple(f.name for f in fields(RainbowPoint))


@dataclass(frozen=True)
class RainbowTable:
    points: tuple
    config_fingerprint: str

    def __post_init__(self):
        omegas = [p.omega for p in self.points]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise InvalidArgumentError("points must be strictly ordered in omega")
        object.__setattr__(self, "points", tuple(self.points))


def config_fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _point_seed(seed: int, index: int, slot: int) -> int:
    return int(np.random.SeedSequence(
        seed, spawn_key=(index, slot)).generate_state(1, np.uint64)[0])


def pdc_system(crystal: dp.CrystalSpec, omega: float,
               couplings: Couplings) -> cp.ThreeWaveSystem:
    """Three-wave system at the down-conversion-matched geometry."""
    return _system("down", crystal, omega, couplings)


def puc_system(crystal: dp.CrystalSpec, omega: float,
               couplings: Couplings) -> cp.ThreeWaveSystem:
    """Three-wave system at the up-conversion-matched geometry."""
    return _system("up", crystal, omega, couplings)


def _g_up(crystal, couplings):
    return crystal.gain_per_mm if couplings.g_up is None else couplings.g_up


def _triples(process, band: dp.Band, couplings) -> dp.Geometry:
    """The band's process-matched triples, or why there is none at each
    omega: without an up-conversion coupling there is no "up" process at
    all."""
    if process == "up" and _g_up(band.spec, couplings) == 0.0:
        return dp.Geometry.absent(band.omega, lambda: NoSolutionError(
            "no up-conversion: its coupling g_up is 0"))
    return band.triples(process)


def _system(process, crystal, omega, couplings):
    """The process's triple at omega with the couplings, the crystal gain
    and length attached, or raise why there is none."""
    found = _triples(process, dp.Band([omega], crystal), couplings)
    present(found.reasons.get(0))
    return cp.ThreeWaveSystem(
        g_down=crystal.gain_per_mm, g_up=_g_up(crystal, couplings),
        phi_down=couplings.phi_down, phi_up=couplings.phi_up,
        dk_down=float(found.dk_down[0]), dk_up=float(found.dk_up[0]),
        length_mm=crystal.length_mm, modes=found.modes(0))


def mean_intensities(matrices, engine: str, trials: int, seed: int,
                     workers: int = 1, vacua=None) -> np.ndarray:
    """(N, M) mean |alpha|^2 per mode after each of an (N, 2M, 2M) stack of
    transform matrices acts on the vacuum.

    The engine only picks the input covariances; one
    coupling.propagate_covariances call then moves them through the whole
    stack.  `covariance` takes the exact vacuum, one covariance for every
    transform.  `montecarlo` (trials, seed and workers apply to it only)
    samples every vacuum in one zpf.sampled_states pass, and transform i
    takes the raw second moments of its own vacuum, which gives the trial
    means of |T alpha|^2 at a reduction cost that does not grow with the
    number of transforms.  vacua[i] names the vacuum of transform i, a
    point key (index, slot) whose vacuum is drawn from the per-point seed
    _point_seed(seed, index, slot); transforms with equal keys share one
    vacuum.  Without vacua every transform shares the vacuum drawn from
    `seed` itself.  Any other engine is an InvalidArgumentError; more
    trials than memory holds raise ConfigError on `trials`.
    """
    if engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {engine!r}")
    n_modes = matrices.shape[-1] // 2
    if engine == "covariance":
        covariances = vacuum_state(n_modes).covariance
    else:
        keys = vacua or [None] * len(matrices)
        rows = {key: row for row, key in enumerate(dict.fromkeys(keys))}
        try:
            covariances = sampled_states(n_modes, trials, [
                seed if key is None else _point_seed(seed, *key)
                for key in rows], workers)[[rows[key] for key in keys]]
        except MemoryError:
            raise ConfigError("trials",
                              f"{trials} trials exceed memory") from None
    return mode_intensities(cp.propagate_covariances(matrices, covariances))


class Columns(NamedTuple):
    """The sweep's columns over a band of N frequencies.  main.reasons
    and satellite.reasons say why a process has no triple at a point; a
    satellite also needs the main rainbow."""

    main: dp.Geometry        # the down-matched triples
    satellite: dp.Geometry   # the up-matched triples
    satellite_rates: Rates   # (N, 3) each: the satellite system's rates
    # by mode (w, w0 - w, w0 + w); NaN where the satellite is absent
    table: np.ndarray        # (N, 9): the RainbowPoint columns


def columns(omegas, crystal, couplings, engine, trials, seed, workers,
            per_point) -> Columns:
    """The sweep of omegas as columns, with one stack of transforms and
    one mean_intensities call for every present system.  per_point
    gives point i's main and pair-only systems the vacuum (i, 0) and its
    satellite (i, 1); without it all share seed's vacuum."""
    band = dp.Band(omegas, crystal)
    omegas, n = band.omega, len(band.omega)
    main = _triples("down", band, couplings)
    sat = _triples("up", band, couplings)
    # each point's systems, in stack order: the main one and its pair-only
    # twin, and the satellite, which needs the main rainbow
    systems = np.stack([main.present, main.present,
                        main.present & sat.present], axis=1)
    point, system = np.nonzero(systems)
    pair, satellite = system == 1, system == 2
    g_up = _g_up(crystal, couplings)
    matrices = cp.three_wave_matrices(
        crystal.gain_per_mm, np.where(pair, 0.0, g_up), couplings.phi_down,
        np.where(pair, 0.0, couplings.phi_up),
        np.where(satellite, sat.dk_down[point], main.dk_down[point]),
        np.where(satellite, sat.dk_up[point],
                 np.where(pair, 0.0, main.dk_up[point])),
        crystal.length_mm)
    vacua = (list(zip(point.tolist(), (system // 2).tolist()))
             if per_point else None)
    means = np.full((n, 3, 3), np.nan)
    means[systems] = mean_intensities(matrices, engine, trials, seed,
                                      workers, vacua)
    # the main and pair-only systems share the main triple's modes
    main_r = rates(means[:, :2], main.theta_external[:, None])
    sat_r = rates(means[:, 2], sat.theta_external)
    pair_w, pair_s = (Rates(*(c[:, 1, mode] for c in main_r))
                      for mode in (0, 1))
    sat_w, sat_u = (Rates(*(c[:, mode] for c in sat_r)) for mode in (0, 2))
    table = np.stack([
        omegas, main.theta_external[:, 0],
        np.where(systems[:, 2], sat.theta_external[:, 0], np.nan),
        main_r.photon_rate[:, 0, 0], main_r.photon_rate[:, 0, 1],
        sat_w.photon_rate, sat_u.above_zeropoint,
        down_ratios(pair_w, pair_s), up_ratios(sat_w, sat_u)], axis=1)
    return Columns(main, sat, sat_r, table)


def sweep_grid(omega_min: float, omega_max: float, steps: int) -> np.ndarray:
    """The sweep's frequencies: `steps` evenly spaced from omega_min to
    omega_max.  Raises InvalidArgumentError unless 0 < omega_min <
    omega_max < 1, steps >= 2 and the float grid fits in memory and is
    strictly increasing (a few ulp of band hold few distinct floats)."""
    if not 0.0 < omega_min < omega_max < 1.0:
        raise InvalidArgumentError("need 0 < omega_min < omega_max < 1")
    if steps < 2:
        raise InvalidArgumentError("steps must be >= 2")
    # the band holds as many floats as their bit patterns span
    lo, hi = struct.unpack("<2q", struct.pack("<2d", omega_min, omega_max))
    try:
        omegas = (np.linspace(omega_min, omega_max, steps)
                  if steps <= hi - lo + 1 else None)
    except MemoryError:
        raise InvalidArgumentError(f"{steps} steps exceed memory") from None
    if omegas is None or not (np.diff(omegas) > 0).all():
        raise InvalidArgumentError(f"{steps} steps repeat a frequency of "
                                   f"[{omega_min!r}, {omega_max!r}]")
    return omegas


def sweep(omega_min: float, omega_max: float, steps: int,
          crystal: dp.CrystalSpec, detector: DetectorSpec,
          engine: str = "covariance", trials: int = DEFAULT_TRIALS,
          seed: int = DEFAULT_SEED, couplings: Couplings = Couplings(),
          workers: int = 1) -> RainbowTable:
    """Sample the matched band and synthesize both rainbows.

    A point is present when its full (w, w0-w, w0+w) triple is
    representable inside the transparency window and down conversion
    phase matches; the satellite additionally needs a nonzero
    up-conversion coupling and an up-conversion match.  Raises BandError
    when no frequency in the requested range matches at all.
    """
    omegas = sweep_grid(omega_min, omega_max, steps)
    fingerprint = config_fingerprint(dict(
        omega_min=omega_min, omega_max=omega_max, steps=steps,
        crystal=crystal, detector=detector, engine=engine,
        trials=trials, seed=seed, couplings=couplings))

    found = columns(omegas, crystal, couplings, engine, trials, seed,
                    workers, per_point=True)
    if not found.main.present.any():
        raise BandError(
            f"no phase-matched frequency in [{omega_min}, {omega_max}]; "
            "check the crystal dispersion and pump settings")
    return RainbowTable(
        points=tuple(RainbowPoint(*row) for row in found.table.tolist()),
        config_fingerprint=fingerprint)


def satellite_summary(table: RainbowTable) -> tuple[float, float]:
    """(mean satellite/main rate ratio, mean theta_u/theta_d) over the band.

    Averages the points where both rainbows are present and the main
    channel carries signal; the angle ratio only over those with
    theta_d != 0 (a collinear main rainbow), NaN when there are none.
    """
    rates, angles = [], []
    for p in table.points:
        if p.has_main and p.has_satellite and p.main_rate > 0.0:
            rates.append(p.satellite_rate / p.main_rate)
            if p.theta_d_ext != 0.0:
                angles.append(p.theta_u_ext / p.theta_d_ext)
    if not rates:
        raise BandError("no sweep point carries both rainbows")
    angle_ratio = float(np.mean(angles)) if angles else math.nan
    return float(np.mean(rates)), angle_ratio
