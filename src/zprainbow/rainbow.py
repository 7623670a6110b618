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
conjugate_rate keep the full three-wave physics.

dispersion.triples builds the band's matched triples, or says why one is
missing: that point is absent (NaN fields), never extrapolated.  This
module only attaches the couplings; pdc_system and puc_system are the
one-frequency calls.
Both engines share one path from the vacuum to the rates, channel_rates,
which builds the transforms of all its systems (the sweep's whole band)
in one stacked pass, coupling.three_wave_matrices.  The engines differ
only in the input covariances: `covariance` takes the exact vacuum
(zpf.vacuum_state) for every transform; `montecarlo` samples every
vacuum of the stack in one pass (zpf.sampled_states) and gives each
transform the raw second moments of its vacuum, which yields the trial
means of |T alpha|^2 up to rounding.  One stacked product,
coupling.propagate_covariances, then serves both.  evaluate is that pass
for the sweep and for the CLI's ratios report.  At a sweep point the main
and pair-only systems share one vacuum and the satellite has its own,
each from a per-point seed derived from the master seed only where a
vacuum is sampled; the ratios report's systems all share the master
seed's vacuum.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import coupling as cp
from . import dispersion as dp
from .detection import ChannelRate, DetectorSpec, ratio_down, ratio_up
from .errors import (BandError, InvalidArgumentError, NoSolutionError,
                     present)
from .zpf import mode_intensities, sampled_states, vacuum_state

ENGINES = ("covariance", "montecarlo")
# Monte Carlo trials and master seed of a sweep, and of a config that
# names none
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Couplings:
    """Effective three-wave couplings beside the pair gain, which is the
    crystal's gain_per_mm; g_up None means auto from that gain."""

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
    return present(_systems("down", crystal, [omega], couplings)[0])


def puc_system(crystal: dp.CrystalSpec, omega: float,
               couplings: Couplings) -> cp.ThreeWaveSystem:
    """Three-wave system at the up-conversion-matched geometry."""
    return present(_systems("up", crystal, [omega], couplings)[0])


def _systems(process, crystal, omegas, couplings) -> list:
    """dp.triples with the couplings, the crystal gain and length
    attached: each omega's three-wave system, or why there is none.
    Without an up-conversion coupling there is no "up" process at all."""
    g_up = crystal.gain_per_mm if couplings.g_up is None else couplings.g_up
    if process == "up" and g_up == 0.0:
        return [NoSolutionError("no up-conversion: its coupling g_up is 0")
                for _ in omegas]
    found = dp.triples(process, omegas, crystal)
    for i, triple in enumerate(found):
        if isinstance(triple, tuple):
            modes, dk_down, dk_up = triple
            found[i] = cp.ThreeWaveSystem(
                g_down=crystal.gain_per_mm, g_up=g_up,
                phi_down=couplings.phi_down, phi_up=couplings.phi_up,
                dk_down=dk_down, dk_up=dk_up,
                length_mm=crystal.length_mm, modes=modes)
    return found


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
    `seed` itself.  Any other engine is an InvalidArgumentError.
    """
    if engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {engine!r}")
    n_modes = matrices.shape[-1] // 2
    if engine == "covariance":
        covariances = vacuum_state(n_modes).covariance
    else:
        keys = vacua or [None] * len(matrices)
        rows = {key: row for row, key in enumerate(dict.fromkeys(keys))}
        covariances = sampled_states(n_modes, trials, [
            seed if key is None else _point_seed(seed, *key) for key in rows],
            workers)[[rows[key] for key in keys]]
    return mode_intensities(cp.propagate_covariances(matrices, covariances))


def channel_rates(systems, engine: str, trials: int, seed: int,
                  workers: int = 1, vacua=None) -> list[list[ChannelRate]]:
    """Every mode's ChannelRate for each system, all transforms built in
    one stacked pass; vacua groups the systems by the Monte Carlo vacuum
    they act on, as in mean_intensities (by default all share one)."""
    means = mean_intensities(cp.three_wave_matrices(systems), engine, trials,
                             seed, workers, vacua)
    return [[ChannelRate.from_mean(m, v) for m, v in zip(s.modes, mean)]
            for s, mean in zip(systems, means)]


def evaluate(omegas, crystal: dp.CrystalSpec, couplings: Couplings,
             engine: str, trials: int, seed: int, workers: int = 1,
             per_point: bool = True) -> list[tuple]:
    """(RainbowPoint, main rates, satellite rates) per frequency, a rates
    entry being the system's ChannelRates or the error saying why it is
    absent; a satellite needs the main rainbow, else takes its reason.
    per_point gives point i's main and pair-only systems the vacuum
    (i, 0) and its satellite (i, 1); without it all share seed's vacuum."""
    mains = _systems("down", crystal, omegas, couplings)
    satellites = _systems("up", crystal, omegas, couplings)
    systems, vacua = [], []
    for i, (system_a, system_b) in enumerate(zip(mains, satellites)):
        if isinstance(system_a, cp.ThreeWaveSystem):
            systems += [system_a, system_a.pair_only()]
            vacua += [(i, 0), (i, 0)]
            if isinstance(system_b, cp.ThreeWaveSystem):
                systems.append(system_b)
                vacua.append((i, 1))
    rates = iter(channel_rates(systems, engine, trials, seed, workers,
                               vacua if per_point else None))
    evaluated = []
    for omega, main, sat in zip(omegas, mains, satellites):
        point = dict(dict.fromkeys(POINT_FIELDS, math.nan), omega=omega)
        if isinstance(main, cp.ThreeWaveSystem):
            main, (p_w, p_s, _) = next(rates), next(rates)
            point.update(theta_d_ext=main[0].mode.theta_external,
                         main_rate=main[0].photon_rate,
                         conjugate_rate=main[1].photon_rate,
                         eq1_ratio=ratio_down(p_w, p_s))
            if isinstance(sat, cp.ThreeWaveSystem):
                sat = q_w, _, q_u = next(rates)
                point.update(theta_u_ext=q_w.mode.theta_external,
                             satellite_rate=q_w.photon_rate,
                             upper_above_zeropoint=q_u.above_zeropoint,
                             eq2_ratio=ratio_up(q_w, q_u))
        elif isinstance(sat, cp.ThreeWaveSystem):
            sat = main
        evaluated.append((RainbowPoint(**point), main, sat))
    return evaluated


def sweep_grid(omega_min: float, omega_max: float, steps: int) -> np.ndarray:
    """The sweep's frequencies: `steps` evenly spaced from omega_min to
    omega_max.  Raises InvalidArgumentError unless 0 < omega_min <
    omega_max < 1, steps >= 2 and the float grid is strictly increasing
    (a band a few ulp wide cannot hold many distinct frequencies)."""
    if not 0.0 < omega_min < omega_max < 1.0:
        raise InvalidArgumentError("need 0 < omega_min < omega_max < 1")
    if steps < 2:
        raise InvalidArgumentError("steps must be >= 2")
    omegas = np.linspace(omega_min, omega_max, steps)
    if not (np.diff(omegas) > 0).all():
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

    points = [point for point, _, _ in evaluate(
        omegas.tolist(), crystal, couplings, engine, trials, seed, workers)]
    if not any(p.has_main for p in points):
        raise BandError(
            f"no phase-matched frequency in [{omega_min}, {omega_max}]; "
            "check the crystal dispersion and pump settings")
    return RainbowTable(points=tuple(points), config_fingerprint=fingerprint)


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
