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
in one stacked pass, coupling.three_wave_matrices.  `covariance`
propagates the exact vacuum state (zpf.vacuum_state) through the whole
stack in one product; `montecarlo` samples every vacuum of the stack in
one pass (zpf.sampled_states) and propagates the raw second moments of
each through the transforms that share it, which gives the trial means
of |T alpha|^2 up to rounding.  At a sweep point the main and pair-only
systems share one vacuum and the satellite has its own, each drawn from a
per-point seed derived from the master seed; seeds are derived only where
a vacuum is sampled.  The CLI's ratios report uses channel_rates too.
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
    """Effective three-wave couplings; None means auto from the crystal gain."""

    g_down: float | None = None
    g_up: float | None = None
    phi_down: float = 0.0
    phi_up: float = 0.0

    def resolve(self, crystal: dp.CrystalSpec) -> "Couplings":
        g = crystal.gain_per_mm
        return Couplings(
            g_down=g if self.g_down is None else self.g_down,
            g_up=g if self.g_up is None else self.g_up,
            phi_down=self.phi_down, phi_up=self.phi_up)


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
    """dp.triples with the resolved couplings and the crystal length
    attached: each omega's three-wave system, or why there is none.
    Without an up-conversion coupling there is no "up" process at all."""
    c = couplings.resolve(crystal)
    if process == "up" and c.g_up == 0.0:
        return [NoSolutionError("no up-conversion: its coupling g_up is 0")
                for _ in omegas]
    found = dp.triples(process, omegas, crystal)
    for i, triple in enumerate(found):
        if isinstance(triple, tuple):
            modes, dk_down, dk_up = triple
            found[i] = cp.ThreeWaveSystem(
                g_down=c.g_down, g_up=c.g_up,
                phi_down=c.phi_down, phi_up=c.phi_up,
                dk_down=dk_down, dk_up=dk_up,
                length_mm=crystal.length_mm, modes=modes)
    return found


def _state_means(matrices, state) -> np.ndarray:
    """(N, M) mean |alpha|^2 per mode after each of an (N, 2M, 2M) stack of
    transform matrices acts on `state`: one stacked propagation."""
    return mode_intensities(cp.propagate_covariances(matrices, state))


def mean_intensities(matrices, engine: str, trials: int, seed: int,
                     workers: int = 1, vacua=None) -> np.ndarray:
    """(N, M) mean |alpha|^2 per mode after each of an (N, 2M, 2M) stack of
    transform matrices acts on the vacuum.

    `covariance` propagates the exact vacuum state through the whole stack
    at once.  `montecarlo` (trials, seed and workers apply to it only)
    samples every vacuum in one zpf.sampled_states pass and propagates
    each vacuum's raw second moments through the transforms that share
    it, which gives the trial means of |T alpha|^2 at a reduction cost
    that does not grow with the number of transforms.  vacua[i] names the
    vacuum of transform i, a point key (index, slot) whose vacuum is drawn
    from the per-point seed _point_seed(seed, index, slot); transforms
    with equal keys share one vacuum.  Without vacua every transform
    shares the vacuum drawn from `seed` itself.  Any other engine is an
    InvalidArgumentError.
    """
    if engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {engine!r}")
    n_modes = matrices.shape[-1] // 2
    if engine == "covariance":
        return _state_means(matrices, vacuum_state(n_modes))
    groups = {}
    for i, key in enumerate(vacua or [None] * len(matrices)):
        groups.setdefault(key, []).append(i)
    states = sampled_states(n_modes, trials, [
        seed if key is None else _point_seed(seed, *key) for key in groups],
        workers)
    means = np.empty((len(matrices), n_modes))
    for items, state in zip(groups.values(), states):
        means[items] = _state_means(matrices[items], state)
    return means


def channel_rates(systems, engine: str, trials: int, seed: int,
                  workers: int = 1, vacua=None) -> list[list[ChannelRate]]:
    """Every mode's ChannelRate for each system, all transforms built in
    one stacked pass; vacua groups the systems by the Monte Carlo vacuum
    they act on, as in mean_intensities (by default all share one)."""
    means = mean_intensities(cp.three_wave_matrices(systems), engine, trials,
                             seed, workers, vacua)
    return [[ChannelRate.from_mean(m, v) for m, v in zip(s.modes, mean)]
            for s, mean in zip(systems, means)]


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
    if not 0.0 < omega_min < omega_max < 1.0:
        raise InvalidArgumentError("need 0 < omega_min < omega_max < 1")
    if steps < 2:
        raise InvalidArgumentError("steps must be >= 2")

    fingerprint = config_fingerprint(dict(
        omega_min=omega_min, omega_max=omega_max, steps=steps,
        crystal=crystal, detector=detector, engine=engine,
        trials=trials, seed=seed, couplings=couplings))

    omegas = np.linspace(omega_min, omega_max, steps)
    mains = _systems("down", crystal, omegas, couplings)
    satellites = _systems("up", crystal, omegas, couplings)
    # main and pair-only share a point's vacuum, the satellite has its own
    systems, vacua = [], []
    for i, (system_a, system_b) in enumerate(zip(mains, satellites)):
        if isinstance(system_a, cp.ThreeWaveSystem):
            systems += [system_a, system_a.pair_only()]
            vacua += [(i, 0), (i, 0)]
            if isinstance(system_b, cp.ThreeWaveSystem):
                systems.append(system_b)
                vacua.append((i, 1))
    rates = iter(channel_rates(systems, engine, trials, seed, workers, vacua))
    points = []
    for omega, system_a, system_b in zip(omegas.tolist(), mains, satellites):
        nan = float("nan")
        theta_d = theta_u = main = conj = sat = upper = eq1 = eq2 = nan
        if isinstance(system_a, cp.ThreeWaveSystem):
            theta_d = system_a.modes[0].theta_external
            (r_w, r_s, _), (p_w, p_s, _) = next(rates), next(rates)
            main, conj = r_w.photon_rate, r_s.photon_rate
            eq1 = ratio_down(p_w, p_s)
            if isinstance(system_b, cp.ThreeWaveSystem):
                theta_u = system_b.modes[0].theta_external
                q_w, _, q_u = next(rates)
                sat, upper = q_w.photon_rate, q_u.above_zeropoint
                eq2 = ratio_up(q_w, q_u)
        points.append(RainbowPoint(
            omega=omega, theta_d_ext=theta_d, theta_u_ext=theta_u,
            main_rate=main, conjugate_rate=conj, satellite_rate=sat,
            upper_above_zeropoint=upper, eq1_ratio=eq1, eq2_ratio=eq2))

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
