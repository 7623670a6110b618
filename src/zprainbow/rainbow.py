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

Frequencies whose phase matching has no solution are marked absent (NaN
fields), never extrapolated.  Both engines share the same geometry code
(pdc_system, puc_system) and one path from the vacuum to the rates,
channel_rates: `covariance` propagates the exact vacuum state
(zpf.vacuum_state), `montecarlo` propagates the raw second moments of a
sampled vacuum (zpf.sampled_state, per-point seeds derived from the master
seed) through the same transforms, which gives the trial means of
|T alpha|^2 up to rounding.  The CLI's ratios report goes through
channel_rates too.
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
from .errors import (BandError, DomainError, InvalidArgumentError,
                     NoSolutionError, UndefinedRatioError)
from .zpf import sampled_state, vacuum_state

ENGINES = ("covariance", "montecarlo")


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
    sol = dp.match_down(omega, crystal)
    return _system_at(crystal, omega, sol.theta_in_internal, couplings)


def puc_system(crystal: dp.CrystalSpec, omega: float,
               couplings: Couplings) -> cp.ThreeWaveSystem:
    """Three-wave system at the up-conversion-matched geometry."""
    sol = dp.match_up(omega, crystal)
    return _system_at(crystal, omega, sol.theta_in_internal, couplings)


def _matched(geometry, crystal, omega, couplings):
    """geometry(crystal, omega, couplings), or None where it cannot match."""
    try:
        return geometry(crystal, omega, couplings)
    except (NoSolutionError, DomainError):
        return None


def _system_at(crystal, omega, theta_in, couplings):
    """Assemble the (w, w0-w, w0+w) triple for an input at theta_in.

    The conjugate and up-converted directions balance the input's
    transverse momentum exactly; the longitudinal mismatches are whatever
    the geometry leaves over.
    """
    c = couplings.resolve(crystal)
    theta_conj, dk_down = dp.conjugate_leg(omega, theta_in, crystal)
    theta_up, dk_up = dp.up_leg(omega, theta_in, crystal)
    if math.isnan(theta_conj) or math.isnan(theta_up):
        raise NoSolutionError("the conjugate or the up-converted wave "
                              "cannot balance the transverse momentum")
    modes = (
        dp.make_mode(crystal, omega, theta_in, dp.ORDINARY, "input"),
        dp.make_mode(crystal, 1.0 - omega, float(theta_conj), dp.ORDINARY,
                     "signal"),
        dp.make_mode(crystal, 1.0 + omega, float(theta_up), dp.EXTRAORDINARY,
                     "signal"))
    return cp.ThreeWaveSystem(
        g_down=c.g_down, g_up=c.g_up,
        phi_down=c.phi_down, phi_up=c.phi_up,
        dk_down=float(dk_down), dk_up=float(dk_up),
        length_mm=crystal.length_mm, modes=modes)


def _state_means(transforms, state) -> list[np.ndarray]:
    """Mean |alpha|^2 per mode after each transform acts on `state`."""
    outputs = [cp.propagate_covariance(t, state) for t in transforms]
    return [np.array([out.mode_intensity(i) for i in range(out.n_modes)])
            for out in outputs]


def mc_mean_intensities(transforms, trials: int, seed: int,
                        workers: int = 1) -> list[np.ndarray]:
    """Monte Carlo mean |alpha|^2 per mode for several transforms at once.

    The transforms act on one sampled vacuum, zpf.sampled_state: its raw
    second moments are propagated exactly like the covariance engine's
    vacuum state, which gives the trial means of |T alpha|^2, at a
    reduction cost that does not grow with the number of transforms.
    """
    return _state_means(transforms, sampled_state(transforms[0].n_modes,
                                                  trials, seed, workers))


def mean_intensities(transforms, engine: str, trials: int, seed: int,
                     workers: int = 1) -> list[np.ndarray]:
    """Mean |alpha|^2 per mode after each transform acts on the vacuum.

    `covariance` propagates the exact vacuum state; `montecarlo` runs
    mc_mean_intensities (trials, seed and workers apply to it only),
    which propagates the sampled vacuum's second moments the same way.
    """
    if engine == "covariance":
        return _state_means(transforms, vacuum_state(transforms[0].n_modes))
    return mc_mean_intensities(transforms, trials, seed, workers)


def channel_rates(systems, engine: str, trials: int, seed: int,
                  workers: int = 1) -> list[list[ChannelRate]]:
    """Every mode's ChannelRate for each system, all systems on one vacuum."""
    means = mean_intensities([cp.integrate_three_wave(s) for s in systems],
                             engine, trials, seed, workers)
    return [[ChannelRate.from_mean(m, v) for m, v in zip(s.modes, mean)]
            for s, mean in zip(systems, means)]


def sweep(omega_min: float, omega_max: float, steps: int,
          crystal: dp.CrystalSpec, detector: DetectorSpec,
          engine: str = "covariance", trials: int = 100_000, seed: int = 0,
          couplings: Couplings = Couplings(),
          workers: int = 1) -> RainbowTable:
    """Sample the matched band and synthesize both rainbows.

    A point is present when its full (w, w0-w, w0+w) triple is
    representable inside the transparency window and down conversion
    phase matches; the satellite additionally needs an up-conversion
    match.  Raises BandError when no frequency in the requested range
    matches at all.
    """
    if not 0.0 < omega_min < omega_max < 1.0:
        raise InvalidArgumentError("need 0 < omega_min < omega_max < 1")
    if steps < 2:
        raise InvalidArgumentError("steps must be >= 2")
    if engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {engine!r}")

    fingerprint = config_fingerprint(dict(
        omega_min=omega_min, omega_max=omega_max, steps=steps,
        crystal=crystal, detector=detector, engine=engine,
        trials=trials, seed=seed, couplings=couplings))

    # without an up-conversion coupling there is no satellite process
    satellites = couplings.resolve(crystal).g_up != 0.0
    points = []
    for i, omega in enumerate(np.linspace(omega_min, omega_max, steps)):
        omega = float(omega)
        nan = float("nan")
        theta_d = theta_u = main = conj = sat = upper = eq1 = eq2 = nan
        system_a = _matched(pdc_system, crystal, omega, couplings)
        system_b = (_matched(puc_system, crystal, omega, couplings)
                    if system_a is not None and satellites else None)
        if system_a is not None:
            theta_d = system_a.modes[0].theta_external
            (r_w, r_s, _), (p_w, p_s, _) = channel_rates(
                [system_a, system_a.pair_only()], engine, trials,
                _point_seed(seed, i, 0), workers)
            main, conj = r_w.photon_rate, r_s.photon_rate
            try:
                eq1 = ratio_down(p_w, p_s)
            except UndefinedRatioError:
                pass
        if system_b is not None:
            theta_u = system_b.modes[0].theta_external
            [(q_w, _, q_u)] = channel_rates(
                [system_b], engine, trials, _point_seed(seed, i, 1), workers)
            sat = q_w.photon_rate
            upper = q_u.above_zeropoint
            try:
                eq2 = ratio_up(q_w, upper, system_b.modes[2].theta_external)
            except UndefinedRatioError:
                pass
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
    channel carries signal.
    """
    rates, angles = [], []
    for p in table.points:
        if p.has_main and p.has_satellite and p.main_rate > 0.0:
            rates.append(p.satellite_rate / p.main_rate)
            angles.append(p.theta_u_ext / p.theta_d_ext)
    if not rates:
        raise BandError("no sweep point carries both rainbows")
    return float(np.mean(rates)), float(np.mean(angles))
