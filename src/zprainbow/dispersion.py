"""Crystal dispersion and phase-matching geometry.

The crystal is uniaxial, cut with its optic axis in the interaction plane
at `cut_angle_deg` from the pump axis (tilted toward the negative
transverse side, so a ray at internal angle theta sees the axis at
psi = cut + theta).  Ordinary waves use the ordinary Sellmeier curve; the
extraordinary index follows the standard index-ellipsoid formula

    1 / n(psi)^2 = cos(psi)^2 / n_o^2 + sin(psi)^2 / n_e^2.

Geometry is two dimensional: z along the pump, x transverse, all angles
internal to the crystal and signed by their transverse direction.  External
angles follow Snell's law at a flat exit face, sin(theta_ext) =
n * sin(theta_int).  Walk-off is ignored throughout.

An ordinary input at frequency omega and internal angle theta fixes both
legs of its (omega, 1 - omega, 1 + omega) triple.  conjugate_leg gives the
ordinary conjugate of down conversion, which splits a pump photon's
wavevector across the pair (opposite transverse sides, Fig. 2 geometry);
up_leg gives the extraordinary output of up conversion, which adds the
input to the pump (same side).  Each balances the transverse momentum
exactly and returns the output angle and the longitudinal mismatch in
1/um, as arrays over theta.  match_down and match_up find the smallest
input angle at which a leg's mismatch vanishes: one scan of the angle
range brackets every sign change, and all brackets are refined together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidArgumentError, NoSolutionError)
from .zpf import EXTRAORDINARY, ORDINARY, Mode

_SCAN_POINTS = 600
_ANGLE_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class SellmeierCoefficients:
    """n^2(lambda) = 1 + sum B_j lambda^2 / (lambda^2 - C_j), lambda in um."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((float(b), float(c)) for b, c in self.terms))
        cs = [c for _, c in self.terms]
        if len(set(cs)) != len(cs):
            raise InvalidArgumentError("Sellmeier pole positions must be distinct")

    def n_squared(self, wavelength_um):
        lam2 = np.asarray(wavelength_um, dtype=float) ** 2
        n2 = np.ones_like(lam2)
        for b, c in self.terms:
            n2 = n2 + b * lam2 / (lam2 - c)
        return n2


@dataclass(frozen=True)
class CrystalSpec:
    """Crystal material, cut and pumping parameters.

    gain_per_mm is the effective nonlinear coupling (dimensionless per mm);
    it absorbs the pump amplitude and the chi(2) tensor element.
    """

    sellmeier_o: SellmeierCoefficients
    sellmeier_e: SellmeierCoefficients
    cut_angle_deg: float
    length_mm: float
    pump_wavelength_nm: float
    gain_per_mm: float
    pump_polarization: str = EXTRAORDINARY
    window_um: tuple = (0.2, 1.2)

    def __post_init__(self):
        if self.length_mm <= 0:
            raise InvalidArgumentError("length_mm must be > 0")
        if self.gain_per_mm < 0:
            raise InvalidArgumentError("gain_per_mm must be >= 0")
        try:
            lo, hi = (float(w) for w in self.window_um)
        except (TypeError, ValueError):
            raise InvalidArgumentError("window_um must be two numbers "
                                       "(lo, hi)") from None
        object.__setattr__(self, "window_um", (lo, hi))
        if not 0 < lo < hi:
            raise InvalidArgumentError("window_um must satisfy 0 < lo < hi")
        if not lo <= self.pump_wavelength_nm * 1e-3 <= hi:
            raise InvalidArgumentError("pump wavelength outside window")
        if self.pump_polarization not in (ORDINARY, EXTRAORDINARY):
            raise InvalidArgumentError("unknown pump polarization")
        for sell in (self.sellmeier_o, self.sellmeier_e):
            for _, c in sell.terms:
                if lo * lo <= c <= hi * hi:
                    raise InvalidArgumentError(
                        f"Sellmeier pole at {math.sqrt(c):.4f} um inside window")
            grid = np.linspace(lo, hi, 257)
            # vacuum-like media (all B_j = 0, n = 1) stay legal
            if np.any(sell.n_squared(grid) < 1.0 - 1e-12):
                raise InvalidArgumentError("n^2 < 1 inside transparency window")

    @property
    def pump_wavelength_um(self) -> float:
        return self.pump_wavelength_nm * 1e-3

    @property
    def cut_angle_rad(self) -> float:
        return math.radians(self.cut_angle_deg)

    @property
    def length_um(self) -> float:
        return self.length_mm * 1e3


@dataclass(frozen=True)
class PhaseMatchSolution:
    """Converged matching geometry for one frequency.

    Angles are signed; for the down branch the output (conjugate) side is
    opposite to the input, for the up branch it is on the same side.
    residual_dk is the longitudinal mismatch left by the solver, in 1/um
    (transverse balance is exact by construction).
    """

    branch: str
    theta_in_internal: float
    theta_in_external: float
    theta_out_internal: float
    theta_out_external: float
    residual_dk: float


def wavelength_um(omega: float, spec: CrystalSpec) -> float:
    """Vacuum wavelength of a mode at frequency omega (fraction of pump)."""
    if omega <= 0:
        raise InvalidArgumentError("omega must be > 0")
    return spec.pump_wavelength_um / omega


def _check_window(wavelength, spec):
    lo, hi = spec.window_um
    w = np.asarray(wavelength)
    if np.any(w < lo) or np.any(w > hi):
        raise DomainError(
            f"wavelength {np.min(w):.4f} um outside window [{lo}, {hi}] um")


def refractive_index(wavelength_um: float, pol: str, spec: CrystalSpec) -> float:
    """Principal refractive index from the Sellmeier form."""
    _check_window(wavelength_um, spec)
    sell = spec.sellmeier_o if pol == ORDINARY else spec.sellmeier_e
    if pol not in (ORDINARY, EXTRAORDINARY):
        raise InvalidArgumentError(f"unknown polarization {pol!r}")
    return float(np.sqrt(sell.n_squared(wavelength_um)))


def extraordinary_index(wavelength_um, psi, spec: CrystalSpec):
    """Extraordinary index at angle psi (array) from the optic axis."""
    _check_window(wavelength_um, spec)
    no2 = spec.sellmeier_o.n_squared(wavelength_um)
    ne2 = spec.sellmeier_e.n_squared(wavelength_um)
    c, s = np.cos(psi), np.sin(psi)
    return 1.0 / np.sqrt(c * c / no2 + s * s / ne2)


def effective_index(omega: float, theta_internal, pol: str,
                    spec: CrystalSpec):
    """Index seen by a wave at internal angle theta (array) from the pump axis."""
    lam = wavelength_um(omega, spec)
    if pol == ORDINARY:
        return refractive_index(lam, ORDINARY, spec)
    return extraordinary_index(lam, spec.cut_angle_rad + theta_internal, spec)


def _wavenumber(omega, theta_internal, pol, spec):
    """|k| in 1/um of a wave at internal angle theta (array)."""
    return (2.0 * math.pi * effective_index(omega, theta_internal, pol, spec)
            / wavelength_um(omega, spec))


def external_angle(theta_internal: float, n: float) -> float:
    """Snell refraction at the flat exit face (signed)."""
    s = n * math.sin(theta_internal)
    if abs(s) > 1.0:
        raise NoSolutionError(
            f"total internal reflection at theta={theta_internal:.4f} rad")
    return math.asin(s)


def make_mode(spec: CrystalSpec, omega: float, theta_internal: float,
              pol: str, role: str) -> Mode:
    """Build a Mode with its external angle filled in by refraction."""
    n = effective_index(omega, theta_internal, pol, spec)
    return Mode(omega=omega, theta_external=external_angle(theta_internal, n),
                theta_internal=theta_internal, polarization=pol, role=role)


def pump_mode(spec: CrystalSpec) -> Mode:
    return Mode(omega=1.0, theta_external=0.0, theta_internal=0.0,
                polarization=spec.pump_polarization, role="pump")


def wavevector(mode: Mode, spec: CrystalSpec) -> tuple[float, float]:
    """(k_transverse, k_longitudinal) in 1/um for one mode."""
    k = _wavenumber(mode.omega, mode.theta_internal, mode.polarization, spec)
    return k * math.sin(mode.theta_internal), k * math.cos(mode.theta_internal)


def mismatch(modes_in, modes_out, spec: CrystalSpec) -> tuple[float, float]:
    """Sum of input wavevectors minus sum of output wavevectors."""
    if not modes_in or not modes_out:
        raise InvalidArgumentError("mode lists must be non-empty")
    dkt = dkz = 0.0
    for m in modes_in:
        kt, kz = wavevector(m, spec)
        dkt, dkz = dkt + kt, dkz + kz
    for m in modes_out:
        kt, kz = wavevector(m, spec)
        dkt, dkz = dkt - kt, dkz - kz
    return dkt, dkz


def conjugate_leg(omega: float, theta, spec: CrystalSpec):
    """The ordinary conjugate at 1 - omega of an input at internal angle theta.

    Returns (theta_conj, dk_z), arrays shaped like theta: the conjugate's
    angle, on the opposite side with the transverse momentum balanced, and
    the longitudinal mismatch k_p - k_z(omega) - k_z(1 - omega) in 1/um.
    Both are NaN where the conjugate cannot carry the transverse momentum.
    """
    theta = np.asarray(theta, dtype=float)
    k_in = _wavenumber(omega, theta, ORDINARY, spec)
    k_conj = _wavenumber(1.0 - omega, 0.0, ORDINARY, spec)  # angle-free index
    with np.errstate(invalid="ignore"):
        theta_conj = -np.arcsin(k_in * np.sin(theta) / k_conj)
    return theta_conj, (_wavenumber(1.0, 0.0, spec.pump_polarization, spec)
                        - k_in * np.cos(theta) - k_conj * np.cos(theta_conj))


def up_leg(omega: float, theta, spec: CrystalSpec):
    """The extraordinary up-converted wave at 1 + omega of an input at theta.

    Returns (theta_up, dk_z), arrays shaped like theta: the output angle,
    on the input's side with the transverse momentum balanced, and the
    longitudinal mismatch k_p + k_z(omega) - k_z(1 + omega) in 1/um.  Both
    are NaN where the up-converted wave cannot carry the transverse
    momentum.
    """
    theta = np.asarray(theta, dtype=float)
    k_in = _wavenumber(omega, theta, ORDINARY, spec)
    kt = k_in * np.sin(theta)
    # the extraordinary index varies slowly with angle, so the fixed point
    # theta_up = asin(kt / k_up(theta_up)) converges in a few steps
    theta_up = np.zeros_like(kt)
    with np.errstate(invalid="ignore"):
        for _ in range(80):
            k_up = _wavenumber(1.0 + omega,
                               np.where(np.isnan(theta_up), 0.0, theta_up),
                               EXTRAORDINARY, spec)
            new = np.arcsin(kt / k_up)
            converged = np.allclose(new, theta_up, rtol=0.0, atol=1e-15,
                                    equal_nan=True)
            theta_up = new
            if converged:
                break
    k_up = _wavenumber(1.0 + omega, theta_up, EXTRAORDINARY, spec)
    return theta_up, (_wavenumber(1.0, 0.0, spec.pump_polarization, spec)
                      + k_in * np.cos(theta) - k_up * np.cos(theta_up))


def _roots(fn, theta_max):
    """Every sign-change root of fn on [0, theta_max), in ascending order.

    fn maps an array of angles to values, NaN where undefined.  Each sign
    change on a _SCAN_POINTS grid brackets a root, and all brackets are
    refined together by a secant step safeguarded by bisection.  A
    collinear tangency (dispersionless media) counts as a root at zero.
    """
    grid = np.linspace(0.0, theta_max, _SCAN_POINTS)
    vals = fn(grid)
    i = np.flatnonzero(~np.isnan(vals[:-1]) & ~np.isnan(vals[1:])
                       & ((vals[:-1] < 0.0) != (vals[1:] < 0.0)))
    lo, hi, f_lo, f_hi = grid[i], grid[i + 1], vals[i], vals[i + 1]
    exact = np.full(len(i), np.nan)     # brackets whose secant hit f == 0
    for _ in range(_MAX_ITER):
        j = np.flatnonzero(np.isnan(exact) & (hi - lo >= _ANGLE_TOL))
        if not len(j):
            break
        a, b, fa, fb = lo[j], hi[j], f_lo[j], f_hi[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        x = np.where((fb != fa) & (a < x) & (x < b), x, 0.5 * (a + b))
        fx = fn(x)
        exact[j] = np.where(fx == 0.0, x, np.nan)
        low = (fx < 0.0) == (fa < 0.0)
        lo[j], f_lo[j] = np.where(low, x, a), np.where(low, fx, fa)
        hi[j], f_hi[j] = np.where(low, b, x), np.where(low, fb, fx)
    roots = np.where(np.isnan(exact), 0.5 * (lo + hi), exact)
    if abs(vals[0]) < 1e-12:
        roots = np.append(roots, 0.0)
    return np.sort(roots)


def _match(process, leg, omega, omega_out, pol_out,
           spec) -> PhaseMatchSolution:
    """The smallest input angle at which leg's dk_z vanishes; the leg's
    output wave has frequency omega_out and polarization pol_out."""
    n_in = effective_index(omega, 0.0, ORDINARY, spec)
    # up to the largest input angle that still refracts out of the crystal
    roots = _roots(lambda t: leg(omega, t, spec)[1],
                   0.999 * math.asin(min(1.0, 1.0 / n_in)))
    if not len(roots):
        raise NoSolutionError(
            f"no {process}-conversion phase match at omega={omega:g}")
    theta_in = float(roots[0])
    theta_out, residual = (float(x) for x in leg(omega, theta_in, spec))
    return PhaseMatchSolution(
        branch=process,
        theta_in_internal=theta_in,
        theta_in_external=external_angle(theta_in, n_in),
        theta_out_internal=theta_out,
        theta_out_external=external_angle(
            theta_out, effective_index(omega_out, theta_out, pol_out, spec)),
        residual_dk=residual,
    )


def match_down(omega: float, spec: CrystalSpec) -> PhaseMatchSolution:
    """Phase-match parametric down conversion at frequency omega.

    Finds the input angle theta such that the pump wavevector equals the
    sum over the conjugate pair (omega, 1 - omega), the conjugate emerging
    on the opposite transverse side.
    """
    if not 0.0 < omega < 1.0:
        raise InvalidArgumentError("down conversion needs 0 < omega < 1")
    return _match("down", conjugate_leg, omega, 1.0 - omega, ORDINARY, spec)


def match_up(omega: float, spec: CrystalSpec) -> PhaseMatchSolution:
    """Phase-match parametric up conversion at frequency omega.

    Finds the input angle such that pump plus input match the extraordinary
    output at 1 + omega, whose transverse component keeps the input's sign.
    """
    if omega <= 0.0:
        raise InvalidArgumentError("up conversion needs omega > 0")
    return _match("up", up_leg, omega, 1.0 + omega, EXTRAORDINARY, spec)
