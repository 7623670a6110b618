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

Down conversion splits a pump photon's wavevector across a conjugate pair
(the two transverse components have opposite signs, Fig. 2 geometry); up
conversion adds the input to the pump (input and output on the same side).
Both solvers run a bracketed 1-D search on the internal input angle and
report the longitudinal wavevector residual in 1/um.
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
    """Extraordinary index at angle psi from the optic axis."""
    _check_window(wavelength_um, spec)
    no2 = spec.sellmeier_o.n_squared(wavelength_um)
    ne2 = spec.sellmeier_e.n_squared(wavelength_um)
    c, s = np.cos(psi), np.sin(psi)
    n = 1.0 / np.sqrt(c * c / no2 + s * s / ne2)
    return float(n) if np.isscalar(psi) or np.ndim(n) == 0 else n


def effective_index(omega: float, theta_internal: float, pol: str,
                    spec: CrystalSpec) -> float:
    """Index seen by a wave at internal angle theta from the pump axis."""
    lam = wavelength_um(omega, spec)
    if pol == ORDINARY:
        return refractive_index(lam, ORDINARY, spec)
    return extraordinary_index(lam, spec.cut_angle_rad + theta_internal, spec)


def pump_index(spec: CrystalSpec) -> float:
    return effective_index(1.0, 0.0, spec.pump_polarization, spec)


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
    n = effective_index(mode.omega, mode.theta_internal, mode.polarization, spec)
    k = 2.0 * math.pi * n / wavelength_um(mode.omega, spec)
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


def _k_ordinary(omega, spec):
    lam = wavelength_um(omega, spec)
    return 2.0 * math.pi * refractive_index(lam, ORDINARY, spec) / lam


def _k_pump(spec):
    return 2.0 * math.pi * pump_index(spec) / spec.pump_wavelength_um


def _k_up(omega_up, theta, spec):
    """|k| of the extraordinary up-converted wave at internal angle theta."""
    lam = wavelength_um(omega_up, spec)
    return 2.0 * math.pi * extraordinary_index(
        lam, spec.cut_angle_rad + theta, spec) / lam


def _up_output_angle(omega_up, k_trans, spec):
    """Solve k_up(theta) sin(theta) = k_trans for the output angle.

    The extraordinary index varies slowly with angle, so fixed-point
    iteration on theta = asin(k_trans / k_up(theta)) converges fast.
    Accepts scalar or array k_trans; NaN where the up-converted wave
    cannot carry the requested transverse momentum.
    """
    theta = np.zeros_like(np.asarray(k_trans, dtype=float))
    with np.errstate(invalid="ignore"):
        for _ in range(80):
            k = _k_up(omega_up, np.where(np.isnan(theta), 0.0, theta), spec)
            new = np.arcsin(np.asarray(k_trans) / k)
            if np.allclose(new, theta, rtol=0.0, atol=1e-15, equal_nan=True):
                theta = new
                break
            theta = new
    return float(theta) if np.ndim(theta) == 0 else theta


def _delta_kz_down(theta, omega, spec):
    """Longitudinal mismatch k_p - k(omega) - k(1-omega) at input angle theta.

    NaN where the conjugate cannot balance the transverse momentum.
    Accepts scalar or array theta.
    """
    k_f = _k_ordinary(omega, spec)
    k_s = _k_ordinary(1.0 - omega, spec)
    kt = k_f * np.sin(theta)
    with np.errstate(invalid="ignore"):
        out = (_k_pump(spec) - k_f * np.cos(theta)
               - np.sqrt(k_s * k_s - kt * kt))
    return float(out) if np.ndim(out) == 0 else out


def _delta_kz_up(theta, omega, spec):
    """Longitudinal mismatch k_p + k(omega) - k(1+omega) at input angle theta.

    NaN where the up-converted wave cannot balance the transverse momentum.
    """
    k_f = _k_ordinary(omega, spec)
    kt = k_f * np.sin(theta)
    theta_out = _up_output_angle(1.0 + omega, kt, spec)
    safe = np.where(np.isnan(theta_out), 0.0, theta_out)
    k_u = _k_up(1.0 + omega, safe, spec)
    out = np.where(np.isnan(theta_out), np.nan,
                   _k_pump(spec) + k_f * np.cos(theta) - k_u * np.cos(theta_out))
    return float(out) if np.ndim(out) == 0 else out


def _bracketed_root(fn, lo, hi, f_lo, f_hi):
    """Secant refinement safeguarded by bisection inside [lo, hi]."""
    for _ in range(_MAX_ITER):
        if hi - lo < _ANGLE_TOL:
            break
        if f_hi != f_lo:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return 0.5 * (lo + hi)


def _scan_roots(fn, theta_max):
    """All sign-change roots of fn on [0, theta_max), sorted by |theta|.

    A collinear tangency (dispersionless media) counts as a root at zero.
    """
    grid = np.linspace(0.0, theta_max, _SCAN_POINTS)
    vals = np.asarray(fn(grid))
    roots = []
    if abs(vals[0]) < 1e-12:
        roots.append(0.0)
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if (a < 0.0) != (b < 0.0):
            roots.append(_bracketed_root(fn, grid[i], grid[i + 1], a, b))
    return sorted(roots)


def _max_input_angle(omega, spec):
    """Largest internal input angle that still refracts out of the crystal."""
    n = refractive_index(wavelength_um(omega, spec), ORDINARY, spec)
    return 0.999 * math.asin(min(1.0, 1.0 / n))


def match_down(omega: float, spec: CrystalSpec, branch: int = 0) -> PhaseMatchSolution:
    """Phase-match parametric down conversion at frequency omega.

    Finds the input angle theta such that the pump wavevector equals the
    sum over the conjugate pair (omega, 1 - omega), the conjugate emerging
    on the opposite transverse side.
    """
    if not 0.0 < omega < 1.0:
        raise InvalidArgumentError("down conversion needs 0 < omega < 1")
    fn = lambda t: _delta_kz_down(t, omega, spec)
    roots = _scan_roots(fn, _max_input_angle(omega, spec))
    if branch >= len(roots):
        raise NoSolutionError(
            f"no down-conversion phase match at omega={omega:g} "
            f"(branch {branch}, {len(roots)} found)")
    theta_in = roots[branch]
    k_f = _k_ordinary(omega, spec)
    k_s = _k_ordinary(1.0 - omega, spec)
    # conjugate on the opposite side, transverse balance exact
    theta_out = -math.asin(k_f * math.sin(theta_in) / k_s)
    n_in = refractive_index(wavelength_um(omega, spec), ORDINARY, spec)
    n_out = refractive_index(wavelength_um(1.0 - omega, spec), ORDINARY, spec)
    return PhaseMatchSolution(
        branch="down",
        theta_in_internal=theta_in,
        theta_in_external=external_angle(theta_in, n_in),
        theta_out_internal=theta_out,
        theta_out_external=external_angle(theta_out, n_out),
        residual_dk=fn(theta_in),
    )


def match_up(omega: float, spec: CrystalSpec, branch: int = 0) -> PhaseMatchSolution:
    """Phase-match parametric up conversion at frequency omega.

    Finds the input angle such that pump plus input match the extraordinary
    output at 1 + omega, whose transverse component keeps the input's sign.
    """
    if omega <= 0.0:
        raise InvalidArgumentError("up conversion needs omega > 0")
    _check_window(wavelength_um(1.0 + omega, spec), spec)
    fn = lambda t: _delta_kz_up(t, omega, spec)
    roots = _scan_roots(fn, _max_input_angle(omega, spec))
    if branch >= len(roots):
        raise NoSolutionError(
            f"no up-conversion phase match at omega={omega:g} "
            f"(branch {branch}, {len(roots)} found)")
    theta_in = roots[branch]
    k_f = _k_ordinary(omega, spec)
    theta_out = _up_output_angle(1.0 + omega, k_f * math.sin(theta_in), spec)
    n_in = refractive_index(wavelength_um(omega, spec), ORDINARY, spec)
    n_out = extraordinary_index(wavelength_um(1.0 + omega, spec),
                                spec.cut_angle_rad + theta_out, spec)
    return PhaseMatchSolution(
        branch="up",
        theta_in_internal=theta_in,
        theta_in_external=external_angle(theta_in, n_in),
        theta_out_internal=theta_out,
        theta_out_external=external_angle(theta_out, n_out),
        residual_dk=fn(theta_in),
    )

