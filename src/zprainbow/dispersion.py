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
1/um, broadcast over arrays of omega and theta; both are NaN where a
wavelength of the leg is outside the transparency window or the output
cannot carry the transverse momentum.  The up wave's extraordinary index
depends on its own angle, so its balance is a quadratic in tan(theta_up),
solved in closed form.

match_band phase-matches a whole band of frequencies in one pass: an
(omega x theta) grid brackets each frequency's smallest matched input
angle, and all brackets are refined together.  Each frequency gets a
PhaseMatchSolution or the error that says why it has none.  match_down and
match_up are its one-frequency calls.  triples adds the other leg to each
match: the refracted triple and both mismatches, or why there is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidArgumentError, NoSolutionError,
                     present)
from .zpf import EXTRAORDINARY, ORDINARY, Mode

_SCAN_POINTS = 600
# chunks bound memory on dense bands, not time: both legs' match_band
# (shipped crystal, 0.44-0.58, 1000 steps) peak at 0.9 MiB against 78 MiB
# unchunked, whose grid grows with steps, yet unchunked is ~10% faster
_CHUNK_ROWS = 8
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

    theta_in_internal: float
    theta_in_external: float
    theta_out_internal: float
    theta_out_external: float
    residual_dk: float


def wavelength_um(omega, spec: CrystalSpec):
    """Vacuum wavelength at frequency omega (fraction of pump, array)."""
    if np.any(np.asarray(omega) <= 0):
        raise InvalidArgumentError("omega must be > 0")
    return spec.pump_wavelength_um / omega


def _in_window(wavelength, spec):
    lo, hi = spec.window_um
    return (lo <= wavelength) & (wavelength <= hi)


def check_window(wavelength, spec: CrystalSpec) -> None:
    """Raise DomainError naming the first wavelength outside the window."""
    w = np.ravel(wavelength)
    outside = w[~_in_window(w, spec)]
    if len(outside):
        lo, hi = spec.window_um
        raise DomainError(
            f"wavelength {outside[0]:.5g} um outside window [{lo}, {hi}] um")


def _ellipse_index(no2, ne2, psi):
    c, s = np.cos(psi), np.sin(psi)
    return 1.0 / np.sqrt(c * c / no2 + s * s / ne2)


def _index_squares(omega, spec):
    """(n_o^2, n_e^2) at frequency omega (array), NaN outside the window."""
    lam = wavelength_um(omega, spec)
    inside = _in_window(lam, spec)
    # outside the window the Sellmeier sums are taken at the pump
    # wavelength, off their poles, and then dropped
    lam = np.where(inside, lam, spec.pump_wavelength_um)
    mask = np.where(inside, 1.0, np.nan)
    return (spec.sellmeier_o.n_squared(lam) * mask,
            spec.sellmeier_e.n_squared(lam) * mask)


def effective_index(omega, theta_internal, pol: str, spec: CrystalSpec):
    """Index seen by a wave at internal angle theta from the pump axis.

    omega and theta broadcast; NaN where the wavelength is outside the
    window.
    """
    no2, ne2 = _index_squares(omega, spec)
    if pol == ORDINARY:
        return np.sqrt(no2)
    return _ellipse_index(no2, ne2, spec.cut_angle_rad + theta_internal)


def _wavenumber(omega, theta_internal, pol, spec):
    """|k| in 1/um of a wave at internal angle theta (arrays)."""
    return (2.0 * math.pi * effective_index(omega, theta_internal, pol, spec)
            / wavelength_um(omega, spec))


def external_angle(theta_internal: float, n: float) -> float:
    """Snell refraction at the flat exit face (signed)."""
    s = n * math.sin(theta_internal)
    if abs(s) > 1.0:
        raise NoSolutionError(
            f"total internal reflection at theta={theta_internal:.4f} rad")
    return math.asin(s)


def conjugate_leg(omega, theta, spec: CrystalSpec):
    """The ordinary conjugate at 1 - omega of an input at internal angle theta.

    omega and theta broadcast.  Returns (theta_conj, dk_z): the conjugate's
    angle, on the opposite side with the transverse momentum balanced, and
    the longitudinal mismatch k_p - k_z(omega) - k_z(1 - omega) in 1/um.
    Both are NaN where the conjugate cannot carry the transverse momentum
    or a wavelength of the leg is outside the window.
    """
    theta = np.asarray(theta, dtype=float)
    k_in = _wavenumber(omega, theta, ORDINARY, spec)
    k_conj = _wavenumber(1.0 - omega, 0.0, ORDINARY, spec)  # angle-free index
    with np.errstate(invalid="ignore"):
        theta_conj = -np.arcsin(k_in * np.sin(theta) / k_conj)
    return theta_conj, (_wavenumber(1.0, 0.0, spec.pump_polarization, spec)
                        - k_in * np.cos(theta) - k_conj * np.cos(theta_conj))


def up_leg(omega, theta, spec: CrystalSpec):
    """The extraordinary up-converted wave at 1 + omega of an input at theta.

    omega and theta broadcast.  Returns (theta_up, dk_z): the output angle,
    on the input's side with the transverse momentum balanced, and the
    longitudinal mismatch k_p + k_z(omega) - k_z(1 + omega) in 1/um.  Both
    are NaN where the up-converted wave cannot carry the transverse
    momentum or a wavelength of the leg is outside the window.

    The balance sin(t) k_e(t) = k_t, with 1/n_e(t)^2 = cos(cut + t)^2/n_o^2
    + sin(cut + t)^2/n_e^2, is a homogeneous quadratic in (cos t, sin t),
    so a quadratic a tan(t)^2 + b tan(t) + c = 0 with c <= 0.  Of its roots
    on the input's side the one nearest the pump axis is taken, from the
    stable form of the quadratic formula: where a > 0 there is one root on
    each side; where a < 0 (the up wave's index falls fast towards grazing
    incidence) both lie on one side, or there are none.
    """
    theta = np.asarray(theta, dtype=float)
    k_in = _wavenumber(omega, theta, ORDINARY, spec)
    kt = k_in * np.sin(theta)
    no2, ne2 = _index_squares(1.0 + omega, spec)
    k0 = 2.0 * math.pi / wavelength_um(1.0 + omega, spec)
    c, s = math.cos(spec.cut_angle_rad), math.sin(spec.cut_angle_rad)
    kt2 = kt * kt
    qa = k0 * k0 - kt2 * (s * s / no2 + c * c / ne2)
    qb = 2.0 * kt2 * c * s * (1.0 / no2 - 1.0 / ne2)
    qc = -kt2 * (c * c / no2 + s * s / ne2)
    side = np.sign(kt)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        near, far = qc / q, q / qa
    # k_t = 0 gives q = 0: then near is NaN and far is the root 0
    theta_up = np.arctan(np.where(side * near > 0.0, near,
                                  np.where(qa > 0.0, far, np.nan)))
    k_up = _wavenumber(1.0 + omega, theta_up, EXTRAORDINARY, spec)
    return theta_up, (_wavenumber(1.0, 0.0, spec.pump_polarization, spec)
                      + k_in * np.cos(theta) - k_up * np.cos(theta_up))


def _first_roots(leg, omega, theta_max, spec):
    """The smallest root of leg's dk_z on [0, theta_max) for each omega.

    Each row of an (omega x theta) grid of _SCAN_POINTS angles is scanned
    for its first sign change, _CHUNK_ROWS rows at a time so that every
    temporary stays small, and all brackets are refined together by a
    secant step safeguarded by bisection.  A collinear tangency
    (dispersionless media) is a root at zero.  NaN where there is none.
    """
    roots = np.full(len(omega), np.nan)
    if not len(omega):
        return roots
    rows, lo, hi, f_lo, f_hi = [], [], [], [], []
    for start in range(0, len(omega), _CHUNK_ROWS):
        span = slice(start, start + _CHUNK_ROWS)
        grid = np.linspace(0.0, theta_max[span], _SCAN_POINTS, axis=-1)
        vals = leg(omega[span, None], grid, spec)[1]
        change = (~np.isnan(vals[:, :-1]) & ~np.isnan(vals[:, 1:])
                  & ((vals[:, :-1] < 0.0) != (vals[:, 1:] < 0.0)))
        tangent = np.abs(vals[:, 0]) < 1e-12
        r = np.flatnonzero(change.any(axis=1) & ~tangent)
        i = change[r].argmax(axis=1)
        roots[start + np.flatnonzero(tangent)] = 0.0
        rows.append(start + r)
        lo.append(grid[r, i])
        hi.append(grid[r, i + 1])
        f_lo.append(vals[r, i])
        f_hi.append(vals[r, i + 1])
    rows, lo, hi, f_lo, f_hi = (np.concatenate(x)
                                for x in (rows, lo, hi, f_lo, f_hi))
    exact = np.full(len(rows), np.nan)  # brackets whose secant hit f == 0
    for _ in range(_MAX_ITER):
        j = np.flatnonzero(np.isnan(exact) & (hi - lo >= _ANGLE_TOL))
        if not len(j):
            break
        a, b, fa, fb = lo[j], hi[j], f_lo[j], f_hi[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        x = np.where((fb != fa) & (a < x) & (x < b), x, 0.5 * (a + b))
        fx = leg(omega[rows[j]], x, spec)[1]
        exact[j] = np.where(fx == 0.0, x, np.nan)
        low = (fx < 0.0) == (fa < 0.0)
        lo[j], f_lo[j] = np.where(low, x, a), np.where(low, fx, fa)
        hi[j], f_hi[j] = np.where(low, b, x), np.where(low, fb, fx)
    roots[rows] = np.where(np.isnan(exact), 0.5 * (lo + hi), exact)
    return roots


# process -> (leg, output frequency, output polarization)
_PROCESSES = {
    "down": (conjugate_leg, lambda w: 1.0 - w, ORDINARY),
    "up": (up_leg, lambda w: 1.0 + w, EXTRAORDINARY),
}


def match_band(process: str, omega, spec: CrystalSpec) -> list:
    """Phase-match `process` ("down" or "up") at every frequency of omega.

    One pass over an (omega x theta) grid finds each frequency's smallest
    input angle at which the process's leg has no mismatch, up to the
    largest input angle that still refracts out of the crystal.  Returns,
    per frequency, a PhaseMatchSolution or the error that says why there is
    none: DomainError where a wavelength of the leg is outside the window,
    NoSolutionError where no angle matches or an output is totally
    internally reflected.
    """
    leg, out_of, pol_out = _PROCESSES[process]
    omega = np.asarray(omega, dtype=float)
    omega_out = out_of(omega)
    n_in = effective_index(omega, 0.0, ORDINARY, spec)
    inside = ~np.isnan(n_in) & _in_window(wavelength_um(omega_out, spec), spec)
    at = np.flatnonzero(inside)
    theta_in = np.full(len(omega), np.nan)
    theta_in[at] = _first_roots(
        leg, omega[at], 0.999 * np.arcsin(np.minimum(1.0, 1.0 / n_in[at])),
        spec)
    theta_out, residual = leg(omega, theta_in, spec)
    n_out = effective_index(omega_out, theta_out, pol_out, spec)
    found = []
    for k, w in enumerate(omega.tolist()):
        try:
            if not inside[k]:
                check_window(wavelength_um(np.array([w, omega_out[k]]), spec),
                             spec)
            if math.isnan(theta_in[k]):
                raise NoSolutionError(
                    f"no {process}-conversion phase match at omega={w:g}")
            found.append(PhaseMatchSolution(
                theta_in_internal=float(theta_in[k]),
                theta_in_external=external_angle(theta_in[k], n_in[k]),
                theta_out_internal=float(theta_out[k]),
                theta_out_external=external_angle(theta_out[k], n_out[k]),
                residual_dk=float(residual[k])))
        except (DomainError, NoSolutionError) as err:
            # without its traceback, which would tie this frame (and its
            # arrays) into a cycle through `found` until the next gc pass
            found.append(err.with_traceback(None))
    return found


def triples(process: str, omega, spec: CrystalSpec) -> list:
    """Per frequency of omega, the `process`-matched triple (modes,
    dk_down, dk_up), or the DomainError or NoSolutionError that says why
    there is none.  The modes (ordinary input at omega, ordinary 1 - omega,
    extraordinary 1 + omega) are refracted; dk_* are in 1/um.  The input
    and the process's own leg come from match_band, the other leg from one
    pass over the matched frequencies."""
    omega = np.asarray(omega, dtype=float)
    found = match_band(process, omega, spec)
    at = [k for k, sol in enumerate(found)
          if isinstance(sol, PhaseMatchSolution)]
    other = "up" if process == "down" else "down"
    leg, out_of, pol = _PROCESSES[other]
    w = omega[at]
    theta, dk = leg(w, np.array([found[k].theta_in_internal for k in at]),
                    spec)
    n = effective_index(out_of(w), theta, pol, spec)
    for k, w_k, theta_k, dk_k, n_k in zip(at, w.tolist(), theta.tolist(),
                                          dk.tolist(), n.tolist()):
        sol = found[k]
        try:
            if math.isnan(theta_k):
                check_window(wavelength_um(out_of(w_k), spec), spec)
                raise NoSolutionError(
                    "the conjugate or the up-converted wave cannot balance "
                    "the transverse momentum")
            # (internal angle, external angle, mismatch) of each leg
            legs = {process: (sol.theta_out_internal, sol.theta_out_external,
                              sol.residual_dk),
                    other: (theta_k, external_angle(theta_k, n_k), dk_k)}
            (t_d, e_d, dk_down), (t_u, e_u, dk_up) = legs["down"], legs["up"]
            found[k] = ((Mode(w_k, sol.theta_in_external,
                              sol.theta_in_internal, ORDINARY, "input"),
                         Mode(1.0 - w_k, e_d, t_d, ORDINARY, "signal"),
                         Mode(1.0 + w_k, e_u, t_u, EXTRAORDINARY, "signal")),
                        dk_down, dk_up)
        except (DomainError, NoSolutionError) as err:
            found[k] = err.with_traceback(None)
    return found


def match_down(omega: float, spec: CrystalSpec) -> PhaseMatchSolution:
    """Phase-match parametric down conversion at frequency omega.

    Finds the input angle theta such that the pump wavevector equals the
    sum over the conjugate pair (omega, 1 - omega), the conjugate emerging
    on the opposite transverse side.  One frequency of match_band.
    """
    if not 0.0 < omega < 1.0:
        raise InvalidArgumentError("down conversion needs 0 < omega < 1")
    return present(match_band("down", [omega], spec)[0])


def match_up(omega: float, spec: CrystalSpec) -> PhaseMatchSolution:
    """Phase-match parametric up conversion at frequency omega.

    Finds the input angle such that pump plus input match the extraordinary
    output at 1 + omega, whose transverse component keeps the input's sign.
    One frequency of match_band.
    """
    if omega <= 0.0:
        raise InvalidArgumentError("up conversion needs omega > 0")
    return present(match_band("up", [omega], spec)[0])
