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
legs of its (omega, 1 - omega, 1 + omega) triple.  The down leg,
_conjugate, gives the ordinary conjugate of down conversion, which splits
a pump photon's wavevector across the pair (opposite transverse sides,
Fig. 2 geometry); the up leg, _up, gives the extraordinary output of up
conversion, which adds the input to the pump (same side).  Each balances
the transverse momentum exactly and returns the output angle and the
longitudinal mismatch in 1/um, broadcast over arrays of omega and theta;
both are NaN where a wavelength of the leg is outside the transparency
window or the output cannot carry the transverse momentum.  The up wave's
extraordinary index depends on its own angle, so its balance is a
quadratic in tan(theta_up), solved in closed form.

A Band phase-matches a whole band of frequencies at once, in closed
form.  What the legs take from omega alone is computed once per band and
shared by both processes: the stacked frequencies (omega, 1 - omega,
1 + omega and the pump at 1) take one wavelength_um call, one window
mask and one Sellmeier sum per polarisation, and every wave's index
squares and wavenumber are slices of that stack.  Each leg still raises
only when it is used.  From these each leg gives its candidate input
angles: down conversion's momentum triangle fixes one, up conversion's
index ellipse gives the roots of a quartic in tan(theta/2).  The
smallest candidate at which the leg has no mismatch is the match, and
the leg's output angle and mismatch there come from the same evaluation.
A band's result is one Geometry record of columns: each frequency's
internal and external angles, both mismatches and a present mask, and
for each absent frequency only, the error that says why it has none.
Refraction stays scalar math.asin per matched item, as in
external_angle.  Band.match fills in the process's own leg, Band.triples
adds the other leg to each match.  One frequency's geometry is
Band([omega], spec).match(process), with reasons[0] saying why it is
absent; Geometry.modes builds one frequency's Modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidArgumentError, NoSolutionError
from .zpf import EXTRAORDINARY, ORDINARY, Mode

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
        grid = np.linspace(lo, hi, 257)
        for sell in (self.sellmeier_o, self.sellmeier_e):
            for _, c in sell.terms:
                if lo * lo <= c <= hi * hi:
                    raise InvalidArgumentError(
                        f"Sellmeier pole at {math.sqrt(c):.4f} um inside window")
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


def wavelength_um(omega, spec: CrystalSpec):
    """Vacuum wavelength at frequency omega (fraction of pump, array)."""
    if np.any(np.asarray(omega) <= 0):
        raise InvalidArgumentError("omega must be > 0")
    return spec.pump_wavelength_um / omega


def _in_window(wavelength, spec):
    lo, hi = spec.window_um
    return (lo <= wavelength) & (wavelength <= hi)


def _window_error(wavelength: float, spec):
    """The DomainError of a wavelength outside the window."""
    lo, hi = spec.window_um
    return DomainError(
        f"wavelength {wavelength:.5g} um outside window [{lo}, {hi}] um")


def _ellipse_index(no2, ne2, psi):
    c, s = np.cos(psi), np.sin(psi)
    return 1.0 / np.sqrt(c * c / no2 + s * s / ne2)


def _index_squares(omega, spec):
    """The wavelengths at frequency omega (array), their window mask, and
    n_o^2 and n_e^2 there, NaN outside the window."""
    lam = wavelength_um(omega, spec)
    inside = _in_window(lam, spec)
    # outside the window the Sellmeier sums are taken at the pump
    # wavelength, off their poles, and then dropped
    at = np.where(inside, lam, spec.pump_wavelength_um)
    mask = np.where(inside, 1.0, np.nan)
    return (lam, inside, spec.sellmeier_o.n_squared(at) * mask,
            spec.sellmeier_e.n_squared(at) * mask)


def external_angle(theta_internal: float, n: float) -> float:
    """Snell refraction at the flat exit face (signed)."""
    s = n * math.sin(theta_internal)
    if abs(s) > 1.0:
        raise NoSolutionError(
            f"total internal reflection at theta={theta_internal:.4f} rad")
    return math.asin(s)


class _DownTerms(NamedTuple):
    """_conjugate's theta-free terms: the pump wavenumber and, per
    frequency, the input's and the conjugate's (ordinary, angle-free)."""

    k_pump: float
    k_in: np.ndarray
    k_conj: np.ndarray


class _UpTerms(NamedTuple):
    """_up's theta-free terms: the pump wavenumber and, per frequency,
    the input's wavenumber and the 1 + omega wave's wavelength, n_o^2 and
    n_e^2."""

    k_pump: float
    k_in: np.ndarray
    lam_up: np.ndarray
    no2: np.ndarray
    ne2: np.ndarray


def _rows(terms, index):
    """A leg's terms at the frequencies [index] of the band they were built
    on: the pump wavenumber stays, each per-frequency array is indexed."""
    return terms._make((terms.k_pump, *(a[index] for a in terms[1:])))


def _conjugate(terms, theta, spec):
    k_pump, k_in, k_conj = terms
    with np.errstate(invalid="ignore"):
        theta_conj = -np.arcsin(k_in * np.sin(theta) / k_conj)
    return theta_conj, (k_pump - k_in * np.cos(theta)
                        - k_conj * np.cos(theta_conj))


def _up(terms, theta, spec):
    """The up leg at input angles theta, on its _UpTerms.

    The balance sin(t) k_e(t) = k_t, with 1/n_e(t)^2 = cos(cut + t)^2/n_o^2
    + sin(cut + t)^2/n_e^2, is a homogeneous quadratic in (cos t, sin t),
    so a quadratic a tan(t)^2 + b tan(t) + c = 0 with c <= 0.  Of its roots
    on the input's side the one nearest the pump axis is taken, from the
    stable form of the quadratic formula: where a > 0 there is one root on
    each side; where a < 0 (the up wave's index falls fast towards grazing
    incidence) both lie on one side, or there are none.
    """
    k_pump, k_in, lam_up, no2, ne2 = terms
    kt = k_in * np.sin(theta)
    k0 = 2.0 * math.pi / lam_up
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
    k_up = (2.0 * math.pi
            * _ellipse_index(no2, ne2, spec.cut_angle_rad + theta_up) / lam_up)
    return theta_up, k_pump + k_in * np.cos(theta) - k_up * np.cos(theta_up)


def _down_roots(terms, spec):
    """The input angle (a column) at which the momentum triangle k_pump =
    k_in + k_conj closes, from the cancellation-free sin^2(theta/2) =
    (k_c - k_p + k_in)(k_c + k_p - k_in) / (4 k_p k_in); a collinear
    tangency can round it below zero."""
    k_pump, k_in, k_conj = terms
    s2 = ((k_conj - k_pump + k_in) * (k_conj + k_pump - k_in)
          / (4.0 * k_pump * k_in))
    with np.errstate(invalid="ignore"):
        return 2.0 * np.arcsin(np.sqrt(np.maximum(s2, 0.0)))[:, None]


def _up_roots(terms, spec):
    """The input angles (a row of four) at which K = (k_in sin(theta), k_p +
    k_in cos(theta)) lies on the up wave's index ellipse A K_x^2 + B K_x K_z
    + C K_z^2 = k0^2: with u = tan(theta/2), (1 + u^2) K = (2 k_in u, k_p +
    k_in + (k_p - k_in) u^2), a quartic in u.  The real part of each root
    is taken; complex and backward-wave roots miss _up's mismatch."""
    k_pump, k_in, lam_up, no2, ne2 = terms
    c, s = math.cos(spec.cut_angle_rad), math.sin(spec.cut_angle_rad)
    a, cc = s * s / no2 + c * c / ne2, c * c / no2 + s * s / ne2
    b = 2.0 * c * s * (1.0 / ne2 - 1.0 / no2)
    k02 = (2.0 * math.pi / lam_up) ** 2
    p, m = k_pump + k_in, k_pump - k_in
    quartic = np.stack([cc * m * m - k02, 2.0 * b * k_in * m,
                        4.0 * a * k_in * k_in + 2.0 * cc * p * m - 2.0 * k02,
                        2.0 * b * k_in * p, cc * p * p - k02], axis=-1)
    companion = np.zeros((len(k_in), 4, 4))
    companion[:, 0] = -quartic[:, 1:] / quartic[:, :1]
    companion[:, 1:, :-1] = np.eye(3)
    return 2.0 * np.arctan(np.linalg.eigvals(companion).real)


def _first_match(leg, roots_of, terms, theta_max, spec):
    """Per frequency of terms, the smallest candidate input angle of
    roots_of in [0, theta_max) at which leg's |dk_z| <= 1e-12 /um, with
    leg's output angle and dk_z there, all from one evaluation of leg at
    every candidate; NaN where there is none."""
    theta = roots_of(terms, spec)
    theta_out, dk = leg(_rows(terms, (slice(None), None)), theta, spec)
    matched = ((0.0 <= theta) & (theta < theta_max[:, None])
               & (np.abs(dk) <= 1e-12))
    first = (np.arange(len(theta)),
             np.argmin(np.where(matched, theta, np.inf), axis=1))
    return tuple(np.where(matched[first], a[first], np.nan)
                 for a in (theta, theta_out, dk))


# process -> (leg, the Band attribute of its theta-free terms, its
# candidate input angles, the output's wave in a triple)
_PROCESSES = {
    "down": (_conjugate, "down_terms", _down_roots, 1),
    "up": (_up, "up_terms", _up_roots, 2),
}


class Geometry(NamedTuple):
    """The (omega, 1 - omega, 1 + omega) triples of a band, as columns.

    theta_internal and theta_external are (N, 3) arrays of signed angles in
    rad, one row per frequency: the ordinary input at omega, the ordinary
    conjugate at 1 - omega and the extraordinary up-converted wave at
    1 + omega.  dk_down and dk_up are the down and up legs' longitudinal
    mismatches in 1/um.  present marks the frequencies that have the
    geometry; reasons maps the index of every other frequency to the
    DomainError or NoSolutionError that says why not, and its row is NaN.
    """

    omega: np.ndarray
    theta_internal: np.ndarray
    theta_external: np.ndarray
    dk_down: np.ndarray
    dk_up: np.ndarray
    present: np.ndarray
    reasons: dict

    @classmethod
    def of(cls, omega, theta_internal, theta_external, dk_down, dk_up,
           reasons):
        """The record with present and the NaN rows taken from reasons
        (the arrays are masked in place)."""
        present = np.ones(len(omega), dtype=bool)
        present[list(reasons)] = False
        for column in (theta_internal, theta_external, dk_down, dk_up):
            column[~present] = np.nan
        return cls(omega, theta_internal, theta_external, dk_down, dk_up,
                   present, reasons)

    @classmethod
    def absent(cls, omega, reason_of):
        """Every frequency of omega absent, each for its own reason_of()."""
        n = len(omega)
        return cls.of(np.asarray(omega, dtype=float), np.empty((n, 3)),
                      np.empty((n, 3)), np.empty(n), np.empty(n),
                      {k: reason_of() for k in range(n)})

    def modes(self, k: int) -> tuple:
        """The refracted Modes of frequency k's triple, which is present."""
        w = float(self.omega[k])
        (t_in, t_conj, t_up), (e_in, e_conj, e_up) = (
            self.theta_internal[k].tolist(), self.theta_external[k].tolist())
        return (Mode(w, e_in, t_in, ORDINARY),
                Mode(1.0 - w, e_conj, t_conj, ORDINARY),
                Mode(1.0 + w, e_up, t_up, EXTRAORDINARY))


def _refract(theta, n, reasons):
    """external_angle of each item of the columns theta and n whose index
    has no reason yet, NaN elsewhere; an item that is totally internally
    reflected takes that as its reason."""
    theta_ext = []
    for k, (t, n_k) in enumerate(zip(theta.tolist(), n.tolist())):
        try:
            theta_ext.append(math.nan if k in reasons
                             else external_angle(t, n_k))
        except NoSolutionError as err:
            # without its traceback, which would tie this frame (and its
            # arrays) into a cycle through `reasons`
            reasons[k] = err.with_traceback(None)
            theta_ext.append(math.nan)
    return np.array(theta_ext, dtype=float)


class Band:
    """The frequencies omega of one crystal, phase-matched as columns.

    The stacked Sellmeier sums and each leg's terms are built on first use
    and shared by both processes; only the down leg's terms raise where
    1 - omega <= 0.
    """

    def __init__(self, omega, spec: CrystalSpec):
        self.omega = np.asarray(omega, dtype=float)
        self.spec = spec

    @cached_property
    def _waves(self):
        """_index_squares of wave k of the triples (0 the input, 1 the
        conjugate, 2 the up-converted wave) in omega's shape, and of the
        pump (3), from one call; a conjugate at 1 - omega <= 0 is summed
        at the pump, and _n_conj raises."""
        w, shape = self.omega.ravel(), self.omega.shape
        conj = 1.0 - w
        stack = _index_squares(np.concatenate(
            (w, np.where(conj <= 0.0, 1.0, conj), 1.0 + w, [1.0])), self.spec)
        return [[a[k * w.size:(k + 1) * w.size].reshape(shape)[()]
                 for a in stack] for k in range(3)] + [[a[-1] for a in stack]]

    @cached_property
    def _n_in(self):
        return np.sqrt(self._waves[0][2])

    @cached_property
    def _n_conj(self):
        if np.any(1.0 - self.omega <= 0):
            # wavelength_um's error for the frequency 1 - omega
            raise InvalidArgumentError("omega must be > 0")
        return np.sqrt(self._waves[1][2])

    @cached_property
    def _k_pump(self):
        lam, _, no2, ne2 = self._waves[3]
        n = (np.sqrt(no2) if self.spec.pump_polarization == ORDINARY
             else _ellipse_index(no2, ne2, self.spec.cut_angle_rad))
        return 2.0 * math.pi * n / lam

    @cached_property
    def _k_in(self):
        return 2.0 * math.pi * self._n_in / self._waves[0][0]

    @cached_property
    def down_terms(self) -> _DownTerms:
        return _DownTerms(self._k_pump, self._k_in,
                          2.0 * math.pi * self._n_conj / self._waves[1][0])

    @cached_property
    def up_terms(self) -> _UpTerms:
        lam, _, no2, ne2 = self._waves[2]
        return _UpTerms(self._k_pump, self._k_in, lam, no2, ne2)

    def _n_out(self, process, rows, theta):
        """The index of the process's output wave at the frequencies
        [rows] and the internal angles theta."""
        if process == "down":
            return self._n_conj[rows]
        up = self.up_terms
        return _ellipse_index(up.no2[rows], up.ne2[rows],
                              self.spec.cut_angle_rad + theta)

    def _solve(self, process):
        """match's (N, 3) internal and external angles, (2, N) mismatches
        and reasons, before Geometry.of masks the absent rows."""
        leg, terms_of, roots_of, out = _PROCESSES[process]
        omega, spec, n_in = self.omega, self.spec, self._n_in
        terms = getattr(self, terms_of)
        lam_out, inside_out = self._waves[out][:2]
        inside = ~np.isnan(n_in) & inside_out
        at = np.flatnonzero(inside)
        theta, theta_ext = np.full((2, len(omega), 3), np.nan)
        dk = np.full((2, len(omega)), np.nan)
        theta[at, 0], theta[at, out], dk[out - 1, at] = _first_match(
            leg, roots_of, _rows(terms, at),
            0.999 * np.arcsin(np.minimum(1.0, 1.0 / n_in[at])), spec)
        # the first of the leg's wavelengths outside the window: the
        # input's where its index is NaN
        lam = np.where(np.isnan(n_in), self._waves[0][0], lam_out)
        reasons = {k: _window_error(lam[k], spec)
                   for k in np.flatnonzero(~inside).tolist()}
        for k in np.flatnonzero(inside & np.isnan(theta[:, 0])).tolist():
            reasons[k] = NoSolutionError(
                f"no {process}-conversion phase match at omega={omega[k]:g}")
        theta_ext[:, 0] = _refract(theta[:, 0], n_in, reasons)
        theta_ext[:, out] = _refract(
            theta[:, out], self._n_out(process, slice(None), theta[:, out]),
            reasons)
        return theta, theta_ext, dk, reasons

    def match(self, process: str) -> Geometry:
        """Phase-match `process` ("down" or "up") at every frequency.

        Each frequency's smallest input angle at which the process's leg
        has no mismatch, up to the largest input angle that still refracts
        out of the crystal, comes from the leg's closed-form candidates.
        Returns the band's Geometry with the input and the process's own
        output filled in, the other output's angles and mismatch NaN.  A
        frequency is absent with a DomainError where a wavelength of the
        leg is outside the window, with a NoSolutionError where no angle
        matches or a wave is totally internally reflected.
        """
        theta, theta_ext, dk, reasons = self._solve(process)
        return Geometry.of(self.omega, theta, theta_ext, *dk, reasons)

    def triples(self, process: str) -> Geometry:
        """The band's Geometry at the `process`-matched input angles: each
        frequency's refracted triple and both mismatches, or why there is
        none.  The other leg is one pass over match's matched frequencies."""
        theta, theta_ext, dk, reasons = self._solve(process)
        # the rows without a reason: _refract left NaN at every other one
        at = np.flatnonzero(~np.isnan(theta_ext[:, _PROCESSES[process][-1]]))
        other = "up" if process == "down" else "down"
        leg, terms_of, _, out = _PROCESSES[other]
        theta_out, dk_out = leg(_rows(getattr(self, terms_of), at),
                                theta[at, 0], self.spec)
        lam, inside = (a[at] for a in self._waves[out][:2])
        more = {j: NoSolutionError("the conjugate or the up-converted "
                                   "wave cannot balance the transverse "
                                   "momentum")
                if inside[j] else _window_error(lam[j], self.spec)
                for j in np.flatnonzero(np.isnan(theta_out)).tolist()}
        theta_ext[at, out] = _refract(
            theta_out, self._n_out(other, at, theta_out), more)
        theta[at, out], dk[out - 1, at] = theta_out, dk_out
        return Geometry.of(
            self.omega, theta, theta_ext, *dk,
            reasons | {int(at[j]): err for j, err in more.items()})

