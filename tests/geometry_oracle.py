"""Per-mode scalar geometry: the reference for dispersion's array legs.

The pipeline computes the phase-matching geometry one way only, over
arrays: dispersion's legs, _conjugate and _up, on a Band's terms behind
Band.match and Band.triples.  The functions here compute it one mode at a
time, straight from the Sellmeier form and the index ellipsoid: a
principal or extraordinary index, a refracted Mode, its wavevector, and
the wavevector mismatch of a process.  The tests compare the legs, the
band matcher and the built triples against them.  check_window and
effective_index, which the pipeline no longer calls (a Band slices its
index squares from one stacked Sellmeier sum), live here too, and so do
conjugate_leg and up_leg, each leg in one call on a fresh Band's terms.
"""

from __future__ import annotations

import math

import numpy as np

from zprainbow.dispersion import (Band, CrystalSpec, _conjugate,
                                  _ellipse_index, _in_window, _index_squares,
                                  _up, _window_error, external_angle,
                                  wavelength_um)
from zprainbow.errors import InvalidArgumentError
from zprainbow.zpf import EXTRAORDINARY, ORDINARY, Mode


def check_window(wavelength, spec: CrystalSpec) -> None:
    """Raise DomainError naming the first wavelength outside the window."""
    w = np.ravel(wavelength)
    outside = w[~_in_window(w, spec)]
    if len(outside):
        raise _window_error(outside[0], spec)


def effective_index(omega, theta_internal, pol: str, spec: CrystalSpec):
    """Index seen by a wave at internal angle theta from the pump axis.

    omega and theta broadcast; NaN where the wavelength is outside the
    window.
    """
    no2, ne2 = _index_squares(omega, spec)[2:]
    if pol == ORDINARY:
        return np.sqrt(no2)
    return _ellipse_index(no2, ne2, spec.cut_angle_rad + theta_internal)


def refractive_index(wavelength_um: float, pol: str, spec: CrystalSpec) -> float:
    """Principal refractive index from the Sellmeier form."""
    check_window(wavelength_um, spec)
    sell = spec.sellmeier_o if pol == ORDINARY else spec.sellmeier_e
    if pol not in (ORDINARY, EXTRAORDINARY):
        raise InvalidArgumentError(f"unknown polarization {pol!r}")
    return float(np.sqrt(sell.n_squared(wavelength_um)))


def extraordinary_index(wavelength_um, psi, spec: CrystalSpec):
    """Extraordinary index at angle psi (array) from the optic axis."""
    check_window(wavelength_um, spec)
    return _ellipse_index(spec.sellmeier_o.n_squared(wavelength_um),
                          spec.sellmeier_e.n_squared(wavelength_um), psi)


def make_mode(spec: CrystalSpec, omega: float, theta_internal: float,
              pol: str, role: str) -> Mode:
    """Build a Mode with its external angle filled in by refraction."""
    check_window(wavelength_um(omega, spec), spec)
    n = float(effective_index(omega, theta_internal, pol, spec))
    return Mode(omega=omega, theta_external=external_angle(theta_internal, n),
                theta_internal=theta_internal, polarization=pol, role=role)


def pump_mode(spec: CrystalSpec) -> Mode:
    return Mode(omega=1.0, theta_external=0.0, theta_internal=0.0,
                polarization=spec.pump_polarization, role="pump")


def wavevector(mode: Mode, spec: CrystalSpec) -> tuple[float, float]:
    """(k_transverse, k_longitudinal) in 1/um for one mode."""
    k = (2.0 * math.pi
         * effective_index(mode.omega, mode.theta_internal,
                           mode.polarization, spec)
         / wavelength_um(mode.omega, spec))
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


def conjugate_leg(omega, theta, spec: CrystalSpec):
    """The ordinary conjugate at 1 - omega of an input at internal angle theta.

    omega and theta broadcast.  Returns (theta_conj, dk_z): the conjugate's
    angle, on the opposite side with the transverse momentum balanced, and
    the longitudinal mismatch k_p - k_z(omega) - k_z(1 - omega) in 1/um.
    Both are NaN where the conjugate cannot carry the transverse momentum
    or a wavelength of the leg is outside the window.
    """
    return _conjugate(Band(omega, spec).down_terms,
                      np.asarray(theta, dtype=float), spec)


def up_leg(omega, theta, spec: CrystalSpec):
    """The extraordinary up-converted wave at 1 + omega of an input at theta.

    omega and theta broadcast.  Returns (theta_up, dk_z): the output angle,
    on the input's side with the transverse momentum balanced, and the
    longitudinal mismatch k_p + k_z(omega) - k_z(1 + omega) in 1/um.  Both
    are NaN where the up-converted wave cannot carry the transverse
    momentum or a wavelength of the leg is outside the window.
    """
    return _up(Band(omega, spec).up_terms, np.asarray(theta, dtype=float),
               spec)
