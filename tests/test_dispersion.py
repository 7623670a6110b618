import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zprainbow.dispersion import (CrystalSpec, SellmeierCoefficients, _roots,
                                  conjugate_leg, effective_index,
                                  external_angle, extraordinary_index,
                                  make_mode, match_down, match_up, mismatch,
                                  pump_mode, refractive_index, up_leg,
                                  wavelength_um, wavevector)
from zprainbow.errors import (DomainError, InvalidArgumentError,
                              NoSolutionError)
from zprainbow.zpf import EXTRAORDINARY, ORDINARY, Mode


def flat_crystal():
    """Vacuum-like medium: every index exactly 1."""
    flat = SellmeierCoefficients(((0.0, 0.01),))
    return CrystalSpec(sellmeier_o=flat, sellmeier_e=flat, cut_angle_deg=20.0,
                       length_mm=0.06, pump_wavelength_nm=400.0,
                       gain_per_mm=1.0, window_um=(0.2, 1.2))


class TestSellmeier:
    def test_single_term_value(self, crystal):
        # n = sqrt(1 + 1.25 * 1 / (1 - 0.01)), evaluated directly
        sell = SellmeierCoefficients(((1.25, 0.01),))
        spec = CrystalSpec(sellmeier_o=sell, sellmeier_e=sell,
                           cut_angle_deg=0.0, length_mm=1.0,
                           pump_wavelength_nm=500.0, gain_per_mm=0.1,
                           window_um=(0.3, 1.5))
        got = refractive_index(1.0, ORDINARY, spec)
        assert got == pytest.approx(math.sqrt(1 + 1.25 / 0.99), abs=1e-12)
        assert got == pytest.approx(1.5042029, abs=1e-6)

    def test_zero_strength_is_vacuum(self):
        spec = flat_crystal()
        for lam in (0.25, 0.5, 1.0):
            assert refractive_index(lam, ORDINARY, spec) == 1.0

    def test_default_normal_dispersion(self, crystal):
        # strictly decreasing n(lambda) across the visible part of the window
        lams = np.linspace(0.38, 0.70, 1000)
        for pol in ("ordinary", "extraordinary"):
            n = np.array([refractive_index(l, pol, crystal) for l in lams])
            assert np.all(np.diff(n) < 0)

    def test_window_enforced(self, crystal):
        with pytest.raises(DomainError):
            refractive_index(0.1, ORDINARY, crystal)
        with pytest.raises(DomainError):
            refractive_index(2.0, ORDINARY, crystal)

    def test_duplicate_poles_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SellmeierCoefficients(((1.0, 0.01), (0.5, 0.01)))

    def test_pole_inside_window_rejected(self):
        sell = SellmeierCoefficients(((1.0, 0.25),))  # pole at 0.5 um
        with pytest.raises(InvalidArgumentError):
            CrystalSpec(sellmeier_o=sell, sellmeier_e=sell, cut_angle_deg=0.0,
                        length_mm=1.0, pump_wavelength_nm=800.0,
                        gain_per_mm=0.1, window_um=(0.3, 1.5))


class TestWavevector:
    def test_collinear_has_no_transverse(self, crystal):
        mode = make_mode(crystal, 0.5, 0.0, ORDINARY, "input")
        kt, kz = wavevector(mode, crystal)
        assert kt == 0.0
        assert kz > 0.0

    def test_magnitude(self):
        # n = 1.5 exactly at 1 um: pole at zero with B chosen for n^2 = 2.25
        sell = SellmeierCoefficients(((1.25, 0.0),))
        spec = CrystalSpec(sellmeier_o=sell, sellmeier_e=sell,
                           cut_angle_deg=0.0, length_mm=1.0,
                           pump_wavelength_nm=500.0, gain_per_mm=0.1,
                           window_um=(0.3, 1.5))
        mode = make_mode(spec, 0.5, 0.0, ORDINARY, "input")
        kt, kz = wavevector(mode, spec)
        assert kz == pytest.approx(3.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.05, -0.05, 0.3, -0.3])
    def test_transverse_sign_follows_angle(self, crystal, theta):
        mode = make_mode(crystal, 0.5, theta, ORDINARY, "input")
        kt, _ = wavevector(mode, crystal)
        assert math.copysign(1.0, kt) == math.copysign(1.0, theta)

    def test_refraction_consistency(self, crystal):
        # theta_external from the refraction law to 1e-12
        mode = make_mode(crystal, 0.5, 0.07, ORDINARY, "input")
        n = refractive_index(0.8, ORDINARY, crystal)
        assert abs(math.sin(mode.theta_external)
                   - n * math.sin(mode.theta_internal)) < 1e-12


class TestMismatch:
    def test_identity(self, crystal):
        modes = [make_mode(crystal, 0.5, 0.1, ORDINARY, "input"),
                 make_mode(crystal, 0.4, -0.05, ORDINARY, "signal")]
        assert mismatch(modes, modes, crystal) == (0.0, 0.0)

    def test_converged_solution_closes(self, crystal):
        sol = match_down(0.5, crystal)
        pump = pump_mode(crystal)
        m_in = make_mode(crystal, 0.5, sol.theta_in_internal, ORDINARY, "input")
        m_out = make_mode(crystal, 0.5, sol.theta_out_internal, ORDINARY,
                          "signal")
        dkt, dkz = mismatch([pump], [m_in, m_out], crystal)
        assert abs(dkt) < 1e-9
        assert abs(dkz) < 1e-9

    def test_small_tilt_transverse(self, crystal):
        delta = 1e-4
        straight = make_mode(crystal, 0.5, 0.0, ORDINARY, "input")
        tilted = make_mode(crystal, 0.5, delta, ORDINARY, "input")
        dkt, _ = mismatch([straight], [tilted], crystal)
        k = wavevector(straight, crystal)[1]
        assert dkt == pytest.approx(-k * delta, rel=1e-7)

    def test_empty_list_rejected(self, crystal):
        with pytest.raises(InvalidArgumentError):
            mismatch([], [pump_mode(crystal)], crystal)


class TestMatchDown:
    def test_degenerate_angle_in_band(self, crystal):
        # paper regime: external rainbow angle around ten degrees
        sol = match_down(0.5, crystal)
        assert math.radians(5.0) <= sol.theta_in_external <= math.radians(15.0)

    def test_residuals_across_band(self, crystal):
        for omega in np.linspace(0.42, 0.58, 9):
            sol = match_down(float(omega), crystal)
            assert abs(sol.residual_dk) < 1e-9

    def test_opposite_sides(self, crystal):
        sol = match_down(0.46, crystal)
        assert sol.theta_in_internal > 0.0
        assert sol.theta_out_internal < 0.0
        assert sol.theta_out_external < 0.0

    def test_flat_dispersion_is_collinear(self):
        sol = match_down(0.5, flat_crystal())
        assert sol.theta_in_internal == pytest.approx(0.0, abs=1e-9)

    def test_conjugacy_mirror(self, crystal):
        for omega in (0.44, 0.47, 0.55):
            a = match_down(omega, crystal)
            b = match_down(1.0 - omega, crystal)
            assert abs(a.theta_in_internal - abs(b.theta_out_internal)) < 1e-9
            assert abs(abs(a.theta_out_internal) - b.theta_in_internal) < 1e-9

    def test_continuity(self, crystal):
        omegas = np.linspace(0.45, 0.55, 1000)
        thetas = np.array([match_down(float(w), crystal).theta_in_external
                           for w in omegas])
        jumps = np.abs(np.diff(thetas))
        slope = np.median(jumps)
        assert np.max(jumps) < 10.0 * max(slope, 1e-9)

    def test_no_solution_reported(self, crystal):
        with pytest.raises(NoSolutionError):
            match_down(0.605, crystal)

    def test_domain_error_outside_window(self, crystal):
        with pytest.raises(DomainError):
            match_down(0.62, crystal)  # conjugate wavelength leaves window

    def test_precondition(self, crystal):
        with pytest.raises(InvalidArgumentError):
            match_down(1.2, crystal)


class TestMatchUp:
    def test_angle_ratio_band(self, crystal):
        # paper: the up-conversion angle is about 2.5 times the main one
        ratios = []
        for omega in np.linspace(0.52, 0.58, 7):
            d = match_down(float(omega), crystal)
            u = match_up(float(omega), crystal)
            ratios.append(u.theta_in_external / d.theta_in_external)
        assert 2.0 <= np.mean(ratios) <= 3.0

    def test_residual_postcondition(self, crystal):
        sol = match_up(0.54, crystal)
        assert abs(sol.residual_dk) < 1e-9

    def test_same_side_convention(self, crystal):
        sol = match_up(0.54, crystal)
        assert sol.theta_in_internal > 0.0
        assert sol.theta_out_internal > 0.0
        assert math.copysign(1.0, sol.theta_out_external) == \
            math.copysign(1.0, sol.theta_in_external)

    def test_no_solution_reported(self, crystal):
        with pytest.raises(NoSolutionError):
            match_up(0.45, crystal)

    def test_precondition(self, crystal):
        with pytest.raises(InvalidArgumentError):
            match_up(-0.1, crystal)


class TestExternalAngle:
    def test_total_internal_reflection(self):
        with pytest.raises(NoSolutionError):
            external_angle(0.8, 1.6)

    def test_snell(self):
        th = external_angle(0.1, 1.5)
        assert math.sin(th) == pytest.approx(1.5 * math.sin(0.1), rel=1e-12)


class TestContinuity:
    def test_up_branch_continuous(self, crystal):
        omegas = np.linspace(0.525, 0.575, 1000)
        thetas = np.array([match_up(float(w), crystal).theta_in_external
                           for w in omegas])
        jumps = np.abs(np.diff(thetas))
        slope = np.median(jumps)
        assert np.max(jumps) < 10.0 * max(slope, 1e-9)


# The scalar phase-matching solver that the array root scan replaced, kept
# as its oracle: the grid scan, then one bracket at a time refined with one
# angle per call.

_SCAN_POINTS = 600
_ANGLE_TOL = 1e-12
_MAX_ITER = 200


def _k_ordinary(omega, spec):
    lam = wavelength_um(omega, spec)
    return 2.0 * math.pi * refractive_index(lam, ORDINARY, spec) / lam


def _k_pump(spec):
    return (2.0 * math.pi * effective_index(1.0, 0.0, spec.pump_polarization,
                                            spec) / spec.pump_wavelength_um)


def _k_up(omega_up, theta, spec):
    lam = wavelength_um(omega_up, spec)
    return 2.0 * math.pi * extraordinary_index(
        lam, spec.cut_angle_rad + theta, spec) / lam


def _up_output_angle(omega_up, k_trans, spec):
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
    k_f = _k_ordinary(omega, spec)
    k_s = _k_ordinary(1.0 - omega, spec)
    kt = k_f * np.sin(theta)
    with np.errstate(invalid="ignore"):
        out = (_k_pump(spec) - k_f * np.cos(theta)
               - np.sqrt(k_s * k_s - kt * kt))
    return float(out) if np.ndim(out) == 0 else out


def _delta_kz_up(theta, omega, spec):
    k_f = _k_ordinary(omega, spec)
    kt = k_f * np.sin(theta)
    theta_out = _up_output_angle(1.0 + omega, kt, spec)
    safe = np.where(np.isnan(theta_out), 0.0, theta_out)
    k_u = _k_up(1.0 + omega, safe, spec)
    out = np.where(np.isnan(theta_out), np.nan,
                   _k_pump(spec) + k_f * np.cos(theta) - k_u * np.cos(theta_out))
    return float(out) if np.ndim(out) == 0 else out


def _bracketed_root(fn, lo, hi, f_lo, f_hi):
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
    n = refractive_index(wavelength_um(omega, spec), ORDINARY, spec)
    return 0.999 * math.asin(min(1.0, 1.0 / n))


# (solver, leg, oracle mismatch, output frequency, output polarization,
# incoming and outgoing modes from (pump, input, output))
PROCESSES = {
    "down": (match_down, conjugate_leg, _delta_kz_down, lambda w: 1.0 - w,
             ORDINARY, lambda p, i, o: ([p], [i, o])),
    "up": (match_up, up_leg, _delta_kz_up, lambda w: 1.0 + w,
           EXTRAORDINARY, lambda p, i, o: ([p, i], [o])),
}


class TestGeometryProperties:
    """The array root scan against the scalar oracle, across cut angle,
    pump wavelength and frequency."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(cut_deg=st.floats(6.0, 14.0), pump_nm=st.floats(380.0, 420.0),
           omega=st.floats(0.40, 0.62), process=st.sampled_from(["down", "up"]))
    def test_roots_agree_with_scalar_oracle(self, crystal, cut_deg, pump_nm,
                                            omega, process):
        spec = replace(crystal, cut_angle_deg=cut_deg,
                       pump_wavelength_nm=pump_nm)
        match, leg, oracle, omega_out, pol_out, sides = PROCESSES[process]
        try:
            theta_max = _max_input_angle(omega, spec)
            want = _scan_roots(lambda t: oracle(t, omega, spec), theta_max)
        except DomainError:
            with pytest.raises(DomainError):
                match(omega, spec)
            return
        got = _roots(lambda t: leg(omega, t, spec)[1], theta_max)
        assert len(got) == len(want)
        assert np.all(np.abs(got - np.array(want)) <= 1e-11)
        if not len(got):
            with pytest.raises(NoSolutionError):
                match(omega, spec)
            return
        sol = match(omega, spec)
        assert sol.theta_in_internal == got[0]
        assert abs(sol.residual_dk) < 1e-9
        for theta in got:
            theta_out, dk = leg(omega, theta, spec)
            assert abs(dk) < 1e-9
            m_in = Mode(omega, 0.0, float(theta), ORDINARY, "input")
            m_out = Mode(omega_out(omega), 0.0, float(theta_out), pol_out,
                         "signal")
            dkt, dkz = mismatch(*sides(pump_mode(spec), m_in, m_out), spec)
            assert abs(dkt) < 1e-9
            assert abs(dkz) < 1e-9
