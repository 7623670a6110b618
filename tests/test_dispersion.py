import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from geometry_oracle import (conjugate_leg, effective_index,
                             extraordinary_index, make_mode, mismatch,
                             pump_mode, refractive_index, up_leg, wavevector)
from zprainbow import dispersion
from zprainbow.dispersion import (Band, CrystalSpec, SellmeierCoefficients,
                                  _conjugate, _rows, _up, external_angle,
                                  wavelength_um)
from zprainbow.errors import (DomainError, InvalidArgumentError,
                              NoSolutionError)
from zprainbow.rainbow import sweep
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
        mode = make_mode(crystal, 0.5, 0.0, ORDINARY)
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
        mode = make_mode(spec, 0.5, 0.0, ORDINARY)
        kt, kz = wavevector(mode, spec)
        assert kz == pytest.approx(3.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.05, -0.05, 0.3, -0.3])
    def test_transverse_sign_follows_angle(self, crystal, theta):
        mode = make_mode(crystal, 0.5, theta, ORDINARY)
        kt, _ = wavevector(mode, crystal)
        assert math.copysign(1.0, kt) == math.copysign(1.0, theta)

    def test_refraction_consistency(self, crystal):
        # theta_external from the refraction law to 1e-12
        mode = make_mode(crystal, 0.5, 0.07, ORDINARY)
        n = refractive_index(0.8, ORDINARY, crystal)
        assert abs(math.sin(mode.theta_external)
                   - n * math.sin(mode.theta_internal)) < 1e-12


class TestMismatch:
    def test_identity(self, crystal):
        modes = [make_mode(crystal, 0.5, 0.1, ORDINARY),
                 make_mode(crystal, 0.4, -0.05, ORDINARY)]
        assert mismatch(modes, modes, crystal) == (0.0, 0.0)

    def test_converged_solution_closes(self, crystal):
        theta_in, theta_out, _ = Band([0.5], crystal).match(
            "down").theta_internal[0].tolist()
        pump = pump_mode(crystal)
        m_in = make_mode(crystal, 0.5, theta_in, ORDINARY)
        m_out = make_mode(crystal, 0.5, theta_out, ORDINARY)
        dkt, dkz = mismatch([pump], [m_in, m_out], crystal)
        assert abs(dkt) < 1e-9
        assert abs(dkz) < 1e-9

    def test_small_tilt_transverse(self, crystal):
        delta = 1e-4
        straight = make_mode(crystal, 0.5, 0.0, ORDINARY)
        tilted = make_mode(crystal, 0.5, delta, ORDINARY)
        dkt, _ = mismatch([straight], [tilted], crystal)
        k = wavevector(straight, crystal)[1]
        assert dkt == pytest.approx(-k * delta, rel=1e-7)

    def test_empty_list_rejected(self, crystal):
        with pytest.raises(InvalidArgumentError):
            mismatch([], [pump_mode(crystal)], crystal)


class TestMatchDown:
    """Band.match("down"): columns 0 and 1 of its angles are the input and
    the conjugate; an absent frequency is NaN, which fails every bound."""

    def test_degenerate_angle_in_band(self, crystal):
        # paper regime: external rainbow angle around ten degrees
        theta = Band([0.5], crystal).match("down").theta_external[0, 0]
        assert math.radians(5.0) <= theta <= math.radians(15.0)

    def test_residuals_across_band(self, crystal):
        found = Band(np.linspace(0.42, 0.58, 9), crystal).match("down")
        assert np.all(np.abs(found.dk_down) < 1e-9)

    def test_opposite_sides(self, crystal):
        found = Band([0.46], crystal).match("down")
        assert found.theta_internal[0, 0] > 0.0
        assert found.theta_internal[0, 1] < 0.0
        assert found.theta_external[0, 1] < 0.0

    def test_flat_dispersion_is_collinear(self):
        found = Band([0.5], flat_crystal()).match("down")
        assert found.theta_internal[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_conjugacy_mirror(self, crystal):
        omegas = np.array([0.44, 0.47, 0.55])
        a = Band(omegas, crystal).match("down").theta_internal
        b = Band(1.0 - omegas, crystal).match("down").theta_internal
        assert np.all(np.abs(a[:, 0] - np.abs(b[:, 1])) < 1e-9)
        assert np.all(np.abs(np.abs(a[:, 1]) - b[:, 0]) < 1e-9)

    def test_continuity(self, crystal):
        omegas = np.linspace(0.45, 0.55, 1000)
        thetas = Band(omegas, crystal).match("down").theta_external[:, 0]
        jumps = np.abs(np.diff(thetas))
        slope = np.median(jumps)
        assert np.max(jumps) < 10.0 * max(slope, 1e-9)

    def test_no_solution_reported(self, crystal):
        found = Band([0.605], crystal).match("down")
        assert isinstance(found.reasons[0], NoSolutionError)

    def test_domain_error_outside_window(self, crystal):
        # the conjugate's wavelength leaves the window
        found = Band([0.62], crystal).match("down")
        assert isinstance(found.reasons[0], DomainError)

    def test_precondition(self, crystal):
        with pytest.raises(InvalidArgumentError):
            Band([1.2], crystal).match("down")


class TestMatchUp:
    """Band.match("up"): columns 0 and 2 of its angles are the input and
    the up-converted wave."""

    def test_angle_ratio_band(self, crystal):
        # paper: the up-conversion angle is about 2.5 times the main one
        band = Band(np.linspace(0.52, 0.58, 7), crystal)
        ratios = (band.match("up").theta_external[:, 0]
                  / band.match("down").theta_external[:, 0])
        assert 2.0 <= np.mean(ratios) <= 3.0

    def test_residual_postcondition(self, crystal):
        assert abs(Band([0.54], crystal).match("up").dk_up[0]) < 1e-9

    def test_same_side_convention(self, crystal):
        found = Band([0.54], crystal).match("up")
        assert found.theta_internal[0, 0] > 0.0
        assert found.theta_internal[0, 2] > 0.0
        assert math.copysign(1.0, found.theta_external[0, 2]) == \
            math.copysign(1.0, found.theta_external[0, 0])

    def test_no_solution_reported(self, crystal):
        found = Band([0.45], crystal).match("up")
        assert isinstance(found.reasons[0], NoSolutionError)

    def test_precondition(self, crystal):
        with pytest.raises(InvalidArgumentError):
            Band([-0.1], crystal).match("up")


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
        thetas = Band(omegas, crystal).match("up").theta_external[:, 0]
        jumps = np.abs(np.diff(thetas))
        slope = np.median(jumps)
        assert np.max(jumps) < 10.0 * max(slope, 1e-9)


# The scalar phase-matching solver that the band matcher replaced, kept as
# its oracle: the grid scan, then one bracket at a time refined with one
# angle per call.  Its up leg is the fixed point that the closed-form up
# angle replaced.

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


def birefringent_crystal(crystal):
    """n_o near 3 and a vacuum-like n_e: at large input angles no
    up-converted wave can carry the input's transverse momentum."""
    return replace(crystal,
                   sellmeier_o=SellmeierCoefficients(((8.0, 0.0001),)),
                   sellmeier_e=SellmeierCoefficients(((0.0, 0.01),)),
                   window_um=(0.2, 1.2))


MATERIALS = {
    "shipped": lambda crystal: crystal,
    # n_o == n_e: the linear coefficient of the quadratic in tan vanishes
    "isotropic": lambda crystal: replace(crystal,
                                         sellmeier_e=crystal.sellmeier_o),
    "birefringent": birefringent_crystal,
}


# (leg, oracle mismatch, output frequency, output polarization, incoming
# and outgoing modes from (pump, input, output))
PROCESSES = {
    "down": (conjugate_leg, _delta_kz_down, lambda w: 1.0 - w, ORDINARY,
             lambda p, i, o: ([p], [i, o])),
    "up": (up_leg, _delta_kz_up, lambda w: 1.0 + w, EXTRAORDINARY,
           lambda p, i, o: ([p, i], [o])),
}


class TestGeometryProperties:
    """The band matcher against the scalar oracle, across crystal, cut
    angle, pump wavelength and frequency."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(material=st.sampled_from(sorted(MATERIALS)),
           cut_deg=st.floats(0.0, 30.0), pump_nm=st.floats(380.0, 420.0),
           omega=st.floats(0.40, 0.62), process=st.sampled_from(["down", "up"]))
    def test_roots_agree_with_scalar_oracle(self, crystal, material, cut_deg,
                                            pump_nm, omega, process):
        spec = replace(MATERIALS[material](crystal), cut_angle_deg=cut_deg,
                       pump_wavelength_nm=pump_nm)
        leg, oracle, omega_out, pol_out, sides = PROCESSES[process]
        found = Band([omega], spec).match(process)
        reason = found.reasons.get(0)
        if (material, process) == ("birefringent", "up"):
            # the oracle's fixed point stalls in this crystal (see
            # test_balance_where_fixed_point_stalls), so the scan runs on
            # up_leg's own mismatch
            def oracle(t, omega, spec):
                return up_leg(omega, t, spec)[1]
        try:
            theta_max = _max_input_angle(omega, spec)
            want = _scan_roots(lambda t: oracle(t, omega, spec), theta_max)
        except DomainError:
            assert isinstance(reason, DomainError)
            return
        if reason is not None:
            assert isinstance(reason, NoSolutionError)
            assert not want
            return
        theta_in = float(found.theta_internal[0, 0])
        if not want or theta_in < want[0] - 1e-11:
            # the closed form found a root that the scan missed: a
            # tangency, whose grid cell has no sign change to bracket
            theta = theta_in
            grid = np.linspace(0.0, theta_max, _SCAN_POINTS)
            i = max(1, int(np.searchsorted(grid, theta, side="right")))
            cell = [oracle(t, omega, spec) for t in grid[i - 1:i + 1]]
            assert (cell[0] < 0.0) == (cell[1] < 0.0), (
                f"a root at {theta} that the scan should have bracketed")
            event("the scan missed a root")
            want = [theta] + want
        assert abs(theta_in - want[0]) <= 1e-11
        assert abs((found.dk_down if process == "down"
                    else found.dk_up)[0]) < 1e-9
        for theta in [theta_in] + want:
            theta_out, dk = leg(omega, theta, spec)
            assert abs(dk) < 1e-9
            m_in = Mode(omega, 0.0, float(theta), ORDINARY)
            m_out = Mode(omega_out(omega), 0.0, float(theta_out), pol_out)
            dkt, dkz = mismatch(*sides(pump_mode(spec), m_in, m_out), spec)
            assert abs(dkt) < 1e-9
            assert abs(dkz) < 1e-9

    def test_band_is_one_frequency_at_a_time(self, crystal):
        # rows of one band pass do not depend on one another, so an error
        # or a triple stored at the wrong frequency shows; the narrow
        # window absorbs the w0 + w wave of the upper band and the
        # w0 - w wave of its top
        omegas = np.linspace(0.40, 0.62, 41)
        kinds = set()
        for window in (crystal.window_um, (0.27, 1.02)):
            spec = replace(crystal, window_um=window)
            for process in ("down", "up"):
                found = Band(omegas, spec).match(process)
                built = Band(omegas, spec).triples(process)
                for k, omega in enumerate(omegas):
                    one = Band([omega], spec)
                    for geometry, alone in ((found, one.match(process)),
                                            (built, one.triples(process))):
                        band, want = band_row(geometry, k), band_row(alone, 0)
                        kinds.add(type(band))
                        if isinstance(want, Exception):
                            assert type(band) is type(want)
                            assert str(band) == str(want)
                        else:
                            if geometry is found:
                                band, want = (filled(row, process)
                                              for row in (band, want))
                            assert band == want
                        assert geometry.present[k] == (k not in
                                                       geometry.reasons)
        assert {DomainError, NoSolutionError, tuple} <= kinds


def band_row(geometry, k):
    """Frequency k of a Geometry: why it is absent, or its row as floats;
    an absent row must be NaN."""
    row = (*geometry.theta_internal[k].tolist(),
           *geometry.theta_external[k].tolist(),
           float(geometry.dk_down[k]), float(geometry.dk_up[k]))
    if k in geometry.reasons:
        assert all(math.isnan(x) for x in row)
        return geometry.reasons[k]
    return row


def filled(row, process):
    """The columns of a present band_row of match(process) that it fills:
    the input and the process's own output.  The other output's angles and
    mismatch must be NaN, and only those."""
    unfilled = (2, 5, 7) if process == "down" else (1, 4, 6)
    assert [j for j, x in enumerate(row) if math.isnan(x)] == list(unfilled)
    return tuple(x for j, x in enumerate(row) if j not in unfilled)


def assert_up_angles_match_fixed_point(omega, theta, spec):
    """up_leg's closed-form angles equal the fixed point's: the same NaN
    mask (a wavelength outside the window makes the whole row NaN) and
    angles within 1e-14 rad."""
    got = up_leg(omega, theta, spec)[0]
    try:
        want = _up_output_angle(1.0 + omega,
                                _k_ordinary(omega, spec) * np.sin(theta), spec)
    except DomainError:
        assert np.all(np.isnan(got))
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want), initial=0.0) <= 1e-14


class TestClosedFormUpAngle:
    """The closed-form up angle against the fixed point it replaced."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(material=st.sampled_from(["shipped", "isotropic"]),
           cut_deg=st.floats(0.0, 30.0), omega=st.floats(0.35, 0.62),
           theta=st.floats(-1.2, 1.2))
    @example(material="shipped", cut_deg=10.166, omega=0.54, theta=0.0)
    @example(material="isotropic", cut_deg=10.166, omega=0.54, theta=0.3)
    @example(material="isotropic", cut_deg=10.166, omega=0.54, theta=-0.3)
    @example(material="birefringent", cut_deg=10.0, omega=0.6, theta=0.3)
    @example(material="birefringent", cut_deg=10.0, omega=0.6, theta=1.4)
    @example(material="shipped", cut_deg=10.166, omega=0.3, theta=0.2)
    def test_matches_fixed_point(self, crystal, material, cut_deg, omega,
                                 theta):
        spec = replace(MATERIALS[material](crystal), cut_angle_deg=cut_deg)
        assert_up_angles_match_fixed_point(omega, np.array([theta]), spec)

    def test_nan_examples_are_nan(self, crystal):
        # the NaN examples above: no transverse balance, and an input
        # wavelength (1.33 um) outside the window
        spec = replace(birefringent_crystal(crystal), cut_angle_deg=10.0)
        assert np.all(np.isnan(up_leg(0.6, 1.4, spec)))
        assert not np.any(np.isnan(up_leg(0.6, 0.3, spec)))
        assert np.all(np.isnan(up_leg(0.3, 0.2, crystal)))
        assert up_leg(0.54, 0.0, crystal)[0] == 0.0

    @pytest.mark.parametrize("material", ["shipped", "isotropic"])
    def test_dense_grid(self, crystal, material):
        spec = MATERIALS[material](crystal)
        theta = np.linspace(-1.5, 1.5, 601)
        for omega in np.linspace(0.34, 0.62, 57):
            assert_up_angles_match_fixed_point(float(omega), theta, spec)

    def test_balance_where_fixed_point_stalls(self, crystal):
        # in the birefringent crystal the fixed point stalls near grazing
        # and cycles where there is no root, so check the closed form
        # directly: exact balance where it returns an angle, and NaN only
        # where the input's transverse momentum exceeds every up wave's
        spec = birefringent_crystal(crystal)
        theta = np.linspace(-1.5, 1.5, 601)
        t_up = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 20001)
        absent = 0
        for omega in np.linspace(0.40, 0.62, 23):
            got = up_leg(omega, theta, spec)[0]
            kt = _k_ordinary(omega, spec) * np.sin(theta)
            balance = (np.sin(got) * _k_up(1.0 + omega, got, spec) - kt)
            assert np.nanmax(np.abs(balance)) <= 1e-12 * np.max(np.abs(kt))
            reach = np.sin(t_up) * _k_up(1.0 + omega, t_up, spec)
            side_max = np.where(kt >= 0.0, reach.max(), -reach.min())
            assert np.all(np.abs(kt[np.isnan(got)]) > side_max[np.isnan(got)])
            assert np.all(np.abs(kt[~np.isnan(got)])
                          <= side_max[~np.isnan(got)] * (1.0 + 1e-9))
            absent += np.isnan(got).sum()
        assert 0 < absent < 23 * len(theta)


class TestBandTerms:
    """A Band builds each leg's theta-free terms once per band and
    indexes them; the legs must not tell that from the one-call form."""

    LEGS = {"down": (conjugate_leg, _conjugate, "down_terms"),
            "up": (up_leg, _up, "up_terms")}

    @pytest.mark.parametrize("process", ["down", "up"])
    @pytest.mark.parametrize("material", sorted(MATERIALS))
    def test_indexed_terms_equal_one_call_form(self, crystal, material,
                                               process):
        # the band reaches past both ends of the window; rows are indexed
        # as Band.match indexes them, a span of rows against a row of
        # angles ([span, None]) and an index array with one angle per row,
        # and must equal the one-call form on the same arrays bit for bit,
        # NaN positions included
        spec = MATERIALS[material](crystal)
        public, leg, terms_of = self.LEGS[process]
        omega = np.linspace(0.18, 0.82, 23)
        terms = getattr(Band(omega, spec), terms_of)
        theta = np.linspace(-1.5, 1.5, 301)
        nan_seen = 0
        for start in range(0, len(omega), 8):
            span = slice(start, start + 8)
            got = leg(_rows(terms, (span, None)), theta, spec)
            want = public(omega[span, None], theta, spec)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w, equal_nan=True)
            nan_seen += np.isnan(got[1]).sum()
        rows = np.array([22, 3, 3, 0, 17, 9])
        x = np.linspace(-1.2, 1.2, len(rows))
        for g, w in zip(leg(_rows(terms, rows), x, spec),
                        public(omega[rows], x, spec)):
            assert np.array_equal(g, w, equal_nan=True)
        assert 0 < nan_seen < len(omega) * len(theta)

    def test_isotropic_up_terms_have_no_linear_coefficient(self, crystal):
        # n_o == n_e, so the isotropic crystal above takes the up
        # quadratic's case with no tan-linear term (1/n_o^2 - 1/n_e^2 = 0)
        terms = Band(np.linspace(0.40, 0.62, 12),
                     MATERIALS["isotropic"](crystal)).up_terms
        assert np.array_equal(terms.no2, terms.ne2)

    def test_birefringent_up_nan_inside_window(self, crystal):
        # every wavelength is inside the window, so the terms are finite,
        # yet no up wave carries the transverse momentum of a steep input
        spec = MATERIALS["birefringent"](crystal)
        terms = Band(np.linspace(0.60, 0.82, 12), spec).up_terms
        assert all(np.all(np.isfinite(a)) for a in terms)
        theta_up = _up(_rows(terms, (slice(None), None)),
                       np.linspace(0.0, 1.5, 301), spec)[0]
        assert 0.0 < np.isnan(theta_up).mean() < 1.0

    @pytest.mark.parametrize("process", ["down", "up"])
    def test_sellmeier_sums_per_band_not_per_step(self, crystal, couplings,
                                                  process, monkeypatch):
        # one Band.triples call takes the same number of Sellmeier sums on a
        # 30-step as on a 1000-step band: none per frequency or per
        # candidate angle.  A whole covariance sweep, both processes on
        # one Band, takes one sum per polarisation and one wavelength_um
        # call, on the stacked frequencies
        calls = []
        n_squared = SellmeierCoefficients.n_squared
        wavelengths = []

        def counted(self, wavelength_um):
            calls.append(1)
            return n_squared(self, wavelength_um)

        def counted_wavelength(omega, spec):
            wavelengths.append(1)
            return wavelength_um(omega, spec)

        monkeypatch.setattr(SellmeierCoefficients, "n_squared", counted)
        monkeypatch.setattr(dispersion, "wavelength_um", counted_wavelength)
        counts = []
        for steps in (30, 1000):
            calls.clear()
            Band(np.linspace(0.44, 0.58, steps), crystal).triples(process)
            counts.append(len(calls))
            calls.clear()
            wavelengths.clear()
            sweep(0.44, 0.58, steps, crystal, engine="covariance",
                  couplings=couplings)
            assert (len(calls), len(wavelengths)) == (2, 1)
        assert counts[0] == counts[1]

    def test_each_leg_raises_only_when_used(self, crystal):
        # a Band sums the stacked frequencies at once, yet each leg keeps
        # its own errors: the conjugate of omega >= 1 has no wavelength,
        # so the down leg raises, while the up leg is defined there (NaN
        # outside the window); omega = 1 makes 1 - omega = 0 with no
        # RuntimeWarning, which the suite turns into an error
        for omega in (1.2, 1.0):
            assert np.all(np.isnan(up_leg(omega, 0.1, crystal)))
            with pytest.raises(InvalidArgumentError):
                conjugate_leg(omega, 0.1, crystal)
        with pytest.raises(InvalidArgumentError):
            Band([0.5, 1.2], crystal).triples("up")
        found = Band([0.5, 1.2], crystal).match("up")
        assert {k: type(err) for k, err in found.reasons.items()} == {
            1: DomainError, 0: NoSolutionError}
        assert "0.18182 um outside window" in str(found.reasons[1])
        for omega in (0.0, -0.3):
            for call in (lambda: up_leg(omega, 0.1, crystal),
                         lambda: conjugate_leg(omega, 0.1, crystal),
                         lambda: Band([0.5, omega], crystal).match("up"),
                         lambda: Band([omega], crystal).triples("down")):
                with pytest.raises(InvalidArgumentError):
                    call()
