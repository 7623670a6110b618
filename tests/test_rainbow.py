import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geometry_oracle import make_mode, mismatch, pump_mode
from rate_oracle import channel_rates, system_matrices
from zprainbow.cli import forced_angle_report, physical_ratio_report
from zprainbow.detection import down_ratios, up_ratios
from zprainbow.dispersion import Band
from zprainbow.errors import (BandError, DomainError, InvalidArgumentError,
                              NoSolutionError)
from zprainbow.rainbow import (Couplings, RainbowPoint, RainbowTable,
                               _point_seed, columns, mean_intensities,
                               pdc_system, puc_system, satellite_summary,
                               sweep)
from zprainbow import coupling as cp, rainbow, zpf
from zprainbow.zpf import Mode, sample_vacuum

PAIR_ONLY = Couplings(g_up=0.0)


def points_equal(a, b):
    """Field-wise point comparison treating NaN (absent) as equal to NaN."""
    from zprainbow.rainbow import POINT_FIELDS
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        for name in POINT_FIELDS:
            va, vb = getattr(pa, name), getattr(pb, name)
            if va != vb and not (math.isnan(va) and math.isnan(vb)):
                return False
    return True


@pytest.fixture(scope="module")
def default_table(crystal, couplings):
    return sweep(0.44, 0.58, 15, crystal, engine="covariance",
                 couplings=couplings)


class TestSweepStructure:
    def test_points_ordered_and_counted(self, default_table):
        omegas = [p.omega for p in default_table.points]
        assert len(omegas) == 15
        assert all(b > a for a, b in zip(omegas, omegas[1:]))

    def test_degenerate_angle_in_paper_band(self, default_table):
        mid = min(default_table.points, key=lambda p: abs(p.omega - 0.5))
        assert math.radians(5.0) < mid.theta_d_ext < math.radians(15.0)

    def test_absent_points_are_nan_not_extrapolated(self, crystal):
        table = sweep(0.42, 0.62, 21, crystal, engine="covariance")
        edge = [p for p in table.points if p.omega > 0.6]
        assert edge and all(not p.has_main for p in edge)
        assert all(math.isnan(p.main_rate) for p in edge)

    def test_satellite_subset_of_main(self, default_table):
        for p in default_table.points:
            if p.has_satellite:
                assert p.has_main
                assert p.satellite_rate >= 0.0
                assert p.main_rate >= 0.0

    def test_band_error_when_nothing_matches(self, crystal):
        with pytest.raises(BandError):
            sweep(0.601, 0.607, 3, crystal, engine="covariance")

    def test_argument_validation(self, crystal):
        with pytest.raises(InvalidArgumentError):
            sweep(0.6, 0.4, 5, crystal)
        with pytest.raises(InvalidArgumentError):
            sweep(0.4, 0.6, 1, crystal)
        with pytest.raises(InvalidArgumentError):
            sweep(0.4, 0.6, 5, crystal, engine="tarot")

    def test_repeating_grid_rejected_before_evaluation(self, crystal,
                                                       monkeypatch):
        # one ulp of band cannot hold three distinct frequencies
        calls = []
        monkeypatch.setattr(rainbow, "columns",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidArgumentError):
            sweep(0.5, 0.5000000000000001, 3, crystal, engine="covariance")
        assert calls == []


class TestEqOneColumn:
    def test_crosses_unity_at_degenerate(self, crystal):
        table = sweep(0.46, 0.54, 9, crystal, engine="covariance")
        mid = table.points[4]
        assert mid.omega == pytest.approx(0.5, abs=1e-12)
        assert mid.eq1_ratio == pytest.approx(1.0, abs=1e-9)
        below = [p.eq1_ratio for p in table.points if p.omega < 0.5]
        above = [p.eq1_ratio for p in table.points if p.omega > 0.5]
        assert all(r > 1.0 for r in below)
        assert all(r < 1.0 for r in above)

    def test_band_reciprocal_symmetry(self, crystal):
        # pure pair process: eq1(w) * eq1(1 - w) = 1 in covariance mode
        table = sweep(0.44, 0.56, 13, crystal, engine="covariance",
                      couplings=PAIR_ONLY)
        ratios = {round(p.omega, 6): p.eq1_ratio for p in table.points}
        for omega, r in ratios.items():
            mirror = ratios.get(round(1.0 - omega, 6))
            if mirror is not None and not (math.isnan(r) or math.isnan(mirror)):
                assert r * mirror == pytest.approx(1.0, abs=1e-9)

class TestCrossEngine:
    def test_rates_agree_within_noise(self, crystal, couplings):
        exact = sweep(0.50, 0.58, 5, crystal, engine="covariance",
                      couplings=couplings)
        sampled = sweep(0.50, 0.58, 5, crystal, engine="montecarlo",
                        trials=10 ** 6, seed=31, couplings=couplings)
        bound = 5 * 0.52 / 1000.0  # intensity spread over sqrt(1e6)
        for pe, pm in zip(exact.points, sampled.points):
            assert pm.has_main == pe.has_main
            if pe.has_main:
                assert abs(pm.main_rate - pe.main_rate) < bound
                assert abs(pm.conjugate_rate - pe.conjugate_rate) < bound
            if pe.has_satellite:
                assert abs(pm.upper_above_zeropoint
                           - pe.upper_above_zeropoint) < bound

    def test_unknown_engine_rejected(self, crystal, couplings):
        # a misspelt engine must not fall through to Monte Carlo
        systems = [pdc_system(crystal, 0.5, couplings)]
        with pytest.raises(InvalidArgumentError, match="covarience"):
            channel_rates(systems, "covarience", 1000, 0)


class TestDeterminism:
    def test_covariance_reruns_identical(self, crystal, couplings):
        a = sweep(0.46, 0.54, 5, crystal, engine="covariance",
                  couplings=couplings)
        b = sweep(0.46, 0.54, 5, crystal, engine="covariance",
                  couplings=couplings)
        assert a.config_fingerprint == b.config_fingerprint
        assert points_equal(a.points, b.points)

    def test_montecarlo_reruns_identical(self, crystal, couplings):
        kw = dict(engine="montecarlo", trials=50_000, seed=8,
                  couplings=couplings)
        a = sweep(0.50, 0.56, 4, crystal, **kw)
        b = sweep(0.50, 0.56, 4, crystal, **kw)
        assert points_equal(a.points, b.points)

    def test_fingerprint_hashes_trials_and_seed_on_montecarlo_only(
            self, crystal, couplings):
        # the covariance engine reads neither trials nor seed; the Monte
        # Carlo payload keeps both
        band = dict(omega_min=0.50, omega_max=0.56, steps=4,
                    crystal=crystal, couplings=couplings)
        for engine, sampled in (("covariance", {}),
                                ("montecarlo", dict(trials=2000, seed=8))):
            table = sweep(**band, engine=engine, trials=2000, seed=8)
            assert table.config_fingerprint == rainbow.config_fingerprint(
                dict(band, engine=engine, **sampled))

    def test_seed_matters(self, crystal, couplings):
        a = sweep(0.50, 0.56, 4, crystal, engine="montecarlo",
                  trials=50_000, seed=8, couplings=couplings)
        b = sweep(0.50, 0.56, 4, crystal, engine="montecarlo",
                  trials=50_000, seed=9, couplings=couplings)
        assert not points_equal(a.points, b.points)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_worker_invariance(self, crystal, couplings, workers):
        t = cp.integrate_three_wave(pdc_system(crystal, 0.52, couplings))
        matrices = np.array([t.matrix])
        base = mean_intensities(matrices, "montecarlo", 150_000, 5, 1)
        par = mean_intensities(matrices, "montecarlo", 150_000, 5, workers)
        assert np.array_equal(base[0], par[0])

    @pytest.mark.parametrize("trials", [1, 4095, 4097, 65536, 65537])
    def test_worker_invariance_at_block_edges(self, crystal, couplings,
                                              trials):
        t = cp.integrate_three_wave(puc_system(crystal, 0.54, couplings))
        matrices = np.array([t.matrix])
        base = mean_intensities(matrices, "montecarlo", trials, 5, 1)
        for workers in (2, 4):
            par = mean_intensities(matrices, "montecarlo", trials, 5, workers)
            assert np.array_equal(base[0], par[0])


class TestMonteCarloReducer:
    def test_one_pool_samples_every_vacuum(self, monkeypatch, crystal,
                                           couplings):
        # three vacuum keys of two blocks each on two workers: one pool
        pools = []

        class CountingPool(zpf.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(zpf, "ThreadPoolExecutor", CountingPool)
        a = pdc_system(crystal, 0.52, couplings)
        matrices = system_matrices(
            [a, dataclasses.replace(a, g_up=0.0, phi_up=0.0, dk_up=0.0),
             puc_system(crystal, 0.52, couplings),
             pdc_system(crystal, 0.54, couplings)])
        means = mean_intensities(matrices, "montecarlo", 70_000, seed=5,
                                 workers=2,
                                 vacua=[(0, 0), (0, 0), (0, 1), (1, 0)])
        assert means.shape == (4, 3)
        assert len(pools) == 1

    @pytest.mark.parametrize("geometry", [pdc_system, puc_system])
    def test_matches_per_trial_reference(self, crystal, couplings, geometry):
        # the full three-wave map mixes a and a*, so a conjugated anomalous
        # term would show here even where the pair-only map hides it;
        # 150_001 trials end in a short final block
        system = geometry(crystal, 0.54, couplings)
        transforms = [cp.integrate_three_wave(system),
                      cp.integrate_three_wave(dataclasses.replace(
                          system, g_up=0.0, phi_up=0.0, dk_up=0.0))]
        means = mean_intensities(np.array([t.matrix for t in transforms]),
                                 "montecarlo", 150_001, seed=13)
        vacuum = sample_vacuum(len(system.modes), 150_001, seed=13)
        for t, m in zip(transforms, means):
            amp = cp.apply(t, vacuum)
            ref = np.mean(amp.real ** 2 + amp.imag ** 2, axis=0)
            assert np.max(np.abs(m - ref)) <= 1e-12


def four_transforms(crystal, couplings):
    """A main system, its pair-only twin, a satellite and a second main."""
    a = pdc_system(crystal, 0.52, couplings)
    return system_matrices(
        [a, dataclasses.replace(a, g_up=0.0, phi_up=0.0, dk_up=0.0),
         puc_system(crystal, 0.52, couplings),
         pdc_system(crystal, 0.54, couplings)])


def bits(means):
    return np.asarray(means).view(np.uint64)


class TestOneCovariancePass:
    # bit for bit: both engines' one stacked propagation equals each
    # transform propagated alone from its own input state

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("vacua", [
        [(0, 0), (0, 0), (0, 1), (1, 0)], None], ids=["keys", "shared"])
    def test_montecarlo_rows_are_each_vacuum_alone(self, crystal, couplings,
                                                   vacua, workers):
        matrices = four_transforms(crystal, couplings)
        means = mean_intensities(matrices, "montecarlo", 70_001, seed=5,
                                 workers=workers, vacua=vacua)
        for i, matrix in enumerate(matrices):
            key = None if vacua is None else vacua[i]
            state = zpf.sampled_state(
                3, 70_001, 5 if key is None else _point_seed(5, *key))
            alone = cp.propagate_covariance(cp.BogoliubovTransform(matrix),
                                            state)
            assert np.array_equal(
                bits(means[i]), bits(zpf.mode_intensities(alone.covariance)))

    def test_covariance_rows_are_each_transform_alone(self, crystal,
                                                      couplings):
        matrices = four_transforms(crystal, couplings)
        means = mean_intensities(matrices, "covariance", 1, 0)
        for matrix, mean in zip(matrices, means):
            alone = cp.propagate_covariance(cp.BogoliubovTransform(matrix),
                                            zpf.vacuum_state(3))
            assert np.array_equal(
                bits(mean), bits(zpf.mode_intensities(alone.covariance)))

    @pytest.mark.parametrize("engine", ["covariance", "montecarlo"])
    def test_empty_stack(self, engine):
        means = mean_intensities(np.zeros((0, 6, 6), dtype=complex), engine,
                                 100, 0)
        assert means.shape == (0, 3)


class TestEvaluate:
    """How the column pass evaluates each system: its triple, or why the
    system is absent."""

    @staticmethod
    def reason(geometry, spec, omega, couplings):
        try:
            geometry(spec, omega, couplings)
        except (NoSolutionError, DomainError) as err:
            return err
        return None

    @pytest.mark.parametrize("g_up", [None, 0.0], ids=["shipped", "g_up-0"])
    def test_absence_reasons_are_the_systems(self, crystal, couplings, g_up):
        # with the window edge at 0.27 um the w0 + w wave of the upper band
        # is absorbed, so the band holds present and absent points alike
        spec = dataclasses.replace(crystal, window_um=(0.27, 1.02))
        couplings = dataclasses.replace(couplings, g_up=g_up)
        omegas = np.linspace(0.44, 0.58, 15).tolist()
        found = columns(omegas, spec, couplings, "covariance", 1, 0, 1,
                        per_point=True)
        assert set(found.main.present.tolist()) == {True, False}
        for k, omega in enumerate(omegas):
            point = RainbowPoint(*found.table[k].tolist())
            for geometry, triples in ((pdc_system, found.main),
                                      (puc_system, found.satellite)):
                want = self.reason(geometry, spec, omega, couplings)
                entry = triples.reasons.get(k)
                if want is None:
                    assert entry is None and triples.present[k]
                    assert list(triples.modes(k)) == list(
                        geometry(spec, omega, couplings).modes)
                else:
                    assert type(entry) is type(want)
                    assert str(entry) == str(want)
            assert point.has_main == (k not in found.main.reasons)
            assert point.has_satellite == (
                point.has_main and k not in found.satellite.reasons)
            if g_up == 0.0:
                sat = found.satellite.reasons[k]
                assert type(sat) is NoSolutionError
                assert str(sat) == "no up-conversion: its coupling g_up is 0"

    def test_satellite_without_main_takes_its_reason(self, config, crystal,
                                                     couplings):
        # at 0.6 only up conversion matches: the satellite needs the main
        # rainbow, so it is absent, and the ratios report raises the
        # main's reason
        puc_system(crystal, 0.6, couplings)
        found = columns([0.6], crystal, couplings, "covariance", 1, 0, 1,
                        per_point=False)
        main = found.main.reasons[0]
        assert isinstance(main, NoSolutionError)
        assert found.satellite.present[0]
        assert not RainbowPoint(*found.table[0].tolist()).has_satellite
        with pytest.raises(NoSolutionError) as raised:
            physical_ratio_report(
                dataclasses.replace(config, engine="covariance"), 0.6)
        assert type(raised.value) is type(main)
        assert str(raised.value) == str(main)


class TestSatelliteSummary:
    def test_band_values(self, default_table):
        mean_ratio, angle_ratio = satellite_summary(default_table)
        assert 0.01 <= mean_ratio <= 0.10
        assert 2.0 <= angle_ratio <= 3.0

    def test_collinear_main_rainbow_has_no_angle_ratio(self):
        # theta_d = 0 leaves theta_u/theta_d undefined at that point; with
        # no other point the band mean is NaN, not a ZeroDivisionError
        point = dict(omega=0.5, theta_d_ext=0.0, theta_u_ext=0.0,
                     main_rate=2.0, conjugate_rate=2.0, satellite_rate=0.1,
                     upper_above_zeropoint=0.0, eq1_ratio=1.0, eq2_ratio=1.0)
        table = RainbowTable((RainbowPoint(**point),), "")
        mean_ratio, angle_ratio = satellite_summary(table)
        assert mean_ratio == 0.05
        assert math.isnan(angle_ratio)
        tilted = RainbowPoint(**dict(point, omega=0.6, theta_d_ext=0.1,
                                     theta_u_ext=0.25))
        table = RainbowTable((RainbowPoint(**point), tilted), "")
        assert satellite_summary(table) == (0.05, 2.5)

    def test_absent_without_up_coupling(self, crystal):
        table = sweep(0.50, 0.58, 5, crystal, engine="covariance",
                      couplings=PAIR_ONLY)
        with pytest.raises(BandError):
            satellite_summary(table)

    def test_suppression_vanishes_without_mismatch(self, crystal, couplings):
        # zero the competing pair mismatch at the up-matched geometry: the
        # satellite channel must recover the full pair gain
        from zprainbow.zpf import vacuum_state
        natural = puc_system(crystal, 0.54, couplings)
        forced = dataclasses.replace(natural, dk_down=0.0)
        sat_nat = cp.propagate_covariance(
            cp.integrate_three_wave(natural),
            vacuum_state(3)).mode_intensity(0) - 0.5
        sat_forced = cp.propagate_covariance(
            cp.integrate_three_wave(forced),
            vacuum_state(3)).mode_intensity(0) - 0.5
        main = math.sinh(crystal.gain_per_mm * crystal.length_mm) ** 2
        assert sat_nat / main < 0.10
        assert sat_forced / main > 0.5


class TestRainbowTable:
    def test_disordered_points_rejected(self):
        nan = float("nan")
        p = RainbowPoint(0.5, nan, nan, nan, nan, nan, nan, nan, nan)
        q = RainbowPoint(0.4, nan, nan, nan, nan, nan, nan, nan, nan)
        with pytest.raises(InvalidArgumentError):
            RainbowTable(points=(p, q), config_fingerprint="x")


class TestThreeWaveGeometry:
    def test_matched_mismatch_pattern(self, crystal, couplings):
        a = pdc_system(crystal, 0.5, couplings)
        assert abs(a.dk_down) < 1e-9
        assert abs(a.dk_up) > 1e-2
        b = puc_system(crystal, 0.54, couplings)
        assert abs(b.dk_up) < 1e-9
        assert abs(b.dk_down) > 1e-2

    @pytest.mark.parametrize("geometry", [pdc_system, puc_system])
    def test_legs_match_per_mode_mismatch(self, crystal, couplings, geometry):
        # the legs' mismatches against the wavevector sums of the system's
        # own modes, at every matched point of the shipped band
        pump = pump_mode(crystal)
        built = 0
        for omega in np.linspace(0.44, 0.58, 15):
            try:
                system = geometry(crystal, float(omega), couplings)
            except (NoSolutionError, DomainError):
                continue
            m_in, m_conj, m_up = system.modes
            # and the refraction against the one-mode reference
            assert system.modes == tuple(
                make_mode(crystal, m.omega, m.theta_internal,
                          m.polarization) for m in system.modes)
            dkt, dkz = mismatch([pump], [m_in, m_conj], crystal)
            assert abs(dkt) < 1e-12
            assert abs(system.dk_down - dkz) <= 1e-12
            dkt, dkz = mismatch([pump, m_in], [m_up], crystal)
            assert abs(dkt) < 1e-12
            assert abs(system.dk_up - dkz) <= 1e-12
            built += 1
        assert built >= 4

    def test_sweep_angles_match_solver(self, crystal, default_table):
        mid = min(default_table.points, key=lambda p: abs(p.omega - 0.5))
        found = Band([mid.omega], crystal).match("down")
        assert mid.theta_d_ext == found.theta_external[0, 0]


class TestBandMatchesOnePoint:
    """sweep's one band pass per process, and its one stack of transforms,
    against one frequency at a time."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(cut_deg=st.floats(8.0, 12.0), pump_nm=st.floats(390.0, 410.0),
           window_lo=st.floats(0.2, 0.3), window_hi=st.floats(0.9, 1.2),
           omega_min=st.floats(0.30, 0.50), omega_max=st.floats(0.52, 0.70),
           steps=st.integers(2, 9),
           engine=st.sampled_from(["covariance", "montecarlo"]),
           g_up=st.one_of(st.floats(0.1, 5.0), st.sampled_from([None, 0.0])))
    @example(cut_deg=10.166, pump_nm=400.0, window_lo=0.27, window_hi=1.02,
             omega_min=0.44, omega_max=0.58, steps=15, engine="covariance",
             g_up=None)
    @example(cut_deg=10.166, pump_nm=400.0, window_lo=0.215, window_hi=1.02,
             omega_min=0.38, omega_max=0.64, steps=9, engine="covariance",
             g_up=None)
    # every point present with a satellite: the per-point vacua are grouped
    @example(cut_deg=10.166, pump_nm=400.0, window_lo=0.215, window_hi=1.02,
             omega_min=0.52, omega_max=0.56, steps=3, engine="montecarlo",
             g_up=None)
    def test_sweep_equals_per_point_systems(self, crystal, cut_deg, pump_nm,
                                            window_lo, window_hi, omega_min,
                                            omega_max, steps, engine, g_up):
        # the sweep's columns (pair-only and zero up coupling included)
        # against per-system rates, bit for bit
        spec = dataclasses.replace(crystal, cut_angle_deg=cut_deg,
                                   pump_wavelength_nm=pump_nm,
                                   window_um=(window_lo, window_hi))
        couplings = Couplings(g_up=g_up)
        trials, seed = 2000, 5
        omegas = np.linspace(omega_min, omega_max, steps).tolist()
        want = []
        for i, omega in enumerate(omegas):
            nan = float("nan")
            point = dict(theta_d_ext=nan, theta_u_ext=nan, main_rate=nan,
                         conjugate_rate=nan, satellite_rate=nan,
                         upper_above_zeropoint=nan, eq1_ratio=nan,
                         eq2_ratio=nan)
            want.append(point)
            try:
                a = pdc_system(spec, omega, couplings)
            except (NoSolutionError, DomainError):
                continue
            (r_w, r_s, _), (p_w, p_s, _) = channel_rates(
                [a, dataclasses.replace(a, g_up=0.0, phi_up=0.0, dk_up=0.0)],
                engine, trials, _point_seed(seed, i, 0))
            point.update(theta_d_ext=a.modes[0].theta_external,
                         main_rate=r_w.photon_rate,
                         conjugate_rate=r_s.photon_rate,
                         eq1_ratio=float(down_ratios(p_w, p_s)))
            try:
                b = puc_system(spec, omega, couplings)
            except (NoSolutionError, DomainError):
                continue
            [(q_w, _, q_u)] = channel_rates(
                [b], engine, trials, _point_seed(seed, i, 1))
            point.update(theta_u_ext=b.modes[0].theta_external,
                         satellite_rate=q_w.photon_rate,
                         upper_above_zeropoint=q_u.above_zeropoint,
                         eq2_ratio=float(up_ratios(q_w, q_u)))
        try:
            table = sweep(omega_min, omega_max, steps, spec, engine=engine,
                          trials=trials, seed=seed, couplings=couplings)
        except BandError:
            assert all(math.isnan(p["theta_d_ext"]) for p in want)
            return
        if (omega_min, omega_max) == (0.52, 0.56):
            assert all(p.has_satellite for p in table.points)
        for p, expected in zip(table.points, want):
            for name, value in expected.items():
                got = getattr(p, name)
                assert got == value or (math.isnan(got) and math.isnan(value))

    def test_sweep_builds_no_per_frequency_object(self, config, crystal,
                                                  couplings, monkeypatch):
        # the sweep works on columns: a 30-step band, with present and
        # absent points alike, builds none of the one-frequency objects,
        # nor do the ratios reports, which read the same columns
        built = []
        for cls in (Mode, cp.ThreeWaveSystem):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        table = sweep(0.44, 0.62, 30, crystal, engine="covariance",
                      couplings=couplings)
        assert {p.has_satellite for p in table.points} == {True, False}
        exact = dataclasses.replace(config, engine="covariance")
        for omega in (0.54, 0.5):
            physical_ratio_report(exact, omega)
        forced_angle_report(exact, 10.0, 12.0)
        assert built == []
        # the counters see the objects of a one-frequency caller
        pdc_system(crystal, 0.5, couplings)
        assert sorted(built) == ["Mode"] * 3 + ["ThreeWaveSystem"]


class TestCrossEngineEqOne:
    def test_eq1_column_within_noise(self, crystal, couplings):
        exact = sweep(0.48, 0.56, 5, crystal, engine="covariance",
                      couplings=couplings)
        sampled = sweep(0.48, 0.56, 5, crystal, engine="montecarlo",
                        trials=10 ** 6, seed=37, couplings=couplings)
        for pe, pm in zip(exact.points, sampled.points):
            if not pe.has_main:
                continue
            # conservative ratio spread: independent thermal channels
            above = pe.main_rate * math.cos(pe.theta_d_ext)
            rel = math.sqrt(2.0) * (0.5 + above) / math.sqrt(10 ** 6) / above
            assert abs(pm.eq1_ratio - pe.eq1_ratio) < 5 * rel
