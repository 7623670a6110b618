import math

import numpy as np
import pytest
from scipy.special import gammaincc

from zprainbow.coupling import propagate_covariance, squeeze_pair
from zprainbow.detection import (ChannelRate, DetectorSpec, dark_rate_curve,
                                 ratio_down, ratio_up, threshold_counts)
from zprainbow.errors import ConfigError, InvalidArgumentError, NotFoundError
from zprainbow.zpf import Mode, mean_intensity, sample_vacuum, vacuum_state

PROBE = Mode(0.5, 0.0, 0.0, "ordinary", "input")


def mode_at(theta_ext_deg, omega=0.5):
    th = math.radians(theta_ext_deg)
    return Mode(omega, th, th, "ordinary", "input")


def fixed_rate(theta_ext_deg, mean):
    mode = mode_at(theta_ext_deg)
    above = mean - 0.5
    return ChannelRate(mode=mode, mean_intensity=mean, above_zeropoint=above,
                       photon_rate=max(above, 0.0) / math.cos(mode.theta_external),
                       detected=above > 0.0)


def gamma_tail(m, threshold):
    """P(mean of m Exp(mean 1/2) > threshold), the dark-click oracle."""
    return float(gammaincc(m, 2.0 * threshold * m))


class TestChannelRate:
    def test_vacuum_state_is_dark(self):
        rate = ChannelRate.from_mean(PROBE, vacuum_state(1).mode_intensity(0))
        assert rate.photon_rate == 0.0
        assert not rate.detected
        assert rate.above_zeropoint == 0.0

    def test_cosine_flux_conversion(self):
        # spec example: intensity 0.510017 seen at ten degrees
        rate = channel_rate_from_mean(0.510017, 10.0)
        assert rate.photon_rate == pytest.approx(0.010017 / math.cos(math.radians(10.0)),
                                                 abs=1e-9)
        assert rate.photon_rate == pytest.approx(0.0101715, abs=1e-6)

    def test_below_zeropoint_clamps(self):
        rate = channel_rate_from_mean(0.49, 10.0)
        assert rate.photon_rate == 0.0
        assert not rate.detected
        assert rate.above_zeropoint == pytest.approx(-0.01, abs=1e-15)
        assert rate.signed_rate < 0.0

    def test_monte_carlo_and_state_agree(self):
        t = squeeze_pair(0.2, 0.5)
        state = propagate_covariance(t, vacuum_state(2))
        from zprainbow.coupling import apply
        modes = (mode_at(4.0), mode_at(-6.0))
        ens = apply(t, sample_vacuum(modes, 10 ** 6, seed=5))
        exact = ChannelRate.from_mean(modes[0], state.mode_intensity(0))
        sampled = ChannelRate.from_mean(modes[0], mean_intensity(ens, modes[0]))
        sigma = exact.mean_intensity / 1000.0
        assert abs(sampled.mean_intensity - exact.mean_intensity) < 5 * sigma

    def test_unknown_mode(self):
        ens = sample_vacuum((PROBE,), 10, seed=0)
        with pytest.raises(NotFoundError):
            mean_intensity(ens, mode_at(3.0))


def channel_rate_from_mean(mean, theta_deg):
    return fixed_rate(theta_deg, mean)


class TestRatioDown:
    def test_symmetric_degenerate(self):
        a = fixed_rate(10.0, 0.51)
        b = fixed_rate(-10.0, 0.51)
        assert ratio_down(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_asymmetry(self):
        # equal excess at 10 and 12 degrees: cos(12) / cos(10)
        a = fixed_rate(10.0, 0.51)
        b = fixed_rate(12.0, 0.51)
        expect = math.cos(math.radians(12)) / math.cos(math.radians(10))
        assert ratio_down(a, b) == pytest.approx(expect, abs=1e-15)
        assert ratio_down(a, b) == pytest.approx(0.9932371, abs=1e-7)

    def test_undetected_channel_is_nan(self):
        assert math.isnan(
            ratio_down(fixed_rate(10.0, 0.51), fixed_rate(12.0, 0.499)))


class TestRatioUp:
    def test_negative_when_upper_below_zeropoint(self):
        low = fixed_rate(10.0, 0.51)
        assert ratio_up(low, fixed_rate(25.0, 0.495)) < 0.0

    def test_sign_bookkeeping(self):
        low = fixed_rate(10.0, 0.51)
        assert ratio_up(low, fixed_rate(25.0, 0.505)) > 0.0

    def test_zeropoint_denominator_is_nan(self):
        assert math.isnan(ratio_up(fixed_rate(10.0, 0.5),
                                   fixed_rate(math.degrees(0.3), 0.5)))

    def test_value(self):
        low = fixed_rate(0.0, 0.51)
        got = ratio_up(low, fixed_rate(0.0, 0.49))
        assert got == pytest.approx(-1.0, abs=1e-12)


class TestThresholdCounts:
    def test_single_sample_exponential_tail(self):
        # P(|alpha|^2 > 0.6) for exponential intensity of mean 1/2
        ens = sample_vacuum((PROBE,), 400_000, seed=9)
        clicks, windows = threshold_counts(
            ens, PROBE, DetectorSpec(threshold=0.6), rng_seed=1)
        p_hat = clicks / windows
        expect = math.exp(-1.2)
        sigma = math.sqrt(expect * (1 - expect) / windows)
        assert windows == 400_000
        assert abs(p_hat - expect) < 5 * sigma

    def test_brute_force_cross_check(self):
        ens = sample_vacuum((PROBE,), 50_000, seed=10)
        clicks, windows = threshold_counts(
            ens, PROBE, DetectorSpec(threshold=0.6), rng_seed=1)
        brute = int(np.sum(np.abs(ens.amplitudes[:, 0]) ** 2 > 0.6))
        assert clicks == brute

    def test_window_averaging_suppresses(self):
        ens = sample_vacuum((PROBE,), 400_000, seed=12)
        spec = DetectorSpec(threshold=0.6, window_samples=100)
        clicks, windows = threshold_counts(ens, PROBE, spec, rng_seed=1)
        p_hat = clicks / windows
        expect = gamma_tail(100, 0.6)
        sigma = math.sqrt(expect * (1 - expect) / windows)
        assert windows == 4000
        assert abs(p_hat - expect) < 5 * sigma

    def test_zero_efficiency_never_clicks(self):
        ens = sample_vacuum((PROBE,), 10_000, seed=13)
        spec = DetectorSpec(threshold=0.6, efficiency=0.0)
        assert threshold_counts(ens, PROBE, spec, rng_seed=1)[0] == 0

    def test_thinning_scales_clicks(self):
        ens = sample_vacuum((PROBE,), 400_000, seed=14)
        full, _ = threshold_counts(ens, PROBE, DetectorSpec(threshold=0.6),
                                   rng_seed=2)
        half, _ = threshold_counts(
            ens, PROBE, DetectorSpec(threshold=0.6, efficiency=0.5),
            rng_seed=2)
        sigma = math.sqrt(full * 0.25)
        assert abs(half - 0.5 * full) < 5 * sigma

    def test_too_few_trials_rejected(self):
        ens = sample_vacuum((PROBE,), 5, seed=0)
        with pytest.raises(InvalidArgumentError):
            threshold_counts(ens, PROBE, DetectorSpec(window_samples=10),
                             rng_seed=0)


class TestDarkRateCurve:
    def test_matches_gamma_tail_oracle(self):
        rows = dark_rate_curve(DetectorSpec(threshold=0.6), [1, 10, 100],
                               trials=400_000, seed=20)
        for m, p_hat, stderr in rows:
            expect = gamma_tail(m, 0.6)
            windows = 400_000 // m
            sigma = math.sqrt(max(expect * (1 - expect), 1e-12) / windows)
            assert abs(p_hat - expect) < 5 * sigma

    def test_monotone_nonincreasing(self):
        rows = dark_rate_curve(DetectorSpec(threshold=0.6), [1, 10, 100],
                               trials=400_000, seed=21)
        probs = [p for _, p, _ in rows]
        assert probs[0] > probs[1] > probs[2]

    def test_first_row_equals_threshold_counts(self):
        trials, seed = 100_000, 22
        rows = dark_rate_curve(DetectorSpec(threshold=0.6), [1], trials, seed)
        ens = sample_vacuum((PROBE,), trials, seed)
        clicks, windows = threshold_counts(
            ens, PROBE, DetectorSpec(threshold=0.6), rng_seed=seed)
        assert rows[0][1] == clicks / windows

    def test_more_trials_shrink_stderr(self):
        small = dark_rate_curve(DetectorSpec(threshold=0.6), [1], 50_000, 23)
        large = dark_rate_curve(DetectorSpec(threshold=0.6), [1], 200_000, 23)
        assert large[0][2] == pytest.approx(small[0][2] / 2.0, rel=0.2)
        sigma = math.hypot(small[0][2], large[0][2])
        assert abs(large[0][1] - small[0][1]) < 5 * sigma

    def test_threshold_at_zeropoint_rejected(self):
        with pytest.raises(ConfigError):
            dark_rate_curve(DetectorSpec(threshold=0.5), [1, 10], 1000, 0)


class TestDetectorSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(threshold=-0.1), dict(window_samples=0), dict(efficiency=1.5),
        dict(efficiency=-0.2),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            DetectorSpec(**kwargs)


class TestStatisticalPreconditions:
    def test_curve_needs_enough_trials(self):
        from zprainbow.errors import StatisticalError
        with pytest.raises(StatisticalError):
            dark_rate_curve(DetectorSpec(threshold=0.6), [100], 50, 0)
