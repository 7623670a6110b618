import math

import numpy as np
import pytest
from scipy.special import gammaincc

from zprainbow.coupling import propagate_covariance, squeeze_pair
from zprainbow.detection import (DetectorSpec, Rates, dark_rate_curve,
                                 down_ratios, rates, threshold_counts,
                                 up_ratios)
from zprainbow.errors import ConfigError, InvalidArgumentError
from zprainbow.zpf import Mode, sample_vacuum, vacuum_state

PROBE = Mode(0.5, 0.0, 0.0, "ordinary")


def intensities(amplitudes):
    """Per-trial |alpha|^2 of an amplitude column."""
    return amplitudes.real ** 2 + amplitudes.imag ** 2


def vacuum_intensities(trials, seed):
    """Per-trial |alpha|^2 of one sampled vacuum mode."""
    return intensities(sample_vacuum(1, trials, seed)[:, 0])


def mode_at(theta_ext_deg, omega=0.5):
    th = math.radians(theta_ext_deg)
    return Mode(omega, th, th, "ordinary")


def fixed_rate(theta_ext_deg, mean):
    cos = math.cos(mode_at(theta_ext_deg).theta_external)
    above = mean - 0.5
    return Rates(above_zeropoint=above, photon_rate=max(above, 0.0) / cos,
                 signed_rate=above / cos)


def gamma_tail(m, threshold):
    """P(mean of m Exp(mean 1/2) > threshold), the dark-click oracle."""
    return float(gammaincc(m, 2.0 * threshold * m))


class TestChannelRate:
    """detection.rates at one channel."""

    def test_vacuum_state_is_dark(self):
        rate = rates(vacuum_state(1).mode_intensity(0), PROBE.theta_external)
        assert rate.photon_rate == 0.0
        assert not rate.above_zeropoint > 0
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
        assert not rate.above_zeropoint > 0
        assert rate.above_zeropoint == pytest.approx(-0.01, abs=1e-15)
        assert rate.signed_rate < 0.0

    def test_monte_carlo_and_state_agree(self):
        t = squeeze_pair(0.2, 0.5)
        state = propagate_covariance(t, vacuum_state(2))
        from zprainbow.coupling import apply
        modes = (mode_at(4.0), mode_at(-6.0))
        amp = apply(t, sample_vacuum(2, 10 ** 6, seed=5))
        exact_mean = state.mode_intensity(0)
        exact = rates(exact_mean, modes[0].theta_external)
        sampled = rates(np.mean(intensities(amp[:, 0])),
                        modes[0].theta_external)
        sigma = exact_mean / 1000.0
        assert abs(sampled.above_zeropoint - exact.above_zeropoint) < 5 * sigma


def channel_rate_from_mean(mean, theta_deg):
    return rates(mean, mode_at(theta_deg).theta_external)


class TestRatioDown:
    def test_symmetric_degenerate(self):
        a = fixed_rate(10.0, 0.51)
        b = fixed_rate(-10.0, 0.51)
        assert float(down_ratios(a, b)) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_asymmetry(self):
        # equal excess at 10 and 12 degrees: cos(12) / cos(10)
        a = fixed_rate(10.0, 0.51)
        b = fixed_rate(12.0, 0.51)
        expect = math.cos(math.radians(12)) / math.cos(math.radians(10))
        assert float(down_ratios(a, b)) == pytest.approx(expect, abs=1e-15)
        assert float(down_ratios(a, b)) == pytest.approx(0.9932371, abs=1e-7)

    def test_undetected_channel_is_nan(self):
        assert math.isnan(float(
            down_ratios(fixed_rate(10.0, 0.51), fixed_rate(12.0, 0.499))))


class TestRatioUp:
    def test_negative_when_upper_below_zeropoint(self):
        low = fixed_rate(10.0, 0.51)
        assert float(up_ratios(low, fixed_rate(25.0, 0.495))) < 0.0

    def test_sign_bookkeeping(self):
        low = fixed_rate(10.0, 0.51)
        assert float(up_ratios(low, fixed_rate(25.0, 0.505))) > 0.0

    def test_zeropoint_denominator_is_nan(self):
        assert math.isnan(float(up_ratios(fixed_rate(10.0, 0.5),
                                          fixed_rate(math.degrees(0.3),
                                                     0.5))))

    def test_value(self):
        low = fixed_rate(0.0, 0.51)
        got = float(up_ratios(low, fixed_rate(0.0, 0.49)))
        assert got == pytest.approx(-1.0, abs=1e-12)


class TestThresholdCounts:
    def test_single_sample_exponential_tail(self):
        # P(|alpha|^2 > 0.6) for exponential intensity of mean 1/2
        clicks, windows = threshold_counts(
            vacuum_intensities(400_000, seed=9), DetectorSpec(threshold=0.6),
            1, rng_seed=1)
        p_hat = clicks / windows
        expect = math.exp(-1.2)
        sigma = math.sqrt(expect * (1 - expect) / windows)
        assert windows == 400_000
        assert abs(p_hat - expect) < 5 * sigma

    def test_brute_force_cross_check(self):
        a = sample_vacuum(1, 50_000, seed=10)[:, 0]
        clicks, windows = threshold_counts(
            intensities(a), DetectorSpec(threshold=0.6), 1, rng_seed=1)
        brute = int(np.sum(np.abs(a) ** 2 > 0.6))
        assert clicks == brute

    def test_window_averaging_suppresses(self):
        spec = DetectorSpec(threshold=0.6)
        clicks, windows = threshold_counts(
            vacuum_intensities(400_000, seed=12), spec, 100, rng_seed=1)
        p_hat = clicks / windows
        expect = gamma_tail(100, 0.6)
        sigma = math.sqrt(expect * (1 - expect) / windows)
        assert windows == 4000
        assert abs(p_hat - expect) < 5 * sigma

    def test_zero_efficiency_never_clicks(self):
        i = vacuum_intensities(10_000, seed=13)
        spec = DetectorSpec(threshold=0.6, efficiency=0.0)
        assert threshold_counts(i, spec, 1, rng_seed=1)[0] == 0

    def test_thinning_scales_clicks(self):
        i = vacuum_intensities(400_000, seed=14)
        full, _ = threshold_counts(i, DetectorSpec(threshold=0.6), 1,
                                   rng_seed=2)
        half, _ = threshold_counts(
            i, DetectorSpec(threshold=0.6, efficiency=0.5), 1, rng_seed=2)
        sigma = math.sqrt(full * 0.25)
        assert abs(half - 0.5 * full) < 5 * sigma

    def test_too_few_trials_rejected(self):
        with pytest.raises(InvalidArgumentError):
            threshold_counts(vacuum_intensities(5, seed=0), DetectorSpec(),
                             10, rng_seed=0)


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
        clicks, windows = threshold_counts(
            vacuum_intensities(trials, seed), DetectorSpec(threshold=0.6),
            1, rng_seed=seed)
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

    def test_window_below_one_rejected(self):
        with pytest.raises(InvalidArgumentError, match="window must be >= 1"):
            dark_rate_curve(DetectorSpec(threshold=0.6), [0, 10], 1000, 0)


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
