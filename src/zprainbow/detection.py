"""Zeropoint-threshold detection model.

A detector never sees the mean zeropoint background: its working quantity
is the intensity ABOVE the vacuum mean of 1/2.  Mean photon-equivalent
rates divide that excess by the cosine of the external propagation angle
(flux through the detector plane), and clamp at zero - a channel sitting
below the zeropoint is simply dark.

Click statistics model the finite detector time window by averaging the
intensity of `window_samples` independent trials before comparing against
the threshold; window averaging is what suppresses vacuum dark counts.
(The averaged-intensity window is a concrete stand-in for the detector's
long integration time, many light oscillations per decision.)  Mean-rate
quantities use expectation values directly and never threshold.

The `darkrate` command takes its window sizes from `darkrate.windows` (or
`--windows`), one DetectorSpec per size.  The config's
`detector.window_samples` is read, validated and fingerprinted with the
rainbow table, but no command uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError, StatisticalError
from .zpf import Mode, sample_vacuum

ZEROPOINT = 0.5


@dataclass(frozen=True)
class DetectorSpec:
    """Threshold detector parameters, intensities in zeropoint units.

    dark_rate_curve sets window_samples for each of its window sizes; the
    config's detector.window_samples reaches no command's output.
    """

    threshold: float = ZEROPOINT
    window_samples: int = 1
    efficiency: float = 1.0

    def __post_init__(self):
        if self.threshold < 0:
            raise InvalidArgumentError("threshold must be >= 0")
        if self.window_samples < 1:
            raise InvalidArgumentError("window_samples must be >= 1")
        if not 0.0 <= self.efficiency <= 1.0:
            raise InvalidArgumentError("efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class ChannelRate:
    """Mean-rate summary of one output channel."""

    mode: Mode
    mean_intensity: float
    above_zeropoint: float
    photon_rate: float
    detected: bool

    @classmethod
    def from_mean(cls, mode: Mode, mean_intensity: float) -> "ChannelRate":
        """Summary of a channel with the given mean |alpha|^2."""
        mean = float(mean_intensity)
        above = mean - ZEROPOINT
        return cls(mode=mode, mean_intensity=mean, above_zeropoint=above,
                   photon_rate=max(above, 0.0) / math.cos(mode.theta_external),
                   detected=above > 0.0)

    @property
    def signed_rate(self) -> float:
        """Unclamped above-zeropoint flux, negative below the vacuum."""
        return self.above_zeropoint / math.cos(self.mode.theta_external)


def ratio_down(rate_low: ChannelRate, rate_high: ChannelRate) -> float:
    """Down-conversion photon-rate ratio between the conjugate channels.

    For equal above-zeropoint intensities this equals
    cos(theta_high) / cos(theta_low): the rate asymmetry is pure geometry.
    NaN unless both channels are detected.
    """
    if not (rate_low.detected and rate_high.detected):
        return math.nan
    return rate_low.photon_rate / rate_high.photon_rate


def ratio_up(rate_low: ChannelRate, rate_high: ChannelRate) -> float:
    """Signed up-conversion rate ratio, lower channel over upper.

    Both channels use their unclamped rates, so the ratio carries the sign
    of the upper channel's excess.  NaN where the upper channel sits
    exactly at the zeropoint.
    """
    if rate_high.above_zeropoint == 0.0:
        return math.nan
    return rate_low.signed_rate / rate_high.signed_rate


def threshold_counts(intensities: np.ndarray, spec: DetectorSpec,
                     rng_seed: int) -> tuple[int, int]:
    """Windowed threshold clicks on per-trial intensities |alpha|^2:
    (clicks, windows).

    Trials are grouped into consecutive windows of `window_samples`, the
    window-averaged intensity is compared against the threshold, and
    clicks are thinned independently with probability `efficiency`.
    The click probability estimate is clicks / windows.
    """
    m = spec.window_samples
    n_windows = len(intensities) // m
    if n_windows < 1:
        raise InvalidArgumentError(
            f"need at least {m} trials for one window, "
            f"got {len(intensities)}")
    averaged = intensities[:n_windows * m].reshape(n_windows, m).mean(axis=1)
    raw = averaged > spec.threshold
    # uniform draws lie in [0, 1): efficiency 1 keeps every click, 0 none
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(rng_seed, spawn_key=(0xD7,))))
    kept = raw & (rng.random(n_windows) < spec.efficiency)
    return int(np.count_nonzero(kept)), int(n_windows)


def dark_rate_curve(spec_base: DetectorSpec, window_list, trials: int,
                    seed: int, workers: int = 1):
    """Vacuum dark-click probability versus window size.

    Returns rows (window_samples, dark_probability, standard_error); the
    intensities of one sampled vacuum mode feed every window size, so the
    M = 1 row is exactly threshold_counts at M = 1.  `workers` threads
    sample the vacuum; the rows are bit-identical for any worker count.
    """
    if spec_base.threshold <= ZEROPOINT:
        raise ConfigError("detector.threshold",
                          "dark-rate curve needs a threshold above the "
                          "mean zeropoint intensity 1/2")
    if not window_list:
        raise InvalidArgumentError("window_list must be non-empty")
    if trials < max(window_list):
        raise StatisticalError(
            f"{trials} trials cannot fill a window of {max(window_list)}")
    a = sample_vacuum(1, trials, seed, workers)[:, 0]
    intensities = a.real ** 2 + a.imag ** 2
    rows = []
    for m in window_list:
        spec = DetectorSpec(threshold=spec_base.threshold, window_samples=int(m),
                            efficiency=spec_base.efficiency)
        clicks, windows = threshold_counts(intensities, spec, rng_seed=seed)
        p = clicks / windows
        stderr = math.sqrt(max(p * (1.0 - p), 1.0 / windows) / windows)
        rows.append((int(m), p, stderr))
    return rows
