"""Zeropoint-threshold detection model.

A detector never sees the mean zeropoint background: its working quantity
is the intensity ABOVE the vacuum mean of 1/2.  Mean photon-equivalent
rates divide that excess by the cosine of the external propagation angle
(flux through the detector plane), and clamp at zero - a channel sitting
below the zeropoint is simply dark.

Click statistics model the finite detector time window by averaging the
intensity of a window of independent trials before comparing against
the threshold; window averaging is what suppresses vacuum dark counts.
(The averaged-intensity window is a concrete stand-in for the detector's
long integration time, many light oscillations per decision.)  Mean-rate
quantities use expectation values directly and never threshold.

rates, down_ratios and up_ratios work on arrays of channels, or on one
channel as 0-d arrays; rates is the only rule from mean |alpha|^2 to
rate.  The sweep and the ratios report take every rate from them.

The `darkrate` command takes its window sizes from `darkrate.windows` (or
`--windows`) and passes each to threshold_counts.  The config's
`detector.window_samples` is only validated: no output or fingerprint
reads it, and the sweep takes no detector at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidArgumentError, StatisticalError
from .zpf import sample_vacuum

ZEROPOINT = 0.5


@dataclass(frozen=True)
class DetectorSpec:
    """Threshold detector parameters, intensities in zeropoint units.

    threshold_counts takes the window size as an argument, so
    window_samples (the config's detector.window_samples) is only
    validated; no output or fingerprint reads it.
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


class Rates(NamedTuple):
    """Mean-rate columns of many channels, arrays of one shape."""

    above_zeropoint: np.ndarray
    photon_rate: np.ndarray
    signed_rate: np.ndarray


def rates(mean_intensity, theta_external) -> Rates:
    """The rule from mean |alpha|^2 to rate, on arrays of channels.

    The excess over the zeropoint is divided by the cosine of each
    channel's external angle (an array that broadcasts against the
    means): clamped at zero, that is the photon rate; unclamped, the
    signed rate.  The cosines are math.cos of each angle, as numpy's
    vector kernels need not round them alike on every CPU.
    """
    above = np.asarray(mean_intensity, dtype=float) - ZEROPOINT
    theta = np.asarray(theta_external, dtype=float)
    cos = np.array([math.cos(t) for t in theta.ravel().tolist()],
                   dtype=float).reshape(theta.shape)
    return Rates(above, np.maximum(above, 0.0) / cos, above / cos)


def down_ratios(low, high) -> np.ndarray:
    """Down-conversion photon-rate ratio between the conjugate channels
    low and high (Rates): per pair, low's photon rate over high's, NaN
    unless both are above the zeropoint.

    For equal above-zeropoint intensities this equals
    cos(theta_high) / cos(theta_low): the rate asymmetry is pure geometry.
    """
    low_rate, high_rate = (np.asarray(c.photon_rate, dtype=float)
                           for c in (low, high))
    detected = ((np.asarray(low.above_zeropoint) > 0.0)
                & (np.asarray(high.above_zeropoint) > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(detected, low_rate / high_rate, np.nan)


def up_ratios(low, high) -> np.ndarray:
    """Signed up-conversion rate ratio, lower channel over upper (Rates):
    both signed rates, so the ratio carries the sign of the upper
    channel's excess; NaN where that excess is exactly 0."""
    low_rate, high_rate = (np.asarray(c.signed_rate, dtype=float)
                           for c in (low, high))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.asarray(high.above_zeropoint) == 0.0, np.nan,
                        low_rate / high_rate)


def threshold_counts(intensities: np.ndarray, spec: DetectorSpec,
                     window: int, rng_seed: int) -> tuple[int, int]:
    """Windowed threshold clicks on per-trial intensities |alpha|^2:
    (clicks, windows).

    Trials are grouped into consecutive windows of `window` samples, the
    window-averaged intensity is compared against spec's threshold, and
    clicks are thinned independently with probability spec.efficiency.
    The click probability estimate is clicks / windows.
    """
    if window < 1:
        raise InvalidArgumentError("window must be >= 1")
    n_windows = len(intensities) // window
    if n_windows < 1:
        raise InvalidArgumentError(
            f"need at least {window} trials for one window, "
            f"got {len(intensities)}")
    averaged = intensities[:n_windows * window].reshape(
        n_windows, window).mean(axis=1)
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
    More trials than memory holds raise ConfigError on `trials`.
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
    try:
        a = sample_vacuum(1, trials, seed, workers)[:, 0]
        intensities = a.real ** 2 + a.imag ** 2
        rows = []
        for m in window_list:
            clicks, windows = threshold_counts(intensities, spec_base,
                                               int(m), rng_seed=seed)
            p = clicks / windows
            stderr = math.sqrt(max(p * (1.0 - p), 1.0 / windows) / windows)
            rows.append((int(m), p, stderr))
    except MemoryError:
        raise ConfigError("trials", f"{trials} trials exceed memory") from None
    return rows
