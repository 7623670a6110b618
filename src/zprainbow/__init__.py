"""Stochastic zeropoint-field simulator of parametric conversion rainbows.

The vacuum is a Gaussian distribution over plane-wave mode amplitudes
(mean intensity 1/2 per mode); the pumped crystal acts on it as a linear
Bogoliubov map.  Exact Gaussian-state propagation and Monte Carlo sampling
run the same pipelines and cross-validate each other.
"""

from .coupling import (BogoliubovTransform, ThreeWaveSystem, apply,
                       convert_pair, integrate_three_wave,
                       propagate_covariance, squeeze_pair)
from .detection import DetectorSpec, dark_rate_curve, rates
from .dispersion import (CrystalSpec, PhaseMatchSolution,
                         SellmeierCoefficients, match_down, match_up)
from .rainbow import Couplings, RainbowPoint, RainbowTable, satellite_summary, sweep
from .zpf import (GaussianState, Mode, sample_vacuum, sampled_state,
                  vacuum_state)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovTransform", "Couplings", "CrystalSpec", "DetectorSpec",
    "GaussianState", "Mode", "PhaseMatchSolution", "RainbowPoint",
    "RainbowTable", "SellmeierCoefficients", "ThreeWaveSystem", "apply",
    "convert_pair", "dark_rate_curve", "integrate_three_wave", "match_down",
    "match_up", "propagate_covariance", "rates", "sample_vacuum",
    "sampled_state", "satellite_summary", "squeeze_pair", "sweep",
    "vacuum_state",
]
