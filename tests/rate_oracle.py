"""Per-system rates: the reference for rainbow's column pass.

The pipeline turns a band's transforms into rates one way only, over
columns: rainbow's sweep stacks every present system's coupling columns,
takes their means in one pass and applies detection.rates to them.
channel_rates does it for a list of ThreeWaveSystems, each system's
ChannelRates built from its own Modes, as the per-system pipeline did;
system_matrices gives their stacked transforms.  The tests compare the
sweep and the ratios report against them.
"""

from __future__ import annotations

import numpy as np

from zprainbow import coupling as cp
from zprainbow.detection import ChannelRate
from zprainbow.rainbow import mean_intensities


def system_matrices(systems) -> np.ndarray:
    """three_wave_matrices of a list of ThreeWaveSystems: the adapter that
    reads their columns."""
    return cp.three_wave_matrices(*(
        np.array([getattr(s, name) for s in systems], dtype=float)
        for name in cp._COLUMNS))


def channel_rates(systems, engine: str, trials: int, seed: int,
                  workers: int = 1, vacua=None) -> list[list[ChannelRate]]:
    """Every mode's ChannelRate for each system, all transforms built in
    one stacked pass; vacua groups the systems by the Monte Carlo vacuum
    they act on, as in mean_intensities (by default all share one)."""
    means = mean_intensities(system_matrices(systems), engine, trials,
                             seed, workers, vacua)
    return [[ChannelRate.from_mean(m, v) for m, v in zip(s.modes, mean)]
            for s, mean in zip(systems, means)]
