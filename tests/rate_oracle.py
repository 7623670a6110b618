"""Per-system rates: the reference for rainbow's column pass.

The pipeline turns a band's transforms into rates one way only, over
columns: rainbow's sweep stacks every present system's coupling columns,
takes their means in one pass and applies detection.rates to them.  The
function here does it for a list of ThreeWaveSystems, each system's
ChannelRates built from its own Modes, as the per-system pipeline did.
The tests compare the sweep and the ratios report against it.
"""

from __future__ import annotations

from zprainbow import coupling as cp
from zprainbow.detection import ChannelRate
from zprainbow.rainbow import mean_intensities


def channel_rates(systems, engine: str, trials: int, seed: int,
                  workers: int = 1, vacua=None) -> list[list[ChannelRate]]:
    """Every mode's ChannelRate for each system, all transforms built in
    one stacked pass; vacua groups the systems by the Monte Carlo vacuum
    they act on, as in mean_intensities (by default all share one)."""
    means = mean_intensities(cp.system_matrices(systems), engine, trials,
                             seed, workers, vacua)
    return [[ChannelRate.from_mean(m, v) for m, v in zip(s.modes, mean)]
            for s, mean in zip(systems, means)]
