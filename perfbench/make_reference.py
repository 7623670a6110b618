"""Record reference.json, the values the benchmark's output checks compare to.

    python3 perfbench/make_reference.py

The reference belongs to the commit that introduced the benchmark and is
not regenerated afterwards: a change that claims a gain is checked against
it.  It holds

  * the covariance rainbow tables at 30 and 15 sweep steps;
  * for each present channel of the 15-step table, the exact mean intensity
    n, the modulus of the anomalous moment <a^2> and the cosine of the
    external angle, from which the Monte Carlo standard errors follow;
  * the Monte Carlo rainbow table at the shipped seed 3;
  * the exact second moments of the `simulate` columns at omega = 0.54.

Besides the CLI it uses the package's internal pipeline functions of that
commit, which later versions may rename.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

import checks
import run


def table(cli, name, seed, tmp, **overrides):
    out = Path(tmp) / f"{name}.csv"
    cfg = run.workload_config(name, seed, out)
    cfg.update(overrides)
    path = run.write_config(cfg, Path(tmp) / f"{name}.json")
    if run.call_cli(cli, ["--config", path, *run.WORKLOADS[name].command]) != 0:
        raise SystemExit(f"{name}: command failed")
    header, rows = checks.read_table(out)
    return header, rows, path


def channel_moments(state, mode, index):
    """(n, |<a^2>|, cos theta_ext) of one mode of an exact Gaussian state."""
    cov, m = state.covariance, state.n_modes
    vxx, vpp, vxp = cov[index, index], cov[m + index, m + index], cov[index, m + index]
    return [state.mode_intensity(index), 0.5 * math.hypot(vxx - vpp, 2.0 * vxp),
            math.cos(mode.theta_external)]


def main():
    cli = run.import_cli()
    from zprainbow import coupling as cp
    from zprainbow import rainbow as rb
    from zprainbow.zpf import vacuum_state

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        header, cov30, _ = table(cli, "rainbow-covariance", 3, tmp)
        steps15 = dict(run.BASE_CONFIG["sweep"])
        _, cov15, cfg15 = table(cli, "rainbow-covariance", 3, tmp, sweep=steps15)
        _, mc3, _ = table(cli, "rainbow-montecarlo", 3, tmp)
        config = cli.load_config(cfg15)

    def state(system):
        return cp.propagate_covariance(cp.integrate_three_wave(system),
                                       vacuum_state(3))

    col = {name: i for i, name in enumerate(header)}
    moments = []
    for row in cov15:
        entry = {}
        omega = row[col["omega"]]
        if row[col["theta_d_ext"]] is not None:
            system = rb.pdc_system(config.crystal, omega, config.couplings)
            s = state(system)
            entry["main_rate"] = channel_moments(s, system.modes[0], 0)
            entry["conjugate_rate"] = channel_moments(s, system.modes[1], 1)
        if row[col["theta_u_ext"]] is not None:
            system = rb.puc_system(config.crystal, omega, config.couplings)
            s = state(system)
            entry["satellite_rate"] = channel_moments(s, system.modes[0], 0)
            entry["upper_above_zeropoint"] = channel_moments(s, system.modes[2], 2)
        moments.append(entry)

    system = rb.pdc_system(config.crystal, 0.54, config.couplings)
    s = cp.quadrature_matrix(cp.integrate_three_wave(system))
    cov = 0.5 * s @ s.T                  # xxpp: x0 x1 x2 p0 p1 p2
    order = [0, 3, 1, 4, 2, 5]           # -> w_re w_im s_re s_im u_re u_im
    # Re a = x / sqrt(2), Im a = p / sqrt(2)
    second = 0.5 * cov[np.ix_(order, order)]

    reference = {
        "point_fields": header,
        "covariance_30": cov30,
        "covariance_15": cov15,
        "moments_15": moments,
        "montecarlo_seed3": mc3,
        "simulate_second_moments": second.tolist(),
    }
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
