"""Configuration loading, command dispatch and output formats.

The configuration is one JSON file with nested sections mirroring the
domain types (crystal, detector, couplings, sweep, ...); every physical
constant, including the default crystal's Sellmeier data, lives there.
All validation happens at load time with field-level diagnostics; an
unknown key is an error, so a misspelt field never runs on its default,
and so is a NaN, infinite or beyond-float-range number, or a pair gain
whose amplified vacuum over the crystal length would leave float range.

Output files are written to a short random .part name beside the output,
created with mode 0o666 (the kernel gives it open()'s mode) and renamed
onto the output: a failed run leaves no partial table, and an output that
is a directory or cannot be created or renamed is a ConfigError.  CSV
numbers carry 17 significant digits and round-trip exactly.  Tables are
written block by block (_BLOCK_ROWS rows), CSV and JSON alike, so memory
stays bounded at any trial count.  A table is a list of rows or a column
source, a row count and a function that makes the numpy columns of any row
range (the `simulate` dump); a source formats each finite block with one
%-operation on a repeated line template, with the bytes of the per-cell
rule (_fmt, or json.dump of the whole table).  Its rows split into up to
`workers` contiguous shares of whole blocks: each share is made, span by
span, and formatted by a forked process into an unnamed temp file beside
the output, and the shares are copied into it in order, so the bytes do
not depend on the worker count and no process holds the whole table.

Exit codes: 0 success, 2 invalid configuration, 3 no phase-matching
solution / empty band / a wavelength outside the transparency window,
4 unmet statistical precondition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, replace
from importlib import resources
from itertools import islice

import numpy as np

from . import coupling as cp
from . import dispersion as dp
from .detection import ChannelRate, DetectorSpec, dark_rate_curve, ratio_down
from .errors import (BandError, ConfigError, DomainError, InvalidArgumentError,
                     NoSolutionError, StatisticalError, present)
from .rainbow import (DEFAULT_SEED, DEFAULT_TRIALS, ENGINES, Couplings,
                      POINT_FIELDS, evaluate, mean_intensities, pdc_system,
                      satellite_summary, sweep, sweep_grid)
from .zpf import Mode, ORDINARY, TRIAL_BLOCK, vacuum_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SOLUTION = 3
EXIT_STATISTICAL = 4

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    crystal: dp.CrystalSpec
    detector: DetectorSpec
    engine: str
    trials: int
    seed: int
    workers: int
    sweep_band: tuple
    couplings: Couplings
    ratios_omega: float
    ratios_trials: int
    darkrate_windows: tuple
    output_path: str
    output_format: str

    def __post_init__(self):
        # dataclasses.replace runs this again for the command-line flags
        if self.engine not in ENGINES:
            raise ConfigError("engine", f"unknown engine {self.engine!r}")
        if self.output_format not in FORMATS:
            raise ConfigError("output.format",
                              f"unknown format {self.output_format!r}")
        for name, value, least in (("trials", self.trials, 1),
                                   ("seed", self.seed, 0),
                                   ("workers", self.workers, 1),
                                   ("ratios.trials", self.ratios_trials, 1)):
            if value < least:
                raise ConfigError(name, f"must be >= {least}")
        if not 0.0 < self.ratios_omega < 1.0:
            raise ConfigError("ratios.omega", "must lie in (0, 1)")
        if not self.darkrate_windows or any(
                isinstance(w, bool) or not isinstance(w, int) or w < 1
                for w in self.darkrate_windows):
            raise ConfigError("darkrate.windows", "must be integers >= 1")


def default_config_path() -> str:
    return str(resources.files("zprainbow").joinpath("configs/default.json"))


def _section(raw, name, optional=False):
    value = raw.pop(name, {} if optional else None)
    if not isinstance(value, dict):
        raise ConfigError(name, "missing or not a dict")
    return value


def _path(section_path, name):
    """The dotted path of a field; top-level fields have no section."""
    return f"{section_path}.{name}" if section_path else name


def _field(section, path, name, types, default=None, required=False):
    """Take `name` out of `section`, checked against `types`."""
    if name not in section:
        if required:
            raise ConfigError(_path(path, name), "missing required field")
        return default
    value = section.pop(name)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(_path(path, name),
                          f"expected {types}, got {value!r}")
    return value


def _number(section, path, name, default=None, required=False) -> float:
    return float(_field(section, path, name, (int, float), default, required))


def _reject_unknown(section, path):
    """A key no read took out is unknown: a misspelt key must fail."""
    for key in section:
        raise ConfigError(_path(path, key), "unknown key")


def _sellmeier(section, path, name):
    terms = _field(section, path, name, list, required=True)
    try:
        return dp.SellmeierCoefficients(tuple((float(b), float(c))
                                              for b, c in terms))
    except (TypeError, ValueError, InvalidArgumentError) as e:
        raise ConfigError(f"{path}.{name}", str(e)) from None


def _finite(text, kind=float):
    """JSON number hook: NaN, Infinity and numbers beyond float range
    are errors."""
    if not math.isfinite(float(text)):
        raise ConfigError("config", f"number out of range: {text[:20]}")
    return kind(text)


def load_config(path: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration file."""
    cfg_path = path or default_config_path()
    try:
        with open(cfg_path, "rb") as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            parse_int=lambda text: _finite(text, int))
    except OSError as e:
        raise ConfigError("config", f"cannot read {cfg_path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {cfg_path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")

    c = _section(raw, "crystal")
    try:
        crystal = dp.CrystalSpec(
            sellmeier_o=_sellmeier(c, "crystal", "sellmeier_o"),
            sellmeier_e=_sellmeier(c, "crystal", "sellmeier_e"),
            cut_angle_deg=_number(c, "crystal", "cut_angle_deg",
                                  required=True),
            length_mm=_number(c, "crystal", "length_mm", required=True),
            pump_wavelength_nm=_number(c, "crystal", "pump_wavelength_nm",
                                       required=True),
            gain_per_mm=_number(c, "crystal", "gain_per_mm", required=True),
            pump_polarization=_field(c, "crystal", "pump_polarization", str,
                                     default="extraordinary"),
            window_um=tuple(_field(c, "crystal", "window_um", list,
                                   required=True)),
        )
    except InvalidArgumentError as e:
        raise ConfigError("crystal", str(e)) from None
    _reject_unknown(c, "crystal")
    if not math.isfinite(crystal.length_um):
        raise ConfigError("crystal.length_mm",
                          f"{crystal.length_mm:g} mm exceeds the float range "
                          f"in micrometres")

    d = _section(raw, "detector")
    try:
        detector = DetectorSpec(
            threshold=_number(d, "detector", "threshold",
                              default=DetectorSpec.threshold),
            window_samples=_field(d, "detector", "window_samples", int,
                                  default=DetectorSpec.window_samples),
            efficiency=_number(d, "detector", "efficiency",
                               default=DetectorSpec.efficiency),
        )
    except InvalidArgumentError as e:
        raise ConfigError("detector", str(e)) from None
    _reject_unknown(d, "detector")

    engine = raw.pop("engine", "covariance")
    trials = _field(raw, "", "trials", int, default=DEFAULT_TRIALS)
    seed = _field(raw, "", "seed", int, default=DEFAULT_SEED)
    workers = _field(raw, "", "workers", int,
                     default=len(os.sched_getaffinity(0)))

    s = _section(raw, "sweep")
    band = (_number(s, "sweep", "omega_min", required=True),
            _number(s, "sweep", "omega_max", required=True),
            _field(s, "sweep", "steps", int, required=True))
    _reject_unknown(s, "sweep")
    if not 0.0 < band[0] < band[1] < 1.0:
        raise ConfigError("sweep", "need 0 < omega_min < omega_max < 1")
    try:
        sweep_grid(*band)
    except InvalidArgumentError as e:
        raise ConfigError("sweep.steps", str(e)) from None

    k = _section(raw, "couplings", optional=True)
    g_up = k.pop("g_up", None)
    if g_up is not None and (isinstance(g_up, bool) or not isinstance(
            g_up, (int, float)) or g_up < 0):
        raise ConfigError("couplings.g_up", "must be a number >= 0")
    couplings = Couplings(
        g_up=None if g_up is None else float(g_up),
        phi_down=_number(k, "couplings", "phi_down",
                         default=Couplings.phi_down),
        phi_up=_number(k, "couplings", "phi_up", default=Couplings.phi_up))
    _reject_unknown(k, "couplings")
    # the pair gain amplifies the vacuum intensity like exp(2 g L); a
    # quarter of the float exponent range keeps intensities, their
    # products and sampled vacuum fluctuations finite
    max_gain_length = math.log(sys.float_info.max) / 4
    if crystal.gain_per_mm * crystal.length_mm > max_gain_length:
        raise ConfigError("crystal.gain_per_mm", f"times crystal.length_mm "
                          f"must not exceed {max_gain_length:.6g}")

    r = _section(raw, "ratios", optional=True)
    ratios_omega = _number(r, "ratios", "omega", default=0.5)
    ratios_trials = _field(r, "ratios", "trials", int, default=trials)
    _reject_unknown(r, "ratios")

    dk = _section(raw, "darkrate", optional=True)
    windows = tuple(_field(dk, "darkrate", "windows", list,
                           default=[1, 10, 100]))
    _reject_unknown(dk, "darkrate")

    o = _section(raw, "output", optional=True)
    out_path = _field(o, "output", "path", str, default="zprainbow_out.csv")
    out_format = _field(o, "output", "format", str, default="csv")
    _reject_unknown(o, "output")
    _reject_unknown(raw, "")

    return RunConfig(crystal=crystal, detector=detector, engine=engine,
                     trials=trials, seed=seed, workers=workers,
                     sweep_band=band, couplings=couplings,
                     ratios_omega=ratios_omega, ratios_trials=ratios_trials,
                     darkrate_windows=windows, output_path=out_path,
                     output_format=out_format)


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".17g")
    return str(value)


_BLOCK_ROWS = 8192
# '%d' and '%.17g' write what _fmt writes for an int and a finite float
_CELL_FORMATS = {"i": "%d", "f": "%.17g"}


def _row_blocks(rows):
    """Yield (None, block) per block of at most _BLOCK_ROWS rows, each a
    list of rows whose every cell goes through _fmt."""
    it = iter(rows)
    while block := list(islice(it, _BLOCK_ROWS)):
        yield None, block


def _column_blocks(columns):
    """Yield (template, block) per block of _BLOCK_ROWS rows of 2-D
    columns.

    A block is a 2-D object array of Python ints and floats (one array,
    not a list per row, keeps the block's memory small); template is the
    line format of one row, or None when a cell is not finite.
    """
    template = ",".join(_CELL_FORMATS[c.dtype.kind]
                        for c in columns for _ in range(c.shape[1])) + "\n"
    for first in range(0, len(columns[0]), _BLOCK_ROWS):
        parts = [c[first:first + _BLOCK_ROWS] for c in columns]
        finite = all(np.isfinite(p).all() for p in parts)
        block = np.concatenate(parts, axis=1, dtype=object)
        yield (template if finite else None), block


def _write_blocks(fh, fmt, header, blocks, start=0) -> int:
    """Write the text of (template, block) pairs whose first row is table
    row `start`, and return the rows written.

    A CSV block follows its template, or the per-cell rule (_fmt) when it
    has none.  A JSON block is json.dump's text of its rows as dicts
    (indent=2, sort_keys=True, NaN cells null) without the brackets,
    after ",\n", or after "\n" when it holds row 0.
    """
    written = 0
    for template, block in blocks:
        if fmt == "json":
            payload = [{k: (None if isinstance(v, float) and math.isnan(v)
                            else v)
                        for k, v in zip(header, row)} for row in block]
            # strip the block's own "[\n" and "\n]"
            fh.write(("\n" if start + written == 0 else ",\n")
                     + json.dumps(payload, indent=2, sort_keys=True)[2:-2])
        elif template is None:
            fh.writelines(",".join(_fmt(v) for v in row) + "\n"
                          for row in block)
        else:
            fh.write(template * len(block) % tuple(block.ravel().tolist()))
        written += len(block)
    return written


def _write_share(fh, fmt, header, columns_of, start, stop) -> None:
    """The text of rows [start, stop) of a column source.

    The rows are asked of columns_of in spans cut on the vacuum's
    TRIAL_BLOCK grid, so a source that draws the vacuum draws each trial
    block at most once per share; each span is formatted and dropped
    before the next.
    """
    while start < stop:
        end = min(stop, (start // TRIAL_BLOCK + 1) * TRIAL_BLOCK)
        columns = [c[:, None] if c.ndim == 1 else c
                   for c in columns_of(start, end)]
        _write_blocks(fh, fmt, header, _column_blocks(columns), start)
        start = end


# a share-writer process's table: (fmt, header, columns_of, share file
# descriptors), set by _start_share_writer in the forked child only
_share_table = None


def _start_share_writer(*table) -> None:
    global _share_table
    _share_table = table


def _pool_share(index, start, stop) -> None:
    """Write share `index`, rows [start, stop), to its own file."""
    fmt, header, columns_of, fds = _share_table
    with open(fds[index], "w", newline="", closefd=False) as fh:
        _write_share(fh, fmt, header, columns_of, start, stop)


def _write_columns(fh, fmt, header, rows, columns_of, workers,
                   directory) -> None:
    """Write the `rows` rows of a column source on up to `workers`
    processes.

    The rows split into min(workers, blocks) contiguous shares of whole
    _BLOCK_ROWS blocks.  With one share it is written to `fh` in the
    calling thread and no pool starts.  Otherwise each share is written
    by a forked process to its own unnamed temp file in `directory`, and
    the shares are copied into `fh` in order, so this process holds
    neither the columns nor their text.  Fork passes columns_of to the
    children without pickling; each child makes, formats and writes its
    own rows.  A child that draws Philox and maps through BLAS uses its
    own generators, and OpenBLAS shuts its thread pool down before a
    fork (its own atfork handler) and starts it again when next needed.
    """
    blocks = -(-rows // _BLOCK_ROWS)
    shares = min(workers, blocks)
    if shares <= 1:
        _write_share(fh, fmt, header, columns_of, 0, rows)
        return
    # imported here: ~8 ms of start-up that only a table of several
    # shares needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    bounds = [min(rows, blocks * k // shares * _BLOCK_ROWS)
              for k in range(shares + 1)]
    with ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=directory))
                 for _ in range(shares)]
        fh.flush()   # a forked child must not inherit buffered text
        with ProcessPoolExecutor(
                shares, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_share_writer,
                initargs=(fmt, header, columns_of,
                          [part.fileno() for part in parts])) as pool:
            for done in [pool.submit(_pool_share, k, *bounds[k:k + 2])
                         for k in range(shares)]:
                done.result()
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer)


def write_table(path: str, fmt: str, header, rows, workers: int = 1) -> None:
    """Serialize a table atomically (.part file + rename).

    `rows` is a list of rows, or a column source, the tuple (n_rows,
    columns_of): columns_of(start, stop) gives rows [start, stop) as
    integer and float numpy arrays side by side (a 1-D array is one
    column, a 2-D array one per array column), made and formatted in up
    to `workers` processes, one contiguous share each (_write_columns).
    Both give the same bytes.  The .part file is created beside `path`
    with mode 0o666, as open(path, "w") creates a file; ConfigError when
    `path` is a directory or the file cannot be created or renamed onto it.
    """
    if os.path.isdir(os.path.abspath(path)):  # "", a directory or "dir/"
        raise ConfigError("output.path", f"Is a directory: {path!r}")
    directory = os.path.dirname(os.path.abspath(path))
    # a short name: a long output name cannot push it past NAME_MAX
    tmp = os.path.join(directory, f".zprainbow-{os.urandom(6).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise ConfigError("output.path", f"{e.strerror}: {path!r}") from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(header) + "\n" if fmt == "csv" else "[")
            if isinstance(rows, tuple):
                _write_columns(fh, fmt, header, *rows, workers, directory)
                written = rows[0]
            else:
                written = _write_blocks(fh, fmt, header, _row_blocks(rows))
            if fmt == "json":
                fh.write("\n]\n" if written else "]\n")
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise ConfigError("output.path",
                              f"{e.strerror}: {path!r}") from None
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_angles(config: RunConfig) -> int:
    """Dispersion-only table of matching angles and solver residuals."""
    header = ("omega", "theta_d_int", "theta_d_ext", "theta_u_int",
              "theta_u_ext", "residual_down", "residual_up")
    omegas = sweep_grid(*config.sweep_band)
    rows, n_down = [], 0
    for omega, down, up in zip(omegas.tolist(),
                               dp.match_band("down", omegas, config.crystal),
                               dp.match_band("up", omegas, config.crystal)):
        row = [omega] + [float("nan")] * 6
        if isinstance(down, dp.PhaseMatchSolution):
            row[1:3] = [down.theta_in_internal, down.theta_in_external]
            row[5] = down.residual_dk
            n_down += 1
        if isinstance(up, dp.PhaseMatchSolution):
            row[3:5] = [up.theta_in_internal, up.theta_in_external]
            row[6] = up.residual_dk
        rows.append(row)
    if n_down == 0:
        raise BandError("no frequency in the sweep band phase matches")
    write_table(config.output_path, config.output_format, header, rows)
    print(f"angles: {len(rows)} rows ({n_down} matched) -> "
          f"{config.output_path}")
    return EXIT_OK


def cmd_rainbow(config: RunConfig) -> int:
    """Full rainbow synthesis (both rainbows, both engines)."""
    lo, hi, steps = config.sweep_band
    table = sweep(lo, hi, steps, config.crystal, config.detector,
                  engine=config.engine, trials=config.trials,
                  seed=config.seed, couplings=config.couplings,
                  workers=config.workers)
    rows = [[getattr(p, f) for f in POINT_FIELDS] for p in table.points]
    write_table(config.output_path, config.output_format, POINT_FIELDS, rows)
    print(f"rainbow: {len(rows)} points -> {config.output_path}")
    print(f"config fingerprint: {table.config_fingerprint}")
    try:
        mean_ratio, angle_ratio = satellite_summary(table)
        print(f"satellite/main rate ratio (band mean): {mean_ratio:.6g}")
        print(f"theta_u/theta_d (band mean): {angle_ratio:.6g}")
    except BandError:
        print("satellite rainbow: not present in this band")
    return EXIT_OK


def forced_angle_report(config: RunConfig, theta_low_deg: float,
                        theta_high_deg: float) -> dict:
    """Photon-rate ratio with the matched angles forced by hand.

    Runs the pure pair squeezer at the crystal gain and detects the two
    conjugate channels at the given external angles.  An angle not
    strictly between -90 and 90 degrees, NaN included, is a ConfigError.
    """
    if not (abs(theta_low_deg) < 90.0 and abs(theta_high_deg) < 90.0):
        raise ConfigError("ratios", "forced angles --theta-low-deg and "
                          "--theta-high-deg must lie in (-90, 90) degrees")
    th_lo, th_hi = math.radians(theta_low_deg), math.radians(theta_high_deg)
    gl = config.crystal.gain_per_mm * config.crystal.length_mm
    modes = (Mode(0.5, th_lo, th_lo, ORDINARY, "input"),
             Mode(0.5, -th_hi, -th_hi, ORDINARY, "signal"))
    t = cp.squeeze_pair(gl, config.couplings.phi_down)
    means = mean_intensities(t.matrix[None], config.engine,
                             config.ratios_trials, config.seed,
                             config.workers)[0]
    rate_lo = ChannelRate.from_mean(modes[0], means[0])
    rate_hi = ChannelRate.from_mean(modes[1], means[1])
    return {
        "theta_low_deg": theta_low_deg,
        "theta_high_deg": theta_high_deg,
        "engine": config.engine,
        "rate_ratio": ratio_down(rate_lo, rate_hi),
        "cosine_ratio": math.cos(th_hi) / math.cos(th_lo),
        "photon_theory_ratio": 1.0,
    }


def physical_ratio_report(config: RunConfig, omega: float) -> dict:
    """Eq.-style rate ratios at one matched frequency.

    The down-conversion ratio uses the pair process alone; the
    up-conversion entry reports the signed above-zeropoint value of the
    upper channel, its clamped rate, and the signed ratio.
    """
    [(point, main, satellite)] = evaluate(
        [omega], config.crystal, config.couplings, config.engine,
        config.ratios_trials, config.seed, config.workers, per_point=False)
    low, high, _ = present(main)
    lower = upper_rate = eq2_cosine = math.nan
    if point.has_satellite:
        q_w, _, q_u = satellite
        lower, upper_rate = q_w.above_zeropoint, q_u.photon_rate
        eq2_cosine = -(math.cos(q_u.mode.theta_external)
                       / math.cos(q_w.mode.theta_external))
    return {
        "omega": omega,
        "engine": config.engine,
        "eq1_ratio": point.eq1_ratio,
        "eq1_cosine_ratio": (math.cos(high.mode.theta_external)
                             / math.cos(low.mode.theta_external)),
        "photon_theory_ratio": 1.0,
        "lower_above_zeropoint": lower,
        "upper_above_zeropoint": point.upper_above_zeropoint,
        "upper_clamped_rate": upper_rate,
        "eq2_cosine_ratio": eq2_cosine,
        "eq2_ratio": point.eq2_ratio,
    }


def cmd_ratios(config: RunConfig, theta_low_deg, theta_high_deg) -> int:
    if (theta_low_deg is None) != (theta_high_deg is None):
        raise ConfigError("ratios", "forced angles need both "
                          "--theta-low-deg and --theta-high-deg")
    if theta_low_deg is not None:
        report = forced_angle_report(config, theta_low_deg, theta_high_deg)
    else:
        report = physical_ratio_report(config, config.ratios_omega)
    header = tuple(report.keys())
    write_table(config.output_path, config.output_format, header,
                [list(report.values())])
    for key, value in report.items():
        print(f"{key}: {_fmt(value)}")
    print(f"ratios report -> {config.output_path}")
    return EXIT_OK


def cmd_darkrate(config: RunConfig) -> int:
    rows = dark_rate_curve(config.detector, config.darkrate_windows,
                           config.trials, config.seed, config.workers)
    write_table(config.output_path, config.output_format,
                ("window_samples", "dark_probability", "standard_error"),
                rows)
    for m, p, err in rows:
        print(f"M={m}: dark probability {p:.6g} +- {err:.2g}")
    print(f"darkrate curve -> {config.output_path}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, raw_vacuum: bool) -> int:
    """Dump the per-trial amplitudes of the matched three-wave triple.

    No process holds the table: each share writer draws its rows' vacuum
    (vacuum_rows), maps it in place and formats it, span by span.
    """
    system = pdc_system(config.crystal, config.ratios_omega, config.couplings)
    t = None if raw_vacuum else cp.integrate_three_wave(system)

    def columns_of(start, stop):
        amplitudes = vacuum_rows(len(system.modes), config.trials,
                                 config.seed, start, stop)
        if t is not None and start > 0 and stop == start + 1:
            # a one-row map (gemv) misses the whole-table product's last
            # bits: a lone row of a longer table is mapped stacked with itself
            amplitudes = cp.apply(t, np.repeat(amplitudes, 2, axis=0))[:1]
        elif t is not None:
            cp.apply(t, amplitudes, out=amplitudes)
        # the float view of the (rows x 3) complex table is its re, im
        # columns in header order, with no copy
        return np.arange(start, stop), amplitudes.view(np.float64)

    header = ("trial", "w_re", "w_im", "s_re", "s_im", "u_re", "u_im")
    write_table(config.output_path, config.output_format, header,
                (config.trials, columns_of), config.workers)
    print(f"simulate: {config.trials} trials -> {config.output_path}")
    return EXIT_OK


# flag -> (the RunConfig fields it overrides, its argparse keywords); a flag
# with no field goes to the command's run function as a keyword argument
_FLAGS = {
    "--seed": (("seed",), dict(type=int)),
    "--trials": (("trials", "ratios_trials"), dict(type=int)),
    "--engine": (("engine",), dict(choices=ENGINES)),
    "--workers": (("workers",), dict(type=int)),
    "--omega": (("ratios_omega",), dict(type=float)),
    "--windows": (("darkrate_windows",), dict(type=int, nargs="+")),
    "--output": (("output_path",), {}),
    "--format": (("output_format",), dict(choices=FORMATS)),
    "--theta-low-deg": ((), dict(type=float)),
    "--theta-high-deg": ((), dict(type=float)),
    "--raw-vacuum": ((), dict(action="store_true")),
}

_OUTPUT = ("--output", "--format")
_SAMPLED = ("--seed", "--trials", "--engine", "--workers") + _OUTPUT

# command -> (help, the only flags it accepts, its run function)
_COMMANDS = {
    "angles": ("phase-matching angle table", _OUTPUT, cmd_angles),
    "rainbow": ("synthesize both rainbows", _SAMPLED, cmd_rainbow),
    "ratios": ("rate-ratio report at one frequency",
               _SAMPLED + ("--omega", "--theta-low-deg", "--theta-high-deg"),
               cmd_ratios),
    "darkrate": ("vacuum dark-rate curve",
                 ("--seed", "--trials", "--workers") + _OUTPUT
                 + ("--windows",), cmd_darkrate),
    "simulate": ("raw ensemble dump at one frequency",
                 ("--seed", "--trials", "--workers") + _OUTPUT
                 + ("--omega", "--raw-vacuum"), cmd_simulate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zprainbow",
        description="Zeropoint-field simulator of parametric down- and "
                    "up-conversion rainbows")
    parser.add_argument("--config", default=None,
                        help="configuration file (JSON); defaults to the "
                             "packaged default config")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    _, flags, run = _COMMANDS[args["command"]]
    overrides, options = {}, {}
    for flag in flags:
        dest = flag[2:].replace("-", "_")   # argparse's name for the flag
        if not _FLAGS[flag][0]:
            options[dest] = args[dest]
        elif args[dest] is not None:
            overrides.update(dict.fromkeys(_FLAGS[flag][0], args[dest]))
    try:
        config = replace(load_config(args["config"]), **overrides)
        return run(config, **options)
    except (ConfigError, InvalidArgumentError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSolutionError, DomainError) as e:
        print(f"no solution: {e}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except StatisticalError as e:
        print(f"statistical precondition: {e}", file=sys.stderr)
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
