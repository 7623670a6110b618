"""Configuration loading, command dispatch and output formats.

The configuration is one JSON file of sections mirroring the domain types;
every physical constant lives there.  One table, _SCHEMA, has a row per key
(dotted path, JSON type, default, range check, RunConfig field and flag)
that drives reading, unknown-key rejection, range checks and the flags.  A
config is fully checked at load time, a flag's value when it is applied:
an unknown key, so a misspelt one never runs on its default, a NaN,
infinite or beyond-float-range number and a pair gain whose amplified
vacuum over the crystal would leave float range are errors.

Output files are written to a short random .part name beside the output,
created with mode 0o666 (the kernel gives it open()'s mode) and renamed
onto the output: a failed run leaves no partial table, and an output that
is a directory, a FIFO, a device or a socket, or cannot be created or
renamed, is a ConfigError.  CSV numbers carry 17 significant digits and
round-trip exactly.  Tables are written a bounded number of rows at a
time, CSV and JSON alike, so memory stays bounded at any trial count.  A
table is a list of rows or a column source, a row count and a function
that yields the numpy columns of any row range piece by piece (the
`simulate` dump); either gives the bytes of the per-cell rule (_fmt, or
json.dump of the whole table).  A list of rows goes through that rule
cell by cell.  A source's CSV text comes from one numpy kernel
(digits), which writes every int and every fixed-notation float exactly
from its bits; a row with a cell it cannot write (exponent form,
subnormal, NaN or infinite) goes through _fmt in its place.  A source's
finite JSON rows are one %-operation on a repeated row layout.  Its rows
split into up to `workers` contiguous shares of whole _BLOCK_ROWS blocks,
each made and formatted piece by piece: the calling process writes the
first share straight into the output while a forked process writes each
later one into an unnamed temp file beside it, and those files are then
copied into the output in order, so the bytes do not depend on the
worker count and no process holds the whole table.

Exit codes: 0 success, 2 invalid configuration or a run beyond memory,
3 no phase-matching solution / empty band / a wavelength outside the
transparency window, 4 unmet statistical precondition.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import MISSING as REQUIRED, make_dataclass, replace
from importlib import resources
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from . import coupling as cp
from . import dispersion as dp
from .detection import DetectorSpec, dark_rate_curve, down_ratios, rates
from .errors import (BandError, ConfigError, DomainError, InvalidArgumentError,
                     NoSolutionError, StatisticalError, present)
from .rainbow import (DEFAULT_SEED, DEFAULT_TRIALS, ENGINES, Couplings,
                      POINT_FIELDS, RainbowPoint, columns, mean_intensities,
                      pdc_system, satellite_summary, sweep, sweep_grid)
from .zpf import vacuum_pieces

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SOLUTION = 3
EXIT_STATISTICAL = 4

FORMATS = ("csv", "json")


class Kind(NamedTuple):
    """A key's JSON types (a bool never; None takes any value), the maker of
    its field value (whose TypeError, ValueError or InvalidArgumentError is
    a ConfigError of the key) and its flag's argparse keywords."""

    types: type | tuple | None
    convert: Callable | None = None
    parse: dict = {}


def _gain(value):
    """couplings.g_up: null (the crystal's gain) or a number >= 0."""
    if value is None or type(value) in (int, float) and value >= 0:
        return None if value is None else float(value)
    raise InvalidArgumentError("must be a number >= 0")


NUMBER = Kind((int, float), float, dict(type=float))
INTEGER = Kind(int, parse=dict(type=int))
INTEGERS = Kind(list, tuple, dict(type=int, nargs="+"))
TEXT, LIST = Kind(str), Kind(list)
SELLMEIER, GAIN = Kind(list, dp.SellmeierCoefficients), Kind(None, _gain)
ENGINE = Kind(None, parse=dict(choices=ENGINES))
FORMAT = Kind(str, parse=dict(choices=FORMATS))


def _at_least(least):
    return (lambda value: value >= least), f"must be >= {least}"


def _one_of(choices, noun):
    return choices.__contains__, f"unknown {noun} {{!r}}"


class Key(NamedTuple):
    """A config key: dotted path, kind, default (REQUIRED, a value or a
    function of the fields read before it), RunConfig field, check and flag.
    A field that _SPECS makes takes its keys as keyword arguments, by their
    last part.  A plain field's check (holds, message) runs on every
    RunConfig made, and rejects a value as message.format(value)."""

    key: str
    kind: Kind
    default: object
    field: str
    check: tuple | None = None
    flag: str | None = None
    section = property(lambda self: self.key.rpartition(".")[0])
    name = property(lambda self: self.key.rpartition(".")[2])


_SCHEMA = (
    Key("crystal.sellmeier_o", SELLMEIER, REQUIRED, "crystal"),
    Key("crystal.sellmeier_e", SELLMEIER, REQUIRED, "crystal"),
    Key("crystal.cut_angle_deg", NUMBER, REQUIRED, "crystal"),
    Key("crystal.length_mm", NUMBER, REQUIRED, "crystal"),
    Key("crystal.pump_wavelength_nm", NUMBER, REQUIRED, "crystal"),
    Key("crystal.gain_per_mm", NUMBER, REQUIRED, "crystal"),
    Key("crystal.pump_polarization", TEXT, dp.CrystalSpec.pump_polarization, "crystal"),
    Key("crystal.window_um", LIST, REQUIRED, "crystal"),
    Key("detector.threshold", NUMBER, DetectorSpec.threshold, "detector"),
    Key("detector.window_samples", INTEGER, DetectorSpec.window_samples, "detector"),
    Key("detector.efficiency", NUMBER, DetectorSpec.efficiency, "detector"),
    Key("engine", ENGINE, "covariance", "engine", _one_of(ENGINES, "engine"), "--engine"),
    Key("trials", INTEGER, DEFAULT_TRIALS, "trials", _at_least(1), "--trials"),
    Key("seed", INTEGER, DEFAULT_SEED, "seed", _at_least(0), "--seed"),
    Key("workers", INTEGER, lambda fields: len(os.sched_getaffinity(0)), "workers",
        _at_least(1), "--workers"),
    Key("sweep.omega_min", NUMBER, REQUIRED, "sweep_band"),
    Key("sweep.omega_max", NUMBER, REQUIRED, "sweep_band"),
    Key("sweep.steps", INTEGER, REQUIRED, "sweep_band"),
    Key("couplings.g_up", GAIN, Couplings.g_up, "couplings"),
    Key("ratios.omega", NUMBER, 0.5, "ratios_omega",
        (lambda omega: 0.0 < omega < 1.0, "must lie in (0, 1)"), "--omega"),
    Key("ratios.trials", INTEGER, lambda fields: fields["trials"], "ratios_trials",
        _at_least(1), "--trials"),
    Key("darkrate.windows", INTEGERS, [1, 10, 100], "darkrate_windows",
        (lambda windows: bool(windows) and all(type(w) is int and w >= 1 for w in windows),
         "must be integers >= 1"), "--windows"),
    Key("output.path", TEXT, "zprainbow_out.csv", "output_path", None, "--output"),
    Key("output.format", FORMAT, "csv", "output_format", _one_of(FORMATS, "format"),
        "--format"),
)
_REQUIRED_SECTIONS = ("crystal", "detector", "sweep")


# RunConfig field -> the maker of its value from its keys, which share a
# section; its InvalidArgumentError is a ConfigError of the section
_SPECS = {"crystal": dp.CrystalSpec, "detector": DetectorSpec,
          "sweep_band": lambda **band: tuple(band.values()),   # table order
          "couplings": Couplings}
_CHECKS = [(key.key, key.field, key.check) for key in _SCHEMA if key.check]
# section -> its keys, each with its last part; "" holds the top level
_SECTIONS = {section: [(k.name, k) for k in _SCHEMA if k.section == section]
             for section in dict.fromkeys(key.section for key in _SCHEMA)}


def _check(config) -> None:
    for key, field, (holds, message) in _CHECKS:
        if not holds(value := getattr(config, field)):
            raise ConfigError(key, message.format(value))


RunConfig = make_dataclass(
    "RunConfig", list(dict.fromkeys(key.field for key in _SCHEMA)),
    frozen=True, namespace=dict(__module__=__name__, __post_init__=_check,
                                __doc__="A run's settings, _SCHEMA's fields."))


def default_config_path() -> str:
    return str(resources.files("zprainbow").joinpath("configs/default.json"))


def _value(section, name, key, fields):
    """`key`'s field value, from `name` in its section or its default."""
    types, convert, _ = key.kind
    if name in section:
        value = section.pop(name)
        if types and (not isinstance(value, types) or isinstance(value, bool)):
            raise ConfigError(key.key, f"expected {types}, got {value!r}")
    elif key.default is REQUIRED:
        raise ConfigError(key.key, "missing required field")
    else:
        value = key.default(fields) if callable(key.default) else key.default
    try:
        return convert(value) if convert else value
    except (TypeError, ValueError, InvalidArgumentError) as e:
        raise ConfigError(key.key, str(e)) from None


def _finite(text, kind=float):
    """JSON number hook: NaN, Infinity and beyond float range are errors."""
    if not math.isfinite(value := float(text)):
        raise ConfigError("config", f"number out of range: {text[:20]}")
    return value if kind is float else kind(text)


def _object(pairs):
    """JSON object hook: a key given twice is an error."""
    if len(obj := dict(pairs)) < len(pairs):
        key = next(k for k, _ in pairs if sum(k == j for j, _ in pairs) > 1)
        raise ConfigError("config", f"duplicate key {key!r}")
    return obj


# made once: a JSONDecoder costs about a fifth of a config's parse
_JSON = json.JSONDecoder(parse_float=_finite, parse_constant=_finite,
                         parse_int=lambda text: _finite(text, int),
                         object_pairs_hook=_object)


def load_config(path: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration file."""
    cfg_path = path or default_config_path()
    try:
        with open(cfg_path, "rb") as fh:
            data = fh.read()   # decoded as json.load decodes it
        raw = _JSON.decode(data.decode(json.detect_encoding(data),
                                       "surrogatepass"))
    except OSError as e:
        raise ConfigError("config", f"cannot read {cfg_path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError("config", f"cannot decode {cfg_path}: {e}") from None
    except (json.JSONDecodeError, RecursionError) as e:   # too deep a nest
        raise ConfigError("config", f"invalid JSON in {cfg_path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    fields = {}
    for title, keys in _SECTIONS.items():
        section = raw.pop(title, None if title in _REQUIRED_SECTIONS else {}) \
            if title else raw
        if not isinstance(section, dict):
            raise ConfigError(title, "missing or not a dict")
        spec = {}
        for name, key in keys:
            value = _value(section, name, key, fields)
            if key.field in _SPECS:
                spec[name] = value
            else:
                fields[key.field] = value
        # a key no read took out is unknown: a misspelt key must fail
        for name in section if title else ():
            raise ConfigError(f"{title}.{name}", "unknown key")
        if spec:
            try:
                fields[key.field] = _SPECS[key.field](**spec)
            except InvalidArgumentError as e:
                raise ConfigError(title, str(e)) from None
    crystal, band = fields["crystal"], fields["sweep_band"]
    if not math.isfinite(crystal.length_um):
        raise ConfigError("crystal.length_mm",
                          f"{crystal.length_mm:g} mm exceeds the float range "
                          f"in micrometres")
    if not 0.0 < band[0] < band[1] < 1.0:
        raise ConfigError("sweep", "need 0 < omega_min < omega_max < 1")
    try:
        sweep_grid(*band)
    except InvalidArgumentError as e:
        raise ConfigError("sweep.steps", str(e)) from None
    # the pair gain amplifies the vacuum intensity like exp(2 g L); a
    # quarter of the float exponent range keeps intensities, their
    # products and sampled vacuum fluctuations finite
    max_gain_length = math.log(sys.float_info.max) / 4
    if crystal.gain_per_mm * crystal.length_mm > max_gain_length:
        raise ConfigError("crystal.gain_per_mm", f"times crystal.length_mm "
                          f"must not exceed {max_gain_length:.6g}")
    for name in raw:
        raise ConfigError(name, "unknown key")
    return RunConfig(**fields)


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".17g")
    return str(value)


_BLOCK_ROWS = 8192
# the rows a column source formats at once: the kernel's temporaries
# stay small and in cache
_FORMAT_ROWS = 1024


def _json_rows(header, rows) -> str:
    """json.dump's text of rows as dicts (indent=2, sort_keys=True, NaN
    cells null), without the brackets."""
    payload = [{k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in zip(header, row)} for row in rows]
    # strip the list's own "[\n" and "\n]"
    return json.dumps(payload, indent=2, sort_keys=True)[2:-2]


def _json_lines(header, columns) -> str:
    """_json_rows's text of the rows of 2-D int and float columns.

    With every cell finite, it is one %-operation on the repeated layout
    of a row, the keys sorted, %d for an int and %r (float.__repr__, as
    json writes a float) for a float.
    """
    cells = np.concatenate(columns, axis=1, dtype=object)
    if not all(np.isfinite(c).all() for c in columns):
        return _json_rows(header, cells.tolist())
    kinds = [c.dtype.kind for c in columns for _ in range(c.shape[1])]
    order = sorted(range(len(header)), key=header.__getitem__)
    row = "  {\n" + ",\n".join(
        f"    {json.dumps(header[k]).replace('%', '%%')}: "
        + ("%d" if kinds[k] == "i" else "%r") for k in order) + "\n  }"
    return ",\n".join([row] * len(cells)) % tuple(
        cells[:, order].ravel().tolist())


def _csv_lines(columns) -> str:
    """The CSV lines of the rows of 2-D int and float columns, the bytes
    of the per-cell rule (_fmt).

    digits writes each cell's text; a row with a cell it leaves undecided
    (exponent form, subnormal or not finite) goes through _fmt instead.
    """
    # imported here: its tables (0.6 MiB of peak RSS) serve column
    # sources alone
    from . import digits
    rows = len(columns[0])
    slots = np.empty((rows, sum(c.shape[1] for c in columns), digits.SLOT),
                     np.uint8)
    decided, at = np.ones(rows, bool), 0
    for c in columns:
        out = slots[:, at:at + c.shape[1]]
        at += c.shape[1]
        if c.dtype.kind == "i":
            digits.int_cells(np.asarray(c, np.int64), out)
        else:
            decided &= digits.float_cells(np.asarray(c, np.float64),
                                          out).all(axis=1)
    slots[:, :, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")

    def text(first, stop):
        """The kernel's text of rows [first, stop), their NULs dropped."""
        cells = slots[first:stop].ravel()
        return np.compress(cells != 0, cells).tobytes().decode("ascii")

    # each undecided row's _fmt line goes between the decided stretches
    pieces, done = [], 0
    for row in np.flatnonzero(~decided).tolist():
        pieces += [text(done, row),
                   ",".join(_fmt(v) for c in columns for v in c[row].tolist())
                   + "\n"]
        done = row + 1
    pieces.append(text(done, rows))
    return "".join(pieces)


def _write_rows(fh, fmt, header, rows) -> int:
    """Write the text of rows, _BLOCK_ROWS at a time, every cell through
    _fmt or json.dump, and return the rows written."""
    it, written = iter(rows), 0
    while block := list(islice(it, _BLOCK_ROWS)):
        if fmt == "json":
            fh.write(("\n" if written == 0 else ",\n")
                     + _json_rows(header, block))
        else:
            fh.writelines(",".join(_fmt(v) for v in row) + "\n"
                          for row in block)
        written += len(block)
    return written


def _write_share(fh, fmt, header, pieces_of, start, stop) -> None:
    """The text of rows [start, stop) of a column source.

    pieces_of(start, stop) yields the rows' columns piece by piece; each
    piece is formatted _FORMAT_ROWS rows at a time.  A JSON chunk follows
    ",\n", or "\n" when it holds row 0.
    """
    for piece in pieces_of(start, stop):
        columns = [c[:, None] if c.ndim == 1 else c for c in piece]
        rows = len(columns[0])
        for first in range(0, rows, _FORMAT_ROWS):
            chunk = [c[first:first + _FORMAT_ROWS] for c in columns]
            if fmt == "json":
                fh.write(("\n" if start + first == 0 else ",\n")
                         + _json_lines(header, chunk))
            else:
                fh.write(_csv_lines(chunk))
        start += rows


# a share-writer process's table: (fmt, header, pieces_of, share file
# descriptors), set by _start_share_writer in the forked child only
_share_table = None


def _start_share_writer(*table) -> None:
    global _share_table
    _share_table = table


def _pool_share(index, start, stop) -> None:
    """Write rows [start, stop) to share file `index`."""
    fmt, header, pieces_of, fds = _share_table
    with open(fds[index], "w", newline="", closefd=False) as fh:
        _write_share(fh, fmt, header, pieces_of, start, stop)


def _write_columns(fh, fmt, header, rows, pieces_of, workers,
                   directory) -> None:
    """Write the `rows` rows of a column source on up to `workers`
    processes.

    The rows split into min(workers, blocks) contiguous shares of whole
    _BLOCK_ROWS blocks.  The calling thread writes share 0 to `fh`; with
    one share no pool starts.  Otherwise each later share is written by
    a forked process to its own unnamed temp file in `directory` while
    this thread writes share 0, and the files are then copied into `fh`
    in order, so no process holds the whole columns or their text.  The
    files are made before the pool, so an OSError making them (the
    open-file limit, say) is a ConfigError on `workers` before any
    writer starts.  Fork passes pieces_of to the children without
    pickling; each child makes, formats and writes its own rows.  The
    pool forks all its writers at the first submit, before this thread
    writes.  A child that draws Philox and maps through BLAS uses its
    own generators, and OpenBLAS shuts its thread pool down before a
    fork (its own atfork handler) and starts it again when next needed.
    """
    blocks = -(-rows // _BLOCK_ROWS)
    shares = min(workers, blocks)
    if shares <= 1:
        _write_share(fh, fmt, header, pieces_of, 0, rows)
        return
    # imported here: ~8 ms of start-up that only a table of several
    # shares needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    bounds = [min(rows, blocks * k // shares * _BLOCK_ROWS)
              for k in range(shares + 1)]
    with ExitStack() as stack:
        try:
            parts = [stack.enter_context(tempfile.TemporaryFile(
                dir=directory)) for _ in range(shares - 1)]
        except OSError as e:
            raise ConfigError("workers", f"{shares} share files: "
                              f"{e.strerror}") from None
        fh.flush()   # a forked child must not inherit buffered text
        with ProcessPoolExecutor(
                shares - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_share_writer,
                initargs=(fmt, header, pieces_of,
                          [part.fileno() for part in parts])) as pool:
            pending = [pool.submit(_pool_share, k, *bounds[k + 1:k + 3])
                       for k in range(shares - 1)]
            _write_share(fh, fmt, header, pieces_of, 0, bounds[1])
            for done in pending:
                done.result()
        fh.flush()   # share 0's last text must precede the share files
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer)


def write_table(path: str, fmt: str, header, rows, workers: int = 1) -> None:
    """Serialize a table atomically (.part file + rename).

    `rows` is a list of rows, or a column source, the tuple (n_rows,
    pieces_of): pieces_of(start, stop) yields rows [start, stop) as
    consecutive pieces, each a list of integer and float numpy arrays side
    by side (a 1-D array is one column, a 2-D array one per array column),
    made and formatted in up to `workers` processes, one contiguous share
    each (_write_columns).  Both give the same bytes.  The .part file is
    created beside `path` with mode 0o666, as open(path, "w") creates a
    file; ConfigError when `path` is a directory, a FIFO, a device or a
    socket, or the file cannot be created or renamed onto it.  `path` is
    checked with os.stat, never opened: opening a FIFO for writing would
    wait for a reader.  A symlink is replaced by the new file and its
    target left as it was; one to a FIFO, device or socket is refused.
    """
    if os.path.isdir(os.path.abspath(path)):  # "", a directory or "dir/"
        raise ConfigError("output.path", f"Is a directory: {path!r}")
    try:
        mode = os.stat(path).st_mode
    except OSError:   # nothing there yet: created below, or refused there
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        raise ConfigError("output.path", f"not a regular file: {path!r}")
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
                written = _write_rows(fh, fmt, header, rows)
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
    band = dp.Band(omegas, config.crystal)
    down, up = band.match("down"), band.match("up")
    n_down = int(np.count_nonzero(down.present))
    rows = np.stack([omegas, down.theta_internal[:, 0],
                     down.theta_external[:, 0], up.theta_internal[:, 0],
                     up.theta_external[:, 0], down.dk_down, up.dk_up],
                    axis=1).tolist()
    if n_down == 0:
        raise BandError("no frequency in the sweep band phase matches")
    write_table(config.output_path, config.output_format, header, rows)
    print(f"angles: {len(rows)} rows ({n_down} matched) -> "
          f"{config.output_path}")
    return EXIT_OK


def cmd_rainbow(config: RunConfig) -> int:
    """Full rainbow synthesis (both rainbows, both engines)."""
    lo, hi, steps = config.sweep_band
    table = sweep(lo, hi, steps, config.crystal, engine=config.engine,
                  trials=config.trials, seed=config.seed,
                  couplings=config.couplings, workers=config.workers)
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
    t = cp.squeeze_pair(gl, 0.0)
    means = mean_intensities(t.matrix[None], config.engine,
                             config.ratios_trials, config.seed,
                             config.workers)[0]
    low, high = (rates(mean, theta)
                 for mean, theta in zip(means, (th_lo, -th_hi)))
    return {
        "theta_low_deg": theta_low_deg,
        "theta_high_deg": theta_high_deg,
        "engine": config.engine,
        "rate_ratio": float(down_ratios(low, high)),
        "cosine_ratio": math.cos(th_hi) / math.cos(th_lo),
        "photon_theory_ratio": 1.0,
    }


def physical_ratio_report(config: RunConfig, omega: float) -> dict:
    """Eq.-style rate ratios at one matched frequency.

    The down-conversion ratio uses the pair process alone; the
    up-conversion entry reports the signed above-zeropoint value of the
    upper channel, its clamped rate, and the signed ratio, each NaN where
    the satellite is absent.
    """
    found = columns([omega], config.crystal, config.couplings, config.engine,
                    config.ratios_trials, config.seed, config.workers,
                    per_point=False)
    present(found.main.reasons.get(0))
    point = RainbowPoint(*found.table[0].tolist())
    main, sat = (g.theta_external[0].tolist()
                 for g in (found.main, found.satellite))
    above, rate, _ = found.satellite_rates   # modes w, w0 - w, w0 + w
    return {
        "omega": omega,
        "engine": config.engine,
        "eq1_ratio": point.eq1_ratio,
        "eq1_cosine_ratio": math.cos(main[1]) / math.cos(main[0]),
        "photon_theory_ratio": 1.0,
        "lower_above_zeropoint": float(above[0, 0]),
        "upper_above_zeropoint": point.upper_above_zeropoint,
        "upper_clamped_rate": float(rate[0, 2]),
        "eq2_cosine_ratio": -(math.cos(sat[2]) / math.cos(sat[0])),
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
    piece by piece (vacuum_pieces), maps each piece in place and formats
    it.
    """
    system = pdc_system(config.crystal, config.ratios_omega, config.couplings)
    t = None if raw_vacuum else cp.integrate_three_wave(system)

    def pieces_of(start, stop):
        for amplitudes in vacuum_pieces(len(system.modes), config.trials,
                                        config.seed, start, stop):
            if t is not None and start > 0 and len(amplitudes) == 1:
                # a one-row map (gemv) misses the whole-table product's
                # last bits: a lone row of a longer table is mapped stacked
                # with itself
                amplitudes = cp.apply(t, np.repeat(amplitudes, 2, axis=0))[:1]
            elif t is not None:
                cp.apply(t, amplitudes, out=amplitudes)
            rows = len(amplitudes)
            # the float view of the (rows x 3) complex piece is its re, im
            # columns in header order, with no copy
            yield np.arange(start, start + rows), amplitudes.view(np.float64)
            start += rows

    header = ("trial", "w_re", "w_im", "s_re", "s_im", "u_re", "u_im")
    write_table(config.output_path, config.output_format, header,
                (config.trials, pieces_of), config.workers)
    print(f"simulate: {config.trials} trials -> {config.output_path}")
    return EXIT_OK


# flag -> (the RunConfig fields it sets, its argparse keywords); a flag
# with no field goes to the command's run function as a keyword argument
_FLAGS = {key.flag: (tuple(k.field for k in _SCHEMA if k.flag == key.flag),
                     key.kind.parse) for key in _SCHEMA if key.flag}
_FLAGS.update({"--theta-low-deg": ((), dict(type=float)),
               "--theta-high-deg": ((), dict(type=float)),
               "--raw-vacuum": ((), dict(action="store_true"))})

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built once per process."""
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
    trials = "trials"   # the key that sized the run's vacuum
    try:
        config = replace(load_config(args["config"]), **overrides)
        if run is cmd_ratios and config.ratios_trials != config.trials:
            trials = "ratios.trials"
        return run(config, **options)
    except (ConfigError, InvalidArgumentError) as e:
        if getattr(e, "field", None) == "trials":
            e = str(e).replace("trials", trials, 1)
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSolutionError, DomainError) as e:
        print(f"no solution: {e}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except StatisticalError as e:
        print(f"statistical precondition: {e}", file=sys.stderr)
        return EXIT_STATISTICAL
    except MemoryError:  # sampled vacua raise ConfigError on their trials
        key = ("sweep.steps" if args["command"] in ("angles", "rainbow")
               else trials)
        print(f"config error: {key}: the run exceeds memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
