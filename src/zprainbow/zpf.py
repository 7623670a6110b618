"""Zeropoint (vacuum) field representation and sampling.

Conventions
-----------
Every plane-wave mode carries a complex amplitude alpha.  Quadratures are
x = sqrt(2) Re(alpha), p = sqrt(2) Im(alpha), so the vacuum has

    Var(x) = Var(p) = 1/2,    <|alpha|^2> = (Var(x) + Var(p)) / 2 = 1/2.

All intensities in the package are |alpha|^2 in these zeropoint units: the
mean vacuum intensity per mode is exactly 1/2.  Exact Gaussian states store
only the quadrature covariance matrix, in xxpp ordering (x_1..x_M,
p_1..p_M): every state is zero-mean, because the vacuum is, the crystal
maps are linear and carry no displacement, and a sampled state keeps raw
second moments about zero.  The M-mode vacuum has covariance
(1/2) * identity.

Monte Carlo sampling draws the vacuum as a plain (n_trials, n_modes)
complex128 array of amplitudes, one row per trial; |alpha|^2 of a column
is a.real**2 + a.imag**2.  It uses one counter-based Philox stream per
(mode, trial-block) pair, every stream keyed from the master seed.  Trials
are tiled into fixed blocks of 2**16, so the amplitude table depends only on
(seed, n_modes, n_trials) - never on scheduling, worker count, or the
order in which blocks are filled, and any rows of it can be drawn on
their own.  A block is drawn in two steps: its M streams are opened
(_open_block), then each is drawn on from where it stopped (_draw).

One block fill (_fill_block, both steps at once) serves two products:
vacuum_rows fills rows [start, stop) of the amplitude table in place from
the blocks that overlap them (sample_vacuum is its whole-table call), and
sampled_states reduces each block to its second moments, one covariance
per seed in a plain (seeds, 2M, 2M) array, all seeds' blocks in one pass
on up to `workers` threads.  Each worker reuses a caller-allocated
(2**14 x 2) float64 scratch (256 KiB), which a mode's stream fills again
and again, and, in sampled_states, a (2**16 x 2M) block buffer (3 MiB for
M = 3 modes).  Each scratch fill moves into the block as one complex128
column, its (Re, Im) pair.

The piece stream, vacuum_pieces, yields rows [start, stop) in pieces of
at most 2**15 rows, half a block (1.5 MiB at M = 3); a piece never
crosses a block, and each block's streams are opened once and carried
from piece to piece.  simulate's share writers draw, map and format their
rows piece by piece from it: a writer holds one piece while it formats,
and the one before as well while it draws the next.  Each piece is a new
array, since a caller may keep a piece while it asks for the next.  The
piece size and that overlap keep glibc's malloc from handing a piece's
pages back to the kernel and faulting them in again for the next one.
Minor page faults per perfbench simulate-csv pass, in the calling
process and in the forked writer (2 vCPU, glibc's default malloc
settings): 2.4k and 2.6k with 2**15-row pieces, as with whole 2**16-row
spans (2.7k and 2.5k); 4.1k and 4.4k when each piece was let go before
the next was allocated; 25-29k each with 2**13- or 2**14-row pieces,
whose passes took 1.2x as long.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import SimpleQueue

import numpy as np

from .errors import ConfigError, InvalidArgumentError, NotFoundError

ORDINARY = "ordinary"
EXTRAORDINARY = "extraordinary"

# trials per RNG stream; fixed so block boundaries are part of the contract
TRIAL_BLOCK = 1 << 16
# rows of a stream drawn per standard_normal call; any size gives the same
# draws
_DRAW_ROWS = 1 << 14
# the most rows in one piece of vacuum_pieces: half a trial block, 1.5 MiB
# at 3 modes; not below 2**15 (see the module docstring)
_PIECE_ROWS = 1 << 15


@dataclass(frozen=True)
class Mode:
    """One plane-wave mode of the field.

    omega is the angular frequency as a fraction of the pump frequency,
    in (0, 2), angles are in radians and signed by the transverse
    direction, polarization is 'ordinary' or 'extraordinary'.
    """

    omega: float
    theta_external: float
    theta_internal: float
    polarization: str

    def __post_init__(self):
        if self.polarization not in (ORDINARY, EXTRAORDINARY):
            raise InvalidArgumentError(
                f"unknown polarization {self.polarization!r}")
        if not 0.0 < self.omega < 2.0:
            raise InvalidArgumentError(
                f"omega must lie in (0, 2), got {self.omega}")
        for name in ("omega", "theta_external", "theta_internal"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")


@dataclass
class GaussianState:
    """Exact zero-mean Gaussian (Wigner) state: the quadrature covariance.

    xxpp ordering; the vacuum covariance is (1/2) * identity.
    """

    covariance: np.ndarray

    def __post_init__(self):
        c = self.covariance = np.asarray(self.covariance, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2:
            raise InvalidArgumentError(
                f"covariance must be square of even size, got {c.shape}")
        check_symmetric(c)

    @property
    def n_modes(self) -> int:
        return self.covariance.shape[0] // 2

    def mode_intensity(self, index: int) -> float:
        """Mean |alpha|^2 of one mode, (<x^2> + <p^2>) / 2."""
        m = self.n_modes
        if not 0 <= index < m:
            raise NotFoundError(f"mode index {index} out of range")
        return mode_intensities(self.covariance)[index]


def check_symmetric(covariances: np.ndarray) -> np.ndarray:
    """The covariance matrix, or stack of them along the leading axes,
    unchanged; InvalidArgumentError unless each is symmetric to 1e-12."""
    c, ct = covariances, np.swapaxes(covariances, -1, -2)
    # np.allclose(c, c.T, atol=1e-12, rtol=0) at a fifth of its cost
    with np.errstate(invalid="ignore"):  # inf - inf, passed by c == c.T
        symmetric = ((c == ct) | (np.abs(c - ct) <= 1e-12)).all()
    if not symmetric:
        raise InvalidArgumentError("covariance must be symmetric to 1e-12")
    return covariances


def mode_intensities(covariances: np.ndarray) -> np.ndarray:
    """Mean |alpha|^2 of every mode, (<x^2> + <p^2>) / 2, of a covariance
    matrix or of each of a stack of them: shape (..., M)."""
    d = np.diagonal(covariances, axis1=-2, axis2=-1)
    m = d.shape[-1] // 2
    return 0.5 * (d[..., :m] + d[..., m:])


def vacuum_state(n_modes: int) -> GaussianState:
    """The M-mode vacuum: covariance (1/2) * identity."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    return GaussianState(0.5 * np.eye(2 * n_modes))


def _open_block(seed: int, n_modes: int, block_index: int) -> list:
    """One trial block's n_modes Philox streams, each at its row 0."""
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=(m, block_index)))) for m in range(n_modes)]


def _draw(streams, out, scratch, first: int = 0) -> None:
    """Draw the next first + len(out) rows of each stream, dropping the
    first `first`, into `out`.

    `out` is a C-contiguous (length, 2M) float64 array, (Re, Im)
    interleaved per mode: columns 2m and 2m + 1 take stream m row by row.
    Each stream is drawn len(scratch) rows at a time into the contiguous
    (rows, 2) `scratch` that standard_normal(out=) needs; a generator
    carries its stream on from call to call, so the rows do not depend on
    the scratch size or on how a block's rows are split between calls.
    Each scratch fill moves into `out` as one complex128 column of it
    viewed as (length, M) complex128: the same bytes as the 2-wide strided
    float64 column pair, which numpy copies element by element at several
    times the cost.
    """
    stop, step = first + len(out), len(scratch)
    drawn = scratch.view(np.complex128)[:, 0]
    pairs = out.view(np.complex128)
    for m, stream in enumerate(streams):
        for lo in range(0, stop, step):
            hi = min(stop, lo + step)
            stream.standard_normal(out=scratch[:hi - lo])
            if hi > first:
                skip = max(first - lo, 0)
                pairs[lo + skip - first:hi - first, m] = drawn[skip:hi - lo]


def _fill_block(out, scratch, seed: int, block_index: int,
                first: int = 0) -> None:
    """Write rows [first, first + len(out)) of one trial block's raw
    N(0, 1) draws into `out`, laid out as _draw lays it out; a short block
    is a prefix of the full one."""
    _draw(_open_block(seed, out.shape[1] // 2, block_index), out, scratch,
          first)


def trial_blocks(n_trials: int):
    """The fixed block grid: (block_index, start, stop) triples."""
    if n_trials < 1:
        raise InvalidArgumentError("n_trials must be >= 1")
    return [(b, start, min(start + TRIAL_BLOCK, n_trials))
            for b, start in enumerate(range(0, n_trials, TRIAL_BLOCK))]


def _block_map(fn, tasks, workers: int, shapes) -> list:
    """fn(*buffers, *task) for every task, results in task order.

    min(workers, len(tasks)) threads share the tasks; one runs them in the
    calling thread, without a pool.  Each thread holds one float64 buffer
    per shape, allocated in the calling thread (glibc keeps a thread's
    allocations in its own arena) and returned even when fn raises.  If
    only some threads' buffers fit, the error is a ConfigError on workers.
    """
    if workers < 1:
        raise InvalidArgumentError("workers must be >= 1")
    threads = min(workers, len(tasks))
    free = SimpleQueue()
    try:
        for _ in range(threads):
            free.put([np.empty(shape) for shape in shapes])
    except MemoryError:
        if free.empty():
            raise
        raise ConfigError("workers", f"{workers} workers' block buffers "
                          "exceed memory") from None

    def run(task):
        buffers = free.get()
        try:
            return fn(*buffers, *task)
        finally:
            free.put(buffers)

    if threads <= 1:
        return [run(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, tasks))


def _overlapping_blocks(n_modes: int, n_trials: int, start: int,
                        stop: int) -> list:
    """The blocks that overlap rows [start, stop) of the vacuum table:
    (block_index, block start, first row, stop row) tuples."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    grid = trial_blocks(n_trials)
    if not 0 <= start <= stop <= n_trials:
        raise InvalidArgumentError(
            f"rows [{start}, {stop}) are not within {n_trials} trials")
    return [(b, lo, max(lo, start), min(hi, stop))
            for b, lo, hi in grid if start < hi and lo < stop]


def vacuum_rows(n_modes: int, n_trials: int, seed: int, start: int,
                stop: int, workers: int = 1) -> np.ndarray:
    """Rows [start, stop) of the vacuum table of n_trials trials, byte for
    byte: a (stop - start, n_modes) complex128 array.

    Only the trial blocks that overlap the rows are drawn, each up to its
    last row needed, on up to `workers` threads; a block that starts
    before `start` drops its rows before it.  The rows do not depend on
    the range they are drawn in, nor on the worker count.
    """
    blocks = _overlapping_blocks(n_modes, n_trials, start, stop)
    rows = np.empty((stop - start, n_modes), dtype=np.complex128)
    parts = rows.view(np.float64)

    def fill(scratch, b, lo, first, last):
        out = parts[first - start:last - start]
        _fill_block(out, scratch, seed, b, first - lo)
        # Re/Im std 1/2 <=> quadrature variance 1/2
        out *= 0.5

    _block_map(fill, blocks, workers, [(_DRAW_ROWS, 2)])
    return rows


def vacuum_pieces(n_modes: int, n_trials: int, seed: int, start: int,
                  stop: int):
    """Rows [start, stop) of the vacuum table of n_trials trials, byte for
    byte, as consecutive (rows, n_modes) complex128 pieces of at most
    _PIECE_ROWS rows: joined in order they are vacuum_rows(n_modes,
    n_trials, seed, start, stop).

    A piece never crosses a trial block.  Each overlapping block's
    streams are opened once and carried from piece to piece, so no row is
    drawn twice; the first block drops its rows before `start`.  Each
    piece is a new array; the generator lets go of a piece once the next
    one is allocated.
    """
    blocks = _overlapping_blocks(n_modes, n_trials, start, stop)
    scratch = np.empty((_DRAW_ROWS, 2))
    for b, lo, first, last in blocks:
        streams, dropped = _open_block(seed, n_modes, b), first - lo
        for at in range(first, last, _PIECE_ROWS):
            parts = np.empty((min(last, at + _PIECE_ROWS) - at, 2 * n_modes))
            _draw(streams, parts, scratch, dropped)
            parts *= 0.5
            dropped = 0
            yield parts.view(np.complex128)


def sample_vacuum(n_modes: int, n_trials: int, seed: int,
                  workers: int = 1) -> np.ndarray:
    """Draw the vacuum: an (n_trials, n_modes) complex128 amplitude table,
    the whole-table call of vacuum_rows.

    Each quadrature is N(0, 1/2), independent across modes and trials.
    `workers` only controls how many threads fill the table; the result is
    bit-identical for any worker count.
    """
    return vacuum_rows(n_modes, n_trials, seed, 0, n_trials, workers)


def sampled_states(n_modes: int, trials: int, seeds,
                   workers: int = 1) -> np.ndarray:
    """Monte Carlo twins of vacuum_state's covariance: an (S, 2M, 2M)
    stack whose row k holds the raw moments of the draws of
    sample_vacuum(n_modes, trials, seeds[k]).

    Each trial block is reduced to one real product x^T x of its raw
    (Re, Im)-interleaved draws; no table is held.  A seed's products,
    summed in block order (bit-identical for any worker count and other
    seeds), reordered to xxpp and scaled, are the quadratures' raw second
    moments: propagate_covariances(matrices, row) gives the trial means of
    |(T alpha)_i|^2 up to rounding.
    """
    blocks = trial_blocks(trials)
    longest = blocks[0][2]

    def moments(buffer, scratch, seed, b, start, stop):
        x = buffer[:stop - start]
        _fill_block(x, scratch, seed, b)
        # x.T @ x's bits, but np.dot lets go of the GIL in BLAS, where
        # matmul holds it and stalls the other threads' draws
        return np.dot(x.T, x)

    parts = _block_map(
        moments, [(seed, *block) for seed in seeds for block in blocks],
        workers, [(longest, 2 * n_modes), (_DRAW_ROWS, 2)])
    # columns (Re a_1, Im a_1, ...) -> xxpp; the amplitude parts are half
    # the raw draws and x = sqrt(2) Re a, so the quadrature moments are
    # half the raw-draw moments (both scales are powers of two: exact)
    xxpp = np.r_[0:2 * n_modes:2, 1:2 * n_modes:2]
    zero = np.zeros((2 * n_modes, 2 * n_modes))
    return np.reshape([sum(parts[i:i + len(blocks)], zero)[
        np.ix_(xxpp, xxpp)] * (0.5 / trials)
        for i in range(0, len(parts), len(blocks))],
        (-1, 2 * n_modes, 2 * n_modes))


def sampled_state(n_modes: int, trials: int, seed: int,
                  workers: int = 1) -> GaussianState:
    """The one-seed call of sampled_states, as a GaussianState."""
    return GaussianState(sampled_states(n_modes, trials, [seed], workers)[0])
