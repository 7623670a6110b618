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
order in which blocks are filled.  One block fill serves both Monte Carlo
products: sample_vacuum fills the amplitude table in place, sampled_state
reduces each block to its second moments and returns them as a
GaussianState, the sampled twin of vacuum_state.  Blocks run on up to
`workers` threads, one block at a time each; in sampled_state each worker
holds one (2**16 x 2M) float64 buffer (3 MiB for M = 3 modes), allocated
by the caller and reused for every block that worker fills.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import SimpleQueue

import numpy as np

from .errors import InvalidArgumentError, NotFoundError

ORDINARY = "ordinary"
EXTRAORDINARY = "extraordinary"

ROLES = ("input", "signal", "pump")

# trials per RNG stream; fixed so block boundaries are part of the contract
_BLOCK = 1 << 16
# rows per draw of one stream through the block fill's 64 KiB scratch
_PIECE = 4096


@dataclass(frozen=True)
class Mode:
    """One plane-wave mode of the field.

    omega is the angular frequency as a fraction of the pump frequency
    (pump modes have omega == 1), angles are in radians and signed by the
    transverse direction, polarization is 'ordinary' or 'extraordinary'.
    """

    omega: float
    theta_external: float
    theta_internal: float
    polarization: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise InvalidArgumentError(f"unknown mode role {self.role!r}")
        if self.polarization not in (ORDINARY, EXTRAORDINARY):
            raise InvalidArgumentError(
                f"unknown polarization {self.polarization!r}")
        if self.role == "pump":
            if self.omega != 1.0:
                raise InvalidArgumentError("pump modes must have omega == 1")
        elif not 0.0 < self.omega < 2.0:
            raise InvalidArgumentError(
                f"omega must lie in (0, 2), got {self.omega}")
        for name in ("omega", "theta_external", "theta_internal"):
            if not np.isfinite(getattr(self, name)):
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


def _fill_block(out: np.ndarray, seed: int, block_index: int) -> None:
    """Write the raw N(0, 1) draws of one trial block into `out`.

    `out` is a (length, 2M) float64 view, (Re, Im) interleaved per mode:
    columns 2m and 2m + 1 take mode m's Philox stream, drawn row by row.
    A column pair is not contiguous, which Generator.standard_normal(out=)
    requires, so each stream is drawn in _PIECE-row pieces through one
    scratch; pieces of one stream are the numbers of one call.
    """
    length = out.shape[0]
    scratch = np.empty((min(length, _PIECE), 2))
    for m in range(out.shape[1] // 2):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(m, block_index))))
        # interleaved draws keep each trial at a fixed stream position,
        # so a short final block is a prefix of the full block
        for start in range(0, length, _PIECE):
            piece = scratch[:min(_PIECE, length - start)]
            rng.standard_normal(out=piece)
            out[start:start + len(piece), 2 * m:2 * m + 2] = piece


def trial_blocks(n_trials: int):
    """The fixed block grid: (block_index, start, stop) triples."""
    if n_trials < 1:
        raise InvalidArgumentError("n_trials must be >= 1")
    return [(b, start, min(start + _BLOCK, n_trials))
            for b, start in enumerate(range(0, n_trials, _BLOCK))]


def _block_map(fn, blocks, workers: int) -> list:
    """fn(block_index, start, stop) for every block, results in block order.

    min(workers, len(blocks)) threads share the blocks; when that is one,
    the blocks run in the calling thread and no pool starts.  Since each
    block's numbers depend only on its index, the results are identical
    for any worker count.
    """
    if workers < 1:
        raise InvalidArgumentError("workers must be >= 1")
    threads = min(workers, len(blocks))
    if threads == 1:
        return [fn(*block) for block in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda block: fn(*block), blocks))


def sample_vacuum(n_modes: int, n_trials: int, seed: int,
                  workers: int = 1) -> np.ndarray:
    """Draw the vacuum: an (n_trials, n_modes) complex128 amplitude table.

    Each quadrature is N(0, 1/2), independent across modes and trials.
    `workers` only controls how many threads fill the table; the result is
    bit-identical for any worker count.
    """
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    blocks = trial_blocks(n_trials)
    table = np.empty((n_trials, n_modes), dtype=np.complex128)
    parts = table.view(np.float64)

    def fill(b, start, stop):
        _fill_block(parts[start:stop], seed, b)
        # Re/Im std 1/2 <=> quadrature variance 1/2
        parts[start:stop] *= 0.5

    _block_map(fill, blocks, workers)
    return table


def sampled_state(n_modes: int, trials: int, seed: int,
                  workers: int = 1) -> GaussianState:
    """Monte Carlo twin of vacuum_state: the sampled vacuum's raw moments.

    Draws the same amplitudes as sample_vacuum(n_modes, trials, seed), but
    reduces each trial block to one real product x^T x of its raw
    (Re, Im)-interleaved draws and never holds the table.  Each worker
    fills one reusable (2**16, 2M) float64 block buffer, allocated here in
    the calling thread, so memory is one block per worker whatever the
    trial count.
    The summed products, reordered to xxpp and scaled, form a zero-mean
    GaussianState whose covariance is the raw sample second moment of the
    quadratures, so propagate_covariance(t, state).mode_intensity(i) is
    the trial mean of |(T alpha)_i|^2 up to rounding.  Partials are summed
    in block order, so the state is bit-identical for any worker count.
    """
    blocks = trial_blocks(trials)
    longest = blocks[0][2]
    buffers = SimpleQueue()
    for _ in range(min(workers, len(blocks))):
        buffers.put(np.empty((longest, 2 * n_modes)))

    def moments(b, start, stop):
        buffer = buffers.get()
        x = buffer[:stop - start]
        _fill_block(x, seed, b)
        product = x.T @ x
        buffers.put(buffer)
        return product

    total = np.zeros((2 * n_modes, 2 * n_modes))
    for part in _block_map(moments, blocks, workers):
        total += part
    # columns (Re a_1, Im a_1, ...) -> xxpp; the amplitude parts are half
    # the raw draws and x = sqrt(2) Re a, so the quadrature moments are
    # half the raw-draw moments (both scales are powers of two: exact)
    xxpp = np.r_[0:2 * n_modes:2, 1:2 * n_modes:2]
    return GaussianState(total[np.ix_(xxpp, xxpp)] * (0.5 / trials))

