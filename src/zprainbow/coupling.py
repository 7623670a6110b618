"""The pumped crystal as a linear map on mode amplitudes.

All transforms act on the stacked vector (alpha_1..alpha_M,
alpha_1*..alpha_M*) as

    [alpha'; alpha'*] = [[U, V], [V*, U*]] [alpha; alpha*],

so the lower blocks are conjugates of the upper ones and a physical
(symplectic) map satisfies U U+ - V V+ = 1 and U V^T symmetric.  Pair
creation (down conversion) lives in V, passive exchange (up conversion)
in U.

The three-wave system couples the triple (w, w0-w, w0+w) through an
undepleted classical pump:

    d a_w  / dz =  g_d e^{i phi_d} e^{+i dk_d z} a_s*  -  g_u e^{-i phi_u} e^{-i dk_u z} a_u
    d a_s  / dz =  g_d e^{i phi_d} e^{+i dk_d z} a_w*
    d a_u  / dz =  g_u e^{i phi_u} e^{+i dk_u z} a_w

with s = w0-w, u = w0+w; dk_* are longitudinal wavevector mismatches.
The mismatch phases are the only z-dependence, so in a frame rotating
with them the generator is constant and the exact transform is one
matrix exponential, with no step count.  three_wave_matrices builds the
transforms of many systems (a whole band) in one array pass from their
coupling columns, over one stacked exponential in which every item keeps
its own number of squarings; integrate_three_wave is its one-system
call.  Likewise propagate_covariances moves a covariance, one for the
whole stack or one per transform, through a whole stack of transforms in
one product, and propagate_covariance is its one-transform call on a
GaussianState.
apply maps a Monte Carlo amplitude table in fixed row blocks, into a new
table or in place, so a caller that holds one table needs only one
block's temporaries beside it.  The generator is a valid Bogoliubov
generator (the passive part is anti-Hermitian, the pair part
symmetric), so the map is symplectic for every mismatch; with dk = 0 the
up leg reduces to the convert_pair closed form and the down leg to
squeeze_pair.
A variant coupling model would plug in here as a different generator;
everything downstream only consumes the resulting transform.

Lengths are millimetres at the interface (matching CrystalSpec) and
mismatches 1/um.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .zpf import GaussianState, check_symmetric

# rows per block of apply: 192 KiB of a 3-mode table.  OpenBLAS runs a
# complex product of M*N*K > 65,536 on its thread pool, which then spins
# on after the product (a 3-mode block of 7282 rows or more wakes it);
# 4096 rows keep every block on the calling thread, in each forked
# simulate writer too.  Blocks of 1024-8192 rows all give the whole-table
# product's bits.
_APPLY_ROWS = 4096


@dataclass(frozen=True)
class BogoliubovTransform:
    """Linear input->output map on stacked mode amplitudes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise InvalidArgumentError("transform matrix must be 2M x 2M")
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def u(self) -> np.ndarray:
        m = self.n_modes
        return self.matrix[:m, :m]

    @property
    def v(self) -> np.ndarray:
        m = self.n_modes
        return self.matrix[:m, m:]

    def conjugation_defect(self) -> float:
        """Deviation of the lower blocks from the conjugate structure."""
        m = self.n_modes
        lower = self.matrix[m:, :]
        expect = np.hstack([self.matrix[:m, m:].conj(), self.matrix[:m, :m].conj()])
        return float(np.max(np.abs(lower - expect)))

    def symplectic_defect(self) -> float:
        """Worst entry of |U U+ - V V+ - 1| and |U V^T - (U V^T)^T|."""
        u, v = self.u, self.v
        d1 = u @ u.conj().T - v @ v.conj().T - np.eye(self.n_modes)
        d2 = u @ v.T - v @ u.T
        return float(max(np.max(np.abs(d1)), np.max(np.abs(d2))))

    def inverse(self) -> "BogoliubovTransform":
        """Closed-form inverse of a symplectic map."""
        u, v = self.u, self.v
        top = np.hstack([u.conj().T, -v.T])
        bot = np.hstack([-v.conj().T, u.T])
        return BogoliubovTransform(np.vstack([top, bot]))


def _from_blocks(u, v) -> BogoliubovTransform:
    top = np.hstack([u, v])
    bot = np.hstack([v.conj(), u.conj()])
    return BogoliubovTransform(np.vstack([top, bot]))


def squeeze_pair(r: float, phi: float, n_modes: int = 2,
                 pair: tuple = (0, 1)) -> BogoliubovTransform:
    """Two-mode squeezer: a_i -> a_i cosh(r) + e^{i phi} a_j* sinh(r).

    Acts on the `pair` of an n_modes register, identity elsewhere.
    """
    if r < 0:
        raise InvalidArgumentError("squeeze magnitude must be >= 0")
    i, j = pair
    u = np.eye(n_modes, dtype=complex)
    v = np.zeros((n_modes, n_modes), dtype=complex)
    u[i, i] = u[j, j] = math.cosh(r)
    v[i, j] = v[j, i] = np.exp(1j * phi) * math.sinh(r)
    return _from_blocks(u, v)


def convert_pair(kappa: float, phi: float, n_modes: int = 2,
                 pair: tuple = (0, 1)) -> BogoliubovTransform:
    """Passive exchange: a_u -> a_u cos(k) + e^{i phi} a_w sin(k),
    a_w -> a_w cos(k) - e^{-i phi} a_u sin(k).

    `pair` is (w, u); total intensity is conserved trial by trial.
    """
    if kappa < 0:
        raise InvalidArgumentError("conversion angle must be >= 0")
    w, up = pair
    u = np.eye(n_modes, dtype=complex)
    u[w, w] = u[up, up] = math.cos(kappa)
    u[up, w] = np.exp(1j * phi) * math.sin(kappa)
    u[w, up] = -np.exp(-1j * phi) * math.sin(kappa)
    return _from_blocks(u, np.zeros((n_modes, n_modes), dtype=complex))


@dataclass(frozen=True)
class ThreeWaveSystem:
    """Couplings, phases and mismatches for one (w, w0-w, w0+w) triple.

    modes may carry the Mode objects behind the triple (or None for
    abstract use); g_* are per mm, dk_* per um, length in mm.
    """

    g_down: float
    g_up: float
    phi_down: float
    phi_up: float
    dk_down: float
    dk_up: float
    length_mm: float
    modes: tuple | None = None

    def __post_init__(self):
        if self.g_down < 0 or self.g_up < 0:
            raise InvalidArgumentError("couplings must be >= 0")
        if self.length_mm <= 0:
            raise InvalidArgumentError("length_mm must be > 0")


# 1/k!, the coefficients of _expm's degree-20 Taylor polynomial
_TAYLOR = [1.0 / math.factorial(k) for k in range(21)]
_DIAG = [0, 1, 2], [0, 1, 2]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of every item of two (3, 3, N) stacks of 3x3 matrices."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1] + a[:, 2, None] * b[2]


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) of every matrix of a (3, 3, N) stack, items on the last axis,
    by scaling and squaring of a truncated Taylor series.

    Each x is scaled by its own 2^-s so that its 1-norm is below 1, where
    20 Taylor terms leave a remainder under 1e-19.  Paterson-Stockmeyer
    sums them in 7 products: X^2, X^3, X^4, then four Horner steps
    R <- B_j + R X^4, each block B_j a cubic in X.  Squaring step k acts
    only on the items with s > k, so every item gets exactly its own s
    squarings; every operation is elementwise along the item axis, so item
    i is the same bits whatever its neighbours.
    """
    squarings = np.maximum(0, np.frexp(np.abs(x).sum(axis=0).max(axis=0))[1])
    x = x / 2.0 ** squarings
    x2 = _matmul(x, x)
    x3, x4 = _matmul(x2, x), _matmul(x2, x2)
    result = _TAYLOR[20] * x4
    for j in range(16, -1, -4):
        block = _TAYLOR[j + 1] * x + _TAYLOR[j + 2] * x2 + _TAYLOR[j + 3] * x3
        block[_DIAG] += _TAYLOR[j]
        result += block
        if j:
            result = _matmul(result, x4)
    for k in range(squarings.max(initial=0)):
        active = squarings > k
        r = result[..., active]
        result[..., active] = _matmul(r, r)
    return result


# the coupling columns of three_wave_matrices, each a ThreeWaveSystem field
_COLUMNS = ("g_down", "g_up", "phi_down", "phi_up", "dk_down", "dk_up",
            "length_mm")


def three_wave_matrices(g_down, g_up, phi_down, phi_up, dk_down, dk_up,
                        length_mm) -> np.ndarray:
    """Exact full-crystal transforms of N three-wave systems given as
    columns, as an (N, 6, 6) stack of matrices built in one array pass.

    Each argument is a column of N floats, or a scalar that every system
    shares, in the units of a ThreeWaveSystem's field of that name: g_* per
    mm, phi_* rad, dk_* per um, length_mm mm.
    (a_w, a_s*, a_u) evolve among themselves.  In the rotating frame
    b = a e^{i r z}, with frame frequencies r = (0, dk_d, -dk_u) + c,
    their generator is constant, so each map is one 3x3 exponential
    followed by the frame phases e^{-i r L}; (a_w*, a_s, a_u*) follow by
    conjugation.  The generators are built as one (3, 3, N) stack, systems
    on the last axis, for _expm's 7 products.  Item i is bit for bit
    integrate_three_wave of system i.
    """
    g_down, g_up, phi_down, phi_up, dk_down, dk_up, length_mm = (
        np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float))
                              for c in (g_down, g_up, phi_down, phi_up,
                                        dk_down, dk_up, length_mm))))
    if (g_down < 0).any() or (g_up < 0).any():
        raise InvalidArgumentError("couplings must be >= 0")
    if (length_mm <= 0).any():
        raise InvalidArgumentError("length_mm must be > 0")
    n = len(length_mm)
    gd = g_down * length_mm * np.exp(1j * phi_down)
    gu = g_up * length_mm * np.exp(1j * phi_up)
    # r L; the common frequency c is free, and centring r keeps the
    # exponent's norm, hence the number of squarings, smallest
    rl = np.stack([np.zeros(n), dk_down, -dk_up]) * (length_mm * 1e3)
    rl -= 0.5 * (rl.max(axis=0) + rl.min(axis=0))
    # beyond 2**53 rad the frame phases e^{-i r L} keep no significant
    # bit; a zero-gain crystal reaches this where no gain check can see it
    phase = np.abs(rl).max(axis=0)
    beyond = ~(phase <= 2.0 ** 53)
    if beyond.any():
        raise InvalidArgumentError(
            f"crystal.length_mm: mismatch phase {phase[beyond][0]:.3g} rad "
            f"over the crystal exceeds 2**53 rad")
    x = np.zeros((3, 3, n), dtype=complex)
    x[_DIAG] = 1j * rl
    x[0, 1], x[0, 2] = gd, -np.conj(gu)
    x[1, 0], x[2, 0] = np.conj(gd), gu
    e = (np.exp(-1j * rl)[:, None] * _expm(x)).transpose(2, 0, 1)
    m = np.zeros((n, 6, 6), dtype=complex)
    w_s_u, conjugates = np.array([0, 4, 2]), np.array([3, 1, 5])
    m[:, w_s_u[:, None], w_s_u] = e
    m[:, conjugates[:, None], conjugates] = e.conj()
    return m


def integrate_three_wave(system: ThreeWaveSystem) -> BogoliubovTransform:
    """Exact full-crystal transform of the coupled three-wave evolution:
    the one-system call of three_wave_matrices."""
    return BogoliubovTransform(three_wave_matrices(
        *(getattr(system, name) for name in _COLUMNS))[0])


def apply(t: BogoliubovTransform, amplitudes: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Map every trial's amplitude vector, each row of an
    (n_trials, n_modes) table, through the transform: a U^T + a* V^T.

    The rows are mapped _APPLY_ROWS at a time, each block small enough to
    stay on the calling thread, into `out`, a new table by default; `out`
    may be `amplitudes` itself, since each block is computed before it is
    stored.  A one-row block would go through a matrix-vector product
    whose last bits differ from the whole-table product, so a one-row
    tail joins the block before it, and the result is bit for bit the
    unblocked expression.  A one-row table has no such neighbour: a caller
    that maps a table in pieces maps a lone row stacked with itself.
    """
    if amplitudes.shape[1:] != (t.n_modes,):
        raise InvalidArgumentError(f"transform has {t.n_modes} modes, "
                                   f"table shape {amplitudes.shape}")
    dtype = np.result_type(amplitudes, t.matrix)
    if out is None:
        out = np.empty(amplitudes.shape, dtype)
    elif out.shape != amplitudes.shape or out.dtype != dtype:
        raise InvalidArgumentError(
            f"out must be a {amplitudes.shape} {dtype} table, "
            f"got {out.shape} {out.dtype}")
    n = len(amplitudes)
    bounds = list(range(0, n, _APPLY_ROWS)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    u, v = t.u.T, t.v.T
    for start, stop in zip(bounds, bounds[1:]):
        a = amplitudes[start:stop]
        out[start:stop] = a @ u + a.conj() @ v
    return out


def quadrature_matrices(matrices: np.ndarray) -> np.ndarray:
    """Real symplectic matrices, xxpp ordering, of an (N, 2M, 2M) stack of
    transform matrices."""
    m = matrices.shape[-1] // 2
    u, v = matrices[:, :m, :m], matrices[:, :m, m:]
    s = np.empty(matrices.shape)
    s[:, :m, :m], s[:, :m, m:] = (u + v).real, -(u - v).imag
    s[:, m:, :m], s[:, m:, m:] = (u + v).imag, (u - v).real
    return s


def quadrature_matrix(t: BogoliubovTransform) -> np.ndarray:
    """Real symplectic matrix of the transform in xxpp ordering."""
    return quadrature_matrices(t.matrix[None])[0]


def propagate_covariances(matrices: np.ndarray,
                          covariances: np.ndarray) -> np.ndarray:
    """Exact Gaussian-state update through each of an (N, 2M, 2M) stack of
    transform matrices: the (N, 2M, 2M) covariances S cov S^T
    (symmetrised), in one stacked product.  `covariances` is one (2M, 2M)
    xxpp covariance that every transform acts on, or an (N, 2M, 2M) stack
    whose item i is the input of transform i.

    S is linear with no displacement, so the states stay zero-mean.
    """
    if matrices.shape[-1] != covariances.shape[-1]:
        raise InvalidArgumentError(
            f"transform has {matrices.shape[-1] // 2} modes, "
            f"state {covariances.shape[-1] // 2}")
    s = quadrature_matrices(matrices)
    cov = s @ covariances @ s.transpose(0, 2, 1)
    return check_symmetric(0.5 * (cov + cov.transpose(0, 2, 1)))


def propagate_covariance(t: BogoliubovTransform,
                         state: GaussianState) -> GaussianState:
    """Exact Gaussian-state update, cov -> S cov S^T (symmetrised): the
    one-transform call of propagate_covariances."""
    return GaussianState(
        propagate_covariances(t.matrix[None], state.covariance)[0])
