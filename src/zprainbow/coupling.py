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
transforms of many systems (a whole band) in one array pass, over one
stacked exponential in which every item keeps its own number of
squarings; integrate_three_wave is its one-system call.  Likewise
propagate_covariances moves a covariance, one for the whole stack or one
per transform, through a whole stack of transforms in one product, and
propagate_covariance is its one-transform call on a GaussianState.
apply maps a Monte Carlo amplitude table in fixed row blocks, into a new
table or in place, so a caller that holds one table needs only one
block's temporaries beside it.  The generator is a valid Bogoliubov
generator (the passive part is anti-Hermitian, the pair part
symmetric), so the map is symplectic for every mismatch; with dk = 0 the
up leg reduces to the convert_pair closed form and the down leg to
squeeze_pair.  perturbative_transform sums the Dyson series in the lab
frame as an independent low-gain cross-check.
A variant coupling model would plug in here as a different generator;
everything downstream only consumes the resulting transform.

Lengths are millimetres at the interface (matching CrystalSpec) and
mismatches 1/um.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError
from .zpf import GaussianState, check_symmetric

_SERIES_CUT = 0.5  # |k L| below which oscillatory integrals switch to series
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

    @property
    def length_um(self) -> float:
        return self.length_mm * 1e3

    def pair_only(self) -> "ThreeWaveSystem":
        """The same triple with the up-conversion leg switched off."""
        return replace(self, g_up=0.0, phi_up=0.0, dk_up=0.0)


def _term_matrices(system: ThreeWaveSystem):
    """The generator as sum_c C_c e^{i k_c z} over constant 6x6 matrices.

    Index order (a_w, a_s, a_u, a_w*, a_s*, a_u*); g converted to 1/um.
    """
    gd = system.g_down * 1e-3
    gu = system.g_up * 1e-3
    cd = gd * np.exp(1j * system.phi_down)
    cu = gu * np.exp(1j * system.phi_up)
    terms = []

    m = np.zeros((6, 6), dtype=complex)   # pair creation, e^{+i dk_d z}
    m[0, 4] = m[1, 3] = cd
    terms.append((system.dk_down, m))

    m = np.zeros((6, 6), dtype=complex)   # conjugate block, e^{-i dk_d z}
    m[3, 1] = m[4, 0] = np.conj(cd)
    terms.append((-system.dk_down, m))

    m = np.zeros((6, 6), dtype=complex)   # up leg, e^{+i dk_u z}
    m[2, 0] = cu
    m[3, 5] = -cu
    terms.append((system.dk_up, m))

    m = np.zeros((6, 6), dtype=complex)   # up leg conjugates, e^{-i dk_u z}
    m[0, 2] = -np.conj(cu)
    m[5, 3] = np.conj(cu)
    terms.append((-system.dk_up, m))
    return terms


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of every matrix of an (N, n, n) stack by scaling and squaring
    of a truncated Taylor series.

    Each a is scaled by its own 2^-s so that its 1-norm is below 1, where
    20 Taylor terms leave a remainder under 1e-19; squaring step k then
    acts only on the items with s > k, so every item gets exactly its own
    s squarings, as if it were exponentiated alone.
    """
    squarings = np.maximum(0, np.frexp(np.abs(a).sum(axis=1).max(axis=1))[1])
    a = a / (2.0 ** squarings)[:, None, None]
    term = result = np.broadcast_to(np.eye(a.shape[1], dtype=complex), a.shape)
    for k in range(1, 21):
        term = term @ a / k
        result = result + term
    for k in range(squarings.max(initial=0)):
        active = squarings > k
        result[active] = result[active] @ result[active]
    return result


def three_wave_matrices(systems) -> np.ndarray:
    """Exact full-crystal transforms of several three-wave systems, as an
    (N, 6, 6) stack of matrices built in one array pass.

    (a_w, a_s*, a_u) evolve among themselves.  In the rotating frame
    b = a e^{i r z}, with frame frequencies r = (0, dk_d, -dk_u) + c,
    their generator is constant, so each map is one 3x3 exponential
    followed by the frame phases e^{-i r L}; (a_w*, a_s, a_u*) follow by
    conjugation.  Item i is bit for bit integrate_three_wave(systems[i]).
    """
    def column(name):
        return np.array([getattr(s, name) for s in systems], dtype=float)

    length_mm = column("length_mm")
    gd = column("g_down") * length_mm * np.exp(1j * column("phi_down"))
    gu = column("g_up") * length_mm * np.exp(1j * column("phi_up"))
    # r L; the common frequency c is free, and centring r keeps the
    # exponent's norm, hence the number of squarings, smallest
    rl = (np.stack([np.zeros(len(systems)), column("dk_down"),
                    -column("dk_up")], axis=1) * column("length_um")[:, None])
    rl -= 0.5 * (rl.max(axis=1) + rl.min(axis=1))[:, None]
    # beyond 2**53 rad the frame phases e^{-i r L} keep no significant
    # bit; a zero-gain crystal reaches this where no gain check can see it
    phase = np.abs(rl).max(axis=1)
    beyond = ~(phase <= 2.0 ** 53)
    if beyond.any():
        raise InvalidArgumentError(
            f"crystal.length_mm: mismatch phase {phase[beyond][0]:.3g} rad "
            f"over the crystal exceeds 2**53 rad")
    a = np.zeros((len(systems), 3, 3), dtype=complex)
    a[:, [0, 1, 2], [0, 1, 2]] = 1j * rl
    a[:, 0, 1], a[:, 0, 2] = gd, -np.conj(gu)
    a[:, 1, 0], a[:, 2, 0] = np.conj(gd), gu
    e = np.exp(-1j * rl)[:, :, None] * _expm(a)
    m = np.zeros((len(systems), 6, 6), dtype=complex)
    w_s_u, conjugates = np.array([0, 4, 2]), np.array([3, 1, 5])
    m[:, w_s_u[:, None], w_s_u] = e
    m[:, conjugates[:, None], conjugates] = e.conj()
    return m


def integrate_three_wave(system: ThreeWaveSystem) -> BogoliubovTransform:
    """Exact full-crystal transform of the coupled three-wave evolution:
    the one-system call of three_wave_matrices."""
    return BogoliubovTransform(three_wave_matrices([system])[0])


def _int_exp(k, length):
    """integral_0^L e^{ikz} dz, cancellation-safe."""
    x = k * length / 2.0
    return length * np.exp(1j * x) * np.sinc(x / math.pi)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _int_nested(k_outer, k_inner, length):
    """integral_0^L e^{i k1 z} integral_0^z e^{i k2 z'} dz' dz.

    The inner primitive is written as z e^{i k2 z / 2} sinc(k2 z / 2 pi),
    exact for every k2 including zero; when the inner phase is large the
    cancellation-free difference of two _int_exp terms is cheaper.
    """
    if abs(k_inner) * length >= _SERIES_CUT:
        return (_int_exp(k_outer + k_inner, length)
                - _int_exp(k_outer, length)) / (1j * k_inner)
    panels = 1 + int((abs(k_outer) + abs(k_inner)) * length / 4.0)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    z = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    inner = z * np.exp(0.5j * k_inner * z) * np.sinc(k_inner * z / (2.0 * math.pi))
    return complex(np.sum(w * np.exp(1j * k_outer * z) * inner))


def perturbative_transform(system: ThreeWaveSystem, order: int) -> BogoliubovTransform:
    """Dyson series of the three-wave evolution, truncated at `order`.

    The mismatch phase integrals are evaluated in closed form, so this is
    an integrator-independent cross-check of the low-gain regime.
    """
    if order not in (1, 2):
        raise InvalidArgumentError("order must be 1 or 2")
    terms = _term_matrices(system)
    length = system.length_um
    m = np.eye(6, dtype=complex)
    for k, c in terms:
        m = m + c * _int_exp(k, length)
    if order == 2:
        for k1, c1 in terms:
            for k2, c2 in terms:
                m = m + (c1 @ c2) * _int_nested(k1, k2, length)
    return BogoliubovTransform(m)


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
