"""Three-wave transforms built without the production constructor: the
references for coupling.three_wave_matrices.

The pipeline builds the crystal's Bogoliubov map one way only:
coupling.three_wave_matrices, one 3x3 exponential per system in a
centred rotating frame.  The functions here build the same map three
other ways, and that exponential a second way:

- perturbative_transform sums the Dyson series of the lab-frame generator
  sum_c C_c e^{i k_c z} (term_matrices) to first or second order, with
  the mismatch phase integrals (int_exp, int_nested) in closed form or by
  Gauss-Legendre quadrature;
- rotating_frame_oracle exponentiates the constant 6x6 rotating-frame
  generator with scipy;
- rk4_oracle integrates the lab-frame generator by fixed-step RK4;
- taylor_expm_oracle sums the same degree-20 Taylor series as
  coupling._expm term by term, in 20 stacked matrix products.

test_coupling and acceptance criterion 4 compare integrate_three_wave
against the first three, and test_coupling compares coupling._expm
against the last.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from zprainbow.coupling import BogoliubovTransform, ThreeWaveSystem
from zprainbow.errors import InvalidArgumentError

SERIES_CUT = 0.5  # inner |k L| below which int_nested integrates by quadrature
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def term_matrices(system: ThreeWaveSystem):
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


def int_exp(k, length):
    """integral_0^L e^{ikz} dz, cancellation-safe."""
    x = k * length / 2.0
    return length * np.exp(1j * x) * np.sinc(x / math.pi)


def int_nested(k_outer, k_inner, length):
    """integral_0^L e^{i k1 z} integral_0^z e^{i k2 z'} dz' dz.

    The inner primitive is written as z e^{i k2 z / 2} sinc(k2 z / 2 pi),
    exact for every k2 including zero; when the inner phase is large the
    cancellation-free difference of two int_exp terms is cheaper.
    """
    if abs(k_inner) * length >= SERIES_CUT:
        return (int_exp(k_outer + k_inner, length)
                - int_exp(k_outer, length)) / (1j * k_inner)
    panels = 1 + int((abs(k_outer) + abs(k_inner)) * length / 4.0)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    z = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
    w = (half[:, None] * GL_WEIGHTS[None, :]).ravel()
    inner = z * np.exp(0.5j * k_inner * z) * np.sinc(k_inner * z / (2.0 * math.pi))
    return complex(np.sum(w * np.exp(1j * k_outer * z) * inner))


def perturbative_transform(system: ThreeWaveSystem, order: int) -> BogoliubovTransform:
    """Dyson series of the three-wave evolution, truncated at `order`.

    The mismatch phase integrals are closed forms or 16-node
    Gauss-Legendre sums, so this is an integrator-independent cross-check
    of the low-gain regime.
    """
    if order not in (1, 2):
        raise InvalidArgumentError("order must be 1 or 2")
    terms = term_matrices(system)
    length = system.length_mm * 1e3
    m = np.eye(6, dtype=complex)
    for k, c in terms:
        m = m + c * int_exp(k, length)
    if order == 2:
        for k1, c1 in terms:
            for k2, c2 in terms:
                m = m + (c1 @ c2) * int_nested(k1, k2, length)
    return BogoliubovTransform(m)


def rotating_frame_oracle(system: ThreeWaveSystem) -> BogoliubovTransform:
    """Exact transform via a constant-coefficient rotating frame.

    Absorbs the mismatch phases into frame rotations of all six stacked
    amplitudes, exponentiates the constant 6x6 generator with scipy and
    rotates back: none of the production code's 3x3 reduction, centred
    frame or exponential.
    """
    gd = system.g_down * 1e-3 * np.exp(1j * system.phi_down)
    gu = system.g_up * 1e-3 * np.exp(1j * system.phi_up)
    kd, ku, length = system.dk_down, system.dk_up, system.length_mm * 1e3
    a = np.zeros((6, 6), dtype=complex)
    # frame rotation part
    a[1, 1], a[2, 2] = -1j * kd, -1j * ku
    a[4, 4], a[5, 5] = 1j * kd, 1j * ku
    # couplings, constant in the rotating frame
    a[0, 4] = gd
    a[1, 3] = gd
    a[3, 1] = np.conj(gd)
    a[4, 0] = np.conj(gd)
    a[2, 0] = gu
    a[0, 2] = -np.conj(gu)
    a[3, 5] = -gu
    a[5, 3] = np.conj(gu)
    frame_back = np.diag(np.exp(1j * np.array([0.0, kd, ku, 0.0, -kd, -ku])
                                * length))
    return BogoliubovTransform(frame_back @ expm(a * length))


def rk4_oracle(system: ThreeWaveSystem, n_steps=2000) -> BogoliubovTransform:
    """Full-crystal transform by fixed-step RK4 in the lab frame.

    Integrates the z-dependent 6x6 generator sum_c C_c e^{i k_c z}
    directly, so unlike the production transform and
    rotating_frame_oracle it never uses the rotating frame.
    """
    terms = term_matrices(system)

    def s_of_z(z_um):
        return sum(m * np.exp(1j * k * z_um) for k, m in terms)

    h = system.length_mm * 1e3 / n_steps
    m = np.eye(6, dtype=complex)
    for i in range(n_steps):
        z = i * h
        k1 = s_of_z(z) @ m
        k2 = s_of_z(z + 0.5 * h) @ (m + 0.5 * h * k1)
        k3 = s_of_z(z + 0.5 * h) @ (m + 0.5 * h * k2)
        k4 = s_of_z(z + h) @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return BogoliubovTransform(m)


def taylor_expm_oracle(a: np.ndarray) -> np.ndarray:
    """exp(a) of every matrix of an (N, n, n) stack by scaling and squaring
    of a truncated Taylor series, summed term by term.

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
