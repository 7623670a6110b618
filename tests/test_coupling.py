import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from rate_oracle import system_matrices
from transform_oracle import (int_exp, int_nested, perturbative_transform,
                              rk4_oracle, rotating_frame_oracle,
                              taylor_expm_oracle)
from zprainbow.coupling import (BogoliubovTransform, ThreeWaveSystem, _expm,
                                apply, convert_pair, integrate_three_wave,
                                propagate_covariance, propagate_covariances,
                                quadrature_matrix, squeeze_pair)
from zprainbow.errors import InvalidArgumentError
from zprainbow.zpf import (mode_intensities, sample_vacuum, sampled_state,
                           vacuum_state)

SINH2_01 = math.sinh(0.1) ** 2


def mean_intensity(amplitudes, index):
    """Trial mean of |alpha|^2 for one column of an amplitude table."""
    a = amplitudes[:, index]
    return float(np.mean(a.real ** 2 + a.imag ** 2))


def generic_system(**overrides):
    params = dict(g_down=1.4, g_up=1.1, phi_down=0.3, phi_up=1.2,
                  dk_down=0.17, dk_up=-0.09, length_mm=0.06)
    params.update(overrides)
    return ThreeWaveSystem(**params)


# one fixed (derandomized) example set per test keeps the suite reproducible
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
PHASE = st.floats(-math.pi, math.pi)


@st.composite
def systems(draw, max_gl, min_gl=0.0):
    """Random ThreeWaveSystem with g_* L <= max_gl and |dk_*| L <= 1200.

    The larger of the two gains times L lies in [min_gl, max_gl].
    """
    length_mm = draw(st.floats(0.01, 1.0))
    g_max_l = draw(st.floats(min_gl, max_gl))
    other_l = draw(st.floats(0.0, 1.0)) * g_max_l
    gl_down, gl_up = draw(st.permutations([g_max_l, other_l]))
    dkl = st.floats(-1200.0, 1200.0)
    return ThreeWaveSystem(
        g_down=gl_down / length_mm, g_up=gl_up / length_mm,
        phi_down=draw(PHASE), phi_up=draw(PHASE),
        dk_down=draw(dkl) / (1e3 * length_mm),
        dk_up=draw(dkl) / (1e3 * length_mm), length_mm=length_mm)


class TestClosedForms:
    def test_squeeze_zero_is_identity(self):
        t = squeeze_pair(0.0, 0.3)
        assert np.array_equal(t.matrix, np.eye(4))

    def test_squeeze_symplectic_exact(self):
        t = squeeze_pair(0.7, 1.1)
        assert t.symplectic_defect() < 1e-12
        assert t.conjugation_defect() == 0.0

    def test_squeeze_intensity_oracle(self):
        t = squeeze_pair(0.1, 0.0)
        st = propagate_covariance(t, vacuum_state(2))
        for i in range(2):
            assert st.mode_intensity(i) == pytest.approx(0.5 + SINH2_01,
                                                         abs=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0])
    def test_pair_symmetry(self, r):
        st = propagate_covariance(squeeze_pair(r, 0.8), vacuum_state(2))
        assert st.mode_intensity(0) == pytest.approx(st.mode_intensity(1),
                                                     abs=1e-14)

    def test_negative_squeeze_rejected(self):
        with pytest.raises(InvalidArgumentError):
            squeeze_pair(-0.1, 0.0)

    def test_convert_zero_is_identity(self):
        t = convert_pair(0.0, 0.9)
        assert np.array_equal(t.matrix, np.eye(4))

    def test_convert_preserves_vacuum(self):
        st = propagate_covariance(convert_pair(0.6, 0.2), vacuum_state(2))
        assert np.allclose(st.covariance, 0.5 * np.eye(4), atol=1e-14)
        assert st.mode_intensity(0) == pytest.approx(0.5, abs=1e-14)

    def test_convert_quarter_swaps(self):
        t = convert_pair(math.pi / 2.0, 0.0)
        assert abs(t.u[0, 0]) < 1e-15
        assert abs(t.u[1, 1]) < 1e-15
        assert abs(t.u[1, 0]) == pytest.approx(1.0, abs=1e-15)
        assert abs(t.u[0, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_convert_conserves_intensity_per_trial(self):
        amp = sample_vacuum(2, 2000, seed=4)
        out = apply(convert_pair(0.7, 0.3), amp)
        before = np.sum(np.abs(amp) ** 2, axis=1)
        after = np.sum(np.abs(out) ** 2, axis=1)
        assert np.max(np.abs(before - after)) < 1e-12


class TestIntegrator:
    def test_matches_squeezer_when_decoupled(self):
        system = generic_system(g_up=0.0, dk_down=0.0)
        t = integrate_three_wave(system)
        ref = squeeze_pair(system.g_down * system.length_mm, system.phi_down,
                           n_modes=3, pair=(0, 1))
        assert np.max(np.abs(t.matrix - ref.matrix)) < 1e-10

    def test_matches_converter_when_decoupled(self):
        system = generic_system(g_down=0.0, dk_up=0.0)
        t = integrate_three_wave(system)
        ref = convert_pair(system.g_up * system.length_mm, system.phi_up,
                           n_modes=3, pair=(0, 2))
        assert np.max(np.abs(t.matrix - ref.matrix)) < 1e-10

    def test_agrees_with_rotating_frame_oracle(self):
        system = generic_system()
        t = integrate_three_wave(system)
        ref = rotating_frame_oracle(system)
        assert np.max(np.abs(t.matrix - ref.matrix)) < 1e-10

    def test_agrees_with_lab_frame_rk4(self):
        system = generic_system()
        t = integrate_three_wave(system)
        ref = rk4_oracle(system)
        assert np.max(np.abs(t.matrix - ref.matrix)) < 1e-10

    def test_order2_agreement_at_small_gain(self):
        # gL = 1e-2: the integrator and the order-2 series differ at (gL)^3
        system = generic_system(g_down=0.1, g_up=0.12, length_mm=0.1)
        t = integrate_three_wave(system)
        p2 = perturbative_transform(system, 2)
        assert np.max(np.abs(t.matrix - p2.matrix)) < 1e-5

    @pytest.mark.parametrize("dk_l_over_pi", [0.0, 1.0, 10.0, 100.0])
    def test_symplectic_across_mismatch(self, dk_l_over_pi):
        dk = dk_l_over_pi * math.pi / 60.0
        system = generic_system(dk_down=dk, dk_up=0.3 * dk)
        t = integrate_three_wave(system)
        assert t.symplectic_defect() < 1e-10
        assert t.conjugation_defect() < 1e-12

    def test_invalid_system_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generic_system(g_down=-1.0)
        with pytest.raises(InvalidArgumentError):
            generic_system(length_mm=0.0)


class TestTransformProperties:
    @PROPERTY
    @given(systems(max_gl=4.0))
    # high gain with one leg far from phase matching: the most squarings
    # at the largest transform entries
    @example(ThreeWaveSystem(g_down=400.0, g_up=200.0, phi_down=0.3,
                             phi_up=1.1, dk_down=0.0, dk_up=120.0,
                             length_mm=0.01))
    def test_symplectic_and_conjugate(self, system):
        t = integrate_three_wave(system)
        assert t.symplectic_defect() < 1e-10
        assert t.conjugation_defect() == 0.0

    @PROPERTY
    @given(systems(max_gl=0.05, min_gl=1e-3))
    def test_order2_series_at_small_gain(self, system):
        # the series truncation error is third order in the gain
        gl = max(system.g_down, system.g_up) * system.length_mm
        t = integrate_three_wave(system)
        p2 = perturbative_transform(system, 2)
        assert np.max(np.abs(t.matrix - p2.matrix)) < gl ** 3


@st.composite
def wide_systems(draw):
    """ThreeWaveSystem with gains up to 30 /mm, some without an up leg, and
    mismatch phases dk L up to 100 pi: within a stack of these the
    exponentials need different numbers of squarings."""
    length_mm = draw(st.floats(0.01, 1.0))
    phase = st.floats(-100.0 * math.pi, 100.0 * math.pi)
    return ThreeWaveSystem(
        g_down=draw(st.floats(0.0, 30.0)),
        g_up=draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0))),
        phi_down=draw(PHASE), phi_up=draw(PHASE),
        dk_down=draw(phase) / (1e3 * length_mm),
        dk_up=draw(phase) / (1e3 * length_mm), length_mm=length_mm)


def rotating_generator(system):
    """The 3x3 exponent of one system's transform in three_wave_matrices:
    its couplings and centred frame phases r L over the crystal."""
    gd = system.g_down * system.length_mm * np.exp(1j * system.phi_down)
    gu = system.g_up * system.length_mm * np.exp(1j * system.phi_up)
    rl = (np.array([0.0, system.dk_down, -system.dk_up])
          * (system.length_mm * 1e3))
    rl -= 0.5 * (rl.max() + rl.min())
    return np.array([[1j * rl[0], gd, -np.conj(gu)],
                     [np.conj(gd), 1j * rl[1], 0.0],
                     [gu, 0.0, 1j * rl[2]]])


def long_stack(n=240, seed=30):
    """n systems drawn as wide_systems draws them, from a seeded generator:
    a stack longer than Hypothesis draws, whose items need different
    numbers of squarings in no particular order."""
    rng = np.random.default_rng(seed)
    length_mm = rng.uniform(0.01, 1.0, n)
    g_up = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 30.0, n))
    phases = rng.uniform(-math.pi, math.pi, (2, n))
    dk = rng.uniform(-100.0 * math.pi, 100.0 * math.pi, (2, n)) / (1e3
                                                                 * length_mm)
    return [ThreeWaveSystem(g_down=g, g_up=u, phi_down=pd, phi_up=pu,
                            dk_down=d, dk_up=e, length_mm=m)
            for g, u, pd, pu, d, e, m in zip(
                rng.uniform(0.0, 30.0, n).tolist(), g_up.tolist(),
                *phases.tolist(), *dk.tolist(), length_mm.tolist())]


LONG_STACK = long_stack()
SAMPLED3 = sampled_state(3, 1000, seed=4)


class TestTransformStack:
    @PROPERTY
    @given(stack=st.lists(wide_systems(), max_size=40),
           beyond_at=st.integers(0, 40))
    @example(stack=[], beyond_at=0)
    @example(stack=LONG_STACK, beyond_at=117)
    def test_stack_equals_one_system_calls(self, stack, beyond_at):
        matrices = system_matrices(stack)
        assert matrices.shape == (len(stack), 6, 6)
        singles = [integrate_three_wave(system) for system in stack]
        for matrix, t in zip(matrices, singles):
            assert np.array_equal(matrix, t.matrix)
        for state in (vacuum_state(3), SAMPLED3):
            means = mode_intensities(
                propagate_covariances(matrices, state.covariance))
            assert means.shape == (len(stack), 3)
            for t, mean in zip(singles, means):
                one = propagate_covariance(t, state)
                assert np.array_equal(
                    mean, [one.mode_intensity(i) for i in range(3)])
        # a zero-gain crystal whose mismatch phase has no significant bit
        beyond = ThreeWaveSystem(g_down=0.0, g_up=0.0, phi_down=0.0,
                                 phi_up=0.0, dk_down=0.1, dk_up=0.0,
                                 length_mm=1e20)
        at = min(beyond_at, len(stack))
        with pytest.raises(InvalidArgumentError, match="crystal.length_mm"):
            system_matrices(stack[:at] + [beyond] + stack[at:])

    @PROPERTY
    @given(stack=st.lists(wide_systems(), min_size=1, max_size=40))
    @example(stack=LONG_STACK)
    def test_exponential_matches_taylor_oracle(self, stack):
        # Paterson-Stockmeyer against the term-by-term sum of the same
        # series.  Over 10^6 random wide systems the worst item deviated by
        # 2.3e-12 of its largest entry; the bound is 13x that.
        a = np.array([rotating_generator(system) for system in stack])
        got = _expm(a.transpose(1, 2, 0)).transpose(2, 0, 1)
        want = taylor_expm_oracle(a)
        deviation = (np.abs(got - want).max(axis=(1, 2))
                     / np.abs(want).max(axis=(1, 2)))
        assert deviation.max() < 3e-11

    def test_long_example_mixes_squarings(self):
        # the long stack above takes _expm's squaring step on items spread
        # through it, not on a prefix or a suffix
        a = np.array([rotating_generator(system) for system in LONG_STACK])
        squarings = np.maximum(
            0, np.frexp(np.abs(a).sum(axis=1).max(axis=1))[1])
        assert len(LONG_STACK) >= 200
        assert len(set(squarings.tolist())) >= 4
        assert np.any(np.diff(squarings) > 0) and np.any(np.diff(squarings)
                                                         < 0)


class TestPerturbative:
    def test_order1_decoupled_entries(self):
        system = generic_system(g_up=0.0, dk_down=0.0)
        t = perturbative_transform(system, 1)
        gl = system.g_down * system.length_mm
        phase = gl * np.exp(1j * system.phi_down)
        expect = np.eye(6, dtype=complex)
        expect[0, 4] = expect[1, 3] = phase
        expect[3, 1] = expect[4, 0] = np.conj(phase)
        assert np.max(np.abs(t.matrix - expect)) < 1e-14

    def test_order2_vs_closed_squeezer(self):
        # entry error bounded by the cubic Taylor remainder of sinh
        system = generic_system(g_up=0.0, dk_down=0.0, g_down=5.0 / 3.0)
        t = perturbative_transform(system, 2)
        ref = squeeze_pair(0.1, system.phi_down, n_modes=3, pair=(0, 1))
        err = np.max(np.abs(t.matrix - ref.matrix))
        assert err < 1.7e-4
        assert err > 1.5e-4  # it really is the (gL)^3 / 6 scale

    def test_full_oscillation_cancels(self):
        # dk L = 2 pi: the first-order pair-creation entry vanishes
        system = generic_system(g_up=0.0, dk_down=2.0 * math.pi / 60.0)
        t = perturbative_transform(system, 1)
        assert abs(t.matrix[0, 4]) < 1e-16

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidArgumentError):
            perturbative_transform(generic_system(), 3)


class TestPhaseIntegrals:
    @pytest.mark.parametrize("k", [0.0, 1e-12, 0.3, -2.0, 40.0])
    def test_plain_integral(self, k):
        length = 1.7
        re = quad(lambda z: math.cos(k * z), 0.0, length, limit=500,
                  epsabs=1e-13)[0]
        im = quad(lambda z: math.sin(k * z), 0.0, length, limit=500,
                  epsabs=1e-13)[0]
        assert int_exp(k, length) == pytest.approx(re + 1j * im, abs=5e-12)

    @pytest.mark.parametrize("k1,k2", [
        (0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (5.0, 1e-9), (5.0, -5.0),
        (0.2, 0.007), (-3.3, 0.004), (2.0, 2.0), (10.0, -0.0003),
        (25.0, 0.28), (0.004, 18.0),
    ])
    def test_nested_integral(self, k1, k2):
        length = 1.7

        def inner(z):
            if not k2:
                return z
            # e^{ix} - 1 = -2 sin^2(x/2) + i sin(x), stable for small x
            x = k2 * z
            return (-2.0 * math.sin(0.5 * x) ** 2 + 1j * math.sin(x)) / (1j * k2)

        def f(z):
            return np.exp(1j * k1 * z) * inner(z)

        re = quad(lambda z: f(z).real, 0.0, length, limit=500, epsabs=1e-13)[0]
        im = quad(lambda z: f(z).imag, 0.0, length, limit=500, epsabs=1e-13)[0]
        assert int_nested(k1, k2, length) == pytest.approx(re + 1j * im,
                                                           abs=5e-11)


class TestApply:
    def test_identity_is_bitwise(self):
        amp = sample_vacuum(2, 500, seed=1)
        out = apply(BogoliubovTransform(np.eye(4, dtype=complex)), amp)
        assert np.array_equal(out, amp)

    def test_squeeze_monte_carlo_oracle(self):
        out = apply(squeeze_pair(0.1, 0.0), sample_vacuum(2, 10 ** 6, seed=2))
        sigma = (0.5 + SINH2_01) / 1000.0
        for i in range(2):
            assert abs(mean_intensity(out, i) - (0.5 + SINH2_01)) < 5 * sigma

    def test_inverse_roundtrip(self):
        amp = sample_vacuum(3, 2000, seed=6)
        t = integrate_three_wave(generic_system())
        back = apply(t.inverse(), apply(t, amp))
        assert np.max(np.abs(back - amp)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        # a three-mode transform takes only a (trials, 3) table
        t = BogoliubovTransform(np.eye(6, dtype=complex))
        tables = [sample_vacuum(width, 10, seed=0) for width in (1, 2, 4)]
        for table in tables + [np.zeros(3, dtype=complex)]:
            with pytest.raises(InvalidArgumentError):
                apply(t, table)


def unblocked(t, a):
    """apply's map as one whole-table expression."""
    return a @ t.u.T + a.conj() @ t.v.T


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


class TestApplyBlocks:
    TRANSFORMS = [pytest.param(lambda: integrate_three_wave(generic_system()),
                               id="three-wave"),
                  pytest.param(lambda: squeeze_pair(0.3, 0.7), id="pair")]
    # whole blocks, and tails of one and two rows after them
    TRIALS = [1, 2, 4097, 8191, 8192, 8193, 8194, 65537, 200001]

    @pytest.fixture(scope="class", params=TRANSFORMS)
    def transform(self, request):
        return request.param()

    @pytest.mark.parametrize("trials", TRIALS)
    def test_new_table_is_the_unblocked_bits(self, transform, trials):
        a = sample_vacuum(transform.n_modes, trials, seed=trials)
        before = a.copy()
        out = apply(transform, a)
        assert out is not a
        assert same_bits(out, unblocked(transform, before))
        assert same_bits(a, before)

    @pytest.mark.parametrize("trials", TRIALS)
    def test_in_place_is_the_unblocked_bits(self, transform, trials):
        a = sample_vacuum(transform.n_modes, trials, seed=trials)
        expected = unblocked(transform, a)
        assert apply(transform, a, out=a) is a
        assert same_bits(a, expected)

    @pytest.mark.parametrize("shape, dtype", [
        ((99, 3), complex), ((100, 2), complex), ((100, 3), np.complex64),
        ((100, 3), float)])
    def test_wrong_out_rejected(self, shape, dtype):
        t = integrate_three_wave(generic_system())
        with pytest.raises(InvalidArgumentError):
            apply(t, sample_vacuum(3, 100, seed=0), out=np.empty(shape, dtype))


class TestApplyMemory:
    """tracemalloc sees numpy's buffers: the blocked map's temporaries
    stay near a block's size, not the table's (48 MB here)."""

    MIB = 1 << 20

    @pytest.fixture(scope="class")
    def table(self):
        return sample_vacuum(3, 10 ** 6, seed=4)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_in_place_holds_only_block_temporaries(self, table):
        t = integrate_three_wave(generic_system())
        assert self.traced_peak(lambda: apply(t, table, out=table)) \
            < 2 * self.MIB

    def test_new_table_holds_one_table_more(self, table):
        t = integrate_three_wave(generic_system())
        assert self.traced_peak(lambda: apply(t, table)) \
            < table.nbytes + 2 * self.MIB


class TestApplyThreads:
    def test_no_blas_thread_spins_after_apply(self):
        # OpenBLAS runs a large enough product on its thread pool, which
        # then spins for a while after it (a 3-mode block of 8192 rows
        # costs about 0.08 s of CPU in the next 0.2 s); apply's blocks stay
        # on the calling thread, so a process sleeping after it is idle
        t = integrate_three_wave(generic_system())
        table = sample_vacuum(3, 200_000, seed=8)
        time.sleep(0.3)   # threads woken before this test fall asleep
        apply(t, table, out=table)
        before = time.process_time()
        time.sleep(0.2)
        assert time.process_time() - before < 0.02


class TestPropagateCovariance:
    def test_identity_on_vacuum(self):
        identity = BogoliubovTransform(np.eye(6, dtype=complex))
        st = propagate_covariance(identity, vacuum_state(3))
        assert np.array_equal(st.covariance, 0.5 * np.eye(6))

    def test_passive_invariance(self):
        t = integrate_three_wave(generic_system(g_down=0.0))
        st = propagate_covariance(t, vacuum_state(3))
        assert np.max(np.abs(st.covariance - 0.5 * np.eye(6))) < 1e-12

    def test_quadrature_matrix_symplectic(self):
        t = integrate_three_wave(generic_system())
        s = quadrature_matrix(t)
        n = t.n_modes
        omega = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-np.eye(n), np.zeros((n, n))]])
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            propagate_covariance(BogoliubovTransform(np.eye(4, dtype=complex)),
                                 vacuum_state(3))


class TestMonteCarloCovarianceEquivalence:
    def test_generic_transform(self):
        t = integrate_three_wave(generic_system())
        st = propagate_covariance(t, vacuum_state(3))
        out = apply(t, sample_vacuum(3, 10 ** 6, seed=17))
        for i in range(3):
            exact = st.mode_intensity(i)
            sigma = exact / 1000.0  # thermal-like intensity spread
            assert abs(mean_intensity(out, i) - exact) < 5 * sigma


class TestPairSymmetryThroughIntegrator:
    def test_conjugate_channels_equal(self):
        system = generic_system(g_up=0.0, dk_down=0.09)
        st = propagate_covariance(integrate_three_wave(system),
                                  vacuum_state(3))
        assert st.mode_intensity(0) == pytest.approx(st.mode_intensity(1),
                                                     abs=1e-13)


class TestSeriesConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_integrator_vs_series_scaling(self, seed):
        # deviation from the order-2 series shrinks like (gL)^3
        rng = np.random.default_rng(seed)
        base = dict(phi_down=rng.uniform(0, 2 * math.pi),
                    phi_up=rng.uniform(0, 2 * math.pi),
                    dk_down=rng.uniform(-0.4, 0.4),
                    dk_up=rng.uniform(-0.4, 0.4), length_mm=0.06)
        devs = []
        for scale in (1.0, 0.5):
            system = ThreeWaveSystem(g_down=scale / 3.0, g_up=scale / 4.0,
                                     **base)
            devs.append(np.max(np.abs(
                integrate_three_wave(system).matrix
                - perturbative_transform(system, 2).matrix)))
        assert devs[0] < 1e-5            # gL = 2e-2 regime
        assert devs[1] < devs[0] / 6.0   # halving g shrinks it ~8x
