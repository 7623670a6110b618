import math
import sys
import threading
import time

import numpy as np
import pytest

from zprainbow import zpf
from zprainbow.coupling import apply, squeeze_pair
from zprainbow.errors import InvalidArgumentError, NotFoundError
from zprainbow.zpf import (GaussianState, Mode, block_amplitudes,
                           mean_intensity, sample_vacuum, sampled_state,
                           trial_blocks, vacuum_state)

MODES = (Mode(0.5, 0.10, 0.06, "ordinary", "input"),
         Mode(0.5, -0.10, -0.06, "ordinary", "signal"))
MODES3 = MODES + (Mode(1.0, 0.0, 0.0, "extraordinary", "pump"),)

# one trial, either side of a 4096-row draw piece, a full 2**16 block,
# and one trial into the second block
EDGE_TRIALS = [1, 4095, 4097, 65536, 65537]

SINH2_01 = math.sinh(0.1) ** 2  # 0.010033377809537924


def quadratures(ens, index):
    """Per-trial (x, p) samples for one mode column."""
    a = ens.amplitudes[:, index]
    root2 = np.sqrt(2.0)
    return root2 * a.real, root2 * a.imag


class TestVacuumState:
    def test_single_mode(self):
        st = vacuum_state(1)
        assert np.array_equal(st.covariance, 0.5 * np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_identity_covariance(self, n):
        st = vacuum_state(n)
        assert st.covariance.shape == (2 * n, 2 * n)
        assert np.array_equal(st.covariance, 0.5 * np.eye(2 * n))
        for i in range(n):
            assert st.mode_intensity(i) == 0.5

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            vacuum_state(0)

    @staticmethod
    def covariance(upper, lower):
        cov = 0.5 * np.eye(2)
        cov[0, 1], cov[1, 0] = upper, lower
        return cov

    # the tolerance is np.allclose(C, C.T, atol=1e-12, rtol=0)'s
    @pytest.mark.parametrize("upper,lower", [
        (1e-6, 0.0), (2e-12, 0.0), (math.nan, math.nan), (math.inf, 1.0),
        (math.inf, -math.inf)], ids=["1e-06", "2e-12", "nan", "inf-finite",
                                     "inf-minus-inf"])
    def test_asymmetric_covariance_rejected(self, upper, lower):
        with pytest.raises(InvalidArgumentError):
            GaussianState(self.covariance(upper, lower))

    @pytest.mark.parametrize("upper,lower", [
        (0.25, 0.25), (1e-12, 0.0), (math.inf, math.inf),
        (-math.inf, -math.inf)], ids=["exact", "1e-12", "inf", "minus-inf"])
    def test_symmetric_covariance_accepted(self, upper, lower):
        cov = self.covariance(upper, lower)
        assert np.array_equal(GaussianState(cov).covariance, cov)

    @pytest.mark.parametrize("covariance", [
        np.zeros(2), np.zeros((2, 3)), np.zeros((3, 3))],
        ids=["1-d", "2x3", "3x3"])
    def test_bad_shape_rejected(self, covariance):
        with pytest.raises(InvalidArgumentError):
            GaussianState(covariance)

    def test_zero_mode_state_accepted(self):
        assert GaussianState(np.zeros((0, 0))).n_modes == 0


class TestSampleVacuum:
    def test_quadrature_variance_band(self):
        # 3-sigma band for the sample variance of 1e6 Gaussians
        ens = sample_vacuum(MODES, 10 ** 6, seed=42)
        for i in range(2):
            x, p = quadratures(ens, i)
            assert 0.497 < x.var() < 0.503
            assert 0.497 < p.var() < 0.503
            assert abs(x.mean()) < 5 * math.sqrt(0.5 / 10 ** 6)

    def test_cross_mode_independence(self):
        ens = sample_vacuum(MODES, 10 ** 6, seed=42)
        x0, p0 = quadratures(ens, 0)
        x1, p1 = quadratures(ens, 1)
        bound = 5 * 0.5 / math.sqrt(10 ** 6)
        for a, b in [(x0, x1), (x0, p1), (p0, x1), (p0, p1), (x0, p0)]:
            assert abs(np.mean(a * b)) < bound

    def test_deterministic_per_seed(self):
        a = sample_vacuum(MODES, 12345, seed=7)
        b = sample_vacuum(MODES, 12345, seed=7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_seed_changes_samples(self):
        a = sample_vacuum(MODES, 1000, seed=7)
        b = sample_vacuum(MODES, 1000, seed=8)
        assert not np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_count_invariance(self, workers):
        base = sample_vacuum(MODES, 200_001, seed=3)
        par = sample_vacuum(MODES, 200_001, seed=3, workers=workers)
        assert np.array_equal(base.amplitudes, par.amplitudes)

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_block_edges_follow_stream_contract(self, trials):
        # the table is the block_amplitudes blocks end to end, for any
        # worker count, at every piece and block edge
        ref = np.concatenate([block_amplitudes(3, 11, b, stop - start)
                              for b, start, stop in trial_blocks(trials)])
        for workers in (1, 2, 4):
            ens = sample_vacuum(MODES3, trials, seed=11, workers=workers)
            assert np.array_equal(ens.amplitudes.view(np.uint64),
                                  ref.view(np.uint64))

    def test_prefix_stability(self):
        # growing the trial count must not change earlier trials
        small = sample_vacuum(MODES, 70_000, seed=5)
        large = sample_vacuum(MODES, 140_000, seed=5)
        assert np.array_equal(large.amplitudes[:70_000], small.amplitudes)

    def test_empty_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_vacuum((), 10, seed=0)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_vacuum(MODES, 0, seed=0)

    def test_matches_vacuum_state_covariance(self):
        ens = sample_vacuum(MODES, 400_000, seed=21)
        quads = np.column_stack([*quadratures(ens, 0), *quadratures(ens, 1)])
        quads = quads[:, [0, 2, 1, 3]]  # xxpp ordering
        sample_cov = np.cov(quads, rowvar=False, bias=True)
        target = vacuum_state(2).covariance
        bound = 5 * 0.5 * math.sqrt(2.0 / 400_000)
        assert np.max(np.abs(sample_cov - target)) < bound


class TestSampledState:
    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_worker_count_invariance(self, trials):
        base = sampled_state(3, trials, seed=11).covariance
        for workers in (2, 4):
            par = sampled_state(3, trials, seed=11, workers=workers).covariance
            assert np.array_equal(base.view(np.uint64), par.view(np.uint64))

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_raw_moments_of_the_table(self, trials):
        # the reused block buffers hold no stale rows: the state is the
        # raw second moment of sample_vacuum's quadratures
        ens = sample_vacuum(MODES3, trials, seed=11)
        quads = math.sqrt(2.0) * ens.amplitudes.view(np.float64)
        xxpp = [0, 2, 4, 1, 3, 5]
        ref = quads[:, xxpp].T @ quads[:, xxpp] / trials
        state = sampled_state(3, trials, seed=11, workers=2).covariance
        assert np.allclose(state, ref, rtol=1e-12, atol=1e-15)


class TestWorkerThreads:
    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        sampled_state(3, 3 * (1 << 16), seed=2, workers=2)
        sample_vacuum(MODES3, 3 * (1 << 16), seed=2, workers=2)
        assert threading.active_count() == before

    def test_buffers_are_not_shared_under_contention(self):
        # eight workers on two cores, switching threads every microsecond:
        # a buffer handed to two workers at once would mix their blocks
        trials = 9 * (1 << 16) + 3
        base = sampled_state(1, trials, seed=4).covariance
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = sampled_state(1, trials, seed=4, workers=8).covariance
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(base.view(np.uint64), par.view(np.uint64))

    def test_a_slow_block_keeps_its_buffer(self, monkeypatch):
        # block 0 holds its buffer for 0.2 s after its fill, while the
        # other worker fills blocks 1-3: none of them may reuse it
        fill = zpf._fill_block

        def slow_first(out, seed, block_index):
            fill(out, seed, block_index)
            if block_index == 0:
                time.sleep(0.2)

        trials = 4 * (1 << 16)
        base = sampled_state(1, trials, seed=4).covariance
        monkeypatch.setattr(zpf, "_fill_block", slow_first)
        par = sampled_state(1, trials, seed=4, workers=2).covariance
        assert np.array_equal(base.view(np.uint64), par.view(np.uint64))

    def test_one_block_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block call started a thread pool")

        monkeypatch.setattr(zpf, "ThreadPoolExecutor", refuse)
        sampled_state(3, 1 << 16, seed=2, workers=4)
        sample_vacuum(MODES3, 4097, seed=2, workers=8)
        # the patch is live: two blocks on two workers do start a pool
        with pytest.raises(AssertionError):
            sampled_state(3, (1 << 16) + 1, seed=2, workers=2)


class TestBlockAmplitudes:
    @pytest.mark.parametrize("length", [1 << 16, 1234])
    def test_vacuum_stream_contract(self, length):
        # mode m of block b is 0.5 * (z0 + i z1) of its own Philox stream,
        # bit for bit, in a full and in a short final block
        seed, b = 17, 3
        amp = block_amplitudes(3, seed, b, length)
        for m in range(3):
            z = np.random.Generator(np.random.Philox(np.random.SeedSequence(
                seed, spawn_key=(m, b)))).standard_normal((length, 2))
            ref = 0.5 * (z[:, 0] + 1j * z[:, 1])
            got = np.ascontiguousarray(amp[:, m])
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestMeanIntensity:
    def test_fresh_vacuum(self):
        ens = sample_vacuum(MODES, 10 ** 6, seed=11)
        for mode in MODES:
            assert abs(mean_intensity(ens, mode) - 0.5) < 5 * 0.5 / 1000

    def test_zeroed_amplitudes(self):
        ens = sample_vacuum(MODES, 100, seed=0)
        zeroed = ens.replace_amplitudes(np.zeros_like(ens.amplitudes))
        assert mean_intensity(zeroed, MODES[0]) == 0.0

    def test_after_squeezing(self):
        ens = sample_vacuum(MODES, 10 ** 6, seed=13)
        out = apply(squeeze_pair(0.1, 0.0), ens)
        got = mean_intensity(out, MODES[0])
        sigma = (0.5 + SINH2_01) / 1000
        assert abs(got - (0.5 + SINH2_01)) < 5 * sigma

    def test_unknown_mode(self):
        ens = sample_vacuum(MODES, 10, seed=0)
        stranger = Mode(0.7, 0.0, 0.0, "ordinary", "input")
        with pytest.raises(NotFoundError):
            mean_intensity(ens, stranger)


class TestMode:
    def test_pump_omega_pinned(self):
        with pytest.raises(InvalidArgumentError):
            Mode(0.9, 0.0, 0.0, "extraordinary", "pump")

    @pytest.mark.parametrize("omega", [0.0, -0.2, 2.0, 2.5])
    def test_omega_range(self, omega):
        with pytest.raises(InvalidArgumentError):
            Mode(omega, 0.0, 0.0, "ordinary", "input")

    def test_bad_labels(self):
        with pytest.raises(InvalidArgumentError):
            Mode(0.5, 0.0, 0.0, "diagonal", "input")
        with pytest.raises(InvalidArgumentError):
            Mode(0.5, 0.0, 0.0, "ordinary", "observer")

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Mode(0.5, math.nan, 0.0, "ordinary", "input")


class TestImmutability:
    def test_amplitude_table_frozen(self):
        ens = sample_vacuum(MODES, 100, seed=1)
        with pytest.raises(ValueError):
            ens.amplitudes[0, 0] = 0.0
