import math
import sys
import threading
import time

import numpy as np
import pytest

from zprainbow import zpf
from zprainbow.coupling import apply, squeeze_pair
from zprainbow.errors import InvalidArgumentError
from zprainbow.zpf import (GaussianState, Mode, sample_vacuum, sampled_state,
                           sampled_states, trial_blocks, vacuum_rows,
                           vacuum_state)

# short single blocks of 1, 4095 and 4097 trials, a full 2**16 block, and
# one trial into the second block (a one-row prefix of the reused buffers)
EDGE_TRIALS = [1, 4095, 4097, 65536, 65537]

SINH2_01 = math.sinh(0.1) ** 2  # 0.010033377809537924


def quadratures(amplitudes, index):
    """Per-trial (x, p) samples for one mode column."""
    a = amplitudes[:, index]
    root2 = np.sqrt(2.0)
    return root2 * a.real, root2 * a.imag


def mean_intensity(amplitudes, index):
    """Trial mean of |alpha|^2 for one mode column."""
    a = amplitudes[:, index]
    return float(np.mean(a.real ** 2 + a.imag ** 2))


def philox_block(n_modes, seed, block_index, length):
    """The vacuum stream contract, straight from Philox: mode m of block b
    is 0.5 * (z0 + i z1) of its own stream, keyed (seed, (m, b))."""
    out = np.empty((length, n_modes), dtype=np.complex128)
    for m in range(n_modes):
        z = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=(m, block_index)))).standard_normal((length, 2))
        out[:, m] = 0.5 * (z[:, 0] + 1j * z[:, 1])
    return out


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
        amp = sample_vacuum(2, 10 ** 6, seed=42)
        for i in range(2):
            x, p = quadratures(amp, i)
            assert 0.497 < x.var() < 0.503
            assert 0.497 < p.var() < 0.503
            assert abs(x.mean()) < 5 * math.sqrt(0.5 / 10 ** 6)

    def test_cross_mode_independence(self):
        amp = sample_vacuum(2, 10 ** 6, seed=42)
        x0, p0 = quadratures(amp, 0)
        x1, p1 = quadratures(amp, 1)
        bound = 5 * 0.5 / math.sqrt(10 ** 6)
        for a, b in [(x0, x1), (x0, p1), (p0, x1), (p0, p1), (x0, p0)]:
            assert abs(np.mean(a * b)) < bound

    def test_deterministic_per_seed(self):
        a = sample_vacuum(2, 12345, seed=7)
        b = sample_vacuum(2, 12345, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_samples(self):
        a = sample_vacuum(2, 1000, seed=7)
        b = sample_vacuum(2, 1000, seed=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_count_invariance(self, workers):
        base = sample_vacuum(2, 200_001, seed=3)
        par = sample_vacuum(2, 200_001, seed=3, workers=workers)
        assert np.array_equal(base, par)

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_block_edges_follow_stream_contract(self, trials):
        # the table is the Philox blocks end to end, for any worker
        # count, for short, full and split blocks
        ref = np.concatenate([philox_block(3, 11, b, stop - start)
                              for b, start, stop in trial_blocks(trials)])
        for workers in (1, 2, 4):
            amp = sample_vacuum(3, trials, seed=11, workers=workers)
            assert np.array_equal(amp.view(np.uint64), ref.view(np.uint64))

    def test_prefix_stability(self):
        # growing the trial count must not change earlier trials
        small = sample_vacuum(2, 70_000, seed=5)
        large = sample_vacuum(2, 140_000, seed=5)
        assert np.array_equal(large[:70_000], small)

    def test_empty_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_vacuum(0, 10, seed=0)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_vacuum(2, 0, seed=0)

    def test_matches_vacuum_state_covariance(self):
        amp = sample_vacuum(2, 400_000, seed=21)
        quads = np.column_stack([*quadratures(amp, 0), *quadratures(amp, 1)])
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
    def test_one_pass_matches_one_call_per_seed(self, trials):
        # sharing a pass with other seeds changes no bit of a seed's state
        seeds = [11, 12, 2 ** 64 - 1]
        for workers in (1, 2, 4):
            states = sampled_states(3, trials, seeds, workers=workers)
            assert len(states) == len(seeds)
            for seed, state in zip(seeds, states):
                ref = sampled_state(3, trials, seed, workers=workers)
                assert np.array_equal(state.view(np.uint64),
                                      ref.covariance.view(np.uint64))

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_raw_moments_of_the_table(self, trials):
        # the reused block buffers hold no stale rows: the state is the
        # raw second moment of sample_vacuum's quadratures
        quads = math.sqrt(2.0) * sample_vacuum(3, trials, seed=11).view(
            np.float64)
        xxpp = [0, 2, 4, 1, 3, 5]
        ref = quads[:, xxpp].T @ quads[:, xxpp] / trials
        state = sampled_state(3, trials, seed=11, workers=2).covariance
        assert np.allclose(state, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", EDGE_TRIALS + [200_001])
    def test_bits_follow_stream_contract(self, trials, workers):
        # bit for bit: each block's raw Philox draws, interleaved (Re, Im)
        # per mode in a C-contiguous (length, 6) array, reduced to x^T x,
        # summed in block order, reordered to xxpp and scaled
        total = np.zeros((6, 6))
        for b, start, stop in trial_blocks(trials):
            x = np.empty((stop - start, 6))
            for m in range(3):
                x[:, 2 * m:2 * m + 2] = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(11, spawn_key=(m, b)))
                ).standard_normal((stop - start, 2))
            total = total + x.T @ x
        xxpp = [0, 2, 4, 1, 3, 5]
        ref = total[np.ix_(xxpp, xxpp)] * (0.5 / trials)
        state = sampled_state(3, trials, 11, workers).covariance
        assert np.array_equal(state.view(np.uint64), ref.view(np.uint64))


class TestVacuumRows:
    TRIALS = 3 * (1 << 16) + 5

    @pytest.fixture(scope="class")
    def table(self):
        return sample_vacuum(3, self.TRIALS, seed=9)

    # empty, one row, whole and split blocks, block edges, the whole table
    @pytest.mark.parametrize("start, stop", [
        (0, 0), (0, 1), (70_000, 70_001), (TRIALS - 1, TRIALS),
        (0, 1 << 16), (1 << 16, 2 << 16), (65_535, 65_537), (5, 131_000),
        (100_000, TRIALS), (0, TRIALS)])
    def test_rows_are_the_table_slice(self, table, start, stop):
        for workers in (1, 2, 4):
            rows = vacuum_rows(3, self.TRIALS, 9, start, stop, workers)
            assert rows.shape == (stop - start, 3)
            assert np.array_equal(rows.view(np.uint64),
                                  table[start:stop].view(np.uint64))

    def test_draws_only_the_overlapping_prefixes(self, monkeypatch):
        fill, drawn = zpf._fill_block, []

        def record(out, scratch, seed, block_index, first=0):
            drawn.append((block_index, first, len(out)))
            fill(out, scratch, seed, block_index, first)

        monkeypatch.setattr(zpf, "_fill_block", record)
        vacuum_rows(2, self.TRIALS, 9, (1 << 16) + 7, (2 << 16) + 3)
        # block 1 from row 7 on; block 2 drawn up to its row 3 only
        assert drawn == [(1, 7, (1 << 16) - 7), (2, 0, 3)]

    @pytest.mark.parametrize("start, stop", [
        (-1, 3), (4, 3), (0, TRIALS + 1)])
    def test_rows_outside_the_table_rejected(self, start, stop):
        with pytest.raises(InvalidArgumentError):
            vacuum_rows(3, self.TRIALS, 9, start, stop)


class TestWorkerThreads:
    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        sampled_state(3, 3 * (1 << 16), seed=2, workers=2)
        sample_vacuum(3, 3 * (1 << 16), seed=2, workers=2)
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

        def slow_first(out, scratch, seed, block_index):
            fill(out, scratch, seed, block_index)
            if block_index == 0:
                time.sleep(0.2)

        trials = 4 * (1 << 16)
        base = sampled_state(1, trials, seed=4).covariance
        monkeypatch.setattr(zpf, "_fill_block", slow_first)
        par = sampled_state(1, trials, seed=4, workers=2).covariance
        assert np.array_equal(base.view(np.uint64), par.view(np.uint64))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("sample", [sampled_state, sample_vacuum])
    def test_a_failed_fill_reaches_the_caller(self, monkeypatch, sample,
                                              workers):
        # a failed block must hand its buffers back: once every buffer is
        # lost, the blocks still queued would wait for one forever
        def fail(*args):
            raise MemoryError("block fill failed")

        monkeypatch.setattr(zpf, "_fill_block", fail)
        raised = []

        def call():
            try:
                sample(1, 8 * (1 << 16), seed=4, workers=workers)
            except MemoryError as exc:
                raised.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), "the sampler hung after a failed fill"
        assert len(raised) == 1

    def test_one_block_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block call started a thread pool")

        monkeypatch.setattr(zpf, "ThreadPoolExecutor", refuse)
        sampled_state(3, 1 << 16, seed=2, workers=4)
        sample_vacuum(3, 4097, seed=2, workers=8)
        # the patch is live: two blocks on two workers do start a pool
        with pytest.raises(AssertionError):
            sampled_state(3, (1 << 16) + 1, seed=2, workers=2)


class TestBlockAmplitudes:
    @pytest.mark.parametrize("length", [1 << 16, 1234])
    def test_vacuum_stream_contract(self, length):
        # the final block of a table is the raw Philox reference, bit for
        # bit, when it is full and when it is short
        seed, b = 17, 3
        amp = sample_vacuum(3, b * (1 << 16) + length, seed)[b * (1 << 16):]
        ref = philox_block(3, seed, b, length)
        assert np.array_equal(amp.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("scratch_rows", [1, 3, 1000, 1 << 14])
    @pytest.mark.parametrize("first", [0, 7, 2500])
    def test_scratch_size_keeps_the_draws(self, scratch_rows, first):
        # a stream drawn piece by piece through any scratch carries on
        # from call to call: the rows are the whole stream's, bit for bit
        seed, b, length = 17, 3, 1500
        out = np.empty((length, 6))
        zpf._fill_block(out, np.empty((scratch_rows, 2)), seed, b, first)
        ref = 2 * philox_block(3, seed, b, first + length)[first:]
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


class TestMeanIntensity:
    def test_fresh_vacuum(self):
        amp = sample_vacuum(2, 10 ** 6, seed=11)
        for i in range(2):
            assert abs(mean_intensity(amp, i) - 0.5) < 5 * 0.5 / 1000

    def test_after_squeezing(self):
        out = apply(squeeze_pair(0.1, 0.0), sample_vacuum(2, 10 ** 6, seed=13))
        got = mean_intensity(out, 0)
        sigma = (0.5 + SINH2_01) / 1000
        assert abs(got - (0.5 + SINH2_01)) < 5 * sigma


class TestMode:
    @pytest.mark.parametrize("omega", [0.0, -0.2, 2.0, 2.5])
    def test_omega_range(self, omega):
        with pytest.raises(InvalidArgumentError):
            Mode(omega, 0.0, 0.0, "ordinary")

    def test_bad_labels(self):
        with pytest.raises(InvalidArgumentError):
            Mode(0.5, 0.0, 0.0, "diagonal")

    def test_nonfinite_rejected(self):
        # NaN and both infinities in each float field; a non-finite omega
        # also falls outside (0, 2)
        for value in (math.nan, math.inf, -math.inf):
            for fields in ((value, 0.0, 0.0), (0.5, value, 0.0),
                           (0.5, 0.0, value)):
                with pytest.raises(InvalidArgumentError):
                    Mode(*fields, "ordinary")
            with pytest.raises(InvalidArgumentError, match="finite"):
                Mode(0.5, 0.0, np.float64(value), "ordinary")

