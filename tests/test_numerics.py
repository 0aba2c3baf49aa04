import math

import numpy as np
import pytest

from mmqlab.numerics import (
    NotPositiveDefiniteError,
    RngStream,
    _cholesky64,
    _damped,
    _invert_spd64,
    derive_seed,
    randn_matrix,
)


def cholesky_one(a, damping):
    """_cholesky64 on a stack of one damped matrix, raising the recorded failure."""
    lower, failed = _cholesky64(_damped(np.asarray(a, np.float64)[None], damping))
    if failed:
        raise failed[0]
    return lower[0]


def invert_one(a, damping):
    """_invert_spd64 on a stack of one, raising the recorded failure."""
    inv, failed = _invert_spd64(np.asarray(a, np.float64)[None], damping)
    if failed:
        raise failed[0]
    return inv[0]


class TestRngStream:
    def test_raw64_golden_sequence(self):
        # canonical splitmix64 outputs for seed 0; pins the PRNG across refactors
        assert [int(v) for v in RngStream(0).raw64(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_counter_resume(self):
        a = RngStream(42)
        first = a.raw64(3)
        rest = a.raw64(2)
        b = RngStream(42)
        combined = b.raw64(5)
        assert np.array_equal(np.concatenate([first, rest]), combined)
        assert a.counter == b.counter == 5

    def test_uniforms_in_half_open_interval(self):
        u = RngStream(9).uniforms(10_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_permutation_and_choice(self):
        s = RngStream(5)
        perm = s.permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
        picked = RngStream(5, counter=1000).choice(50, 10)
        assert len(set(picked.tolist())) == 10
        assert np.all(np.diff(picked) > 0)
        with pytest.raises(ValueError):
            RngStream(5).choice(3, 4)

    def test_derive_seed_pinned(self):
        assert derive_seed(7, "model") == 7084779399996913251
        assert derive_seed(7, "model") != derive_seed(7, "probes")
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)


class TestRandnMatrix:
    def test_deterministic(self):
        a = randn_matrix(RngStream(1), 2, 2, 1.0)
        b = randn_matrix(RngStream(1), 2, 2, 1.0)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_seed_separation_with_lln_bound(self):
        a = randn_matrix(RngStream(1), 64, 64, 1.0)
        b = randn_matrix(RngStream(2), 64, 64, 1.0)
        assert a.mean() != b.mean()
        bound = 4.0 / math.sqrt(4096)
        assert abs(a.mean()) < bound and abs(b.mean()) < bound

    def test_sample_std_pinned_window(self):
        m = randn_matrix(RngStream(7), 1, 4096, 0.02)
        assert 0.018 <= float(m.std()) <= 0.022

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty matrix"):
            randn_matrix(RngStream(1), 0, 4, 1.0)
        with pytest.raises(ValueError, match="empty matrix"):
            randn_matrix(RngStream(1), 4, 0, 1.0)

    def test_bad_std_rejected(self):
        with pytest.raises(ValueError):
            randn_matrix(RngStream(1), 2, 2, 0.0)


class TestCholesky:
    def test_identity(self):
        eye = np.eye(3, dtype=np.float32)
        assert np.allclose(cholesky_one(eye, 0.0), eye)

    def test_hand_example(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]], dtype=np.float32)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(cholesky_one(a, 0.0), expected, atol=1e-6)

    def test_damping_is_mean_diag_scaled(self):
        a = np.eye(2, dtype=np.float32)
        lower = cholesky_one(a, 0.01)
        assert np.allclose(lower, np.diag([math.sqrt(1.01)] * 2), atol=1e-7)

    def test_not_positive_definite_names_column(self):
        a = np.diag([1.0, -1.0]).astype(np.float32)
        with pytest.raises(NotPositiveDefiniteError, match="column 1"):
            cholesky_one(a, 0.0)

    def test_reconstruction_round_trip_many(self):
        # 1000 random SPD matrices, sizes cycling 1..12
        for i in range(1000):
            n = i % 12 + 1
            m = randn_matrix(RngStream(derive_seed(100, i)), n, n, 1.0).astype(np.float64)
            a = (m @ m.T + np.eye(n)).astype(np.float32)
            lower = cholesky_one(a, 0.0).astype(np.float64)
            rebuilt = lower @ lower.T
            rel = np.linalg.norm(rebuilt - a.astype(np.float64)) / np.linalg.norm(a)
            assert rel <= 1e-5


class TestInvertSpd:
    def test_identity(self):
        eye = np.eye(4, dtype=np.float32)
        assert np.allclose(invert_one(eye, 0.0), eye, atol=1e-6)

    def test_diagonal(self):
        inv = invert_one(np.diag([2.0, 4.0]).astype(np.float32), 0.0)
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-7)

    def test_random_spd_residual_bound(self):
        m = randn_matrix(RngStream(17), 8, 8, 1.0).astype(np.float64)
        a = (m @ m.T + np.eye(8)).astype(np.float32)
        b = invert_one(a, 0.0).astype(np.float64)
        residual = np.linalg.norm(a.astype(np.float64) @ b - np.eye(8))
        assert residual <= 1e-4 * 8

    def test_error_propagates(self):
        with pytest.raises(NotPositiveDefiniteError):
            invert_one(np.diag([1.0, 0.0]).astype(np.float32), 0.0)

    def test_pure_and_bit_identical(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]], dtype=np.float32)
        assert np.array_equal(invert_one(a, 0.01), invert_one(a, 0.01))


class TestStackedFactorization:
    """A stack factors every slice as a stack of one would, failures included."""

    def _stack(self):
        mats = []
        for i in range(5):
            m = randn_matrix(RngStream(derive_seed(200, i)), 6, 6, 1.0).astype(np.float64)
            mats.append(m @ m.T + np.eye(6))
        mats[2] = np.diag([1.0, 2.0, -1.0, 1.0, 1.0, 1.0])
        return np.stack(mats)

    def test_slices_match_stack_of_one(self):
        stack = self._stack()
        lower, failed = _cholesky64(stack)
        inv, inv_failed = _invert_spd64(stack, 0.01)
        for s in (0, 1, 3, 4):
            one, none = _cholesky64(stack[s : s + 1])
            assert not none and lower[s].tobytes() == one[0].tobytes()
            one_inv, none = _invert_spd64(stack[s : s + 1], 0.01)
            assert not none and inv[s].tobytes() == one_inv[0].tobytes()
        assert set(failed) == set(inv_failed) == {2}
        assert failed[2].column == 2 and failed[2].pivot == -1.0
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(inv))

    def test_input_untouched_on_failure(self):
        stack = self._stack()
        before = stack.copy()
        _cholesky64(stack)
        assert np.array_equal(stack, before)

    def test_damping_is_per_slice(self):
        stack = np.stack([np.eye(2), 4.0 * np.eye(2)])
        lower, _ = _cholesky64(_damped(stack, 0.5))
        assert np.allclose(lower[0], np.diag([math.sqrt(1.5)] * 2))
        assert np.allclose(lower[1], np.diag([math.sqrt(6.0)] * 2))

    def test_error_names_layer_when_given(self):
        err = NotPositiveDefiniteError(column=3, pivot=-2.0, layer="vision.block0.ff.up")
        assert "layer vision.block0.ff.up, column 3" in str(err)
        assert err.layer == "vision.block0.ff.up"
