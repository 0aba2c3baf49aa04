import math

import numpy as np
import pytest

from helpers import oracle_invert_spd64
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


class TestSeedArrays:
    """An integer array tag folds every value at once, and a column of seeds
    draws one stream per row: each equals the one-at-a-time path, byte for byte."""

    SEEDS = [0, 1, -3, 2**63 + 5, 2**64 + 7]
    TAGS = np.arange(301)  # 256 and up need a second byte

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tags", [("tree",), ("perm", 2), ()])
    def test_derived_seeds_match_one_at_a_time(self, seed, tags):
        got = derive_seed(seed, *tags, self.TAGS)
        want = np.array([derive_seed(seed, *tags, int(t)) for t in self.TAGS], dtype=np.uint64)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()

    def test_two_array_tags_broadcast(self):
        got = derive_seed(4, "perm", np.arange(3)[:, None], np.arange(5))
        want = [[derive_seed(4, "perm", j, r) for r in range(5)] for j in range(3)]
        assert got.tobytes() == np.array(want, dtype=np.uint64).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_match_single_streams(self, seed):
        seeds = derive_seed(seed, "tree", self.TAGS)
        uniforms = RngStream(seeds[:, None]).uniforms(37)
        perms = RngStream(seeds[:, None]).permutation(37)
        assert uniforms.shape == perms.shape == (self.TAGS.size, 37)
        for s, u, p in zip(seeds, uniforms, perms):
            assert u.tobytes() == RngStream(int(s)).uniforms(37).tobytes()
            assert p.tobytes() == RngStream(int(s)).permutation(37).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normal_and_choice_rows_match_single_streams(self, seed):
        seeds = derive_seed(seed, "tree", self.TAGS)
        normals = RngStream(seeds[:, None]).normals(37, std=0.5)
        picks = RngStream(seeds[:, None]).choice(37, 5)
        assert normals.shape == (self.TAGS.size, 37) and picks.shape == (self.TAGS.size, 5)
        for s, z, c in zip(seeds, normals, picks):
            assert z.tobytes() == RngStream(int(s)).normals(37, std=0.5).tobytes()
            assert c.tobytes() == RngStream(int(s)).choice(37, 5).tobytes()


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

    @pytest.mark.parametrize("damping", [0.0, 0.01, 0.5])
    def test_damped_is_the_plain_sum_bit_for_bit(self, damping):
        stack = self._stack()
        stack[1, 0, 3] = stack[4, 5, 2] = -0.0  # off the diagonal, where + lam * 0.0 gives +0.0
        stack[3] = -np.eye(6)  # a negative mean diagonal: lam * 0.0 is -0.0 and keeps each -0.0
        stack[3, 1, 4] = -0.0
        before = stack.copy()
        lam = np.array([damping * float(np.mean(np.diag(a))) if damping > 0 else 0.0 for a in stack])
        want = stack + lam[:, None, None] * np.eye(6)
        got = _damped(stack, damping)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[1, 0, 3]) and np.signbit(got[3, 1, 4]) == (damping > 0)
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("count, n", [(1, 256), (2, 256), (24, 64)])
    def test_inverse_matches_identity_solve_bit_for_bit(self, count, n):
        mats = [randn_matrix(RngStream(derive_seed(300, count, i)), n, n, 1.0).astype(np.float64) for i in range(count)]
        stack = np.stack([m @ m.T for m in mats])
        if count == 24:
            stack[5] = -np.eye(n)  # fails at column 0 and is inverted as the identity
        inv, failed = _invert_spd64(stack, 0.01)
        want, want_failed = oracle_invert_spd64(stack, 0.01)
        assert inv.tobytes() == want.tobytes()
        assert {s: (e.column, e.pivot) for s, e in failed.items()} == {
            s: (e.column, e.pivot) for s, e in want_failed.items()
        }
        assert sorted(failed) == ([5] if count == 24 else [])

    def test_error_names_layer_when_given(self):
        err = NotPositiveDefiniteError(column=3, pivot=-2.0, layer="vision.block0.ff.up")
        assert "layer vision.block0.ff.up, column 3" in str(err)
        assert err.layer == "vision.block0.ff.up"
