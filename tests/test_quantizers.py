import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _channel_scales,
    activation_proxy_loss,
    assert_same_quantization,
    brute_force_proxy_min,
    oracle_awq_quantize,
    oracle_gptq_hessian,
    oracle_gptq_quantize,
    oracle_inverse_hessian_factor,
)
import mmqlab.quantizers as quantizers
from mmqlab.numerics import NotPositiveDefiniteError, RngStream, _invert_spd64, derive_seed, randn_matrix
from mmqlab.quantizers import (
    GridScheme,
    LayerStats,
    awq_quantize,
    dequantize,
    gptq_quantize,
    gptq_quantize_stack,
    ALPHA_GRID,
    _alpha_scales,
    _awq_losses,
    proxy_loss,
    rtn_group_quantize,
    uniform_quantize,
)


class TestUniform:
    def test_worked_two_bit_example(self):
        w = np.array([[0.0, 0.4, 1.0]], dtype=np.float32)
        q = uniform_quantize(w, 2)
        assert q.codes.tolist() == [[0, 1, 3]]
        assert np.allclose(dequantize(q), [[0.0, 1.0 / 3.0, 1.0]], atol=1e-7)

    def test_constant_matrix_is_exact(self):
        w = np.full((5, 3), 0.7, dtype=np.float32)
        q = uniform_quantize(w, 4)
        assert np.array_equal(dequantize(q), w)
        assert np.all(q.codes == 0)
        assert q.grid_lo[0, 0] == q.grid_hi[0, 0] == np.float32(0.7)

    def test_sixteen_bit_error_bound(self):
        w = randn_matrix(RngStream(3), 64, 64, 1.0)
        q = uniform_quantize(w, 16)
        bound = (float(w.max()) - float(w.min())) / (2 * (2**16 - 1))
        # one ulp of the largest grid endpoint covers float32 storage rounding
        allowance = float(np.spacing(np.float32(max(abs(w.max()), abs(w.min())))))
        assert float(np.max(np.abs(w - dequantize(q)))) <= bound + allowance

    def test_round_trip_error_monotone_in_bits(self):
        w = randn_matrix(RngStream(4), 16, 16, 1.0)
        errors = [
            float(np.max(np.abs(w - dequantize(uniform_quantize(w, k))))) for k in range(2, 17)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_quantize_dequantize_fixed_point(self):
        w = dequantize(uniform_quantize(randn_matrix(RngStream(5), 8, 8, 1.0), 5))
        assert np.array_equal(dequantize(uniform_quantize(w, 5)), w)

    def test_non_finite_rejected(self):
        w = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            uniform_quantize(w, 4)

    @pytest.mark.parametrize("k", [1, 17, 0])
    def test_bits_out_of_range(self, k):
        with pytest.raises(ValueError):
            uniform_quantize(np.ones((2, 2), dtype=np.float32), k)


class TestDequantize:
    def test_grid_endpoints_exact(self):
        q = uniform_quantize(np.array([[-1.0, 0.2, 1.0]], dtype=np.float32), 6)
        out = dequantize(q)
        assert out[0, 0] == np.float32(-1.0)
        assert out[0, 2] == np.float32(1.0)


class TestRtnGroup:
    def test_group_size_numel_reduces_to_uniform(self):
        w = randn_matrix(RngStream(6), 4, 8, 1.0)
        grouped = rtn_group_quantize(w, 3, w.size)
        plain = uniform_quantize(w, 3)
        assert np.array_equal(grouped.codes, plain.codes)
        assert grouped.scheme is GridScheme.PER_TENSOR

    def test_per_row_groups_recover_endpoints(self):
        w = np.array([[0.0, 1.0], [10.0, 11.0]], dtype=np.float32)
        q = rtn_group_quantize(w, 2, 2)
        assert np.array_equal(dequantize(q), w)

    def test_per_group_error_bound(self):
        w = randn_matrix(RngStream(8), 16, 128, 1.0)
        q = rtn_group_quantize(w, 4, 64)
        out = dequantize(q)
        for g in range(2):
            sl = slice(64 * g, 64 * (g + 1))
            span = w[:, sl].max(axis=1) - w[:, sl].min(axis=1)
            err = np.abs(w[:, sl] - out[:, sl]).max(axis=1)
            assert np.all(err <= span / (2 * 15) + 1e-7)

    def test_short_last_group(self):
        w = randn_matrix(RngStream(9), 3, 10, 1.0)
        q = rtn_group_quantize(w, 4, 4)
        assert q.grid_lo.shape == (3, 3)
        assert np.all(np.isfinite(dequantize(q)))

    @pytest.mark.parametrize("rows,cols,group_size", [(3, 10, 4), (2, 9, 3), (4, 5, 1), (3, 5, 7), (1, 7, 6)])
    def test_groups_are_column_slices(self, rows, cols, group_size):
        w = randn_matrix(RngStream(rows * 100 + cols), rows, cols, 1.0)
        w[0, : min(cols, group_size)] = 0.5  # one constant group
        q = rtn_group_quantize(w, 3, group_size)
        bounds = [(c0, min(c0 + group_size, cols)) for c0 in range(0, cols, group_size)]
        assert q.grid_lo.shape == (rows, len(bounds))
        for g, (c0, c1) in enumerate(bounds):
            lo, hi = w[:, c0:c1].min(axis=1), w[:, c0:c1].max(axis=1)
            assert np.array_equal(q.grid_lo[:, g], lo) and np.array_equal(q.grid_hi[:, g], hi)
            lo64, hi64 = lo[:, None].astype(np.float64), hi[:, None].astype(np.float64)
            expect = quantizers._encode(w[:, c0:c1].astype(np.float64), lo64, hi64, 7)
            assert np.array_equal(q.codes[:, c0:c1], expect)

    def test_zero_group_size_rejected(self):
        with pytest.raises(ValueError, match="group_size"):
            rtn_group_quantize(np.ones((2, 2), dtype=np.float32), 4, 0)


class TestProxyLoss:
    def test_equal_weights_give_zero(self):
        w = randn_matrix(RngStream(10), 4, 4, 1.0)
        x = randn_matrix(RngStream(11), 6, 4, 1.0)
        assert proxy_loss(w, w, LayerStats.from_activations(x).gram) == 0.0

    def test_identity_activations_give_frobenius(self):
        w = randn_matrix(RngStream(12), 4, 4, 1.0)
        w_hat = np.zeros_like(w)
        expected = float(np.sum(w.astype(np.float64) ** 2))
        assert proxy_loss(w, w_hat, LayerStats.from_activations(np.eye(4, dtype=np.float32)).gram) == pytest.approx(
            expected
        )

    def test_hand_case(self):
        w = np.eye(2, dtype=np.float32)
        w_hat = np.zeros((2, 2), dtype=np.float32)
        x = np.array([[1.0, 1.0]], dtype=np.float32)
        assert proxy_loss(w, w_hat, LayerStats.from_activations(x).gram) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proxy_loss(
                np.ones((2, 2), np.float32), np.ones((2, 3), np.float32),
                LayerStats.from_activations(np.ones((1, 2), np.float32)).gram,
            )
        with pytest.raises(ValueError):
            proxy_loss(
                np.ones((2, 2), np.float32), np.ones((2, 2), np.float32),
                LayerStats.from_activations(np.ones((1, 3), np.float32)).gram,
            )


class TestGptq:
    def test_on_grid_weights_are_a_fixed_point(self):
        base = randn_matrix(RngStream(13), 4, 6, 1.0)
        w = dequantize(rtn_group_quantize(base, 3, 6))
        x = randn_matrix(RngStream(14), 8, 6, 1.0)
        q, err = gptq_quantize(w, LayerStats.from_activations(x), 3, group_size=6)
        assert err == 0.0
        assert np.array_equal(dequantize(q), w)
        assert np.array_equal(q.codes, rtn_group_quantize(w, 3, 6).codes)

    def test_isotropic_hessian_equals_rtn(self):
        w = randn_matrix(RngStream(15), 4, 6, 1.0)
        x = (np.eye(6) * 2.0).astype(np.float32)
        q, _ = gptq_quantize(w, LayerStats.from_activations(x), 3, group_size=6)
        assert np.array_equal(q.codes, rtn_group_quantize(w, 3, 6).codes)

    def test_sandwich_on_two_by_two(self):
        # brute-force optimum <= GPTQ <= RTN (statistically), same grids
        for i in range(10):
            s = RngStream(900 + i)
            w = randn_matrix(s, 2, 2, 1.0)
            x = randn_matrix(s, 8, 2, 1.0)
            stats = LayerStats.from_activations(x)
            q, gptq_err = gptq_quantize(w, stats, 2, group_size=4)
            rtn_err = proxy_loss(w, dequantize(rtn_group_quantize(w, 2, 4)), stats.gram)
            assert brute_force_proxy_min(w, x, 2) <= gptq_err + 1e-9
            assert gptq_err <= rtn_err + 1e-9

    def test_beats_rtn_on_average(self):
        gptq_total = rtn_total = 0.0
        for i in range(20):
            s = RngStream(700 + i)
            w = randn_matrix(s, 8, 16, 1.0)
            x = randn_matrix(s, 32, 16, 1.0)
            stats = LayerStats.from_activations(x)
            _, err = gptq_quantize(w, stats, 2, group_size=16)
            gptq_total += err
            rtn_total += proxy_loss(w, dequantize(rtn_group_quantize(w, 2, 16)), stats.gram)
        assert gptq_total < rtn_total

    def test_deterministic(self):
        w = randn_matrix(RngStream(16), 8, 16, 1.0)
        x = randn_matrix(RngStream(17), 12, 16, 1.0)
        q1, e1 = gptq_quantize(w, LayerStats.from_activations(x), 4)
        q2, e2 = gptq_quantize(w, LayerStats.from_activations(x), 4)
        assert e1 == e2
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.grid_lo, q2.grid_lo)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="in_features"):
            gptq_quantize(np.ones((2, 3), np.float32), LayerStats.from_activations(np.ones((4, 2), np.float32)), 4)

    def test_zero_activation_channel_handled(self):
        w = randn_matrix(RngStream(18), 4, 6, 1.0)
        x = randn_matrix(RngStream(19), 8, 6, 1.0)
        x[:, 2] = 0.0
        q, err = gptq_quantize(w, LayerStats.from_activations(x), 4, group_size=6)
        assert np.all(np.isfinite(dequantize(q)))
        assert np.isfinite(err)


def _layer(seed, rows, cols, dead=()):
    s = RngStream(derive_seed(31, seed))
    w = randn_matrix(s, rows, cols, 1.0)
    x = randn_matrix(s, 3 * cols, cols, 1.0)
    x[:, list(dead)] = 0.0
    return w, LayerStats.from_activations(x)


def _gram_with_eigenvalues(seed, eigenvalues):
    """A symmetric Gram matrix Q diag(eigenvalues) Q^T with a random rotation Q."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(randn_matrix(RngStream(seed), n, n, 1.0).astype(np.float64))
    return (q * np.asarray(eigenvalues, np.float64)) @ q.T


class TestStackedGptq:
    """gptq_quantize_stack against the per-layer oracle, bit for bit."""

    @pytest.mark.parametrize("bits", range(2, 9))
    @pytest.mark.parametrize("group_size", [6, 20, 1 << 30], ids=["g6-ragged", "g20", "per-tensor"])
    def test_stack_of_24_matches_oracle(self, bits, group_size):
        # 20 columns: a group of 6 does not divide them; dead channels in some slices only
        layers = [_layer(i, 5, 20, dead=(3, 11) if i % 5 == 0 else ()) for i in range(24)]
        got = gptq_quantize_stack([w for w, _ in layers], [st for _, st in layers], bits, group_size=group_size)
        for (w, st), result in zip(layers, got):
            assert_same_quantization(result, oracle_gptq_quantize(w, st, bits, group_size=group_size))

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_stack_of_one_matches_oracle(self, bits):
        w, st = _layer(99, 16, 70, dead=(0, 69))
        for group_size in (32, 7, 1 << 30):
            expected = oracle_gptq_quantize(w, st, bits, group_size=group_size)
            assert_same_quantization(gptq_quantize_stack([w], [st], bits, group_size=group_size)[0], expected)
            assert_same_quantization(gptq_quantize(w, st, bits, group_size=group_size), expected)

    def test_indefinite_slice_names_layer(self):
        layers = [_layer(i, 4, 6) for i in range(3)]
        bad = LayerStats(gram=_gram_with_eigenvalues(5, [1, 1, 1, 1, 1, -3]), magnitude=np.ones(6), rows=8)
        stats = [layers[0][1], bad, layers[2][1]]
        with pytest.raises(NotPositiveDefiniteError, match=r"layer b, column \d+ has pivot") as info:
            gptq_quantize_stack([w for w, _ in layers], stats, 4, names=["a", "b", "c"])
        assert info.value.layer == "b"

    def test_retry_in_one_slice_only(self):
        # H = 2 gram has eigenvalue -0.1 and mean diagonal 1.65: 1% damping
        # fails and 10% damping succeeds
        layers = [_layer(i, 8, 6) for i in range(3)]
        retry = LayerStats(gram=_gram_with_eigenvalues(6, [1, 1, 1, 1, 1, -0.05]), magnitude=np.ones(6), rows=8)
        assert np.all(np.diag(retry.gram) != 0.0)
        hessian = 2.0 * retry.gram[None]
        assert _invert_spd64(hessian, 0.01)[1] and not _invert_spd64(hessian, 0.1)[1]
        stats = [layers[0][1], retry, layers[2][1]]
        memo = {}
        got = gptq_quantize_stack([w for w, _ in layers], stats, 8, group_size=3, names=["a", "b", "c"], factors=memo)
        for (w, _), st, name, result in zip(layers, stats, "abc", got):
            assert_same_quantization(result, oracle_gptq_quantize(w, st, 8, group_size=3))
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(st), 0.01)
            assert memo[name].tobytes() == fresh.tobytes()

    def test_factor_memo_reused_and_equal_to_fresh(self):
        layers = [_layer(i, 5, 12, dead=(4,) if i == 1 else ()) for i in range(4)]
        ws, stats, names = [w for w, _ in layers], [st for _, st in layers], ["p", "q", "r", "s"]
        memo = {}
        first = gptq_quantize_stack(ws[:2], stats[:2], 2, group_size=4, names=names[:2], factors=memo)
        assert sorted(memo) == ["p", "q"]
        kept = dict(memo)
        second = gptq_quantize_stack(ws, stats, 4, group_size=4, names=names, factors=memo)
        assert all(memo[key] is kept[key] for key in kept) and len(memo) == 4
        for w, st, a in zip(ws, stats, first):
            assert_same_quantization(a, oracle_gptq_quantize(w, st, 2, group_size=4))
        for w, st, b in zip(ws, stats, second):
            assert_same_quantization(b, oracle_gptq_quantize(w, st, 4, group_size=4))
        for name, upper in memo.items():
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(stats[names.index(name)]), 0.01)
            assert (upper.dtype, upper.shape, upper.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())

    def test_chunked_factorization_matches_oracle(self, monkeypatch):
        # chunks of 5 over a stack of 24: the last chunk is ragged, and the
        # slice that needs the 10x retry sits in a middle chunk
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", 5 * 6 * 6 * 8)
        layers = [_layer(i, 8, 6) for i in range(24)]
        retry = LayerStats(gram=_gram_with_eigenvalues(6, [1, 1, 1, 1, 1, -0.05]), magnitude=np.ones(6), rows=8)
        stats = [st for _, st in layers]
        stats[12] = retry
        names = [f"layer{i}" for i in range(24)]
        memo = {}
        got = gptq_quantize_stack([w for w, _ in layers], stats, 6, group_size=4, names=names, factors=memo)
        for (w, _), st, name, result in zip(layers, stats, names, got):
            assert_same_quantization(result, oracle_gptq_quantize(w, st, 6, group_size=4))
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(st), 0.01)
            assert memo[name].tobytes() == fresh.tobytes()

    def test_rejects_bad_stacks(self):
        (w, st), (w2, _) = _layer(1, 4, 6), _layer(2, 5, 6)
        with pytest.raises(ValueError, match="one shape"):
            gptq_quantize_stack([w, w2], [st, st], 4)
        with pytest.raises(ValueError, match="one LayerStats per weight"):
            gptq_quantize_stack([w, w], [st], 4)
        with pytest.raises(ValueError, match="layer names"):
            gptq_quantize_stack([w], [st], 4, factors={})
        with pytest.raises(ValueError, match="non-finite"):
            gptq_quantize_stack([w, np.full_like(w, np.nan)], [st, st], 4)
        with pytest.raises(ValueError, match="in_features"):
            gptq_quantize_stack([w], [_layer(3, 4, 5)[1]], 4)


class TestAwq:
    def test_flat_activations_reduce_to_rtn_bit_exactly(self):
        w = randn_matrix(RngStream(20), 4, 8, 1.0)
        x = np.ones((10, 8), dtype=np.float32)
        q, alpha, _ = awq_quantize(w, LayerStats.from_activations(x), 4, group_size=4)
        ref = rtn_group_quantize(w, 4, 4)
        assert alpha == 0.0
        assert np.array_equal(q.codes, ref.codes)
        assert np.array_equal(q.grid_lo, ref.grid_lo)
        assert np.array_equal(q.grid_hi, ref.grid_hi)
        assert q.group_size == ref.group_size

    def test_skewed_channel_improves_on_rtn(self):
        s = RngStream(21)
        w = randn_matrix(s, 8, 16, 1.0)
        x = randn_matrix(s, 32, 16, 1.0)
        x[:, 5] *= 1000.0
        stats = LayerStats.from_activations(x)
        q, alpha, err = awq_quantize(w, stats, 3, group_size=8)
        rtn_err = proxy_loss(w, dequantize(rtn_group_quantize(w, 3, 8)), stats.gram)
        assert alpha > 0.0
        assert err < rtn_err

    def test_sixteen_bit_near_lossless(self):
        s = RngStream(22)
        w = randn_matrix(s, 8, 16, 1.0)
        x = randn_matrix(s, 32, 16, 1.0)
        _, _, err = awq_quantize(w, LayerStats.from_activations(x), 16, group_size=8)
        base = float(np.sum((x.astype(np.float64) @ w.astype(np.float64).T) ** 2))
        assert err <= 1e-6 * base

    def test_zero_activation_channel_gets_unit_scale(self):
        s = RngStream(23)
        w = randn_matrix(s, 4, 8, 1.0)
        x = randn_matrix(s, 16, 8, 1.0)
        x[:, 0] = 0.0
        x[:, 3] *= 50.0
        q, alpha, err = awq_quantize(w, LayerStats.from_activations(x), 3, group_size=8)
        assert np.all(np.isfinite(dequantize(q)))
        assert np.isfinite(err)

    def test_stored_form_reproduces_effective_weights(self):
        # dequantize alone must equal the descaled reconstruction used in the search
        s = RngStream(24)
        w = randn_matrix(s, 6, 12, 1.0)
        x = randn_matrix(s, 20, 12, 1.0)
        x[:, 7] *= 200.0
        stats = LayerStats.from_activations(x)
        q, alpha, err = awq_quantize(w, stats, 2, group_size=6)
        assert alpha > 0.0
        assert proxy_loss(w, dequantize(q), stats.gram) == pytest.approx(err, rel=1e-12)



def _awq_layer(rng, rows, cols, weight_scale=1.0):
    """A random layer and its statistics, with one channel's activations scaled up."""
    w = (rng.standard_normal((rows, cols)) * weight_scale).astype(np.float32)
    x = rng.standard_normal((int(rng.integers(1, 24)), cols)).astype(np.float32)
    x[:, int(rng.integers(0, cols))] *= 10.0 ** int(rng.integers(1, 4))
    return w, x


def _assert_same_awq(got, expected):
    (q, alpha, loss), (q_ref, alpha_ref, loss_ref) = got, expected
    assert float(alpha).hex() == float(alpha_ref).hex()
    assert_same_quantization((q, loss), (q_ref, loss_ref))


class TestAwqSearchEquivalence:
    """The chunked, in-place alpha search against the per-alpha loop, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 16])
    @pytest.mark.parametrize("group_size", [1, 5, 12, 1 << 30], ids=["g1", "g5", "g12", "per-tensor"])
    def test_bits_and_group_sizes(self, k, group_size):
        # 5 and 12 leave a narrower tail group on most of these widths
        rng = np.random.default_rng(1000 * k + group_size % 1000)
        for rows, cols in ((1, 1), (1, 7), (6, 12), (9, 17), (3, 40)):
            w, x = _awq_layer(rng, rows, cols)
            stats = LayerStats.from_activations(x)
            _assert_same_awq(awq_quantize(w, stats, k, group_size), oracle_awq_quantize(w, stats, k, group_size))

    def test_random_layers_and_edge_cases(self):
        rng = np.random.default_rng(41)
        for i in range(240):
            rows, cols = int(rng.integers(1, 16)), int(rng.integers(1, 33))
            w, x = _awq_layer(rng, rows, cols, 10.0 ** rng.uniform(-6, 2))
            edge = i % 5
            if edge == 1:
                x[:, rng.random(cols) < 0.4] = 0.0  # dead channels
            elif edge == 2:
                x[:] = 0.0  # all-zero activations: every scale is 1
            elif edge == 3:
                w[int(rng.integers(0, rows))] = w[0, 0]  # a constant row: zero span at alpha 0
            elif edge == 4:
                w[:, : cols // 2 + 1] = 0.0  # zero groups, a zero span at every alpha
            group_size = int(rng.choice([1, int(rng.integers(1, cols + 1)), cols, rows * cols]))
            k = int(rng.choice([2, 3, 4, 5, 6, 7, 8, 16]))
            stats = LayerStats.from_activations(x)
            _assert_same_awq(awq_quantize(w, stats, k, group_size), oracle_awq_quantize(w, stats, k, group_size))

    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_chunks_that_do_not_divide_the_alphas(self, monkeypatch, per_chunk):
        rows, cols = 7, 13
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", per_chunk * rows * cols * 8)
        rng = np.random.default_rng(42 + per_chunk)
        for k, group_size in ((3, 4), (4, 1 << 30), (2, 13), (8, 1), (16, 6)):
            w, x = _awq_layer(rng, rows, cols)
            x[:, 2] = 0.0
            stats = LayerStats.from_activations(x)
            _assert_same_awq(awq_quantize(w, stats, k, group_size), oracle_awq_quantize(w, stats, k, group_size))

    @pytest.mark.parametrize("group_size", [1, 3, 1 << 30], ids=["g1", "g3", "per-tensor"])
    def test_losses_and_scales_match_each_alpha(self, monkeypatch, group_size):
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", 4 * 5 * 10 * 8)
        rng = np.random.default_rng(43)
        w, x = _awq_layer(rng, 5, 10)
        w[1] = 0.25
        x[:, 4] = 0.0
        stats = LayerStats.from_activations(x)
        table = _alpha_scales(stats.magnitude)
        losses = _awq_losses(w, stats.gram, 3, group_size, table)
        for alpha, scales, loss in zip(ALPHA_GRID, table, losses):
            assert scales.tobytes() == _channel_scales(stats.magnitude, alpha).tobytes()
            scaled = rtn_group_quantize((w.astype(np.float64) * scales).astype(np.float32), 3, group_size)
            w_eff = (dequantize(scaled).astype(np.float64) / scales).astype(np.float32)
            assert loss == proxy_loss(w, w_eff, stats.gram)

    def test_nan_losses_scanned_like_the_loop(self):
        # a tiny scale on a large weight overflows the float32 reconstruction
        w = np.array([[3e34, 1e20, 2.0, 2.0], [-3e34, -1e20, 1.0, 1.0]], np.float32)
        x = np.ones((4, 4), np.float32)
        x[:, 0], x[:, 1] = 1e4, 1e-4
        stats = LayerStats.from_activations(x)
        with np.errstate(all="ignore"):
            assert np.isnan(_awq_losses(w, stats.gram, 4, 1 << 30, _alpha_scales(stats.magnitude))).any()
            for k in (2, 4, 8):
                _assert_same_awq(awq_quantize(w, stats, k, 1 << 30), oracle_awq_quantize(w, stats, k, 1 << 30))

    def test_overflowing_scaled_weights_rejected(self):
        w = np.ones((4, 6), np.float32)
        w[:, 0] = 1e35
        x = np.ones((8, 6), np.float32)
        x[:, 0] = 1e6  # a scale clipped to 1e4 at alpha 1 takes 1e35 past float32
        stats = LayerStats.from_activations(x)
        for quantize in (awq_quantize, oracle_awq_quantize):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="weight matrix contains non-finite"):
                quantize(w, stats, 4, 3)


class TestLayerStats:
    def test_statistics_of_activations(self):
        x = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0]], dtype=np.float32)
        stats = LayerStats.from_activations(x)
        assert stats.rows == 3
        assert stats.gram.dtype == np.float64
        assert np.array_equal(stats.gram, [[11.0, -6.0], [-6.0, 20.0]])
        assert np.array_equal(stats.magnitude, [5.0 / 3.0, 2.0])

    @pytest.mark.parametrize(
        "x, match",
        [
            (np.array([[1.0, np.nan]], np.float32), "non-finite"),
            (np.array([[np.inf, 1.0]], np.float32), "non-finite"),
            (np.empty((0, 4), np.float32), "at least one sample"),
            (np.ones(4, np.float32), "2-D"),
        ],
    )
    def test_rejects_bad_activations(self, x, match):
        with pytest.raises(ValueError, match=match):
            LayerStats.from_activations(x)

    @pytest.mark.parametrize("quantize", [gptq_quantize, awq_quantize])
    def test_quantizers_reject_mismatched_gram(self, quantize):
        w = randn_matrix(RngStream(25), 4, 6, 1.0)
        for cols in (5, 7):
            stats = LayerStats.from_activations(randn_matrix(RngStream(26), 8, cols, 1.0))
            with pytest.raises(ValueError, match="in_features 6"):
                quantize(w, stats, 4)


class TestGramEquivalence:
    """The Gram form tr(D X^T X D^T) against the activation form ||X D^T||^2."""

    def test_proxy_loss_matches_activation_form(self):
        rng = np.random.default_rng(27)
        for i in range(40):
            out, cols, rows = (int(v) for v in rng.integers(1, 40, size=3))
            w, w_hat = rng.standard_normal((2, out, cols)).astype(np.float32)
            x = rng.standard_normal((rows, cols)).astype(np.float32)
            x[:, (i + 1) % cols] *= 1000.0
            x[:, i % cols] = 0.0
            expected = activation_proxy_loss(w, w_hat, x)
            got = proxy_loss(w, w_hat, LayerStats.from_activations(x).gram)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_awq_search_matches_activation_form(self):
        # the same search scored by the activation-form oracle picks the same alpha and codes
        rng = np.random.default_rng(28)
        for i in range(100):
            out, cols = int(rng.integers(2, 12)), int(rng.integers(2, 24))
            k, group_size = int(rng.integers(2, 5)), int(rng.integers(1, cols + 1))
            w = rng.standard_normal((out, cols)).astype(np.float32)
            x = rng.standard_normal((int(rng.integers(4, 48)), cols)).astype(np.float32)
            x[:, i % cols] *= 10.0 ** int(rng.integers(1, 4))
            q, alpha, _ = awq_quantize(w, LayerStats.from_activations(x), k, group_size=group_size)

            magnitude = np.mean(np.abs(x.astype(np.float64)), axis=0)
            best = None
            for a in ALPHA_GRID:
                scales = _channel_scales(magnitude, a)
                scaled = rtn_group_quantize((w.astype(np.float64) * scales).astype(np.float32), k, group_size)
                w_eff = (dequantize(scaled).astype(np.float64) / scales).astype(np.float32)
                loss = activation_proxy_loss(w, w_eff, x)
                if best is None or loss < best[0]:
                    best = (loss, a, scaled.codes)
            assert alpha == best[1]
            assert np.array_equal(q.codes, best[2])

@st.composite
def adversarial_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 6))
    values = draw(
        st.lists(
            st.floats(min_value=-3e38, max_value=3e38, allow_nan=False, allow_infinity=False),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(values, dtype=np.float32).reshape(rows, cols)


class TestCodeRangeSafety:
    @given(adversarial_matrices(), st.integers(2, 16))
    @settings(max_examples=120, deadline=None)
    def test_codes_never_exceed_levels(self, w, k):
        for q in (uniform_quantize(w, k), rtn_group_quantize(w, k, 2)):
            assert int(q.codes.max()) <= 2**k - 1
            assert np.all(q.grid_lo <= q.grid_hi)
            assert np.all(np.isfinite(dequantize(q)))

    @given(st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_nan_always_rejected(self, k):
        w = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(ValueError):
            uniform_quantize(w, k)
