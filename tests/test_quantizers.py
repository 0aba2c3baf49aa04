import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _channel_scales,
    activation_proxy_loss,
    assert_same_quantization,
    brute_force_proxy_min,
    oracle_awq_quantize,
    oracle_decode,
    oracle_dequantize,
    oracle_encode,
    oracle_gptq_hessian,
    oracle_gptq_quantize,
    oracle_inverse_hessian_factor,
    oracle_layer_stats,
    same_bits,
    traced_peak,
)
import mmqlab.quantizers as quantizers
from mmqlab.numerics import NotPositiveDefiniteError, RngStream, _invert_spd64, derive_seed, randn_matrix
from mmqlab.pipeline import CALIBRATION_ROW_CAP
from mmqlab.quantizers import (
    LayerStats,
    QuantizedMatrix,
    awq_quantize,
    dequantize,
    gptq_quantize,
    ALPHA_GRID,
    _alpha_scales,
    _awq_losses,
    proxy_loss,
    rtn_group_quantize,
)


def _scored(w, stats, q):
    """A quantizer's stored matrix with its proxy loss, as apply_quantization scores it."""
    return q, proxy_loss(w, dequantize(q), stats.gram)


class TestUniform:
    def test_worked_two_bit_example(self):
        w = np.array([[0.0, 0.4, 1.0]], dtype=np.float32)
        q = rtn_group_quantize(w, 2, w.size)
        assert q.codes.tolist() == [[0, 1, 3]]
        assert np.allclose(dequantize(q), [[0.0, 1.0 / 3.0, 1.0]], atol=1e-7)

    def test_constant_matrix_is_exact(self):
        w = np.full((5, 3), 0.7, dtype=np.float32)
        q = rtn_group_quantize(w, 4, w.size)
        assert np.array_equal(dequantize(q), w)
        assert np.all(q.codes == 0)
        assert q.grid_lo[0, 0] == q.grid_hi[0, 0] == np.float32(0.7)

    def test_sixteen_bit_error_bound(self):
        w = randn_matrix(RngStream(3), 64, 64, 1.0)
        q = rtn_group_quantize(w, 16, w.size)
        bound = (float(w.max()) - float(w.min())) / (2 * (2**16 - 1))
        # one ulp of the largest grid endpoint covers float32 storage rounding
        allowance = float(np.spacing(np.float32(max(abs(w.max()), abs(w.min())))))
        assert float(np.max(np.abs(w - dequantize(q)))) <= bound + allowance

    def test_round_trip_error_monotone_in_bits(self):
        w = randn_matrix(RngStream(4), 16, 16, 1.0)
        errors = [
            float(np.max(np.abs(w - dequantize(rtn_group_quantize(w, k, w.size))))) for k in range(2, 17)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_quantize_dequantize_fixed_point(self):
        w = dequantize(rtn_group_quantize(randn_matrix(RngStream(5), 8, 8, 1.0), 5, 64))
        assert np.array_equal(dequantize(rtn_group_quantize(w, 5, w.size)), w)

    def test_non_finite_rejected(self):
        w = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            rtn_group_quantize(w, 4, w.size)

    @pytest.mark.parametrize("k", [1, 17, 0])
    def test_bits_out_of_range(self, k):
        with pytest.raises(ValueError):
            rtn_group_quantize(np.ones((2, 2), dtype=np.float32), k, 4)


class TestDequantize:
    def test_grid_endpoints_exact(self):
        q = rtn_group_quantize(np.array([[-1.0, 0.2, 1.0]], dtype=np.float32), 6, 3)
        out = dequantize(q)
        assert out[0, 0] == np.float32(-1.0)
        assert out[0, 2] == np.float32(1.0)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_one_gather_matches_two_branch_oracle(self, k):
        # the oracle reads a per-tensor grid's two scalars; dequantize gathers column group 0
        rng = np.random.default_rng(k)
        w = rng.standard_normal((6, 12)).astype(np.float32)
        x = rng.standard_normal((20, 12)).astype(np.float32)
        x[:, 7] *= 200.0
        stats = LayerStats.from_activations(x)
        per_tensor = {
            "uniform": rtn_group_quantize(w, k, w.size),
            "gptq": gptq_quantize([w], [stats], k, group_size=1 << 30)[0],
        }
        per_group = {  # groups of 4 tile the 12 columns; groups of 5 leave a tail of 2
            "rtn-g4": rtn_group_quantize(w, k, 4),
            "rtn-g5": rtn_group_quantize(w, k, 5),
            "gptq-g4": gptq_quantize([w], [stats], k, group_size=4)[0],
            "gptq-g5": gptq_quantize([w], [stats], k, group_size=5)[0],
        }
        per_channel = {  # AWQ's folded grids, from a per-group and a per-tensor scaled matrix
            "awq-g5": awq_quantize(w, stats, k, group_size=5)[0],
            "awq-per-tensor": awq_quantize(w, stats, k, group_size=1 << 30)[0],
        }
        assert all(q.grid_lo.shape == (1, 1) for q in per_tensor.values())
        assert all(q.grid_lo.shape == (6, 3) for q in per_group.values())
        assert all((q.group_size, q.grid_lo.shape) == (1, (6, 12)) for q in per_channel.values())
        for name, q in {**per_tensor, **per_group, **per_channel}.items():
            got, want = dequantize(q), oracle_dequantize(q)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


class TestQuantizedMatrix:
    @pytest.mark.parametrize("bits", [-1, 0, 1, 17, 64])
    def test_bits_out_of_range_named(self, bits):
        grid = np.zeros((1, 1), np.float32)
        with pytest.raises(ValueError, match=rf"^bits must be in \[2, 16\], got {bits}$"):
            QuantizedMatrix(codes=np.zeros((2, 2), np.uint16), bits=bits, group_size=4, grid_lo=grid, grid_hi=grid)

    @pytest.mark.parametrize("group_size", [0, -3])
    def test_group_size_below_one_named(self, group_size):
        grid = np.zeros((1, 1), np.float32)
        with pytest.raises(ValueError, match=rf"^group_size must be >= 1, got {group_size}$"):
            QuantizedMatrix(
                codes=np.zeros((2, 2), np.uint16), bits=4, group_size=group_size, grid_lo=grid, grid_hi=grid
            )


class TestRtnGroup:
    def test_group_size_numel_reduces_to_uniform(self):
        # one per-tensor min/max grid, every weight rounded against it
        w = randn_matrix(RngStream(6), 4, 8, 1.0)
        grouped = rtn_group_quantize(w, 3, w.size)
        lo, hi = np.float64(w.min()), np.float64(w.max())
        assert np.array_equal(grouped.codes, oracle_encode(w.astype(np.float64), lo, hi, 7))
        assert grouped.group_size == w.size and grouped.grid_lo.shape == (1, 1)
        assert (grouped.grid_lo[0, 0], grouped.grid_hi[0, 0]) == (w.min(), w.max())

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
            expect = oracle_encode(w[:, c0:c1].astype(np.float64), lo64, hi64, 7)
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
        stats = LayerStats.from_activations(x)
        q, err = _scored(w, stats, gptq_quantize([w], [stats], 3, group_size=6)[0])
        assert err == 0.0
        assert np.array_equal(dequantize(q), w)
        assert np.array_equal(q.codes, rtn_group_quantize(w, 3, 6).codes)

    def test_isotropic_hessian_equals_rtn(self):
        w = randn_matrix(RngStream(15), 4, 6, 1.0)
        x = (np.eye(6) * 2.0).astype(np.float32)
        q = gptq_quantize([w], [LayerStats.from_activations(x)], 3, group_size=6)[0]
        assert np.array_equal(q.codes, rtn_group_quantize(w, 3, 6).codes)

    def test_sandwich_on_two_by_two(self):
        # brute-force optimum <= GPTQ <= RTN (statistically), same grids
        for i in range(10):
            s = RngStream(900 + i)
            w = randn_matrix(s, 2, 2, 1.0)
            x = randn_matrix(s, 8, 2, 1.0)
            stats = LayerStats.from_activations(x)
            _, gptq_err = _scored(w, stats, gptq_quantize([w], [stats], 2, group_size=4)[0])
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
            _, err = _scored(w, stats, gptq_quantize([w], [stats], 2, group_size=16)[0])
            gptq_total += err
            rtn_total += proxy_loss(w, dequantize(rtn_group_quantize(w, 2, 16)), stats.gram)
        assert gptq_total < rtn_total

    def test_deterministic(self):
        w = randn_matrix(RngStream(16), 8, 16, 1.0)
        x = randn_matrix(RngStream(17), 12, 16, 1.0)
        s1, s2 = LayerStats.from_activations(x), LayerStats.from_activations(x)
        q1, e1 = _scored(w, s1, gptq_quantize([w], [s1], 4)[0])
        q2, e2 = _scored(w, s2, gptq_quantize([w], [s2], 4)[0])
        assert e1 == e2
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.grid_lo, q2.grid_lo)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="in_features"):
            gptq_quantize([np.ones((2, 3), np.float32)], [LayerStats.from_activations(np.ones((4, 2), np.float32))], 4)

    def test_zero_activation_channel_handled(self):
        w = randn_matrix(RngStream(18), 4, 6, 1.0)
        x = randn_matrix(RngStream(19), 8, 6, 1.0)
        x[:, 2] = 0.0
        stats = LayerStats.from_activations(x)
        q, err = _scored(w, stats, gptq_quantize([w], [stats], 4, group_size=6)[0])
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
    """gptq_quantize against the per-layer oracle, bit for bit."""

    @pytest.mark.parametrize("bits", range(2, 9))
    @pytest.mark.parametrize(
        "group_size", [6, 20, 25, 100, 1 << 30], ids=["g6-ragged", "g20", "g25-wider-than-row", "g100-all-weights", "per-tensor"]
    )
    def test_stack_of_24_matches_oracle(self, bits, group_size):
        # 20 columns: a group of 6 does not divide them, a group of 25 is one per row
        # clipped to the row, and 100 = 5 x 20 is the smallest per-tensor group;
        # dead channels in some slices only
        layers = [_layer(i, 5, 20, dead=(3, 11) if i % 5 == 0 else ()) for i in range(24)]
        got = gptq_quantize([w for w, _ in layers], [st for _, st in layers], bits, group_size=group_size)
        for (w, st), q in zip(layers, got):
            assert_same_quantization(_scored(w, st, q), oracle_gptq_quantize(w, st, bits, group_size=group_size))

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_stack_of_one_matches_oracle(self, bits):
        w, st = _layer(99, 16, 70, dead=(0, 69))
        for group_size in (32, 7, 1 << 30):
            expected = oracle_gptq_quantize(w, st, bits, group_size=group_size)
            assert_same_quantization(_scored(w, st, gptq_quantize([w], [st], bits, group_size=group_size)[0]), expected)

    def test_indefinite_slice_names_layer(self):
        layers = [_layer(i, 4, 6) for i in range(3)]
        bad = LayerStats(gram=_gram_with_eigenvalues(5, [1, 1, 1, 1, 1, -3]), magnitude=np.ones(6), rows=8)
        stats = [layers[0][1], bad, layers[2][1]]
        with pytest.raises(NotPositiveDefiniteError, match=r"layer b, column \d+ has pivot") as info:
            gptq_quantize([w for w, _ in layers], stats, 4, names=["a", "b", "c"])
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
        got = gptq_quantize([w for w, _ in layers], stats, 8, group_size=3, names=["a", "b", "c"])
        for (w, _), st, q in zip(layers, stats, got):
            assert_same_quantization(_scored(w, st, q), oracle_gptq_quantize(w, st, 8, group_size=3))
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(st), 0.01)
            assert st.lower.tobytes() == fresh.T.tobytes()

    def test_factor_memo_reused_and_equal_to_fresh(self, monkeypatch):
        layers = [_layer(i, 5, 12, dead=(4,) if i == 1 else ()) for i in range(4)]
        ws, stats, names = [w for w, _ in layers], [st for _, st in layers], ["p", "q", "r", "s"]
        assert all(st.lower is None for st in stats)
        factored = []
        original = quantizers._inverse_hessian_factor

        def counting(hessians, damping, labels):
            factored.append(list(labels))
            return original(hessians, damping, labels)

        monkeypatch.setattr(quantizers, "_inverse_hessian_factor", counting)
        first = gptq_quantize(ws[:2], stats[:2], 2, group_size=4, names=names[:2])
        assert factored == [["p", "q"]] and [st.lower is None for st in stats] == [False, False, True, True]
        kept = [st.lower for st in stats[:2]]
        second = gptq_quantize(ws, stats, 4, group_size=4, names=names)
        # the second call keeps the first call's arrays and factors only the two new stats
        assert factored == [["p", "q"], ["r", "s"]]
        assert all(st.lower is lower for st, lower in zip(stats, kept))
        for w, st, a in zip(ws, stats, first):
            assert_same_quantization(_scored(w, st, a), oracle_gptq_quantize(w, st, 2, group_size=4))
        for w, st, b in zip(ws, stats, second):
            assert_same_quantization(_scored(w, st, b), oracle_gptq_quantize(w, st, 4, group_size=4))
        for st in stats:
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(st), 0.01).T
            assert (st.lower.dtype, st.lower.shape, st.lower.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())

    @pytest.mark.parametrize("chunk_slices", [1, 2, 8], ids=["chunks-of-1", "chunks-of-2", "one-chunk"])
    def test_stats_factors_are_views_of_the_swept_stack(self, monkeypatch, chunk_slices):
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", chunk_slices * 12 * 12 * 8)
        layers = [_layer(i, 5, 12) for i in range(5)]
        stats = [st for _, st in layers]
        swept = []
        original = quantizers._gptq_factors

        def recording(*args):
            swept.append(original(*args))
            return swept[-1]

        monkeypatch.setattr(quantizers, "_gptq_factors", recording)
        gptq_quantize([w for w, _ in layers], stats, 4, group_size=4)
        (upper,) = swept
        for s, st in enumerate(stats):
            assert np.shares_memory(st.lower, upper)
            assert st.lower.tobytes() == np.ascontiguousarray(upper[s].T).tobytes()

    def test_factor_cannot_be_set_at_construction(self):
        _, st = _layer(1, 4, 6)
        with pytest.raises(TypeError):
            LayerStats(gram=st.gram, magnitude=st.magnitude, rows=st.rows, lower=np.eye(6))
        with pytest.raises(AttributeError):
            st.gram = st.gram

    def test_chunked_factorization_matches_oracle(self, monkeypatch):
        # chunks of 5 over a stack of 24: the last chunk is ragged, and the
        # slice that needs the 10x retry sits in a middle chunk
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", 5 * 6 * 6 * 8)
        layers = [_layer(i, 8, 6) for i in range(24)]
        retry = LayerStats(gram=_gram_with_eigenvalues(6, [1, 1, 1, 1, 1, -0.05]), magnitude=np.ones(6), rows=8)
        stats = [st for _, st in layers]
        stats[12] = retry
        names = [f"layer{i}" for i in range(24)]
        got = gptq_quantize([w for w, _ in layers], stats, 6, group_size=4, names=names)
        for (w, _), st, q in zip(layers, stats, got):
            assert_same_quantization(_scored(w, st, q), oracle_gptq_quantize(w, st, 6, group_size=4))
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(st), 0.01)
            assert st.lower.tobytes() == fresh.T.tobytes()

    def test_peak_memory_holds_no_sweep_copy_or_identity_while_factoring(self):
        # six 64 x 256 layers, the language ff.down shape: the peak (6.02 MiB) is
        # set while a chunk of two 256 x 256 factors is inverted, beside the
        # 3 MiB factor stack; stacking the sweep's float64 weights before the
        # factors took it to 6.77 MiB, an identity to solve against to 6.50
        layers = [_layer(i, 64, 256) for i in range(6)]
        ws, stats = [w for w, _ in layers], [st for _, st in layers]
        assert traced_peak(lambda: gptq_quantize(ws, stats, 4)) < 6.25 * 2**20

    def test_rejects_bad_stacks(self):
        (w, st), (w2, _) = _layer(1, 4, 6), _layer(2, 5, 6)
        with pytest.raises(ValueError, match="one shape"):
            gptq_quantize([w, w2], [st, st], 4)
        with pytest.raises(ValueError, match="one LayerStats per weight"):
            gptq_quantize([w, w], [st], 4)
        with pytest.raises(ValueError, match="non-finite"):
            gptq_quantize([w, np.full_like(w, np.nan)], [st, st], 4)
        with pytest.raises(ValueError, match="in_features"):
            gptq_quantize([w], [_layer(3, 4, 5)[1]], 4)


class TestAwq:
    def test_flat_activations_reduce_to_rtn_bit_exactly(self):
        w = randn_matrix(RngStream(20), 4, 8, 1.0)
        x = np.ones((10, 8), dtype=np.float32)
        q, alpha = awq_quantize(w, LayerStats.from_activations(x), 4, group_size=4)
        ref = rtn_group_quantize(w, 4, 4)
        assert alpha == 0.0
        assert np.array_equal(q.codes, ref.codes)
        # the stored form is the folded per-channel grids, which unit scales leave at RTN's values
        assert (q.group_size, q.grid_lo.shape) == (1, w.shape)
        assert same_bits(dequantize(q), dequantize(ref))

    def test_skewed_channel_improves_on_rtn(self):
        s = RngStream(21)
        w = randn_matrix(s, 8, 16, 1.0)
        x = randn_matrix(s, 32, 16, 1.0)
        x[:, 5] *= 1000.0
        stats = LayerStats.from_activations(x)
        q, alpha = awq_quantize(w, stats, 3, group_size=8)
        err = proxy_loss(w, dequantize(q), stats.gram)
        rtn_err = proxy_loss(w, dequantize(rtn_group_quantize(w, 3, 8)), stats.gram)
        assert alpha > 0.0
        assert err < rtn_err

    def test_sixteen_bit_near_lossless(self):
        s = RngStream(22)
        w = randn_matrix(s, 8, 16, 1.0)
        x = randn_matrix(s, 32, 16, 1.0)
        stats = LayerStats.from_activations(x)
        err = proxy_loss(w, dequantize(awq_quantize(w, stats, 16, group_size=8)[0]), stats.gram)
        base = float(np.sum((x.astype(np.float64) @ w.astype(np.float64).T) ** 2))
        assert err <= 1e-6 * base

    def test_zero_activation_channel_gets_unit_scale(self):
        s = RngStream(23)
        w = randn_matrix(s, 4, 8, 1.0)
        x = randn_matrix(s, 16, 8, 1.0)
        x[:, 0] = 0.0
        x[:, 3] *= 50.0
        stats = LayerStats.from_activations(x)
        q, _ = awq_quantize(w, stats, 3, group_size=8)
        err = proxy_loss(w, dequantize(q), stats.gram)
        assert np.all(np.isfinite(dequantize(q)))
        assert np.isfinite(err)

    def test_stored_form_reproduces_effective_weights(self):
        # dequantize alone must equal the descaled reconstruction used in the search
        s = RngStream(24)
        w = randn_matrix(s, 6, 12, 1.0)
        x = randn_matrix(s, 20, 12, 1.0)
        x[:, 7] *= 200.0
        stats = LayerStats.from_activations(x)
        q, alpha = awq_quantize(w, stats, 2, group_size=6)
        scales = _channel_scales(stats.magnitude, alpha)
        scaled = rtn_group_quantize((w.astype(np.float64) * scales).astype(np.float32), 2, 6)
        w_eff = (dequantize(scaled).astype(np.float64) / scales).astype(np.float32)
        assert alpha > 0.0
        # the folded grids store (lo, hi) / scale in float32: equal up to that rounding
        assert np.max(np.abs(dequantize(q) - w_eff)) <= 2 * np.spacing(np.abs(w_eff).max())



def _awq_layer(rng, rows, cols, weight_scale=1.0):
    """A random layer and its statistics, with one channel's activations scaled up."""
    w = (rng.standard_normal((rows, cols)) * weight_scale).astype(np.float32)
    x = rng.standard_normal((int(rng.integers(1, 24)), cols)).astype(np.float32)
    x[:, int(rng.integers(0, cols))] *= 10.0 ** int(rng.integers(1, 4))
    return w, x


def _assert_same_awq(w, stats, k, group_size):
    """awq_quantize and the per-alpha oracle agree bit for bit, the loss scored from the stored matrix."""
    q, alpha = awq_quantize(w, stats, k, group_size)
    q_ref, alpha_ref, loss_ref = oracle_awq_quantize(w, stats, k, group_size)
    assert float(alpha).hex() == float(alpha_ref).hex()
    assert_same_quantization(_scored(w, stats, q), (q_ref, loss_ref))


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
            _assert_same_awq(w, stats, k, group_size)

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
            _assert_same_awq(w, stats, k, group_size)

    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_chunks_that_do_not_divide_the_alphas(self, monkeypatch, per_chunk):
        rows, cols = 7, 13
        monkeypatch.setattr(quantizers, "CHUNK_BYTES", per_chunk * rows * cols * 8)
        rng = np.random.default_rng(42 + per_chunk)
        for k, group_size in ((3, 4), (4, 1 << 30), (2, 13), (8, 1), (16, 6)):
            w, x = _awq_layer(rng, rows, cols)
            x[:, 2] = 0.0
            stats = LayerStats.from_activations(x)
            _assert_same_awq(w, stats, k, group_size)

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
                _assert_same_awq(w, stats, k, 1 << 30)

    def test_overflowing_scaled_weights_rejected(self):
        w = np.ones((4, 6), np.float32)
        w[:, 0] = 1e35
        x = np.ones((8, 6), np.float32)
        x[:, 0] = 1e6  # a scale clipped to 1e4 at alpha 1 takes 1e35 past float32
        stats = LayerStats.from_activations(x)
        for quantize in (awq_quantize, oracle_awq_quantize):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="weight matrix contains non-finite"):
                quantize(w, stats, 4, 3)


# LayerStats.from_activations' messages for bad input, whole
NON_FINITE = "calibration activations contain non-finite entries"
NO_SAMPLE = "calibration requires at least one sample"


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

    @pytest.mark.parametrize(
        "x, rows, message",
        [
            (np.array([[1.0, np.nan]], np.float32), None, NON_FINITE),
            (np.array([[1.0, 2.0], [np.inf, 1.0]], np.float32), [1], NON_FINITE),
            (np.empty((0, 4), np.float32), None, NO_SAMPLE),
            (np.ones((3, 4), np.float32), np.array([], np.intp), NO_SAMPLE),
        ],
        ids=["non-finite", "non-finite-sampled", "empty", "empty-sample"],
    )
    def test_bad_activations_keep_their_messages(self, x, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LayerStats.from_activations(x, rows)

    @staticmethod
    def _rows(n, sampled):
        if not sampled:
            return None
        k = CALIBRATION_ROW_CAP if n > CALIBRATION_ROW_CAP else (n + 1) // 2
        return RngStream(derive_seed(5, "rows", n)).choice(n, k)

    @pytest.mark.parametrize("sampled", [False, True], ids=["all", "sampled"])
    @pytest.mark.parametrize("d", [1, 3, 64, 256])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 2176])
    def test_matches_plain_reduction_bit_for_bit(self, n, d, sampled):
        # at d = 64 and 256 the 2,176 rows span several CHUNK_BYTES row chunks, the last one partial
        x = randn_matrix(RngStream(derive_seed(5, "acts", n, d)), n, d, 2.0)
        x[:, 0] = 0.0  # a dead channel, and signed zeros whose bits must match too
        x[::2, -1] *= -0.0
        before = x.copy()
        rows = self._rows(n, sampled)
        got, expected = LayerStats.from_activations(x, rows), oracle_layer_stats(x, rows)
        assert got.rows == expected.rows == (n if rows is None else len(rows))
        assert np.array_equal(got.gram.view(np.uint64), expected.gram.view(np.uint64))
        assert np.array_equal(got.magnitude.view(np.uint64), expected.magnitude.view(np.uint64))
        assert np.array_equal(x.view(np.uint32), before.view(np.uint32))

    def test_non_finite_outside_the_sample_is_not_read(self):
        x = np.array([[np.nan, 1.0], [2.0, 3.0]], np.float32)
        assert LayerStats.from_activations(x, [1]).rows == 1

    def test_peak_memory_is_one_float64_buffer(self):
        n, d, k = 2176, 256, CALIBRATION_ROW_CAP
        x = randn_matrix(RngStream(derive_seed(5, "peak")), n, d, 1.0)
        rows = RngStream(derive_seed(5, "peak rows")).choice(n, k)
        bound = 1.5 * k * d * 8

        assert traced_peak(lambda: LayerStats.from_activations(x, rows)) < bound
        # the measure sees numpy's buffers: the plain reduction holds three copies
        assert traced_peak(lambda: oracle_layer_stats(x, rows)) > bound

    @pytest.mark.parametrize(
        "quantize",
        [lambda w, stats, k: gptq_quantize([w], [stats], k), awq_quantize],
        ids=["gptq_quantize", "awq_quantize"],
    )
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
            q, alpha = awq_quantize(w, LayerStats.from_activations(x), k, group_size=group_size)

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


@st.composite
def rounding_cases(draw):
    """(values, lo, hi, levels) for the rounding pair: a float64 grid from
    float32 endpoints, per tensor or one (lo, hi) per row and group, some
    groups of zero span, and values on, between and off the grid points, as
    GPTQ's compensated columns have them."""
    levels = (1 << draw(st.integers(2, 16))) - 1
    rows, groups, width = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    grid = (1, 1, 1) if draw(st.booleans()) else (rows, groups, 1)
    count = grid[0] * grid[1]
    ends = st.floats(-1e6, 1e6, width=32)
    lo, hi = [], []
    for a, b, flat in draw(st.lists(st.tuples(ends, ends, st.booleans()), min_size=count, max_size=count)):
        lo.append(min(a, b))
        hi.append(min(a, b) if flat else max(a, b))
    lo = np.array(lo, np.float32).astype(np.float64).reshape(grid)
    hi = np.array(hi, np.float32).astype(np.float64).reshape(grid)
    shape = (rows, groups, width)
    spot = st.one_of(
        st.floats(-0.5, 1.5).map(lambda t: (True, t)),  # a share of the way from lo to hi
        st.integers(0, levels - 1).map(lambda j: (True, (j + 0.5) / levels)),  # near a tie
        st.floats(-2e6, 2e6).map(lambda x: (False, x)),  # anywhere
    )
    spots = draw(st.lists(spot, min_size=rows * groups * width, max_size=rows * groups * width))
    ends = zip(np.broadcast_to(lo, shape).ravel(), np.broadcast_to(hi, shape).ravel())
    values = [a + t * (b - a) if share else t for (share, t), (a, b) in zip(spots, ends)]
    return np.array(values, np.float64).reshape(shape), lo, hi, levels


class TestRoundingPair:
    """_round and _unround against the helpers' own copies of the rounding rule
    and of dequantize's formula, bit for bit."""

    @given(rounding_cases())
    # a zero-span group with values off it, and a per-tensor grid, at both ends of the bit range
    @example((np.array([[[0.25, -3.0, 0.25, 7.5]]]), np.full((1, 1, 1), 0.25), np.full((1, 1, 1), 0.25), 65535))
    @example((np.array([[[-2.0, 0.0], [0.5, 9.0]]]), np.full((1, 1, 1), -1.0), np.full((1, 1, 1), 1.0), 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, case):
        values, lo, hi, levels = case
        want = oracle_encode(values, lo, hi, levels)
        codes = quantizers._round(values, lo, hi - lo, levels)
        assert codes is values and codes.dtype == np.float64  # in place
        # exact integers in [0, levels], stored as the oracle's uint16 bytes
        assert np.array_equal(codes, want) and codes.astype(np.uint16).tobytes() == want.tobytes()
        decoded = oracle_decode(want, lo, hi, levels)
        stored = want.astype(np.float64)
        assert quantizers._unround(stored, lo, hi - lo, levels).tobytes() == decoded.tobytes()
        # from the float codes, as GPTQ and AWQ call it: _round may leave a
        # code of -0.0, which only the sign of a weight of 0 can show
        np.testing.assert_array_equal(quantizers._unround(codes, lo, hi - lo, levels), decoded)


class TestCodeRangeSafety:
    @given(adversarial_matrices(), st.integers(2, 16))
    @settings(max_examples=120, deadline=None)
    def test_codes_never_exceed_levels(self, w, k):
        for q in (rtn_group_quantize(w, k, w.size), rtn_group_quantize(w, k, 2)):
            assert int(q.codes.max()) <= 2**k - 1
            assert np.all(q.grid_lo <= q.grid_hi)
            assert np.all(np.isfinite(dequantize(q)))

    @given(st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_nan_always_rejected(self, k):
        w = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(ValueError):
            rtn_group_quantize(w, k, w.size)
