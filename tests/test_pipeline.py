import hashlib

import numpy as np
import pytest

from mmqlab.pipeline import (
    BOS_ID,
    CAPTION_HORIZON,
    MAX_SEQ,
    VQA_HORIZON,
    BlockGroup,
    ComponentId,
    ConnectorKind,
    LayerType,
    PipelineSpec,
    Selector,
    TaskKind,
    apply_quantization,
    build_model,
    collect_calibration,
    decode_hidden,
    encode_vision,
    enumerate_layers,
    generate_tokens,
    generation_prompt,
    greedy_generate,
    group_of,
    image_embeddings,
    text_embeddings,
    vision_prefix,
)
from helpers import assert_same_quantization, oracle_gptq_hessian, oracle_gptq_quantize, oracle_inverse_hessian_factor
from mmqlab.numerics import NotPositiveDefiniteError
from mmqlab.quantizers import CalibrationSet, LayerStats, Method, awq_quantize, dequantize

GOLDEN_CAPTION_SEED7_PROBE11 = [26, 182, 60, 88, 171, 214, 247, 26, 182, 3, 12, 253, 244, 89, 18, 205]


class TestSpecValidation:
    def test_language_blocks_not_divisible_by_three(self):
        with pytest.raises(ValueError, match="language_blocks"):
            PipelineSpec(language_blocks=7)

    def test_vision_blocks_not_divisible_by_three(self):
        with pytest.raises(ValueError, match="vision_blocks"):
            PipelineSpec(vision_blocks=4)

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="heads"):
            PipelineSpec(d_model=64, heads=5)

    def test_projector_connector_has_no_blocks(self):
        with pytest.raises(ValueError, match="projector"):
            PipelineSpec(connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=3)
        spec = PipelineSpec(connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=0)
        assert spec.active_components() == (ComponentId.VISION, ComponentId.LANGUAGE)


class TestBuildModel:
    def test_deterministic(self, default_spec, default_model):
        again = build_model(default_spec)
        assert all(np.array_equal(default_model.layers[k], again.layers[k]) for k in default_model.layers)
        assert all(np.array_equal(default_model.extras[k], again.extras[k]) for k in default_model.extras)

    def test_parameter_count_closed_form(self, default_spec, default_model):
        d = default_spec.d_model
        blocks = (
            default_spec.vision_blocks + default_spec.connector_blocks + default_spec.language_blocks
        )
        quantizable = blocks * (4 * d * d + 2 * default_spec.ffn_mult * d * d)
        assert default_model.quantizable_param_count == quantizable
        extras = (
            d * d  # patch embed
            + blocks * 4 * d  # two layer norms (scale+bias) per block
            + 3 * 2 * d  # final norms per component
            + 8 * d  # learned queries
            + default_spec.vocab * d  # token embedding
            + 64 * d  # positional embedding
            + default_spec.vocab * d  # output head
        )
        assert default_model.param_count == quantizable + extras

    def test_residual_projections_scaled_down(self, default_model, default_spec):
        # out_proj std should be ~1/sqrt(2*blocks) of the q_proj std
        q_std = default_model.layers["vision.block0.attn.q_proj"].std()
        o_std = default_model.layers["vision.block0.attn.out_proj"].std()
        assert o_std == pytest.approx(q_std / np.sqrt(2 * default_spec.vision_blocks), rel=0.15)


class TestAddressing:
    def test_group_of_thirds(self):
        assert [group_of(i, 6) for i in range(6)] == [
            BlockGroup.FRONT, BlockGroup.FRONT,
            BlockGroup.MIDDLE, BlockGroup.MIDDLE,
            BlockGroup.END, BlockGroup.END,
        ]

    def test_everything_selector_counts(self, default_model, default_spec):
        addrs = enumerate_layers(default_model, Selector.everything())
        blocks = (
            default_spec.vision_blocks + default_spec.connector_blocks + default_spec.language_blocks
        )
        assert len(addrs) == blocks * (4 + 2)
        attn = [a for a in addrs if a.layer_type is LayerType.ATTN]
        ff = [a for a in addrs if a.layer_type is LayerType.FF]
        assert len(attn) == blocks * 4 and len(ff) == blocks * 2

    def test_empty_selector(self, default_model):
        sel = Selector(frozenset(), frozenset(BlockGroup), frozenset(LayerType))
        assert enumerate_layers(default_model, sel) == []

    def test_vision_front_attn(self, default_model):
        sel = Selector.make(components=(ComponentId.VISION,), groups=(BlockGroup.FRONT,), layer_types=(LayerType.ATTN,))
        addrs = enumerate_layers(default_model, sel)
        assert len(addrs) == 2 * 4  # 6 vision blocks -> front third is blocks 0-1
        assert {a.block_index for a in addrs} == {0, 1}
        assert all(a.sublayer.startswith("attn.") for a in addrs)

    def test_groups_partition_the_component(self, default_model):
        whole = enumerate_layers(default_model, Selector.everything())
        parts = [
            enumerate_layers(default_model, Selector.make(groups=(g,))) for g in BlockGroup
        ]
        combined = [a for part in parts for a in part]
        assert len(combined) == len(whole)
        assert set(combined) == set(whole)

    def test_embeddings_and_norms_never_addressable(self, default_model):
        names = {a.name for a in default_model.addresses}
        assert not any("norm" in n or "embed" in n or "queries" in n or "head" in n for n in names)


def _caption(weights, probe, horizon=CAPTION_HORIZON):
    return generate_tokens(weights, vision_prefix(weights, probe.image_like[None]), TaskKind.CAPTION, horizon)[0]


def _vqa(weights, probe):
    prefix = vision_prefix(weights, probe.image_like[None])
    return generate_tokens(weights, prefix, TaskKind.VQA, VQA_HORIZON, question_ids=probe.question_ids[None])[0]


def _embeddings(weights, probe):
    image = image_embeddings(vision_prefix(weights, probe.image_like[None]))[0]
    return image, text_embeddings(weights, probe.text_ids[None])[0]


class TestForward:
    def test_golden_caption_tokens(self, default_model, probe_set):
        assert _caption(default_model, probe_set.pairs[0]).tolist() == GOLDEN_CAPTION_SEED7_PROBE11

    def test_identical_probes_identical_outputs(self, default_model, probe_set):
        a = _vqa(default_model, probe_set.pairs[3])
        b = _vqa(default_model, probe_set.pairs[3])
        assert np.array_equal(a, b)

    def test_retrieval_embeddings_unit_norm(self, default_model, probe_set):
        image, text = _embeddings(default_model, probe_set.pairs[1])
        assert abs(np.linalg.norm(image) - 1.0) < 1e-5
        assert abs(np.linalg.norm(text) - 1.0) < 1e-5

    def test_bad_image_shape_rejected(self, default_model):
        with pytest.raises(ValueError, match="image batch shape"):
            encode_vision(default_model, np.zeros((1, 3, 64), dtype=np.float32))


def full_recompute_generate(weights, prefix, prompt_ids, horizon):
    """Greedy decode that runs the whole sequence through the decoder at every step."""
    ids = np.asarray(prompt_ids, dtype=np.int64)
    head = weights.extras["language.output_head"]
    generated = []
    for _ in range(horizon):
        nxt = np.argmax(decode_hidden(weights, prefix, ids)[:, -1, :] @ head.T, axis=-1)
        generated.append(nxt)
        ids = np.concatenate([ids, nxt[:, None]], axis=1)
    return np.stack(generated, axis=1)


class TestCachedDecode:
    @pytest.fixture(scope="class")
    def models(self, default_model, calibration):
        uniform2, _ = apply_quantization(default_model, Selector.everything(), Method.UNIFORM, 2)
        gptq, _ = apply_quantization(default_model, Selector.everything(), Method.GPTQ, 3, calib=calibration)
        return {"random": default_model, "uniform2": uniform2, "gptq3": gptq}

    @pytest.mark.parametrize("name", ["random", "uniform2", "gptq3"])
    @pytest.mark.parametrize("mode", [TaskKind.CAPTION, TaskKind.VQA])
    def test_matches_full_recompute(self, models, probe_set, name, mode):
        weights = models[name]
        probes = probe_set.take(16)
        prefix = vision_prefix(weights, probes.images)
        prompt = generation_prompt(probes.questions, mode)
        horizon = CAPTION_HORIZON if mode is TaskKind.CAPTION else VQA_HORIZON
        cached = greedy_generate(weights, prefix, prompt, horizon)
        assert cached.shape == (16, horizon)
        assert np.array_equal(cached, full_recompute_generate(weights, prefix, prompt, horizon))

    def test_sequence_ending_at_max_seq(self, models, probe_set):
        weights = models["uniform2"]
        probes = probe_set.take(4)
        prefix = vision_prefix(weights, probes.images)
        prompt = generation_prompt(probes.questions, TaskKind.VQA)
        horizon = MAX_SEQ - prefix.shape[1] - prompt.shape[1] + 1
        cached = greedy_generate(weights, prefix, prompt, horizon)
        assert np.array_equal(cached, full_recompute_generate(weights, prefix, prompt, horizon))

    def test_empty_cache_bit_identical(self, default_model, probe_set):
        prefix = vision_prefix(default_model, probe_set.images[:4])
        ids = np.concatenate([np.full((4, 1), BOS_ID), probe_set.texts[:4]], axis=1)
        cache = {}
        cached = decode_hidden(default_model, prefix, ids, cache=cache)
        assert np.array_equal(cached, decode_hidden(default_model, prefix, ids))
        assert len(cache) == default_model.spec.language_blocks

    def test_too_long_rejected_before_decoding(self, default_model, probe_set, monkeypatch):
        import mmqlab.pipeline as pl

        calls = []
        monkeypatch.setattr(pl, "decode_hidden", lambda *a, **k: calls.append(1))
        prefix = np.zeros((2, 8, default_model.spec.d_model), dtype=np.float32)
        prompt = np.zeros((2, 5), dtype=np.int64)
        horizon = MAX_SEQ - 8 - 5 + 2  # one position past MAX_SEQ
        with pytest.raises(ValueError, match=rf"prefix length 8 \+ prompt length 5 \+ horizon {horizon}"):
            greedy_generate(default_model, prefix, prompt, horizon)
        assert calls == []


class TestCalibration:
    def test_in_features_match_layer_cols(self, default_model, calibration):
        for addr in default_model.addresses:
            stats = calibration.layers[addr.name]
            assert stats.gram.shape[1] == default_model.layers[addr.name].shape[1]

    def test_single_probe_rows_equal_tokens(self, default_model, probe_set):
        calib = collect_calibration(default_model, probe_set, n=1)
        spec = default_model.spec
        assert calib.layers["vision.block0.attn.q_proj"].rows == spec.patch_count
        assert calib.layers["connector.block0.attn.q_proj"].rows == 8
        # language sequence: 8 connector queries + BOS + 8 text tokens
        assert calib.layers["language.block0.attn.q_proj"].rows == 8 + 1 + 8

    def test_golden_row_counts_at_128_pairs(self, calibration):
        # vision: 128*16 = 2048; connector queries: 128*8 = 1024;
        # connector cross k/v see 2048 vision rows; language: 128*17 capped to 2048
        assert calibration.layers["vision.block2.ff.up"].rows == 2048
        assert calibration.layers["connector.block0.attn.q_proj"].rows == 1024
        assert calibration.layers["connector.block0.attn.k_proj"].rows == 2048
        assert calibration.layers["language.block5.ff.down"].rows == 2048
        assert calibration.sample_count == 128

    def test_insufficient_probes(self, default_model, probe_set):
        with pytest.raises(ValueError, match="probe pairs"):
            collect_calibration(default_model, probe_set, n=999)

    def test_deterministic(self, default_model, probe_set, calibration):
        again = collect_calibration(default_model, probe_set, n=128)
        name = "language.block0.ff.up"
        assert np.array_equal(again.layers[name].gram, calibration.layers[name].gram)
        assert np.array_equal(again.layers[name].magnitude, calibration.layers[name].magnitude)


class TestApplyQuantization:
    def test_empty_selector_is_identity(self, default_model):
        sel = Selector(frozenset(), frozenset(BlockGroup), frozenset(LayerType))
        qw, ledger = apply_quantization(default_model, sel, Method.UNIFORM, 4)
        assert ledger.entries == []
        assert all(qw.layers[k] is default_model.layers[k] for k in qw.layers)

    def test_sixteen_bit_outputs_close_to_fp(self, default_model, probe_set):
        qw, _ = apply_quantization(default_model, Selector.everything(), Method.UNIFORM, 16)
        fp_image, fp_text = _embeddings(default_model, probe_set.pairs[0])
        q_image, q_text = _embeddings(qw, probe_set.pairs[0])
        assert np.linalg.norm(q_image - fp_image) <= 1e-3
        assert np.linalg.norm(q_text - fp_text) <= 1e-3
        assert np.array_equal(_caption(default_model, probe_set.pairs[0]), _caption(qw, probe_set.pairs[0]))

    def test_language_only_gptq_isolates_vision(self, default_model, probe_set, calibration):
        sel = Selector.make(components=(ComponentId.LANGUAGE,))
        qw, ledger = apply_quantization(default_model, sel, Method.GPTQ, 4, calib=calibration)
        assert len(ledger.entries) == default_model.spec.language_blocks * 6
        assert all(e.layer.startswith("language.") for e in ledger.entries)
        images = probe_set.images[:4]
        assert np.array_equal(encode_vision(default_model, images), encode_vision(qw, images))

    def test_missing_calibration_names_layer(self, default_model):
        sel = Selector.make(components=(ComponentId.VISION,))
        with pytest.raises(ValueError, match="vision.block0.attn.q_proj"):
            apply_quantization(default_model, sel, Method.GPTQ, 4, calib=None)

    def test_uniform_idempotent_at_same_bits(self, default_model):
        sel = Selector.make(components=(ComponentId.CONNECTOR,))
        once, _ = apply_quantization(default_model, sel, Method.UNIFORM, 3)
        twice, _ = apply_quantization(once, sel, Method.UNIFORM, 3)
        assert all(np.array_equal(once.layers[k], twice.layers[k]) for k in once.layers)

    def test_original_weights_untouched(self, default_model, default_spec):
        before = default_model.layers["language.block0.ff.up"].copy()
        apply_quantization(default_model, Selector.everything(), Method.UNIFORM, 2)
        assert np.array_equal(default_model.layers["language.block0.ff.up"], before)


# sha256 over (layer name, dequantized bytes, proxy error) of every GPTQ layer
# of the tiny spec at bits 2-8, per group size; recorded with the per-layer
# GPTQ loop before layers were quantized in same-shape stacks
TINY_GPTQ_DIGESTS = {
    16: "e22eec69be3700458971f5e6392d45949ddc9ad98bf0af7c8de43004ccdc34f8",
    128: "7fd8a1da45e0d10c91b19d7473df62b21073a30408ec674eb3b1a181bcf3f219",
    1 << 30: "783110f81d0a30b321f3dc75e4654e6b17511c5b76c3362e8563f0009d191e3d",
}


class TestStackedGptqPipeline:
    @pytest.fixture(scope="class")
    def tiny(self, tiny_spec, tiny_probes):
        model = build_model(tiny_spec)
        return model, collect_calibration(model, tiny_probes, n=8)

    @pytest.mark.parametrize("group_size", list(TINY_GPTQ_DIGESTS), ids=["g16", "g128", "per-tensor"])
    def test_dequantized_digest_pinned(self, tiny, group_size):
        model, calib = tiny
        h = hashlib.sha256()
        for k in range(2, 9):
            qw, ledger = apply_quantization(model, Selector.everything(), Method.GPTQ, k, calib, group_size=group_size)
            for e in ledger.entries:
                h.update(e.layer.encode())
                h.update(qw.layers[e.layer].tobytes())
                h.update(float(e.proxy_error).hex().encode())
        assert h.hexdigest() == TINY_GPTQ_DIGESTS[group_size]

    @pytest.mark.parametrize("bits", [2, 5, 8])
    def test_mixed_shapes_match_oracle(self, tiny, bits):
        model, calib = tiny
        sel = Selector.make(groups=(BlockGroup.FRONT, BlockGroup.END))
        qw, ledger = apply_quantization(model, sel, Method.GPTQ, bits, calib, group_size=12)
        names = [a.name for a in enumerate_layers(model, sel)]
        assert [e.layer for e in ledger.entries] == names
        assert len({model.layers[name].shape for name in names}) == 3
        for e in ledger.entries:
            qm, loss = oracle_gptq_quantize(model.layers[e.layer], calib.layers[e.layer], bits, group_size=12)
            assert qw.layers[e.layer].tobytes() == dequantize(qm).tobytes()
            assert float(e.proxy_error).hex() == float(loss).hex()

    def test_memo_factors_equal_fresh(self, tiny_spec, tiny_probes):
        model = build_model(tiny_spec)
        calib = collect_calibration(model, tiny_probes, n=8)
        for k in (2, 4):
            apply_quantization(model, Selector.everything(), Method.GPTQ, k, calib, group_size=16)
        assert sorted(calib.factors) == sorted(a.name for a in model.addresses)
        for name, upper in calib.factors.items():
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(calib.layers[name]), 0.01)
            assert (upper.dtype, upper.shape, upper.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())

    def test_indefinite_layer_named(self, tiny):
        model, calib = tiny
        name = "connector.block1.attn.k_proj"
        stats = calib.layers[name]
        broken = CalibrationSet(layers=dict(calib.layers), sample_count=calib.sample_count)
        broken.layers[name] = LayerStats(gram=-stats.gram, magnitude=stats.magnitude, rows=stats.rows)
        sel = Selector.make(components=(ComponentId.CONNECTOR,))
        with pytest.raises(NotPositiveDefiniteError, match=f"layer {name}, column 0"):
            apply_quantization(model, sel, Method.GPTQ, 4, broken)


# sha256 over (layer name, dequantized bytes, proxy error, alpha) of every AWQ
# layer of the tiny spec at bits 2-8, per group size; recorded with the
# per-alpha AWQ loop before the alphas were scored in chunks
TINY_AWQ_DIGESTS = {
    12: "b5899e67cba59e8fbe87ed1ea36afc6828879d18d9c33b05888957355c886dc6",
    128: "f074d7ca70d2e02d8e49c8a923963117d63131d7a933db8c5133d0c0c4784945",
    1 << 30: "cdc04041395dc710fce70d5ca3c3cf3859fcc219e3eea73be0d978f306814f11",
}


class TestChunkedAwqPipeline:
    @pytest.mark.parametrize("group_size", list(TINY_AWQ_DIGESTS), ids=["g12", "g128", "per-tensor"])
    def test_dequantized_digest_pinned(self, tiny_spec, tiny_probes, group_size):
        model = build_model(tiny_spec)
        calib = collect_calibration(model, tiny_probes, n=8)
        h = hashlib.sha256()
        for k in range(2, 9):
            for addr in model.addresses:
                q, alpha, loss = awq_quantize(model.layers[addr.name], calib.layers[addr.name], k, group_size)
                h.update(addr.name.encode())
                h.update(dequantize(q).tobytes())
                h.update(float(loss).hex().encode())
                h.update(float(alpha).hex().encode())
        assert h.hexdigest() == TINY_AWQ_DIGESTS[group_size]


class TestProjectorPipeline:
    def test_end_to_end(self, tiny_probes):
        spec = PipelineSpec(
            d_model=32, vision_blocks=3, connector_blocks=0, language_blocks=3, heads=2,
            patch_count=8, vocab=64, connector_kind=ConnectorKind.LINEAR_PROJECTOR, seed=2,
        )
        weights = build_model(spec)
        assert len(weights.addresses) == 6 * 6
        assert "connector.proj" in weights.extras
        out = _caption(weights, tiny_probes.pairs[0], horizon=4)
        assert out.shape == (4,)
