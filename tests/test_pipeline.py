import hashlib
from dataclasses import replace

import numpy as np
import pytest

import mmqlab.pipeline as pipeline
from mmqlab.pipeline import (
    CALIBRATION_ROW_CAP,
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
    BlockPath,
    apply_quantization,
    bos_prompt,
    build_model,
    calibration_stages,
    decode_hidden,
    encode_vision,
    enumerate_layers,
    greedy_generate,
    element_count,
    group_of,
    image_embeddings,
    run_connector,
    text_embeddings,
)
from helpers import (
    assert_same_quantization,
    merged_calibration,
    oracle_affine_layer_norm,
    oracle_attention,
    oracle_collect_calibration,
    oracle_gelu,
    oracle_gptq_hessian,
    oracle_gptq_quantize,
    oracle_inverse_hessian_factor,
    oracle_layer_norm,
    same_bits,
    traced_peak,
    vision_prefix,
)
from mmqlab.numerics import NotPositiveDefiniteError, RngStream, derive_seed, randn_matrix
from mmqlab.quantizers import LayerStats, Method, awq_quantize, dequantize, proxy_loss
from mmqlab.tasks import ProbeConfig, make_probe_set

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
        quantizable_count = sum(a.size for a in default_model.layers.values())
        assert quantizable_count == quantizable
        extras = (
            d * d  # patch embed
            + 8 * d  # learned queries
            + default_spec.vocab * d  # token embedding
            + 64 * d  # positional embedding
            + default_spec.vocab * d  # output head
        )
        total = quantizable_count + sum(a.size for a in default_model.extras.values())
        assert total == quantizable + extras
        # the weights are the largest thing the default spec makes the lab hold
        assert element_count(default_spec, 0) == total
        # layer norms have no parameters, so no extra lives in a block
        shared = {"vision.patch_embed", "language.token_embedding", "language.pos_embedding", "language.output_head"}
        assert set(default_model.extras) == shared | {"connector.queries"}
        projector = build_model(
            replace(default_spec, connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=0)
        )
        assert set(projector.extras) == shared | {"connector.proj"}
        assert all(a.ndim == 2 for model in (default_model, projector) for a in model.extras.values())

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
        addrs = enumerate_layers(default_model, Selector.make())
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
        whole = enumerate_layers(default_model, Selector.make())
        parts = [
            enumerate_layers(default_model, Selector.make(groups=(g,))) for g in BlockGroup
        ]
        combined = [a for part in parts for a in part]
        assert len(combined) == len(whole)
        assert set(combined) == set(whole)

    def test_embeddings_and_norms_never_addressable(self, default_model):
        names = {a.name for a in default_model.addresses}
        assert not any("norm" in n or "embed" in n or "queries" in n or "head" in n for n in names)


def _caption(weights, images, horizon=CAPTION_HORIZON):
    prompt = bos_prompt(np.zeros((len(images), 0), dtype=np.int64))
    return greedy_generate(weights, vision_prefix(weights, images), prompt, horizon)[0]


def _vqa(weights, images, questions):
    return greedy_generate(weights, vision_prefix(weights, images), bos_prompt(questions), VQA_HORIZON)[0]


def _embeddings(weights, images, texts):
    return image_embeddings(vision_prefix(weights, images))[0], text_embeddings(weights, bos_prompt(texts))[0]


class TestForward:
    def test_golden_caption_tokens(self, default_model, probe_set):
        assert _caption(default_model, probe_set.images[0:1]).tolist() == GOLDEN_CAPTION_SEED7_PROBE11

    def test_identical_probes_identical_outputs(self, default_model, probe_set):
        a = _vqa(default_model, probe_set.images[3:4], probe_set.questions[3:4])
        b = _vqa(default_model, probe_set.images[3:4], probe_set.questions[3:4])
        assert np.array_equal(a, b)

    def test_retrieval_embeddings_unit_norm(self, default_model, probe_set):
        image, text = _embeddings(default_model, probe_set.images[1:2], probe_set.texts[1:2])
        assert abs(np.linalg.norm(image) - 1.0) < 1e-5
        assert abs(np.linalg.norm(text) - 1.0) < 1e-5

    def test_bad_image_shape_rejected(self, default_model):
        with pytest.raises(ValueError, match="image batch shape"):
            encode_vision(default_model, np.zeros((1, 3, 64), dtype=np.float32))


class TestBlockOps:
    """The block ops against the plain expressions kept in helpers, bit for
    bit, on random inputs of 1 to 40 rows."""

    ROWS = range(1, 41)

    def test_layer_norm_and_gelu(self):
        rng = np.random.default_rng(0)
        for rows in self.ROWS:
            x = (3 * rng.standard_normal((2, rows, 64)) + 1).astype(np.float32)
            before = x.copy()
            assert same_bits(pipeline._layer_norm(x), oracle_layer_norm(x)), rows
            assert same_bits(x, before)  # layer norm does not write its input
            out = x.copy()
            assert pipeline._gelu(out) is out  # gelu overwrites its argument
            assert same_bits(out, oracle_gelu(x)), rows

    def test_layer_norm_is_the_affine_norm_at_unit_scale_and_zero_bias(self):
        rng = np.random.default_rng(2)
        ones, zeros = np.ones(64, dtype=np.float32), np.zeros(64, dtype=np.float32)
        signed_zero = np.zeros((1, 64), dtype=np.float32)
        signed_zero[0, 5] = -0.0  # the one entry its zero mean leaves at -0.0
        for rows in self.ROWS:
            x = np.concatenate([
                (3 * rng.standard_normal((rows, 64)) + 1).astype(np.float32),
                np.full((1, 64), 2.5, dtype=np.float32),  # a constant row
                signed_zero,
            ])
            normed = pipeline._layer_norm(x)
            assert np.signbit(normed[-1, 5])
            assert same_bits(normed + np.float32(0), oracle_affine_layer_norm(x, ones, zeros)), rows

    @pytest.mark.parametrize("causal", [False, True], ids=["cross", "causal"])
    def test_attention(self, default_model, causal):
        rng = np.random.default_rng(1)
        base = "language.block2" if causal else "connector.block1"
        for rows in self.ROWS:
            x_q = rng.standard_normal((2, rows, 64)).astype(np.float32)
            x_kv = x_q if causal else rng.standard_normal((2, 16, 64)).astype(np.float32)
            got = pipeline._attention(default_model, base, x_q, x_kv, causal, None)
            assert same_bits(got, oracle_attention(default_model, base, x_q, x_kv, causal)), rows

    def test_attention_with_kv_cache(self, default_model):
        rng = np.random.default_rng(2)
        base = "language.block4"
        for rows in self.ROWS:
            got_cache, want_cache = {}, {}
            # a prefill of `rows` positions, then three single-position steps
            for x in [rng.standard_normal((2, rows, 64)).astype(np.float32)] + [
                rng.standard_normal((2, 1, 64)).astype(np.float32) for _ in range(3)
            ]:
                got = pipeline._attention(default_model, base, x, x, True, None, got_cache)
                want = oracle_attention(default_model, base, x, x, True, want_cache)
                assert same_bits(got, want), rows
            assert all(same_bits(g, w) for g, w in zip(got_cache[base], want_cache[base]))


class TestBlockPath:
    """A path reuses block i's output only when the stage input and the
    arrays blocks 0 to i read are the same objects as in its last run."""

    @pytest.fixture
    def block_calls(self, monkeypatch):
        calls = []
        original = pipeline._block

        def counted(weights, base, *args, **kwargs):
            calls.append(base)
            return original(weights, base, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_block", counted)
        return calls

    def test_equal_copy_of_a_block3_layer_reruns_from_block3(self, default_model, probe_set, block_calls):
        images, prompt = probe_set.images[:4], bos_prompt(probe_set.texts[:4])
        fresh_vision = encode_vision(default_model, images)
        fresh_text = text_embeddings(default_model, prompt)
        paths = {"vision": BlockPath(), "language": BlockPath()}

        def run(weights):
            block_calls.clear()
            vision = encode_vision(weights, images, path=paths["vision"])
            text = text_embeddings(weights, prompt, path=paths["language"])
            assert same_bits(vision, fresh_vision) and same_bits(text, fresh_text)
            return list(block_calls)

        assert run(default_model) == [f"{c}.block{i}" for c in ("vision", "language") for i in range(6)]
        assert run(default_model) == []
        layers = dict(default_model.layers)
        for name in ("vision.block3.ff.up", "language.block3.attn.k_proj"):
            layers[name] = layers[name].copy()
        assert run(replace(default_model, layers=layers)) == [
            f"{c}.block{i}" for c in ("vision", "language") for i in (3, 4, 5)
        ]
        # the path now holds the copies: the original model reruns from block 3 too
        assert run(default_model) == [f"{c}.block{i}" for c in ("vision", "language") for i in (3, 4, 5)]

    def test_new_stage_input_reruns_every_block(self, default_model, probe_set, block_calls):
        path = BlockPath()
        vision = encode_vision(default_model, probe_set.images[:4])
        run_connector(default_model, vision, path=path)
        block_calls.clear()
        out = run_connector(default_model, vision.copy(), path=path)
        assert block_calls == [f"connector.block{i}" for i in range(3)]
        assert same_bits(out, run_connector(default_model, vision))

    def test_recorder_neither_reads_nor_changes_the_path(self, default_model, probe_set, block_calls):
        images = probe_set.images[:2]
        path = BlockPath()
        encode_vision(default_model, images, path=path)
        held = [output for _, output in path.blocks]
        block_calls.clear()
        encode_vision(default_model, images, recorder=lambda name, x: None, path=path)
        assert len(block_calls) == 6
        assert all(a is b for a, b in zip(held, (output for _, output in path.blocks)))
        assert len(path.blocks) == 6

    def test_cache_neither_reads_nor_changes_the_path(self, default_model, probe_set, block_calls):
        prompt = bos_prompt(probe_set.texts[:2])
        path = BlockPath()
        decode_hidden(default_model, None, prompt, path=path)
        source, held = path.source, [output for _, output in path.blocks]
        block_calls.clear()
        cache = {}
        cached = decode_hidden(default_model, None, prompt, cache=cache, path=path)
        assert len(block_calls) == 6 and len(cache) == 6
        assert same_bits(cached, decode_hidden(default_model, None, prompt))
        assert path.source is source and len(path.blocks) == 6
        assert all(a is b for a, b in zip(held, (output for _, output in path.blocks)))


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
        uniform2, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 2)
        gptq, _ = apply_quantization(default_model, Selector.make(), Method.GPTQ, 3, calib=calibration)
        return {"random": default_model, "uniform2": uniform2, "gptq3": gptq}

    @pytest.mark.parametrize("name", ["random", "uniform2", "gptq3"])
    @pytest.mark.parametrize("mode", [TaskKind.CAPTION, TaskKind.VQA])
    def test_matches_full_recompute(self, models, probe_set, name, mode):
        weights = models[name]
        probes = probe_set.take(16)
        prefix = vision_prefix(weights, probes.images)
        prompt = bos_prompt(probes.questions if mode is TaskKind.VQA else probes.questions[:, :0])
        horizon = CAPTION_HORIZON if mode is TaskKind.CAPTION else VQA_HORIZON
        cached = greedy_generate(weights, prefix, prompt, horizon)
        assert cached.shape == (16, horizon)
        assert np.array_equal(cached, full_recompute_generate(weights, prefix, prompt, horizon))

    def test_sequence_ending_at_max_seq(self, models, probe_set):
        weights = models["uniform2"]
        probes = probe_set.take(4)
        prefix = vision_prefix(weights, probes.images)
        prompt = bos_prompt(probes.questions)
        horizon = MAX_SEQ - prefix.shape[1] - prompt.shape[1] + 1
        cached = greedy_generate(weights, prefix, prompt, horizon)
        assert np.array_equal(cached, full_recompute_generate(weights, prefix, prompt, horizon))

    def test_empty_cache_bit_identical(self, default_model, probe_set):
        prefix = vision_prefix(default_model, probe_set.images[:4])
        ids = bos_prompt(probe_set.texts[:4])
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


class TestBatchIndependence:
    """Each row of a batched forward pass is the bytes of that row run alone,
    so splitting or stacking probe batches moves no output."""

    PAIRS = 32

    @pytest.fixture(scope="class")
    def batch(self, default_model, probe_set):
        probes = probe_set.take(self.PAIRS)
        return probes, vision_prefix(default_model, probes.images)

    def test_encode_vision(self, default_model, batch):
        images = batch[0].images
        stacked = encode_vision(default_model, images)
        for i in range(self.PAIRS):
            assert same_bits(stacked[i : i + 1], encode_vision(default_model, images[i : i + 1])), i

    def test_decode_hidden_without_cache(self, default_model, batch):
        probes, prefix = batch
        prompt = bos_prompt(probes.texts)
        stacked = decode_hidden(default_model, prefix, prompt)
        for i in range(self.PAIRS):
            alone = decode_hidden(default_model, prefix[i : i + 1], prompt[i : i + 1])
            assert same_bits(stacked[i : i + 1], alone), i

    @pytest.mark.parametrize("mode", [TaskKind.CAPTION, TaskKind.VQA])
    def test_greedy_generate(self, default_model, batch, mode):
        probes, prefix = batch
        prompt = bos_prompt(probes.questions if mode is TaskKind.VQA else probes.questions[:, :0])
        horizon = CAPTION_HORIZON if mode is TaskKind.CAPTION else VQA_HORIZON
        stacked = greedy_generate(default_model, prefix, prompt, horizon)
        assert stacked.shape == (self.PAIRS, horizon)
        for i in range(self.PAIRS):
            alone = greedy_generate(default_model, prefix[i : i + 1], prompt[i : i + 1], horizon)
            assert np.array_equal(stacked[i : i + 1], alone), i


class TestCalibration:
    def test_in_features_match_layer_cols(self, default_model, calibration):
        for addr in default_model.addresses:
            stats = calibration[addr.name]
            assert stats.gram.shape[1] == default_model.layers[addr.name].shape[1]

    def test_single_probe_rows_equal_tokens(self, default_model, probe_set):
        calib = merged_calibration(default_model, probe_set.take(1))
        spec = default_model.spec
        assert calib["vision.block0.attn.q_proj"].rows == spec.patch_count
        assert calib["connector.block0.attn.q_proj"].rows == 8
        # language sequence: 8 connector queries + BOS + 8 text tokens
        assert calib["language.block0.attn.q_proj"].rows == 8 + 1 + 8

    def test_golden_row_counts_at_128_pairs(self, calibration):
        # vision: 128*16 = 2048; connector queries: 128*8 = 1024;
        # connector cross k/v see 2048 vision rows; language: 128*17 capped to 2048
        assert calibration["vision.block2.ff.up"].rows == 2048
        assert calibration["connector.block0.attn.q_proj"].rows == 1024
        assert calibration["connector.block0.attn.k_proj"].rows == 2048
        assert calibration["language.block5.ff.down"].rows == 2048

    @pytest.mark.parametrize("model", ["default", "linear-projector"])
    def test_stages_match_single_pass_oracle(self, request, probe_set, calibration, tiny_probes, model):
        if model == "default":
            weights, probes, merged = request.getfixturevalue("default_model"), probe_set, calibration
        else:
            weights, probes = build_model(_projector_spec()), tiny_probes
            merged = merged_calibration(weights, probes)
        expected = oracle_collect_calibration(weights, probes)
        stages = list(calibration_stages(weights, probes))
        # one stage per component, in order, each holding exactly that component's layers
        assert [comp for comp, _ in stages] == list(pipeline.COMPONENT_ORDER)
        for comp, stage in stages:
            assert list(stage) == [a.name for a in weights.addresses if a.component is comp]
        assert (model == "linear-projector") == (stages[1][1] == {})
        for layers in (merged, {k: v for _, stage in stages for k, v in stage.items()}):
            assert list(layers) == list(expected)
            for name, want in expected.items():
                got = layers[name]
                assert got.rows == want.rows, name
                assert np.array_equal(got.gram.view(np.uint64), want.gram.view(np.uint64)), name
                assert np.array_equal(got.magnitude.view(np.uint64), want.magnitude.view(np.uint64)), name

    def test_stages_without_probes_run_no_tower(self, default_model, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a tower ran")

        for tower in ("encode_vision", "run_connector", "decode_hidden"):
            monkeypatch.setattr(pipeline, tower, boom)
        stages = list(calibration_stages(default_model, None))
        assert stages == [(comp, None) for comp in pipeline.COMPONENT_ORDER]

    def test_recorded_block_holds_no_dropped_activation(self, default_model):
        # one language block recorded the way calibration_stages records it, on
        # 256 pairs of 17 positions: its peak is the float64 buffer of the
        # sampled hidden rows and their Gram, the hidden state and the residual,
        # plus half a residual for the statistics already recorded; holding
        # the normed input of attention or feed-forward as well costs a whole
        # residual more
        spec = default_model.spec
        d, f = spec.d_model, spec.ffn_mult * spec.d_model
        x = randn_matrix(RngStream(derive_seed(8, "block input")), 256 * 17, d, 1.0).reshape(256, 17, d)
        layers = {}

        def recorder(name, a):
            rows = None
            if a.shape[0] > CALIBRATION_ROW_CAP:
                rows = RngStream(derive_seed(spec.seed, "calibration", name)).choice(a.shape[0], CALIBRATION_ROW_CAP)
            layers[name] = LayerStats.from_activations(a, rows)

        peak = traced_peak(lambda: pipeline._block(default_model, "language.block5", x, None, True, recorder))
        assert len(layers) == 6
        residual = x.size * 4
        budget = CALIBRATION_ROW_CAP * f * 8 + f * f * 8 + x.size // d * f * 4 + 1.5 * residual
        assert peak < budget

    def test_deterministic(self, default_model, probe_set, calibration):
        again = merged_calibration(default_model, probe_set)
        name = "language.block0.ff.up"
        assert np.array_equal(again[name].gram, calibration[name].gram)
        assert np.array_equal(again[name].magnitude, calibration[name].magnitude)


class TestApplyQuantization:
    def test_empty_selector_is_identity(self, default_model):
        sel = Selector(frozenset(), frozenset(BlockGroup), frozenset(LayerType))
        qw, ledger = apply_quantization(default_model, sel, Method.UNIFORM, 4)
        assert ledger == []
        assert all(qw.layers[k] is default_model.layers[k] for k in qw.layers)

    def test_sixteen_bit_outputs_close_to_fp(self, default_model, probe_set):
        qw, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 16)
        images, texts = probe_set.images[0:1], probe_set.texts[0:1]
        fp_image, fp_text = _embeddings(default_model, images, texts)
        q_image, q_text = _embeddings(qw, images, texts)
        assert np.linalg.norm(q_image - fp_image) <= 1e-3
        assert np.linalg.norm(q_text - fp_text) <= 1e-3
        assert np.array_equal(_caption(default_model, images), _caption(qw, images))

    def test_language_only_gptq_isolates_vision(self, default_model, probe_set, calibration):
        sel = Selector.make(components=(ComponentId.LANGUAGE,))
        qw, ledger = apply_quantization(default_model, sel, Method.GPTQ, 4, calib=calibration)
        assert len(ledger) == default_model.spec.language_blocks * 6
        assert all(e.layer.startswith("language.") for e in ledger)
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
        apply_quantization(default_model, Selector.make(), Method.UNIFORM, 2)
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
        return model, merged_calibration(model, tiny_probes)

    @pytest.mark.parametrize("group_size", list(TINY_GPTQ_DIGESTS), ids=["g16", "g128", "per-tensor"])
    def test_dequantized_digest_pinned(self, tiny, group_size):
        model, calib = tiny
        h = hashlib.sha256()
        for k in range(2, 9):
            qw, ledger = apply_quantization(model, Selector.make(), Method.GPTQ, k, calib, group_size=group_size)
            for e in ledger:
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
        assert [e.layer for e in ledger] == names
        assert len({model.layers[name].shape for name in names}) == 3
        for e in ledger:
            qm, loss = oracle_gptq_quantize(model.layers[e.layer], calib[e.layer], bits, group_size=12)
            assert qw.layers[e.layer].tobytes() == dequantize(qm).tobytes()
            assert float(e.proxy_error).hex() == float(loss).hex()

    def test_memo_factors_equal_fresh(self, tiny_spec, tiny_probes, monkeypatch):
        import mmqlab.quantizers as quantizers

        model = build_model(tiny_spec)
        calib = merged_calibration(model, tiny_probes)
        factored = []
        original = quantizers._inverse_hessian_factor

        def counting(hessians, damping, names):
            factored.extend(names)
            return original(hessians, damping, names)

        monkeypatch.setattr(quantizers, "_inverse_hessian_factor", counting)
        # two bit widths from one calibration: each layer is factored once
        for k in (2, 4):
            qw, ledger = apply_quantization(model, Selector.make(), Method.GPTQ, k, calib, group_size=16)
            for e in ledger:
                qm, loss = oracle_gptq_quantize(model.layers[e.layer], calib[e.layer], k, group_size=16)
                assert qw.layers[e.layer].tobytes() == dequantize(qm).tobytes()
                assert float(e.proxy_error).hex() == float(loss).hex()
        assert sorted(factored) == sorted(calib) == sorted(a.name for a in model.addresses)
        for stats in calib.values():
            fresh = oracle_inverse_hessian_factor(oracle_gptq_hessian(stats), 0.01).T
            lower = stats.lower
            assert (lower.dtype, lower.shape, lower.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())

    def test_second_calibration_does_not_reuse_first_factors(self, tiny_spec, tiny_probes):
        model = build_model(tiny_spec)
        other = make_probe_set(ProbeConfig(seed=4, n_pairs=8), tiny_spec)
        sel = Selector.make(components=(ComponentId.VISION,))
        first, _ = apply_quantization(model, sel, Method.GPTQ, 4, merged_calibration(model, tiny_probes), group_size=16)
        second, _ = apply_quantization(model, sel, Method.GPTQ, 4, merged_calibration(model, other), group_size=16)
        fresh, _ = apply_quantization(model, sel, Method.GPTQ, 4, merged_calibration(model, other), group_size=16)
        names = [a.name for a in enumerate_layers(model, sel)]
        # the calibrations differ on every layer, so stale factors would show
        assert all(second.layers[name].tobytes() != first.layers[name].tobytes() for name in names)
        for name in names:
            assert second.layers[name].tobytes() == fresh.layers[name].tobytes()

    def test_indefinite_layer_named(self, tiny):
        model, calib = tiny
        name = "connector.block1.attn.k_proj"
        stats = calib[name]
        broken = dict(calib)
        broken[name] = LayerStats(gram=-stats.gram, magnitude=stats.magnitude, rows=stats.rows)
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
        calib = merged_calibration(model, tiny_probes)
        h = hashlib.sha256()
        for k in range(2, 9):
            for addr in model.addresses:
                w, stats = model.layers[addr.name], calib[addr.name]
                q, alpha = awq_quantize(w, stats, k, group_size)
                loss = proxy_loss(w, dequantize(q), stats.gram)
                h.update(addr.name.encode())
                h.update(dequantize(q).tobytes())
                h.update(float(loss).hex().encode())
                h.update(float(alpha).hex().encode())
        assert h.hexdigest() == TINY_AWQ_DIGESTS[group_size]


# sha256 over (layer name, dequantized bytes, proxy error, ledger group size)
# of every layer of the tiny spec's apply_quantization at bits 2-8, per
# (method, calibrated, group size); recorded before apply_quantization became
# the one place that dequantizes a layer and scores its proxy loss
TINY_LEDGER_DIGESTS = {
    (Method.UNIFORM, False, 128): "306ec9b4590fa47317673fa56adbedb56623711d2e199b90a33d01f01a014be6",
    (Method.UNIFORM, True, 128): "1910651a8564d6c056b9350d42f7367c2b353276fcc6238e564f6310dea91267",
    (Method.RTN, True, 16): "81be371a90ffb6c48084674996b7666a469177853aa9e81957ba6954a0a9f1d7",
    (Method.RTN, True, 128): "33a33d223f84e7eaf21019115b8f78c42d084a604db18ae49338e6e3436c0342",
    (Method.AWQ, True, 12): "a75369eaa49ab948b85250e5a84ef8f8d6e02b7a4d5052b094c1b0bd37ea3181",
    (Method.AWQ, True, 128): "77c1372c50189737f37e60f7c891a80857d8aadff3348276081c0e020b3aee99",
    (Method.AWQ, True, 1 << 30): "bdb5338ef47b0e3c87e5c3e1d24c4fb82cea309efdb40ab6313e8ab2ea3e489f",
}


class TestLedgerPinned:
    @pytest.fixture(scope="class")
    def tiny(self, tiny_spec, tiny_probes):
        model = build_model(tiny_spec)
        return model, merged_calibration(model, tiny_probes)

    @pytest.mark.parametrize(
        "case", list(TINY_LEDGER_DIGESTS),
        ids=["uniform", "uniform-calib", "rtn-g16", "rtn-g128", "awq-g12", "awq-g128", "awq-per-tensor"],
    )
    def test_ledger_digest_pinned(self, tiny, case):
        model, calib = tiny
        method, calibrated, group_size = case
        h = hashlib.sha256()
        for k in range(2, 9):
            qw, ledger = apply_quantization(
                model, Selector.make(), method, k, calib if calibrated else None, group_size=group_size
            )
            for e in ledger:
                h.update(e.layer.encode())
                h.update(qw.layers[e.layer].tobytes())
                h.update(float(e.proxy_error).hex().encode())
                h.update(str(e.group_size).encode())
        assert h.hexdigest() == TINY_LEDGER_DIGESTS[case]


def _projector_spec() -> PipelineSpec:
    return PipelineSpec(
        d_model=32, vision_blocks=3, connector_blocks=0, language_blocks=3, heads=2,
        patch_count=8, vocab=64, connector_kind=ConnectorKind.LINEAR_PROJECTOR, seed=2,
    )


class TestProjectorPipeline:
    def test_end_to_end(self, tiny_probes):
        weights = build_model(_projector_spec())
        assert len(weights.addresses) == 6 * 6
        assert "connector.proj" in weights.extras
        out = _caption(weights, tiny_probes.images[0:1], horizon=4)
        assert out.shape == (4,)
