import json

import numpy as np
import pytest

from helpers import oracle_make_probe_set, oracle_score_task, vision_prefix
from mmqlab.cli import main
from mmqlab.pipeline import (
    ComponentId,
    PipelineSpec,
    Selector,
    TaskKind,
    apply_quantization,
    bos_prompt,
    greedy_generate,
)
from mmqlab.quantizers import Method
from mmqlab.tasks import ProbeConfig, ProbeSet, make_probe_set

# frozen from the reference run: caption fidelity after GPTQ k=2 on one component
# (default spec seed 7, probes seed 11, 32 eval pairs); decoder-only quantization
# hurts generation far more than vision-only, matching the expected sensitivity order
GOLDEN_LANGUAGE_ONLY_GPTQ2 = 0.1171875
GOLDEN_VISION_ONLY_GPTQ2 = 0.865234375


class TestProbeSet:
    def test_deterministic(self):
        a = make_probe_set(ProbeConfig(seed=4, n_pairs=6), PipelineSpec())
        b = make_probe_set(ProbeConfig(seed=4, n_pairs=6), PipelineSpec())
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.texts, b.texts)
        assert np.array_equal(a.questions, b.questions)

    def test_calibration_size_default(self, probe_set):
        assert len(probe_set) == 128

    def test_token_ids_in_vocab(self, probe_set):
        assert probe_set.texts.min() >= 0 and probe_set.texts.max() < 256
        assert probe_set.questions.shape[1] == 4 and probe_set.texts.shape[1] == 8

    def test_paired_latents_more_aligned_than_mismatched(self, probe_set):
        # the patch mean is the image latent up to noise; text token j encodes
        # dimension j of the text latent as (latent + 4) / 8 of the vocabulary
        text_len = probe_set.texts.shape[1]
        img = probe_set.images.mean(axis=1)[:, :text_len]
        txt = probe_set.texts * (8.0 / 256) - 4.0
        img = img / np.linalg.norm(img, axis=1, keepdims=True)
        txt = txt / np.linalg.norm(txt, axis=1, keepdims=True)
        cosines = img @ txt.T
        paired = float(np.mean(np.diag(cosines)))
        mismatched = float((cosines.sum() - np.trace(cosines)) / (cosines.size - len(cosines)))
        assert paired > mismatched

    def test_n_pairs_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(seed=1, n_pairs=0)

    @pytest.mark.parametrize("key", ["text_len", "question_len"])
    def test_negative_length_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key}: must be >= 0, got -1"):
            ProbeConfig(seed=1, n_pairs=2, **{key: -1})

    @pytest.mark.parametrize(
        "n_pairs, shape",
        [
            (1, {}),
            (128, {}),
            (5, {"text_len": 0}),
            (5, {"question_len": 0}),
            (7, {"patch_count": 1}),
            (6, {"d_input": 2}),
            (3, {"patch_count": 8, "d_input": 32, "vocab": 64}),
        ],
        ids=["one-pair", "128-pairs", "no-text", "no-question", "one-patch", "d-input-2", "tiny"],
    )
    def test_one_draw_matches_per_pair_oracle(self, n_pairs, shape):
        lengths = {k: v for k, v in shape.items() if k.endswith("_len")}
        sizes = {{"d_input": "d_model"}.get(k, k): v for k, v in shape.items() if k not in lengths}
        got = make_probe_set(ProbeConfig(seed=11, n_pairs=n_pairs, **lengths), PipelineSpec(heads=1, **sizes))
        want = oracle_make_probe_set(11, n_pairs, **shape)
        for name in ("images", "texts", "questions"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("n_pairs", [1, 2, 8, 64, 127])
    def test_smaller_set_is_first_pairs_of_larger(self, probe_set, n_pairs):
        # the draw is counter-based and pair-major, so an uncalibrated grid may
        # draw only the pairs it scores and read the bytes a full draw starts with
        small = make_probe_set(ProbeConfig(seed=11, n_pairs=n_pairs), PipelineSpec())
        for name in ("images", "texts", "questions"):
            assert getattr(small, name).tobytes() == getattr(probe_set, name)[:n_pairs].tobytes(), name

    def test_take_prefix(self, probe_set):
        sub = probe_set.take(16)
        assert len(sub) == 16
        assert np.array_equal(sub.images, probe_set.images[:16])


class TestScoring:
    def test_self_agreement_is_exactly_one(self, default_model, probe_set):
        small = probe_set.take(6)
        for task in TaskKind:
            assert oracle_score_task(default_model, default_model, small, task) == 1.0

    def test_retrieval_needs_two_pairs(self, tmp_path, capsys):
        # no grid.eval_pairs, so a retrieval grid would score all of its one probe pair
        cfg = tmp_path / "one-pair.json"
        cfg.write_text(json.dumps({"grid": {"tasks": ["retrieval"]}, "probes": {"seed": 11, "n_pairs": 1}}))
        out = tmp_path / "x.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config error at probes.n_pairs: must be >= 2 when grid.tasks includes retrieval, got 1\n"
        assert not out.exists()

    def test_horizon_one_is_first_token_match(self, default_model, probe_set):
        small = probe_set.take(8)
        qw, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 3)
        score = oracle_score_task(qw, default_model, small, TaskKind.CAPTION, horizon=1)
        prompt = bos_prompt(small.questions[:, :0])
        gen_q = greedy_generate(qw, vision_prefix(qw, small.images), prompt, 1)
        gen_fp = greedy_generate(default_model, vision_prefix(default_model, small.images), prompt, 1)
        assert score == float(np.mean(gen_q[:, 0] == gen_fp[:, 0]))

    def test_two_bit_strictly_below_eight_bit_retrieval(self, default_model, probe_set):
        small = probe_set.take(32)
        low, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 2)
        high, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 8)
        s_low = oracle_score_task(low, default_model, small, TaskKind.RETRIEVAL)
        s_high = oracle_score_task(high, default_model, small, TaskKind.RETRIEVAL)
        assert s_low < s_high

    def test_sixteen_bit_retrieval_exactly_one(self, default_model, probe_set):
        qw, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 16)
        assert oracle_score_task(qw, default_model, probe_set.take(32), TaskKind.RETRIEVAL) == 1.0

    def test_component_sensitivity_goldens(self, default_model, probe_set, calibration):
        lang_sel = Selector.make(components=(ComponentId.LANGUAGE,))
        vis_sel = Selector.make(components=(ComponentId.VISION,))
        lang_q, _ = apply_quantization(default_model, lang_sel, Method.GPTQ, 2, calib=calibration)
        vis_q, _ = apply_quantization(default_model, vis_sel, Method.GPTQ, 2, calib=calibration)
        eval_probes = probe_set.take(32)
        lang_score = oracle_score_task(lang_q, default_model, eval_probes, TaskKind.CAPTION)
        vis_score = oracle_score_task(vis_q, default_model, eval_probes, TaskKind.CAPTION)
        assert lang_score == GOLDEN_LANGUAGE_ONLY_GPTQ2
        assert vis_score == GOLDEN_VISION_ONLY_GPTQ2
        assert lang_score <= vis_score

    def test_scores_bounded(self, default_model, probe_set):
        qw, _ = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 2)
        for task in TaskKind:
            s = oracle_score_task(qw, default_model, probe_set.take(8), task)
            assert 0.0 <= s <= 1.0
