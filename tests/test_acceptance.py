"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria with stated runtime budgets assert them.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import brute_force_proxy_min, grid_rows, merged_calibration, oracle_score_task, spearman_rho
from mmqlab.cli import main
from mmqlab.experiments import GridSpec, compute_bpw, layer_sizes
from mmqlab.importance import (
    AttributionDataset,
    bootstrap_importance_ci,
    consensus_csv_row,
    consensus_ranking,
    fit_random_forest,
    impurity_importance,
    lattice_table,
    linear_baseline_r2,
    permutation_importance,
    shapley_importance,
    shapley_values,
)
from mmqlab.numerics import RngStream, derive_seed, randn_matrix
from mmqlab.pipeline import (
    ComponentId,
    PipelineSpec,
    Selector,
    TaskKind,
    apply_quantization,
    build_model,
)
from mmqlab.quantizers import (
    LayerStats,
    Method,
    awq_quantize,
    dequantize,
    gptq_quantize,
    proxy_loss,
    rtn_group_quantize,
)
from mmqlab.tasks import ProbeConfig, make_probe_set

SEEDS = (7, 8, 9)


def report(number: int, slug: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {slug}: {status} {detail}".rstrip())
    assert ok, f"criterion {number:02d} {slug}: {detail}"


@pytest.fixture(scope="module")
def probes128():
    return make_probe_set(ProbeConfig(seed=11, n_pairs=128), PipelineSpec())


@pytest.fixture(scope="module")
def models_by_seed():
    spec = PipelineSpec(seed=0)
    return {s: build_model(replace(spec, seed=derive_seed(s, "model"))) for s in SEEDS}


@pytest.fixture(scope="module")
def calib_by_seed(models_by_seed, probes128):
    return {s: merged_calibration(m, probes128) for s, m in models_by_seed.items()}


def test_criterion_01_uniform_quantizer_fidelity():
    start = time.monotonic()
    w = np.array([[0.0, 0.4, 1.0]], dtype=np.float32)
    q = rtn_group_quantize(w, 2, w.size)
    codes_ok = q.codes.tolist() == [[0, 1, 3]]
    dequant_ok = np.allclose(dequantize(q), [[0.0, 1.0 / 3.0, 1.0]], atol=1e-7)

    bound_ok = True
    for i in range(100):
        m = randn_matrix(RngStream(derive_seed(1, i)), 32, 32, 1.0)
        q16 = rtn_group_quantize(m, 16, m.size)
        bound = (float(m.max()) - float(m.min())) / (2 * (2**16 - 1))
        # + one float32 ulp of the largest endpoint: the stored form is float32
        allowance = float(np.spacing(np.float32(max(abs(m.max()), abs(m.min())))))
        if float(np.max(np.abs(m - dequantize(q16)))) > bound + allowance:
            bound_ok = False
    elapsed = time.monotonic() - start
    report(
        1, "uniform-quantizer-fidelity",
        codes_ok and dequant_ok and bound_ok and elapsed < 1.0,
        f"(codes={codes_ok}, dequant={dequant_ok}, k16 bound={bound_ok}, {elapsed:.2f}s)",
    )


def test_criterion_02_gptq_sandwich():
    start = time.monotonic()
    rtn_wins = 0
    oracle_ok = True
    gptq_total = rtn_total = 0.0
    n = 100
    for i in range(n):
        stream = RngStream(derive_seed(2, i))
        w = randn_matrix(stream, 8, 16, 1.0)
        x = randn_matrix(stream, 32, 16, 1.0)
        stats = LayerStats.from_activations(x)
        gptq_err = proxy_loss(w, dequantize(gptq_quantize([w], [stats], 2, group_size=16)[0]), stats.gram)
        rtn_err = proxy_loss(w, dequantize(rtn_group_quantize(w, 2, 16)), stats.gram)
        gptq_total += gptq_err
        rtn_total += rtn_err
        if gptq_err <= rtn_err + 1e-12:
            rtn_wins += 1
        w2 = np.ascontiguousarray(w[:2, :2])
        x2 = np.ascontiguousarray(x[:, :2])
        stats2 = LayerStats.from_activations(x2)
        sub_err = proxy_loss(w2, dequantize(gptq_quantize([w2], [stats2], 2, group_size=4)[0]), stats2.gram)
        if brute_force_proxy_min(w2, x2, 2) > sub_err + 1e-9:
            oracle_ok = False
    elapsed = time.monotonic() - start
    report(
        2, "gptq-sandwich",
        oracle_ok and rtn_wins >= 0.95 * n and gptq_total <= rtn_total and elapsed < 60.0,
        f"(oracle<=gptq 100%={oracle_ok}, gptq<=rtn {rtn_wins}/{n}, "
        f"mean {gptq_total / n:.3f} vs {rtn_total / n:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_03_awq_benefit():
    start = time.monotonic()
    wins = {k: 0 for k in (2, 3, 4)}
    n = 100
    for i in range(n):
        stream = RngStream(derive_seed(3, i))
        w = randn_matrix(stream, 8, 16, 1.0)
        x = randn_matrix(stream, 32, 16, 1.0)
        x[:, i % 16] *= 100.0
        stats = LayerStats.from_activations(x)
        for k in wins:
            awq_err = proxy_loss(w, dequantize(awq_quantize(w, stats, k, group_size=8)[0]), stats.gram)
            rtn_err = proxy_loss(w, dequantize(rtn_group_quantize(w, k, 8)), stats.gram)
            if awq_err <= rtn_err + 1e-12:
                wins[k] += 1
    # alpha = 0 must reproduce RTN bit-exactly (flat activations force alpha 0)
    w = randn_matrix(RngStream(derive_seed(3, "flat")), 8, 16, 1.0)
    x_flat = np.ones((16, 16), dtype=np.float32)
    q_awq, alpha = awq_quantize(w, LayerStats.from_activations(x_flat), 3, group_size=8)
    ref = rtn_group_quantize(w, 3, 8)
    alpha_zero_ok = (
        alpha == 0.0
        and np.array_equal(q_awq.codes, ref.codes)
        and dequantize(q_awq).tobytes() == dequantize(ref).tobytes()
    )
    elapsed = time.monotonic() - start
    ok = all(v >= 0.95 * n for v in wins.values()) and alpha_zero_ok and elapsed < 60.0
    report(3, "awq-benefit", ok, f"(wins={wins}, alpha0-exact={alpha_zero_ok}, {elapsed:.1f}s)")


def test_criterion_04_degradation_monotonicity(models_by_seed, probes128):
    start = time.monotonic()
    bits = (2, 3, 4, 5, 6, 8, 16)
    eval_probes = probes128.take(32)
    mean_scores = {task: np.zeros(len(bits)) for task in TaskKind}
    for model in models_by_seed.values():
        for i, k in enumerate(bits):
            quantized, _ = apply_quantization(model, Selector.make(), Method.UNIFORM, k)
            for task in TaskKind:
                mean_scores[task][i] += oracle_score_task(quantized, model, eval_probes, task) / len(SEEDS)
    rhos = {task.value: spearman_rho(bits, mean_scores[task]) for task in TaskKind}
    elapsed = time.monotonic() - start
    ok = all(rho >= 0.8 for rho in rhos.values()) and elapsed < 600.0
    report(4, "degradation-monotonicity", ok, f"(spearman={ {k: round(v, 3) for k, v in rhos.items()} }, {elapsed:.0f}s)")


def test_criterion_05_sota_beats_uniform_at_matched_bits(models_by_seed, probes128, calib_by_seed):
    eval_probes = probes128.take(32)
    means = {}
    for method in (Method.UNIFORM, Method.GPTQ, Method.AWQ):
        scores = []
        for seed, model in models_by_seed.items():
            calib = calib_by_seed[seed] if method is not Method.UNIFORM else None
            quantized, _ = apply_quantization(model, Selector.make(), method, 4, calib=calib)
            scores.append(oracle_score_task(quantized, model, eval_probes, TaskKind.CAPTION))
        means[method.value] = float(np.mean(scores))
    ok = means["gptq"] >= means["uniform"] and means["awq"] >= means["uniform"]
    report(5, "sota-beats-uniform-at-4bit", ok, f"(mean caption fidelity={ {k: round(v, 4) for k, v in means.items()} })")


def test_criterion_06_shapley_exactness():
    start = time.monotonic()
    bit_values = np.array([2.0, 3.0, 4.0, 6.0, 8.0, 16.0])
    efficiency_ok = True
    null_ok = True
    for i in range(50):
        stream = RngStream(derive_seed(6, i))
        n_rows, m = 16, 3
        features = bit_values[(stream.uniforms(n_rows * m) * len(bit_values)).astype(int) % len(bit_values)]
        features = features.reshape(n_rows, m)
        if i % 2 == 0:
            features[:, 0] = 4.0  # constant column: a guaranteed null player
        target = stream.uniforms(n_rows)
        data = AttributionDataset(features, target, ("f0", "f1", "f2"))
        forest = fit_random_forest(data, n_trees=15, seed=derive_seed(6, "fit", i))
        phi, fx, base = shapley_values(lattice_table(forest, data), data)
        if np.max(np.abs(phi.sum(axis=1) - (fx - base))) > 1e-9:
            efficiency_ok = False
        split_on = set(forest.feature[forest.feature >= 0].tolist())
        for j in range(m):
            if j not in split_on and np.any(phi[:, j] != 0.0):
                null_ok = False
    elapsed = time.monotonic() - start
    ok = efficiency_ok and null_ok and elapsed < 60.0
    report(6, "shapley-exactness", ok, f"(efficiency={efficiency_ok}, null-player={null_ok}, {elapsed:.1f}s)")


def test_criterion_07_planted_signal_recovery():
    grid = np.array(list(itertools.product((2, 3, 4, 5, 6, 8, 16), repeat=3)), dtype=np.float64)
    target = (grid[:, 1] >= 5).astype(np.float64)
    data = AttributionDataset(grid, target, ("vision", "connector", "language"))
    forest = fit_random_forest(data, seed=70)
    table = lattice_table(forest, data)
    shares = {
        "impurity": impurity_importance(forest).pct[1],
        "permutation": permutation_importance(table, data, seed=70).pct[1],
        "shapley": shapley_importance(table, data).pct[1],
    }
    ci = bootstrap_importance_ci(data, n_boot=100, seed=70)
    separated = ci.ci_low[1] > max(ci.ci_high[0], ci.ci_high[2])
    ok = all(v >= 95.0 for v in shares.values()) and separated
    report(7, "planted-signal-recovery", ok, f"(shares={ {k: round(v, 2) for k, v in shares.items()} }, ci-separated={separated})")


def test_criterion_08_consensus_contract_and_seed_stability(probes128):
    start = time.monotonic()
    spec = PipelineSpec(seed=0)
    rankings = []
    sums_ok = True
    format_ok = True
    for seed in SEEDS:
        rows, _ = grid_rows(
            spec, probes128, GridSpec(tasks=(TaskKind.VQA,), seeds=(seed,), eval_pairs=24), Method.GPTQ,
        )
        data = AttributionDataset.from_results(rows, TaskKind.VQA, method=Method.GPTQ)
        forest = fit_random_forest(data, seed=0)
        table = lattice_table(forest, data)
        consensus = consensus_ranking(
            [
                impurity_importance(forest),
                permutation_importance(table, data, seed=0),
                shapley_importance(table, data),
            ]
        )
        if abs(float(consensus.pct.sum()) - 100.0) > 0.01:
            sums_ok = False
        row = consensus_csv_row("toy-pipeline", "gptq", "vqa", consensus)
        cells = row.split(",")
        if len(cells) != 6 or cells[:3] != ["toy-pipeline", "gptq", "vqa"]:
            format_ok = False
        rankings.append(consensus.ranking)
    stable = len(set(rankings)) == 1
    elapsed = time.monotonic() - start
    ok = sums_ok and format_ok and stable
    report(
        8, "consensus-contract-and-stability", ok,
        f"(sum-100={sums_ok}, csv-format={format_ok}, rankings={rankings[0] if stable else rankings}, {elapsed:.0f}s)",
    )


def test_criterion_09_linear_baseline_motivation():
    grid = np.array(list(itertools.product((2, 3, 4, 5, 6, 8, 16), repeat=3)), dtype=np.float64)
    target = ((grid[:, 2] >= 4) & (grid[:, 0] >= 3)).astype(np.float64)
    data = AttributionDataset(grid, target, ("vision", "connector", "language"))
    forest = fit_random_forest(data, seed=90)
    pred = forest.predict(data.features)
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    forest_r2 = 1.0 - float(np.sum((pred - target) ** 2)) / ss_tot
    ols_r2 = linear_baseline_r2(data)
    ok = forest_r2 - ols_r2 >= 0.15
    report(9, "linear-baseline-motivation", ok, f"(forest R2={forest_r2:.3f}, ols R2={ols_r2:.3f})")


def test_criterion_10_reproducibility(tmp_path, tiny_spec, tiny_probes):
    # grid cells via the API
    grid = GridSpec(
        bits=(2, 8), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3,), eval_pairs=4,
        component_subsets=((ComponentId.LANGUAGE,), (ComponentId.VISION, ComponentId.CONNECTOR, ComponentId.LANGUAGE)),
    )
    t1, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
    t2, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
    cells_ok = [(r.run_id, r.score, r.bpw) for r in t1] == [(r.run_id, r.score, r.bpw) for r in t2]
    sota_grid = GridSpec(bits=(3,), tasks=(TaskKind.CAPTION,), seeds=(3,), eval_pairs=4)
    sota1, _ = grid_rows(tiny_spec, tiny_probes, sota_grid, Method.AWQ)
    sota2, _ = grid_rows(tiny_spec, tiny_probes, sota_grid, Method.AWQ)
    cells_ok = cells_ok and [(r.run_id, r.score) for r in sota1] == [(r.run_id, r.score) for r in sota2]

    # full CLI pipeline twice: csv + manifest + report + svg byte-identical
    config = {
        "pipeline": {"d_model": 32, "vision_blocks": 3, "connector_blocks": 3,
                     "language_blocks": 3, "heads": 2, "patch_count": 8, "vocab": 64, "seed": 5},
        "grid": {"bits": [2, 4, 6], "tasks": ["retrieval"], "seeds": [3], "eval_pairs": 6,
                 "group_subsets": [["front", "middle", "end"]],
                 "layer_type_subsets": [["attn", "ff"]]},
        "probes": {"seed": 3, "n_pairs": 8},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        svg = tmp_path / f"{tag}.svg"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(csv)]) == 0
        assert main(["analyze", str(csv), "--task", "retrieval", "--out", str(rep), "--boot", "15"]) == 0
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(svg)]) == 0
        outputs[tag] = (
            csv.read_bytes(), (tmp_path / f"{tag}.csv.manifest.json").read_bytes(),
            rep.read_bytes(), svg.read_bytes(),
        )
    cli_ok = outputs["a"] == outputs["b"]
    report(10, "reproducibility", cells_ok and cli_ok, f"(api-cells={cells_ok}, cli-bytes={cli_ok})")


def test_criterion_11_bpw_accounting(models_by_seed):
    model = models_by_seed[7]
    _, ledger = apply_quantization(model, Selector.make(), Method.RTN, 4, group_size=128)
    bpw4 = compute_bpw(ledger, layer_sizes(model))
    baseline = compute_bpw([], layer_sizes(model))
    ok = abs(bpw4 - 4.25) <= 1e-6 and baseline == 16.0
    report(11, "bpw-accounting", ok, f"(all-4bit gs128={bpw4!r}, baseline={baseline!r})")
