from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmqlab.experiments as experiments
import mmqlab.pipeline as pipeline
from helpers import grid_rows, merged_calibration, oracle_score_task, planned_run_ids, same_bits, traced_peak
from mmqlab.experiments import (
    CSV_HEADER,
    GridSpec,
    RunRecord,
    compute_bpw,
    layer_sizes,
    load_results,
    make_run_id,
    pareto_frontier,
    run_grid,
    save_results,
)
from mmqlab.pipeline import (
    CAPTION_HORIZON,
    VQA_HORIZON,
    BlockGroup,
    ComponentId,
    ConnectorKind,
    LayerType,
    LedgerEntry,
    PipelineSpec,
    Selector,
    TaskKind,
    apply_quantization,
    build_model,
    group_of,
)
from mmqlab.quantizers import Method


def _record(run_id="x", bpw=4.0, score=0.5, task=TaskKind.RETRIEVAL, **kw):
    defaults = dict(
        run_id=run_id, method=Method.UNIFORM, task=task,
        vision_bits=4, connector_bits=4, language_bits=4,
        groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
        group_size=0, bpw=bpw, score=score, seed=7, wall_ms=0,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestRunId:
    def test_stable_and_unique(self):
        key = dict(
            method=Method.GPTQ, task=TaskKind.VQA, vision_bits=4, connector_bits=16, language_bits=2,
            groups=frozenset(BlockGroup), layer_types=frozenset(LayerType), group_size=128, seed=7,
        )
        a = make_run_id(**key)
        b = make_run_id(**key)
        c = make_run_id(**{**key, "seed": 8})
        assert a == b != c
        assert len(a) == 12
        assert a == "52bd8b345626"

    def test_csv_header_is_the_record_fields(self):
        # the header perfbench/workloads.py checks results files against
        assert CSV_HEADER == (
            "run_id,method,task,vision_bits,connector_bits,language_bits,"
            "groups,layer_types,group_size,bpw,score,seed,wall_ms"
        )


class TestComputeBpw:
    def test_baseline_exactly_sixteen(self, default_model):
        assert compute_bpw([], layer_sizes(default_model)) == 16.0

    def test_group128_four_bit_exact(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.make(), Method.RTN, 4, group_size=128)
        assert compute_bpw(ledger, layer_sizes(default_model)) == pytest.approx(4.25, abs=1e-9)

    def test_per_tensor_overhead(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.make(), Method.UNIFORM, 4)
        sizes = [default_model.layers[a.name].size for a in default_model.addresses]
        expected = sum(4 * n + 64 for n in sizes) / sum(sizes)
        assert compute_bpw(ledger, layer_sizes(default_model)) == pytest.approx(expected, abs=1e-12)
        # large layers approach k + 64/n
        assert all(4 + 64 / n == pytest.approx(4.0, abs=0.01) for n in sizes if n >= 6400)

    def test_unknown_layer_rejected(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.make(), Method.RTN, 4)
        ledger[0] = LedgerEntry(layer="nonexistent.layer", method=Method.RTN, bits=4, group_size=128, proxy_error=0.0)
        with pytest.raises(ValueError, match="unknown layer"):
            compute_bpw(ledger, layer_sizes(default_model))


class TestUniformGrid:
    def test_full_subset_count_is_589_per_task(self, tiny_spec, tiny_probes, tmp_path):
        grid = GridSpec(bits=(2, 4, 6, 8), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        rows, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        # 4 bits x 7 component subsets x 7 group subsets x 3 layer-type subsets + baseline
        assert len(rows) == 4 * 7 * 7 * 3 + 1
        assert len({r.run_id for r in rows}) == len(rows)
        # the full grid survives a save/load/save round trip byte for byte
        first, second = tmp_path / "t1.csv", tmp_path / "t2.csv"
        save_results(rows, first)
        save_results(load_results(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_baseline_row(self, tiny_spec, tiny_probes):
        grid = GridSpec(
            bits=(4,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4,
            component_subsets=((ComponentId.VISION,),),
            group_subsets=((BlockGroup.FRONT,),),
            layer_type_subsets=((LayerType.ATTN,),),
        )
        rows, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        base = [r for r in rows if r.vision_bits == 16]
        assert len(base) == 1
        assert base[0].bpw == 16.0 and base[0].score == 1.0

    def test_full_pipeline_star_flagged(self, tiny_spec, tiny_probes):
        grid = GridSpec(bits=(8,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        rows, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        stars = [r for r in rows if r.is_full_pipeline_star]
        star_bits = sorted(r.vision_bits for r in stars)
        assert star_bits == [8, 16]

    def test_empty_effect_cells_collapse(self, tiny_probes):
        spec = PipelineSpec(
            d_model=32, vision_blocks=3, connector_blocks=0, language_blocks=3, heads=2,
            patch_count=8, vocab=64, connector_kind=ConnectorKind.LINEAR_PROJECTOR, seed=2,
        )
        grid = GridSpec(
            bits=(4,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4,
            component_subsets=((ComponentId.CONNECTOR,),),
        )
        rows, _ = grid_rows(spec, tiny_probes, grid, Method.UNIFORM)
        assert len(rows) == 1  # only the baseline survives

    def test_rerun_identical(self, tiny_spec, tiny_probes, tmp_path):
        grid = GridSpec(
            bits=(2,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4,
            component_subsets=((ComponentId.LANGUAGE,),),
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_results(grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)[0], a)
        save_results(grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)[0], b)
        assert a.read_bytes() == b.read_bytes()


class TestSotaGrid:
    def test_grid_completeness_every_combo_once(self, tiny_spec, tiny_probes):
        rows, _ = grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ,
        )
        combos = [(r.vision_bits, r.connector_bits, r.language_bits) for r in rows]
        assert len(combos) == 27 and len(set(combos)) == 27  # (2,4,16)^3

    def test_projector_spec_has_two_feature_axes(self, tiny_probes):
        spec = PipelineSpec(
            d_model=32, vision_blocks=3, connector_blocks=0, language_blocks=3, heads=2,
            patch_count=8, vocab=64, connector_kind=ConnectorKind.LINEAR_PROJECTOR, seed=2,
        )
        rows, _ = grid_rows(
            spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.AWQ,
        )
        assert len(rows) == 9  # 3^2, connector axis absent
        assert all(r.connector_bits == 16 for r in rows)

    def test_baseline_cell(self, tiny_spec, tiny_probes):
        rows, _ = grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(4,), tasks=(TaskKind.VQA,), seeds=(3,), eval_pairs=4),
            Method.GPTQ,
        )
        base = [r for r in rows if (r.vision_bits, r.connector_bits, r.language_bits) == (16, 16, 16)]
        assert len(base) == 1 and base[0].score == 1.0 and base[0].bpw == 16.0

    def test_failed_cells_recorded_not_fatal(self, tiny_spec, tiny_probes, monkeypatch):
        import mmqlab.pipeline as pl

        original = pl.gptq_quantize

        def flaky(w, x, k, **kw):
            if k == 2:
                raise RuntimeError("synthetic failure")
            return original(w, x, k, **kw)

        monkeypatch.setattr(pl, "gptq_quantize", flaky)
        rows, failures = grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ,
        )
        assert len(rows) == 27
        failed = [r for r in rows if not np.isfinite(r.score)]
        assert len(failed) == 27 - 8  # every combo touching bits=2 fails
        assert failures and "synthetic failure" in failures[0][1]

    def test_gptq_factors_each_layer_once(self, tiny_spec, tiny_probes, monkeypatch):
        import mmqlab.quantizers as quantizers

        factored = []
        original = quantizers._inverse_hessian_factor

        def counting(hessians, damping, names):
            factored.extend(names)
            return original(hessians, damping, names)

        monkeypatch.setattr(quantizers, "_inverse_hessian_factor", counting)
        grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3, 4), eval_pairs=4),
            Method.GPTQ,
        )
        # the seeds run in turn, each factoring every layer of its own calibration once
        names = sorted(a.name for a in build_model(tiny_spec).addresses)
        assert sorted(factored[: len(names)]) == names and sorted(factored[len(names) :]) == names

    @pytest.mark.parametrize("fail_bits", [None, 2], ids=["ok", "failed-fragment"])
    def test_calibration_freed_before_decode(self, tiny_spec, tiny_probes, monkeypatch, fail_bits):
        import weakref

        # per stage, weak references to its LayerStats and to the GPTQ factors kept on them
        refs, factored, alive_at_pass, alive_at_decode = [], [], [], []
        quantize = pipeline.apply_quantization
        stages, connector, decoder = pipeline.calibration_stages, pipeline.run_connector, pipeline.decode_hidden
        generate = pipeline.greedy_generate

        def failing(weights, sel, method, k, calib, group_size):
            if k == fail_bits:
                raise RuntimeError("synthetic failure")
            result = quantize(weights, sel, method, k, calib, group_size)
            lowers = [stats.lower for stats in calib.values() if stats.lower is not None]
            refs[-1].extend(weakref.ref(lower) for lower in lowers)
            factored.append(len(lowers))
            return result

        def staged(*args):
            for comp, calib in stages(*args):
                refs.append([weakref.ref(stats) for stats in calib.values()])
                yield comp, calib
                del calib  # hold no stage while the next tower runs

        def alive():
            return [any(ref() is not None for ref in stage) for stage in refs]

        def calibrating(tower):
            def wrapped(*args, **kwargs):
                if kwargs.get("recorder") is not None:
                    alive_at_pass.append(alive())
                return tower(*args, **kwargs)

            return wrapped

        def decoding(*args, **kwargs):
            alive_at_decode.append(alive())
            return generate(*args, **kwargs)

        monkeypatch.setattr(experiments, "calibration_stages", staged)
        monkeypatch.setattr(pipeline, "run_connector", calibrating(connector))
        monkeypatch.setattr(pipeline, "decode_hidden", calibrating(decoder))
        monkeypatch.setattr(pipeline, "greedy_generate", decoding)
        monkeypatch.setattr(pipeline, "apply_quantization", failing)
        rows, failures = grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.VQA,), seeds=(3, 4), eval_pairs=4),
            Method.GPTQ,
        )
        assert len(refs) == 6 and bool(failures) == (fail_bits is not None)
        assert factored and all(factored)  # every stage's statistics held factors
        # the connector and decoder passes of each seed's calibration run with
        # every earlier stage, with its factors, already dead
        assert alive_at_pass == [[False] * n for n in (1, 2, 4, 5)]
        # and each seed's stages are all dead when that seed decodes
        assert alive_at_decode[0] == [False] * 3
        assert [False] * 6 in alive_at_decode

    def test_components_quantized_in_turn_and_freed(self, tiny_spec, tiny_probes, monkeypatch):
        component_of = {a.name: a.component for a in build_model(tiny_spec).addresses}
        calls = []
        quantize = pipeline.apply_quantization

        def recording(weights, sel, method, k, calib, *args):
            (comp,) = sel.components
            calls.append((comp, k, {component_of[name] for name in calib}))
            return quantize(weights, sel, method, k, calib, *args)

        monkeypatch.setattr(pipeline, "apply_quantization", recording)
        grid_rows(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ,
        )
        # every bit width of a component runs before the next component's
        assert [(comp, k) for comp, k, _ in calls] == [
            (comp, k) for comp in pipeline.COMPONENT_ORDER for k in (2, 4)
        ]
        # a fragment is quantized from its own component's statistics only
        for comp, _, held in calls:
            assert held == {comp}
        # that each layer is still factored once, test_gptq_factors_each_layer_once checks on this grid

    def test_rejects_uncalibrated_methods(self, tiny_spec, tiny_probes):
        with pytest.raises(ValueError, match="GPTQ/AWQ"):
            list(run_grid(tiny_spec, tiny_probes, GridSpec(), Method.RTN))

    def test_skip_run_ids_resumes_without_recompute(self, tiny_spec, tiny_probes):
        grid = GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        full, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.GPTQ)
        skip = frozenset(r.run_id for r in full[:10])
        rest, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.GPTQ, skip_run_ids=skip)
        assert len(rest) == len(full) - 10
        merged = sorted(full[:10] + rest, key=lambda r: r.run_id)
        assert [(r.run_id, r.score) for r in merged] == [(r.run_id, r.score) for r in full]


class TestComponentWalk:
    """Each component's tower stage runs inside the walk over the calibration
    stages, and its quantized layers go once nothing reads them."""

    def test_uniform_peak_holds_no_stage_finished_layers(self, tiny_spec, tiny_probes):
        grid = GridSpec(bits=(4,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,))
        grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)  # warm-up: one-time allocations
        # 2,008,352 B with every component's quantized layers held through every
        # stage; 1,702,776 B when each goes once its stage has run
        assert traced_peak(lambda: list(run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM))) < 1_850_000

    def test_each_stage_runs_before_the_next_tower_calibrates(self, tiny_spec, tiny_probes, monkeypatch):
        events = []

        def recorded(module, name, component, stage=True):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                if kwargs.get("recorder") is not None:
                    events.append(("calibrate", component))
                elif stage:
                    events.append(("stage", component))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        recorded(pipeline, "encode_vision", ComponentId.VISION)
        recorded(pipeline, "run_connector", ComponentId.CONNECTOR)
        recorded(pipeline, "decode_hidden", ComponentId.LANGUAGE, stage=False)  # the language stage is text_embeddings
        recorded(experiments, "text_embeddings", ComponentId.LANGUAGE)
        grid = GridSpec(bits=(4,), tasks=(TaskKind.RETRIEVAL,), seeds=(3, 4), eval_pairs=4)
        grid_rows(tiny_spec, tiny_probes, grid, Method.GPTQ)
        runs = [event for i, event in enumerate(events) if i == 0 or events[i - 1] != event]
        walk = [(kind, comp) for comp in pipeline.COMPONENT_ORDER for kind in ("calibrate", "stage")]
        assert runs == walk * 2

    def test_quantized_layers_go_once_their_stage_has_run(self, tiny_spec, tiny_probes, monkeypatch):
        import weakref

        refs = {comp: [] for comp in pipeline.COMPONENT_ORDER}  # weak references to each fragment's layers
        checks = []  # (event, components with a live quantized layer)
        quantize = pipeline.apply_quantization

        def recording(weights, sel, *args):
            qw, ledger = quantize(weights, sel, *args)
            (comp,) = sel.components
            refs[comp].extend(weakref.ref(qw.layers[e.layer]) for e in ledger)
            return qw, ledger

        def live():
            return {comp for comp, held in refs.items() if any(ref() is not None for ref in held)}

        def checked(event, original):
            def wrapped(*args, **kwargs):
                checks.append((event, live()))
                return original(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(pipeline, "apply_quantization", recording)
        monkeypatch.setattr(pipeline, "run_connector", checked("connector", pipeline.run_connector))
        monkeypatch.setattr(experiments, "text_embeddings", checked("text", experiments.text_embeddings))
        monkeypatch.setattr(pipeline, "greedy_generate", checked("decode", pipeline.greedy_generate))
        grid = GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3,), eval_pairs=4)
        rows, failures = grid_rows(tiny_spec, tiny_probes, grid, Method.GPTQ)
        assert not failures and all(refs.values())
        _, connector, language = pipeline.COMPONENT_ORDER
        # the connector calibration pass and stage: the vision layers have gone,
        # and the connector's are live until its stage has run
        assert {frozenset(held) for event, held in checks if event == "connector"} == {
            frozenset({connector}), frozenset()
        }
        # the text stage and every decode: only the language layers are live
        assert {frozenset(held) for event, held in checks if event != "connector"} == {frozenset({language})}
        # one decode for the reference and one for each cell but the baseline
        assert sum(event == "decode" for event, _ in checks) == len(rows) // 2
        assert not live()  # and nothing once the grid ends


class TestStreaming:
    def test_each_row_arrives_before_the_next_cell_decodes(self, tiny_spec, tiny_probes, monkeypatch):
        decodes = []
        generate = pipeline.greedy_generate

        def counting(*args, **kwargs):
            decodes.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "greedy_generate", counting)
        rows = run_grid(
            tiny_spec, tiny_probes, GridSpec(bits=(2,), tasks=(TaskKind.VQA,), seeds=(3,), eval_pairs=4), Method.GPTQ,
        )
        assert decodes == []  # nothing runs before the first next()
        first, error = next(rows)
        # the baseline comes first, after the reference's decode only
        assert (first.vision_bits, first.connector_bits, first.language_bits) == (16, 16, 16)
        assert error is None and first.score == 1.0 and len(decodes) == 1
        next(rows)
        assert len(decodes) == 2
        for count, (row, error) in enumerate(rows, start=3):
            assert error is None and len(decodes) == count  # one VQA decode per cell
        assert count == 2**3


def _reads_only(weights, fp) -> bool:
    """Whether every layer of a model is fp's own array, as in the full-precision reference."""
    return all(weights.layers[name] is layer for name, layer in fp.layers.items())


def _fp_prefixes(fp, visions, connectors) -> list:
    """The outputs of connector calls that read only fp's layers, on vision
    outputs of calls that read only fp's layers: the reference's prefix, and
    calibration's, which nothing decodes from. A decoded model holds only its
    language part, so a cell that leaves the language model at full precision
    decodes from fp's layers too, but from a prefix of its own."""
    fp_visions = [out for args, out in visions if _reads_only(args[0], fp)]
    return [out for args, out in connectors if _reads_only(args[0], fp) and any(args[1] is v for v in fp_visions)]


def _reference_decodes(fp, prefixes, decodes, horizon) -> int:
    """How many recorded decodes of the given horizon decode fp's layers from one of ``prefixes``."""
    return sum(
        _reads_only(args[0], fp) and any(args[1] is p for p in prefixes) and args[3] == horizon
        for args, _ in decodes
    )


class TestMemo:
    """Stage calls are counted by wrapping the names the grid engine looks up."""

    @pytest.fixture
    def record(self, monkeypatch):
        def record(module, name):
            calls = []
            original = getattr(module, name)

            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((args, result))
                return result

            monkeypatch.setattr(module, name, recorded)
            return calls

        return record

    def test_sota_reference_once_per_seed_and_task_prefix_once_per_bits(self, tiny_spec, tiny_probes, record):
        models = record(experiments, "_seeded_model")
        decodes = record(pipeline, "greedy_generate")
        quantized = record(pipeline, "apply_quantization")
        visions = record(pipeline, "encode_vision")
        connectors = record(pipeline, "run_connector")
        texts = record(experiments, "text_embeddings")
        grid = GridSpec(
            bits=(2, 4), tasks=(TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA), seeds=(3, 4), eval_pairs=4,
        )
        grid_rows(tiny_spec, tiny_probes, grid, Method.GPTQ)
        assert len(models) == 2
        for _, fp in models:
            assert sum(_reads_only(args[0], fp) for args, _ in texts) == 1
            prefixes = _fp_prefixes(fp, visions, connectors)
            for task in (TaskKind.CAPTION, TaskKind.VQA):
                horizon = CAPTION_HORIZON if task is TaskKind.CAPTION else VQA_HORIZON
                assert _reference_decodes(fp, prefixes, decodes, horizon) == 1
        # per seed: each of the 3 components once per bit width
        assert len(quantized) == 2 * 3 * 2
        # per seed: calibration, full precision and the 2 quantized vision fragments
        assert len(visions) == 2 * (1 + 1 + 2)
        # per seed: calibration and the 3 x 3 (vision, connector) fragment pairs
        assert len(connectors) == 2 * (1 + 3 * 3)
        # per seed: full precision (the reference) and the 2 quantized language fragments
        assert len(texts) == 2 * (1 + 2)
        # besides the reference, each of the 26 quantized cells decodes once per
        # generation task and seed
        assert len(decodes) == 2 * (2 + 2 * 26)

    def test_uniform_reference_once_per_seed_and_task(self, tiny_spec, tiny_probes, record):
        models = record(experiments, "_seeded_model")
        decodes = record(pipeline, "greedy_generate")
        quantized = record(pipeline, "apply_quantization")
        visions = record(pipeline, "encode_vision")
        connectors = record(pipeline, "run_connector")
        texts = record(experiments, "text_embeddings")
        grid = GridSpec(
            bits=(2, 8), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3, 4), eval_pairs=4,
            group_subsets=((BlockGroup.FRONT,), (BlockGroup.FRONT, BlockGroup.MIDDLE, BlockGroup.END)),
            layer_type_subsets=((LayerType.ATTN, LayerType.FF),),
        )
        rows, _ = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        assert len(models) == 2
        for _, fp in models:
            assert sum(_reads_only(args[0], fp) for args, _ in texts) == 1
            assert _reference_decodes(fp, _fp_prefixes(fp, visions, connectors), decodes, VQA_HORIZON) == 1
        # per seed: each of the 3 components once per bit width, whatever the
        # group subset; cells take their layers from these fragments
        assert len(quantized) == 2 * 3 * 2
        # per seed, over 2 bits x 2 group subsets: full precision and 4 vision
        # fragments; (vision, connector) pairs are both, either one, or neither
        assert len(visions) == 2 * (1 + 4)
        assert len(connectors) == 2 * (1 + 4 * 3)
        assert len(texts) == 2 * (1 + 4)
        quantized_cells = len(rows) // 2 - 2  # less one baseline cell per seed
        assert len(decodes) == 2 * 1 + quantized_cells  # VQA decodes once per quantized cell

    def test_stage_failure_fails_exactly_its_cells(self, tiny_spec, tiny_probes, monkeypatch):
        original = pipeline.encode_vision

        def flaky(weights, images, recorder=None, path=None):
            if len(np.unique(weights.layers["vision.block0.attn.q_proj"])) <= 4:  # 2-bit vision
                raise RuntimeError("synthetic vision failure")
            return original(weights, images, recorder, path)

        monkeypatch.setattr(pipeline, "encode_vision", flaky)
        grid = GridSpec(
            bits=(2, 8), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3,), eval_pairs=4,
            group_subsets=((BlockGroup.FRONT, BlockGroup.MIDDLE, BlockGroup.END),),
            layer_type_subsets=((LayerType.ATTN, LayerType.FF),),
        )
        rows, failures = grid_rows(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        failed = {r.run_id for r in rows if not np.isfinite(r.score)}
        assert failed == {r.run_id for r in rows if r.vision_bits == 2}
        assert len(failed) == 4 * 2  # 4 component subsets with vision, 2 tasks
        assert all(np.isfinite(r.bpw) == np.isfinite(r.score) for r in rows)
        assert dict(failures) == {run_id: "synthetic vision failure" for run_id in failed}


class TestBlockReuse:
    """Over an all-subsets uniform grid, each stage reuses the block runs its
    models share, and every stage output is bitwise that of a fresh call on
    the assembled model."""

    GRID = GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)

    @pytest.fixture(params=["queries", "projector"])
    def spec(self, request, tiny_spec):
        if request.param == "queries":
            return tiny_spec
        return replace(tiny_spec, connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=0)

    def test_stage_outputs_match_fresh_calls(self, spec, tiny_probes, monkeypatch):
        calls = []
        stages = ((pipeline, "encode_vision"), (pipeline, "run_connector"), (experiments, "text_embeddings"))
        for module, name in stages:

            def recorded(weights, x, path=None, original=getattr(module, name)):
                out = original(weights, x, path=path)
                calls.append((original, weights, x, out))
                return out

            monkeypatch.setattr(module, name, recorded)
        rows, failures = grid_rows(spec, tiny_probes, self.GRID, Method.UNIFORM)
        assert not failures and len(rows) > 100
        assert {original.__name__ for original, *_ in calls} == {"encode_vision", "run_connector", "text_embeddings"}
        for original, weights, x, out in calls:
            assert same_bits(out, original(weights, x)), original.__name__

    def test_blocks_run_once_per_distinct_prefix(self, spec, tiny_probes, monkeypatch):
        runs = Counter()
        original = pipeline._block

        def counted(weights, base, *args, **kwargs):
            runs[base.split(".")[0]] += 1
            return original(weights, base, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_block", counted)
        rows, _ = grid_rows(spec, tiny_probes, self.GRID, Method.UNIFORM)
        for component, bits in (("vision", "vision_bits"), ("language", "language_bits")):
            n = spec.vision_blocks if component == "vision" else spec.language_blocks
            # per block, what a row's model quantizes there: (bits, layer types) or None
            models = {
                tuple(
                    (getattr(r, bits), r.layer_types) if getattr(r, bits) < 16 and group_of(i, n) in r.groups else None
                    for i in range(n)
                )
                for r in rows
            }
            prefixes = {blocks[: i + 1] for blocks in models for i in range(n)}
            assert runs[component] == len(prefixes) < len(models) * n, component


def _some(items, at_most: int):
    """A tuple of 1 to at_most distinct items."""
    return st.lists(st.sampled_from(items), min_size=1, max_size=at_most, unique=True).map(tuple)


class TestEquivalence:
    """run_grid against the slow path it replaces: quantize each cell from
    scratch, one component at a time, and score it with ``oracle_score_task``."""

    @pytest.mark.parametrize(
        "method, grid, cells",
        [
            (
                Method.UNIFORM,
                GridSpec(
                    bits=(2,),
                    component_subsets=((ComponentId.VISION,), (ComponentId.CONNECTOR, ComponentId.LANGUAGE)),
                    group_subsets=((BlockGroup.FRONT,), (BlockGroup.MIDDLE, BlockGroup.END)),
                    layer_type_subsets=((LayerType.ATTN,), (LayerType.ATTN, LayerType.FF)),
                ),
                1 + 2 * 2 * 2,
            ),
            (Method.GPTQ, GridSpec(bits=(3,)), 2**3),
            (Method.AWQ, GridSpec(bits=(3,)), 2**3),
        ],
        ids=["uniform", "gptq", "awq"],
    )
    def test_matches_per_cell_quantize_and_score(self, tiny_spec, tiny_probes, method, grid, cells):
        grid = replace(grid, tasks=(TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA), seeds=(3,), eval_pairs=4)
        rows, failures = grid_rows(tiny_spec, tiny_probes, grid, method)
        assert len(rows) == 3 * cells and not failures
        self.assert_rows_match_per_cell_path(tiny_spec, tiny_probes, grid, method, rows)

    @staticmethod
    def assert_rows_match_per_cell_path(spec, probes, grid, method, rows):
        """Each row's (run_id, bpw, score) from quantizing its cell from scratch,
        one component at a time, and scoring each task with ``oracle_score_task``."""
        group_size = 0 if method is Method.UNIFORM else grid.group_size
        cells = {}  # the rows of each (seed, bits, groups, layer types), one per task
        for row in rows:
            key = (row.seed, row.vision_bits, row.connector_bits, row.language_bits, row.groups, row.layer_types)
            cells.setdefault(key, []).append(row)
        for seed in grid.seeds:
            fp = experiments._seeded_model(spec, seed)
            calib = None if method is Method.UNIFORM else merged_calibration(fp, probes)
            for (_, *bits, groups, layer_types), cell_rows in cells.items():
                if cell_rows[0].seed != seed:
                    continue
                weights, ledger = fp, []
                for comp, k in zip(pipeline.COMPONENT_ORDER, bits):
                    if k < 16:
                        sel = Selector.make((comp,), groups, layer_types)
                        weights, part = apply_quantization(weights, sel, method, k, calib, grid.group_size)
                        ledger.extend(part)
                bpw = compute_bpw(ledger, layer_sizes(fp))
                for row in cell_rows:
                    run_id = make_run_id(
                        method=method, task=row.task, vision_bits=row.vision_bits,
                        connector_bits=row.connector_bits, language_bits=row.language_bits, groups=groups,
                        layer_types=layer_types, group_size=group_size, seed=seed,
                    )
                    score = oracle_score_task(weights, fp, probes.take(grid.eval_pairs), row.task)
                    assert (row.run_id, row.bpw, row.score) == (run_id, bpw, score)

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_grid_matches_per_cell_path_and_resumes(self, tiny_spec, tiny_probes, data):
        """A drawn grid yields the run_ids its definition plans, in order, with
        rows equal to the per-cell path's, and a run that skips a drawn set of
        run_ids yields the full run's other rows, byte for byte.

        The spec is the tiny one or its linear-projector variant, whose
        connector has no blocks. That variant takes ``run_connector``'s
        projection branch, which no checked-in config reaches, and its
        connector-only uniform cells collapse into the baseline."""
        spec = tiny_spec
        if data.draw(st.booleans(), label="linear projector"):
            spec = replace(tiny_spec, connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=0)
        method = data.draw(st.sampled_from([Method.UNIFORM, Method.GPTQ, Method.AWQ]), label="method")
        tasks = data.draw(st.permutations(list(TaskKind)), label="tasks")[: data.draw(st.integers(1, 3))]
        if method is Method.UNIFORM:  # low bits, so a wrongly reused block shows in the scores
            bits = data.draw(_some(range(2, 5), 2), label="bits")
            subsets = {
                "component_subsets": data.draw(_some(experiments._nonempty_subsets(pipeline.COMPONENT_ORDER), 2)),
                "group_subsets": data.draw(_some(experiments._nonempty_subsets(pipeline.GROUP_ORDER), 2)),
                "layer_type_subsets": data.draw(_some(experiments._nonempty_subsets(pipeline.LAYER_TYPE_ORDER), 2)),
            }
        else:  # one bit width: 2^3 cells per seed and task
            bits, subsets = data.draw(_some([2, 3, 4, 8], 1), label="bits"), {}
        grid = GridSpec(
            bits=bits, tasks=tuple(tasks), seeds=data.draw(_some(range(10), 2), label="seeds"),
            eval_pairs=data.draw(st.integers(2, len(tiny_probes)), label="eval_pairs"),
            group_size=data.draw(st.sampled_from([4, 12, 32, 128]), label="group_size"),
            **subsets,
        )
        full = list(run_grid(spec, tiny_probes, grid, method))
        planned = planned_run_ids(spec, grid, method)
        assert [row.run_id for row, _ in full] == planned
        assert all(error is None for _, error in full)
        self.assert_rows_match_per_cell_path(spec, tiny_probes, grid, method, [row for row, _ in full])

        skip = frozenset(data.draw(st.lists(st.sampled_from([row.run_id for row, _ in full]), unique=True)))
        resumed = list(run_grid(spec, tiny_probes, grid, method, skip_run_ids=skip))
        assert [row.run_id for row, _ in resumed] == [run_id for run_id in planned if run_id not in skip]

        def exact(rows):
            return [(row.to_csv_row(), row.bpw.hex(), row.score.hex(), error) for row, error in rows]

        assert exact(resumed) == exact((row, error) for row, error in full if row.run_id not in skip)


class TestPersistence:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_results([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip_identity(self, tmp_path):
        rows = [
            _record(run_id="aaa", bpw=4.248692, score=0.123457),
            _record(run_id="bbb", bpw=16.0, score=1.0, groups=frozenset({BlockGroup.FRONT, BlockGroup.END})),
            _record(run_id="ccc", bpw=float("nan"), score=float("nan")),
        ]
        path = tmp_path / "t.csv"
        save_results(rows, path)
        loaded = load_results(path)
        path2 = tmp_path / "t2.csv"
        save_results(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert loaded[1].groups == frozenset({BlockGroup.FRONT, BlockGroup.END})
        for orig, back in zip(rows[:2], loaded[:2]):
            assert back.bpw == pytest.approx(orig.bpw, rel=1e-5)
            assert back.score == pytest.approx(orig.score, rel=1e-5)

    def test_groups_serialization_order(self, tmp_path):
        row = _record(groups=frozenset({BlockGroup.END, BlockGroup.FRONT}))
        path = tmp_path / "g.csv"
        save_results([row], path)
        assert ",front+end," in path.read_text()

    def test_malformed_rows_error_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nonly,three,fields\n")
        with pytest.raises(ValueError, match="line 2"):
            load_results(path)
        path.write_text(CSV_HEADER + "\n" + _record().to_csv_row() + "\n" + "x,uniform,retrieval,4,4,4,weird,attn,0,4,0.5,7,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_results(path)
        path.write_text("not,the,header\n")
        with pytest.raises(ValueError, match="line 1"):
            load_results(path)


    @pytest.mark.parametrize("field,index", [("vision_bits", 3), ("connector_bits", 4), ("language_bits", 5)])
    @pytest.mark.parametrize("bits", ["1", "0", "17", "-4"])
    def test_bits_out_of_range_name_line_and_field(self, tmp_path, field, index, bits):
        parts = _record().to_csv_row().split(",")
        parts[index] = bits
        path = tmp_path / "bits.csv"
        path.write_text(CSV_HEADER + "\n" + _record().to_csv_row() + "\n" + ",".join(parts) + "\n")
        with pytest.raises(ValueError, match=rf"^line 3: {field} must lie in \[2, 16\], got {bits}$"):
            load_results(path)

    @pytest.mark.parametrize("score", ["-5", "inf", "-inf", "1.5", "-0.000001"])
    def test_score_outside_unit_interval_names_line(self, tmp_path, score):
        path = tmp_path / "score.csv"
        path.write_text(CSV_HEADER + "\n" + _record(score=0.5).to_csv_row().replace(",0.5,", f",{score},") + "\n")
        with pytest.raises(ValueError, match=rf"^line 2: score must be nan or lie in \[0, 1\], got {score}$"):
            load_results(path)

    @pytest.mark.parametrize("bpw", ["-7", "0", "-0", "inf", "-inf"])
    def test_bpw_not_positive_finite_names_line(self, tmp_path, bpw):
        path = tmp_path / "bpw.csv"
        path.write_text(CSV_HEADER + "\n" + _record(bpw=4.25).to_csv_row().replace(",4.25,", f",{bpw},") + "\n")
        with pytest.raises(ValueError, match=rf"^line 2: bpw must be nan or a positive finite number, got {bpw}$"):
            load_results(path)

    @pytest.mark.parametrize("group_size", ["-1", "-128"])
    def test_negative_group_size_names_line(self, tmp_path, group_size):
        parts = _record().to_csv_row().split(",")
        parts[8] = group_size
        path = tmp_path / "group.csv"
        path.write_text(CSV_HEADER + "\n" + _record().to_csv_row() + "\n" + ",".join(parts) + "\n")
        with pytest.raises(ValueError, match=rf"^line 3: group_size must be >= 0, got {group_size}$"):
            load_results(path)

    def test_repeated_run_id_names_both_lines(self, tmp_path):
        rows = [_record(run_id="a"), _record(run_id="b"), _record(run_id="a", score=0.25)]
        path = tmp_path / "dup.csv"
        save_results(rows, path)
        with pytest.raises(ValueError, match="^line 4: run_id a repeats line 2$"):
            load_results(path)

    def test_edge_values_accepted(self, tmp_path):
        rows = [
            _record(run_id="a", score=0.0, vision_bits=2, connector_bits=16, language_bits=2),
            _record(run_id="b", score=1.0),
            _record(run_id="c", score=float("nan")),
        ]
        path = tmp_path / "edge.csv"
        save_results(rows, path)
        assert [r.run_id for r in load_results(path)] == ["a", "b", "c"]


_VALID_CSV = CSV_HEADER + "\n" + "\n".join(
    _record(run_id=f"r{i}", score=score, bpw=bpw).to_csv_row()
    for i, (score, bpw) in enumerate([(0.5, 4.0), (1.0, 16.0), (float("nan"), float("nan"))])
) + "\n"


class TestLoadResultsFuzz:
    """A damaged CSV loads or fails with a ValueError naming its line."""

    @staticmethod
    def _check(path):
        try:
            rows = load_results(path)
        except ValueError as exc:
            assert str(exc).startswith("line "), str(exc)
            return
        for r in rows:
            assert all(2 <= b <= 16 for b in (r.vision_bits, r.connector_bits, r.language_bits))
            assert np.isnan(r.score) or 0.0 <= r.score <= 1.0
            assert np.isnan(r.bpw) or 0.0 < r.bpw < np.inf
            assert r.group_size >= 0

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(0, len(_VALID_CSV)))
    def test_truncated(self, tmp_path, cut):
        path = tmp_path / "cut.csv"
        path.write_text(_VALID_CSV[:cut], encoding="utf-8")
        self._check(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        line=st.integers(0, 3),
        field=st.integers(0, 12),
        value=st.one_of(
            st.text(max_size=12),
            st.integers(-40, 40).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["", "nan", "inf", "16", "2", "gptq", "vqa", "front+end", "attn", ",", "\n"]),
        ),
    )
    def test_field_replaced(self, tmp_path, line, field, value):
        lines = [ln.split(",") for ln in _VALID_CSV.splitlines()]
        lines[line][field] = value
        path = tmp_path / "field.csv"
        path.write_text("\n".join(",".join(parts) for parts in lines) + "\n", encoding="utf-8")
        self._check(path)

    def test_blank_lines_keep_physical_numbers(self, tmp_path):
        good = _VALID_CSV.splitlines()[1]
        path = tmp_path / "blank.csv"
        path.write_text(f"{CSV_HEADER}\n\n\n{good}\nbroken\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 5: expected 13 fields, got 1$"):
            load_results(path)

    def test_leading_blank_lines(self, tmp_path):
        path = tmp_path / "leading.csv"
        path.write_text("\n  \n" + _VALID_CSV, encoding="utf-8")
        assert len(load_results(path)) == 3
        path.write_text("\n\nnot,a,header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: bad header"):
            load_results(path)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        blanks=st.lists(st.integers(0, 4), max_size=6),
        bad=st.integers(1, 3),
    )
    def test_blank_lines_inserted(self, tmp_path, blanks, bad):
        # blank lines anywhere, including before the header; data line `bad` loses its fields
        lines = _VALID_CSV.splitlines()
        lines[bad] = "x"
        marked = [(line, i == bad) for i, line in enumerate(lines)]
        for at in sorted(blanks, reverse=True):
            marked.insert(at, ("", False))
        path = tmp_path / "blanks.csv"
        path.write_text("\n".join(line for line, _ in marked) + "\n", encoding="utf-8")
        bad_line = 1 + [is_bad for _, is_bad in marked].index(True)
        with pytest.raises(ValueError, match=f"^line {bad_line}: expected 13 fields, got 1$"):
            load_results(path)


class TestPareto:
    def test_single_row(self):
        rows = [_record()]
        assert pareto_frontier(rows, TaskKind.RETRIEVAL) == rows

    def test_domination(self):
        rows = [_record(run_id="a", bpw=4.0, score=0.9), _record(run_id="b", bpw=8.0, score=0.8)]
        front = pareto_frontier(rows, TaskKind.RETRIEVAL)
        assert [r.run_id for r in front] == ["a"]

    def test_equal_score_higher_bpw_dominated(self):
        rows = [
            _record(run_id="a", bpw=4.0, score=0.8),
            _record(run_id="b", bpw=6.0, score=0.9),
            _record(run_id="c", bpw=8.0, score=0.9),
        ]
        front = pareto_frontier(rows, TaskKind.RETRIEVAL)
        assert [r.run_id for r in front] == ["a", "b"]

    def test_exact_ties_all_retained(self):
        rows = [_record(run_id="a", bpw=4.0, score=0.9), _record(run_id="b", bpw=4.0, score=0.9)]
        front = pareto_frontier(rows, TaskKind.RETRIEVAL)
        assert len(front) == 2

    def test_nan_rows_excluded_and_sorted(self):
        rows = [
            _record(run_id="n", bpw=float("nan"), score=float("nan")),
            _record(run_id="hi", bpw=9.0, score=0.99),
            _record(run_id="lo", bpw=2.0, score=0.3),
        ]
        front = pareto_frontier(rows, TaskKind.RETRIEVAL)
        assert [r.run_id for r in front] == ["lo", "hi"]

    def test_empty_task_slice_rejected(self):
        with pytest.raises(ValueError, match="no finished rows"):
            pareto_frontier([_record(task=TaskKind.VQA)], TaskKind.CAPTION)
