from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmqlab.experiments as experiments
import mmqlab.pipeline as pipeline
from helpers import oracle_score_task
from mmqlab.experiments import (
    CSV_HEADER,
    GridSpec,
    ResultsTable,
    RunRecord,
    compute_bpw,
    load_results,
    make_run_id,
    pareto_frontier,
    run_grid,
    save_results,
)
from mmqlab.pipeline import (
    BlockGroup,
    ComponentId,
    ConnectorKind,
    LayerType,
    PipelineSpec,
    QuantizationLedger,
    Selector,
    TaskKind,
    apply_quantization,
    build_model,
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
        a = make_run_id(Method.GPTQ, TaskKind.VQA, 4, 16, 2, BlockGroup, LayerType, 128, 7)
        b = make_run_id(Method.GPTQ, TaskKind.VQA, 4, 16, 2, BlockGroup, LayerType, 128, 7)
        c = make_run_id(Method.GPTQ, TaskKind.VQA, 4, 16, 2, BlockGroup, LayerType, 128, 8)
        assert a == b != c
        assert len(a) == 12


class TestComputeBpw:
    def test_baseline_exactly_sixteen(self, default_model):
        assert compute_bpw(QuantizationLedger(), default_model) == 16.0

    def test_group128_four_bit_exact(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.everything(), Method.RTN, 4, group_size=128)
        assert compute_bpw(ledger, default_model) == pytest.approx(4.25, abs=1e-9)

    def test_per_tensor_overhead(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.everything(), Method.UNIFORM, 4)
        layer_sizes = [default_model.layers[a.name].size for a in default_model.addresses]
        expected = sum(4 * n + 64 for n in layer_sizes) / sum(layer_sizes)
        assert compute_bpw(ledger, default_model) == pytest.approx(expected, abs=1e-12)
        # large layers approach k + 64/n
        assert all(4 + 64 / n == pytest.approx(4.0, abs=0.01) for n in layer_sizes if n >= 6400)

    def test_unknown_layer_rejected(self, default_model):
        _, ledger = apply_quantization(default_model, Selector.everything(), Method.RTN, 4)
        ledger.entries[0] = ledger.entries[0].__class__(
            layer="nonexistent.layer", method=Method.RTN, bits=4, group_size=128,
            scheme=ledger.entries[0].scheme, proxy_error=0.0, code_bits=0,
        )
        with pytest.raises(ValueError, match="unknown layer"):
            compute_bpw(ledger, default_model)


class TestUniformGrid:
    def test_full_subset_count_is_589_per_task(self, tiny_spec, tiny_probes, tmp_path):
        grid = GridSpec(bits=(2, 4, 6, 8), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        table = run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        # 4 bits x 7 component subsets x 7 group subsets x 3 layer-type subsets + baseline
        assert len(table.rows) == 4 * 7 * 7 * 3 + 1
        assert len({r.run_id for r in table.rows}) == len(table.rows)
        # the full table survives a save/load/save round trip byte for byte
        first, second = tmp_path / "t1.csv", tmp_path / "t2.csv"
        save_results(table, first)
        save_results(load_results(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_baseline_row(self, tiny_spec, tiny_probes):
        grid = GridSpec(
            bits=(4,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4,
            component_subsets=((ComponentId.VISION,),),
            group_subsets=((BlockGroup.FRONT,),),
            layer_type_subsets=((LayerType.ATTN,),),
        )
        table = run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        base = [r for r in table.rows if r.vision_bits == 16]
        assert len(base) == 1
        assert base[0].bpw == 16.0 and base[0].score == 1.0

    def test_full_pipeline_star_flagged(self, tiny_spec, tiny_probes):
        grid = GridSpec(bits=(8,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        table = run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        stars = [r for r in table.rows if r.is_full_pipeline_star]
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
        table = run_grid(spec, tiny_probes, grid, Method.UNIFORM)
        assert len(table.rows) == 1  # only the baseline survives

    def test_rerun_identical(self, tiny_spec, tiny_probes, tmp_path):
        grid = GridSpec(
            bits=(2,), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4,
            component_subsets=((ComponentId.LANGUAGE,),),
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_results(run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM), a)
        save_results(run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM), b)
        assert a.read_bytes() == b.read_bytes()


class TestSotaGrid:
    def test_grid_completeness_every_combo_once(self, tiny_spec, tiny_probes):
        table = run_grid(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ, calibration_pairs=8,
        )
        combos = [(r.vision_bits, r.connector_bits, r.language_bits) for r in table.rows]
        assert len(combos) == 27 and len(set(combos)) == 27  # (2,4,16)^3

    def test_projector_spec_has_two_feature_axes(self, tiny_probes):
        spec = PipelineSpec(
            d_model=32, vision_blocks=3, connector_blocks=0, language_blocks=3, heads=2,
            patch_count=8, vocab=64, connector_kind=ConnectorKind.LINEAR_PROJECTOR, seed=2,
        )
        table = run_grid(
            spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.AWQ, calibration_pairs=8,
        )
        assert len(table.rows) == 9  # 3^2, connector axis absent
        assert all(r.connector_bits == 16 for r in table.rows)

    def test_baseline_cell(self, tiny_spec, tiny_probes):
        table = run_grid(
            tiny_spec, tiny_probes,
            GridSpec(bits=(4,), tasks=(TaskKind.VQA,), seeds=(3,), eval_pairs=4),
            Method.GPTQ, calibration_pairs=8,
        )
        base = [r for r in table.rows if (r.vision_bits, r.connector_bits, r.language_bits) == (16, 16, 16)]
        assert len(base) == 1 and base[0].score == 1.0 and base[0].bpw == 16.0

    def test_failed_cells_recorded_not_fatal(self, tiny_spec, tiny_probes, monkeypatch):
        import mmqlab.pipeline as pl

        original = pl.gptq_quantize_stack

        def flaky(w, x, k, **kw):
            if k == 2:
                raise RuntimeError("synthetic failure")
            return original(w, x, k, **kw)

        monkeypatch.setattr(pl, "gptq_quantize_stack", flaky)
        table = run_grid(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ, calibration_pairs=8,
        )
        assert len(table.rows) == 27
        failed = [r for r in table.rows if not np.isfinite(r.score)]
        assert len(failed) == 27 - 8  # every combo touching bits=2 fails
        assert table.failures and "synthetic failure" in table.failures[0][1]

    def test_gptq_factors_each_layer_once(self, tiny_spec, tiny_probes, monkeypatch):
        import mmqlab.quantizers as quantizers

        factored = []
        original = quantizers._inverse_hessian_factor

        def counting(hessians, damping, names):
            factored.extend(names)
            return original(hessians, damping, names)

        monkeypatch.setattr(quantizers, "_inverse_hessian_factor", counting)
        run_grid(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4),
            Method.GPTQ, calibration_pairs=8,
        )
        assert sorted(factored) == sorted(a.name for a in build_model(tiny_spec).addresses)

    @pytest.mark.parametrize("fail_bits", [None, 2], ids=["ok", "failed-fragment"])
    def test_calibration_freed_before_decode(self, tiny_spec, tiny_probes, monkeypatch, fail_bits):
        import weakref

        refs, alive_at_decode = [], []
        quantize = experiments.apply_quantization

        def failing(weights, sel, method, k, *args):
            if k == fail_bits:
                raise RuntimeError("synthetic failure")
            return quantize(weights, sel, method, k, *args)

        def collecting(*args, **kwargs):
            calib = pipeline.collect_calibration(*args, **kwargs)
            refs.append(weakref.ref(calib))
            return calib

        def decoding(*args, **kwargs):
            alive_at_decode.append([ref() is not None for ref in refs])
            return pipeline.generate_tokens(*args, **kwargs)

        monkeypatch.setattr(experiments, "collect_calibration", collecting)
        monkeypatch.setattr(experiments, "generate_tokens", decoding)
        monkeypatch.setattr(experiments, "apply_quantization", failing)
        table = run_grid(
            tiny_spec, tiny_probes,
            GridSpec(bits=(2, 4), tasks=(TaskKind.VQA,), seeds=(3, 4), eval_pairs=4),
            Method.GPTQ, calibration_pairs=8,
        )
        assert len(refs) == 2 and bool(table.failures) == (fail_bits is not None)
        # each seed's calibration, with its memoised factors, is dead when that seed decodes
        assert alive_at_decode[0] == [False]
        assert [False, False] in alive_at_decode

    def test_rejects_uncalibrated_methods(self, tiny_spec, tiny_probes):
        with pytest.raises(ValueError, match="GPTQ/AWQ"):
            run_grid(tiny_spec, tiny_probes, GridSpec(), Method.RTN)

    def test_skip_run_ids_resumes_without_recompute(self, tiny_spec, tiny_probes):
        grid = GridSpec(bits=(2, 4), tasks=(TaskKind.RETRIEVAL,), seeds=(3,), eval_pairs=4)
        full = run_grid(tiny_spec, tiny_probes, grid, Method.GPTQ, calibration_pairs=8)
        skip = frozenset(r.run_id for r in full.rows[:10])
        rest = run_grid(tiny_spec, tiny_probes, grid, Method.GPTQ, calibration_pairs=8, skip_run_ids=skip)
        assert len(rest.rows) == len(full.rows) - 10
        merged = sorted(full.rows[:10] + rest.rows, key=lambda r: r.run_id)
        assert [(r.run_id, r.score) for r in merged] == [(r.run_id, r.score) for r in full.rows]


def _reads_only(weights, fp) -> bool:
    """Whether every layer of a model is fp's own array, as in the full-precision reference."""
    return all(weights.layers[name] is layer for name, layer in fp.layers.items())


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
        decodes = record(experiments, "generate_tokens")
        quantized = record(experiments, "apply_quantization")
        visions = record(pipeline, "encode_vision")
        connectors = record(pipeline, "run_connector")
        texts = record(experiments, "text_embeddings")
        grid = GridSpec(
            bits=(2, 4), tasks=(TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA), seeds=(3, 4), eval_pairs=4,
        )
        run_grid(tiny_spec, tiny_probes, grid, Method.GPTQ, calibration_pairs=8)
        assert len(models) == 2
        for _, fp in models:
            assert sum(_reads_only(args[0], fp) for args, _ in texts) == 1
            for task in (TaskKind.CAPTION, TaskKind.VQA):
                assert sum(_reads_only(args[0], fp) and args[2] is task for args, _ in decodes) == 1
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
        decodes = record(experiments, "generate_tokens")
        quantized = record(experiments, "apply_quantization")
        visions = record(pipeline, "encode_vision")
        connectors = record(pipeline, "run_connector")
        texts = record(experiments, "text_embeddings")
        grid = GridSpec(
            bits=(2, 8), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3, 4), eval_pairs=4,
            group_subsets=((BlockGroup.FRONT,), (BlockGroup.FRONT, BlockGroup.MIDDLE, BlockGroup.END)),
            layer_type_subsets=((LayerType.ATTN, LayerType.FF),),
        )
        table = run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        assert len(models) == 2
        for _, fp in models:
            assert sum(_reads_only(args[0], fp) for args, _ in texts) == 1
            assert sum(_reads_only(args[0], fp) and args[2] is TaskKind.VQA for args, _ in decodes) == 1
        # per seed: each of the 3 components once per bit width, whatever the
        # group subset; cells take their layers from these fragments
        assert len(quantized) == 2 * 3 * 2
        # per seed, over 2 bits x 2 group subsets: full precision and 4 vision
        # fragments; (vision, connector) pairs are both, either one, or neither
        assert len(visions) == 2 * (1 + 4)
        assert len(connectors) == 2 * (1 + 4 * 3)
        assert len(texts) == 2 * (1 + 4)
        quantized_cells = len(table.rows) // 2 - 2  # less one baseline cell per seed
        assert len(decodes) == 2 * 1 + quantized_cells  # VQA decodes once per quantized cell

    def test_stage_failure_fails_exactly_its_cells(self, tiny_spec, tiny_probes, monkeypatch):
        original = pipeline.encode_vision

        def flaky(weights, images, recorder=None):
            if len(np.unique(weights.layers["vision.block0.attn.q_proj"])) <= 4:  # 2-bit vision
                raise RuntimeError("synthetic vision failure")
            return original(weights, images, recorder)

        monkeypatch.setattr(pipeline, "encode_vision", flaky)
        grid = GridSpec(
            bits=(2, 8), tasks=(TaskKind.RETRIEVAL, TaskKind.VQA), seeds=(3,), eval_pairs=4,
            group_subsets=((BlockGroup.FRONT, BlockGroup.MIDDLE, BlockGroup.END),),
            layer_type_subsets=((LayerType.ATTN, LayerType.FF),),
        )
        table = run_grid(tiny_spec, tiny_probes, grid, Method.UNIFORM)
        failed = {r.run_id for r in table.rows if not np.isfinite(r.score)}
        assert failed == {r.run_id for r in table.rows if r.vision_bits == 2}
        assert len(failed) == 4 * 2  # 4 component subsets with vision, 2 tasks
        assert all(np.isfinite(r.bpw) == np.isfinite(r.score) for r in table.rows)
        assert dict(table.failures) == {run_id: "synthetic vision failure" for run_id in failed}


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
        table = run_grid(tiny_spec, tiny_probes, grid, method, calibration_pairs=8)
        assert len(table.rows) == 3 * cells and not table.failures

        fp = experiments._seeded_model(tiny_spec, 3)
        calib = None if method is Method.UNIFORM else pipeline.collect_calibration(fp, tiny_probes, n=8)
        group_size = 0 if method is Method.UNIFORM else grid.group_size
        for row in table.rows:
            weights, ledger = fp, QuantizationLedger()
            for comp, k in row.component_bits.items():
                if k < 16:
                    sel = Selector.make((comp,), row.groups, row.layer_types)
                    weights, part = apply_quantization(weights, sel, method, k, calib, grid.group_size)
                    ledger.entries.extend(part.entries)
            run_id = make_run_id(
                method, row.task, row.vision_bits, row.connector_bits, row.language_bits,
                row.groups, row.layer_types, group_size, 3,
            )
            score = oracle_score_task(weights, fp, tiny_probes.take(4), row.task)
            assert (row.run_id, row.bpw, row.score) == (run_id, compute_bpw(ledger, fp), score)


class TestPersistence:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_results(ResultsTable(), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip_identity(self, tmp_path):
        rows = [
            _record(run_id="aaa", bpw=4.248692, score=0.123457),
            _record(run_id="bbb", bpw=16.0, score=1.0, groups=frozenset({BlockGroup.FRONT, BlockGroup.END})),
            _record(run_id="ccc", bpw=float("nan"), score=float("nan")),
        ]
        path = tmp_path / "t.csv"
        save_results(ResultsTable(rows=rows), path)
        loaded = load_results(path)
        path2 = tmp_path / "t2.csv"
        save_results(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert loaded.rows[1].groups == frozenset({BlockGroup.FRONT, BlockGroup.END})
        for orig, back in zip(rows[:2], loaded.rows[:2]):
            assert back.bpw == pytest.approx(orig.bpw, rel=1e-5)
            assert back.score == pytest.approx(orig.score, rel=1e-5)

    def test_groups_serialization_order(self, tmp_path):
        row = _record(groups=frozenset({BlockGroup.END, BlockGroup.FRONT}))
        path = tmp_path / "g.csv"
        save_results(ResultsTable(rows=[row]), path)
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

    def test_repeated_run_id_names_both_lines(self, tmp_path):
        rows = [_record(run_id="a"), _record(run_id="b"), _record(run_id="a", score=0.25)]
        path = tmp_path / "dup.csv"
        save_results(ResultsTable(rows=rows), path)
        with pytest.raises(ValueError, match="^line 4: run_id a repeats line 2$"):
            load_results(path)

    def test_edge_values_accepted(self, tmp_path):
        rows = [
            _record(run_id="a", score=0.0, vision_bits=2, connector_bits=16, language_bits=2),
            _record(run_id="b", score=1.0),
            _record(run_id="c", score=float("nan")),
        ]
        path = tmp_path / "edge.csv"
        save_results(ResultsTable(rows=rows), path)
        assert [r.run_id for r in load_results(path).rows] == ["a", "b", "c"]


_VALID_CSV = CSV_HEADER + "\n" + "\n".join(
    _record(run_id=f"r{i}", score=score, bpw=bpw).to_csv_row()
    for i, (score, bpw) in enumerate([(0.5, 4.0), (1.0, 16.0), (float("nan"), float("nan"))])
) + "\n"


class TestLoadResultsFuzz:
    """A damaged CSV loads as a table or fails with a ValueError naming its line."""

    @staticmethod
    def _check(path):
        try:
            table = load_results(path)
        except ValueError as exc:
            assert str(exc).startswith("line "), str(exc)
            return
        for r in table.rows:
            assert all(2 <= b <= 16 for b in (r.vision_bits, r.connector_bits, r.language_bits))
            assert np.isnan(r.score) or 0.0 <= r.score <= 1.0

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
        assert len(load_results(path).rows) == 3
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
        table = ResultsTable(rows=[_record()])
        assert pareto_frontier(table, TaskKind.RETRIEVAL).rows == table.rows

    def test_domination(self):
        rows = [_record(run_id="a", bpw=4.0, score=0.9), _record(run_id="b", bpw=8.0, score=0.8)]
        front = pareto_frontier(ResultsTable(rows=rows), TaskKind.RETRIEVAL).rows
        assert [r.run_id for r in front] == ["a"]

    def test_equal_score_higher_bpw_dominated(self):
        rows = [
            _record(run_id="a", bpw=4.0, score=0.8),
            _record(run_id="b", bpw=6.0, score=0.9),
            _record(run_id="c", bpw=8.0, score=0.9),
        ]
        front = pareto_frontier(ResultsTable(rows=rows), TaskKind.RETRIEVAL).rows
        assert [r.run_id for r in front] == ["a", "b"]

    def test_exact_ties_all_retained(self):
        rows = [_record(run_id="a", bpw=4.0, score=0.9), _record(run_id="b", bpw=4.0, score=0.9)]
        front = pareto_frontier(ResultsTable(rows=rows), TaskKind.RETRIEVAL).rows
        assert len(front) == 2

    def test_nan_rows_excluded_and_sorted(self):
        rows = [
            _record(run_id="n", bpw=float("nan"), score=float("nan")),
            _record(run_id="hi", bpw=9.0, score=0.99),
            _record(run_id="lo", bpw=2.0, score=0.3),
        ]
        front = pareto_frontier(ResultsTable(rows=rows), TaskKind.RETRIEVAL).rows
        assert [r.run_id for r in front] == ["lo", "hi"]

    def test_empty_task_slice_rejected(self):
        with pytest.raises(ValueError, match="no finished rows"):
            pareto_frontier(ResultsTable(rows=[_record(task=TaskKind.VQA)]), TaskKind.CAPTION)
