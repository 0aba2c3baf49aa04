import hashlib
import itertools
import json

import pytest

from mmqlab.cli import ConfigError, load_config, main, render_plot_svg
from mmqlab.experiments import ResultsTable, RunRecord, load_results, save_results
from mmqlab.pipeline import BlockGroup, LayerType, TaskKind
from mmqlab.quantizers import Method

TINY_PIPELINE = {
    "d_model": 32,
    "vision_blocks": 3,
    "connector_blocks": 3,
    "language_blocks": 3,
    "heads": 2,
    "patch_count": 8,
    "vocab": 64,
    "seed": 5,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "pipeline": TINY_PIPELINE,
        "grid": {
            "bits": [2, 8],
            "tasks": ["retrieval"],
            "seeds": [3],
            "component_subsets": [["vision"], ["language"]],
            "group_subsets": [["front", "middle", "end"]],
            "layer_type_subsets": [["attn", "ff"]],
            "eval_pairs": 4,
        },
        "probes": {"seed": 3, "n_pairs": 8},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def synthetic_results(path, score_fn, method=Method.GPTQ, task=TaskKind.VQA):
    rows = []
    for v, c, l in itertools.product((2, 3, 4, 6, 16), repeat=3):
        rows.append(
            RunRecord(
                run_id=f"{v:02d}{c:02d}{l:02d}x", method=method, task=task,
                vision_bits=v, connector_bits=c, language_bits=l,
                groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
                group_size=128, bpw=(v + c + l) / 3, score=score_fn(v, c, l),
                seed=7, wall_ms=0,
            )
        )
    save_results(ResultsTable(rows=rows), path)


class TestConfig:
    def test_unknown_key_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"bitz": [2]}}))
        with pytest.raises(ConfigError, match="grid.bitz"):
            load_config(str(path))

    def test_bad_type_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pipeline": {"d_model": "big"}}))
        with pytest.raises(ConfigError, match="pipeline.d_model"):
            load_config(str(path))

    def test_bad_enum_lists_options(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"tasks": ["caption", "poetry"]}}))
        with pytest.raises(ConfigError, match="poetry"):
            load_config(str(path))

    def test_invalid_pipeline_invariant(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pipeline": {"language_blocks": 7}}))
        with pytest.raises(ConfigError, match="language_blocks"):
            load_config(str(path))

    @pytest.mark.parametrize("value", [0, -3])
    def test_bad_workers_config_names_key(self, tmp_path, value):
        path = write_config(tmp_path, workers=value)
        with pytest.raises(ConfigError, match="workers"):
            load_config(str(path))

    def test_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = load_config(str(path))
        assert config.pipeline.d_model == 64
        assert config.probes is None


class TestGridCommand:
    def test_uniform_grid_row_count_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.csv"
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + (2 * 2 * 1 * 1 + 1)  # header + cells + baseline
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["method"] == "uniform" and manifest["rows"] == 5
        assert manifest["failures"] == {}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(a)]) == 0
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gptq_without_probes_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["probes"]
        cfg.write_text(json.dumps(raw))
        code = main(["grid", "--config", str(cfg), "--method", "gptq", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "calibration probes required" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(tmp_path / "no/dir/x.csv")])
        assert code == 1

    def test_failed_cells_exit_two(self, tmp_path, monkeypatch, capsys):
        import mmqlab.pipeline as pl

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic quantize failure")

        monkeypatch.setattr(pl, "uniform_quantize", boom)
        cfg = write_config(tmp_path)
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert "synthetic quantize failure" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["grid", "--config", "c.json", "--method", "bogus", "--out", "x.csv"]) == 1

    def test_resume_skips_existing_and_matches_full_run(self, tmp_path):
        cfg = write_config(tmp_path)
        full = tmp_path / "full.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(full)]) == 0
        # drop two rows, then resume: only the missing cells rerun, bytes match
        partial = tmp_path / "part.csv"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:1] + lines[3:]) + "\n")
        (tmp_path / "part.csv.manifest.json").write_bytes(
            (tmp_path / "full.csv.manifest.json").read_bytes()
        )
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(partial), "--resume"]) == 0
        assert partial.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("manifest", [None, "{not json", "[]"])
    def test_resume_without_readable_manifest_exits_one(self, tmp_path, capsys, manifest):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
        before = out.read_bytes()
        manifest_path = tmp_path / "r.csv.manifest.json"
        if manifest is None:
            manifest_path.unlink()
        else:
            manifest_path.write_text(manifest)
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out), "--resume"])
        assert code == 1
        assert str(manifest_path) in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_manifest_records_failure_reasons(self, tmp_path, monkeypatch):
        import mmqlab.pipeline as pl

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic quantize failure")

        monkeypatch.setattr(pl, "uniform_quantize", boom)
        cfg = write_config(tmp_path)
        out = tmp_path / "f.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 2
        failures = json.loads((tmp_path / "f.csv.manifest.json").read_text())["failures"]
        failed_rows = [line.split(",")[0] for line in out.read_text().splitlines()[1:] if ",nan," in line]
        assert list(failures) == sorted(failed_rows) and len(failures) == 4
        assert set(failures.values()) == {"synthetic quantize failure"}

    def test_eval_pairs_above_probe_count_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"]["eval_pairs"] = 9
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "grid.eval_pairs is 9" in err and "only 8 probe pairs" in err
        assert not out.exists()

    def test_retrieval_with_one_eval_pair_exits_one_before_calibration(self, tmp_path, monkeypatch, capsys):
        import mmqlab.experiments as experiments

        calibrated = []
        monkeypatch.setattr(experiments, "collect_calibration", lambda *args, **kwargs: calibrated.append(args))
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"]["eval_pairs"] = 1
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        code = main(["grid", "--config", str(cfg), "--method", "gptq", "--out", str(out)])
        assert code == 1
        assert "grid.eval_pairs" in capsys.readouterr().err
        assert not calibrated and not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("bits", [4, 4], id="bits"),
            pytest.param("seeds", [7, 7], id="seeds"),
            pytest.param("component_subsets", [["vision"], ["vision"]], id="component_subsets"),
            pytest.param("group_subsets", [["front", "end"], ["end", "front"]], id="group_subsets"),
            pytest.param("layer_type_subsets", [["attn"], ["ff"], ["attn"]], id="layer_type_subsets"),
        ],
    )
    def test_repeated_grid_value_exits_one(self, tmp_path, capsys, field, value):
        # a repeated value would write one run_id twice
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"][field] = value
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "dup.csv"
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)])
        assert code == 1
        assert f"grid.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_rejects_changed_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
        raw = json.loads(cfg.read_text())
        raw["grid"]["bits"] = [2]
        cfg.write_text(json.dumps(raw))
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out), "--resume"])
        assert code == 1
        assert "config hash changed" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_injected_language_cliff(self, tmp_path, capsys):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 1.0 if l >= 4 else 0.0)
        out = tmp_path / "report.json"
        code = main(["analyze", str(csv), "--task", "vqa", "--out", str(out), "--boot", "20"])
        assert code == 0
        report = json.loads(out.read_text())
        gptq = report["methods"]["gptq"]
        consensus = gptq["reports"][3]
        assert consensus["method"] == "consensus"
        by_name = {f["name"]: f["pct"] for f in consensus["features"]}
        assert by_name["language"] >= 90.0
        assert gptq["linear_r2"] < 0.5
        total = sum(f["pct"] for f in consensus["features"])
        assert total == pytest.approx(100.0, abs=0.01)
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].startswith("model,method,task")

    def test_report_schema(self, tmp_path):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 0.05 * v + 0.01 * l)
        out = tmp_path / "report.json"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(out), "--boot", "5"]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"task", "methods"}
        method_block = report["methods"]["gptq"]
        assert set(method_block) == {"linear_r2", "rows", "reports"}
        assert [r["method"] for r in method_block["reports"]] == [
            "impurity", "permutation", "shapley", "consensus",
        ]

    def test_too_few_rows_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "few.csv"
        rows = [
            RunRecord(
                run_id=f"r{i}", method=Method.GPTQ, task=TaskKind.VQA,
                vision_bits=4, connector_bits=4, language_bits=4,
                groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
                group_size=128, bpw=4.25, score=0.5, seed=7, wall_ms=0,
            )
            for i in range(3)
        ]
        save_results(ResultsTable(rows=rows), csv)
        code = main(["analyze", str(csv), "--task", "vqa", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "at least 10 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("boot", ["0", "-3"])
    def test_boot_below_one_exits_one(self, tmp_path, capsys, boot):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 0.05 * v)
        out = tmp_path / "r.json"
        code = main(["analyze", str(csv), "--task", "vqa", "--out", str(out), "--boot", boot])
        assert code == 1
        assert f"--boot must be >= 1, got {boot}" in capsys.readouterr().err
        assert not out.exists()

    def test_boot_one_runs(self, tmp_path):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 0.05 * v)
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(tmp_path / "r.json"), "--boot", "1"]) == 0

    def test_report_digest_pinned(self, tmp_path):
        csv = tmp_path / "golden.csv"
        synthetic_results(csv, lambda v, c, l: 0.9 - 0.3 / v - 0.1 / c - 0.4 / l + (0.05 if v >= 4 and l >= 4 else 0.0))
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "09ebb95123d9f78d05efe956c23a9ddfdad77909e5fae48c61a36a59ba76f54d"
        )
        out = tmp_path / "report.json"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(out), "--boot", "3"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3c6438ec8c07597d33d799d5170ae2c14ee204fbdf79e4d7423ef60d43ee187c"
        )

    def test_rerun_byte_identical(self, tmp_path):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 1.0 if l >= 4 else 0.1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(a), "--boot", "10"]) == 0
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(b), "--boot", "10"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUnreadableResults:
    @pytest.mark.parametrize("command", ["analyze", "plot"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_exits_one_naming_path(self, tmp_path, capsys, command, kind):
        path = {"missing": tmp_path / "nope.csv", "directory": tmp_path, "not-utf8": tmp_path / "bin.csv"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b"run_id,\xff\xfe\n")
        out = tmp_path / "out"
        code = main([command, str(path), "--task", "vqa", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read results {path}: ")
        assert not out.exists()


class TestPlotCommand:
    def _rows(self, specs):
        rows = []
        for i, (bpw, score, bits) in enumerate(specs):
            rows.append(
                RunRecord(
                    run_id=f"row{i}", method=Method.UNIFORM, task=TaskKind.RETRIEVAL,
                    vision_bits=bits, connector_bits=bits, language_bits=bits,
                    groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
                    group_size=0, bpw=bpw, score=score, seed=7, wall_ms=0,
                )
            )
        return rows

    def test_three_rows_three_points(self, tmp_path):
        csv = tmp_path / "three.csv"
        save_results(ResultsTable(rows=self._rows([(2.0, 0.2, 2), (4.0, 0.6, 4), (6.0, 0.9, 6)])), csv)
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3
        assert svg.count("<polygon") == 0  # no full-pipeline 8/16 rows

    def test_stars_present_iff_full_pipeline_cells(self, tmp_path):
        csv = tmp_path / "stars.csv"
        save_results(
            ResultsTable(rows=self._rows([(8.0, 0.95, 8), (16.0, 1.0, 16), (4.0, 0.5, 4)])), csv
        )
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(out)]) == 0
        assert out.read_text().count("<polygon") == 2

    def test_deterministic_bytes(self, tmp_path):
        csv = tmp_path / "d.csv"
        save_results(ResultsTable(rows=self._rows([(2.0, 0.3, 2), (8.0, 0.9, 8)])), csv)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(a)]) == 0
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_task_slice_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "e.csv"
        save_results(ResultsTable(rows=self._rows([(2.0, 0.3, 2)])), csv)
        code = main(["plot", str(csv), "--task", "caption", "--out", str(tmp_path / "p.svg")])
        assert code == 1

    def test_render_is_wellformed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        table = ResultsTable(rows=self._rows([(2.0, 0.3, 2), (8.0, 0.9, 8), (16.0, 1.0, 16)]))
        ET.fromstring(render_plot_svg(table, TaskKind.RETRIEVAL))


class TestQuantizeCommand:
    def test_prints_ledger_and_bpw(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(
            [
                "quantize", "--config", str(cfg), "--method", "rtn", "--bits", "4",
                "--components", "language", "--groups", "front", "--layer-types", "attn",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "language.block0.attn.q_proj" in out
        assert "bpw:" in out
        assert out.count("method=rtn") == 4  # one front block x 4 attention projections

    @pytest.mark.parametrize("flag", ["--components", "--groups", "--layer-types"])
    def test_bad_axis_token_names_flag(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        code = main(["quantize", "--config", str(cfg), "--method", "rtn", "--bits", "4", flag, "bogus"])
        assert code == 1
        assert f"config error at {flag}: 'bogus' not one of" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--bits", "17"), ("--bits", "1"), ("--group-size", "0")])
    def test_bad_bits_or_group_size_exits_before_calibration(self, tmp_path, monkeypatch, capsys, flag, value):
        import mmqlab.cli as cli

        calibrated = []
        monkeypatch.setattr(cli, "collect_calibration", lambda *args, **kwargs: calibrated.append(args))
        cfg = write_config(tmp_path)
        code = main(["quantize", "--config", str(cfg), "--method", "gptq", "--bits", "4", flag, value])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not calibrated

    def test_gptq_needs_probes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["probes"]
        cfg.write_text(json.dumps(raw))
        code = main(["quantize", "--config", str(cfg), "--method", "gptq", "--bits", "4"])
        assert code == 1
        assert "calibration probes required" in capsys.readouterr().err


class TestGridBitsDefaults:
    def _bits_seen(self, tmp_path, method, bits=None):
        cfg = write_config(tmp_path, pipeline={
            **TINY_PIPELINE, "connector_blocks": 0, "connector_kind": "linear_projector",
        })
        raw = json.loads(cfg.read_text())
        if bits is None:
            del raw["grid"]["bits"]
        else:
            raw["grid"]["bits"] = bits
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"{method}.csv"
        assert main(["grid", "--config", str(cfg), "--method", method, "--out", str(out)]) == 0
        rows = load_results(out).rows
        return {b for r in rows for b in (r.vision_bits, r.connector_bits, r.language_bits)}

    def test_omitted_bits_use_sota_set_for_calibrated_methods(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"tasks": ["vqa"]}}))
        assert load_config(str(path)).grid.bits is None
        assert self._bits_seen(tmp_path, "uniform") == {2, 4, 6, 8, 16}  # Algorithm-1 default
        assert self._bits_seen(tmp_path, "gptq") == {2, 3, 4, 5, 6, 8, 16}

    def test_explicit_bits_respected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"bits": [3, 5]}}))
        assert load_config(str(path)).grid.bits == (3, 5)
        assert self._bits_seen(tmp_path, "gptq", bits=[3, 5]) == {3, 5, 16}
