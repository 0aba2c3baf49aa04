import builtins
import errno
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmqlab
from helpers import oracle_quantize_ledger, planned_run_ids, traced_peak
from mmqlab.cli import (
    ELEMENT_LIMIT, ConfigError, ProbeConfig, _build_probes, _section, load_config, main, quantize_ledger, render_plot_svg,
)
from mmqlab.experiments import CSV_HEADER, GridSpec, RunRecord, compute_bpw, load_results, save_results
from mmqlab.importance import ForestModel
from mmqlab.pipeline import (
    CAPTION_HORIZON, VQA_HORIZON, BlockGroup, ComponentId, ConnectorKind, LayerType, LedgerEntry, PipelineSpec,
    Selector, TaskKind, build_model, element_count,
)
from mmqlab.quantizers import LayerStats, Method, gptq_quantize, rtn_group_quantize

REPO = Path(__file__).resolve().parents[1]
# every config the repository checks in, the benchmark's included
CHECKED_IN_CONFIGS = sorted(
    path.relative_to(REPO).as_posix()
    for pattern in ("configs/*.json", "perfbench/configs/*.json", "perfbench/fixtures/*.config.json")
    for path in REPO.glob(pattern)
)

# every declared key of the three config sections
SECTION_KEYS = [
    (section, f.name)
    for section, cls in (("pipeline", PipelineSpec), ("grid", GridSpec), ("probes", ProbeConfig))
    for f in fields(cls)
]

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


BASE_GRID = {
    "bits": [2, 8],
    "tasks": ["retrieval"],
    "seeds": [3],
    "component_subsets": [["vision"], ["language"]],
    "group_subsets": [["front", "middle", "end"]],
    "layer_type_subsets": [["attn", "ff"]],
    "eval_pairs": 4,
}
# a GPTQ/AWQ grid quantizes whole components, so its base lists no component subsets
SOTA_GRID = {key: value for key, value in BASE_GRID.items() if key != "component_subsets"}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"pipeline": TINY_PIPELINE, "grid": BASE_GRID, "probes": {"seed": 3, "n_pairs": 8}}
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
    save_results(rows, path)


class TestConfig:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_syntax_error_counts_lines_as_text_mode_does(self, tmp_path, newline):
        """The config is read as bytes but decoded as a text-mode open decodes
        it, universal newlines included, so a JSON error names the same line."""
        path = tmp_path / "bad.json"
        path.write_bytes(newline.join([b"{", b'  "grid": {', b'    "bits": [2,,]', b"  }", b"}"]))
        with open(path, "r", encoding="utf-8") as fh:
            with pytest.raises(json.JSONDecodeError) as expected:
                json.load(fh)
        assert "line 3 column" in str(expected.value)
        with pytest.raises(ConfigError) as got:
            load_config(str(path))
        assert str(got.value) == f"config {path} is not valid JSON: {expected.value}"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_results_lines_count_as_text_mode_does(self, tmp_path, newline):
        """A results CSV is decoded as a text-mode open decodes it: other line
        endings give the same rows, and an error the same physical line."""
        saved = tmp_path / "saved.csv"
        synthetic_results(saved, lambda v, c, l: (v + c + l) / 48)
        lines = saved.read_bytes().split(b"\n")
        path = tmp_path / "other.csv"
        path.write_bytes(newline.join(lines))
        assert load_results(path) == load_results(saved)
        path.write_bytes(newline.join(lines[:3] + [b""] + [b"garbage"] + lines[3:]))  # a blank line counts
        with open(path, "r", encoding="utf-8") as fh:
            line_no = next(i for i, line in enumerate(fh, start=1) if line.startswith("garbage"))
        assert line_no == 5
        with pytest.raises(ValueError, match=rf"^line {line_no}: expected {CSV_HEADER.count(',') + 1} fields, got 1$"):
            load_results(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_manifest_syntax_error_counts_lines_as_text_mode_does(self, tmp_path, capsys, newline):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        out.write_text(CSV_HEADER + "\n")
        manifest = tmp_path / "r.csv.manifest.json"
        manifest.write_bytes(newline.join([b"{", b'  "method": "uniform",', b'  "rows": ,', b"}"]))
        with open(manifest, "r", encoding="utf-8") as fh:
            with pytest.raises(json.JSONDecodeError) as expected:
                json.load(fh)
        assert "line 3 column" in str(expected.value)
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out), "--resume"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot resume {out}: cannot read manifest {manifest}: {expected.value}\n"
        )

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

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("pipeline", {"d_model": 0}, "pipeline.d_model: must be >= 1, got 0"),
            ("pipeline", {"heads": 0}, "pipeline.heads: must be >= 1, got 0"),
            ("pipeline", {"heads": 3}, "pipeline.heads: must divide d_model (32), got 3"),
            ("pipeline", {"ffn_mult": 0}, "pipeline.ffn_mult: must be >= 1, got 0"),
            ("pipeline", {"patch_count": 0}, "pipeline.patch_count: must be >= 1, got 0"),
            ("pipeline", {"vocab": 1}, "pipeline.vocab: must be >= 2, got 1"),
            ("pipeline", {"vision_blocks": 4}, "pipeline.vision_blocks: must be a positive multiple of 3, got 4"),
            ("pipeline", {"language_blocks": 0}, "pipeline.language_blocks: must be a positive multiple of 3, got 0"),
            ("pipeline", {"connector_blocks": 2}, "pipeline.connector_blocks: must be a positive multiple of 3, got 2"),
            (
                "pipeline", {"connector_kind": "linear_projector", "connector_blocks": 3},
                "pipeline.connector_blocks: must be 0 for a linear projector, got 3",
            ),
            ("grid", {"bits": [1]}, "grid.bits: must be in [2, 16], got 1"),
            ("grid", {"group_size": 0}, "grid.group_size: must be >= 1, got 0"),
            ("grid", {"eval_pairs": 0}, "grid.eval_pairs: must be >= 1, got 0"),
        ],
        ids=[
            "d_model", "heads", "heads-divide", "ffn_mult", "patch_count", "vocab", "vision_blocks",
            "language_blocks", "connector_blocks", "connector_blocks-linear", "bits", "group_size", "eval_pairs",
        ],
    )
    def test_range_error_names_key(self, tmp_path, capsys, section, values, message):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw[section] = {**raw[section], **values}
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"error: config error at {message}"
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -3])
    def test_bad_workers_config_names_key(self, tmp_path, value):
        path = write_config(tmp_path, workers=value)
        with pytest.raises(ConfigError, match="workers"):
            load_config(str(path))

    @pytest.mark.parametrize("key, value, low", [("n_pairs", 0, 1), ("text_len", -1, 0), ("question_len", -2, 0)])
    def test_bad_probe_value_names_key(self, tmp_path, capsys, key, value, low):
        cfg = write_config(tmp_path, probes={"seed": 3, "n_pairs": 8, key: value})
        out = tmp_path / "x.csv"
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)])
        assert code == 1
        assert f"config error at probes.{key}: must be >= {low}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", SECTION_KEYS, ids=[f"{s}.{k}" for s, k in SECTION_KEYS])
    def test_wrong_json_type_names_key(self, tmp_path, capsys, section, key):
        # a JSON real is neither an int, an enum's value string nor a list
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw[section] = {**raw[section], key: 1.5}
        cfg.write_text(json.dumps(raw))
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error at {section}.{key}: expected " in err and err.rstrip().endswith(", got float")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("component_subsets", [["vision", 1]], "grid.component_subsets[0][1]: expected str, got int"),
            ("group_subsets", [["front"], "end"], "grid.group_subsets[1]: expected list, got str"),
            ("layer_type_subsets", [["attn", "mlp"]], "grid.layer_type_subsets[0][1]: 'mlp' not one of [attn, ff]"),
            ("seeds", [3, True], "grid.seeds[1]: expected int, got bool"),
            ("tasks", ["vqa", None], "grid.tasks[1]: expected str, got NoneType"),
        ],
        ids=["component_subsets", "group_subsets", "layer_type_subsets", "seeds", "tasks"],
    )
    def test_wrong_nested_value_names_path(self, tmp_path, capsys, field, value, message):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"][field] = value
        cfg.write_text(json.dumps(raw))
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(tmp_path / "x.csv")]) == 1
        assert f"config error at {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, key",
        [
            ("pipeline", {"d_model": 1000000}, "pipeline.d_model"),
            ("pipeline", {"d_model": 4096}, "pipeline.d_model"),  # weights of about 12 GiB
            ("pipeline", {"ffn_mult": 1000}, "pipeline.ffn_mult"),
            ("pipeline", {"vocab": 1 << 30}, "pipeline.vocab"),
            ("pipeline", {"language_blocks": 300000}, "pipeline.language_blocks"),
            ("pipeline", {"patch_count": 5000}, "pipeline.patch_count"),  # attention scores of 25M per pair
            ("probes", {"n_pairs": 10**6}, "probes.n_pairs"),
        ],
        ids=["d_model-huge", "d_model-mid", "ffn_mult", "vocab", "language_blocks", "patch_count", "n_pairs"],
    )
    def test_oversized_config_exits_before_allocating(self, tmp_path, capsys, section, values, key):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw[section] = {**raw[section], **values}
        cfg.write_text(json.dumps(raw))
        # load_config is the first step of every command, before any model or probe is built
        with pytest.raises(ConfigError, match=rf"^config error at {key}: the weights, or one array a run makes"):
            load_config(str(cfg))
        out = tmp_path / "x.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config error at {key}: ")
        assert not out.exists()

    def test_size_limit_leaves_checked_in_sizes(self):
        # the default pipeline over its 128 probe pairs sits well under the limit
        assert element_count(PipelineSpec(), 128) * 16 < ELEMENT_LIMIT

    @pytest.mark.parametrize("name", CHECKED_IN_CONFIGS)
    def test_checked_in_config_loads(self, name):
        config = load_config(str(REPO / name))
        assert config.probes is not None and len(config.grid.tasks) >= 1

    def test_checked_in_configs_found(self):
        assert len(CHECKED_IN_CONFIGS) >= 6

    def test_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = load_config(str(path))
        assert config.pipeline.d_model == 64
        assert config.probes is None


def _fuzz_base() -> dict:
    """configs/quick.json on the tiny pipeline, with one bit width, two
    component subsets, 8 probe pairs and its probe lengths written out: a
    grid of a fraction of a second that sets every key of every section."""
    raw = json.loads((REPO / "configs" / "quick.json").read_text())
    raw["pipeline"].update(TINY_PIPELINE)
    raw["grid"].update(bits=[4], eval_pairs=4, component_subsets=[["vision", "connector", "language"], ["language"]])
    raw["probes"].update(n_pairs=8, text_len=8, question_len=4)
    return raw


FUZZ_BASE = _fuzz_base()
# (section, key) or (root key,) of every field the base config sets
FUZZ_FIELDS = [
    (section, key) if isinstance(value, dict) else (section,)
    for section, value in FUZZ_BASE.items()
    for key in (value if isinstance(value, dict) else [None])
]
# every name a config error may give: "section.key", or a root key
KEY_NAMES = [f"{s}.{k}" for s, k in SECTION_KEYS] + [f[0] for f in FUZZ_FIELDS if len(f) == 1]


def _mutations(value):
    """One field's value changed in type, sign or size, or, for a list, emptied,
    given a repeated item or one item changed the same way."""
    wrong_type = st.sampled_from(["4", 1.5, None, True, [], {}])
    if isinstance(value, list):
        return st.one_of(
            wrong_type, st.just([]), st.just(value + value[:1]),
            _mutations(value[0]).map(lambda item: [item] + value[1:]),
        )
    if isinstance(value, str):
        return st.one_of(wrong_type, st.sampled_from([4, "", "linear_projector"]), st.text(max_size=8))
    return st.one_of(
        wrong_type,
        st.integers(-(1 << 40), 0),  # sign
        st.sampled_from([value * 10**6, 1 << 40]),  # size, the pipeline.d_model: 1000000 case among them
        st.integers(1, 2 * value),  # a nearby value, mostly in range
    )


@st.composite
def _mutated_config(draw):
    field = draw(st.sampled_from(FUZZ_FIELDS))
    raw = json.loads(json.dumps(FUZZ_BASE))
    parent = raw if len(field) == 1 else raw[field[0]]
    parent[field[-1]] = draw(_mutations(parent[field[-1]]))
    return raw


def _planned_rows(raw: dict, method: str) -> int:
    """Rows the grid of ``raw``'s pipeline and grid sections plans."""
    spec, grid = _section(PipelineSpec, raw, "pipeline"), _section(GridSpec, raw, "grid")
    return len(planned_run_ids(spec, grid, Method(method)))


def _for_method(raw: dict, method: str) -> dict:
    """``raw`` as a ``method`` grid runs it: a GPTQ grid, which quantizes whole
    components, without the base's component subsets unless they were mutated."""
    if method == "gptq" and raw["grid"].get("component_subsets") == FUZZ_BASE["grid"]["component_subsets"]:
        raw = {**raw, "grid": {k: v for k, v in raw["grid"].items() if k != "component_subsets"}}
    return raw


class TestConfigFuzz:
    """A checked-in config with one field mutated runs its planned grid, or
    exits 1 with one line naming a config key: never a traceback, a partial
    failure or a message from deep in the model."""

    def test_base_sets_every_key(self):
        assert {field for field in FUZZ_FIELDS if len(field) == 2} == set(SECTION_KEYS)

    @pytest.mark.parametrize("method", ["uniform", "gptq"])
    def test_unmutated_base_runs(self, tmp_path, capsys, method):
        cfg, out = tmp_path / "base.json", tmp_path / "base.csv"
        cfg.write_text(json.dumps(_for_method(FUZZ_BASE, method)))
        assert main(["grid", "--config", str(cfg), "--method", method, "--out", str(out)]) == 0, capsys.readouterr().err
        assert len(load_results(out)) == _planned_rows(FUZZ_BASE, method)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_mutated_config(), method=st.sampled_from(["uniform", "gptq"]))
    def test_one_field_mutated(self, tmp_path, capsys, raw, method):
        cfg, out = tmp_path / "fuzz.json", tmp_path / "fuzz.csv"
        cfg.write_text(json.dumps(_for_method(raw, method)))
        out.unlink(missing_ok=True)
        code = main(["grid", "--config", str(cfg), "--method", method, "--out", str(out)])
        captured = capsys.readouterr()
        if code == 0:
            assert len(load_results(out)) == _planned_rows(raw, method), captured.out
            return
        assert code == 1, captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config error at "), captured.err
        place = lines[0].removeprefix("error: config error at ")
        assert re.match(r"[\w.]+", place).group() in KEY_NAMES, lines[0]
        assert not out.exists()


class TestProbeLengthBounds:
    """Probe lengths the decoder cannot hold exit 1 naming the key, before any
    model is built; MAX_SEQ is 64 and the connector's prefix P is 8 queries,
    or patch_count tokens for a linear projector."""

    @staticmethod
    def _run(tmp_path, monkeypatch, argv, tasks, probes, pipeline=None):
        import mmqlab.cli as cli
        import mmqlab.experiments as experiments

        built = []
        for module in (cli, experiments):
            real = module.build_model
            monkeypatch.setattr(module, "build_model", lambda spec, real=real: built.append(spec) or real(spec))
        cfg = write_config(
            tmp_path, pipeline=pipeline or TINY_PIPELINE, probes={"seed": 3, "n_pairs": 8, **probes},
            grid=BASE_GRID if "uniform" in argv else SOTA_GRID,
        )
        raw = json.loads(cfg.read_text())
        raw["grid"].update(tasks=tasks, bits=[8])
        cfg.write_text(json.dumps(raw))
        return main([*argv, "--config", str(cfg)]), built

    @pytest.mark.parametrize(
        "pipeline, bound",
        [
            pytest.param(TINY_PIPELINE, 64 - 8 - 4, id="queries"),
            pytest.param(
                {**TINY_PIPELINE, "connector_blocks": 0, "connector_kind": "linear_projector", "patch_count": 12},
                64 - 12 - 4, id="linear-projector",
            ),
        ],
    )
    @pytest.mark.parametrize("over", [0, 1])
    def test_vqa_question_len(self, tmp_path, monkeypatch, capsys, pipeline, bound, over):
        out = tmp_path / "vqa.csv"
        code, built = self._run(
            tmp_path, monkeypatch, ["grid", "--method", "uniform", "--out", str(out)],
            ["vqa"], {"question_len": bound + over}, pipeline,
        )
        if over:
            assert code == 1 and not built and not out.exists()
            assert f"config error at probes.question_len: must be <= {bound}, got {bound + 1}" in capsys.readouterr().err
        else:
            assert code == 0 and len(load_results(out)) == 3

    @pytest.mark.parametrize(
        "tasks, probes, bound",
        [
            pytest.param(["caption"], {}, 64 - CAPTION_HORIZON, id="caption"),
            pytest.param(["vqa"], {"question_len": 0}, 64 - VQA_HORIZON, id="vqa"),
        ],
    )
    @pytest.mark.parametrize("over", [0, 1])
    def test_linear_projector_patch_count(self, tmp_path, monkeypatch, capsys, tasks, probes, bound, over):
        # the projector's prefix is patch_count tokens; past the bound no probe length fits
        pipeline = {
            **TINY_PIPELINE, "connector_blocks": 0, "connector_kind": "linear_projector", "patch_count": bound + over,
        }
        out = tmp_path / "projector.csv"
        code, built = self._run(
            tmp_path, monkeypatch, ["grid", "--method", "uniform", "--out", str(out)], tasks, probes, pipeline,
        )
        if over:
            assert code == 1 and not built and not out.exists()
            assert (
                f"config error at pipeline.patch_count: must be <= {bound} for {tasks[0]} with a linear projector, "
                f"got {bound + 1}"
            ) in capsys.readouterr().err
        else:
            assert code == 0 and len(load_results(out)) == 3

    @pytest.mark.parametrize(
        "argv, tasks, bound",
        [
            pytest.param(["grid", "--method", "uniform"], ["retrieval"], 64 - 1, id="uniform-retrieval"),
            pytest.param(["grid", "--method", "gptq"], ["retrieval"], 64 - 8 - 1, id="gptq-retrieval"),
            pytest.param(["grid", "--method", "awq"], ["caption"], 64 - 8 - 1, id="awq-caption"),
            pytest.param(["quantize", "--method", "gptq", "--bits", "4"], [], 64 - 8 - 1, id="quantize-gptq"),
        ],
    )
    @pytest.mark.parametrize("over", [0, 1])
    def test_text_len(self, tmp_path, monkeypatch, capsys, argv, tasks, bound, over):
        out = tmp_path / "text.csv"
        if argv[0] == "grid":
            argv = [*argv, "--out", str(out)]
        code, built = self._run(tmp_path, monkeypatch, argv, tasks or ["retrieval"], {"text_len": bound + over})
        if over:
            assert code == 1 and not built and not out.exists()
            assert f"config error at probes.text_len: must be <= {bound}, got {bound + 1}" in capsys.readouterr().err
        else:
            assert code == 0


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

    def test_config_opened_once_and_hashed_as_parsed(self, tmp_path, monkeypatch):
        """The grid opens --config once, through the reader in ``experiments``, so
        the manifest's config_sha256 names the bytes it parsed, even when the file
        is replaced right after."""
        import mmqlab.experiments as experiments

        cfg = write_config(tmp_path)
        parsed = cfg.read_bytes()
        opened = []

        def replacing_open(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            if Path(path) == cfg:
                opened.append(path)
                (tmp_path / "next.json").write_bytes(parsed + b"\n")  # the same config, other bytes
                os.replace(tmp_path / "next.json", cfg)  # the open handle keeps the old file
            return fh

        monkeypatch.setattr(experiments, "open", replacing_open, raising=False)
        out = tmp_path / "res.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
        assert len(opened) == 1
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(a)]) == 0
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gptq_without_probes_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid=SOTA_GRID)
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

        monkeypatch.setattr(pl, "rtn_group_quantize", boom)
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

        monkeypatch.setattr(pl, "rtn_group_quantize", boom)
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
        assert err == "error: config error at grid.eval_pairs: must be <= the 8 probe pairs, got 9\n"
        assert not out.exists()

    def test_uncalibrated_grid_draws_only_its_eval_pairs(self, tmp_path):
        config = load_config(write_config(tmp_path, grid=SOTA_GRID))
        uniform = _build_probes(config, Method.UNIFORM, config.grid.tasks)
        calibrating = _build_probes(config, Method.GPTQ, config.grid.tasks)
        assert (len(uniform), len(calibrating)) == (4, 8)
        for name in ("images", "texts", "questions"):
            assert getattr(uniform, name).tobytes() == getattr(calibrating, name)[:4].tobytes(), name

    def test_retrieval_with_one_eval_pair_exits_one_before_calibration(self, tmp_path, monkeypatch, capsys):
        import mmqlab.experiments as experiments

        calibrated = []
        monkeypatch.setattr(experiments, "calibration_stages", lambda *args, **kwargs: calibrated.append(args))
        cfg = write_config(tmp_path, grid=SOTA_GRID)
        raw = json.loads(cfg.read_text())
        raw["grid"]["eval_pairs"] = 1
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        code = main(["grid", "--config", str(cfg), "--method", "gptq", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: config error at grid.eval_pairs: must be >= 2 when grid.tasks includes retrieval, got 1\n"
        assert not calibrated and not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("bits", [4, 4], id="bits"),
            pytest.param("tasks", ["retrieval", "retrieval"], id="tasks"),
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
        err = capsys.readouterr().err
        # the config's own text, as in grid.tasks: ["retrieval", "retrieval"], not enum reprs
        assert f"config error at grid.{field}: must not repeat a value, got {json.dumps(value)}\n" in err
        assert "<" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("bits", [], id="bits"),
            pytest.param("tasks", [], id="tasks"),
            pytest.param("seeds", [], id="seeds"),
            pytest.param("component_subsets", [], id="component_subsets"),
            pytest.param("group_subsets", [], id="group_subsets"),
            pytest.param("layer_type_subsets", [], id="layer_type_subsets"),
            pytest.param("component_subsets", [[]], id="component_subsets-inner"),
            pytest.param("group_subsets", [["front"], []], id="group_subsets-inner"),
            pytest.param("layer_type_subsets", [[]], id="layer_type_subsets-inner"),
        ],
    )
    def test_empty_grid_list_exits_one(self, tmp_path, capsys, field, value):
        # an empty list would write the baseline or no row at all, and an empty
        # subset list would mean every subset
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"][field] = value
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "empty.csv"
        code = main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)])
        assert code == 1
        reason = "be empty" if value == [] else "hold an empty subset"
        assert f"config error at grid.{field}: must not {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, field, value",
        [
            pytest.param("gptq", "component_subsets", [["language"]], id="component_subsets"),
            pytest.param("awq", "group_subsets", [["end"]], id="group_subsets"),
            pytest.param("gptq", "layer_type_subsets", [["attn"], ["ff", "attn"]], id="layer_type_subsets"),
        ],
    )
    def test_partial_subsets_on_calibrated_grid_exit_one(self, tmp_path, monkeypatch, capsys, method, field, value):
        # the GPTQ/AWQ cross product quantizes whole components and never reads the subset lists
        import mmqlab.experiments as experiments

        calibrated = []
        monkeypatch.setattr(experiments, "calibration_stages", lambda *args, **kwargs: calibrated.append(args))
        cfg = write_config(tmp_path, grid={**SOTA_GRID, field: value})
        out = tmp_path / "partial.csv"
        code = main(["grid", "--config", str(cfg), "--method", method, "--out", str(out)])
        assert code == 1
        assert f"config error at grid.{field}: must be unset or [[" in capsys.readouterr().err
        assert not calibrated and not out.exists()

    def test_one_subset_of_every_member_on_calibrated_grid_runs_as_unset(self, tmp_path):
        every = {
            "component_subsets": [["language", "vision", "connector"]], "group_subsets": [["end", "front", "middle"]],
        }
        outputs = []
        for name, grid in (("unset", SOTA_GRID), ("every", {**SOTA_GRID, **every})):
            cfg, out = write_config(tmp_path, f"{name}.json", grid=grid), tmp_path / f"{name}.csv"
            assert main(["grid", "--config", str(cfg), "--method", "gptq", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_quick_grid_digest_pinned(self, tmp_path):
        out = tmp_path / "quick.csv"
        assert main(["grid", "--config", str(REPO / "configs/quick.json"), "--method", "uniform", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "847aa00a7897df31a0d41627046b6ddc36dd7ff025bcf3d8f2e8196cf6c66e02"
        )

    def test_all_subsets_uniform_retrieval_digest_pinned(self, tmp_path):
        # every (components, groups, layer types) subset at 4 bits: the one pinned
        # grid whose cells share leading blocks, so stage outputs reuse block runs
        cfg = tmp_path / "all-subsets.json"
        cfg.write_text(json.dumps({
            "pipeline": {"seed": 7},
            "grid": {"bits": [4], "tasks": ["retrieval"], "seeds": [7], "eval_pairs": 8},
            "probes": {"seed": 11, "n_pairs": 128},
        }))
        out = tmp_path / "all-subsets.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "34fe5ef3e74ad264f33abb91754641775924bb8ef963d749f3fe784958c2870a"
        )

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

    def test_resume_rejects_changed_method(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
        before = out.read_bytes()
        code = main(["grid", "--config", str(cfg), "--method", "gptq", "--out", str(out), "--resume"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'uniform'" in err and "'gptq'" in err and str(tmp_path / "r.csv.manifest.json") in err
        assert out.read_bytes() == before


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
        save_results(rows, csv)
        code = main(["analyze", str(csv), "--task", "vqa", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "at least 10 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("awq_rows, message", [
        ([(4, 4, 2 + i % 3, 0.5) for i in range(3)], "need at least 10 rows with a finite score to fit a forest"),
        ([(16, 16, 16, 0.05 * i) for i in range(12)], "every component is unquantized"),
        ([(4, 4, 2 + i % 3, float("nan")) for i in range(12)], "no usable rows"),
    ], ids=["three-rows", "unquantized", "no-finite-score"])
    def test_unfittable_method_names_method_and_task(self, tmp_path, capsys, awq_rows, message):
        """20 fittable GPTQ rows beside AWQ rows a forest cannot be fit to."""
        gptq_rows = [(2 + i % 5, 4, 2 + i // 5, 0.03 * i) for i in range(20)]
        rows = [
            RunRecord(
                run_id=f"{method.value}{i:02d}", method=method, task=TaskKind.VQA,
                vision_bits=v, connector_bits=c, language_bits=l,
                groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
                group_size=128, bpw=(v + c + l) / 3, score=score, seed=7, wall_ms=0,
            )
            for method, specs in ((Method.GPTQ, gptq_rows), (Method.AWQ, awq_rows))
            for i, (v, c, l, score) in enumerate(specs)
        ]
        csv, out = tmp_path / "mixed.csv", tmp_path / "r.json"
        save_results(rows, csv)
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "task 'vqa'" in err and "method 'awq'" in err, err
        assert not out.exists()

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

    def test_fixture_reports_pinned(self, tmp_path):
        """The forest's output on real grid rows: only the reports are hashed,
        since linear_r2 moves with the BLAS kernel."""
        out = tmp_path / "report.json"
        csv = REPO / "perfbench" / "fixtures" / "gptq_vqa_343.csv"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(out), "--boot", "2"]) == 0
        reports = json.loads(out.read_text())["methods"]["gptq"]["reports"]
        assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
            "f21d67d4872894cf5c5670e1cd746f645681e1d2a90ed3793e305ef871dc8722"
        )

    def test_fixture_default_bootstrap_reports_pinned(self, tmp_path):
        """The paper's attribution at analyze's default --boot 100 on the same
        rows; the digest was recorded before the level loop and the seed
        draws were vectorized."""
        out = tmp_path / "report.json"
        csv = REPO / "perfbench" / "fixtures" / "gptq_vqa_343.csv"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["methods"]["gptq"]["reports"]
        assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
            "d361645c797333f97af40a7714f63e91fa11fc6c01dadade1939e8a21a6c5612"
        )

    def test_predicts_once_per_method(self, tmp_path, monkeypatch):
        """Each method's forest is tabulated on the lattice once; permutation
        and Shapley both read that table."""
        gptq, awq, csv = tmp_path / "gptq.csv", tmp_path / "awq.csv", tmp_path / "both.csv"
        synthetic_results(gptq, lambda v, c, l: 0.05 * v + 0.01 * l)
        synthetic_results(awq, lambda v, c, l: 0.02 * c, method=Method.AWQ)
        awq_rows = [replace(row, run_id=row.run_id + "a") for row in load_results(awq)]
        save_results(load_results(gptq) + awq_rows, csv)
        predicted = []
        predict = ForestModel.predict

        def counting_predict(forest, x):
            predicted.append(len(x))
            return predict(forest, x)

        monkeypatch.setattr(ForestModel, "predict", counting_predict)
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(tmp_path / "r.json"), "--boot", "1"]) == 0
        assert predicted == [5**3, 5**3]  # one lattice of five bit widths per component, per method

    def test_rerun_byte_identical(self, tmp_path):
        csv = tmp_path / "inj.csv"
        synthetic_results(csv, lambda v, c, l: 1.0 if l >= 4 else 0.1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(a), "--boot", "10"]) == 0
        assert main(["analyze", str(csv), "--task", "vqa", "--out", str(b), "--boot", "10"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestHashSeedIndependence:
    def test_outputs_do_not_depend_on_hash_seed(self, tmp_path):
        """The quick grid's CSV and manifest and the fixture's report, written
        in fresh interpreters under two PYTHONHASHSEED values: a set or dict
        order that reached an output would differ between them."""
        script = (
            "import sys\n"
            "from mmqlab.cli import main\n"
            "repo, out = sys.argv[1:]\n"
            "assert main(['grid', '--config', repo + '/configs/quick.json', '--method', 'uniform',\n"
            "             '--out', out + '/quick.csv']) == 0\n"
            "assert main(['analyze', repo + '/perfbench/fixtures/gptq_vqa_343.csv', '--task', 'vqa',\n"
            "             '--boot', '1', '--out', out + '/report.json']) == 0\n"
        )
        src = str(Path(mmqlab.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "12345"):
            out = tmp_path / seed
            out.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-c", script, str(REPO), str(out)], env=env, check=True, timeout=300)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["quick.csv", "quick.csv.manifest.json", "report.json"]
        assert outputs[0] == outputs[1]


class TestKernelIndependence:
    def test_csv_bytes_do_not_depend_on_blas_kernel(self, tmp_path):
        """The quick uniform grid and a small GPTQ grid, CSVs and manifests,
        written in fresh interpreters under the machine's OpenBLAS kernel and
        under OPENBLAS_CORETYPE=Haswell: array-level values move with the
        kernel, so a byte that read one would differ between them."""
        cfg = json.loads((REPO / "configs" / "quick.json").read_text())
        cfg["grid"] = {"bits": [2], "tasks": ["retrieval", "vqa"], "seeds": [7], "eval_pairs": 16}
        (tmp_path / "gptq.json").write_text(json.dumps(cfg))
        # the kernel is read from numpy's bundled OpenBLAS, as perfbench/child.py's blas_info reads it
        script = (
            "import ctypes, glob, os, sys\n"
            "import numpy as np\n"
            "from mmqlab.cli import main\n"
            "repo, gptq, out = sys.argv[1:]\n"
            "config = ''\n"
            "for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, 'numpy.libs', '*openblas*')):\n"
            "    lib = ctypes.CDLL(path)\n"
            "    if hasattr(lib, 'scipy_openblas_get_config64_'):\n"
            "        lib.scipy_openblas_get_config64_.argtypes = []\n"
            "        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p\n"
            "        config = lib.scipy_openblas_get_config64_().decode()\n"
            "open(out + '/kernel.txt', 'w').write(config)\n"
            "assert main(['grid', '--config', repo + '/configs/quick.json', '--method', 'uniform',\n"
            "             '--out', out + '/quick.csv']) == 0\n"
            "assert main(['grid', '--config', gptq, '--method', 'gptq',\n"
            "             '--out', out + '/gptq.csv']) == 0\n"
        )
        src = str(Path(mmqlab.__file__).resolve().parents[1])
        kernels, outputs = [], []
        for coretype in (None, "Haswell"):
            out = tmp_path / (coretype or "default")
            out.mkdir()
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-c", script, str(REPO), str(tmp_path / "gptq.json"), str(out)],
                env=env, check=True, timeout=300,
            )
            kernels.append((out / "kernel.txt").read_text().split())
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv*"))})
        if "Haswell" not in kernels[1] or kernels[0] == kernels[1]:
            pytest.skip(f"OPENBLAS_CORETYPE=Haswell gave no second kernel: {kernels}")
        assert sorted(outputs[0]) == ["gptq.csv", "gptq.csv.manifest.json", "quick.csv", "quick.csv.manifest.json"]
        assert outputs[0] == outputs[1]


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


class TestUnreadableInputs:
    """Each file a command reads (--config, a results CSV, the resume manifest)
    exits 1 with one line naming it when it is missing, a directory or not UTF-8,
    and nothing is written."""

    @pytest.mark.parametrize("command", ["grid", "quantize", "analyze", "plot", "grid --resume"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_exits_one_with_one_line_naming_the_file(self, tmp_path, capsys, command, kind):
        out = tmp_path / "out.csv"
        what = {"grid": "config", "quantize": "config", "grid --resume": "manifest"}.get(command, "results")
        path = tmp_path / ("out.csv.manifest.json" if what == "manifest" else "input")
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"grid": "\xff"}\n')
        config = str(path if what == "config" else write_config(tmp_path))
        grid = ["grid", "--config", config, "--method", "uniform", "--out", str(out)]
        argv = {
            "grid": grid,
            "quantize": ["quantize", "--config", config, "--method", "uniform", "--bits", "4"],
            "analyze": ["analyze", str(path), "--task", "vqa", "--out", str(out)],
            "plot": ["plot", str(path), "--task", "vqa", "--out", str(out)],
            "grid --resume": grid + ["--resume"],
        }[command]
        if what == "manifest":
            out.write_text(CSV_HEADER + "\n")  # a CSV to resume, so its manifest is read
        before = sorted(p.name for p in tmp_path.iterdir()), out.read_bytes() if out.exists() else None
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: cannot read {what} {re.escape(str(path))}: [^\n]+\n", captured.err)
        assert captured.out == ""
        assert (sorted(p.name for p in tmp_path.iterdir()), out.read_bytes() if out.exists() else None) == before


class TestMissingOutDirectory:
    @pytest.mark.parametrize("command", ["grid", "analyze", "plot"])
    def test_exits_one_naming_out_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        import mmqlab.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        for name in ("load_config", "load_results", "run_grid"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "missing" / "out"
        if command == "grid":
            argv = ["grid", "--config", str(write_config(tmp_path)), "--method", "uniform", "--out", str(out)]
        else:
            argv = [command, str(tmp_path / "results.csv"), "--task", "vqa", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --out {out}: directory {out.parent} does not exist\n"
        assert not out.parent.exists()


class TestFailedWriteKeepsOldOutput:
    """A rerun whose writes fail, here on a full disk, exits 1 and leaves the
    earlier outputs whole, with no temporary file beside them."""

    @pytest.mark.parametrize("command", ["grid", "analyze", "plot"])
    def test_full_disk(self, tmp_path, monkeypatch, capsys, command):
        import mmqlab.cli as cli
        import mmqlab.experiments as experiments

        out = tmp_path / "out"
        if command == "grid":  # a resumed grid rewrites its CSV and manifest
            argv = ["grid", "--config", str(write_config(tmp_path)), "--method", "uniform", "--out", str(out)]
            outputs = [out, tmp_path / "out.manifest.json"]
        else:
            synthetic_results(tmp_path / "results.csv", lambda v, c, l: min(v, c, l) / 16)
            argv = [command, str(tmp_path / "results.csv"), "--task", "vqa", "--out", str(out)]
            argv += ["--boot", "1"] if command == "analyze" else []
            outputs = [out]
        rerun = argv + ["--resume"] if command == "grid" else argv
        assert main(argv) == 0
        before = {path: path.read_bytes() for path in outputs}
        listing = sorted(tmp_path.iterdir())
        capsys.readouterr()

        def full_open(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            if "w" in mode:
                def write(text):
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = write
            return fh

        for module in (cli, experiments):
            monkeypatch.setattr(module, "open", full_open, raising=False)
        assert main(rerun) == 1
        assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"
        assert {path: path.read_bytes() for path in outputs} == before
        assert sorted(tmp_path.iterdir()) == listing
        monkeypatch.undo()
        assert main(rerun) == 0  # a resumed grid still finds every row
        assert {path: path.read_bytes() for path in outputs} == before


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
        save_results(self._rows([(2.0, 0.2, 2), (4.0, 0.6, 4), (6.0, 0.9, 6)]), csv)
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3
        assert svg.count("<polygon") == 0  # no full-pipeline 8/16 rows

    def test_stars_present_iff_full_pipeline_cells(self, tmp_path):
        csv = tmp_path / "stars.csv"
        save_results(self._rows([(8.0, 0.95, 8), (16.0, 1.0, 16), (4.0, 0.5, 4)]), csv)
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(out)]) == 0
        assert out.read_text().count("<polygon") == 2

    def test_deterministic_bytes(self, tmp_path):
        csv = tmp_path / "d.csv"
        save_results(self._rows([(2.0, 0.3, 2), (8.0, 0.9, 8)]), csv)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(a)]) == 0
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_task_slice_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "e.csv"
        save_results(self._rows([(2.0, 0.3, 2)]), csv)
        code = main(["plot", str(csv), "--task", "caption", "--out", str(tmp_path / "p.svg")])
        assert code == 1

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("bpw", -7.0, "bpw must be nan or a positive finite number, got -7"),
            ("bpw", float("inf"), "bpw must be nan or a positive finite number, got inf"),
            ("group_size", -1, "group_size must be >= 0, got -1"),
        ],
        ids=["bpw-negative", "bpw-inf", "group-size-negative"],
    )
    def test_bad_bpw_or_group_size_exits_one(self, tmp_path, capsys, field, value, message):
        rows = self._rows([(2.0, 0.3, 2), (4.0, 0.6, 4), (6.0, 0.9, 6)])
        rows[1] = replace(rows[1], **{field: value})
        csv = tmp_path / "bad.csv"
        save_results(rows, csv)
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--task", "retrieval", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: line 3: {message}\n"
        assert not out.exists()

    def test_render_is_wellformed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        rows = self._rows([(2.0, 0.3, 2), (8.0, 0.9, 8), (16.0, 1.0, 16)])
        ET.fromstring(render_plot_svg(rows, TaskKind.RETRIEVAL))


# sha256 of `quantize --config configs/default.json --method M --bits 4` stdout:
# every layer's ledger line (its scheme and code bits among them) and the bpw
QUANTIZE_STDOUT_SHA256 = {
    "uniform": "61fde099764f49387c460e58751d16a3653aac9ae717a32748e833c8a81f71b5",
    "rtn": "55b31466d4d2e9772f95972493b7e8332c4327d4a178dd38ffd690c90249eebf",
    "gptq": "5fe392283d446f227b9ad016e3a03c2be5615bb14f26e9d9ed4d1e0577f139d9",
    "awq": "68e64695c3c08862d991b0f3da329cfb2514805a4c5310fb8d49add0de65d59a",
}


class TestQuantizeCommand:
    @pytest.mark.parametrize("method", list(QUANTIZE_STDOUT_SHA256))
    def test_stdout_digest_pinned(self, capsys, method):
        argv = ["quantize", "--config", str(REPO / "configs/default.json"), "--method", method, "--bits", "4"]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == QUANTIZE_STDOUT_SHA256[method]

    @pytest.mark.parametrize("method", ["gptq", "awq"])
    def test_peak_holds_one_component_of_statistics(self, capsys, method):
        # every layer's statistics held at once peaked at 28.95 (gptq) and 20.97 MiB (awq)
        argv = ["quantize", "--config", str(REPO / "configs/default.json"), "--method", method, "--bits", "4"]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        capsys.readouterr()
        assert codes == [0]
        assert peak < 18 * 2**20, peak / 2**20

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "selection, projector",
        [
            ({}, False),
            ({"components": (ComponentId.VISION, ComponentId.LANGUAGE)}, False),
            ({"groups": (BlockGroup.FRONT, BlockGroup.END), "layer_types": (LayerType.FF,)}, False),
            ({"components": (ComponentId.CONNECTOR,), "layer_types": (LayerType.ATTN,)}, True),
        ],
        ids=["every-layer", "vision-language", "front-end-ff", "projector-connector-attn"],
    )
    def test_ledger_matches_one_call_over_merged_stages(self, tiny_spec, tiny_probes, method, selection, projector):
        spec = tiny_spec
        if projector:  # its connector stage is empty
            spec = replace(spec, connector_kind=ConnectorKind.LINEAR_PROJECTOR, connector_blocks=0)
        weights, probes, selector = build_model(spec), tiny_probes if method.calibrated else None, Selector.make(**selection)
        got = quantize_ledger(weights, selector, method, 4, probes, 16)
        want = oracle_quantize_ledger(weights, selector, method, 4, probes, 16)
        assert [e.layer for e in got] == [e.layer for e in want] and (not got) == projector
        for a, b in zip(got, want):
            assert (a.method, a.bits, a.group_size) == (b.method, b.bits, b.group_size), a.layer
            assert np.float64(a.proxy_error).tobytes() == np.float64(b.proxy_error).tobytes(), a.layer

    @pytest.mark.parametrize(
        "components, towers",
        [
            ((ComponentId.VISION,), ["vision"]),
            ((ComponentId.CONNECTOR,), ["vision", "connector"]),
            ((ComponentId.VISION, ComponentId.LANGUAGE), ["vision", "connector", "language"]),
        ],
        ids=["vision", "connector", "vision-language"],
    )
    def test_walk_stops_at_last_selected_component(self, tiny_spec, tiny_probes, monkeypatch, components, towers):
        import mmqlab.pipeline as pipeline

        ran = []
        for name, tower in (("encode_vision", "vision"), ("run_connector", "connector"), ("decode_hidden", "language")):

            def counted(*args, original=getattr(pipeline, name), tower=tower, **kwargs):
                ran.append(tower)
                return original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        ledger = quantize_ledger(build_model(tiny_spec), Selector.make(components), Method.GPTQ, 4, tiny_probes, 16)
        assert ran == towers  # one calibration pass per tower up to the last selected component
        assert {e.layer.split(".")[0] for e in ledger} == {comp.value for comp in components}

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
        monkeypatch.setattr(cli, "calibration_stages", lambda *args, **kwargs: calibrated.append(args))
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


class TestPerTensorBoundary:
    """For a layer of n weights, group sizes n - 1, n and n + 1: every reader
    of the group size switches to one per-tensor grid at n, together."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_quantizers_bpw_and_quantize_agree(self, tmp_path, capsys, offset):
        name = "vision.block0.attn.q_proj"
        w = build_model(PipelineSpec(**TINY_PIPELINE)).layers[name]
        n, g = w.size, w.size + offset
        per_tensor = offset >= 0
        stats = LayerStats.from_activations(np.random.default_rng(0).normal(size=(64, w.shape[1])))
        shape = (1, 1) if per_tensor else (w.shape[0], 1)  # a group of n - 1 still spans a whole row
        assert rtn_group_quantize(w, 4, g).grid_lo.shape == shape
        assert gptq_quantize([w], [stats], 4, group_size=g)[0].grid_lo.shape == shape
        overhead = 64 if per_tensor else 32 * n / g
        entry = LedgerEntry(layer=name, method=Method.RTN, bits=4, group_size=g, proxy_error=float("nan"))
        assert compute_bpw([entry], {name: n}) == pytest.approx((4 * n + overhead) / n, rel=1e-12)
        cfg = write_config(tmp_path)
        argv = ["quantize", "--config", str(cfg), "--method", "rtn", "--bits", "4", "--components", "vision",
                "--groups", "front", "--layer-types", "attn", "--group-size", str(g)]
        assert main(argv) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(f"{name} ")]
        assert f" scheme={'per_tensor' if per_tensor else 'per_group'} " in line


class TestPipelineSeed:
    """A grid seeds its models from grid.seeds, so pipeline.seed changes its
    rows only through the probes it seeds when the config has no probes section."""

    @pytest.mark.parametrize("with_probes", [True, False], ids=["probes-section", "no-probes-section"])
    def test_grid_reads_pipeline_seed_only_for_missing_probes(self, tmp_path, with_probes):
        written = []
        for seed in (0, 9):
            cfg = write_config(tmp_path, f"seed{seed}.json", pipeline={**TINY_PIPELINE, "seed": seed})
            if not with_probes:
                raw = json.loads(cfg.read_text())
                del raw["probes"]
                cfg.write_text(json.dumps(raw))
            out = tmp_path / f"seed{seed}.csv"
            assert main(["grid", "--config", str(cfg), "--method", "uniform", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert (written[0] == written[1]) is with_probes


class TestGridBitsDefaults:
    def _bits_seen(self, tmp_path, method, bits=None):
        cfg = write_config(tmp_path, grid=BASE_GRID if method == "uniform" else SOTA_GRID, pipeline={
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
        rows = load_results(out)
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
