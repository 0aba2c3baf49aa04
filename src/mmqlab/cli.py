"""Command-line entry point: run grids, analyze importance, plot, quantize.

Commands
--------
grid      run a uniform or SOTA (gptq/awq) sweep, write results CSV + manifest
analyze   fit the importance stack on a results CSV, write a JSON report
plot      score-vs-bpw SVG scatter with the Pareto frontier and full-pipeline stars
quantize  one-shot quantization of a selector, printing the ledger and bpw

Exit codes: 0 success, 1 usage/config error, 2 partial cell failure.
All outputs are byte-identical across reruns with the same config and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .experiments import (
    GridSpec,
    ResultsTable,
    compute_bpw,
    load_results,
    pareto_frontier,
    run_grid,
    save_results,
)
from .importance import (
    AttributionDataset,
    CONSENSUS_CSV_HEADER,
    bootstrap_importance_ci,
    consensus_csv_row,
    consensus_ranking,
    fit_random_forest,
    linear_baseline_r2,
    permutation_importance,
    shapley_importance,
)
from .numerics import derive_seed
from .pipeline import (
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
)
from .quantizers import Method
from .tasks import make_probe_set

DEFAULT_EVAL_PAIRS = 32
CALIBRATION_PAIRS = 128

METHOD_COLORS = {
    Method.UNIFORM: "#1f77b4",
    Method.RTN: "#2ca02c",
    Method.GPTQ: "#d62728",
    Method.AWQ: "#9467bd",
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1, not argparse's 2
        raise ConfigError(message)


@dataclass
class ProbeConfig:
    seed: int = 0
    n_pairs: int = 128
    text_len: int = 8
    question_len: int = 4


@dataclass
class Config:
    pipeline: PipelineSpec
    grid: GridSpec
    probes: ProbeConfig | None


def _expect(value, kind, path):
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"config error at {path}: expected int, got bool")
    if not isinstance(value, kind):
        raise ConfigError(f"config error at {path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: set[str], path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"config error at {path}.{key}: unknown key")


def _int_list(value, path) -> tuple[int, ...]:
    _expect(value, list, path)
    return tuple(_expect(v, int, f"{path}[{i}]") for i, v in enumerate(value))


def _enum_value(enum_cls, value, path):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"config error at {path}: {value!r} not one of [{options}]") from None


def _subset_list(value, enum_cls, path):
    _expect(value, list, path)
    out = []
    for i, sub in enumerate(value):
        _expect(sub, list, f"{path}[{i}]")
        out.append(tuple(_enum_value(enum_cls, v, f"{path}[{i}][{j}]") for j, v in enumerate(sub)))
    return tuple(out)


def _parse_pipeline(section: dict) -> PipelineSpec:
    allowed = {f.name for f in fields(PipelineSpec)}
    _check_keys(section, allowed, "pipeline")
    kwargs = {}
    for key, value in section.items():
        if key == "connector_kind":
            kwargs[key] = _enum_value(ConnectorKind, _expect(value, str, f"pipeline.{key}"), f"pipeline.{key}")
        else:
            kwargs[key] = _expect(value, int, f"pipeline.{key}")
    try:
        return PipelineSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config error at pipeline: {exc}") from None


def _parse_grid(section: dict) -> GridSpec:
    allowed = {f.name for f in fields(GridSpec)}
    _check_keys(section, allowed, "grid")
    kwargs = {}
    for key, value in section.items():
        path = f"grid.{key}"
        if key in ("bits", "seeds"):
            kwargs[key] = _int_list(value, path)
        elif key == "tasks":
            _expect(value, list, path)
            kwargs[key] = tuple(
                _enum_value(TaskKind, _expect(v, str, f"{path}[{i}]"), f"{path}[{i}]")
                for i, v in enumerate(value)
            )
        elif key in ("group_size", "eval_pairs"):
            kwargs[key] = _expect(value, int, path)
        elif key == "component_subsets":
            kwargs[key] = _subset_list(value, ComponentId, path)
        elif key == "group_subsets":
            kwargs[key] = _subset_list(value, BlockGroup, path)
        elif key == "layer_type_subsets":
            kwargs[key] = _subset_list(value, LayerType, path)
    try:
        return GridSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config error at grid: {exc}") from None


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _expect(raw, dict, "<root>")
    _check_keys(raw, {"pipeline", "grid", "probes", "output_dir", "workers"}, "<root>")
    pipeline = _parse_pipeline(_expect(raw.get("pipeline", {}), dict, "pipeline"))
    grid = _parse_grid(_expect(raw.get("grid", {}), dict, "grid"))
    probes = None
    if "probes" in raw:
        section = _expect(raw["probes"], dict, "probes")
        _check_keys(section, {"seed", "n_pairs", "text_len", "question_len"}, "probes")
        probes = ProbeConfig(
            **{k: _expect(v, int, f"probes.{k}") for k, v in section.items()}
        )
    _expect(raw.get("output_dir", "."), str, "output_dir")  # accepted but not read: --out names every output
    workers = _expect(raw.get("workers", 1), int, "workers")  # accepted but not read: grids run in one thread
    if workers < 1:
        raise ConfigError(f"config error at workers: must be >= 1, got {workers}")
    return Config(pipeline=pipeline, grid=grid, probes=probes)


def _build_probes(config: Config, require_calibration: bool):
    spec = config.pipeline
    if config.probes is None:
        if require_calibration:
            raise ConfigError("calibration probes required: add a 'probes' section to the config")
        probe_cfg = ProbeConfig(seed=derive_seed(spec.seed, "probes"), n_pairs=DEFAULT_EVAL_PAIRS)
    else:
        probe_cfg = config.probes
    return make_probe_set(
        probe_cfg.seed,
        probe_cfg.n_pairs,
        patch_count=spec.patch_count,
        d_input=spec.d_model,
        vocab=spec.vocab,
        text_len=probe_cfg.text_len,
        question_len=probe_cfg.question_len,
    )


def _config_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _resumable_rows(args, config_hash: str):
    """Finished rows from a previous run of the same config, if resuming."""
    if not getattr(args, "resume", False) or not os.path.exists(args.out):
        return []
    manifest_path = str(args.out) + ".manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot resume {args.out}: cannot read manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"cannot resume {args.out}: manifest {manifest_path} is not a JSON object")
    if manifest.get("config_sha256") != config_hash:
        raise ConfigError(f"cannot resume {args.out}: config hash changed")
    previous = load_results(args.out)
    return [r for r in previous.rows if np.isfinite(r.score)]


def cmd_grid(args) -> int:
    config = load_config(args.config)
    method = Method(args.method)
    config_hash = _config_sha256(args.config)
    done_rows = _resumable_rows(args, config_hash)
    skip = frozenset(r.run_id for r in done_rows)
    probes = _build_probes(config, require_calibration=method in (Method.GPTQ, Method.AWQ))
    table = run_grid(
        config.pipeline, probes, config.grid, method,
        calibration_pairs=min(CALIBRATION_PAIRS, len(probes)), skip_run_ids=skip,
    )
    if done_rows:
        table.rows = sorted(done_rows + table.rows, key=lambda r: r.run_id)
    try:
        save_results(table, args.out)
        manifest = {
            "config_sha256": config_hash,
            "versions": {
                "mmqlab": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "method": method.value,
            "seeds": list(config.grid.seeds),
            "rows": len(table.rows),
            "failures": dict(sorted(table.failures)),
        }
        with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if table.failures:
        for run_id, message in table.failures:
            print(f"failed cell {run_id}: {message}", file=sys.stderr)
        return 2
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    if args.boot < 1:
        raise ConfigError(f"--boot must be >= 1, got {args.boot}")
    table = load_results(args.results)
    task = TaskKind(args.task)
    task_rows = table.for_task(task)
    if len(task_rows.rows) < 10:
        print(
            f"error: need at least 10 rows for task {task.value!r}, have {len(task_rows.rows)}",
            file=sys.stderr,
        )
        return 1
    methods = sorted({r.method for r in task_rows.rows}, key=lambda m: m.value)
    payload = {"task": task.value, "methods": {}}
    consensus_lines = [CONSENSUS_CSV_HEADER]
    for method in methods:
        data = AttributionDataset.from_results(table, task, method=method)
        forest = fit_random_forest(data, seed=args.seed)
        impurity = bootstrap_importance_ci(data, n_boot=args.boot, seed=args.seed)
        permutation = permutation_importance(forest, data, seed=args.seed)
        shapley = shapley_importance(forest, data)
        consensus = consensus_ranking([impurity, permutation, shapley])
        payload["methods"][method.value] = {
            "linear_r2": linear_baseline_r2(data),
            "rows": len(data),
            "reports": [r.to_dict() for r in (impurity, permutation, shapley, consensus)],
        }
        consensus_lines.append(consensus_csv_row("toy-pipeline", method.value, task.value, consensus))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    print("\n".join(consensus_lines))
    return 0


def _svg_star(cx: float, cy: float, radius: float) -> str:
    import math

    points = []
    for i in range(10):
        r = radius if i % 2 == 0 else radius * 0.45
        angle = -math.pi / 2 + i * math.pi / 5
        points.append(f"{cx + r * math.cos(angle):.2f},{cy + r * math.sin(angle):.2f}")
    return f'<polygon points="{" ".join(points)}" fill="black"/>'


def render_plot_svg(table: ResultsTable, task: TaskKind) -> str:
    """Deterministic score-vs-bpw scatter with Pareto polyline and star markers."""
    rows = [r for r in table.for_task(task).rows if np.isfinite(r.bpw) and np.isfinite(r.score)]
    if not rows:
        raise ValueError(f"no rows to plot for task {task.value!r}")
    rows = sorted(rows, key=lambda r: r.run_id)
    width, height = 720, 480
    left, right, top, bottom = 60, 20, 30, 50
    xs = [r.bpw for r in rows]
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_min, x_max = x_min - 1.0, x_max + 1.0
    pad = 0.05 * (x_max - x_min)
    x_min, x_max = x_min - pad, x_max + pad

    def px(bpw: float) -> float:
        return left + (bpw - x_min) / (x_max - x_min) * (width - left - right)

    def py(score: float) -> float:
        return top + (1.0 - score) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="13">bits per weight</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="13" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})" text-anchor="middle">fidelity score ({task.value})</text>',
    ]
    for i in range(5):
        score = i / 4
        parts.append(
            f'<text x="{left - 6}" y="{py(score) + 4:.2f}" text-anchor="end" font-size="11">{score:.2f}</text>'
        )
        bpw = x_min + (x_max - x_min) * i / 4
        parts.append(
            f'<text x="{px(bpw):.2f}" y="{height - bottom + 16}" text-anchor="middle" font-size="11">{bpw:.2f}</text>'
        )

    frontier = pareto_frontier(table, task).rows
    polyline = " ".join(f"{px(r.bpw):.2f},{py(r.score):.2f}" for r in frontier)
    parts.append(
        f'<polyline points="{polyline}" fill="none" stroke="#555555" stroke-width="1.5" stroke-dasharray="5,3"/>'
    )
    for r in rows:
        color = METHOD_COLORS.get(r.method, "#333333")
        parts.append(
            f'<circle cx="{px(r.bpw):.2f}" cy="{py(r.score):.2f}" r="3.5" fill="{color}" fill-opacity="0.75"/>'
        )
    for r in rows:
        if r.is_full_pipeline_star:
            parts.append(_svg_star(px(r.bpw), py(r.score), 7.0))
    legend_methods = sorted({r.method for r in rows}, key=lambda m: m.value)
    for i, method in enumerate(legend_methods):
        y = top + 14 + 16 * i
        parts.append(f'<rect x="{width - 130}" y="{y - 9}" width="10" height="10" fill="{METHOD_COLORS[method]}"/>')
        parts.append(f'<text x="{width - 115}" y="{y}" font-size="12">{method.value}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    table = load_results(args.results)
    task = TaskKind(args.task)
    try:
        svg = render_plot_svg(table, task)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_axis(raw: str | None, enum_cls, flag: str):
    if raw is None:
        return tuple(enum_cls)
    return tuple(_enum_value(enum_cls, token, flag) for token in raw.split(","))


def cmd_quantize(args) -> int:
    if not 2 <= args.bits <= 16:
        raise ConfigError(f"--bits must be in [2, 16], got {args.bits}")
    if args.group_size < 1:
        raise ConfigError(f"--group-size must be >= 1, got {args.group_size}")
    config = load_config(args.config)
    method = Method(args.method)
    weights = build_model(config.pipeline)
    selector = Selector.make(
        components=_parse_axis(args.components, ComponentId, "--components"),
        groups=_parse_axis(args.groups, BlockGroup, "--groups"),
        layer_types=_parse_axis(args.layer_types, LayerType, "--layer-types"),
    )
    calib = None
    if method in (Method.GPTQ, Method.AWQ):
        probes = _build_probes(config, require_calibration=True)
        calib = collect_calibration(weights, probes, n=min(CALIBRATION_PAIRS, len(probes)))
    _, ledger = apply_quantization(
        weights, selector, method, args.bits, calib=calib, group_size=args.group_size
    )
    for entry in ledger.entries:
        print(
            f"{entry.layer} method={entry.method.value} bits={entry.bits} "
            f"group_size={entry.group_size} scheme={entry.scheme.value} "
            f"proxy_error={entry.proxy_error:.6g} code_bits={entry.code_bits}"
        )
    print(f"layers quantized: {len(ledger.entries)}")
    print(f"bpw: {compute_bpw(ledger, weights):.6g}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mmqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="run a quantization sweep")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--method", required=True, choices=["uniform", "gptq", "awq"])
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument(
        "--resume", action="store_true",
        help="skip run_ids already present in --out (same config hash required)",
    )
    p_grid.set_defaults(func=cmd_grid)

    p_an = sub.add_parser("analyze", help="importance analysis of a results CSV")
    p_an.add_argument("results")
    p_an.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--boot", type=int, default=100)
    p_an.set_defaults(func=cmd_analyze)

    p_plot = sub.add_parser("plot", help="score-vs-bpw SVG scatter")
    p_plot.add_argument("results")
    p_plot.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    p_q = sub.add_parser("quantize", help="one-shot quantization of a selector")
    p_q.add_argument("--config", required=True)
    p_q.add_argument("--method", required=True, choices=[m.value for m in Method])
    p_q.add_argument("--bits", type=int, required=True)
    p_q.add_argument("--components", default=None, help="comma-separated, e.g. vision,language")
    p_q.add_argument("--groups", default=None, help="comma-separated, e.g. front,end")
    p_q.add_argument("--layer-types", dest="layer_types", default=None, help="e.g. attn")
    p_q.add_argument("--group-size", dest="group_size", type=int, default=128)
    p_q.set_defaults(func=cmd_quantize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
