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
import itertools
import json
import os
import sys
import types
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .experiments import (
    GRID_METHODS,
    GridSpec,
    RunRecord,
    compute_bpw,
    layer_sizes,
    load_results,
    pareto_frontier,
    read_input,
    run_grid,
    save_results,
    write_atomic,
)
from .importance import (
    AttributionDataset,
    CONSENSUS_CSV_HEADER,
    MIN_FOREST_ROWS,
    bootstrap_importance_ci,
    consensus_csv_row,
    consensus_ranking,
    fit_random_forest,
    lattice_table,
    linear_baseline_r2,
    permutation_importance,
    shapley_importance,
)
from .numerics import derive_seed
from .pipeline import (
    CAPTION_HORIZON,
    COMPONENT_ORDER,
    MAX_SEQ,
    VQA_HORIZON,
    BlockGroup,
    ComponentId,
    LayerType,
    PipelineSpec,
    Selector,
    SpecError,
    TaskKind,
    apply_quantization,
    build_model,
    calibration_stages,
    element_count,
)
from .quantizers import DEFAULT_GROUP_SIZE, FP_BITS, MIN_BITS, Method, per_tensor
from .tasks import ProbeConfig, make_probe_set

DEFAULT_EVAL_PAIRS = 32
ELEMENT_LIMIT = 1 << 26  # float32 elements (256 MiB) of the largest thing a config may make the lab hold

METHOD_COLORS = {
    Method.UNIFORM: "#1f77b4",
    Method.RTN: "#2ca02c",
    Method.GPTQ: "#d62728",
    Method.AWQ: "#9467bd",
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1, not argparse's 2
        raise ConfigError(message)


@dataclass
class Config:
    pipeline: PipelineSpec
    grid: GridSpec
    probes: ProbeConfig | None
    sha256: str  # of the bytes parsed, which a grid's manifest records


def _expect(value, kind, path):
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"config error at {path}: expected int, got bool")
    if not isinstance(value, kind):
        raise ConfigError(f"config error at {path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"config error at {path}.{key}: unknown key")


def _enum_value(enum_cls, value, path):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"config error at {path}: {value!r} not one of [{options}]") from None


def _typed(kind, value, path):
    """A JSON value read as the declared type ``kind``: ``X | None`` as X (a
    key left out keeps the default), ``tuple[X, ...]`` from a list, an enum
    from its value string, else an instance of ``kind``."""
    if isinstance(kind, types.UnionType):
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_typed(item, v, f"{path}[{i}]") for i, v in enumerate(_expect(value, list, path)))
    if issubclass(kind, Enum):
        return _enum_value(kind, _expect(value, str, path), path)
    return _expect(value, kind, path)


def _section(cls, raw: dict, name: str):
    """Config section ``name`` as the dataclass ``cls``, whose fields are the
    section's keys and types."""
    kinds = get_type_hints(cls)
    section = _expect(raw.get(name, {}), dict, name)
    _check_keys(section, kinds, name)
    kwargs = {key: _typed(kinds[key], value, f"{name}.{key}") for key, value in section.items()}
    try:
        return cls(**kwargs)
    except SpecError as exc:
        raise ConfigError(f"config error at {name}.{exc.key}: {exc.detail}") from None


def load_config(path: str) -> Config:
    data, text = read_input("config", path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _expect(raw, dict, "<root>")
    _check_keys(raw, {"pipeline", "grid", "probes", "output_dir", "workers"}, "<root>")
    pipeline = _section(PipelineSpec, raw, "pipeline")
    grid = _section(GridSpec, raw, "grid")
    probes = _section(ProbeConfig, raw, "probes") if "probes" in raw else None
    _check_size(pipeline, probes.n_pairs if probes is not None else DEFAULT_EVAL_PAIRS)
    _expect(raw.get("output_dir", "."), str, "output_dir")  # accepted but not read: --out names every output
    workers = _expect(raw.get("workers", 1), int, "workers")  # accepted but not read: grids run in one thread
    if workers < 1:
        raise ConfigError(f"config error at workers: must be >= 1, got {workers}")
    return Config(pipeline=pipeline, grid=grid, probes=probes, sha256=hashlib.sha256(data).hexdigest())


def _check_size(spec: PipelineSpec, pairs: int):
    """Exit 1, before anything is allocated, when ``element_count`` of the
    pipeline over ``pairs`` probe pairs is above ELEMENT_LIMIT.

    The key named is the one whose default value would shrink that count the
    most: the one key a config changed, or the largest of several.
    """
    values = {f"pipeline.{f.name}": getattr(spec, f.name) for f in fields(PipelineSpec)}
    values["probes.n_pairs"] = pairs
    defaults = {f"pipeline.{f.name}": f.default for f in fields(PipelineSpec)}
    defaults["probes.n_pairs"] = ProbeConfig.n_pairs

    def count(values: dict) -> int:
        spec_fields = {key.split(".")[1]: v for key, v in values.items() if key.startswith("pipeline.")}
        return element_count(types.SimpleNamespace(**spec_fields), values["probes.n_pairs"])

    if (total := count(values)) > ELEMENT_LIMIT:
        key = min(values, key=lambda k: count({**values, k: defaults[k]}))
        raise ConfigError(
            f"config error at {key}: the weights, or one array a run makes, would hold {total} "
            f"elements, more than the limit of {ELEMENT_LIMIT}"
        )


def _build_probes(config: Config, method: Method, tasks: tuple[TaskKind, ...]):
    """The probe set of a command that runs ``method`` over ``tasks`` (a grid's, or none).

    Probe lengths the decoder cannot hold exit 1 naming the key, a linear
    projector's prefix that leaves a task no room names
    ``pipeline.patch_count``, and a grid's ``eval_pairs`` above the probe
    count, or below 2 for retrieval, names its key, before any model is built.
    So does a GPTQ/AWQ grid's subset list other than the one subset of every
    member: its cross product quantizes every layer of a component.
    """
    spec = config.pipeline
    for key, members in (
        ("component_subsets", ComponentId), ("group_subsets", BlockGroup), ("layer_type_subsets", LayerType),
    ):
        subsets = getattr(config.grid, key)
        if method.calibrated and tasks and subsets is not None and (len(subsets) != 1 or set(subsets[0]) != set(members)):
            every = json.dumps([[m.value for m in members]])
            raise ConfigError(
                f"config error at grid.{key}: must be unset or {every} for a {method.value} grid, "
                f"which quantizes whole components, got {json.dumps(subsets, default=lambda m: m.value)}"
            )
    if config.probes is None:
        if method.calibrated:
            raise ConfigError("calibration probes required: add a 'probes' section to the config")
        probe_cfg = ProbeConfig(seed=derive_seed(spec.seed, "probes"), n_pairs=DEFAULT_EVAL_PAIRS)
    else:
        probe_cfg = config.probes
    prefix = spec.prefix_tokens
    # (probe key, what decodes it, the room left for it); the tighter text bound
    # first: calibration decodes [prefix, BOS, text], retrieval [BOS, text]
    bounds = []
    if method.calibrated:
        bounds.append(("text_len", "calibration", MAX_SEQ - prefix - 1))
    if TaskKind.RETRIEVAL in tasks:
        bounds.append(("text_len", "retrieval", MAX_SEQ - 1))
    if TaskKind.VQA in tasks:  # [prefix, BOS, question], then VQA_HORIZON - 1 more tokens
        bounds.append(("question_len", "vqa", MAX_SEQ - prefix - VQA_HORIZON))
    if TaskKind.CAPTION in tasks:  # [prefix, BOS], then CAPTION_HORIZON - 1 more tokens; no probe key
        bounds.append((None, "caption", MAX_SEQ - prefix - CAPTION_HORIZON))
    for _, use, room in bounds:
        if room < 0:  # the prefix alone is too long; only a linear projector's is configurable
            raise ConfigError(
                f"config error at pipeline.patch_count: must be <= {prefix + room} for {use} "
                f"with a linear projector, got {prefix}"
            )
    for key, _, room in bounds:
        if key is not None and (value := getattr(probe_cfg, key)) > room:
            raise ConfigError(f"config error at probes.{key}: must be <= {room}, got {value}")
    if tasks:  # a grid scores its first eval_pairs probe pairs, every pair when that is unset
        key, pairs = "grid.eval_pairs", config.grid.eval_pairs
        if pairs is None:
            key, pairs = "probes.n_pairs", probe_cfg.n_pairs
        if pairs > probe_cfg.n_pairs:
            raise ConfigError(f"config error at {key}: must be <= the {probe_cfg.n_pairs} probe pairs, got {pairs}")
        if TaskKind.RETRIEVAL in tasks and pairs < 2:
            raise ConfigError(f"config error at {key}: must be >= 2 when grid.tasks includes retrieval, got {pairs}")
        if not method.calibrated:  # nothing reads a later pair, and fewer pairs draw the same first bytes
            probe_cfg = replace(probe_cfg, n_pairs=pairs)
    return make_probe_set(probe_cfg, spec)


def _resumable_rows(args, config_hash: str):
    """Finished rows from a previous run of the same config, if resuming."""
    if not getattr(args, "resume", False) or not os.path.exists(args.out):
        return []
    manifest_path = str(args.out) + ".manifest.json"
    try:
        manifest = json.loads(read_input("manifest", manifest_path)[1])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot resume {args.out}: cannot read manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"cannot resume {args.out}: manifest {manifest_path} is not a JSON object")
    if manifest.get("config_sha256") != config_hash:
        raise ConfigError(f"cannot resume {args.out}: config hash changed")
    if manifest.get("method") != args.method:
        raise ConfigError(
            f"cannot resume {args.out}: manifest {manifest_path} is for method "
            f"{manifest.get('method')!r}, not --method {args.method!r}"
        )
    return [r for r in load_results(args.out) if np.isfinite(r.score)]


def cmd_grid(args) -> int:
    """Run a grid and write its CSV, whose rows, resumed ones included, are
    sorted by run_id once here, and its manifest; exit 2 if a cell failed."""
    config = load_config(args.config)
    method = Method(args.method)
    rows = _resumable_rows(args, config.sha256)
    skip = frozenset(r.run_id for r in rows)
    probes = _build_probes(config, method, config.grid.tasks)
    failures = []  # (run_id, message), in plan order
    for row, error in run_grid(config.pipeline, probes, config.grid, method, skip_run_ids=skip):
        rows.append(row)
        if error is not None:
            failures.append((row.run_id, error))
    rows.sort(key=lambda r: r.run_id)
    save_results(rows, args.out)
    manifest = {
        "config_sha256": config.sha256,
        "versions": {
            "mmqlab": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "method": method.value,
        "seeds": list(config.grid.seeds),
        "rows": len(rows),
        "failures": dict(failures),  # sort_keys orders it by run_id
    }
    write_atomic(str(args.out) + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if failures:
        for run_id, message in failures:
            print(f"failed cell {run_id}: {message}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    if args.boot < 1:
        raise ConfigError(f"--boot must be >= 1, got {args.boot}")
    task = TaskKind(args.task)
    task_rows = [r for r in load_results(args.results) if r.task is task]
    if len(task_rows) < MIN_FOREST_ROWS:
        raise ConfigError(f"need at least {MIN_FOREST_ROWS} rows for task {task.value!r}, have {len(task_rows)}")
    methods = sorted({r.method for r in task_rows}, key=lambda m: m.value)
    datasets = {}  # every method's rows are checked before any forest is fit
    for method in methods:
        datasets[method] = data = AttributionDataset.from_results(task_rows, task, method=method)
        if len(data) < MIN_FOREST_ROWS:
            raise ConfigError(
                f"need at least {MIN_FOREST_ROWS} rows with a finite score to fit a forest for task "
                f"{task.value!r}, method {method.value!r}, have {len(data)}"
            )
    payload = {"task": task.value, "methods": {}}
    consensus_lines = [CONSENSUS_CSV_HEADER]
    for method, data in datasets.items():
        table = lattice_table(fit_random_forest(data, seed=args.seed), data)
        impurity = bootstrap_importance_ci(data, n_boot=args.boot, seed=args.seed)
        permutation = permutation_importance(table, data, seed=args.seed)
        shapley = shapley_importance(table, data)
        consensus = consensus_ranking([impurity, permutation, shapley])
        payload["methods"][method.value] = {
            "linear_r2": linear_baseline_r2(data),
            "rows": len(data),
            "reports": [r.to_dict() for r in (impurity, permutation, shapley, consensus)],
        }
        consensus_lines.append(consensus_csv_row("toy-pipeline", method.value, task.value, consensus))
    write_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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


def render_plot_svg(rows: list[RunRecord], task: TaskKind) -> str:
    """Deterministic score-vs-bpw scatter with Pareto polyline and star markers;
    points are drawn in row order."""
    rows = [r for r in rows if r.task is task and np.isfinite(r.bpw) and np.isfinite(r.score)]
    if not rows:
        raise ValueError(f"no rows to plot for task {task.value!r}")
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

    frontier = pareto_frontier(rows, task)
    polyline = " ".join(f"{px(r.bpw):.2f},{py(r.score):.2f}" for r in frontier)
    parts.append(
        f'<polyline points="{polyline}" fill="none" stroke="#555555" stroke-width="1.5" stroke-dasharray="5,3"/>'
    )
    for r in rows:
        color = METHOD_COLORS[r.method]
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
    write_atomic(args.out, render_plot_svg(load_results(args.results), TaskKind(args.task)))
    return 0


def _parse_axis(raw: str | None, enum_cls, flag: str):
    if raw is None:
        return tuple(enum_cls)
    return tuple(_enum_value(enum_cls, token, flag) for token in raw.split(","))


def quantize_ledger(weights, selector: Selector, method: Method, bits: int, probes, group_size: int) -> list:
    """``selector``'s ledger in address order, one ``calibration_stages`` stage at a time, as in ``grid``;
    the walk stops at the last component the selector names, so no later tower runs."""
    ledger = []
    stop = max((COMPONENT_ORDER.index(comp) + 1 for comp in selector.components), default=0)
    for comp, calib in itertools.islice(calibration_stages(weights, probes), stop):
        part = replace(selector, components=selector.components & {comp})
        ledger += apply_quantization(weights, part, method, bits, calib, group_size)[1]
        calib = None  # before the generator runs the next tower
    return ledger


def cmd_quantize(args) -> int:
    if not MIN_BITS <= args.bits <= FP_BITS:
        raise ConfigError(f"--bits must be in [{MIN_BITS}, {FP_BITS}], got {args.bits}")
    if args.group_size < 1:
        raise ConfigError(f"--group-size must be >= 1, got {args.group_size}")
    config = load_config(args.config)
    method = Method(args.method)
    selector = Selector.make(
        components=_parse_axis(args.components, ComponentId, "--components"),
        groups=_parse_axis(args.groups, BlockGroup, "--groups"),
        layer_types=_parse_axis(args.layer_types, LayerType, "--layer-types"),
    )
    probes = _build_probes(config, method, ()) if method.calibrated else None
    weights = build_model(config.pipeline)
    ledger = quantize_ledger(weights, selector, method, args.bits, probes, args.group_size)
    sizes = layer_sizes(weights)
    for entry in ledger:
        numel = sizes[entry.layer]
        scheme = "per_tensor" if per_tensor(entry.group_size, numel) else "per_group"
        print(
            f"{entry.layer} method={entry.method.value} bits={entry.bits} "
            f"group_size={entry.group_size} scheme={scheme} "
            f"proxy_error={entry.proxy_error:.6g} code_bits={entry.bits * numel}"
        )
    print(f"layers quantized: {len(ledger)}")
    print(f"bpw: {compute_bpw(ledger, sizes):.6g}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mmqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="run a quantization sweep")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--method", required=True, choices=[m.value for m in GRID_METHODS])
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
    p_q.add_argument("--group-size", dest="group_size", type=int, default=DEFAULT_GROUP_SIZE)
    p_q.set_defaults(func=cmd_quantize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (folder := os.path.dirname(getattr(args, "out", ""))) and not os.path.isdir(folder):
            raise ConfigError(f"--out {args.out}: directory {folder} does not exist")  # before any work
        return args.func(args)
    except ValueError as exc:  # a ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs that cannot be read raise ValueError, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
