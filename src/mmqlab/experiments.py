"""Grid execution over bit widths and pipeline axes, with bpw accounting.

``run_grid`` is the one sweep engine. A cell is a bit width per component
plus the block groups and layer types it quantizes:

* uniform  - one per-tensor bit width over every non-empty (components,
  block groups, layer types) subset, plus the full-precision baseline.
  Cells whose selector matches no layer collapse into the baseline.
* GPTQ/AWQ - the full per-component bit cross product over all groups and
  layer types, where 16 encodes "leave unquantized".

Calibration runs once per seed and each component is quantized once per bit
width; a cell takes the layers its selector picks from those fragments. The
vision tower, the connector and the retrieval text embeddings are memoised
on the fragments they read, and one closure derives every model's task
outputs from those memos. The full-precision reference is the model that
reads no fragment: its stage outputs are the memos' all-None entries.

Results are plain records with a stable content-addressed ``run_id``;
persistence is a fixed-schema CSV whose save/load round-trips exactly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import pipeline
from .numerics import derive_seed
from .pipeline import (
    CAPTION_HORIZON,
    COMPONENT_ORDER,
    GROUP_ORDER,
    LAYER_TYPE_ORDER,
    VQA_HORIZON,
    BlockGroup,
    ComponentId,
    LayerType,
    ModelWeights,
    PipelineSpec,
    QuantizationLedger,
    Selector,
    TaskKind,
    apply_quantization,
    build_model,
    collect_calibration,
    enumerate_layers,
    generate_tokens,
    image_embeddings,
    text_embeddings,
)
from .quantizers import GridScheme, Method
from .tasks import ProbeSet, agreement

CSV_HEADER = (
    "run_id,method,task,vision_bits,connector_bits,language_bits,"
    "groups,layer_types,group_size,bpw,score,seed,wall_ms"
)
FP_BITS = 16
UNIFORM_BITS_DEFAULT = (2, 4, 6, 8)
SOTA_BITS_DEFAULT = (2, 3, 4, 5, 6, 8)

# Storage accounting convention: two 16-bit endpoints per quantization group
# (fractional trailing groups counted pro rata); per-tensor grids store two
# 32-bit endpoints per layer. Unquantized weights count at 16 bits.
GROUP_OVERHEAD_BITS = 32
PER_TENSOR_OVERHEAD_BITS = 64


def _join_groups(groups) -> str:
    return "+".join(g.value for g in GROUP_ORDER if g in groups)


def _join_layer_types(layer_types) -> str:
    return "+".join(t.value for t in LAYER_TYPE_ORDER if t in layer_types)


def _fmt_real(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True)
class RunRecord:
    """One grid cell: configuration, bpw, and fidelity score."""

    run_id: str
    method: Method
    task: TaskKind
    vision_bits: int
    connector_bits: int
    language_bits: int
    groups: frozenset[BlockGroup]
    layer_types: frozenset[LayerType]
    group_size: int
    bpw: float
    score: float
    seed: int
    wall_ms: int

    @property
    def component_bits(self) -> dict[ComponentId, int]:
        return {
            ComponentId.VISION: self.vision_bits,
            ComponentId.CONNECTOR: self.connector_bits,
            ComponentId.LANGUAGE: self.language_bits,
        }

    @property
    def is_full_pipeline_star(self) -> bool:
        """Whole-pipeline cell at 8 or 16 bits over all groups and layer types."""
        bits = {self.vision_bits, self.connector_bits, self.language_bits}
        return (
            bits in ({8}, {16})
            and self.groups == frozenset(GROUP_ORDER)
            and self.layer_types == frozenset(LAYER_TYPE_ORDER)
        )

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.run_id,
                self.method.value,
                self.task.value,
                str(self.vision_bits),
                str(self.connector_bits),
                str(self.language_bits),
                _join_groups(self.groups),
                _join_layer_types(self.layer_types),
                str(self.group_size),
                _fmt_real(self.bpw),
                _fmt_real(self.score),
                str(self.seed),
                str(self.wall_ms),
            ]
        )


def make_run_id(
    method: Method,
    task: TaskKind,
    vision_bits: int,
    connector_bits: int,
    language_bits: int,
    groups,
    layer_types,
    group_size: int,
    seed: int,
) -> str:
    """Pure content hash of a cell configuration."""
    key = "|".join(
        [
            method.value,
            task.value,
            str(vision_bits),
            str(connector_bits),
            str(language_bits),
            _join_groups(groups),
            _join_layer_types(layer_types),
            str(group_size),
            str(seed),
        ]
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class GridSpec:
    """Sweep configuration; None bits mean the method's default bits, and None
    subset lists mean "all non-empty subsets"."""

    bits: tuple[int, ...] | None = None
    tasks: tuple[TaskKind, ...] = (TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA)
    seeds: tuple[int, ...] = (7,)
    group_size: int = 128
    component_subsets: tuple[tuple[ComponentId, ...], ...] | None = None
    group_subsets: tuple[tuple[BlockGroup, ...], ...] | None = None
    layer_type_subsets: tuple[tuple[LayerType, ...], ...] | None = None
    eval_pairs: int | None = None

    def __post_init__(self):
        for k in self.bits or ():
            if not (2 <= k <= 16):
                raise ValueError(f"grid bits must be in [2, 16], got {k}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.eval_pairs is not None and self.eval_pairs < 1:
            raise ValueError(f"eval_pairs must be >= 1, got {self.eval_pairs}")
        # a repeated value would give two cells one run_id
        for name in ("bits", "seeds", "component_subsets", "group_subsets", "layer_type_subsets"):
            values = getattr(self, name) or ()
            keys = [frozenset(v) if isinstance(v, tuple) else v for v in values]
            if len(set(keys)) != len(keys):
                raise ValueError(f"grid.{name} repeats a value: {list(values)}")


def _nonempty_subsets(items: tuple) -> tuple[tuple, ...]:
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return tuple(out)


@dataclass
class ResultsTable:
    rows: list[RunRecord] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def for_task(self, task: TaskKind) -> "ResultsTable":
        return ResultsTable(rows=[r for r in self.rows if r.task is task])

    def sorted_by_run_id(self) -> "ResultsTable":
        return ResultsTable(rows=sorted(self.rows, key=lambda r: r.run_id), failures=list(self.failures))


def compute_bpw(ledger: QuantizationLedger, weights: ModelWeights) -> float:
    """Average storage bits per quantizable weight under the declared convention."""
    known = {addr.name: weights.layers[addr.name].size for addr in weights.addresses}
    total_params = sum(known.values())
    by_layer = {}
    for entry in ledger.entries:
        if entry.layer not in known:
            raise ValueError(f"ledger references unknown layer {entry.layer!r}")
        by_layer[entry.layer] = entry
    bits = 0.0
    for name, numel in known.items():
        entry = by_layer.get(name)
        if entry is None:
            bits += 16.0 * numel
        elif entry.scheme is GridScheme.PER_TENSOR:
            bits += entry.bits * numel + PER_TENSOR_OVERHEAD_BITS
        else:
            bits += entry.bits * numel + GROUP_OVERHEAD_BITS * numel / entry.group_size
    return bits / total_params


def _seeded_model(spec: PipelineSpec, run_seed: int) -> ModelWeights:
    return build_model(replace(spec, seed=derive_seed(run_seed, "model")))


# A component's share of a cell: (component, bits, names of the layers the
# cell quantizes in it), or None when the cell leaves it at full precision.
_Part = tuple[ComponentId, int, tuple[str, ...]] | None


@dataclass(frozen=True)
class _Cell:
    bits: dict[ComponentId, int]
    groups: tuple[BlockGroup, ...]
    layer_types: tuple[LayerType, ...]
    parts: tuple[_Part, _Part, _Part]  # vision, connector, language


def _cell(fp: ModelWeights, bits: dict[ComponentId, int], groups, layer_types) -> _Cell:
    parts = []
    for comp in COMPONENT_ORDER:
        names = ()
        if bits[comp] < FP_BITS:
            sel = Selector.make((comp,), groups, layer_types)
            names = tuple(addr.name for addr in enumerate_layers(fp, sel))
        parts.append((comp, bits[comp], names) if names else None)
    return _Cell(bits, tuple(groups), tuple(layer_types), tuple(parts))


def _plan(fp: ModelWeights, grid: GridSpec, method: Method) -> list[_Cell]:
    """The baseline cell, then every cell that quantizes at least one layer.

    A cell whose selector matches no layer collapses into the baseline.
    """
    fp_bits = {c: FP_BITS for c in COMPONENT_ORDER}
    if method is Method.UNIFORM:
        shapes = [
            ({c: k if c in comps else FP_BITS for c in COMPONENT_ORDER}, groups, lts)
            for k, comps, groups, lts in itertools.product(
                UNIFORM_BITS_DEFAULT if grid.bits is None else grid.bits,
                grid.component_subsets or _nonempty_subsets(COMPONENT_ORDER),
                grid.group_subsets or _nonempty_subsets(GROUP_ORDER),
                grid.layer_type_subsets or _nonempty_subsets(LAYER_TYPE_ORDER),
            )
        ]
    else:
        active = fp.spec.active_components()
        choices = sorted(set(SOTA_BITS_DEFAULT if grid.bits is None else grid.bits) | {FP_BITS})
        shapes = [
            ({**fp_bits, **dict(zip(active, combo))}, GROUP_ORDER, LAYER_TYPE_ORDER)
            for combo in itertools.product(choices, repeat=len(active))
        ]
    cells = (_cell(fp, *shape) for shape in shapes)
    return [_cell(fp, fp_bits, GROUP_ORDER, LAYER_TYPE_ORDER)] + [c for c in cells if any(c.parts)]


def _memo(fn, keys) -> dict:
    """fn once per distinct key; a key whose call raised maps to the exception."""

    def guarded(key):
        try:
            return fn(key)
        except Exception as exc:  # recorded against the cells that read this entry
            # without its traceback, whose frames would keep their inputs alive
            return exc.with_traceback(None)

    return {key: guarded(key) for key in dict.fromkeys(keys)}


def _ok(entry):
    """A memo entry's value; raises the error the entry recorded instead."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def run_grid(
    spec: PipelineSpec,
    probes: ProbeSet,
    grid: GridSpec,
    method: Method,
    calibration_pairs: int = 128,
    skip_run_ids: frozenset[str] = frozenset(),
) -> ResultsTable:
    """Score every cell of a uniform subset grid or a GPTQ/AWQ cross product.

    Uniform sweeps one bit width over every (components, block groups, layer
    types) subset, plus one full-precision baseline row per task and seed;
    with three active components and default axes that is 4 x 7 x 7 x 3
    cells. GPTQ/AWQ give each active component a bit width from bits + {16}
    over all groups and layer types. ``grid.bits`` None means the method's
    default bits.

    Each component is quantized once per bit width and each stage output is
    memoised on the quantized layers it reads. An error fails exactly the
    cells that depend on it, as NaN rows listed in ``failures``; a failing
    full-precision reference raises. Cells whose run_id is in
    ``skip_run_ids`` are not run (resume support).
    """
    if method not in (Method.UNIFORM, Method.GPTQ, Method.AWQ):
        raise ValueError(f"grid supports uniform or GPTQ/AWQ, got {method.value}")
    if grid.eval_pairs is not None and grid.eval_pairs > len(probes):
        raise ValueError(f"grid.eval_pairs is {grid.eval_pairs}, but there are only {len(probes)} probe pairs")
    group_size = 0 if method is Method.UNIFORM else grid.group_size
    eval_probes = probes.take(grid.eval_pairs) if grid.eval_pairs else probes
    if TaskKind.RETRIEVAL in grid.tasks and len(eval_probes) < 2:
        raise ValueError(f"retrieval scoring needs at least 2 probe pairs, but grid.eval_pairs gives {len(eval_probes)}")
    images, texts = eval_probes.images, eval_probes.texts

    table = ResultsTable()
    for run_seed in grid.seeds:
        fp = _seeded_model(spec, run_seed)

        def run_ids(cell: _Cell) -> dict[TaskKind, str]:
            b = cell.bits
            ids = {
                task: make_run_id(
                    method, task, b[ComponentId.VISION], b[ComponentId.CONNECTOR],
                    b[ComponentId.LANGUAGE], cell.groups, cell.layer_types, group_size, run_seed,
                )
                for task in grid.tasks
            }
            return {task: rid for task, rid in ids.items() if rid not in skip_run_ids}

        cells = [(cell, pending) for cell in _plan(fp, grid, method) if (pending := run_ids(cell))]
        if not cells:
            continue

        # fragments: each component quantized once per bit width; a cell takes
        # the layers it selects, which is exact as every quantizer is per layer
        fragment_keys = [part[:2] for cell, _ in cells for part in cell.parts if part]
        calib = None
        if fragment_keys and method is not Method.UNIFORM:
            calib = collect_calibration(fp, probes, n=calibration_pairs)

        def quantize(key):
            comp, k = key
            qw, ledger = apply_quantization(
                fp, Selector.make(components=(comp,)), method, k, calib, grid.group_size
            )
            return {e.layer: (qw.layers[e.layer], e) for e in ledger.entries}

        fragments = _memo(quantize, fragment_keys)
        calib = None  # only the fragments read it: free the Gram matrices and factors before decode

        def assemble(parts) -> tuple[ModelWeights, QuantizationLedger]:
            layers, ledger = dict(fp.layers), QuantizationLedger()
            for part in parts:
                if part is None:
                    continue
                comp, k, names = part
                fragment = _ok(fragments[(comp, k)])
                for name in names:
                    layers[name], entry = fragment[name]
                    ledger.entries.append(entry)
            return replace(fp, layers=layers), ledger

        # stage memos, each keyed on the parts its stage reads; the full-precision
        # reference is the model whose parts are all None
        reference_parts = (None, None, None)
        ref_tasks = [task for task in grid.tasks if any(task in pending for _, pending in cells)]
        models = [(reference_parts, ref_tasks)] + [(cell.parts, pending) for cell, pending in cells]
        visions = _memo(
            lambda v: pipeline.encode_vision(assemble((v, None, None))[0], images),
            [parts[0] for parts, _ in models],
        )
        prefixes = _memo(
            lambda vc: pipeline.run_connector(assemble((*vc, None))[0], _ok(visions[vc[0]])),
            [parts[:2] for parts, _ in models],
        )
        text_memo = _memo(
            lambda lang: text_embeddings(assemble((None, None, lang))[0], texts),
            [parts[2] for parts, tasks in models if TaskKind.RETRIEVAL in tasks],
        )

        def model_outputs(parts, task):
            """A model's outputs on the eval probes, the operand of ``agreement``."""
            prefix = _ok(prefixes[parts[:2]])
            if task is TaskKind.RETRIEVAL:
                return image_embeddings(prefix), _ok(text_memo[parts[2]])
            horizon = CAPTION_HORIZON if task is TaskKind.CAPTION else VQA_HORIZON
            questions = eval_probes.questions if task is TaskKind.VQA else None
            return generate_tokens(assemble(parts)[0], prefix, task, horizon, questions)

        reference = {task: model_outputs(reference_parts, task) for task in ref_tasks}

        def score(item):
            cell, pending = item
            try:
                bpw = compute_bpw(assemble(cell.parts)[1], fp)
                scores = {}
                for task in pending:
                    # a baseline cell is the reference model: read its outputs, do not decode again
                    outputs = reference[task] if cell.parts == reference_parts else model_outputs(cell.parts, task)
                    scores[task] = agreement(task, outputs, reference[task])
            except Exception as exc:  # fail this cell's tasks, not the grid
                return float("nan"), {}, str(exc)
            return bpw, scores, None

        for (cell, pending), (bpw, scores, error) in zip(cells, map(score, cells)):
            for task, run_id in pending.items():
                table.rows.append(
                    RunRecord(
                        run_id=run_id, method=method, task=task,
                        vision_bits=cell.bits[ComponentId.VISION],
                        connector_bits=cell.bits[ComponentId.CONNECTOR],
                        language_bits=cell.bits[ComponentId.LANGUAGE],
                        groups=frozenset(cell.groups), layer_types=frozenset(cell.layer_types),
                        group_size=group_size, bpw=bpw, score=scores.get(task, float("nan")),
                        seed=run_seed, wall_ms=0,
                    )
                )
                if error is not None:
                    table.failures.append((run_id, error))
    return table.sorted_by_run_id()


# --- persistence -------------------------------------------------------------


def save_results(table: ResultsTable, path) -> None:
    lines = [CSV_HEADER] + [r.to_csv_row() for r in table.rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_tokens(raw: str, enum_cls, line_no: int):
    if raw == "":
        return frozenset()
    values = {m.value: m for m in enum_cls}
    members = []
    for token in raw.split("+"):
        if token not in values:
            raise ValueError(f"line {line_no}: unknown {enum_cls.__name__} token {token!r}")
        members.append(values[token])
    return frozenset(members)


def load_results(path) -> ResultsTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # (physical line number, text); blank lines are skipped but still counted
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip() != ""]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read results {path}: {exc}") from None
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"line {lines[0][0] if lines else 1}: bad header, expected {CSV_HEADER!r}")
    rows = []
    seen: dict[str, int] = {}  # run_id -> line number
    for line_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 13:
            raise ValueError(f"line {line_no}: expected 13 fields, got {len(parts)}")
        try:
            rows.append(
                RunRecord(
                    run_id=parts[0],
                    method=Method(parts[1]),
                    task=TaskKind(parts[2]),
                    vision_bits=int(parts[3]),
                    connector_bits=int(parts[4]),
                    language_bits=int(parts[5]),
                    groups=_parse_tokens(parts[6], BlockGroup, line_no),
                    layer_types=_parse_tokens(parts[7], LayerType, line_no),
                    group_size=int(parts[8]),
                    bpw=float(parts[9]),
                    score=float(parts[10]),
                    seed=int(parts[11]),
                    wall_ms=int(parts[12]),
                )
            )
        except ValueError as exc:
            if str(exc).startswith("line "):
                raise
            raise ValueError(f"line {line_no}: {exc}") from exc
        row = rows[-1]
        for name in ("vision_bits", "connector_bits", "language_bits"):
            if not 2 <= getattr(row, name) <= FP_BITS:
                raise ValueError(f"line {line_no}: {name} must lie in [2, {FP_BITS}], got {getattr(row, name)}")
        if not (np.isnan(row.score) or 0.0 <= row.score <= 1.0):
            raise ValueError(f"line {line_no}: score must be nan or lie in [0, 1], got {parts[10]}")
        if row.run_id in seen:
            raise ValueError(f"line {line_no}: run_id {row.run_id} repeats line {seen[row.run_id]}")
        seen[row.run_id] = line_no
    return ResultsTable(rows=rows)


def pareto_frontier(table: ResultsTable, task: TaskKind) -> ResultsTable:
    """Rows not dominated in (lower bpw, higher score), bpw ascending.

    Exact ties on both axes are all retained; NaN-scored (failed) rows are
    excluded.
    """
    rows = [r for r in table.for_task(task).rows if np.isfinite(r.bpw) and np.isfinite(r.score)]
    if not rows:
        raise ValueError(f"no finished rows for task {task.value!r}")
    by_bpw: dict[float, list[RunRecord]] = {}
    for r in rows:
        by_bpw.setdefault(r.bpw, []).append(r)
    frontier = []
    best = -np.inf
    for bpw in sorted(by_bpw):
        group = by_bpw[bpw]
        top = max(r.score for r in group)
        if top > best:
            frontier.extend(r for r in group if r.score == top)
            best = top
    return ResultsTable(rows=frontier)
