"""Grid execution over bit widths and pipeline axes, with bpw accounting.

Two sweep styles:

* ``run_uniform_grid`` - per-tensor uniform quantization over every non-empty
  (bits, components, block groups, layer types) cell, plus one full-precision
  baseline row per task. Cells whose selector matches no layer collapse into
  the baseline.
* ``run_sota_grid``    - calibrated methods (GPTQ/AWQ) over the full
  per-component bit cross product, where 16 encodes "leave unquantized".
  Calibration is collected once per seed, per-component quantizations are
  shared across cells, and the vision->connector prefix is computed once per
  (vision, connector) bits.

Both engines compute the full-precision reference outputs once per seed and
task, not once per cell.

Results are plain records with a stable content-addressed ``run_id``;
persistence is a fixed-schema CSV whose save/load round-trips exactly.
"""

from __future__ import annotations

import hashlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import derive_seed
from .pipeline import (
    COMPONENT_ORDER,
    GROUP_ORDER,
    LAYER_TYPE_ORDER,
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
)
from .pipeline import image_embeddings, text_embeddings, vision_prefix
from .quantizers import GridScheme, Method
from .tasks import ProbeSet, agreement, task_outputs

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
    def quantized_components(self) -> tuple[ComponentId, ...]:
        return tuple(c for c, b in self.component_bits.items() if b < FP_BITS)

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
    """Sweep configuration; None subset lists mean "all non-empty subsets"."""

    bits: tuple[int, ...] = UNIFORM_BITS_DEFAULT
    tasks: tuple[TaskKind, ...] = (TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA)
    seeds: tuple[int, ...] = (7,)
    group_size: int = 128
    component_subsets: tuple[tuple[ComponentId, ...], ...] | None = None
    group_subsets: tuple[tuple[BlockGroup, ...], ...] | None = None
    layer_type_subsets: tuple[tuple[LayerType, ...], ...] | None = None
    eval_pairs: int | None = None

    def __post_init__(self):
        for k in self.bits:
            if not (2 <= k <= 16):
                raise ValueError(f"grid bits must be in [2, 16], got {k}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.eval_pairs is not None and self.eval_pairs < 1:
            raise ValueError(f"eval_pairs must be >= 1, got {self.eval_pairs}")


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

    def for_method(self, method: Method) -> "ResultsTable":
        return ResultsTable(rows=[r for r in self.rows if r.method is method])

    def single_component_slice(self) -> "ResultsTable":
        """Rows quantizing exactly one component (per-component ablation view)."""
        return ResultsTable(rows=[r for r in self.rows if len(r.quantized_components) == 1])

    def pairwise_slice(self) -> "ResultsTable":
        """Rows quantizing exactly two components (interaction view)."""
        return ResultsTable(rows=[r for r in self.rows if len(r.quantized_components) == 2])

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


def run_uniform_grid(
    spec: PipelineSpec,
    probes: ProbeSet,
    grid: GridSpec,
    workers: int = 1,
    skip_run_ids: frozenset[str] = frozenset(),
) -> ResultsTable:
    """Per-tensor uniform quantization over every non-empty-effect cell.

    With three active components and default axes this yields
    4 bits x 7 component subsets x 7 group subsets x 3 layer-type subsets
    cells plus one baseline row per task and seed. Cells whose run_id is in
    ``skip_run_ids`` are not re-executed (resume support).
    """
    comp_subsets = grid.component_subsets or _nonempty_subsets(COMPONENT_ORDER)
    group_subsets = grid.group_subsets or _nonempty_subsets(GROUP_ORDER)
    lt_subsets = grid.layer_type_subsets or _nonempty_subsets(LAYER_TYPE_ORDER)
    eval_probes = probes.take(grid.eval_pairs) if grid.eval_pairs else probes

    table = ResultsTable()
    for run_seed in grid.seeds:
        fp = _seeded_model(spec, run_seed)
        for task in grid.tasks:
            baseline = _baseline_record(Method.UNIFORM, task, run_seed, group_size=0)
            if baseline.run_id not in skip_run_ids:
                table.rows.append(baseline)

        cells = []
        for k, comps, groups, lts in itertools.product(grid.bits, comp_subsets, group_subsets, lt_subsets):
            sel = Selector.make(comps, groups, lts)
            if not enumerate_layers(fp, sel):
                continue  # empty-effect cell, collapsed into the baseline row
            per_comp = {c: (k if c in comps else FP_BITS) for c in COMPONENT_ORDER}
            run_ids = {
                task: make_run_id(
                    Method.UNIFORM, task, per_comp[ComponentId.VISION],
                    per_comp[ComponentId.CONNECTOR], per_comp[ComponentId.LANGUAGE],
                    groups, lts, 0, run_seed,
                )
                for task in grid.tasks
            }
            pending = {t: rid for t, rid in run_ids.items() if rid not in skip_run_ids}
            if pending:
                cells.append((k, per_comp, groups, lts, sel, pending))

        # full-precision outputs every cell is scored against, once per task
        reference = {
            task: task_outputs(fp, eval_probes, task)
            for task in grid.tasks
            if any(task in cell[-1] for cell in cells)
        }

        def run_cell(cell):
            k, per_comp, groups, lts, sel, pending = cell
            rows, fails = [], []
            try:
                qw, ledger = apply_quantization(fp, sel, Method.UNIFORM, k)
                bpw = compute_bpw(ledger, fp)
                scores = {
                    task: agreement(task, task_outputs(qw, eval_probes, task), reference[task])
                    for task in pending
                }
            except Exception as exc:  # record, don't abort the grid
                for task, run_id in pending.items():
                    rows.append(
                        _failed_record(run_id, Method.UNIFORM, task, per_comp, groups, lts, 0, run_seed)
                    )
                    fails.append((run_id, str(exc)))
                return rows, fails
            for task, run_id in pending.items():
                rows.append(
                    RunRecord(
                        run_id=run_id, method=Method.UNIFORM, task=task,
                        vision_bits=per_comp[ComponentId.VISION],
                        connector_bits=per_comp[ComponentId.CONNECTOR],
                        language_bits=per_comp[ComponentId.LANGUAGE],
                        groups=frozenset(groups), layer_types=frozenset(lts),
                        group_size=0, bpw=bpw, score=scores[task], seed=run_seed, wall_ms=0,
                    )
                )
            return rows, fails

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_cell, cells))
        else:
            results = [run_cell(c) for c in cells]
        for rows, fails in results:
            table.rows.extend(rows)
            table.failures.extend(fails)
    return table.sorted_by_run_id()


def _baseline_record(method: Method, task: TaskKind, seed: int, group_size: int) -> RunRecord:
    run_id = make_run_id(
        method, task, FP_BITS, FP_BITS, FP_BITS, GROUP_ORDER, LAYER_TYPE_ORDER, group_size, seed
    )
    return RunRecord(
        run_id=run_id, method=method, task=task,
        vision_bits=FP_BITS, connector_bits=FP_BITS, language_bits=FP_BITS,
        groups=frozenset(GROUP_ORDER), layer_types=frozenset(LAYER_TYPE_ORDER),
        group_size=group_size, bpw=16.0, score=1.0, seed=seed, wall_ms=0,
    )


def _failed_record(run_id, method, task, bits_of, groups, lts, group_size, seed) -> RunRecord:
    return RunRecord(
        run_id=run_id, method=method, task=task,
        vision_bits=bits_of[ComponentId.VISION],
        connector_bits=bits_of[ComponentId.CONNECTOR],
        language_bits=bits_of[ComponentId.LANGUAGE],
        groups=frozenset(groups), layer_types=frozenset(lts),
        group_size=group_size, bpw=float("nan"), score=float("nan"), seed=seed, wall_ms=0,
    )


def _prefix_key(assignment: dict[ComponentId, int]) -> tuple[int, int]:
    """The bits the vision->connector prefix depends on."""
    return (
        assignment.get(ComponentId.VISION, FP_BITS),
        assignment.get(ComponentId.CONNECTOR, FP_BITS),
    )


def run_sota_grid(
    spec: PipelineSpec,
    probes: ProbeSet,
    methods: tuple[Method, ...] = (Method.GPTQ, Method.AWQ),
    bits: tuple[int, ...] = SOTA_BITS_DEFAULT,
    tasks: tuple[TaskKind, ...] = (TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA),
    seeds: tuple[int, ...] = (7,),
    group_size: int = 128,
    calibration_pairs: int = 128,
    eval_pairs: int | None = None,
    workers: int = 1,
    skip_run_ids: frozenset[str] = frozenset(),
) -> ResultsTable:
    """Full per-component bit cross product for the calibrated methods.

    Each active component independently takes a bit width from bits+{16};
    per-component quantizations are computed once per (method, component,
    bits) and shared across the cross product. The (16, 16, ..) combo is the
    full-precision baseline. Cells that fail are recorded with NaN scores;
    cells listed in ``skip_run_ids`` are not re-executed.
    """
    for m in methods:
        if m not in (Method.GPTQ, Method.AWQ):
            raise ValueError(f"SOTA grid supports GPTQ/AWQ, got {m}")
    table = ResultsTable()
    choices = tuple(sorted(set(bits) | {FP_BITS}))

    for run_seed in seeds:
        fp = _seeded_model(spec, run_seed)
        active = fp.spec.active_components()
        eval_probes = probes.take(eval_pairs) if eval_pairs else probes
        images = eval_probes.images
        calib = None
        fp_prefix = None
        reference: dict[TaskKind, object] = {}

        for method in methods:
            cells = []
            for combo in itertools.product(choices, repeat=len(active)):
                assignment = dict(zip(active, combo))
                bits_of = {c: assignment.get(c, FP_BITS) for c in COMPONENT_ORDER}
                run_ids = {
                    task: make_run_id(
                        method, task, bits_of[ComponentId.VISION],
                        bits_of[ComponentId.CONNECTOR], bits_of[ComponentId.LANGUAGE],
                        GROUP_ORDER, LAYER_TYPE_ORDER, group_size, run_seed,
                    )
                    for task in tasks
                }
                pending = {t: rid for t, rid in run_ids.items() if rid not in skip_run_ids}
                if pending:
                    cells.append((assignment, bits_of, pending))
            if not cells:
                continue
            if calib is None:
                calib = collect_calibration(fp, probes, n=calibration_pairs)
            if fp_prefix is None:
                fp_prefix = vision_prefix(fp, images)
            # full-precision outputs the cells are scored against, once per seed and task
            for task in tasks:
                if task not in reference and any(task in pending for _, _, pending in cells):
                    reference[task] = task_outputs(fp, eval_probes, task, prefix=fp_prefix)

            # stage 1: quantize each needed (component, bits) fragment once
            fragments: dict[tuple[ComponentId, int], tuple[dict, list] | Exception] = {}
            for assignment, _, _ in cells:
                for comp, k in assignment.items():
                    if k == FP_BITS or (comp, k) in fragments:
                        continue
                    try:
                        qw, ledger = apply_quantization(
                            fp, Selector.make(components=(comp,)), method, k, calib, group_size
                        )
                        updates = {e.layer: qw.layers[e.layer] for e in ledger.entries}
                        fragments[(comp, k)] = (updates, ledger.entries)
                    except Exception as exc:
                        fragments[(comp, k)] = exc

            def assemble(assignment):
                layers = dict(fp.layers)
                ledger = QuantizationLedger()
                for comp, k in assignment.items():
                    if k == FP_BITS:
                        continue
                    frag = fragments[(comp, k)]
                    if isinstance(frag, Exception):
                        return None, None, frag
                    updates, entries = frag
                    layers.update(updates)
                    ledger.entries.extend(entries)
                return ModelWeights(spec=fp.spec, layers=layers, extras=fp.extras, addresses=fp.addresses), ledger, None

            # stage 2: prefixes per (vision, connector) bits and retrieval text
            # embeddings per language bits, shared across the cross product
            prefixes = {(FP_BITS, FP_BITS): fp_prefix}
            txt_cache = {FP_BITS: reference[TaskKind.RETRIEVAL][1]} if TaskKind.RETRIEVAL in reference else {}
            for assignment, _, pending in cells:
                qw, _, failure = assemble(assignment)
                if failure is not None:
                    continue
                key = _prefix_key(assignment)
                if key not in prefixes:
                    prefixes[key] = vision_prefix(qw, images)
                lang_key = assignment.get(ComponentId.LANGUAGE, FP_BITS)
                if TaskKind.RETRIEVAL in pending and lang_key not in txt_cache:
                    txt_cache[lang_key] = text_embeddings(qw, eval_probes.texts)

            # stage 3: score cells (independent jobs over immutable state)
            def run_cell(cell):
                assignment, bits_of, pending = cell
                rows, fails = [], []
                qw, ledger, failure = assemble(assignment)
                for task, run_id in pending.items():
                    if failure is not None:
                        rows.append(
                            _failed_record(
                                run_id, method, task, bits_of, GROUP_ORDER, LAYER_TYPE_ORDER,
                                group_size, run_seed,
                            )
                        )
                        fails.append((run_id, str(failure)))
                        continue
                    prefix = prefixes[_prefix_key(assignment)]
                    if all(k == FP_BITS for k in assignment.values()):
                        outputs = reference[task]
                    elif task is TaskKind.RETRIEVAL:
                        outputs = (
                            image_embeddings(qw, images, prefix),
                            txt_cache[assignment.get(ComponentId.LANGUAGE, FP_BITS)],
                        )
                    else:
                        outputs = task_outputs(qw, eval_probes, task, prefix=prefix)
                    rows.append(
                        RunRecord(
                            run_id=run_id, method=method, task=task,
                            vision_bits=bits_of[ComponentId.VISION],
                            connector_bits=bits_of[ComponentId.CONNECTOR],
                            language_bits=bits_of[ComponentId.LANGUAGE],
                            groups=frozenset(GROUP_ORDER),
                            layer_types=frozenset(LAYER_TYPE_ORDER),
                            group_size=group_size,
                            bpw=compute_bpw(ledger, fp),
                            score=agreement(task, outputs, reference[task]),
                            seed=run_seed, wall_ms=0,
                        )
                    )
                return rows, fails

            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run_cell, cells))
            else:
                results = [run_cell(c) for c in cells]
            for rows, fails in results:
                table.rows.extend(rows)
                table.failures.extend(fails)
    return table.sorted_by_run_id()


# --- persistence -------------------------------------------------------------


def save_results(table: ResultsTable, path) -> None:
    lines = [CSV_HEADER] + [r.to_csv_row() for r in table.rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_tokens(raw: str, order, enum_cls, line_no: int):
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"line 1: bad header, expected {CSV_HEADER!r}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
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
                    groups=_parse_tokens(parts[6], GROUP_ORDER, BlockGroup, line_no),
                    layer_types=_parse_tokens(parts[7], LAYER_TYPE_ORDER, LayerType, line_no),
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
