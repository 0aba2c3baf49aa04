"""Grid execution over bit widths and pipeline axes, with bpw accounting.

``run_grid`` is the one sweep engine. A cell is a bit width per component
plus the block groups and layer types it quantizes:

* uniform  - one per-tensor bit width over every non-empty (components,
  block groups, layer types) subset, plus the full-precision baseline.
  Cells whose selector matches no layer collapse into the baseline.
* GPTQ/AWQ - the full per-component bit cross product over all groups and
  layer types, where 16 encodes "leave unquantized".

Each row is a ``RunRecord`` with a stable content-addressed ``run_id`` and
the bits per weight ``compute_bpw`` prices. A results set is a plain list of
records; persistence is a CSV whose columns are ``RunRecord``'s fields and
whose save/load round-trips exactly.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import get_args, get_origin, get_type_hints

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
    LedgerEntry,
    ModelWeights,
    PipelineSpec,
    Selector,
    SpecError,
    TaskKind,
    bos_prompt,
    build_model,
    calibration_stages,
    enumerate_layers,
    image_embeddings,
    text_embeddings,
)
from .quantizers import DEFAULT_GROUP_SIZE, FP_BITS, MIN_BITS, Method, per_tensor
from .tasks import ProbeSet, agreement

GRID_METHODS = (Method.UNIFORM, Method.GPTQ, Method.AWQ)  # the methods a grid sweeps
UNIFORM_BITS_DEFAULT = (2, 4, 6, 8)
SOTA_BITS_DEFAULT = (2, 3, 4, 5, 6, 8)

# Storage accounting convention: two 16-bit endpoints per quantization group
# (fractional trailing groups counted pro rata); per-tensor grids store two
# 32-bit endpoints per layer. Unquantized weights count at 16 bits.
GROUP_OVERHEAD_BITS = 32
PER_TENSOR_OVERHEAD_BITS = 64
_TOKEN_ORDER = GROUP_ORDER + LAYER_TYPE_ORDER
_BITS_FIELDS = tuple(f"{comp.value}_bits" for comp in COMPONENT_ORDER)  # a record's bits, per component


def _text(value) -> str:
    """A results field as CSV and run_id text: a token set as its tokens
    ``+``-joined in canonical order, an enum as its value, a real to 6
    significant digits."""
    if isinstance(value, frozenset):
        return "+".join(t.value for t in _TOKEN_ORDER if t in value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass(frozen=True)
class RunRecord:
    """One grid cell: configuration, bpw, and fidelity score. The fields, in
    order, are the results CSV's columns."""

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
    def component_bits(self) -> tuple[int, ...]:
        """The bit width of each component, in ``COMPONENT_ORDER``."""
        return tuple(getattr(self, name) for name in _BITS_FIELDS)

    @property
    def is_full_pipeline_star(self) -> bool:
        """Whole-pipeline cell at 8 or 16 bits over all groups and layer types."""
        return (
            set(self.component_bits) in ({8}, {FP_BITS})
            and self.groups == frozenset(GROUP_ORDER)
            and self.layer_types == frozenset(LAYER_TYPE_ORDER)
        )

    def to_csv_row(self) -> str:
        return ",".join(_text(getattr(self, name)) for name in _COLUMNS)


_COLUMNS = tuple(f.name for f in fields(RunRecord))
CSV_HEADER = ",".join(_COLUMNS)
# the fields a cell's run_id hashes: its configuration and seed
RUN_KEY = ("method", "task", *_BITS_FIELDS, "groups", "layer_types", "group_size", "seed")


def make_run_id(**key) -> str:
    """Pure content hash of a cell configuration: sha256 over the ``|``-joined
    text of its ``RUN_KEY`` fields, first 12 hex digits."""
    text = "|".join(_text(key[name]) for name in RUN_KEY)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class GridSpec:
    """Sweep configuration; None bits mean the method's default bits, and None
    subset lists mean "all non-empty subsets"."""

    bits: tuple[int, ...] | None = None
    tasks: tuple[TaskKind, ...] = (TaskKind.RETRIEVAL, TaskKind.CAPTION, TaskKind.VQA)
    seeds: tuple[int, ...] = (7,)
    group_size: int = DEFAULT_GROUP_SIZE
    component_subsets: tuple[tuple[ComponentId, ...], ...] | None = None
    group_subsets: tuple[tuple[BlockGroup, ...], ...] | None = None
    layer_type_subsets: tuple[tuple[LayerType, ...], ...] | None = None
    eval_pairs: int | None = None

    def __post_init__(self):
        for k in self.bits or ():
            if not (MIN_BITS <= k <= FP_BITS):
                raise SpecError("bits", f"must be in [{MIN_BITS}, {FP_BITS}], got {k}")
        if self.group_size < 1:
            raise SpecError("group_size", f"must be >= 1, got {self.group_size}")
        if self.eval_pairs is not None and self.eval_pairs < 1:
            raise SpecError("eval_pairs", f"must be >= 1, got {self.eval_pairs}")
        # an empty list would run no cell, or for a subset list every subset
        for name in ("bits", "tasks", "seeds", "component_subsets", "group_subsets", "layer_type_subsets"):
            values = getattr(self, name)
            if values == ():
                raise SpecError(name, "must not be empty")
            if values and () in values:
                raise SpecError(name, "must not hold an empty subset")
        # a repeated value would give two cells one run_id
        for name in ("bits", "tasks", "seeds", "component_subsets", "group_subsets", "layer_type_subsets"):
            values = getattr(self, name) or ()
            keys = [frozenset(v) if isinstance(v, tuple) else v for v in values]
            if len(set(keys)) != len(keys):
                # in the config's own text: tuples as lists, enums as their values
                raise SpecError(name, f"must not repeat a value, got {json.dumps(values, default=lambda m: m.value)}")


def _nonempty_subsets(items: tuple) -> tuple[tuple, ...]:
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return tuple(out)


def layer_sizes(weights: ModelWeights) -> dict[str, int]:
    """Weight count of every quantizable layer, in address order: ``compute_bpw``'s table."""
    return {addr.name: weights.layers[addr.name].size for addr in weights.addresses}


def compute_bpw(ledger: list[LedgerEntry], sizes: dict[str, int]) -> float:
    """Average storage bits per quantizable weight under the declared
    convention, over the layers of ``sizes = layer_sizes(weights)``."""
    total_params = sum(sizes.values())
    by_layer = {}
    for entry in ledger:
        if entry.layer not in sizes:
            raise ValueError(f"ledger references unknown layer {entry.layer!r}")
        by_layer[entry.layer] = entry
    bits = 0.0
    for name, numel in sizes.items():
        entry = by_layer.get(name)
        if entry is None:
            bits += FP_BITS * numel
        elif per_tensor(entry.group_size, numel):
            bits += entry.bits * numel + PER_TENSOR_OVERHEAD_BITS
        else:
            bits += entry.bits * numel + GROUP_OVERHEAD_BITS * numel / entry.group_size
    return bits / total_params


def _seeded_model(spec: PipelineSpec, run_seed: int) -> ModelWeights:
    return build_model(replace(spec, seed=derive_seed(run_seed, "model")))


# A component's share of a cell: (component, bits, names of the layers the
# cell quantizes in it), or None when the cell leaves it at full precision.
_Part = tuple[ComponentId, int, tuple[str, ...]] | None


def _cell(selected, shared: dict, bits: dict[ComponentId, int], groups, layer_types):
    """A cell as (its ``RunRecord`` fields but the task and results, its
    vision, connector and language parts); ``selected(comp, groups,
    layer_types)`` names the layers a selector picks."""
    parts = []
    for comp in COMPONENT_ORDER:
        names = selected(comp, groups, layer_types) if bits[comp] < FP_BITS else ()
        parts.append((comp, bits[comp], names) if names else None)
    config = {
        **shared, **{name: bits[comp] for comp, name in zip(COMPONENT_ORDER, _BITS_FIELDS)},
        "groups": frozenset(groups), "layer_types": frozenset(layer_types),
    }
    return config, tuple(parts)


def _plan(fp: ModelWeights, grid: GridSpec, method: Method, shared: dict) -> list[tuple[dict, tuple[_Part, ...]]]:
    """The baseline cell, then every cell that quantizes at least one layer;
    ``shared`` holds the fields every cell shares.

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

    @functools.cache  # once per (component, groups, layer types), not per cell
    def selected(comp, groups, layer_types):
        return tuple(a.name for a in enumerate_layers(fp, Selector.make((comp,), groups, layer_types)))

    cells = (_cell(selected, shared, *shape) for shape in shapes)
    return [_cell(selected, shared, fp_bits, GROUP_ORDER, LAYER_TYPE_ORDER)] + [c for c in cells if any(c[1])]


def _memo(fn, keys) -> dict:
    """fn once per distinct key, in key order; a key whose call raised maps to the exception."""

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
    skip_run_ids: frozenset[str] = frozenset(),
) -> Iterator[tuple[RunRecord, str | None]]:
    """Score every cell of a uniform subset grid or a GPTQ/AWQ cross product.

    Uniform sweeps one bit width over every (components, block groups, layer
    types) subset, plus one full-precision baseline row per task and seed;
    with three active components and default axes that is 4 x 7 x 7 x 3
    cells. GPTQ/AWQ give each active component a bit width from bits + {16}
    over all groups and layer types. ``grid.bits`` None means the method's
    default bits.

    Yields one (row, failure message or None) per task of each cell as soon
    as the cell is scored, in plan order: seeds outer, the baseline cell
    first, then the planned cells, with tasks in ``grid.tasks`` order. Rows
    are not sorted. An error fails exactly the cells that depend on it, as
    NaN rows with a message; a bad argument or a failing full-precision
    reference raises. Cells whose run_id is in ``skip_run_ids`` are not run
    (resume support). Cells are scored on the first ``grid.eval_pairs`` probe
    pairs (all when None), as the CLI checks.

    Per seed, one walk over ``calibration_stages`` calibrates a tower at a
    time. Each component is quantized once per bit width from its stage, and
    then its tower stage runs on the eval probes: the vision tower per vision
    part, the connector per (vision, connector) pair, the retrieval text
    embeddings per language part. Only then are the statistics dropped, GPTQ
    factors and all, and the next tower calibrated, so a grid holds one
    component's statistics at a time. A component's quantized layers go once
    its stage has run, except the language layers, which the decodes read;
    its ledger entries stay for bpw. A cell takes the layers its selector
    picks from those fragments, which is exact as every quantizer is per
    layer, and each stage and the decoder read a model holding only the part
    they read, as each tower reads only its own layers and the extras.

    Each stage output is memoised on the part it reads. A stage runs its
    distinct parts sorted by the layers they quantize per block, through one
    ``BlockPath``: a part reuses the outputs of the leading blocks it shares
    with the part before it, so a shared front or middle prefix runs once.
    The full-precision reference is the model whose parts are all None, and
    the generation tasks decode with ``greedy_generate`` from a prompt and
    horizon built once per grid.
    """
    if method not in GRID_METHODS:
        raise ValueError(f"grid supports uniform or GPTQ/AWQ, got {method.value}")
    group_size = 0 if method is Method.UNIFORM else grid.group_size
    eval_probes = probes.take(grid.eval_pairs) if grid.eval_pairs else probes
    images, texts, questions = eval_probes.images, eval_probes.texts, eval_probes.questions
    generation = {  # each generation task's (prompt, horizon)
        TaskKind.CAPTION: (bos_prompt(questions[:, :0]), CAPTION_HORIZON),
        TaskKind.VQA: (bos_prompt(questions), VQA_HORIZON),
    }

    for run_seed in grid.seeds:
        fp = _seeded_model(spec, run_seed)
        sizes = layer_sizes(fp)

        shared = {"method": method, "group_size": group_size, "seed": run_seed}
        cells = []  # (config, parts, {task: run_id} of the tasks still to run)
        for config, parts in _plan(fp, grid, method, shared):
            ids = ((task, make_run_id(**config, task=task)) for task in grid.tasks)
            pending = {task: rid for task, rid in ids if rid not in skip_run_ids}
            if pending:
                cells.append((config, parts, pending))
        if not cells:
            continue

        fragment_keys = [part[:2] for _, parts, _ in cells for part in parts if part]
        ledgers = {}  # (component, bits) -> its ledger entries by layer, or the error that failed it
        arrays = {}  # (component, bits) -> its dequantized layers by name, until nothing reads them

        def quantize(key, calib) -> dict[str, LedgerEntry]:
            comp, k = key
            qw, ledger = pipeline.apply_quantization(
                fp, Selector.make(components=(comp,)), method, k, calib, grid.group_size
            )
            arrays[key] = {e.layer: qw.layers[e.layer] for e in ledger}
            return {e.layer: e for e in ledger}

        def model(part) -> ModelWeights:
            """The full-precision model with one part's layers quantized: a stage
            or the decoder reads one part, as each tower reads only its own
            layers and the extras."""
            if part is None:
                return fp
            comp, k, names = part
            _ok(ledgers[(comp, k)])
            fragment = arrays[(comp, k)]
            return replace(fp, layers={**fp.layers, **{name: fragment[name] for name in names}})

        address = {a.name: a for a in fp.addresses}

        def blocks_key(part) -> tuple:
            """Per block, the bits and sublayers a part quantizes there: sorted
            on this, parts that share leading blocks run back to back."""
            if part is None:
                return ()
            comp, k, names = part
            blocks = [()] * fp.spec.blocks_of(comp)
            for name in names:
                blocks[address[name].block_index] += (address[name].sublayer,)
            return tuple((k, sublayers) if sublayers else () for sublayers in blocks)

        def stage(run, keys, order) -> dict:
            """``_memo`` of run(key, path) in ``order``, all through one block
            path, which goes when the stage ends."""
            path = pipeline.BlockPath()
            return _memo(lambda key: run(key, path), sorted(keys, key=order))

        reference_parts = (None, None, None)
        ref_tasks = [task for task in grid.tasks if any(task in pending for *_, pending in cells)]
        models = [(reference_parts, ref_tasks)] + [(parts, pending) for _, parts, pending in cells]
        text_prompt = bos_prompt(texts)  # one object for the stage: its path compares the prompt by identity

        # all of a component's bit widths from one stage, whose LayerStats keep the
        # GPTQ factors they share; dropped before the generator runs the next tower
        for comp, calib in calibration_stages(fp, probes if fragment_keys and method.calibrated else None):
            ledgers.update(_memo(functools.partial(quantize, calib=calib), [k for k in fragment_keys if k[0] is comp]))
            calib = None
            if comp is ComponentId.VISION:
                visions = stage(
                    lambda v, path: pipeline.encode_vision(model(v), images, path=path),
                    [parts[0] for parts, _ in models], blocks_key,
                )
            elif comp is ComponentId.CONNECTOR:
                prefixes = stage(
                    lambda vc, path: pipeline.run_connector(model(vc[1]), _ok(visions[vc[0]]), path=path),
                    [parts[:2] for parts, _ in models], lambda vc: (blocks_key(vc[0]), blocks_key(vc[1])),
                )
                visions = None  # the connector stage was their only reader
            else:
                text_memo = stage(
                    lambda lang, path: text_embeddings(model(lang), text_prompt, path=path),
                    [parts[2] for parts, tasks in models if TaskKind.RETRIEVAL in tasks], blocks_key,
                )
            if comp is not ComponentId.LANGUAGE:
                arrays.clear()  # its stage was their only reader; the ledger entries stay

        def model_outputs(parts, task):
            """A model's outputs on the eval probes, the operand of ``agreement``."""
            prefix = _ok(prefixes[parts[:2]])
            if task is TaskKind.RETRIEVAL:
                return image_embeddings(prefix), _ok(text_memo[parts[2]])
            return pipeline.greedy_generate(model(parts[2]), prefix, *generation[task])

        reference = {task: model_outputs(reference_parts, task) for task in ref_tasks}

        def score(parts, pending):
            try:
                bpw = compute_bpw([_ok(ledgers[part[:2]])[name] for part in parts if part for name in part[2]], sizes)
                scores = {}
                for task in pending:
                    # a baseline cell is the reference model: read its outputs, do not decode again
                    outputs = reference[task] if parts == reference_parts else model_outputs(parts, task)
                    scores[task] = agreement(task, outputs, reference[task])
            except Exception as exc:  # fail this cell's tasks, not the grid
                return float("nan"), {}, str(exc)
            return bpw, scores, None

        for config, parts, pending in cells:
            bpw, scores, error = score(parts, pending)
            for task, run_id in pending.items():
                yield RunRecord(
                    run_id=run_id, task=task, bpw=bpw, score=scores.get(task, float("nan")), wall_ms=0, **config
                ), error


# --- persistence -------------------------------------------------------------


def read_input(what: str, path) -> tuple[bytes, str]:
    """The bytes of ``path``, read once, and their text as a text-mode open decodes it (UTF-8, universal
    newlines); an unreadable or undecodable file raises ``cannot read <what> <path>: <reason>``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from None


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary sibling, then move it onto ``path``: a failed write keeps the old file."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:  # a full disk may fail the write or only the flush at close
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_results(rows: list[RunRecord], path) -> None:
    write_atomic(path, "\n".join([CSV_HEADER] + [r.to_csv_row() for r in rows]) + "\n")


def _parse_tokens(raw: str, enum_cls):
    if raw == "":
        return frozenset()
    values = {m.value: m for m in enum_cls}
    members = []
    for token in raw.split("+"):
        if token not in values:
            raise ValueError(f"unknown {enum_cls.__name__} token {token!r}")
        members.append(values[token])
    return frozenset(members)


def _column_parser(kind):
    """The parser of a results column from its field's type: a token set, or
    the type itself called on the raw text."""
    if get_origin(kind) is frozenset:
        (enum_cls,) = get_args(kind)
        return lambda raw: _parse_tokens(raw, enum_cls)
    return kind


_PARSERS = {name: _column_parser(kind) for name, kind in get_type_hints(RunRecord).items()}


def load_results(path) -> list[RunRecord]:
    text = read_input("results", path)[1]
    # (physical line number, text); blank lines are skipped but still counted
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln.strip() != ""]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"line {lines[0][0] if lines else 1}: bad header, expected {CSV_HEADER!r}")
    rows = []
    seen: dict[str, int] = {}  # run_id -> line number
    for line_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_PARSERS):
            raise ValueError(f"line {line_no}: expected {len(_PARSERS)} fields, got {len(parts)}")
        text = dict(zip(_PARSERS, parts))
        try:
            row = RunRecord(**{name: parse(text[name]) for name, parse in _PARSERS.items()})
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        for name, k in zip(_BITS_FIELDS, row.component_bits):
            if not MIN_BITS <= k <= FP_BITS:
                raise ValueError(f"line {line_no}: {name} must lie in [{MIN_BITS}, {FP_BITS}], got {k}")
        if not (np.isnan(row.score) or 0.0 <= row.score <= 1.0):
            raise ValueError(f"line {line_no}: score must be nan or lie in [0, 1], got {text['score']}")
        if not (np.isnan(row.bpw) or 0.0 < row.bpw < np.inf):
            raise ValueError(f"line {line_no}: bpw must be nan or a positive finite number, got {text['bpw']}")
        if row.group_size < 0:
            raise ValueError(f"line {line_no}: group_size must be >= 0, got {text['group_size']}")
        if row.run_id in seen:
            raise ValueError(f"line {line_no}: run_id {row.run_id} repeats line {seen[row.run_id]}")
        seen[row.run_id] = line_no
        rows.append(row)
    return rows


def pareto_frontier(rows: list[RunRecord], task: TaskKind) -> list[RunRecord]:
    """Rows not dominated in (lower bpw, higher score), bpw ascending.

    Exact ties on both axes are all retained; NaN-scored (failed) rows are
    excluded.
    """
    rows = [r for r in rows if r.task is task and np.isfinite(r.bpw) and np.isfinite(r.score)]
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
    return frontier
