"""Deterministic toy multimodal pipeline with addressable linear layers.

Three components run in sequence: a vision tower over patch tokens, a
connector (either learned-query cross-attention or a bare linear projector),
and a causal language decoder conditioned on the connector output as a soft
prefix. Every attention/feed-forward weight matrix is addressable by
(component, block group, layer type) and can be swapped for its dequantized
quantization (simulated quantization: the replaced weights stay float32
inside the full-precision graph).

Block layout is uniform everywhere: four attention projections plus two
feed-forward matrices per block, pre-norm residual wiring. Embeddings, layer
norms, learned queries and the output head are never quantized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .numerics import RngStream, derive_seed, randn_matrix
from .quantizers import (
    CalibrationSet,
    GridScheme,
    LayerStats,
    Method,
    QuantizedMatrix,
    dequantize,
    awq_quantize,
    gptq_quantize_stack,
    proxy_loss,
    rtn_group_quantize,
    uniform_quantize,
)

if TYPE_CHECKING:
    from .tasks import ProbeSet

NUM_QUERIES = 8
MAX_SEQ = 64
BOS_ID = 0
INIT_STD = 0.02
LN_EPS = 1e-5
CALIBRATION_ROW_CAP = 2048
CAPTION_HORIZON = 16
VQA_HORIZON = 4


class ComponentId(enum.Enum):
    VISION = "vision"
    CONNECTOR = "connector"
    LANGUAGE = "language"


class BlockGroup(enum.Enum):
    FRONT = "front"
    MIDDLE = "middle"
    END = "end"


class LayerType(enum.Enum):
    ATTN = "attn"
    FF = "ff"


class TaskKind(enum.Enum):
    RETRIEVAL = "retrieval"
    CAPTION = "caption"
    VQA = "vqa"


class ConnectorKind(enum.Enum):
    QUERY_CROSS_ATTENTION = "query_cross_attention"
    LINEAR_PROJECTOR = "linear_projector"


ATTN_SUBLAYERS = ("attn.q_proj", "attn.k_proj", "attn.v_proj", "attn.out_proj")
FF_SUBLAYERS = ("ff.up", "ff.down")

COMPONENT_ORDER = (ComponentId.VISION, ComponentId.CONNECTOR, ComponentId.LANGUAGE)
GROUP_ORDER = (BlockGroup.FRONT, BlockGroup.MIDDLE, BlockGroup.END)
LAYER_TYPE_ORDER = (LayerType.ATTN, LayerType.FF)


@dataclass(frozen=True)
class PipelineSpec:
    """Architecture hyperparameters; block counts keep front/middle/end thirds exact."""

    d_model: int = 64
    vision_blocks: int = 6
    connector_blocks: int = 3
    language_blocks: int = 6
    heads: int = 4
    ffn_mult: int = 4
    patch_count: int = 16
    vocab: int = 256
    connector_kind: ConnectorKind = ConnectorKind.QUERY_CROSS_ATTENTION
    seed: int = 0

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1 or self.d_model % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        for label, blocks in (("vision_blocks", self.vision_blocks), ("language_blocks", self.language_blocks)):
            if blocks < 3 or blocks % 3 != 0:
                raise ValueError(f"{label} must be a positive multiple of 3, got {blocks}")
        if self.connector_kind is ConnectorKind.QUERY_CROSS_ATTENTION:
            if self.connector_blocks < 3 or self.connector_blocks % 3 != 0:
                raise ValueError(
                    f"connector_blocks must be a positive multiple of 3, got {self.connector_blocks}"
                )
        elif self.connector_blocks != 0:
            raise ValueError("a linear projector connector has no blocks; set connector_blocks=0")
        if self.patch_count < 1 or self.vocab < 2 or self.ffn_mult < 1:
            raise ValueError("patch_count >= 1, vocab >= 2 and ffn_mult >= 1 required")

    def blocks_of(self, component: ComponentId) -> int:
        return {
            ComponentId.VISION: self.vision_blocks,
            ComponentId.CONNECTOR: self.connector_blocks,
            ComponentId.LANGUAGE: self.language_blocks,
        }[component]

    def active_components(self) -> tuple[ComponentId, ...]:
        """Components that own addressable layers."""
        return tuple(c for c in COMPONENT_ORDER if self.blocks_of(c) > 0)


def group_of(block_index: int, n_blocks: int) -> BlockGroup:
    third = n_blocks // 3
    if block_index < third:
        return BlockGroup.FRONT
    if block_index < 2 * third:
        return BlockGroup.MIDDLE
    return BlockGroup.END


@dataclass(frozen=True)
class LayerAddress:
    """Names one weight matrix: component, block, group third, layer type, sublayer."""

    component: ComponentId
    block_index: int
    group: BlockGroup
    layer_type: LayerType
    sublayer: str

    @property
    def name(self) -> str:
        return f"{self.component.value}.block{self.block_index}.{self.sublayer}"


@dataclass(frozen=True)
class Selector:
    """Subset selection over the three addressing axes; empty sets select nothing."""

    components: frozenset[ComponentId]
    groups: frozenset[BlockGroup]
    layer_types: frozenset[LayerType]

    @classmethod
    def make(
        cls,
        components: Iterable[ComponentId] = COMPONENT_ORDER,
        groups: Iterable[BlockGroup] = GROUP_ORDER,
        layer_types: Iterable[LayerType] = LAYER_TYPE_ORDER,
    ) -> "Selector":
        return cls(frozenset(components), frozenset(groups), frozenset(layer_types))

    @classmethod
    def everything(cls) -> "Selector":
        return cls.make()

    def matches(self, addr: LayerAddress) -> bool:
        return (
            addr.component in self.components
            and addr.group in self.groups
            and addr.layer_type in self.layer_types
        )


@dataclass
class ModelWeights:
    """All model parameters: addressable linear layers plus fixed extras."""

    spec: PipelineSpec
    layers: dict[str, np.ndarray]
    extras: dict[str, np.ndarray]
    addresses: tuple[LayerAddress, ...]

    @property
    def param_count(self) -> int:
        return sum(int(a.size) for a in self.layers.values()) + sum(
            int(a.size) for a in self.extras.values()
        )

    @property
    def quantizable_param_count(self) -> int:
        return sum(int(a.size) for a in self.layers.values())


@dataclass(frozen=True)
class LedgerEntry:
    """One quantized layer, with the storage convention used for bpw accounting."""

    layer: str
    method: Method
    bits: int
    group_size: int
    scheme: GridScheme
    proxy_error: float
    code_bits: int


@dataclass
class QuantizationLedger:
    entries: list[LedgerEntry] = field(default_factory=list)


def _sublayer_shapes(spec: PipelineSpec) -> dict[str, tuple[int, int]]:
    d = spec.d_model
    f = spec.ffn_mult * d
    return {
        "attn.q_proj": (d, d),
        "attn.k_proj": (d, d),
        "attn.v_proj": (d, d),
        "attn.out_proj": (d, d),
        "ff.up": (f, d),
        "ff.down": (d, f),
    }


def _enumerate_addresses(spec: PipelineSpec) -> tuple[LayerAddress, ...]:
    addresses = []
    for component in COMPONENT_ORDER:
        n_blocks = spec.blocks_of(component)
        for block in range(n_blocks):
            group = group_of(block, n_blocks)
            for sublayer in ATTN_SUBLAYERS:
                addresses.append(LayerAddress(component, block, group, LayerType.ATTN, sublayer))
            for sublayer in FF_SUBLAYERS:
                addresses.append(LayerAddress(component, block, group, LayerType.FF, sublayer))
    return tuple(addresses)


def _extra_shapes(spec: PipelineSpec) -> dict[str, tuple[int, ...]]:
    d = spec.d_model
    shapes: dict[str, tuple[int, ...]] = {"vision.patch_embed": (d, d)}
    for component in COMPONENT_ORDER:
        for block in range(spec.blocks_of(component)):
            for norm in ("norm1", "norm2"):
                shapes[f"{component.value}.block{block}.{norm}.scale"] = (d,)
                shapes[f"{component.value}.block{block}.{norm}.bias"] = (d,)
    shapes["vision.final_norm.scale"] = (d,)
    shapes["vision.final_norm.bias"] = (d,)
    if spec.connector_kind is ConnectorKind.QUERY_CROSS_ATTENTION:
        shapes["connector.queries"] = (NUM_QUERIES, d)
        shapes["connector.final_norm.scale"] = (d,)
        shapes["connector.final_norm.bias"] = (d,)
    else:
        shapes["connector.proj"] = (d, d)
    shapes["language.token_embedding"] = (spec.vocab, d)
    shapes["language.pos_embedding"] = (MAX_SEQ, d)
    shapes["language.final_norm.scale"] = (d,)
    shapes["language.final_norm.bias"] = (d,)
    shapes["language.output_head"] = (spec.vocab, d)
    return shapes


def build_model(spec: PipelineSpec) -> ModelWeights:
    """Deterministic init from spec.seed; every tensor gets its own name-keyed stream."""
    addresses = _enumerate_addresses(spec)
    shapes = _sublayer_shapes(spec)
    layers: dict[str, np.ndarray] = {}
    for addr in addresses:
        stream = RngStream(derive_seed(spec.seed, "weights", addr.name))
        w = randn_matrix(stream, *shapes[addr.sublayer], std=INIT_STD)
        if addr.sublayer in ("attn.out_proj", "ff.down"):
            # residual-path projections shrink with depth to keep activations O(1)
            w = (w / math.sqrt(2.0 * spec.blocks_of(addr.component))).astype(np.float32)
        layers[addr.name] = w

    extras: dict[str, np.ndarray] = {}
    for name, shape in _extra_shapes(spec).items():
        if name.endswith(".scale"):
            extras[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            extras[name] = np.zeros(shape, dtype=np.float32)
        else:
            stream = RngStream(derive_seed(spec.seed, "weights", name))
            rows = shape[0] if len(shape) == 2 else 1
            cols = shape[-1]
            extras[name] = randn_matrix(stream, rows, cols, std=INIT_STD).reshape(shape)
    return ModelWeights(spec=spec, layers=layers, extras=extras, addresses=addresses)


def enumerate_layers(weights: ModelWeights, sel: Selector) -> list[LayerAddress]:
    """Addresses matching the selector, in stable component/block/sublayer order."""
    return [addr for addr in weights.addresses if sel.matches(addr)]


# --- forward pass -----------------------------------------------------------

Recorder = Callable[[str, np.ndarray], None]
# Decoder keys and values per block name, each (batch, heads, positions, head_dim).
KVCache = dict[str, tuple[np.ndarray, np.ndarray]]


def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mean).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + np.float32(LN_EPS)) * scale + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    c = np.float32(math.sqrt(2.0 / math.pi))
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


def _record(recorder: Recorder | None, name: str, x: np.ndarray):
    if recorder is not None:
        recorder(name, x.reshape(-1, x.shape[-1]))


def _attention(
    weights: ModelWeights,
    base: str,
    x_q: np.ndarray,
    x_kv: np.ndarray,
    causal: bool,
    recorder: Recorder | None,
    cache: KVCache | None = None,
) -> np.ndarray:
    spec = weights.spec
    heads, d = spec.heads, spec.d_model
    head_dim = d // heads
    _record(recorder, f"{base}.attn.q_proj", x_q)
    _record(recorder, f"{base}.attn.k_proj", x_kv)
    _record(recorder, f"{base}.attn.v_proj", x_kv)
    q = x_q @ weights.layers[f"{base}.attn.q_proj"].T
    k = x_kv @ weights.layers[f"{base}.attn.k_proj"].T
    v = x_kv @ weights.layers[f"{base}.attn.v_proj"].T

    b, sq, _ = q.shape
    q = q.reshape(b, sq, heads, head_dim).transpose(0, 2, 1, 3)
    k = k.reshape(b, k.shape[1], heads, head_dim).transpose(0, 2, 1, 3)
    v = v.reshape(b, v.shape[1], heads, head_dim).transpose(0, 2, 1, 3)
    if cache is not None:
        if base in cache:
            k = np.concatenate([cache[base][0], k], axis=2)
            v = np.concatenate([cache[base][1], v], axis=2)
        cache[base] = (k, v)
    sk = k.shape[2]
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.float32(math.sqrt(head_dim))
    if causal:
        # queries are the last sq of the sk positions
        mask = np.triu(np.full((sq, sk), np.float32(-1e9)), k=1 + sk - sq)
        scores = scores + mask
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
    _record(recorder, f"{base}.attn.out_proj", ctx)
    return ctx @ weights.layers[f"{base}.attn.out_proj"].T


def _feed_forward(weights: ModelWeights, base: str, x: np.ndarray, recorder: Recorder | None) -> np.ndarray:
    _record(recorder, f"{base}.ff.up", x)
    hidden = _gelu(x @ weights.layers[f"{base}.ff.up"].T)
    _record(recorder, f"{base}.ff.down", hidden)
    return hidden @ weights.layers[f"{base}.ff.down"].T


def _block(
    weights: ModelWeights,
    base: str,
    x: np.ndarray,
    kv: np.ndarray | None,
    causal: bool,
    recorder: Recorder | None,
    cache: KVCache | None = None,
) -> np.ndarray:
    extras = weights.extras
    normed = _layer_norm(x, extras[f"{base}.norm1.scale"], extras[f"{base}.norm1.bias"])
    x = x + _attention(weights, base, normed, normed if kv is None else kv, causal, recorder, cache)
    normed = _layer_norm(x, extras[f"{base}.norm2.scale"], extras[f"{base}.norm2.bias"])
    return x + _feed_forward(weights, base, normed, recorder)


def encode_vision(weights: ModelWeights, images: np.ndarray, recorder: Recorder | None = None) -> np.ndarray:
    """Vision tower over patch tokens: (batch, patch_count, d_model) in and out."""
    spec = weights.spec
    if images.ndim != 3 or images.shape[1] != spec.patch_count or images.shape[2] != spec.d_model:
        raise ValueError(
            f"image batch shape {images.shape} does not match "
            f"(*, {spec.patch_count}, {spec.d_model})"
        )
    x = images.astype(np.float32) @ weights.extras["vision.patch_embed"].T
    for i in range(spec.vision_blocks):
        x = _block(weights, f"vision.block{i}", x, kv=None, causal=False, recorder=recorder)
    return _layer_norm(x, weights.extras["vision.final_norm.scale"], weights.extras["vision.final_norm.bias"])


def run_connector(weights: ModelWeights, vision_out: np.ndarray, recorder: Recorder | None = None) -> np.ndarray:
    """Connector output tokens: learned queries cross-attending, or a projection."""
    spec = weights.spec
    if spec.connector_kind is ConnectorKind.LINEAR_PROJECTOR:
        return vision_out @ weights.extras["connector.proj"].T
    x = np.broadcast_to(
        weights.extras["connector.queries"], (vision_out.shape[0], NUM_QUERIES, spec.d_model)
    ).astype(np.float32)
    for i in range(spec.connector_blocks):
        x = _block(weights, f"connector.block{i}", x, kv=vision_out, causal=False, recorder=recorder)
    return _layer_norm(
        x, weights.extras["connector.final_norm.scale"], weights.extras["connector.final_norm.bias"]
    )


def decode_hidden(
    weights: ModelWeights,
    prefix: np.ndarray,
    token_ids: np.ndarray,
    recorder: Recorder | None = None,
    cache: KVCache | None = None,
    start: int = 0,
) -> np.ndarray:
    """Causal decoder over [prefix tokens, embedded token ids]; returns final hidden states.

    With a ``cache``, the call continues a sequence whose first ``start``
    positions are held in it: it returns the hidden states of the new
    positions only and appends their keys and values to the cache.
    """
    spec = weights.spec
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError(f"token ids must be (batch, length), got shape {token_ids.shape}")
    if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= spec.vocab):
        raise ValueError("token id out of vocabulary range")
    tok = weights.extras["language.token_embedding"][token_ids]
    x = np.concatenate([prefix.astype(np.float32), tok], axis=1)
    end = start + x.shape[1]
    if end > MAX_SEQ:
        raise ValueError(f"sequence length {end} exceeds maximum {MAX_SEQ}")
    x = x + weights.extras["language.pos_embedding"][start:end]
    for i in range(spec.language_blocks):
        x = _block(weights, f"language.block{i}", x, kv=None, causal=True, recorder=recorder, cache=cache)
    return _layer_norm(
        x, weights.extras["language.final_norm.scale"], weights.extras["language.final_norm.bias"]
    )


def _empty_prefix(batch: int, d_model: int) -> np.ndarray:
    return np.zeros((batch, 0, d_model), dtype=np.float32)


def greedy_generate(
    weights: ModelWeights, prefix: np.ndarray, prompt_ids: np.ndarray, horizon: int
) -> np.ndarray:
    """Greedy decode `horizon` tokens; argmax breaks ties toward the lower id.

    [prefix, prompt] is decoded once into a key/value cache, then each step
    decodes only the token the previous step chose.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    ids = np.asarray(prompt_ids, dtype=np.int64)
    start = prefix.shape[1] + ids.shape[1]
    if start + horizon - 1 > MAX_SEQ:
        raise ValueError(
            f"prefix length {prefix.shape[1]} + prompt length {ids.shape[1]} + horizon {horizon} - 1 "
            f"exceeds maximum sequence length {MAX_SEQ}"
        )
    head = weights.extras["language.output_head"]
    step_prefix = _empty_prefix(ids.shape[0], weights.spec.d_model)
    cache: KVCache = {}
    hidden = decode_hidden(weights, prefix, ids, cache=cache)
    generated = np.empty((ids.shape[0], horizon), dtype=np.int64)
    for step in range(horizon):
        nxt = np.argmax(hidden[:, -1, :] @ head.T, axis=-1)
        generated[:, step] = nxt
        if step + 1 < horizon:
            hidden = decode_hidden(weights, step_prefix, nxt[:, None], cache=cache, start=start + step)
    return generated


def vision_prefix(weights: ModelWeights, images: np.ndarray) -> np.ndarray:
    """Connector output for an image batch: the soft prefix the decoder reads."""
    return run_connector(weights, encode_vision(weights, images))


def _unit_mean(x: np.ndarray) -> np.ndarray:
    pooled = x.mean(axis=1)
    return pooled / np.linalg.norm(pooled, axis=-1, keepdims=True)


def image_embeddings(prefix: np.ndarray) -> np.ndarray:
    """Unit-norm pooled connector output, one row per image of ``vision_prefix``."""
    return _unit_mean(prefix)


def text_embeddings(weights: ModelWeights, text_ids: np.ndarray) -> np.ndarray:
    """Unit-norm mean-pooled decoder hidden states over [BOS, text]."""
    text_ids = np.asarray(text_ids, dtype=np.int64)
    bos = np.full((text_ids.shape[0], 1), BOS_ID, dtype=np.int64)
    prompt = np.concatenate([bos, text_ids], axis=1)
    return _unit_mean(decode_hidden(weights, _empty_prefix(text_ids.shape[0], weights.spec.d_model), prompt))


def generation_prompt(probe_text: np.ndarray, mode: TaskKind) -> np.ndarray:
    bos = np.full((probe_text.shape[0], 1), BOS_ID, dtype=np.int64)
    if mode is TaskKind.CAPTION:
        return bos
    return np.concatenate([bos, np.asarray(probe_text, dtype=np.int64)], axis=1)


def generate_tokens(
    weights: ModelWeights,
    prefix: np.ndarray,
    mode: TaskKind,
    horizon: int,
    question_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Batched conditional generation for caption (image only) or VQA (image +
    question), decoded from the ``vision_prefix`` of the images."""
    if mode is TaskKind.CAPTION:
        prompt = generation_prompt(np.empty((prefix.shape[0], 0)), TaskKind.CAPTION)
    elif mode is TaskKind.VQA:
        if question_ids is None:
            raise ValueError("VQA generation requires question ids")
        prompt = generation_prompt(question_ids, TaskKind.VQA)
    else:
        raise ValueError(f"not a generation task: {mode}")
    return greedy_generate(weights, prefix, prompt, horizon)


# --- calibration ------------------------------------------------------------


def collect_calibration(weights: ModelWeights, probes: "ProbeSet", n: int = 128) -> CalibrationSet:
    """Record every addressable layer's input statistics on n probe pairs.

    One teacher-forced caption-style pass (image prefix + BOS + text) covers
    all three components. Each layer's rows are deterministically subsampled
    to at most CALIBRATION_ROW_CAP and reduced to ``LayerStats`` as they are
    recorded, so no activations are kept.
    """
    if len(probes.pairs) < n:
        raise ValueError(f"need at least {n} probe pairs for calibration, have {len(probes.pairs)}")
    layers: dict[str, LayerStats] = {}

    def recorder(name: str, x: np.ndarray):
        if x.shape[0] > CALIBRATION_ROW_CAP:
            stream = RngStream(derive_seed(weights.spec.seed, "calibration", name))
            x = x[stream.choice(x.shape[0], CALIBRATION_ROW_CAP)]
        layers[name] = LayerStats.from_activations(np.ascontiguousarray(x, dtype=np.float32))

    images = probes.images[:n]
    text = probes.texts[:n]
    vision_out = encode_vision(weights, images, recorder=recorder)
    prefix = run_connector(weights, vision_out, recorder=recorder)
    bos = np.full((n, 1), BOS_ID, dtype=np.int64)
    decode_hidden(weights, prefix, np.concatenate([bos, text], axis=1), recorder=recorder)
    return CalibrationSet(layers=layers, sample_count=n)


# --- quantization -----------------------------------------------------------


def apply_quantization(
    weights: ModelWeights,
    sel: Selector,
    method: Method,
    k: int,
    calib: CalibrationSet | None = None,
    group_size: int = 128,
) -> tuple[ModelWeights, QuantizationLedger]:
    """Replace selected layers with their dequantized quantization.

    Returns a new ModelWeights sharing unselected tensors, plus a ledger with
    per-layer storage accounting. GPTQ/AWQ require calibration covering every
    selected layer; the proxy error for Uniform/RTN is only filled in when
    calibration is available.
    """
    names = [addr.name for addr in enumerate_layers(weights, sel)]
    calibrated = calib.layers if calib is not None else {}
    if method in (Method.GPTQ, Method.AWQ):
        for name in names:
            if name not in calibrated:
                raise ValueError(f"missing calibration statistics for layer {name}")
    gptq = {}
    if method is Method.GPTQ:
        # one stacked call per weight shape; the ledger below keeps address order
        by_shape: dict[tuple[int, ...], list[str]] = {}
        for name in names:
            by_shape.setdefault(weights.layers[name].shape, []).append(name)
        for stack in by_shape.values():
            results = gptq_quantize_stack(
                [weights.layers[name] for name in stack], [calibrated[name] for name in stack], k,
                group_size=group_size, names=stack, factors=calib.factors,
            )
            gptq.update(zip(stack, results))

    new_layers = dict(weights.layers)
    ledger = QuantizationLedger()
    for name in names:
        w = weights.layers[name]
        stats = calibrated.get(name)
        if method is Method.UNIFORM:
            qm = uniform_quantize(w, k)
            proxy = proxy_loss(w, dequantize(qm), stats.gram) if stats is not None else float("nan")
        elif method is Method.RTN:
            qm = rtn_group_quantize(w, k, group_size)
            proxy = proxy_loss(w, dequantize(qm), stats.gram) if stats is not None else float("nan")
        elif method is Method.GPTQ:
            qm, proxy = gptq[name]
        else:
            qm, _, proxy = awq_quantize(w, stats, k, group_size=group_size)
        new_layers[name] = dequantize(qm)
        numel = w.size
        ledger.entries.append(
            LedgerEntry(
                layer=name,
                method=method,
                bits=k,
                group_size=numel if method is Method.UNIFORM else group_size,
                scheme=GridScheme.PER_TENSOR
                if (method is Method.UNIFORM or group_size >= numel)
                else GridScheme.PER_GROUP,
                proxy_error=proxy,
                code_bits=k * numel,
            )
        )
    quantized = ModelWeights(
        spec=weights.spec, layers=new_layers, extras=weights.extras, addresses=weights.addresses
    )
    return quantized, ledger
