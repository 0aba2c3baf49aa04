"""Deterministic toy multimodal pipeline with addressable linear layers.

Three components run in sequence: a vision tower over patch tokens, a
connector (either learned-query cross-attention or a bare linear projector),
and a causal language decoder conditioned on the connector output as a soft
prefix. Every attention/feed-forward weight matrix is addressable by
(component, block group, layer type) and can be swapped for its dequantized
quantization (simulated quantization: the replaced weights stay float32
inside the full-precision graph).

Block layout is uniform everywhere: four attention projections plus two
feed-forward matrices per block, pre-norm residual wiring. Layer norms have
no parameters. The only other parameters are the patch embedding, the
connector's learned queries or projector, the token and position embeddings
and the output head, and none of them is ever quantized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .numerics import RngStream, derive_seed, randn_matrix
from .quantizers import (
    LayerStats,
    Method,
    dequantize,
    awq_quantize,
    gptq_quantize,
    proxy_loss,
    rtn_group_quantize,
)

if TYPE_CHECKING:
    from .tasks import ProbeSet

NUM_QUERIES = 8
MAX_SEQ = 64
BOS_ID = 0
INIT_STD = 0.02
LN_EPS = 1e-5
CALIBRATION_ROW_CAP = 2048
CALIBRATION_PAIRS = 128
CAPTION_HORIZON = 16
VQA_HORIZON = 4
FP_BITS = 16  # a component at this bit width is left unquantized


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


class SpecError(ValueError):
    """A spec field out of range: ``key`` names the field, ``detail`` says why."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key}: {detail}")
        self.key, self.detail = key, detail


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
        for key, low in (("d_model", 1), ("heads", 1), ("ffn_mult", 1), ("patch_count", 1), ("vocab", 2)):
            if (value := getattr(self, key)) < low:
                raise SpecError(key, f"must be >= {low}, got {value}")
        if self.d_model % self.heads != 0:
            raise SpecError("heads", f"must divide d_model ({self.d_model}), got {self.heads}")
        blocked = ("vision_blocks", "language_blocks")
        if self.connector_kind is ConnectorKind.QUERY_CROSS_ATTENTION:
            blocked += ("connector_blocks",)
        elif self.connector_blocks != 0:
            raise SpecError("connector_blocks", f"must be 0 for a linear projector, got {self.connector_blocks}")
        for key in blocked:
            if (blocks := getattr(self, key)) < 3 or blocks % 3 != 0:
                raise SpecError(key, f"must be a positive multiple of 3, got {blocks}")

    def blocks_of(self, component: ComponentId) -> int:
        return {
            ComponentId.VISION: self.vision_blocks,
            ComponentId.CONNECTOR: self.connector_blocks,
            ComponentId.LANGUAGE: self.language_blocks,
        }[component]

    def active_components(self) -> tuple[ComponentId, ...]:
        """Components that own addressable layers."""
        return tuple(c for c in COMPONENT_ORDER if self.blocks_of(c) > 0)

    @property
    def prefix_tokens(self) -> int:
        """Decoder prefix tokens the connector emits: its queries, or a linear projector's patches."""
        return self.patch_count if self.connector_kind is ConnectorKind.LINEAR_PROJECTOR else NUM_QUERIES


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
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # formatted once: a grid reads every address's name for each of its cells
        object.__setattr__(self, "name", f"{self.component.value}.block{self.block_index}.{self.sublayer}")


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


@dataclass(frozen=True)
class LedgerEntry:
    """One quantized layer for bpw accounting: ``bits`` per weight, on one
    per-tensor grid when ``group_size`` is at least the layer's weight count."""

    layer: str
    method: Method
    bits: int
    group_size: int
    proxy_error: float


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


def _extra_shapes(spec: PipelineSpec) -> dict[str, tuple[int, int]]:
    """Shapes of the parameters that are not addressable layers, none of them in a block."""
    d = spec.d_model
    shapes = {"vision.patch_embed": (d, d)}
    if spec.connector_kind is ConnectorKind.QUERY_CROSS_ATTENTION:
        shapes["connector.queries"] = (NUM_QUERIES, d)
    else:
        shapes["connector.proj"] = (d, d)
    shapes["language.token_embedding"] = (spec.vocab, d)
    shapes["language.pos_embedding"] = (MAX_SEQ, d)
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

    extras = {
        name: randn_matrix(RngStream(derive_seed(spec.seed, "weights", name)), *shape, std=INIT_STD)
        for name, shape in _extra_shapes(spec).items()
    }
    return ModelWeights(spec=spec, layers=layers, extras=extras, addresses=addresses)


def element_count(spec, pairs: int) -> int:
    """An upper bound, in float32 elements, on the largest thing a command
    holds at once for ``spec``: the weights ``build_model`` allocates, or one
    array of a forward pass over ``pairs`` probe pairs (the probe images, a
    feed-forward hidden state, attention scores) or of its calibration (the
    float64 Gram of the widest layer input).

    It is counted from the shape tables, reading only ``spec``'s fields, so
    nothing is allocated and any object with those fields will do.
    """
    d, f = spec.d_model, spec.ffn_mult * spec.d_model
    per_block = sum(math.prod(shape) for shape in _sublayer_shapes(spec).values())
    blocks = spec.vision_blocks + spec.connector_blocks + spec.language_blocks
    weights = blocks * per_block + sum(math.prod(shape) for shape in _extra_shapes(spec).values())
    seq = max(spec.patch_count, MAX_SEQ)  # the longest sequence a tower runs
    return max(weights, pairs * seq * max(d, f, spec.heads * seq), 2 * f * f)


def enumerate_layers(weights: ModelWeights, sel: Selector) -> list[LayerAddress]:
    """Addresses matching the selector, in stable component/block/sublayer order."""
    return [addr for addr in weights.addresses if sel.matches(addr)]


# --- forward pass -----------------------------------------------------------

Recorder = Callable[[str, np.ndarray], None]
# Decoder keys and values per block name, each (batch, heads, positions, head_dim).
KVCache = dict[str, tuple[np.ndarray, np.ndarray]]

def _layer_norm(x: np.ndarray) -> np.ndarray:
    """Each row over the last axis to zero mean and unit variance."""
    n = np.float32(x.shape[-1])
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centered), axis=-1, keepdims=True) / n
    return centered / np.sqrt(var + np.float32(LN_EPS))


def _gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh form), written into ``x``, which it overwrites and returns.

    It works in place, in the operation order of the plain expression, whose
    bits it matches: the plain form's temporaries, each the size of the
    feed-forward hidden state, raised a grid's peak traced memory by 9–10%
    and made each call at least a third slower. It is the only block op that
    does: ``_layer_norm`` and ``_attention`` are their plain expressions, and
    the causal mask is built per call.
    """
    inner = np.float32(0.044715) * x
    inner *= x
    inner *= x
    np.add(x, inner, out=inner)
    inner *= np.float32(math.sqrt(2.0 / math.pi))
    np.tanh(inner, out=inner)
    inner += np.float32(1.0)
    x *= np.float32(0.5)
    x *= inner
    return x


def _linear(weights: ModelWeights, name: str, x: np.ndarray, recorder: Recorder | None) -> np.ndarray:
    """The linear layer ``name`` applied to ``x``, which ``recorder`` sees first as (rows, in_features)."""
    if recorder is not None:
        recorder(name, x.reshape(-1, x.shape[-1]))
    return x @ weights.layers[name].T


def _attention(
    weights: ModelWeights,
    base: str,
    x_q: np.ndarray,
    x_kv: np.ndarray | None,
    causal: bool,
    recorder: Recorder | None,
    cache: KVCache | None = None,
) -> np.ndarray:
    """Multi-head attention of the queries ``x_q`` over the keys and values
    ``x_kv``; ``x_kv`` None is self-attention, over ``x_q`` itself."""
    if x_kv is None:
        x_kv = x_q
    spec = weights.spec
    heads, d = spec.heads, spec.d_model
    head_dim = d // heads
    q = _linear(weights, f"{base}.attn.q_proj", x_q, recorder)
    k = _linear(weights, f"{base}.attn.k_proj", x_kv, recorder)
    v = _linear(weights, f"{base}.attn.v_proj", x_kv, recorder)

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
    if causal and sq > 1:  # a single query is the last position and sees every key: its mask is all zeros
        scores = scores + np.triu(np.full((sq, sk), np.float32(-1e9)), k=1 + sk - sq)
    probs = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    probs = probs / np.add.reduce(probs, axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
    return _linear(weights, f"{base}.attn.out_proj", ctx, recorder)


def _feed_forward(weights: ModelWeights, base: str, x: np.ndarray, recorder: Recorder | None) -> np.ndarray:
    """The feed-forward sublayer on its normed input ``x``, which it drops
    once the up-projection exists: the hidden state is ffn_mult times wider,
    and its recording sets a calibration pass's peak."""
    hidden = _linear(weights, f"{base}.ff.up", x, recorder)
    del x
    return _linear(weights, f"{base}.ff.down", _gelu(hidden), recorder)


def _block(
    weights: ModelWeights,
    base: str,
    x: np.ndarray,
    kv: np.ndarray | None,
    causal: bool,
    recorder: Recorder | None,
    cache: KVCache | None = None,
) -> np.ndarray:
    x = x + _attention(weights, base, _layer_norm(x), kv, causal, recorder, cache)
    return x + _feed_forward(weights, base, _layer_norm(x), recorder)


@dataclass
class BlockPath:
    """A stage's last run through its blocks, which the next run through the
    same path reuses.

    ``source`` holds the arrays the run's input was built from, and
    ``blocks`` holds, per block run in order, the arrays the block read and
    its output. A run from the same source takes block i's output from the
    path while blocks 0 to i read the same arrays as before. Both are
    compared by identity, never by value: a grid's models share array
    objects, and an equal-valued copy counts as a different array.
    """

    source: tuple = ()
    blocks: list[tuple[tuple[np.ndarray, ...], np.ndarray]] = field(default_factory=list)


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _tower(
    weights: ModelWeights,
    component: ComponentId,
    x: np.ndarray,
    kv: np.ndarray | None,
    recorder: Recorder | None = None,
    cache: KVCache | None = None,
    path: BlockPath | None = None,
    source: tuple = (),
) -> np.ndarray:
    """x, built from the arrays in ``source``, through a component's blocks and
    final norm; only the language tower's self-attention is causal.

    A ``path`` reuses the blocks its last run shares with this one (see
    ``BlockPath``) and then holds this run; it is not read or changed when a
    recorder or a cache is given.
    """
    causal = component is ComponentId.LANGUAGE
    reuse = path is not None and recorder is None and cache is None
    if reuse and not _same(path.source, source):
        path.source, path.blocks = source, []
    for i in range(weights.spec.blocks_of(component)):
        base = f"{component.value}.block{i}"
        if reuse:
            arrays = tuple(weights.layers[f"{base}.{s}"] for s in ATTN_SUBLAYERS + FF_SUBLAYERS)
            if i < len(path.blocks) and _same(path.blocks[i][0], arrays):
                x = path.blocks[i][1]
                continue
            del path.blocks[i:]
        x = _block(weights, base, x, kv, causal, recorder, cache)
        if reuse:
            path.blocks.append((arrays, x))
    return _layer_norm(x)


def encode_vision(
    weights: ModelWeights, images: np.ndarray, recorder: Recorder | None = None, path: BlockPath | None = None
) -> np.ndarray:
    """Vision tower over patch tokens: (batch, patch_count, d_model) in and out.

    A ``path`` reuses the blocks of its last run (see ``BlockPath``).
    """
    spec = weights.spec
    if images.ndim != 3 or images.shape[1] != spec.patch_count or images.shape[2] != spec.d_model:
        raise ValueError(
            f"image batch shape {images.shape} does not match "
            f"(*, {spec.patch_count}, {spec.d_model})"
        )
    embed = weights.extras["vision.patch_embed"]
    x = images.astype(np.float32) @ embed.T
    return _tower(weights, ComponentId.VISION, x, None, recorder, path=path, source=(images, embed))


def run_connector(
    weights: ModelWeights, vision_out: np.ndarray, recorder: Recorder | None = None, path: BlockPath | None = None
) -> np.ndarray:
    """Connector output tokens: learned queries cross-attending, or a projection.

    A ``path`` reuses the blocks of its last run (see ``BlockPath``).
    """
    spec = weights.spec
    if spec.connector_kind is ConnectorKind.LINEAR_PROJECTOR:
        return vision_out @ weights.extras["connector.proj"].T
    queries = weights.extras["connector.queries"]
    x = np.broadcast_to(queries, (vision_out.shape[0], NUM_QUERIES, spec.d_model)).astype(np.float32)
    return _tower(
        weights, ComponentId.CONNECTOR, x, vision_out, recorder, path=path, source=(vision_out, queries)
    )


def _decoder_input(weights: ModelWeights, prefix: np.ndarray | None, token_ids: np.ndarray, start: int) -> np.ndarray:
    """[prefix tokens, embedded token ids] plus the position embeddings from
    ``start``; a ``prefix`` None puts nothing before the token ids."""
    spec = weights.spec
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError(f"token ids must be (batch, length), got shape {token_ids.shape}")
    if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= spec.vocab):
        raise ValueError("token id out of vocabulary range")
    x = weights.extras["language.token_embedding"][token_ids]
    if prefix is not None:
        x = np.concatenate([prefix.astype(np.float32), x], axis=1)
    end = start + x.shape[1]
    if end > MAX_SEQ:
        raise ValueError(f"sequence length {end} exceeds maximum {MAX_SEQ}")
    return x + weights.extras["language.pos_embedding"][start:end]


def decode_hidden(
    weights: ModelWeights,
    prefix: np.ndarray | None,
    token_ids: np.ndarray,
    recorder: Recorder | None = None,
    cache: KVCache | None = None,
    path: BlockPath | None = None,
) -> np.ndarray:
    """Causal decoder over [prefix tokens, embedded token ids], with no prefix
    tokens when ``prefix`` is None; returns final hidden states.

    With a ``cache``, the call continues the sequence whose positions the
    cache holds, from the first position it does not hold (0 for an empty
    cache): it returns the hidden states of the new positions only and
    appends their keys and values to the cache. A ``path`` reuses the blocks
    of its last run from the same prefix, token ids and embeddings (see
    ``BlockPath``); alongside a recorder or a cache it is left untouched.
    """
    start = next(iter(cache.values()))[0].shape[2] if cache else 0
    extras = weights.extras
    source = (prefix, token_ids, extras["language.token_embedding"], extras["language.pos_embedding"])
    # unnamed, so the tower holds the input's only reference and drops it after block 0
    return _tower(
        weights, ComponentId.LANGUAGE, _decoder_input(weights, prefix, token_ids, start), None, recorder, cache,
        path, source,
    )


def greedy_generate(
    weights: ModelWeights, prefix: np.ndarray, prompt_ids: np.ndarray, horizon: int
) -> np.ndarray:
    """Greedy decode `horizon` tokens; argmax breaks ties toward the lower id.

    This is the one decoder of caption and VQA tokens. [prefix, prompt] is
    decoded once into a per-block key/value cache, then each step decodes
    only the token the previous step chose.
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
    cache: KVCache = {}
    hidden = decode_hidden(weights, prefix, ids, cache=cache)
    generated = np.empty((ids.shape[0], horizon), dtype=np.int64)
    for step in range(horizon):
        nxt = np.argmax(hidden[:, -1, :] @ head.T, axis=-1)
        generated[:, step] = nxt
        if step + 1 < horizon:
            hidden = decode_hidden(weights, None, nxt[:, None], cache=cache)
    return generated


def _unit_mean(x: np.ndarray) -> np.ndarray:
    pooled = x.mean(axis=1)
    return pooled / np.linalg.norm(pooled, axis=-1, keepdims=True)


def image_embeddings(prefix: np.ndarray) -> np.ndarray:
    """Unit-norm pooled connector output, one row per image."""
    return _unit_mean(prefix)


def bos_prompt(ids: np.ndarray) -> np.ndarray:
    """The decoder prompt [BOS, ids] per row, as int64: every prompt is built
    here, for retrieval and calibration text, VQA questions and a caption's
    bare BOS."""
    ids = np.asarray(ids, dtype=np.int64)
    return np.concatenate([np.full((ids.shape[0], 1), BOS_ID, dtype=np.int64), ids], axis=1)


def text_embeddings(weights: ModelWeights, prompt: np.ndarray, path: BlockPath | None = None) -> np.ndarray:
    """Unit-norm mean-pooled ``decode_hidden`` states over a [BOS, text]
    ``prompt`` with no prefix; a ``path`` reuses the blocks of its last run."""
    return _unit_mean(decode_hidden(weights, None, prompt, path=path))


# --- calibration ------------------------------------------------------------


def calibration_stages(
    weights: ModelWeights, probes: "ProbeSet | None"
) -> Iterator[tuple[ComponentId, dict[str, LayerStats] | None]]:
    """The one walk over the components, which ``grid`` and ``quantize`` take:
    each of ``COMPONENT_ORDER`` with its layers' input statistics on the first
    min(CALIBRATION_PAIRS, len(probes)) probe pairs, or with None and no tower
    run when ``probes`` is None.

    One teacher-forced caption-style pass (image prefix + BOS + text) runs a
    tower at a time, and after each yields (component, its layers' statistics);
    a linear projector's connector stage is empty. Between stages only the
    tower's output is held, so a consumer that drops each stage before asking
    for the next holds one component's statistics at a time. Each layer's rows
    are deterministically subsampled to at most CALIBRATION_ROW_CAP and reduced
    to ``LayerStats`` as they are recorded, in one float64 buffer per layer, so
    no activations are kept. Within a block the forward pass drops each
    activation once nothing reads it again, so while a feed-forward hidden state
    is recorded the pass holds that hidden state, the block's residual and
    input, and the float64 buffer and Gram of the sampled rows.
    """
    if probes is None:
        yield from ((comp, None) for comp in COMPONENT_ORDER)
        return
    n = min(CALIBRATION_PAIRS, len(probes))
    layers: dict[str, LayerStats] = {}

    def recorder(name: str, x: np.ndarray):
        rows = None
        if x.shape[0] > CALIBRATION_ROW_CAP:
            stream = RngStream(derive_seed(weights.spec.seed, "calibration", name))
            rows = stream.choice(x.shape[0], CALIBRATION_ROW_CAP)
        layers[name] = LayerStats.from_activations(x, rows)

    vision_out = encode_vision(weights, probes.images[:n], recorder=recorder)
    yield ComponentId.VISION, layers
    layers = {}
    prefix = run_connector(weights, vision_out, recorder=recorder)
    vision_out = None
    yield ComponentId.CONNECTOR, layers
    layers = {}
    decode_hidden(weights, prefix, bos_prompt(probes.texts[:n]), recorder=recorder)
    prefix = None
    yield ComponentId.LANGUAGE, layers


# --- quantization -----------------------------------------------------------


def apply_quantization(
    weights: ModelWeights,
    sel: Selector,
    method: Method,
    k: int,
    calib: dict[str, LayerStats] | None = None,
    group_size: int = 128,
) -> tuple[ModelWeights, list[LedgerEntry]]:
    """Replace selected layers with their dequantized quantization.

    This is the one place that turns a quantizer's stored matrix into
    weights, a proxy loss and a ledger entry. Returns a new ModelWeights
    sharing unselected tensors, plus a ledger with one entry per quantized
    layer, in address order. Each layer's stored matrix is dequantized once
    and scored once by ``proxy_loss``; uniform is grouped rounding with one
    group of the whole layer. GPTQ/AWQ require calibration covering every
    selected layer; the proxy error for Uniform/RTN is NaN without it. GPTQ
    keeps each layer's factor on its ``LayerStats``, so later bit widths
    from the same ``calib`` reuse it.
    """
    names = [addr.name for addr in enumerate_layers(weights, sel)]
    calibrated = calib if calib is not None else {}
    if method.calibrated:
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
            results = gptq_quantize(
                [weights.layers[name] for name in stack], [calibrated[name] for name in stack], k,
                group_size=group_size, names=stack,
            )
            gptq.update(zip(stack, results))

    new_layers = dict(weights.layers)
    ledger = []
    for name in names:
        w = weights.layers[name]
        stats = calibrated.get(name)
        group = w.size if method is Method.UNIFORM else group_size
        if method is Method.GPTQ:
            qm = gptq[name]
        elif method is Method.AWQ:
            qm, _ = awq_quantize(w, stats, k, group_size=group)
        else:
            qm = rtn_group_quantize(w, k, group)
        new_layers[name] = w_hat = dequantize(qm)
        # positional: the benchmark's proxy_loss counter reads the Gram matrix as argument 2
        proxy = proxy_loss(w, w_hat, stats.gram) if stats is not None else float("nan")
        ledger.append(LedgerEntry(layer=name, method=method, bits=k, group_size=group, proxy_error=proxy))
    quantized = ModelWeights(
        spec=weights.spec, layers=new_layers, extras=weights.extras, addresses=weights.addresses
    )
    return quantized, ledger
