"""Weight-only quantization of a single linear layer.

Three methods operate on a (out_features x in_features) float32 weight matrix:

* ``uniform_quantize``   - per-tensor min/max grid, round to nearest level.
* ``rtn_group_quantize`` - the same rounding with per-row input-channel
  groups; this is the inner grid shared by the calibrated methods.
* ``gptq_quantize``      - sequential column quantization where the not yet
  quantized columns absorb the rounding error, driven by the Cholesky factor
  of the damped inverse Gram matrix of calibration activations;
  ``gptq_quantize_stack`` runs one column sweep over same-shape layers.
* ``awq_quantize``       - grid search over a per-channel scaling exponent,
  scaling salient input channels up before rounding and folding the scales
  back into the stored grids. The alphas are scored together in chunks of
  about CHUNK_BYTES per array, in place, with the arithmetic of the grouped
  rounding, ``dequantize`` and ``proxy_loss``; only the winner is stored.

Calibration enters only through a layer's ``LayerStats``: the Gram matrix
X^T X of its input activations X and their mean |x| per channel. GPTQ reads
H = 2 X^T X, AWQ reads the magnitudes, and the proxy loss
||X (W - W_hat)^T||_F^2 equals tr(D X^T X D^T) with D = W - W_hat. All
methods are pure functions of (weights, statistics, config); the stored form
is a ``QuantizedMatrix`` whose ``dequantize`` fully reproduces the effective
weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import NotPositiveDefiniteError, _cholesky64, _invert_spd64

ALPHA_GRID = tuple(i / 20.0 for i in range(21))
SCALE_CLAMP = (1e-4, 1e4)
# bytes per float64 array of a stacked chunk: GPTQ factors, AWQ alpha scoring
CHUNK_BYTES = 1 << 20
# GPTQ: damping as a fraction of the Hessian's mean diagonal, and columns per lazy block update
GPTQ_DAMPING = 0.01
GPTQ_BLOCK = 32


class Method(enum.Enum):
    """Quantization methods accepted across the package."""

    UNIFORM = "uniform"
    RTN = "rtn"
    GPTQ = "gptq"
    AWQ = "awq"


class GridScheme(enum.Enum):
    PER_TENSOR = "per_tensor"
    PER_GROUP = "per_group"


@dataclass
class QuantizedMatrix:
    """Integer codes plus per-group (min, max) grids for one weight matrix.

    Groups run along input channels within each row; ``group_size`` equal to
    the element count encodes a single per-tensor grid. ``grid_lo``/``grid_hi``
    have shape (1, 1) for per-tensor and (rows, ceil(cols/group_size)) for
    per-group storage.
    """

    codes: np.ndarray
    bits: int
    scheme: GridScheme
    group_size: int
    grid_lo: np.ndarray
    grid_hi: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        levels = (1 << self.bits) - 1
        if not (2 <= self.bits <= 16):
            raise ValueError(f"bits must be in [2, 16], got {self.bits}")
        if self.codes.shape != (self.rows, self.cols):
            raise ValueError("codes shape does not match rows/cols")
        if int(self.codes.max(initial=0)) > levels:
            raise ValueError(f"code exceeds 2^{self.bits}-1")
        if np.any(self.grid_lo > self.grid_hi):
            raise ValueError("grid_lo must be <= grid_hi per group")
        n_groups = _group_count(self.cols, self.group_size)
        expect = (1, 1) if self.scheme is GridScheme.PER_TENSOR else (self.rows, n_groups)
        if self.grid_lo.shape != expect or self.grid_hi.shape != expect:
            raise ValueError(f"grid shape {self.grid_lo.shape}, expected {expect}")

    @property
    def code_bits(self) -> int:
        """Storage bits for the integer codes alone."""
        return self.bits * self.rows * self.cols


@dataclass(frozen=True)
class LayerStats:
    """Sufficient calibration statistics of one layer's input activations X.

    ``gram`` is X^T X in float64, ``magnitude`` the mean |x| per input channel
    and ``rows`` the number of activation rows they summarise.
    """

    gram: np.ndarray
    magnitude: np.ndarray
    rows: int

    @classmethod
    def from_activations(cls, x: np.ndarray) -> "LayerStats":
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D activations (rows, in_features), got shape {x.shape}")
        if x.shape[0] < 1:
            raise ValueError("calibration requires at least one sample")
        if not np.all(np.isfinite(x)):
            raise ValueError("calibration activations contain non-finite entries")
        x64 = np.asarray(x, dtype=np.float64)
        return cls(gram=x64.T @ x64, magnitude=np.mean(np.abs(x64), axis=0), rows=x.shape[0])


@dataclass
class CalibrationSet:
    """Per-layer calibration statistics recorded from probe pairs.

    ``factors`` is filled lazily by GPTQ: layer name -> the upper factor of
    that layer's damped inverse Hessian, which does not depend on the bit
    width.
    """

    layers: dict[str, LayerStats] = field(default_factory=dict)
    sample_count: int = 0
    factors: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


def _check_weight(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    return w.astype(np.float32, copy=False)


def _check_bits(k: int) -> int:
    if not (2 <= int(k) <= 16):
        raise ValueError(f"bit width must be in [2, 16], got {k}")
    return int(k)


def _group_count(cols: int, group_size: int) -> int:
    return max(1, -(-cols // group_size))


def _group_views(a: np.ndarray, group_size: int) -> list[np.ndarray]:
    """Views of a (count, rows, cols) array as (count, rows', groups, width) blocks.

    The last axis runs over one grid group: the whole matrix per tensor, else
    full groups plus at most one narrower tail group. This is the one
    definition of the group layout that rtn_group_quantize and the AWQ search
    share.
    """
    count, rows, cols = a.shape
    if group_size >= rows * cols:
        return [a.reshape(count, 1, 1, rows * cols)]
    width = min(group_size, cols)
    full = cols // width * width
    views = [a[:, :, :full].reshape(count, rows, full // width, width)]
    if full < cols:
        views.append(a[:, :, full:].reshape(count, rows, 1, cols - full))
    return views


def _encode(w64: np.ndarray, lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """Round-half-to-even codes against a (lo, hi) grid, clipped to range."""
    span = hi - lo
    ratio = np.where(span > 0, (w64 - lo) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(np.rint(levels * ratio), 0, levels).astype(np.uint16)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Map codes back to weights: (hi - lo) * code / (2^k - 1) + lo."""
    levels = (1 << q.bits) - 1
    codes = q.codes.astype(np.float64)
    if q.scheme is GridScheme.PER_TENSOR:
        lo = np.float64(q.grid_lo[0, 0])
        hi = np.float64(q.grid_hi[0, 0])
    else:
        col_group = np.arange(q.cols) // q.group_size
        lo = q.grid_lo.astype(np.float64)[:, col_group]
        hi = q.grid_hi.astype(np.float64)[:, col_group]
    return ((hi - lo) * (codes / levels) + lo).astype(np.float32)


def uniform_quantize(w: np.ndarray, k: int) -> QuantizedMatrix:
    """Per-tensor min/max quantization to k bits."""
    w = _check_weight(w)
    k = _check_bits(k)
    rows, cols = w.shape
    lo = np.float32(w.min())
    hi = np.float32(w.max())
    codes = _encode(w.astype(np.float64), np.float64(lo), np.float64(hi), (1 << k) - 1)
    return QuantizedMatrix(
        codes=codes,
        bits=k,
        scheme=GridScheme.PER_TENSOR,
        group_size=rows * cols,
        grid_lo=np.full((1, 1), lo, dtype=np.float32),
        grid_hi=np.full((1, 1), hi, dtype=np.float32),
        rows=rows,
        cols=cols,
    )


def rtn_group_quantize(w: np.ndarray, k: int, group_size: int) -> QuantizedMatrix:
    """Round-to-nearest with per-row min/max grids over input-channel groups."""
    w = _check_weight(w)
    k = _check_bits(k)
    if group_size <= 0:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    rows, cols = w.shape
    if group_size >= rows * cols:
        return uniform_quantize(w, k)

    levels = (1 << k) - 1
    codes = np.empty((1, rows, cols), dtype=np.uint16)
    lows, highs = [], []
    for v, c in zip(_group_views(w[None], group_size), _group_views(codes, group_size)):
        lo = v.min(axis=3, keepdims=True)
        hi = v.max(axis=3, keepdims=True)
        c[...] = _encode(v.astype(np.float64), lo.astype(np.float64), hi.astype(np.float64), levels)
        lows.append(lo[0, :, :, 0])
        highs.append(hi[0, :, :, 0])
    return QuantizedMatrix(
        codes=codes[0],
        bits=k,
        scheme=GridScheme.PER_GROUP,
        group_size=group_size,
        grid_lo=np.concatenate(lows, axis=1),
        grid_hi=np.concatenate(highs, axis=1),
        rows=rows,
        cols=cols,
    )


def proxy_loss(w: np.ndarray, w_hat: np.ndarray, gram: np.ndarray) -> float:
    """Calibration-set objective ||X (W - W_hat)^T||_F^2 from the Gram matrix.

    Computed as tr(D X^T X D^T) with D = W - W_hat, in float64.
    """
    w = np.asarray(w)
    w_hat = np.asarray(w_hat)
    gram = np.asarray(gram, dtype=np.float64)
    if w.shape != w_hat.shape:
        raise ValueError(f"weight shapes differ: {w.shape} vs {w_hat.shape}")
    if w.ndim != 2 or gram.shape != (w.shape[1], w.shape[1]):
        raise ValueError(f"Gram matrix shape {gram.shape} incompatible with weights {w.shape}")
    d = w.astype(np.float64) - w_hat.astype(np.float64)
    return float(np.sum((d @ gram) * d))


def _check_stats(stats: LayerStats, w: np.ndarray) -> None:
    if stats.gram.shape != (w.shape[1], w.shape[1]):
        raise ValueError(f"calibration Gram matrix {stats.gram.shape} does not match in_features {w.shape[1]}")


def _raise_first(failed: dict[int, NotPositiveDefiniteError], names: Sequence[str | None]) -> None:
    """Raise the recorded failure of the first failed slice, naming its layer."""
    if failed:
        s = min(failed)
        raise NotPositiveDefiniteError(failed[s].column, failed[s].pivot, layer=names[s])


def _inverse_hessian_factor(hessians: np.ndarray, damping: float, names: Sequence[str | None]) -> np.ndarray:
    """Upper factors U with (H + lambda I)^-1 = U^T U for a stack of Hessians.

    Only the slices that fail are retried, once, at 10x damping; a failure
    after that raises with the slice's layer name.
    """
    inv, failed = _invert_spd64(hessians, damping)
    if failed:
        retry = sorted(failed)
        inv_retry, failed = _invert_spd64(hessians[retry], damping * 10.0)
        _raise_first(failed, [names[s] for s in retry])
        inv[retry] = inv_retry
    lower, failed = _cholesky64(inv)
    _raise_first(failed, names)
    return np.swapaxes(lower, 1, 2)


def _gptq_hessians(stats: Sequence[LayerStats]) -> np.ndarray:
    """Stacked H = 2 X^T X, with a unit diagonal on dead (zero-activation) input channels."""
    hessians = np.stack([st.gram for st in stats])
    hessians *= 2.0
    for hessian in hessians:
        dead = np.diag(hessian) == 0.0
        hessian[dead, dead] = 1.0
    return hessians


def _gptq_factors(stats: Sequence[LayerStats], names: Sequence[str | None], memo: dict | None) -> np.ndarray:
    """The stack's upper factors; with a ``memo``, each layer name is factored once.

    Missing factors are computed in stacked chunks of about CHUNK_BYTES
    per array, which bounds the memory a factorization holds at once, and the
    memo keeps views of the returned stack rather than copies.
    """
    keys = list(names) if memo is not None else list(range(len(stats)))
    memo = {} if memo is None else memo
    n = stats[0].gram.shape[0]
    lower = np.empty((len(stats), n, n), dtype=np.float64)
    missing = []
    for s, key in enumerate(keys):
        if key in memo:
            lower[s] = memo[key].T
        else:
            missing.append(s)
    chunk = max(1, CHUNK_BYTES // stats[0].gram.nbytes)
    for c0 in range(0, len(missing), chunk):
        part = missing[c0 : c0 + chunk]
        hessians = _gptq_hessians([stats[s] for s in part])
        lower[part] = np.swapaxes(_inverse_hessian_factor(hessians, GPTQ_DAMPING, [names[s] for s in part]), 1, 2)
    # the transpose of a C-ordered lower stack: each slice has the layout of a fresh factor
    upper = np.swapaxes(lower, 1, 2)
    memo.update((keys[s], upper[s]) for s in missing)
    return upper


def gptq_quantize(w: np.ndarray, stats: LayerStats, k: int, group_size: int = 128) -> tuple[QuantizedMatrix, float]:
    """Quantize columns left to right, compensating error into later columns.

    After column q is rounded, the remaining columns move by
    ``(w_q - dq_q) / U_qq * U[q, q:]`` where U is the upper Cholesky factor of
    the damped inverse Hessian (H = 2 X^T X). Grids are per-row min/max over
    input-channel groups, computed from the compensated weights at each group
    boundary. Returns the stored matrix and ``||X (W - W_hat)^T||_F^2``.
    """
    return gptq_quantize_stack([w], [stats], k, group_size)[0]


def gptq_quantize_stack(
    ws: Sequence[np.ndarray],
    stats: Sequence[LayerStats],
    k: int,
    group_size: int = 128,
    names: Sequence[str] | None = None,
    factors: dict | None = None,
) -> list[tuple[QuantizedMatrix, float]]:
    """``gptq_quantize`` over same-shape layers at once, one result per layer.

    Layers are independent, so every column step runs elementwise over the
    stack and the block update is one matmul per layer with the same shapes
    as a single layer's. ``names`` label errors; with them, ``factors`` (for
    example ``CalibrationSet.factors``) memoises the inverse-Hessian factors.
    """
    ws = [_check_weight(w) for w in ws]
    k = _check_bits(k)
    if group_size <= 0:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if len(ws) != len(stats) or len({w.shape for w in ws}) != 1:
        raise ValueError("a GPTQ stack needs one LayerStats per weight and weights of one shape")
    for w, st in zip(ws, stats):
        _check_stats(st, w)
    if factors is not None and names is None:
        raise ValueError("a factor memo needs layer names")
    count = len(ws)
    rows, cols = ws[0].shape
    levels = (1 << k) - 1
    per_tensor = group_size >= rows * cols

    work = np.stack(ws).astype(np.float64)
    for s, st in enumerate(stats):
        work[s][:, np.diag(st.gram) == 0.0] = 0.0
    upper = _gptq_factors(stats, [None] * count if names is None else names, factors)

    codes = np.empty((count, rows, cols), dtype=np.uint16)
    if per_tensor:
        grid_lo = work.reshape(count, -1).min(axis=1).astype(np.float32).reshape(count, 1, 1)
        grid_hi = work.reshape(count, -1).max(axis=1).astype(np.float32).reshape(count, 1, 1)
        lo = grid_lo[:, :, 0].astype(np.float64)
        hi = grid_hi[:, :, 0].astype(np.float64)
    else:
        grid_lo = np.zeros((count, rows, _group_count(cols, group_size)), dtype=np.float32)
        grid_hi = np.zeros_like(grid_lo)

    for b0 in range(0, cols, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, cols)
        err_block = np.zeros((count, rows, b1 - b0), dtype=np.float64)
        for col in range(b0, b1):
            if not per_tensor and col % group_size == 0:
                g = col // group_size
                g1 = min(col + group_size, cols)
                grid_lo[:, :, g] = work[:, :, col:g1].min(axis=2).astype(np.float32)
                grid_hi[:, :, g] = work[:, :, col:g1].max(axis=2).astype(np.float32)
                lo = grid_lo[:, :, g].astype(np.float64)
                hi = grid_hi[:, :, g].astype(np.float64)
            w_col = work[:, :, col]
            c = _encode(w_col, lo, hi, levels)
            codes[:, :, col] = c
            dq = (hi - lo) * (c.astype(np.float64) / levels) + lo
            err = (w_col - dq) / upper[:, col, col, None]
            if col + 1 < b1:
                work[:, :, col + 1 : b1] -= err[:, :, None] * upper[:, col, None, col + 1 : b1]
            err_block[:, :, col - b0] = err
        if b1 < cols:
            work[:, :, b1:] -= err_block @ upper[:, b0:b1, b1:]

    results = []
    for s in range(count):
        qm = QuantizedMatrix(
            codes=codes[s],
            bits=k,
            scheme=GridScheme.PER_TENSOR if per_tensor else GridScheme.PER_GROUP,
            group_size=rows * cols if per_tensor else group_size,
            grid_lo=grid_lo[s],
            grid_hi=grid_hi[s],
            rows=rows,
            cols=cols,
        )
        results.append((qm, proxy_loss(ws[s], dequantize(qm), stats[s].gram)))
    return results


def _alpha_scales(magnitude: np.ndarray) -> np.ndarray:
    """Geomean-normalized per-channel scales, one row per alpha of ALPHA_GRID.

    Row i is ``(a_j / geomean(a)) ** ALPHA_GRID[i]`` clipped to SCALE_CLAMP;
    zero-activation channels, alpha 0 and layers without an active channel
    stay at 1. The geomean and the ratio are computed once per layer.
    """
    table = np.ones((len(ALPHA_GRID), magnitude.shape[0]), dtype=magnitude.dtype)
    active = magnitude > 0
    if active.any():
        ratio = magnitude[active] / math.exp(float(np.mean(np.log(magnitude[active]))))
        for row, alpha in zip(table, ALPHA_GRID):
            if alpha != 0.0:
                # a Python float exponent keeps numpy's sqrt and identity paths
                row[active] = np.clip(ratio**alpha, *SCALE_CLAMP)
    return table


def _awq_losses(w: np.ndarray, gram: np.ndarray, k: int, group_size: int, table: np.ndarray) -> np.ndarray:
    """Proxy loss of the descaled RTN reconstruction under each row of scales.

    Bit for bit what rtn_group_quantize, dequantize and proxy_loss give per
    row, computed in chunks of about CHUNK_BYTES per float64 array, each in
    place on one float64 and one float32 buffer. The loss matmul runs one
    gemm per row with a single layer's shapes, and each row is summed alone.
    """
    rows, cols = w.shape
    levels = (1 << k) - 1
    w64 = w.astype(np.float64)
    chunk = max(1, CHUNK_BYTES // max(1, w64.nbytes))
    size = min(chunk, len(table))
    buf = np.empty((size, rows, cols), dtype=np.float64)
    buf32 = np.empty((size, rows, cols), dtype=np.float32)
    prod = np.empty_like(buf)
    losses = np.empty(len(table), dtype=np.float64)
    for a0 in range(0, len(table), chunk):
        scales = table[a0 : a0 + chunk, None, :]
        x, x32, p = buf[: len(scales)], buf32[: len(scales)], prod[: len(scales)]
        np.multiply(w64, scales, out=x)
        np.copyto(x32, x)  # the scaled float32 weights rtn_group_quantize reads
        np.copyto(x, x32)
        for v, v32 in zip(_group_views(x, group_size), _group_views(x32, group_size)):
            lo = v32.min(axis=3, keepdims=True).astype(np.float64)
            hi = v32.max(axis=3, keepdims=True).astype(np.float64)
            span = hi - lo
            # an overflowed entry is its group's min or max, so its span is not finite
            if not np.all(np.isfinite(span)):
                raise ValueError("weight matrix contains non-finite entries")
            v -= lo  # a zero-span group is constant, so this leaves it exactly 0
            v /= np.where(span > 0, span, 1.0)
            v *= levels
            np.rint(v, out=v)
            np.clip(v, 0, levels, out=v)
            # dequantize from the float codes, which are exact integers
            v /= levels
            v *= span
            v += lo
        np.copyto(x32, x)  # dequantize returns float32
        np.copyto(x, x32)
        x /= scales
        np.copyto(x32, x)  # w_eff is float32; proxy_loss widens it again
        np.copyto(x, x32)
        np.subtract(w64, x, out=x)
        np.matmul(x, gram, out=p)
        p *= x
        losses[a0 : a0 + len(scales)] = [np.sum(slab) for slab in p]
    return losses


def awq_quantize(
    w: np.ndarray, stats: LayerStats, k: int, group_size: int = 128
) -> tuple[QuantizedMatrix, float, float]:
    """Activation-aware quantization via per-channel scaling search.

    Channels with larger mean |activation| are scaled up by
    ``(a_j / geomean(a))^alpha`` before rounding, spending grid resolution on
    salient channels; alpha is picked from a 21-point grid by the proxy loss
    of the descaled reconstruction, the first alpha winning ties. All alphas
    are scored together in chunks (``_awq_losses``); only the winner is
    quantized into a ``QuantizedMatrix``. Its scales are folded into the
    stored grids (one (lo, hi) pair per channel) so plain ``dequantize``
    reproduces the effective weights.
    """
    w = _check_weight(w)
    k = _check_bits(k)
    if group_size <= 0:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    _check_stats(stats, w)

    table = _alpha_scales(stats.magnitude)
    losses = _awq_losses(w, np.asarray(stats.gram, dtype=np.float64), k, group_size, table)
    best = 0
    # strict <: a tie keeps the smaller alpha, and a NaN loss never takes over
    for i in range(1, len(losses)):
        if losses[i] < losses[best]:
            best = i
    alpha, scales = ALPHA_GRID[best], table[best]
    qm_scaled = rtn_group_quantize((w.astype(np.float64) * scales).astype(np.float32), k, group_size)
    if np.all(scales == 1.0):
        # alpha = 0 (or flat activations): identical to plain RTN, stored as such.
        return qm_scaled, alpha, proxy_loss(w, dequantize(qm_scaled), stats.gram)

    rows, cols = w.shape
    col_group = np.arange(cols) // qm_scaled.group_size
    if qm_scaled.scheme is GridScheme.PER_TENSOR:
        lo_scaled = np.full((rows, cols), qm_scaled.grid_lo[0, 0], dtype=np.float64)
        hi_scaled = np.full((rows, cols), qm_scaled.grid_hi[0, 0], dtype=np.float64)
    else:
        lo_scaled = qm_scaled.grid_lo.astype(np.float64)[:, col_group]
        hi_scaled = qm_scaled.grid_hi.astype(np.float64)[:, col_group]
    qm = QuantizedMatrix(
        codes=qm_scaled.codes,
        bits=k,
        scheme=GridScheme.PER_GROUP,
        group_size=1,
        grid_lo=(lo_scaled / scales).astype(np.float32),
        grid_hi=(hi_scaled / scales).astype(np.float32),
        rows=rows,
        cols=cols,
    )
    return qm, alpha, proxy_loss(w, dequantize(qm), stats.gram)
