"""Weight-only quantization of a single linear layer.

Three functions quantize (out_features x in_features) float32 weight
matrices and return only the stored ``QuantizedMatrix``:

* ``rtn_group_quantize`` - per-row min/max grids over input-channel groups,
  round to nearest level; one group of the whole matrix is per-tensor
  uniform. Its grid step ``_grid`` (a group's min and max) and rounding pair
  ``_round``/``_unround`` serve every method; ``dequantize`` uses the pair.
* ``gptq_quantize``      - sequential column quantization of a stack of
  same-shape layers, where the not yet quantized columns absorb the rounding
  error, driven by the Cholesky factor of the damped inverse Gram matrix.
* ``awq_quantize``       - grid search over a per-channel scaling exponent,
  scaling salient input channels up before rounding and folding the scales
  back into the stored grids. The alphas are scored together in chunks of
  about CHUNK_BYTES per array, in place, through the same rounding pair and
  with ``proxy_loss``'s arithmetic; only the winner is stored.

Calibration enters only through a layer's ``LayerStats``: the Gram matrix
X^T X of its input activations X and their mean |x| per channel. GPTQ reads
H = 2 X^T X, AWQ reads the magnitudes, and the proxy loss
||X (W - W_hat)^T||_F^2 equals tr(D X^T X D^T) with D = W - W_hat. All
methods are pure functions of (weights, statistics, config); the stored form
is a ``QuantizedMatrix`` whose ``dequantize`` fully reproduces the effective
weights; ``pipeline.apply_quantization`` turns it into weights and a loss.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import NotPositiveDefiniteError, _cholesky64, _invert_spd64

# codes take MIN_BITS to FP_BITS bits; a grid cell at FP_BITS leaves its component unquantized
MIN_BITS = 2
FP_BITS = 16
DEFAULT_GROUP_SIZE = 128  # input channels per grid group
ALPHA_GRID = tuple(i / 20.0 for i in range(21))
SCALE_CLAMP = (1e-4, 1e4)
# bytes per float64 array of a chunk: calibration rows, GPTQ factors, AWQ alpha scoring
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

    @property
    def calibrated(self) -> bool:
        """Whether the method reads calibration statistics (``LayerStats``)."""
        return self is Method.GPTQ or self is Method.AWQ


def per_tensor(group_size: int, numel: int) -> bool:
    """Whether ``group_size`` puts all ``numel`` weights of a layer on one grid: the per-tensor scheme."""
    return group_size >= numel


@dataclass
class QuantizedMatrix:
    """Integer codes plus per-group (min, max) grids for one weight matrix.

    Groups run along input channels within each row. A ``group_size`` of at
    least the element count encodes a single per-tensor grid of shape (1, 1);
    otherwise ``grid_lo``/``grid_hi`` have shape (rows, ceil(cols/group_size)).
    """

    codes: np.ndarray
    bits: int
    group_size: int
    grid_lo: np.ndarray
    grid_hi: np.ndarray

    def __post_init__(self):
        self.bits = _check_grid_args(self.bits, self.group_size)
        if int(self.codes.max(initial=0)) > (1 << self.bits) - 1:
            raise ValueError(f"code exceeds 2^{self.bits}-1")
        if np.any(self.grid_lo > self.grid_hi):
            raise ValueError("grid_lo must be <= grid_hi per group")
        rows, cols = self.codes.shape
        expect = (1, 1) if per_tensor(self.group_size, self.codes.size) else (rows, _group_count(cols, self.group_size))
        if self.grid_lo.shape != expect or self.grid_hi.shape != expect:
            raise ValueError(f"grid shape {self.grid_lo.shape}, expected {expect}")


@dataclass(frozen=True)
class LayerStats:
    """Sufficient calibration statistics of one layer's input activations X.

    ``gram`` is X^T X in float64, ``magnitude`` the mean |x| per input channel
    and ``rows`` the number of activation rows they summarise. ``lower`` is
    GPTQ's lower factor L of the damped inverse Hessian, which depends on
    ``gram`` alone: never set at construction, ``gptq_quantize`` sets it on
    first use, so every bit width quantized from these statistics reuses it,
    and it goes with them. It is not a copy: it views its slice of the factor
    stack that the setting call's column sweep read.
    """

    gram: np.ndarray
    magnitude: np.ndarray
    rows: int
    lower: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_activations(cls, x: np.ndarray, rows: np.ndarray | None = None) -> "LayerStats":
        """Statistics of the rows ``rows`` of ``x`` (None: every row).

        The rows are copied straight into one float64 buffer, about
        CHUNK_BYTES at a time, which gives the Gram matrix and is then
        overwritten with its absolute values for the magnitudes: no other
        copy of them is made, and ``x`` is not changed.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D activations (rows, in_features), got shape {x.shape}")
        rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows)
        if len(rows) < 1:
            raise ValueError("calibration requires at least one sample")
        x64 = np.empty((len(rows), x.shape[1]), dtype=np.float64)
        step = max(1, CHUNK_BYTES // max(1, x64[0].nbytes))
        for r0 in range(0, len(rows), step):
            x64[r0 : r0 + step] = x[rows[r0 : r0 + step]]
        if not np.all(np.isfinite(x64)):
            raise ValueError("calibration activations contain non-finite entries")
        gram = x64.T @ x64
        return cls(gram=gram, magnitude=np.mean(np.abs(x64, out=x64), axis=0), rows=len(rows))


def _check_weight(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    return w.astype(np.float32, copy=False)


def _check_grid_args(k: int, group_size: int) -> int:
    """The bit width ``k`` as an int, after checking it and then ``group_size``: the one
    check of a code width, which every quantizer and ``QuantizedMatrix`` make."""
    if not float(k).is_integer():  # also nan and inf, which int() cannot take
        raise ValueError(f"bits must be an integer, got {k}")
    if not (MIN_BITS <= int(k) <= FP_BITS):
        raise ValueError(f"bits must be in [{MIN_BITS}, {FP_BITS}], got {k}")
    if group_size <= 0:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
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
    if per_tensor(group_size, rows * cols):
        return [a.reshape(count, 1, 1, rows * cols)]
    width = min(group_size, cols)
    full = cols // width * width
    views = [a[:, :, :full].reshape(count, rows, full // width, width)]
    if full < cols:
        views.append(a[:, :, full:].reshape(count, rows, 1, cols - full))
    return views


def _grid(v: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The float32 (lo, hi) grid of each group of ``v``: its min and max over ``axis``, dims kept,
    taken in ``v``'s dtype; with the float64 ``lo`` and ``span`` that ``_round``/``_unround`` read."""
    lo = v.min(axis=axis, keepdims=True).astype(np.float32, copy=False)
    hi = v.max(axis=axis, keepdims=True).astype(np.float32, copy=False)
    lo64 = lo.astype(np.float64)
    return lo, hi, lo64, hi.astype(np.float64) - lo64


def _round(v: np.ndarray, lo: np.ndarray, span: np.ndarray, levels: int) -> np.ndarray:
    """Float64 ``v`` in place as its round-half-to-even codes on the grid ``lo + span * code / levels``,
    clipped to [0, levels]; a zero span divides by inf, so values on or off such a grid get code 0."""
    v -= lo
    v /= np.where(span > 0, span, np.inf)
    v *= levels
    np.rint(v, out=v)
    return np.clip(v, 0, levels, out=v)


def _unround(c: np.ndarray, lo: np.ndarray, span: np.ndarray, levels: int) -> np.ndarray:
    """Float64 codes ``c`` in place as the weights ``span * (c / levels) + lo`` they stand for."""
    c /= levels
    c *= span
    c += lo
    return c


def _grid_columns(q: QuantizedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each column's float64 (lo, hi) grid: one row for a per-tensor grid, whose columns are all in group 0."""
    col_group = np.arange(q.codes.shape[1]) // q.group_size
    return q.grid_lo.astype(np.float64)[:, col_group], q.grid_hi.astype(np.float64)[:, col_group]


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Map codes back to weights: (hi - lo) * code / (2^k - 1) + lo."""
    lo, hi = _grid_columns(q)
    return _unround(q.codes.astype(np.float64), lo, hi - lo, (1 << q.bits) - 1).astype(np.float32)


def rtn_group_quantize(w: np.ndarray, k: int, group_size: int) -> QuantizedMatrix:
    """Round-to-nearest with per-row min/max grids over input-channel groups; a
    ``group_size`` of at least the weight count, kept as given, is one per-tensor grid."""
    w = _check_weight(w)
    k = _check_grid_args(k, group_size)
    levels = (1 << k) - 1
    codes = np.empty((1, *w.shape), dtype=np.uint16)
    lows, highs = [], []
    for v, c in zip(_group_views(w[None], group_size), _group_views(codes, group_size)):
        lo, hi, lo64, span = _grid(v, 3)
        c[...] = _round(v.astype(np.float64), lo64, span, levels)
        lows.append(lo[0, :, :, 0])
        highs.append(hi[0, :, :, 0])
    return QuantizedMatrix(
        codes=codes[0],
        bits=k,
        group_size=group_size,
        grid_lo=np.concatenate(lows, axis=1),
        grid_hi=np.concatenate(highs, axis=1),
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
    """Lower factors L with (H + lambda I)^-1 = L L^T for a stack of Hessians.

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
    return lower


def _gptq_hessians(stats: Sequence[LayerStats]) -> np.ndarray:
    """Stacked H = 2 X^T X, with a unit diagonal on dead (zero-activation) input channels."""
    hessians = np.stack([st.gram for st in stats])
    hessians *= 2.0
    for hessian in hessians:
        dead = np.diag(hessian) == 0.0
        hessian[dead, dead] = 1.0
    return hessians


def _gptq_factors(stats: Sequence[LayerStats], names: Sequence[str | None]) -> np.ndarray:
    """The stack's upper factors U = L^T, each layer's L factored once and kept on its stats.

    The lower factors fill one (count, n, n) stack, which the column sweep
    reads through this transposed view. Stats that already hold a factor
    have it copied in; the others are factored in stacked chunks of about
    CHUNK_BYTES per array, which bounds the memory a factorization holds at
    once, and their ``lower`` becomes a view of their slice of the stack.
    """
    n = stats[0].gram.shape[0]
    lower = np.empty((len(stats), n, n), dtype=np.float64)
    missing = []
    for s, st in enumerate(stats):
        if st.lower is None:
            missing.append(s)
        else:
            lower[s] = st.lower
    chunk = max(1, CHUNK_BYTES // stats[0].gram.nbytes)
    for c0 in range(0, len(missing), chunk):
        part = missing[c0 : c0 + chunk]
        hessians = _gptq_hessians([stats[s] for s in part])
        lower[part] = _inverse_hessian_factor(hessians, GPTQ_DAMPING, [names[s] for s in part])
        for s in part:
            object.__setattr__(stats[s], "lower", lower[s])  # the one write to a frozen LayerStats
    return np.swapaxes(lower, 1, 2)


def gptq_quantize(
    ws: Sequence[np.ndarray],
    stats: Sequence[LayerStats],
    k: int,
    group_size: int = DEFAULT_GROUP_SIZE,
    names: Sequence[str] | None = None,
) -> list[QuantizedMatrix]:
    """Quantize columns left to right, compensating error into later columns,
    over a stack of same-shape layers at once, one stored matrix per layer.

    After column q is rounded, the remaining columns move by
    ``(w_q - dq_q) / U_qq * U[q, q:]`` where U is the upper Cholesky factor of
    the damped inverse Hessian (H = 2 X^T X). Grids are per-row min/max over
    input-channel groups, computed from the compensated weights at each group
    boundary; a per-tensor grid is the one group of every row and column, so
    it is taken at column 0, before any error moves. Layers are independent,
    so every column step runs elementwise over the stack and the block update
    is one matmul per layer with the same shapes as a single layer's.
    ``names`` label errors. The factors do not depend on the bit width: each
    is computed once per ``LayerStats`` and kept there as ``lower``
    (L = U^T), so later bit widths of the same statistics reuse it.
    """
    ws = [_check_weight(w) for w in ws]
    k = _check_grid_args(k, group_size)
    if len(ws) != len(stats) or len({w.shape for w in ws}) != 1:
        raise ValueError("a GPTQ stack needs one LayerStats per weight and weights of one shape")
    for w, st in zip(ws, stats):
        _check_stats(st, w)
    count = len(ws)
    rows, cols = ws[0].shape
    levels = (1 << k) - 1
    one_grid = per_tensor(group_size, rows * cols)
    axis = (1, 2) if one_grid else 2

    upper = _gptq_factors(stats, [None] * count if names is None else names)
    # the sweep's float64 copy is stacked after the factors, so no factorization holds it
    work = np.stack(ws).astype(np.float64)
    for s, st in enumerate(stats):
        work[s][:, np.diag(st.gram) == 0.0] = 0.0

    codes = np.empty((count, rows, cols), dtype=np.uint16)
    grid_lo = np.zeros((count, 1 if one_grid else rows, _group_count(cols, group_size)), dtype=np.float32)
    grid_hi = np.zeros_like(grid_lo)

    for b0 in range(0, cols, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, cols)
        err_block = np.zeros((count, rows, b1 - b0), dtype=np.float64)
        for col in range(b0, b1):
            if col % group_size == 0:
                g = col // group_size
                grid_lo[:, :, g, None], grid_hi[:, :, g, None], lo, span = _grid(work[:, :, col : col + group_size], axis)
            w_col = work[:, :, col, None]
            c = _round(w_col.copy(), lo, span, levels)
            codes[:, :, col, None] = c
            err = (w_col - _unround(c, lo, span, levels)) / upper[:, col, None, col, None]
            if col + 1 < b1:
                work[:, :, col + 1 : b1] -= err * upper[:, col, None, col + 1 : b1]
            err_block[:, :, col - b0, None] = err
        if b1 < cols:
            work[:, :, b1:] -= err_block @ upper[:, b0:b1, b1:]

    return [
        QuantizedMatrix(
            codes=codes[s],
            bits=k,
            group_size=min(group_size, rows * cols),
            grid_lo=grid_lo[s],
            grid_hi=grid_hi[s],
        )
        for s in range(count)
    ]


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
            _, _, lo, span = _grid(v32, 3)
            # an overflowed entry is its group's min or max, so its span is not finite
            if not np.all(np.isfinite(span)):
                raise ValueError("weight matrix contains non-finite entries")
            # dequantize from the float codes, which are exact integers
            _unround(_round(v, lo, span, levels), lo, span, levels)
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
    w: np.ndarray, stats: LayerStats, k: int, group_size: int = DEFAULT_GROUP_SIZE
) -> tuple[QuantizedMatrix, float]:
    """Activation-aware quantization via per-channel scaling search.

    Channels with larger mean |activation| are scaled up by
    ``(a_j / geomean(a))^alpha`` before rounding, spending grid resolution on
    salient channels; alpha is picked from a 21-point grid by the proxy loss
    of the descaled reconstruction, the first alpha winning ties. All alphas
    are scored together in chunks (``_awq_losses``); only the winner is
    quantized into a ``QuantizedMatrix``. Its scales are folded into the
    stored grids (one (lo, hi) pair per channel) so plain ``dequantize``
    reproduces the effective weights; that is the one stored form, and unit
    scales (alpha 0, flat activations) dequantize to RTN's bytes. Returns the
    stored matrix and its alpha.

    Alpha is chosen on the descaled reconstruction (scaled grids dequantized,
    then divided by the scales), but the stored matrix dequantizes the folded
    grids, which round differently: the stored weights' ``proxy_loss`` can
    differ from the winning loss in its last bits.
    """
    w = _check_weight(w)
    k = _check_grid_args(k, group_size)
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
    lo_scaled, hi_scaled = (np.broadcast_to(grid, w.shape) for grid in _grid_columns(qm_scaled))
    qm = QuantizedMatrix(
        codes=qm_scaled.codes,
        bits=k,
        group_size=1,
        grid_lo=(lo_scaled / scales).astype(np.float32),
        grid_hi=(hi_scaled / scales).astype(np.float32),
    )
    return qm, alpha
