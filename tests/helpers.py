"""Independent oracles shared across test modules."""

import itertools
import math

import numpy as np

from mmqlab.importance import _GAIN_RTOL, ImportanceReport, RegressionTree, _normalize_pct
from mmqlab.numerics import NotPositiveDefiniteError, RngStream, derive_seed
from mmqlab.pipeline import (
    CAPTION_HORIZON,
    VQA_HORIZON,
    TaskKind,
    generate_tokens,
    image_embeddings,
    text_embeddings,
    vision_prefix,
)
from mmqlab.quantizers import (
    ALPHA_GRID,
    SCALE_CLAMP,
    GridScheme,
    QuantizedMatrix,
    _check_bits,
    _check_stats,
    _check_weight,
    _encode,
    _group_count,
    dequantize,
    proxy_loss,
    rtn_group_quantize,
)
from mmqlab.tasks import agreement


def activation_proxy_loss(w: np.ndarray, w_hat: np.ndarray, x: np.ndarray) -> float:
    """||X (W - W_hat)^T||_F^2 straight from the activations, float64 accumulation."""
    err = np.asarray(x, np.float64) @ (np.asarray(w, np.float64) - np.asarray(w_hat, np.float64)).T
    return float(np.sum(err * err))


def brute_force_proxy_min(w: np.ndarray, x: np.ndarray, k: int) -> float:
    """Exhaustive minimum of the proxy loss over every code assignment.

    Uses the per-tensor min/max grid of the original weights; independent of
    the quantizer implementations (plain enumeration + dequant formula).
    """
    grid = rtn_group_quantize(w, k, w.size)
    lo = float(grid.grid_lo[0, 0])
    hi = float(grid.grid_hi[0, 0])
    levels = 2**k - 1
    best = np.inf
    for combo in itertools.product(range(2**k), repeat=w.size):
        codes = np.array(combo, dtype=np.float64).reshape(w.shape)
        w_hat = ((hi - lo) * codes / levels + lo).astype(np.float32)
        best = min(best, activation_proxy_loss(w, w_hat, x))
    return best


def rank_with_ties(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_rho(x, y) -> float:
    rx = rank_with_ties(x) - rank_with_ties(x).mean()
    ry = rank_with_ties(y) - rank_with_ties(y).mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


class _TreeBuilder:
    """Single-tree fit: exhaustive scan over unique feature values per node."""

    def __init__(self, codes, uniques, y, min_leaf):
        self.codes = codes
        self.uniques = uniques
        self.y = y
        self.min_leaf = min_leaf
        self.cols = {k: [] for k in ("feature", "threshold", "left", "right", "value", "gain")}

    def _new_node(self, value):
        nid = len(self.cols["feature"])
        self.cols["feature"].append(-1)
        self.cols["threshold"].append(np.nan)
        self.cols["left"].append(-1)
        self.cols["right"].append(-1)
        self.cols["value"].append(value)
        self.cols["gain"].append(0.0)
        return nid

    def build(self, idx: np.ndarray, n_root: int) -> int:
        ysub = self.y[idx]
        n = idx.shape[0]
        total = float(ysub.sum())
        total_sq = float((ysub * ysub).sum())
        sse = total_sq - total * total / n
        nid = self._new_node(total / n)
        if n < 2 * self.min_leaf or sse <= _GAIN_RTOL * max(total_sq, 1e-300):
            return nid

        best = None  # (gain, feature, threshold)
        for j in range(len(self.uniques)):
            k = self.uniques[j].shape[0]
            if k < 2:
                continue
            c = self.codes[idx, j]
            cnt = np.bincount(c, minlength=k).astype(np.float64)
            sy = np.bincount(c, weights=ysub, minlength=k)
            syy = np.bincount(c, weights=ysub * ysub, minlength=k)
            lcnt = np.cumsum(cnt)[:-1]
            rcnt = n - lcnt
            valid = (lcnt >= self.min_leaf) & (rcnt >= self.min_leaf)
            if not valid.any():
                continue
            lsy = np.cumsum(sy)[:-1]
            lsyy = np.cumsum(syy)[:-1]
            safe_l = np.where(lcnt > 0, lcnt, 1.0)
            safe_r = np.where(rcnt > 0, rcnt, 1.0)
            gain = sse - (lsyy - lsy * lsy / safe_l) - ((total_sq - lsyy) - (total - lsy) ** 2 / safe_r)
            gain[~valid] = -np.inf
            t = int(np.argmax(gain))
            if gain[t] > _GAIN_RTOL * sse and (best is None or gain[t] > best[0]):
                best = (float(gain[t]), j, t)

        if best is None:
            return nid
        gain_val, j, t = best
        threshold = float(self.uniques[j][t])
        go_left = self.codes[idx, j] <= t
        left_id = self.build(idx[go_left], n_root)
        right_id = self.build(idx[~go_left], n_root)
        self.cols["feature"][nid] = j
        self.cols["threshold"][nid] = threshold
        self.cols["left"][nid] = left_id
        self.cols["right"][nid] = right_id
        self.cols["gain"][nid] = gain_val / n_root
        return nid

    def finish(self) -> RegressionTree:
        c = self.cols
        return RegressionTree(
            feature=np.array(c["feature"], dtype=np.int32),
            threshold=np.array(c["threshold"], dtype=np.float64),
            left=np.array(c["left"], dtype=np.int32),
            right=np.array(c["right"], dtype=np.int32),
            value=np.array(c["value"], dtype=np.float64),
            gain=np.array(c["gain"], dtype=np.float64),
        )


def recursive_forest_trees(data, n_trees=100, min_leaf=2, seed=0, bootstrap=True) -> list[RegressionTree]:
    """The trees of fit_random_forest, grown one at a time depth-first by recursion."""
    x = data.features
    n, m = x.shape
    uniques = [np.unique(x[:, j]) for j in range(m)]
    codes = np.stack(
        [np.searchsorted(uniques[j], x[:, j]).astype(np.int64) for j in range(m)], axis=1
    )
    trees = []
    for t in range(n_trees):
        if bootstrap:
            stream = RngStream(derive_seed(seed, "tree", t))
            idx = np.minimum((stream.uniforms(n) * n).astype(np.int64), n - 1)
        else:
            idx = np.arange(n, dtype=np.int64)
        builder = _TreeBuilder(codes, uniques, data.target, min_leaf)
        builder.build(idx, n_root=idx.shape[0])
        trees.append(builder.finish())
    return trees


def predict_permutation_importance(forest, data, n_repeats=50, seed=0) -> ImportanceReport:
    """permutation_importance by predicting every shuffled matrix."""
    x = data.features
    n, m = x.shape
    base_pred = forest.predict(x)
    base_mse = float(np.mean((base_pred - data.target) ** 2))
    increases = np.zeros((m, n_repeats))
    for j in range(m):
        for rep in range(n_repeats):
            stream = RngStream(derive_seed(seed, "perm", j, rep))
            shuffled = x.copy()
            shuffled[:, j] = x[stream.permutation(n), j]
            mse = float(np.mean((forest.predict(shuffled) - data.target) ** 2))
            increases[j, rep] = mse - base_mse
    mean = increases.mean(axis=1)
    if n_repeats > 1:
        half = 1.96 * increases.std(axis=1, ddof=1) / math.sqrt(n_repeats)
    else:
        half = np.zeros(m)
    pct, degenerate = _normalize_pct(np.maximum(mean, 0.0))
    return ImportanceReport(
        method="permutation", feature_names=data.feature_names,
        importance=mean, ci_low=mean - half, ci_high=mean + half,
        pct=pct, degenerate=degenerate,
    )


def predict_interventional_value(forest, x: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """f_x(S) by predicting every synthetic row (S from row i, the rest from
    background row b), deduplicated with np.unique."""
    n, m = x.shape
    if not subset:
        return np.full(n, float(forest.predict(x).mean()))
    if len(subset) == m:
        return forest.predict(x)
    synth = np.tile(x, (n, 1))  # row-major blocks: block i = backgrounds for row i
    for j in subset:
        synth[:, j] = np.repeat(x[:, j], n)
    compact, inverse = np.unique(synth, axis=0, return_inverse=True)
    preds = forest.predict(compact)[inverse]
    return preds.reshape(n, n).mean(axis=1)


def _cholesky_one(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one SPD float64 matrix; raises at the first bad pivot."""
    n = m.shape[0]
    lower = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(column=j, pivot=float(pivot))
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _invert_one(a64: np.ndarray, damping: float) -> np.ndarray:
    lam = damping * float(np.mean(np.diag(a64))) if damping > 0 else 0.0
    lower = _cholesky_one(a64 + lam * np.eye(a64.shape[0], dtype=np.float64))
    inv_lower = np.linalg.solve(lower, np.eye(lower.shape[0], dtype=np.float64))
    return inv_lower.T @ inv_lower


def oracle_inverse_hessian_factor(hessian: np.ndarray, damping: float) -> np.ndarray:
    """One layer's upper factor, retried once at 10x damping."""
    try:
        inv = _invert_one(hessian, damping)
    except NotPositiveDefiniteError:
        inv = _invert_one(hessian, damping * 10.0)
    return _cholesky_one(inv).T


def oracle_gptq_hessian(stats) -> np.ndarray:
    """H = 2 X^T X with a unit diagonal on dead input channels."""
    hessian = 2.0 * stats.gram
    dead = np.diag(hessian) == 0.0
    hessian[dead, dead] = 1.0
    return hessian


def oracle_gptq_quantize(w, stats, k, group_size=128, damping=0.01, block_size=32):
    """gptq_quantize one layer at a time, with its own factor: column by column on 2-D arrays."""
    w = _check_weight(w)
    k = _check_bits(k)
    _check_stats(stats, w)
    rows, cols = w.shape
    levels = (1 << k) - 1
    per_tensor = group_size >= rows * cols

    work = w.astype(np.float64)
    work[:, np.diag(stats.gram) == 0.0] = 0.0
    upper = oracle_inverse_hessian_factor(oracle_gptq_hessian(stats), damping)

    codes = np.empty((rows, cols), dtype=np.uint16)
    if per_tensor:
        grid_lo = np.full((1, 1), np.float32(work.min()), dtype=np.float32)
        grid_hi = np.full((1, 1), np.float32(work.max()), dtype=np.float32)
    else:
        grid_lo = np.zeros((rows, _group_count(cols, group_size)), dtype=np.float32)
        grid_hi = np.zeros((rows, _group_count(cols, group_size)), dtype=np.float32)

    for b0 in range(0, cols, block_size):
        b1 = min(b0 + block_size, cols)
        err_block = np.zeros((rows, b1 - b0), dtype=np.float64)
        for col in range(b0, b1):
            if not per_tensor and col % group_size == 0:
                g = col // group_size
                g1 = min(col + group_size, cols)
                grid_lo[:, g] = work[:, col:g1].min(axis=1).astype(np.float32)
                grid_hi[:, g] = work[:, col:g1].max(axis=1).astype(np.float32)
            if per_tensor:
                lo = grid_lo[0, 0].astype(np.float64)
                hi = grid_hi[0, 0].astype(np.float64)
            else:
                lo = grid_lo[:, col // group_size].astype(np.float64)
                hi = grid_hi[:, col // group_size].astype(np.float64)
            w_col = work[:, col]
            c = _encode(w_col, lo, hi, levels)
            codes[:, col] = c
            dq = (hi - lo) * (c.astype(np.float64) / levels) + lo
            err = (w_col - dq) / upper[col, col]
            if col + 1 < b1:
                work[:, col + 1 : b1] -= np.outer(err, upper[col, col + 1 : b1])
            err_block[:, col - b0] = err
        if b1 < cols:
            work[:, b1:] -= err_block @ upper[b0:b1, b1:]

    qm = QuantizedMatrix(
        codes=codes,
        bits=k,
        scheme=GridScheme.PER_TENSOR if per_tensor else GridScheme.PER_GROUP,
        group_size=rows * cols if per_tensor else group_size,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        rows=rows,
        cols=cols,
    )
    return qm, proxy_loss(w, dequantize(qm), stats.gram)


def assert_same_quantization(got, expected):
    """Two (QuantizedMatrix, loss) results agree bit for bit: dtype, shape and bytes."""
    (q, loss), (q_ref, loss_ref) = got, expected
    for name in ("codes", "grid_lo", "grid_hi"):
        a, b = getattr(q, name), getattr(q_ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (q.bits, q.scheme, q.group_size) == (q_ref.bits, q_ref.scheme, q_ref.group_size)
    assert float(loss).hex() == float(loss_ref).hex()


def _channel_scales(magnitude: np.ndarray, alpha: float) -> np.ndarray:
    """Geomean-normalized per-channel scales for one alpha; zero-activation channels stay at 1."""
    active = magnitude > 0
    scales = np.ones_like(magnitude)
    if active.any() and alpha != 0.0:
        geomean = math.exp(float(np.mean(np.log(magnitude[active]))))
        scales[active] = np.clip((magnitude[active] / geomean) ** alpha, *SCALE_CLAMP)
    return scales


def oracle_awq_quantize(w, stats, k, group_size=128):
    """awq_quantize one alpha at a time: quantize, dequantize and score each alpha in turn."""
    w = _check_weight(w)
    k = _check_bits(k)
    if group_size <= 0:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    _check_stats(stats, w)

    best = None
    for alpha in ALPHA_GRID:
        scales = _channel_scales(stats.magnitude, alpha)
        scaled = (w.astype(np.float64) * scales).astype(np.float32)
        qm_scaled = rtn_group_quantize(scaled, k, group_size)
        w_eff = (dequantize(qm_scaled).astype(np.float64) / scales).astype(np.float32)
        loss = proxy_loss(w, w_eff, stats.gram)
        if best is None or loss < best[0]:
            best = (loss, alpha, qm_scaled, scales)

    loss, alpha, qm_scaled, scales = best
    if np.all(scales == 1.0):
        return qm_scaled, alpha, loss

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


def oracle_score_task(q_weights, fp_weights, probes, task, horizon=None) -> float:
    """Agreement of a quantized model's outputs with the full-precision model's,
    each model run from scratch on the probes, at the task's default horizon
    unless one is given."""

    def outputs(weights):
        prefix = vision_prefix(weights, probes.images)
        if task is TaskKind.RETRIEVAL:
            return image_embeddings(prefix), text_embeddings(weights, probes.texts)
        default = CAPTION_HORIZON if task is TaskKind.CAPTION else VQA_HORIZON
        questions = probes.questions if task is TaskKind.VQA else None
        return generate_tokens(weights, prefix, task, horizon or default, questions)

    return agreement(task, outputs(q_weights), outputs(fp_weights))
