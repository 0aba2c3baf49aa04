"""Independent oracles shared across test modules."""

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np

from mmqlab.experiments import SOTA_BITS_DEFAULT, UNIFORM_BITS_DEFAULT, make_run_id, run_grid
from mmqlab.importance import _GAIN_RTOL, ImportanceReport, _normalize_pct, _shares
from mmqlab.numerics import NotPositiveDefiniteError, RngStream, _cholesky64, _damped, derive_seed
from mmqlab.pipeline import (
    CALIBRATION_PAIRS,
    CALIBRATION_ROW_CAP,
    CAPTION_HORIZON,
    COMPONENT_ORDER,
    FP_BITS,
    GROUP_ORDER,
    LAYER_TYPE_ORDER,
    LN_EPS,
    VQA_HORIZON,
    TaskKind,
    apply_quantization,
    bos_prompt,
    calibration_stages,
    decode_hidden,
    encode_vision,
    greedy_generate,
    image_embeddings,
    run_connector,
    text_embeddings,
)
from mmqlab.quantizers import (
    ALPHA_GRID,
    SCALE_CLAMP,
    LayerStats,
    Method,
    QuantizedMatrix,
    _check_grid_args,
    _check_stats,
    _check_weight,
    _group_count,
    dequantize,
    proxy_loss,
    rtn_group_quantize,
)
from mmqlab.tasks import ProbeSet, agreement


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


class OracleTree(NamedTuple):
    """One tree as the recursive builder lays it out, in preorder; left and
    right index this tree's own arrays and feature < 0 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray


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

    def finish(self) -> OracleTree:
        c = self.cols
        return OracleTree(
            feature=np.array(c["feature"], dtype=np.int32),
            threshold=np.array(c["threshold"], dtype=np.float64),
            left=np.array(c["left"], dtype=np.int64),
            right=np.array(c["right"], dtype=np.int64),
            value=np.array(c["value"], dtype=np.float64),
            gain=np.array(c["gain"], dtype=np.float64),
        )


def recursive_forest_trees(data, n_trees=100, min_leaf=2, seed=0, bootstrap=True) -> list[OracleTree]:
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


def _tree_predict(forest, root: int, x: np.ndarray) -> np.ndarray:
    """One tree's predictions: every row walks down from the tree's root."""
    node = np.full(x.shape[0], root)
    while True:
        at_leaf = forest.feature[node] < 0
        if at_leaf.all():
            return forest.value[node]
        feat = np.maximum(forest.feature[node], 0)
        go_left = x[np.arange(x.shape[0]), feat] <= forest.threshold[node]
        node = np.where(at_leaf, node, np.where(go_left, forest.left[node], forest.right[node]))


def oracle_forest_predict(forest, x: np.ndarray) -> np.ndarray:
    """ForestModel.predict one tree at a time: each tree walks every row from
    its root, and its values are added to a running sum started at zeros."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[0])
    for root in forest.trees:
        out += _tree_predict(forest, root, x)
    return out / len(forest.trees)


def oracle_impurity_importance(trees: list[OracleTree], feature_names) -> ImportanceReport:
    """impurity_importance tree by tree: each tree's gains added per feature
    with np.add.at over its internal nodes in preorder, then the trees added
    in order to a running sum started at zeros."""
    m = len(feature_names)
    sums = np.zeros(m)
    for tree in trees:
        per_tree = np.zeros(m)
        internal = tree.feature >= 0
        np.add.at(per_tree, tree.feature[internal], tree.gain[internal])
        sums += per_tree
    sums /= len(trees)
    pct, degenerate = _normalize_pct(sums)
    nan = np.full(m, np.nan)
    return ImportanceReport(
        method="impurity", feature_names=tuple(feature_names),
        importance=_shares(sums), ci_low=nan, ci_high=nan, pct=pct, degenerate=degenerate,
    )


def predict_permutation_importance(forest, data, n_repeats=50, seed=0) -> ImportanceReport:
    """permutation_importance by predicting every shuffled matrix."""
    x = data.features
    n, m = x.shape
    base_pred = oracle_forest_predict(forest, x)
    base_mse = float(np.mean((base_pred - data.target) ** 2))
    increases = np.zeros((m, n_repeats))
    for j in range(m):
        for rep in range(n_repeats):
            stream = RngStream(derive_seed(seed, "perm", j, rep))
            shuffled = x.copy()
            shuffled[:, j] = x[stream.permutation(n), j]
            mse = float(np.mean((oracle_forest_predict(forest, shuffled) - data.target) ** 2))
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
        return np.full(n, float(oracle_forest_predict(forest, x).mean()))
    if len(subset) == m:
        return oracle_forest_predict(forest, x)
    synth = np.tile(x, (n, 1))  # row-major blocks: block i = backgrounds for row i
    for j in subset:
        synth[:, j] = np.repeat(x[:, j], n)
    compact, inverse = np.unique(synth, axis=0, return_inverse=True)
    preds = oracle_forest_predict(forest, compact)[inverse]
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


def oracle_layer_stats(x: np.ndarray, rows=None) -> LayerStats:
    """LayerStats the plain way: the selected rows, a float64 copy of them, its
    Gram matrix and the mean of a third array, its absolute values."""
    x = np.asarray(x) if rows is None else np.asarray(x)[rows]
    x64 = x.astype(np.float64)
    return LayerStats(gram=x64.T @ x64, magnitude=np.mean(np.abs(x64), axis=0), rows=x.shape[0])


def merged_calibration(weights, probes) -> dict:
    """Every layer's statistics in one dict: the stages of ``calibration_stages``, merged."""
    return {name: stats for _, stage in calibration_stages(weights, probes) for name, stats in stage.items()}


def oracle_quantize_ledger(weights, selector, method, bits, probes, group_size) -> list:
    """The ledger of one ``apply_quantization`` call over every selected layer
    with every stage merged first: the ``quantize`` command before it walked
    the components (statistics only when ``probes`` is given)."""
    calib = None if probes is None else merged_calibration(weights, probes)
    return apply_quantization(weights, selector, method, bits, calib, group_size)[1]


def oracle_collect_calibration(weights, probes) -> dict:
    """Every layer's statistics from one teacher-forced pass through all three
    towers, recorded into one dict: calibration before it ran a tower at a time."""
    n = min(CALIBRATION_PAIRS, len(probes))
    layers = {}

    def recorder(name, x):
        rows = None
        if x.shape[0] > CALIBRATION_ROW_CAP:
            stream = RngStream(derive_seed(weights.spec.seed, "calibration", name))
            rows = stream.choice(x.shape[0], CALIBRATION_ROW_CAP)
        layers[name] = LayerStats.from_activations(x, rows)

    vision_out = encode_vision(weights, probes.images[:n], recorder=recorder)
    prefix = run_connector(weights, vision_out, recorder=recorder)
    decode_hidden(weights, prefix, bos_prompt(probes.texts[:n]), recorder=recorder)
    return layers


def oracle_encode(w64: np.ndarray, lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """Round-half-to-even uint16 codes against a (lo, hi) grid, clipped to
    range, with code 0 wherever the span is 0: the rounding rule, written
    apart from the package's."""
    span = hi - lo
    ratio = np.where(span > 0, (w64 - lo) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(np.rint(levels * ratio), 0, levels).astype(np.uint16)


def oracle_decode(codes: np.ndarray, lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """The float64 weights codes stand for: (hi - lo) * (code / levels) + lo."""
    return (hi - lo) * (codes.astype(np.float64) / levels) + lo


def oracle_gptq_hessian(stats) -> np.ndarray:
    """H = 2 X^T X with a unit diagonal on dead input channels."""
    hessian = 2.0 * stats.gram
    dead = np.diag(hessian) == 0.0
    hessian[dead, dead] = 1.0
    return hessian


def oracle_gptq_quantize(w, stats, k, group_size=128, damping=0.01, block_size=32):
    """gptq_quantize one layer at a time, with its own factor: column by column on 2-D arrays."""
    w = _check_weight(w)
    k = _check_grid_args(k, group_size)
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
            c = oracle_encode(w_col, lo, hi, levels)
            codes[:, col] = c
            err = (w_col - oracle_decode(c, lo, hi, levels)) / upper[col, col]
            if col + 1 < b1:
                work[:, col + 1 : b1] -= np.outer(err, upper[col, col + 1 : b1])
            err_block[:, col - b0] = err
        if b1 < cols:
            work[:, b1:] -= err_block @ upper[b0:b1, b1:]

    qm = QuantizedMatrix(
        codes=codes,
        bits=k,
        group_size=rows * cols if per_tensor else group_size,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
    )
    return qm, proxy_loss(w, dequantize(qm), stats.gram)


def oracle_dequantize(q) -> np.ndarray:
    """dequantize with a branch per grid layout: a per-tensor grid's two
    scalars, else each column's group gathered from the per-row grids."""
    rows, cols = q.codes.shape
    if q.group_size >= rows * cols:
        lo = np.float64(q.grid_lo[0, 0])
        hi = np.float64(q.grid_hi[0, 0])
    else:
        col_group = np.arange(cols) // q.group_size
        lo = q.grid_lo.astype(np.float64)[:, col_group]
        hi = q.grid_hi.astype(np.float64)[:, col_group]
    return oracle_decode(q.codes, lo, hi, (1 << q.bits) - 1).astype(np.float32)


def assert_same_quantization(got, expected):
    """Two (QuantizedMatrix, loss) results agree bit for bit: dtype, shape and bytes."""
    (q, loss), (q_ref, loss_ref) = got, expected
    for name in ("codes", "grid_lo", "grid_hi"):
        a, b = getattr(q, name), getattr(q_ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (q.bits, q.group_size) == (q_ref.bits, q_ref.group_size)
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
    k = _check_grid_args(k, group_size)
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
    rows, cols = w.shape
    col_group = np.arange(cols) // qm_scaled.group_size
    if qm_scaled.group_size >= qm_scaled.codes.size:  # per tensor
        lo_scaled = np.full((rows, cols), qm_scaled.grid_lo[0, 0], dtype=np.float64)
        hi_scaled = np.full((rows, cols), qm_scaled.grid_hi[0, 0], dtype=np.float64)
    else:
        lo_scaled = qm_scaled.grid_lo.astype(np.float64)[:, col_group]
        hi_scaled = qm_scaled.grid_hi.astype(np.float64)[:, col_group]
    qm = QuantizedMatrix(
        codes=qm_scaled.codes,
        bits=k,
        group_size=1,
        grid_lo=(lo_scaled / scales).astype(np.float32),
        grid_hi=(hi_scaled / scales).astype(np.float32),
    )
    return qm, alpha, proxy_loss(w, dequantize(qm), stats.gram)


def oracle_invert_spd64(a64: np.ndarray, damping: float):
    """``_invert_spd64`` solving each Cholesky factor against an n x n identity,
    the form its ``np.linalg.inv`` replaced."""
    lower, failed = _cholesky64(_damped(a64, damping))
    inv_lower = np.linalg.solve(lower, np.eye(lower.shape[-1], dtype=np.float64))
    return np.swapaxes(inv_lower, 1, 2) @ inv_lower, failed


def oracle_layer_norm(x: np.ndarray) -> np.ndarray:
    """Layer norm as plain expressions, the form the pipeline's must match bit for bit."""
    mean = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mean).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + np.float32(LN_EPS))


def oracle_affine_layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Layer norm with a per-channel scale and bias, as plain expressions: at
    unit scale and zero bias it gives the parameter-free norm's bits, except
    that adding the zero bias turns -0.0 into +0.0."""
    return oracle_layer_norm(x) * scale + bias


def oracle_gelu(x: np.ndarray) -> np.ndarray:
    c = np.float32(math.sqrt(2.0 / math.pi))
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


def oracle_attention(weights, base, x_q, x_kv, causal, cache=None) -> np.ndarray:
    """Multi-head attention as plain expressions, with a fresh causal mask per call."""
    heads, d = weights.spec.heads, weights.spec.d_model
    head_dim = d // heads
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
        mask = np.triu(np.full((sq, sk), np.float32(-1e9)), k=1 + sk - sq)
        scores = scores + mask
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
    return ctx @ weights.layers[f"{base}.attn.out_proj"].T


def _oracle_tokens(latent: np.ndarray, length: int, vocab: int, stride: int, offset: int) -> np.ndarray:
    dims = (offset + stride * np.arange(length)) % latent.shape[0]
    values = np.clip((latent[dims] + 4.0) / 8.0, 0.0, 1.0)
    return np.minimum((values * vocab).astype(np.int64), vocab - 1)


def oracle_make_probe_set(seed, n_pairs, patch_count=16, d_input=64, vocab=256, text_len=8, question_len=4):
    """make_probe_set one pair at a time: four draws per pair (latent, image
    noise, text noise, patch noise) written into preallocated arrays."""
    stream = RngStream(seed)
    images = np.empty((n_pairs, patch_count, d_input), dtype=np.float32)
    texts = np.empty((n_pairs, text_len), dtype=np.int64)
    questions = np.empty((n_pairs, question_len), dtype=np.int64)
    for i in range(n_pairs):
        latent = stream.normals(d_input)
        image_latent = latent + 0.5 * stream.normals(d_input)
        text_latent = latent + 0.5 * stream.normals(d_input)
        patch_noise = stream.normals(patch_count * d_input).reshape(patch_count, d_input)
        images[i] = image_latent[None, :] + 0.35 * patch_noise
        texts[i] = _oracle_tokens(text_latent, text_len, vocab, stride=1, offset=0)
        questions[i] = _oracle_tokens(text_latent, question_len, vocab, stride=7, offset=3)
    return ProbeSet(images, texts, questions)


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, above what was allocated
    before it: numpy's array buffers are traced too."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float32 arrays hold the same bit patterns (so -0.0 differs from 0.0)."""
    return a.dtype == b.dtype == np.float32 and a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32)
    )


def vision_prefix(weights, images) -> np.ndarray:
    """Connector output for an image batch: the soft prefix the decoder reads."""
    return run_connector(weights, encode_vision(weights, images))


def oracle_score_task(q_weights, fp_weights, probes, task, horizon=None) -> float:
    """Agreement of a quantized model's outputs with the full-precision model's,
    each model run from scratch on the probes, at the task's default horizon
    unless one is given."""

    def outputs(weights):
        prefix = vision_prefix(weights, probes.images)
        if task is TaskKind.RETRIEVAL:
            return image_embeddings(prefix), text_embeddings(weights, bos_prompt(probes.texts))
        if task is TaskKind.CAPTION:
            prompt, default = bos_prompt(probes.questions[:, :0]), CAPTION_HORIZON
        else:
            prompt, default = bos_prompt(probes.questions), VQA_HORIZON
        return greedy_generate(weights, prefix, prompt, horizon or default)

    return agreement(task, outputs(q_weights), outputs(fp_weights))


def grid_rows(*args, **kwargs):
    """run_grid's rows sorted by run_id, as the grid command writes them, and
    its failures as (run_id, message) in plan order."""
    rows = list(run_grid(*args, **kwargs))
    failures = [(row.run_id, error) for row, error in rows if error is not None]
    return sorted((row for row, _ in rows), key=lambda r: r.run_id), failures


def _subsets(items: tuple) -> list[tuple]:
    return [subset for size in range(1, len(items) + 1) for subset in itertools.combinations(items, size)]


def planned_run_ids(spec, grid, method) -> list[str]:
    """The run_ids a grid yields, in order, written from the grid's definition.

    Per seed (outer), the full-precision baseline cell, then:
    * uniform: each bit width (outer), component, group and layer-type subset,
      the components in the subset at that width and the others at 16,
      without the cells that select no layer: 16-bit ones, and ones whose
      components own no block (a linear projector's connector);
    * GPTQ/AWQ: each active component at one of bits + {16}, in ascending
      order with the last component fastest, over every group and layer
      type, without the all-16 cell, which is the baseline.
    Each cell gives one run_id per task, in ``grid.tasks`` order.
    """
    active = spec.active_components()
    full = {comp: FP_BITS for comp in COMPONENT_ORDER}
    cells = [(full, GROUP_ORDER, LAYER_TYPE_ORDER)]
    if method is Method.UNIFORM:
        group_size = 0
        cells += [
            ({**full, **{comp: k for comp in comps}}, groups, layer_types)
            for k in grid.bits or UNIFORM_BITS_DEFAULT
            for comps in grid.component_subsets or _subsets(COMPONENT_ORDER)
            for groups in grid.group_subsets or _subsets(GROUP_ORDER)
            for layer_types in grid.layer_type_subsets or _subsets(LAYER_TYPE_ORDER)
            if k < FP_BITS and set(comps) & set(active)
        ]
    else:
        group_size = grid.group_size
        choices = sorted({*(grid.bits or SOTA_BITS_DEFAULT), FP_BITS})
        cells += [
            ({**full, **dict(zip(active, combo))}, GROUP_ORDER, LAYER_TYPE_ORDER)
            for combo in itertools.product(choices, repeat=len(active))
            if min(combo) < FP_BITS
        ]
    return [
        make_run_id(
            method=method, task=task, **{f"{comp.value}_bits": k for comp, k in bits.items()},
            groups=frozenset(groups), layer_types=frozenset(layer_types), group_size=group_size, seed=seed,
        )
        for seed in grid.seeds
        for bits, groups, layer_types in cells
        for task in grid.tasks
    ]
