"""Independent oracles shared across test modules."""

import itertools

import numpy as np

from mmqlab.quantizers import rtn_group_quantize


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
