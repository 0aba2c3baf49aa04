"""Attribution of fidelity degradation to pipeline components.

A small regression forest is fit to predict the grid score from per-component
bit widths (unquantized encoded as 16). Three complementary importance
measures are computed over it:

* impurity   - total variance reduction per feature across all splits, with
  bootstrap-resampled confidence intervals;
* permutation - expected loss increase when a feature column is shuffled;
* Shapley    - exact interventional attribution by subset enumeration
  (feature count <= 8), background = the full dataset.

Each method's importances normalize to 100%; the consensus report averages
the three. A damped ordinary-least-squares baseline documents how poorly a
linear fit captures the same data.

A dataset codes its features once. They take only their observed values, so
the forest is tabulated once on the lattice of those values (at most 15^3
points for integer bits in [2, 16]); permutation and Shapley look rows up in
that table instead of walking the trees. All trees of a forest are grown
together, level by level: bincounts over eight lanes give a level's node
sums in numpy's pairwise order, and only the open nodes are searched, over
one (node, feature, code) block. A forest is one set of node arrays: the
trees end to end, each in preorder, with child indices into the whole
arrays. Prediction walks all trees together, and impurity adds every node's
gain in one np.add.at. The seeds of all bootstrap draws and permutations
of one call are derived as one array, and the draws made as one block. All
of this gives the same numbers, bit for bit, as growing each tree
depth-first, then predicting and adding gains tree by tree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream, derive_seed
from .pipeline import COMPONENT_ORDER, TaskKind
from .quantizers import FP_BITS, MIN_BITS

_GAIN_RTOL = 1e-12
MIN_FOREST_ROWS = 10  # a bootstrapped forest needs at least this many rows


@dataclass
class AttributionDataset:
    """Feature matrix of per-component bits against the fidelity score, coded once."""

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    observed: list[np.ndarray] = field(init=False, repr=False, compare=False)  # per column, sorted distinct values
    codes: np.ndarray = field(init=False, repr=False, compare=False)  # features[i, j] == observed[j][codes[i, j]]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.target.shape[0]:
            raise ValueError("features must be (rows, m) aligned with target")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length does not match feature columns")
        if not np.all(np.isfinite(self.target)):
            raise ValueError("target contains missing values")
        if not np.all((self.features >= MIN_BITS) & (self.features <= FP_BITS)):  # NaN fails both
            raise ValueError(f"bit features must lie in [{MIN_BITS}, {FP_BITS}]")
        self.observed = []
        self.codes = np.empty(self.features.shape, dtype=np.int64)
        for j, col in enumerate(self.features.T):
            values, self.codes[:, j] = np.unique(col, return_inverse=True)
            self.observed.append(values)

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_results(cls, rows, task: TaskKind, method=None) -> "AttributionDataset":
        """Build from the finished results rows of one task (and method, if
        given); components never quantized (bits constant at 16 across all
        rows) are dropped as absent. Errors name the slice."""
        where = f"task {task.value!r}" + ("" if method is None else f", method {method.value!r}")
        rows = [
            r for r in rows
            if r.task is task and (method is None or r.method is method) and np.isfinite(r.score)
        ]
        if not rows:
            raise ValueError(f"no usable rows for {where}")
        all_bits = np.array([r.component_bits for r in rows], dtype=np.float64)
        keep = [
            i
            for i, comp in enumerate(COMPONENT_ORDER)
            if not np.all(all_bits[:, i] == FP_BITS)
        ]
        if not keep:
            raise ValueError(f"every component is unquantized for {where}")
        return cls(
            features=all_bits[:, keep],
            target=np.array([r.score for r in rows], dtype=np.float64),
            feature_names=tuple(COMPONENT_ORDER[i].value for i in keep),
        )


@dataclass
class ForestModel:
    """Every tree's nodes end to end, each tree in preorder (a node, its left
    subtree, then its right subtree), the order a depth-first builder uses.

    trees holds each tree's root; left and right index the whole arrays;
    feature < 0 marks a leaf. value is a node's mean target and gain its
    variance reduction, already divided by the root's row count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    trees: np.ndarray
    feature_names: tuple[str, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean of the trees' predictions. All trees are walked together, one
        step per depth over every (tree, row) pair; the per-tree values are
        then added in tree order, as summing tree by tree would."""
        x = np.asarray(x, dtype=np.float64)
        node = np.repeat(self.trees[:, None], x.shape[0], axis=1)  # [tree, row]
        row = np.arange(x.shape[0])
        while True:
            feat = self.feature[node]
            at_leaf = feat < 0
            if at_leaf.all():
                break
            go_left = x[row, np.maximum(feat, 0)] <= self.threshold[node]
            node = np.where(at_leaf, node, np.where(go_left, self.left[node], self.right[node]))
        out = np.zeros(x.shape[0])
        for per_tree in self.value[node]:
            out += per_tree
        return out / len(self.trees)


def _segment_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The node sums of a whole tree level in one pass: values[seg].sum(axis=0)
    per contiguous segment of rows, bit for bit.

    np.add.reduce on a contiguous float64 slice, the reduction ndarray.sum
    runs, is numpy's pairwise sum added to the identity +0.0 (so a sum of
    -0.0s is +0.0). A running or reduceat sum would round differently, so
    this reproduces the pairwise order. The equivalence test against
    np.add.reduce is what fails if a numpy upgrade changes that order.
    """
    return _pairwise_sums(values, np.cumsum(lens) - lens, lens)


def _pairwise_sums(values: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of values[s:s + n] per (s, n): above 128 rows,
    halve at a multiple of 8 and add the halves; from 8 to 128, eight
    running sums over blocks of eight, combined as a tree, then the rest one
    by one; below 8, one by one.

    Running sum i adds rows i, i + 8, ... in order, so one bincount per
    column over (segment, row offset mod 8) keys gives every segment's eight
    at once, and a second adds each segment's tree total, then its rows
    after the blocks. A bincount starts from +0.0 where numpy starts from
    the first value. That changes only a sum of -0.0s, to +0.0, which is
    what np.add.reduce's identity makes of it too.
    """
    out = np.empty((lens.size, values.shape[1]))
    halve = lens > 128
    if halve.any():
        s, n = starts[halve], lens[halve]
        left = n // 2 - n // 2 % 8
        sums = _pairwise_sums(values, np.concatenate([s, s + left]), np.concatenate([left, n - left]))
        out[halve] = sums[: s.size] + sums[s.size :]
    s, n = starts[~halve], lens[~halve]
    blocks, rest = n // 8, n % 8
    eight = np.arange(8)
    lane = ((8 * np.repeat(np.arange(s.size), blocks))[:, None] + eight).ravel()
    first = np.repeat(s - 8 * (np.cumsum(blocks) - blocks), blocks) + 8 * np.arange(blocks.sum())
    at = (first[:, None] + eight).ravel()
    seg = np.concatenate([np.arange(s.size), np.repeat(np.arange(s.size), rest)])
    after = np.repeat(s + 8 * blocks - (np.cumsum(rest) - rest), rest) + np.arange(rest.sum())
    for c, col in enumerate(values.T):
        r = np.bincount(lane, col[at], minlength=8 * s.size).reshape(-1, 8).T
        lanes = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        out[~halve, c] = np.bincount(seg, np.concatenate([lanes, col[after]]), minlength=s.size)
    return out


def _resample(seeds: np.ndarray, n: int) -> np.ndarray:
    """One same-size bootstrap draw of row indices per seed, shape (seeds, n)."""
    return np.minimum((RngStream(seeds[:, None]).uniforms(n) * n).astype(np.int64), n - 1)


def _code_sums(columns: np.ndarray, width: int, y: np.ndarray, rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Row count, sum of y and sum of y^2 per (node, feature, code), shape
    (3, nodes, features, width), for nodes whose rows lie back to back. One
    bincount per feature and sum adds each bucket's rows in their order."""
    at = np.repeat(np.arange(lens.size) * width, lens)
    ys = y[rows]
    weights = (None, ys, ys * ys)
    sums = np.zeros((3, lens.size, columns.shape[0], width))
    for j, col in enumerate(columns):
        key = at + col[rows]
        for part, w in zip(sums, weights):
            part[:, j] = np.bincount(key, w, minlength=lens.size * width).reshape(-1, width)
    return sums


def _best_splits(
    sums: np.ndarray, min_leaf: int, lens, total, total_sq, sse
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's first largest gain over its _code_sums block in
    feature-major order, as the index feature * (width - 1) + code, and the
    gain. A padded code holds all of its node's rows on the left, so
    min_leaf rules it out."""
    lcnt, lsy, lsyy = np.cumsum(sums, axis=3, out=sums)[..., :-1]
    lens, total, total_sq, sse = (a[:, None, None] for a in (lens, total, total_sq, sse))
    rcnt = lens - lcnt
    safe_l = np.maximum(lcnt, 1.0)  # counts are whole numbers: lcnt where lcnt > 0
    safe_r = np.maximum(rcnt, 1.0)
    gain = sse - (lsyy - lsy * lsy / safe_l) - ((total_sq - lsyy) - (total - lsy) ** 2 / safe_r)
    gain[(lcnt < min_leaf) | (rcnt < min_leaf)] = -np.inf
    gain = gain.reshape(len(gain), math.prod(gain.shape[1:]))
    best = np.argmax(gain, axis=1)
    return best, gain[np.arange(best.size), best]


def fit_random_forest(
    data: AttributionDataset,
    n_trees: int = 100,
    min_leaf: int = 2,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Bagged regression trees; splits minimize weighted child variance.

    Every tree sees a same-size bootstrap resample (unless bootstrap=False)
    and scans all features. Deterministic given the seed.

    All trees grow together, breadth-first. A level holds the rows of each of
    its nodes back to back, in the order a depth-first builder would pass
    them, and node totals are summed per node. Only open nodes, which may
    still split, are searched: one bincount per feature and sum over (node,
    code) keys adds every bucket in that depth-first order into one (open
    node, feature, code) block, each feature padded to the widest one's code
    count, and the cumsums, gains and argmax then run once over the block. A
    node splits at its first largest gain in feature-major order, if that
    gain exceeds _GAIN_RTOL * sse: the first feature with the strictly
    largest gain, at that feature's first best threshold, as a sequential
    scan over features picks.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {min_leaf}")
    if len(data) < MIN_FOREST_ROWS and bootstrap:
        raise ValueError(f"need at least {MIN_FOREST_ROWS} rows to fit a forest, have {len(data)}")
    observed, codes, y = data.observed, data.codes, data.target
    n, m = codes.shape
    width = max(max(values.size for values in observed), 2)  # codes per feature in the search block
    columns = codes.T.copy()
    cuts = np.full((m, width - 1), np.nan)  # threshold of each (feature, code) the search indexes
    for j, values in enumerate(observed):
        cuts[j, : values.size - 1] = values[:-1]
    cuts = cuts.ravel()
    if bootstrap:
        rows = _resample(derive_seed(seed, "tree", np.arange(n_trees)), n).ravel()
    else:
        rows = np.tile(np.arange(n), n_trees)
    lens = np.full(n_trees, n, dtype=np.int64)  # rows per node of the level
    levels, splits = [], []  # per level: (value, feature, threshold, gain) and the split mask
    while lens.size:
        nodes = lens.size
        yr = y[rows]
        total, total_sq = _segment_sums(np.stack([yr, yr * yr], axis=1), lens).T
        sse = total_sq - total * total / lens
        is_open = (lens >= 2 * min_leaf) & (sse > _GAIN_RTOL * np.maximum(total_sq, 1e-300))
        open_ = np.flatnonzero(is_open)

        best, g = _best_splits(
            _code_sums(columns, width, y, rows[np.repeat(is_open, lens)], lens[open_]),
            min_leaf, *(a[open_] for a in (lens, total, total_sq, sse)),
        )
        wins = g > _GAIN_RTOL * sse[open_]
        won = open_[wins]

        best_feature = np.full(nodes, -1, dtype=np.int32)
        best_feature[won], code = np.divmod(best[wins], width - 1)
        split = best_feature >= 0
        threshold = np.full(nodes, np.nan)
        threshold[won] = cuts[best[wins]]
        best_gain = np.zeros(nodes)
        best_gain[won] = g[wins] / n
        levels.append((total / lens, best_feature, threshold, best_gain))
        splits.append(split)

        # The next level holds each split node's left then right child; a
        # stable sort keeps every child's rows in their current order (a
        # radix sort, on keys of 16 bits or fewer).
        rows, grown = rows[np.repeat(split, lens)], lens[won]
        coded = columns.ravel()[np.repeat(best_feature[won] * n, grown) + rows]  # on the node's feature
        child = np.repeat(2 * np.arange(won.size), grown) + (coded > np.repeat(code, grown))
        rows = rows[np.argsort(child.astype(np.min_scalar_type(2 * won.size)), kind="stable")]
        lens = np.bincount(child, minlength=2 * won.size)
    return ForestModel(**_preorder(levels, splits), feature_names=data.feature_names)


def _preorder(levels: list[tuple], splits: list[np.ndarray]) -> dict[str, np.ndarray]:
    """ForestModel's node columns from breadth-first levels: every node
    renumbered to its place with each tree in preorder and the trees end to
    end, and trees, each tree's root."""
    left_size = [None] * len(splits)
    size = np.zeros(0, dtype=np.int64)
    for d in reversed(range(len(splits))):
        left_size[d] = size[0::2]
        below = size
        size = np.ones(splits[d].size, dtype=np.int64)
        size[splits[d]] += below[0::2] + below[1::2]
    roots = np.cumsum(size) - size  # size now holds each tree's node count
    pre = roots
    pres, lefts, rights = [], [], []
    for d, split in enumerate(splits):
        left = np.full(split.size, -1, dtype=np.int64)
        right = left.copy()
        left[split] = pre[split] + 1
        right[split] = left[split] + left_size[d]
        pres.append(pre)
        lefts.append(left)
        rights.append(right)
        pre = np.stack([left[split], right[split]], axis=1).ravel()

    place = np.concatenate(pres)
    order = np.empty_like(place)
    order[place] = np.arange(place.size)  # the level-order node at each preorder place
    value, feature, threshold, gain = (np.concatenate(col)[order] for col in zip(*levels))
    return {
        "feature": feature, "threshold": threshold, "left": np.concatenate(lefts)[order],
        "right": np.concatenate(rights)[order], "value": value, "gain": gain, "trees": roots,
    }


@dataclass
class ImportanceReport:
    """Per-feature importance with uncertainty and sum-to-100 percentages."""

    method: str
    feature_names: tuple[str, ...]
    importance: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    pct: np.ndarray
    degenerate: bool = False

    @property
    def ranking(self) -> tuple[str, ...]:
        order = np.argsort(-self.pct, kind="stable")
        return tuple(self.feature_names[i] for i in order)

    def to_dict(self) -> dict:
        def _clean(v: float):
            return float(v) if np.isfinite(v) else None

        return {
            "method": self.method,
            "degenerate": self.degenerate,
            "features": [
                {
                    "name": self.feature_names[i],
                    "importance": _clean(self.importance[i]),
                    "ci_low": _clean(self.ci_low[i]),
                    "ci_high": _clean(self.ci_high[i]),
                    "pct": _clean(self.pct[i]),
                }
                for i in range(len(self.feature_names))
            ],
        }


def _normalize_pct(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    total = float(raw.sum())
    if total <= 0:
        return np.full(raw.shape, 100.0 / raw.shape[0]), True
    return raw / total * 100.0, False


def _shares(values: np.ndarray) -> np.ndarray:
    total = float(values.sum())
    return values / total if total > 0 else np.zeros_like(values)


def impurity_importance(forest: ForestModel) -> ImportanceReport:
    """Mean per-feature variance reduction across trees, normalized to sum 1.

    Each tree's gains are added per feature in preorder, then the trees in
    tree order, as summing tree by tree would.
    """
    n_trees, m = len(forest.trees), len(forest.feature_names)
    tree = np.repeat(np.arange(n_trees), np.diff(forest.trees, append=forest.feature.size))
    internal = forest.feature >= 0
    per_tree = np.zeros((n_trees, m))
    np.add.at(per_tree, (tree[internal], forest.feature[internal]), forest.gain[internal])
    sums = np.zeros(m)
    for row in per_tree:
        sums += row
    sums /= n_trees
    shares = _shares(sums)
    pct, degenerate = _normalize_pct(sums)
    nan = np.full(m, np.nan)
    return ImportanceReport(
        method="impurity", feature_names=forest.feature_names,
        importance=shares, ci_low=nan, ci_high=nan, pct=pct, degenerate=degenerate,
    )


def _percentile_sorted(cols: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(cols, q, axis=0)`` bit for bit on finite columns sorted
    ascending along axis 0, without the import of ``numpy.ma`` that numpy's
    first percentile call makes (13–15 ms).

    This is numpy's default linear method: the position (n - 1) q / 100 falls
    between two order statistics, blended in numpy's order of operations; at
    or past the last position both are the last one, with weight pos + 1.
    """
    n = len(cols)
    pos = (n - 1) * (q / 100)
    if pos < n - 1:
        below = math.floor(pos)
        above = below + 1
    else:
        below = above = -1
    t = pos - below
    lo, hi = cols[below], cols[above]
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def bootstrap_importance_ci(
    data: AttributionDataset,
    n_boot: int = 100,
    seed: int = 0,
) -> ImportanceReport:
    """Impurity importance with 95% CIs from row-resampled forest refits.

    The point estimate comes from the forest fit on the original rows; the
    interval is the 2.5/97.5 percentile of each feature's importance share
    over n_boot resamples.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    point = impurity_importance(fit_random_forest(data, seed=derive_seed(seed, "point")))
    boot_shares = np.zeros((n_boot, data.features.shape[1]))
    for b, idx in enumerate(_resample(derive_seed(seed, "boot", np.arange(n_boot)), len(data))):
        resample = AttributionDataset(
            features=data.features[idx], target=data.target[idx],
            feature_names=data.feature_names,
        )
        refit = fit_random_forest(resample, seed=derive_seed(seed, "boot-fit", b))
        boot_shares[b] = impurity_importance(refit).importance
    boot_shares.sort(axis=0)
    ci_low = _percentile_sorted(boot_shares, 2.5)
    ci_high = _percentile_sorted(boot_shares, 97.5)
    return ImportanceReport(
        method="impurity", feature_names=data.feature_names,
        importance=point.importance, ci_low=ci_low, ci_high=ci_high,
        pct=point.pct, degenerate=point.degenerate,
    )


def lattice_table(forest: ForestModel, data: AttributionDataset) -> np.ndarray:
    """forest.predict over the Cartesian product of data.observed, in C order:
    prod(k_j) points for k_j observed values per column, 343 on grids of seven
    bit widths per component. Any row recombining observed values column by
    column is a lattice point, and predictions are per row, so a lookup equals
    predicting that row."""
    points = np.stack(np.meshgrid(*data.observed, indexing="ij"), axis=-1)
    return forest.predict(points.reshape(-1, len(data.observed)))


def _lattice_parts(table: np.ndarray, data: AttributionDataset) -> np.ndarray:
    """parts[i, j] = codes[i, j] * stride_j, so row i's point is table[parts[i].sum()]."""
    shape = [values.shape[0] for values in data.observed]
    if table.shape != (math.prod(shape),):
        raise ValueError(f"table has shape {table.shape}, but the lattice has {math.prod(shape)} points")
    strides = np.array([math.prod(shape[j + 1:]) for j in range(len(shape))], dtype=np.int64)
    return data.codes * strides


def permutation_importance(
    table: np.ndarray, data: AttributionDataset, n_repeats: int = 50, seed: int = 0
) -> ImportanceReport:
    """Mean squared-error increase when one feature column is shuffled, from a forest's ``lattice_table``.

    A shuffled row is a lattice point, so its prediction is a lookup in table.
    Raw (possibly negative) averages are kept in ``importance``; percentages
    use the negatives clamped to zero. The CI is a normal approximation over
    the repeat values. Every (feature, repeat) permutation is drawn at once.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be at least 1, got {n_repeats}")
    n, m = data.features.shape
    parts = _lattice_parts(table, data)
    flat = parts.sum(axis=1)
    base_mse = float(np.mean((table[flat] - data.target) ** 2))
    feature = np.arange(m)[:, None]
    perms = RngStream(derive_seed(seed, "perm", feature, np.arange(n_repeats))[..., None]).permutation(n)
    shuffled = table[(flat - parts.T)[:, None] + parts[perms, feature[..., None]]]  # [feature, repeat, row]
    increases = np.mean((shuffled - data.target) ** 2, axis=2) - base_mse
    mean = increases.mean(axis=1)
    if n_repeats > 1:
        half = 1.96 * increases.std(axis=1, ddof=1) / math.sqrt(n_repeats)
    else:
        half = np.zeros(m)
    clamped = np.maximum(mean, 0.0)
    pct, degenerate = _normalize_pct(clamped)
    return ImportanceReport(
        method="permutation", feature_names=data.feature_names,
        importance=mean, ci_low=mean - half, ci_high=mean + half,
        pct=pct, degenerate=degenerate,
    )


def _interventional_value(table: np.ndarray, parts: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """f_x(S): mean prediction with S fixed to each row's values and the rest
    drawn from every background row (background = the dataset itself)."""
    n, m = parts.shape
    if not subset:
        return np.full(n, float(table[parts.sum(axis=1)].mean()))
    if len(subset) == m:
        return table[parts.sum(axis=1)]
    fixed = parts[:, list(subset)].sum(axis=1)
    free = parts.sum(axis=1) - fixed
    return table[fixed[:, None] + free[None, :]].mean(axis=1)  # [i, b]: row i over background b


def shapley_values(table: np.ndarray, data: AttributionDataset) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact per-row Shapley attributions by subset enumeration over a forest's ``lattice_table``.

    Returns (phi, prediction, base) with phi of shape (rows, features);
    rows satisfy sum_j phi_j = f(x) - base exactly up to float rounding.
    """
    m = data.features.shape[1]
    if m > 8:
        raise ValueError(
            f"exact enumeration supports at most 8 features, got {m}; "
            "use a sampling approximation instead"
        )
    parts = _lattice_parts(table, data)
    values: dict[int, np.ndarray] = {}
    for mask in range(1 << m):
        subset = tuple(j for j in range(m) if mask >> j & 1)
        values[mask] = _interventional_value(table, parts, subset)
    fact = [math.factorial(i) for i in range(m + 1)]
    phi = np.zeros((data.features.shape[0], m))
    for mask in range(1 << m):
        size = bin(mask).count("1")
        for j in range(m):
            if mask >> j & 1:
                continue
            weight = fact[size] * fact[m - size - 1] / fact[m]
            phi[:, j] += weight * (values[mask | (1 << j)] - values[mask])
    return phi, values[(1 << m) - 1], float(values[0][0])


def shapley_importance(table: np.ndarray, data: AttributionDataset) -> ImportanceReport:
    """Global importance as the mean |phi_j| over rows, normalized to percent."""
    phi, _, _ = shapley_values(table, data)
    mean_abs = np.mean(np.abs(phi), axis=0)
    pct, degenerate = _normalize_pct(mean_abs)
    nan = np.full(data.features.shape[1], np.nan)
    return ImportanceReport(
        method="shapley", feature_names=data.feature_names,
        importance=mean_abs, ci_low=nan, ci_high=nan, pct=pct, degenerate=degenerate,
    )


def linear_baseline_r2(data: AttributionDataset) -> float:
    """Training R^2 of damped ordinary least squares on the bit features."""
    if len(data) < 4:
        raise ValueError(f"need at least 4 rows for the linear baseline, have {len(data)}")
    x = np.concatenate([np.ones((len(data), 1)), data.features], axis=1)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        warnings.warn("design matrix is rank-deficient; R^2 comes from the damped pseudo-solution")
    gram = x.T @ x
    damp = 1e-9 * float(np.mean(np.diag(gram)))
    beta = np.linalg.solve(gram + damp * np.eye(x.shape[1]), x.T @ data.target)
    residual = data.target - x @ beta
    ss_tot = float(np.sum((data.target - data.target.mean()) ** 2))
    if ss_tot <= 1e-12 * max(1.0, float(np.sum(data.target**2))):
        return 0.0  # zero total variance: R^2 is 0 by convention
    return 1.0 - float(np.sum(residual * residual)) / ss_tot


def consensus_ranking(reports: list[ImportanceReport]) -> ImportanceReport:
    """Average the three methods' percentages; output sums to 100."""
    if len(reports) != 3:
        raise ValueError(f"consensus expects the three method reports, got {len(reports)}")
    names = reports[0].feature_names
    for rep in reports[1:]:
        if rep.feature_names != names:
            raise ValueError(f"feature mismatch: {rep.feature_names} vs {names}")
    stacked = []
    for rep in reports:
        pct, _ = _normalize_pct(np.maximum(rep.pct, 0.0))
        stacked.append(pct)
    mean_pct = np.mean(stacked, axis=0)
    nan = np.full(len(names), np.nan)
    return ImportanceReport(
        method="consensus", feature_names=names,
        importance=mean_pct / 100.0, ci_low=nan, ci_high=nan, pct=mean_pct,
    )


CONSENSUS_CSV_HEADER = "model,method,task," + ",".join(f"{c.value}_pct" for c in COMPONENT_ORDER)


def consensus_csv_row(model: str, method: str, task: str, report: ImportanceReport) -> str:
    """One consensus table row; components absent from the report print as --."""
    by_name = dict(zip(report.feature_names, report.pct))
    cells = [model, method, task]
    for comp in COMPONENT_ORDER:
        value = by_name.get(comp.value)
        cells.append("--" if value is None else f"{value:.4f}")
    return ",".join(cells)
