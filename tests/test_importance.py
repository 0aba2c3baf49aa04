import itertools
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    oracle_forest_predict,
    oracle_impurity_importance,
    predict_interventional_value,
    predict_permutation_importance,
    recursive_forest_trees,
)

from mmqlab.experiments import RunRecord, load_results
from mmqlab.importance import (
    AttributionDataset,
    CONSENSUS_CSV_HEADER,
    ImportanceReport,
    _interventional_value,
    _lattice_parts,
    _percentile_sorted,
    _segment_sums,
    bootstrap_importance_ci,
    consensus_csv_row,
    consensus_ranking,
    fit_random_forest,
    impurity_importance,
    lattice_table,
    linear_baseline_r2,
    permutation_importance,
    shapley_importance,
    shapley_values,
)
from mmqlab.pipeline import BlockGroup, LayerType, TaskKind
from mmqlab.quantizers import Method

BIT_VALUES = (2, 3, 4, 5, 6, 8, 16)
NAMES = ("vision", "connector", "language")


def full_lattice():
    return np.array(list(itertools.product(BIT_VALUES, repeat=3)), dtype=np.float64)


def integer_lattice():
    """Every point of integer bits in [2, 16], as a results CSV may hold them: 15^3 points."""
    return np.array(list(itertools.product(range(2, 17), repeat=3)), dtype=np.float64)


def lattice_data(target_fn):
    grid = full_lattice()
    return AttributionDataset(features=grid, target=target_fn(grid), feature_names=NAMES)


def step_on_feature0(grid):
    return (grid[:, 0] >= 4).astype(np.float64)


def fixture_data():
    """The 343-row GPTQ VQA grid the benchmark's analyze workload reads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "gptq_vqa_343.csv"
    return AttributionDataset.from_results(load_results(path), TaskKind.VQA)


def resampled(data, seed):
    """A same-size resample with duplicate rows, as bootstrap_importance_ci builds."""
    idx = np.random.default_rng(seed).integers(0, len(data), len(data))
    return AttributionDataset(data.features[idx], data.target[idx], data.feature_names)


class TestAttributionDataset:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="bit features"):
            AttributionDataset(np.array([[1.0, 4.0]]), np.array([0.5]), ("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_bit_column(self, bad):
        features = np.array([[4.0, bad], [8.0, bad]])
        with pytest.raises(ValueError, match=r"bit features must lie in \[2, 16\]"):
            AttributionDataset(features, np.array([0.5, 0.25]), ("a", "b"))

    def test_rejects_missing_targets(self):
        with pytest.raises(ValueError, match="missing"):
            AttributionDataset(np.array([[4.0]]), np.array([np.nan]), ("a",))

    def test_from_results_drops_never_quantized_components(self):
        rows = [
            RunRecord(
                run_id=f"r{i}", method=Method.GPTQ, task=TaskKind.VQA,
                vision_bits=v, connector_bits=16, language_bits=l,
                groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
                group_size=128, bpw=8.0, score=0.5, seed=7, wall_ms=0,
            )
            for i, (v, l) in enumerate(itertools.product((2, 4, 16), repeat=2))
        ]
        data = AttributionDataset.from_results(rows, TaskKind.VQA, method=Method.GPTQ)
        assert data.feature_names == ("vision", "language")
        assert data.features.shape == (9, 2)

    def test_from_results_skips_failed_rows(self):
        good = RunRecord(
            run_id="g", method=Method.AWQ, task=TaskKind.VQA,
            vision_bits=2, connector_bits=16, language_bits=4,
            groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
            group_size=128, bpw=8.0, score=0.5, seed=7, wall_ms=0,
        )
        bad = RunRecord(
            run_id="b", method=Method.AWQ, task=TaskKind.VQA,
            vision_bits=4, connector_bits=16, language_bits=2,
            groups=frozenset(BlockGroup), layer_types=frozenset(LayerType),
            group_size=128, bpw=float("nan"), score=float("nan"), seed=7, wall_ms=0,
        )
        data = AttributionDataset.from_results([good, bad], TaskKind.VQA)
        assert len(data) == 1
        assert data.target.tolist() == [0.5]

    def test_features_coded_by_sorted_observed_values(self):
        data = resampled(fixture_data(), 3)
        assert data.codes.dtype == np.int64 and data.codes.shape == data.features.shape
        for j, values in enumerate(data.observed):
            assert np.array_equal(values, np.unique(data.features[:, j]))
            assert np.array_equal(values[data.codes[:, j]], data.features[:, j])


class TestForest:
    def test_constant_target_gives_single_leaf_trees(self):
        data = lattice_data(lambda g: np.full(len(g), 0.5))
        forest = fit_random_forest(data, n_trees=10, seed=1)
        assert forest.feature.size == len(forest.trees) == 10 and np.all(forest.feature < 0)
        assert np.allclose(forest.predict(data.features), 0.5)

    def test_step_signal_beats_linear_fit(self):
        data = lattice_data(step_on_feature0)
        forest = fit_random_forest(data, seed=1)
        pred = forest.predict(data.features)
        ss_tot = np.sum((data.target - data.target.mean()) ** 2)
        r2_forest = 1.0 - np.sum((pred - data.target) ** 2) / ss_tot
        assert r2_forest >= 0.95
        assert linear_baseline_r2(data) <= 0.8

    def test_debug_mode_fits_exactly_when_rows_distinct(self):
        grid = full_lattice()
        target = np.arange(len(grid), dtype=np.float64)
        data = AttributionDataset(grid, target, NAMES)
        forest = fit_random_forest(data, n_trees=1, min_leaf=1, bootstrap=False, seed=0)
        assert np.array_equal(forest.predict(grid), target)

    def test_every_internal_node_reduces_variance(self):
        data = lattice_data(lambda g: 0.1 * g[:, 2] + 0.05 * g[:, 0] * (g[:, 1] >= 4))
        forest = fit_random_forest(data, n_trees=20, seed=3)
        assert np.all(forest.gain[forest.feature >= 0] > 0)

    def test_leaf_value_is_training_mean(self):
        grid = full_lattice()
        target = (grid[:, 1] >= 5).astype(np.float64) * 0.25 + 0.5
        data = AttributionDataset(grid, target, NAMES)
        forest = fit_random_forest(data, n_trees=1, min_leaf=1, bootstrap=False, seed=0)
        leaves = forest.feature < 0
        assert set(np.round(forest.value[leaves], 10)) <= {0.5, 0.75}

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 10 rows"):
            fit_random_forest(
                AttributionDataset(np.full((4, 2), 4.0), np.zeros(4), ("a", "b"))
            )

    def test_no_trees_rejected(self):
        with pytest.raises(ValueError, match="n_trees"):
            fit_random_forest(lattice_data(step_on_feature0), n_trees=0)

    @pytest.mark.parametrize("min_leaf", [0, -1])
    def test_min_leaf_below_one_rejected(self, min_leaf):
        with pytest.raises(ValueError, match="min_leaf"):
            fit_random_forest(lattice_data(step_on_feature0), n_trees=2, min_leaf=min_leaf)

    def test_deterministic_given_seed(self):
        data = lattice_data(step_on_feature0)
        a = fit_random_forest(data, n_trees=5, seed=9)
        b = fit_random_forest(data, n_trees=5, seed=9)
        assert np.array_equal(a.predict(data.features), b.predict(data.features))


def assert_same_trees(forest, oracle_trees):
    """The forest's node arrays against the oracle's trees laid end to end,
    with each tree's child indices moved by the tree's first node."""
    sizes = [tree.feature.size for tree in oracle_trees]
    roots = np.cumsum(sizes) - sizes
    assert forest.trees.tobytes() == roots.tobytes()
    for name in ("feature", "threshold", "left", "right", "value", "gain"):
        cols = [getattr(tree, name) for tree in oracle_trees]
        if name in ("left", "right"):
            cols = [np.where(col >= 0, col + root, col) for col, root in zip(cols, roots)]
        got, exp = getattr(forest, name), np.concatenate(cols)
        assert got.dtype == exp.dtype and got.shape == exp.shape, name
        assert got.tobytes() == exp.tobytes(), name


class TestLockstepFit:
    """The breadth-first fit against the recursive depth-first oracle, bit for bit."""

    @pytest.mark.parametrize("target", [
        step_on_feature0,
        lambda g: 0.05 * g[:, 0] * (g[:, 2] >= 4) + 0.01 * g[:, 1] + 0.001 * g[:, 2] ** 2,
        lambda g: np.sin(g.sum(axis=1)) + 0.1 * g[:, 1],
    ])
    def test_lattice_targets(self, target):
        data = lattice_data(target)
        assert_same_trees(fit_random_forest(data, n_trees=30, seed=3), recursive_forest_trees(data, 30, seed=3))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fixture_grid(self, seed):
        data = fixture_data()
        assert_same_trees(fit_random_forest(data, seed=seed), recursive_forest_trees(data, seed=seed))

    def test_resample_with_duplicate_rows(self):
        data = resampled(fixture_data(), 1)
        assert len(np.unique(data.features, axis=0)) < len(data)
        assert_same_trees(fit_random_forest(data, n_trees=40, seed=2), recursive_forest_trees(data, 40, seed=2))

    def test_constant_target(self):
        data = lattice_data(lambda g: np.full(len(g), 0.5))
        assert_same_trees(fit_random_forest(data, n_trees=5, seed=1), recursive_forest_trees(data, 5, seed=1))

    def test_negative_zero_target(self):
        # load_results accepts a score of -0.0; np.add.reduce sums all -0.0s to +0.0
        data = lattice_data(lambda g: np.full(len(g), -0.0))
        assert_same_trees(fit_random_forest(data, n_trees=5, seed=1), recursive_forest_trees(data, 5, seed=1))

    def test_min_leaf_one_without_bootstrap(self):
        grid = full_lattice()
        data = AttributionDataset(grid, np.cos(np.arange(len(grid), dtype=np.float64)), NAMES)
        forest = fit_random_forest(data, n_trees=2, min_leaf=1, bootstrap=False, seed=0)
        assert_same_trees(forest, recursive_forest_trees(data, 2, min_leaf=1, seed=0, bootstrap=False))

    def test_tied_gains_pick_first_feature_and_threshold(self):
        grid = full_lattice()
        grid[:, 1] = grid[:, 0]  # every split on column 1 ties with the same split on column 0
        data = AttributionDataset(grid, ((grid[:, 0] == 4) | (grid[:, 2] == 5)).astype(np.float64), NAMES)
        forest = fit_random_forest(data, n_trees=20, seed=4)
        assert_same_trees(forest, recursive_forest_trees(data, 20, seed=4))
        assert not np.any(forest.feature == 1)

        # A middle spike: splitting below or above it gains exactly the same.
        x = np.repeat(np.array([[2.0, 2.0, 4.0], [3.0, 3.0, 4.0], [4.0, 4.0, 4.0]]), 4, axis=0)
        data = AttributionDataset(x, (x[:, 0] == 3).astype(np.float64), NAMES)
        forest = fit_random_forest(data, n_trees=1, min_leaf=1, bootstrap=False)
        assert_same_trees(forest, recursive_forest_trees(data, 1, min_leaf=1, bootstrap=False))
        assert (forest.feature[0], forest.threshold[0]) == (0, 2.0)


class TestPaddedSearch:
    """The search block pads every feature to the widest one's code count;
    against the recursive oracle, bit for bit, on the cases padding touches."""

    @staticmethod
    def uneven_data(order):
        """Features with 2, 5 and 7 observed values, in the given column order."""
        values = [(2, 8), (2, 3, 4, 6, 8), BIT_VALUES]
        grid = np.array(list(itertools.product(*(values[i] for i in order))), dtype=np.float64)
        x = grid[:, np.argsort(order)]  # columns back in 2, 5, 7 order for the target
        target = 0.3 * (x[:, 0] == 8) + 0.02 * x[:, 1] * (x[:, 2] >= 4) + np.sin(x[:, 2])
        return AttributionDataset(grid, target, NAMES)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_features_of_different_widths(self, order):
        data = self.uneven_data(order)
        assert [v.size for v in data.observed] == [(2, 5, 7)[i] for i in order]
        assert_same_trees(fit_random_forest(data, n_trees=30, seed=8), recursive_forest_trees(data, 30, seed=8))

    def test_constant_feature(self):
        grid = full_lattice()
        grid[:, 1] = 4.0
        data = AttributionDataset(grid, 0.1 * grid[:, 0] + (grid[:, 2] >= 5), NAMES)
        forest = fit_random_forest(data, n_trees=20, seed=2)
        assert_same_trees(forest, recursive_forest_trees(data, 20, seed=2))
        assert not np.any(forest.feature == 1)

    @pytest.mark.parametrize("wide_first", [False, True])
    def test_gain_tied_across_features_of_different_widths(self, wide_first):
        """The 2-value feature and the 7-value one at <= 4 cut the rows the
        same way, at different codes, and every sum is exact, so their gains
        tie exactly: the first feature wins every tie."""
        grid = full_lattice()
        grid[:, 0] = np.where(grid[:, 1] <= 4, 2.0, 3.0)
        target = (grid[:, 1] <= 4) + 0.25 * (grid[:, 2] >= 5)
        data = AttributionDataset(grid[:, [1, 0, 2]] if wide_first else grid, target, NAMES)
        forest = fit_random_forest(data, n_trees=20, seed=5)
        assert_same_trees(forest, recursive_forest_trees(data, 20, seed=5))
        assert not np.any(forest.feature == 1)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_min_leaf_with_bootstrap(self, min_leaf):
        data = self.uneven_data((0, 1, 2))
        forest = fit_random_forest(data, n_trees=20, min_leaf=min_leaf, seed=4)
        assert_same_trees(forest, recursive_forest_trees(data, 20, min_leaf=min_leaf, seed=4))


class TestSegmentSums:
    def test_matches_add_reduce_per_segment(self):
        """Both columns of every segment against np.add.reduce on that segment
        alone, bit for bit: every length from 1 to 1,100 in one call, then the
        block-size boundaries again with every value -0.0."""
        rng = np.random.default_rng(0)
        boundaries = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257]
        lens = np.array(list(range(1, 1101)) + boundaries)
        values = rng.standard_normal((lens.sum(), 2)) * 10.0 ** rng.integers(-8, 9, (lens.sum(), 2))
        values[-sum(boundaries):] = -0.0
        starts = np.cumsum(lens) - lens
        want = np.array([
            [np.add.reduce(np.ascontiguousarray(values[a : a + n, c])) for c in range(2)]
            for a, n in zip(starts, lens)
        ])
        bad = np.any(_segment_sums(values, lens).view(np.uint64) != want.view(np.uint64), axis=1)
        assert not bad.any(), (
            f"numpy {np.__version__} sums segments of lengths {lens[bad][:10].tolist()} in an order "
            "_segment_sums does not reproduce"
        )

    @pytest.mark.parametrize("lane", [0, 3, 7])
    def test_one_lane_of_negative_zeros(self, lane):
        """In segments of 8 to 128 rows, one of the eight running sums adds
        only -0.0s and the others do not; the bincount lanes start from +0.0."""
        rng = np.random.default_rng(lane)
        lens = np.array([8, 9, 16, 23, 64, 127, 128])
        values = rng.standard_normal((lens.sum(), 2))
        for a, n in zip(np.cumsum(lens) - lens, lens):
            values[a + lane : a + n - n % 8 : 8] = -0.0
        starts = np.cumsum(lens) - lens
        want = np.array([
            [np.add.reduce(np.ascontiguousarray(values[a : a + n, c])) for c in range(2)]
            for a, n in zip(starts, lens)
        ])
        assert _segment_sums(values, lens).tobytes() == want.tobytes()


class TestForestPredict:
    """All trees walked together against one tree at a time, bit for bit."""

    @pytest.mark.parametrize("make, points", [
        (fixture_data, lambda data: data.features),
        (lambda: resampled(fixture_data(), 5), lambda data: data.features),
        (fixture_data, lambda data: integer_lattice()),
        (lambda: lattice_data(lambda g: np.full(len(g), 0.5)), lambda data: data.features[::7]),
    ], ids=["fixture", "resample", "integer-lattice", "single-leaf-trees"])
    def test_matches_tree_by_tree_walk(self, make, points):
        data = make()
        forest = fit_random_forest(data, seed=9)
        x = points(data)
        assert forest.predict(x).tobytes() == oracle_forest_predict(forest, x).tobytes()


class TestLatticeTable:
    """Table lookups against predicting every row, with np.array_equal."""

    @pytest.mark.parametrize("make", [fixture_data, lambda: resampled(fixture_data(), 3)])
    def test_permutation_matches_predicting_shuffled_rows(self, make):
        data = make()
        forest = fit_random_forest(data, n_trees=20, seed=6)
        got = permutation_importance(lattice_table(forest, data), data, n_repeats=10, seed=6)
        want = predict_permutation_importance(forest, data, n_repeats=10, seed=6)
        for name in ("importance", "ci_low", "ci_high", "pct"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_interventional_values_match_predicting_synthetic_rows(self):
        data = resampled(fixture_data(), 4)
        x = data.features[:150]  # a partial grid: the table holds points no row has
        forest = fit_random_forest(data, n_trees=20, seed=7)
        part = AttributionDataset(x, data.target[:150], data.feature_names)
        table = lattice_table(forest, part)
        parts = _lattice_parts(table, part)
        for r in range(4):
            for subset in itertools.combinations(range(3), r):
                assert np.array_equal(
                    _interventional_value(table, parts, subset), predict_interventional_value(forest, x, subset)
                ), subset

    def test_table_rows_are_predictions_in_c_order(self):
        data = lattice_data(lambda g: 0.1 * g[:, 0] - 0.01 * g[:, 1] * g[:, 2])
        forest = fit_random_forest(data, n_trees=10, seed=8)
        reversed_data = AttributionDataset(data.features[::-1], data.target[::-1], NAMES)
        table = lattice_table(forest, reversed_data)
        parts = _lattice_parts(table, reversed_data)
        assert np.array_equal(table, forest.predict(full_lattice()))
        assert np.array_equal(table[parts.sum(axis=1)], forest.predict(data.features[::-1]))

    def test_rejects_another_datasets_table(self):
        data = lattice_data(step_on_feature0)
        forest = fit_random_forest(data, n_trees=5, seed=1)
        other = AttributionDataset(data.features[:20], data.target[:20], NAMES)  # 1 x 3 x 7 points
        with pytest.raises(ValueError, match="the lattice has 21 points"):
            permutation_importance(lattice_table(forest, data), other)


class TestImpurity:
    def test_single_feature_signal_dominates(self):
        forest = fit_random_forest(lattice_data(step_on_feature0), seed=1)
        report = impurity_importance(forest)
        assert report.importance[0] >= 0.95

    def test_symmetric_features_split_evenly(self):
        data = lattice_data(lambda g: g[:, 0] + g[:, 1])
        forest = fit_random_forest(data, seed=2)
        report = impurity_importance(forest)
        assert abs(report.importance[0] - 0.5) <= 0.1
        assert abs(report.importance[1] - 0.5) <= 0.1

    def test_shares_sum_to_one(self):
        data = lattice_data(lambda g: 0.3 * g[:, 0] - 0.1 * g[:, 2])
        report = impurity_importance(fit_random_forest(data, seed=3))
        assert report.importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.pct.sum() == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("make", [
        fixture_data,
        lambda: resampled(fixture_data(), 2),
        lambda: lattice_data(step_on_feature0),
        lambda: lattice_data(lambda g: np.sin(g.sum(axis=1)) + 0.1 * g[:, 1]),
        lambda: lattice_data(lambda g: np.full(len(g), 0.5)),
    ], ids=["fixture", "resample", "lattice-step", "lattice-sine", "single-leaf-trees"])
    def test_matches_tree_by_tree_sums(self, make):
        """One np.add.at over the whole forest against the recursive oracle's
        trees summed one at a time, bit for bit."""
        data = make()
        got = impurity_importance(fit_random_forest(data, n_trees=40, seed=11))
        want = oracle_impurity_importance(recursive_forest_trees(data, 40, seed=11), data.feature_names)
        for name in ("importance", "pct"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.degenerate == want.degenerate
        if np.ptp(data.target) == 0:
            assert got.degenerate and np.all(got.importance == 0.0)

    def test_degenerate_reports_uniform(self):
        report = impurity_importance(fit_random_forest(lattice_data(lambda g: np.zeros(len(g))), n_trees=5, seed=0))
        assert report.degenerate
        assert np.allclose(report.pct, 100.0 / 3)
        assert np.all(report.importance == 0.0)


class TestBootstrapCi:
    def test_signal_separated_from_noise(self):
        report = bootstrap_importance_ci(lattice_data(step_on_feature0), n_boot=50, seed=4)
        assert report.ci_low[0] > max(report.ci_high[1], report.ci_high[2])

    def test_single_resample_degenerate_interval(self):
        report = bootstrap_importance_ci(lattice_data(step_on_feature0), n_boot=1, seed=4)
        assert np.array_equal(report.ci_low, report.ci_high)

    def test_no_resamples_rejected(self):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_importance_ci(lattice_data(step_on_feature0), n_boot=0)

    def test_deterministic(self):
        a = bootstrap_importance_ci(lattice_data(step_on_feature0), n_boot=10, seed=5)
        b = bootstrap_importance_ci(lattice_data(step_on_feature0), n_boot=10, seed=5)
        assert np.array_equal(a.ci_low, b.ci_low) and np.array_equal(a.ci_high, b.ci_high)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_interval_ends_match_numpy_percentile(self, ties):
        rng = np.random.default_rng(6)
        for n_boot in range(1, 301):
            shares = rng.random((n_boot, 3))
            if ties:  # a few share values, a constant column and a zero column
                shares = np.round(shares * 4) / 4
                shares[:, 1], shares[:, 2] = shares[0, 1], 0.0
            ordered = np.sort(shares, axis=0)
            for q in (2.5, 97.5):
                got, want = _percentile_sorted(ordered, q), np.percentile(shares, q, axis=0)
                assert got.tobytes() == want.tobytes(), (n_boot, q)


class TestPermutation:
    def test_constant_feature_importance_exactly_zero(self):
        grid = full_lattice()
        grid[:, 1] = 4.0
        target = (grid[:, 0] >= 4).astype(np.float64)
        data = AttributionDataset(grid, target, NAMES)
        forest = fit_random_forest(data, seed=6)
        report = permutation_importance(lattice_table(forest, data), data, seed=6)
        assert report.importance[1] == 0.0

    def test_signal_feature_dominates(self):
        data = lattice_data(step_on_feature0)
        forest = fit_random_forest(data, seed=7)
        report = permutation_importance(lattice_table(forest, data), data, seed=7)
        assert report.importance[0] > 0
        assert abs(report.importance[1]) <= 0.05 * report.importance[0]
        assert abs(report.importance[2]) <= 0.05 * report.importance[0]

    def test_feature_outside_all_split_sets_is_exactly_zero(self):
        data = lattice_data(step_on_feature0)
        forest = fit_random_forest(data, seed=7)
        split_on = set(forest.feature[forest.feature >= 0].tolist())
        report = permutation_importance(lattice_table(forest, data), data, seed=7)
        for j in range(3):
            if j not in split_on:
                assert report.importance[j] == 0.0

    def test_no_repeats_rejected(self):
        data = lattice_data(step_on_feature0)
        table = lattice_table(fit_random_forest(data, n_trees=2), data)
        with pytest.raises(ValueError, match="n_repeats"):
            permutation_importance(table, data, n_repeats=0)

    def test_default_repeat_count(self):
        import inspect

        assert inspect.signature(permutation_importance).parameters["n_repeats"].default == 50

    def test_negative_means_clamped_in_pct_but_raw_kept(self):
        report = ImportanceReport(
            method="permutation", feature_names=("a", "b"),
            importance=np.array([0.4, -0.1]), ci_low=np.zeros(2), ci_high=np.zeros(2),
            pct=np.array([100.0, 0.0]),
        )
        assert report.pct.min() >= 0.0 and report.importance.min() < 0.0


class TestShapley:
    def test_efficiency_axiom(self):
        data = lattice_data(lambda g: 0.05 * g[:, 0] * (g[:, 2] >= 4) + 0.01 * g[:, 1])
        forest = fit_random_forest(data, n_trees=20, seed=8)
        phi, fx, base = shapley_values(lattice_table(forest, data), data)
        assert np.max(np.abs(phi.sum(axis=1) - (fx - base))) <= 1e-9

    def test_null_player_axiom_exact(self):
        data = lattice_data(step_on_feature0)
        forest = fit_random_forest(data, seed=9)
        phi, _, _ = shapley_values(lattice_table(forest, data), data)
        assert np.all(phi[:, 1] == 0.0)
        assert np.all(phi[:, 2] == 0.0)

    def test_single_feature_share(self):
        data = lattice_data(step_on_feature0)
        report = shapley_importance(lattice_table(fit_random_forest(data, seed=10), data), data)
        assert report.pct[0] >= 95.0

    def test_feature_count_limit(self):
        features = np.full((12, 9), 4.0)
        data = AttributionDataset(features, np.zeros(12), tuple(f"f{i}" for i in range(9)))
        forest = fit_random_forest(data, n_trees=2, seed=0)
        with pytest.raises(ValueError, match="sampling"):
            shapley_values(lattice_table(forest, data), data)


class TestScaleRobustness:
    def test_rescaling_targets_rescales_importances(self):
        data = lattice_data(lambda g: 0.02 * g[:, 0] + (g[:, 2] >= 5) * 0.3)
        scaled = AttributionDataset(data.features, data.target * 3.0, NAMES)
        f1 = fit_random_forest(data, n_trees=30, seed=11)
        f2 = fit_random_forest(scaled, n_trees=30, seed=11)

        imp1, imp2 = impurity_importance(f1), impurity_importance(f2)
        assert np.allclose(imp1.pct, imp2.pct, atol=1e-6)

        t1, t2 = lattice_table(f1, data), lattice_table(f2, scaled)
        perm1 = permutation_importance(t1, data, n_repeats=10, seed=11)
        perm2 = permutation_importance(t2, scaled, n_repeats=10, seed=11)
        assert np.allclose(perm2.importance, perm1.importance * 9.0, rtol=1e-9)
        assert np.allclose(perm1.pct, perm2.pct, atol=1e-6)

        shap1, shap2 = shapley_importance(t1, data), shapley_importance(t2, scaled)
        assert np.allclose(shap2.importance, shap1.importance * 3.0, rtol=1e-9)
        assert np.allclose(shap1.pct, shap2.pct, atol=1e-6)


class TestLinearBaseline:
    def test_exactly_linear_target(self):
        data = lattice_data(lambda g: 0.01 * g[:, 0] - 0.02 * g[:, 1] + 0.005 * g[:, 2] + 0.3)
        assert linear_baseline_r2(data) == pytest.approx(1.0, abs=1e-9)

    def test_constant_target_zero_by_convention(self):
        assert linear_baseline_r2(lattice_data(lambda g: np.full(len(g), 0.7))) == 0.0

    def test_cliff_gap_vs_forest(self):
        data = lattice_data(lambda g: ((g[:, 2] >= 4) & (g[:, 0] >= 3)).astype(np.float64))
        forest = fit_random_forest(data, seed=12)
        pred = forest.predict(data.features)
        ss_tot = np.sum((data.target - data.target.mean()) ** 2)
        r2_forest = 1.0 - np.sum((pred - data.target) ** 2) / ss_tot
        assert r2_forest - linear_baseline_r2(data) >= 0.15

    def test_rank_deficiency_flagged(self):
        grid = full_lattice()
        grid[:, 1] = grid[:, 0]  # collinear
        data = AttributionDataset(grid, grid[:, 2] * 0.01, NAMES)
        with pytest.warns(UserWarning, match="rank-deficient"):
            linear_baseline_r2(data)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 4"):
            linear_baseline_r2(AttributionDataset(np.full((3, 1), 4.0), np.zeros(3), ("a",)))


def _report(pct, method="impurity"):
    pct = np.asarray(pct, dtype=np.float64)
    return ImportanceReport(
        method=method, feature_names=NAMES, importance=pct / 100.0,
        ci_low=np.full(3, np.nan), ci_high=np.full(3, np.nan), pct=pct,
    )


class TestConsensus:
    def test_idempotent_on_identical_reports(self):
        rep = _report([60.0, 30.0, 10.0])
        out = consensus_ranking([rep, rep, rep])
        assert np.allclose(out.pct, rep.pct)

    def test_hand_arithmetic(self):
        out = consensus_ranking([_report([100, 0, 0]), _report([0, 100, 0]), _report([50, 25, 25])])
        assert np.allclose(out.pct, [50.0, 125.0 / 3.0, 25.0 / 3.0])
        assert out.pct.sum() == pytest.approx(100.0, abs=0.01)

    def test_table_row_format(self):
        out = consensus_ranking([_report([50.4, 2.0, 47.6])] * 3)
        row = consensus_csv_row("toy-pipeline", "gptq", "caption", out)
        cells = row.split(",")
        assert cells[:3] == ["toy-pipeline", "gptq", "caption"]
        assert sum(float(c) for c in cells[3:]) == pytest.approx(100.0, abs=0.01)
        assert CONSENSUS_CSV_HEADER.startswith("model,method,task")

    def test_absent_component_prints_dashes(self):
        rep = ImportanceReport(
            method="consensus", feature_names=("vision", "language"),
            importance=np.array([0.7, 0.3]), ci_low=np.full(2, np.nan),
            ci_high=np.full(2, np.nan), pct=np.array([70.0, 30.0]),
        )
        row = consensus_csv_row("toy-pipeline", "awq", "vqa", rep)
        assert row.split(",")[4] == "--"

    def test_feature_mismatch_rejected(self):
        bad = ImportanceReport(
            method="shapley", feature_names=("x", "y", "z"),
            importance=np.zeros(3), ci_low=np.zeros(3), ci_high=np.zeros(3),
            pct=np.full(3, 100 / 3),
        )
        with pytest.raises(ValueError, match="feature mismatch"):
            consensus_ranking([_report([50, 30, 20]), _report([50, 30, 20]), bad])

    def test_requires_three_reports(self):
        with pytest.raises(ValueError, match="three"):
            consensus_ranking([_report([100, 0, 0])])

    def test_ranking_descending(self):
        out = consensus_ranking([_report([20, 50, 30])] * 3)
        assert out.ranking == ("connector", "language", "vision")

    def test_json_shape(self):
        rep = _report([60, 30, 10])
        d = rep.to_dict()
        assert set(d) == {"method", "degenerate", "features"}
        assert set(d["features"][0]) == {"name", "importance", "ci_low", "ci_high", "pct"}
        assert d["features"][0]["ci_low"] is None  # NaN CIs serialize as null
