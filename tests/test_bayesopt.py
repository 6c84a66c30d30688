"""Tests for the Gaussian-process Bayesian optimization stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.bayesopt import (
    BayesianOptimizer,
    GaussianProcess,
    Matern52Kernel,
    OnlineBayesianOptimizer,
    RBFKernel,
    expected_improvement,
    lower_confidence_bound,
    probability_of_improvement,
)


class TestKernels:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_diagonal_equals_signal_variance(self, kernel_cls):
        kernel = kernel_cls(length_scale=0.5, signal_variance=2.0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        matrix = kernel(x, x)
        np.testing.assert_allclose(np.diag(matrix), 2.0, atol=1e-8)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_symmetry_and_decay(self, kernel_cls):
        kernel = kernel_cls()
        x = np.asarray([[0.0], [0.1], [5.0]])
        matrix = kernel(x, x)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        assert matrix[0, 1] > matrix[0, 2]

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            RBFKernel(length_scale=0)
        with pytest.raises(ValueError):
            Matern52Kernel(signal_variance=-1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RBFKernel()(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40
        ),
        length_scale=st.floats(min_value=1e-3, max_value=10.0),
        signal_variance=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_diag_is_bitwise_the_matrix_diagonal_in_one_dimension(
        self, kernel_cls, points, length_scale, signal_variance
    ):
        kernel = kernel_cls(length_scale=length_scale, signal_variance=signal_variance)
        x = np.asarray(points)[:, None]
        np.testing.assert_array_equal(kernel.diag(x), np.diag(kernel(x, x)))


class TestGaussianProcess:
    def test_interpolates_observations(self):
        x = np.linspace(0, 1, 6)[:, None]
        y = np.sin(3 * x).ravel()
        gp = GaussianProcess(noise=1e-8).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_uncertainty_grows_away_from_data(self):
        x = np.asarray([[0.0], [0.2]])
        gp = GaussianProcess().fit(x, np.asarray([0.0, 0.1]))
        _, std_near = gp.predict(np.asarray([[0.1]]))
        _, std_far = gp.predict(np.asarray([[3.0]]))
        assert std_far > std_near

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 1)))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((2, 1)), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(
        observed=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8
        ),
        queries=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=32),
    )
    def test_predict_matches_full_prior_covariance_in_one_dimension(
        self, observed, queries
    ):
        """O(C) prior variance == reading the diagonal of the C x C matrix."""
        x = np.asarray([point for point, _ in observed])[:, None]
        y = np.asarray([value for _, value in observed])
        gp = GaussianProcess(kernel=Matern52Kernel(length_scale=0.2)).fit(x, y)
        query = np.asarray(queries)[:, None]
        mean, std = gp.predict(query)
        cross = gp.kernel(query, gp._x)
        v = np.linalg.solve(gp._cholesky, cross.T)
        prior_var = np.diag(gp.kernel(query, query))
        expected = np.sqrt(np.maximum(prior_var - np.sum(v**2, axis=0), 1e-12))
        np.testing.assert_array_equal(std, expected)
        np.testing.assert_array_equal(mean, cross @ gp._alpha + gp._y_mean)

    def test_duplicate_points_handled(self):
        x = np.asarray([[0.5], [0.5], [0.5]])
        gp = GaussianProcess().fit(x, np.asarray([1.0, 1.0, 1.0]))
        mean, _ = gp.predict(np.asarray([[0.5]]))
        assert mean[0] == pytest.approx(1.0, abs=1e-2)


class TestAcquisitions:
    def test_expected_improvement_prefers_low_mean(self):
        ei = expected_improvement(np.asarray([0.1, 0.9]), np.asarray([0.1, 0.1]), best=0.5)
        assert ei[0] > ei[1]

    def test_probability_of_improvement_bounds(self):
        pi = probability_of_improvement(np.asarray([0.0, 1.0]), np.asarray([0.2, 0.2]), best=0.5)
        assert np.all(pi >= 0) and np.all(pi <= 1)
        assert pi[0] > pi[1]

    def test_lcb_rewards_uncertainty(self):
        scores = lower_confidence_bound(np.asarray([0.5, 0.5]), np.asarray([0.01, 0.5]))
        assert scores[1] > scores[0]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=1e-3, max_value=2))
    def test_expected_improvement_non_negative(self, mean, std):
        value = expected_improvement(np.asarray([mean]), np.asarray([std]), best=0.0)
        assert value[0] >= -1e-9


def _reference_expected_improvement(mean, std, best, xi=0.01):
    """The ``scipy.stats.norm`` formulation the acquisition replaced."""
    std = np.maximum(std, 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)


def _reference_probability_of_improvement(mean, std, best, xi=0.01):
    return stats.norm.cdf((best - mean - xi) / np.maximum(std, 1e-12))


#: Standard deviations spanning the 1e-12 floor, below it and ordinary scales.
_STDS = st.one_of(
    st.sampled_from([0.0, 1e-13, 1e-12, 2e-12]),
    st.floats(min_value=1e-6, max_value=5.0),
)


class TestAcquisitionExactness:
    """EI and PI are bitwise the ``scipy.stats.norm`` formulas they replace."""

    @settings(max_examples=150, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.floats(min_value=-40.0, max_value=40.0), _STDS),
            min_size=1,
            max_size=64,
        ),
        best=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_z_up_to_forty(self, draws, best):
        z = np.asarray([value for value, _ in draws])
        std = np.asarray([scale for _, scale in draws])
        mean = best - 0.01 - z * np.maximum(std, 1e-12)
        np.testing.assert_array_equal(
            expected_improvement(mean, std, best),
            _reference_expected_improvement(mean, std, best),
        )
        np.testing.assert_array_equal(
            probability_of_improvement(mean, std, best),
            _reference_probability_of_improvement(mean, std, best),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.floats(min_value=-2.0, max_value=2.0), _STDS),
            min_size=1,
            max_size=64,
        ),
        best=st.floats(min_value=-2.0, max_value=2.0),
        xi=st.sampled_from([0.0, 0.01, 0.1]),
    )
    def test_arbitrary_means_and_floored_stds(self, draws, best, xi):
        mean = np.asarray([value for value, _ in draws])
        std = np.asarray([scale for _, scale in draws])
        np.testing.assert_array_equal(
            expected_improvement(mean, std, best, xi),
            _reference_expected_improvement(mean, std, best, xi),
        )
        np.testing.assert_array_equal(
            probability_of_improvement(mean, std, best, xi),
            _reference_probability_of_improvement(mean, std, best, xi),
        )


class TestBayesianOptimizer:
    def test_minimizes_quadratic(self):
        bounds = np.asarray([[-2.0, 2.0], [-2.0, 2.0]])
        optimizer = BayesianOptimizer(bounds, seed=0)
        best = optimizer.minimize(lambda x: float(np.sum((x - 0.5) ** 2)), num_iterations=25)
        assert best.value < 0.5

    def test_suggest_within_bounds(self):
        bounds = np.asarray([[1.0, 3.0]])
        optimizer = BayesianOptimizer(bounds, seed=1)
        for _ in range(10):
            candidate = optimizer.suggest()
            assert 1.0 <= candidate[0] <= 3.0
            optimizer.update(candidate, float(candidate[0] ** 2))

    def test_update_validation(self):
        optimizer = BayesianOptimizer(np.asarray([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            optimizer.update(np.asarray([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            optimizer.update(np.asarray([0.5]), float("nan"))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(np.asarray([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            BayesianOptimizer(np.asarray([[0.0, 1.0]]), acquisition="bogus")

    @pytest.mark.parametrize("acquisition", ["ei", "pi", "lcb"])
    def test_all_acquisitions_run(self, acquisition):
        optimizer = BayesianOptimizer(np.asarray([[0.0, 1.0]]), acquisition=acquisition, seed=2)
        best = optimizer.minimize(lambda x: float((x[0] - 0.3) ** 2), num_iterations=12)
        assert 0.0 <= best.x[0] <= 1.0


class TestOnlineBayesianOptimizer:
    def test_warm_start_carries_history(self):
        bounds = np.asarray([[0.0, 1.0]])
        obo = OnlineBayesianOptimizer(bounds, seed=0)
        obo.start_round()
        for _ in range(4):
            candidate = obo.next_candidate()
            obo.update(candidate, float((candidate[0] - 0.2) ** 2))
        first_best = obo.best_trial
        obo.start_round(incumbent=np.asarray([0.2]), incumbent_value=0.0)
        assert len(obo.history) >= 5
        assert obo.best_trial.value <= first_best.value

    def test_update_before_round_raises(self):
        obo = OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]))
        with pytest.raises(RuntimeError):
            obo.update(np.asarray([0.5]), 0.1)

    def test_next_candidate_auto_starts_round(self):
        obo = OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]), seed=1)
        candidate = obo.next_candidate()
        assert 0.0 <= candidate[0] <= 1.0

    def test_history_bounded(self):
        obo = OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]), memory=2, seed=2)
        obo.start_round()
        for i in range(60):
            obo.update(np.asarray([0.5]), float(i))
        assert len(obo.history) <= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]), memory=0)
        with pytest.raises(ValueError):
            OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]), decay=0.0)

    def test_half_specified_incumbent_raises(self):
        """An incumbent without its value (or vice versa) must not be dropped."""
        obo = OnlineBayesianOptimizer(np.asarray([[0.0, 1.0]]), seed=0)
        with pytest.raises(ValueError, match="incumbent"):
            obo.start_round(incumbent=np.asarray([0.3]))
        with pytest.raises(ValueError, match="incumbent"):
            obo.start_round(incumbent_value=0.25)
        # a fully specified incumbent lands in both the history and the round
        obo.start_round(incumbent=np.asarray([0.3]), incumbent_value=0.25)
        assert obo.history[-1].x == (0.3,) and obo.history[-1].value == 0.25
        assert obo._active.trials[-1].x == (0.3,)

    def test_warm_start_contents_and_decay_weights_across_activations(self):
        """Warm start = decay-gated recent history, newest weighted strongest."""
        obo = OnlineBayesianOptimizer(
            np.asarray([[0.0, 1.0]]), memory=12, decay=0.8, seed=0
        )
        obo.start_round()
        for i in range(6):
            obo.update(np.asarray([0.1 * i]), float(i))
        obo.start_round(incumbent=np.asarray([0.9]), incumbent_value=-1.0)
        active = obo._active
        # decay 0.8: weights 1, .8, .64, .512, .4096, .328, .262 — the 0.1
        # floor keeps all 7 retained trials (ages 0..6)
        assert len(active.trials) == 7
        # trials enter newest-first: the incumbent leads with full weight
        assert active.trials[0].x == (0.9,) and active.weights[0] == 1.0
        np.testing.assert_allclose(
            active.weights, [0.8**age for age in range(7)]
        )
        # a long history gates out everything older than the 0.1 floor
        for i in range(20):
            obo.update(np.asarray([0.5]), float(i))
        obo.start_round()
        ages_kept = sum(1 for age in range(12) if 0.8**age >= 0.1)
        assert len(obo._active.trials) == ages_kept

    def test_warm_start_weights_soften_old_observations(self):
        """A decayed trial pulls the surrogate less than a fresh one."""
        from repro.bayesopt.gp import GaussianProcess

        x = np.asarray([[0.2], [0.8]])
        y = np.asarray([0.0, 1.0])
        fresh = GaussianProcess(noise=1e-2).fit(x, y)
        soft = GaussianProcess(noise=1e-2).fit(x, y, noise_scale=np.asarray([1.0, 10.0]))
        query = np.asarray([[0.8]])
        fresh_mean, fresh_std = fresh.predict(query)
        soft_mean, soft_std = soft.predict(query)
        # the softened observation is trusted less: posterior pulled less far
        # towards it and left with more uncertainty
        assert abs(soft_mean[0] - 1.0) > abs(fresh_mean[0] - 1.0)
        assert soft_std[0] > fresh_std[0]
        with pytest.raises(ValueError):
            GaussianProcess().fit(x, y, noise_scale=np.asarray([1.0]))
        with pytest.raises(ValueError):
            GaussianProcess().fit(x, y, noise_scale=np.asarray([1.0, 0.0]))
