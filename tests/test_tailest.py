"""Tail-index estimation tests: Hill estimator, double-bootstrap k selection,
profile-likelihood GPD fits, and per-dimension marginal tail estimation."""

import tracemalloc

import numpy as np
import pytest

from tailflow import experiments, special, tailest


def pareto_sample(seed, n, gamma=0.5):
    """Exact Pareto draws with tail index gamma via the inverse cdf."""
    u = special.Rng(seed).uniform(size=n)
    return (1.0 - u) ** (-gamma)


def gpd_sample(seed, n, shape, scale):
    u = special.Rng(seed).uniform(size=n)
    return scale * ((1.0 - u) ** (-shape) - 1.0) / shape


class TestHillEstimator:
    def test_exact_pareto(self):
        x = pareto_sample(42, 100_000)
        assert abs(tailest.hill_estimator(x, 1000) - 0.5) < 0.05

    def test_hand_computed_value(self):
        # window above the 3rd largest of [1,2,4,8]: mean(log 4, log 8) - log 2
        got = tailest.hill_estimator(np.array([1.0, 2.0, 4.0, 8.0]), 2)
        assert abs(got - 1.5 * np.log(2.0)) < 1e-14

    def test_all_equal_gives_zero(self):
        assert tailest.hill_estimator(np.full(100, 3.7), 10) == 0.0

    def test_student_t_absolute_values(self):
        x = np.abs(special.Rng(7).student_t(1.0, 1_000_000))
        assert abs(tailest.hill_estimator(x, 4000) - 1.0) < 0.1

    def test_unsorted_input_accepted(self):
        x = pareto_sample(1, 5000)
        r = np.random.default_rng(0)
        a = tailest.hill_estimator(x, 200)
        b = tailest.hill_estimator(r.permutation(x), 200)
        assert a == b

    def test_validation(self):
        x = pareto_sample(2, 1000)
        with pytest.raises(ValueError, match="k >= 2"):
            tailest.hill_estimator(x, 1)
        with pytest.raises(ValueError, match="below the sample count"):
            tailest.hill_estimator(x, 1000)
        with pytest.raises(ValueError, match="strictly positive"):
            tailest.hill_estimator(np.array([-1.0, 0.5, 1.0, 2.0]), 3)


class TestHillDoubleBootstrap:
    def test_exact_pareto(self):
        x = pareto_sample(3, 50_000)
        res = tailest.hill_double_bootstrap(x, special.Rng(11))
        assert abs(res.shape - 0.5) < 0.07
        assert not res.light_tailed
        assert not res.fallback
        assert 2 <= res.k < 50_000

    def test_gaussian_flagged_light(self):
        x = np.abs(special.Rng(5).normal(50_000))
        res = tailest.hill_double_bootstrap(x, special.Rng(12))
        assert res.light_tailed

    def test_deterministic_given_seed(self):
        x = pareto_sample(4, 2000)
        a = tailest.hill_double_bootstrap(x, special.Rng(8))
        b = tailest.hill_double_bootstrap(x, special.Rng(8))
        assert a == b

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 500"):
            tailest.hill_double_bootstrap(pareto_sample(0, 499), special.Rng(0))

    # (seed, nu, dim) -> (shape, k, light_tailed, fallback) on the synthetic
    # task at d=5, n=5000, as `estimate_marginal_tails` sees each dimension;
    # recorded before the bootstrap was streamed in small blocks.
    PINNED = {
        (0, 0.8, 0): (1.2690766115541396, 1258, False, False),
        (1, 30.0, 0): (0.042050742358273, 3, True, False),
        (0, 30.0, 1): (0.1524698807598619, 165, True, True),
        (3, 30.0, 0): (0.15314844030740915, 107, False, False),
    }

    @pytest.mark.parametrize("seed,nu,dim", sorted(PINNED))
    def test_pinned_synthetic_estimates(self, seed, nu, dim):
        spec = experiments.SyntheticDeSpec(d=5, nu=nu, n=5000, seed=seed)
        train, valid, test, _ = experiments.gen_synthetic_de(spec)
        col = np.concatenate([train, valid, test])[:, dim]
        res = tailest.hill_double_bootstrap(
            np.abs(col - np.median(col)), special.Rng(seed).child(7).child(dim)
        )
        shape, k, light, fallback = self.PINNED[(seed, nu, dim)]
        assert res.shape == pytest.approx(shape, rel=1e-12)
        assert (res.k, res.light_tailed, res.fallback) == (k, light, fallback)

    def test_traced_peak_at_n5000(self):
        # blocks of 25k resampled values keep the working set near 2 MB
        # (8.2 MB at 1e5); one block of ~1e6 values traced 89 MB
        x = pareto_sample(6, 5000)
        tracemalloc.start()
        try:
            tailest.hill_double_bootstrap(x, special.Rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 16.0


class TestBootstrapMseCurve:
    @pytest.mark.parametrize("rows", [1, 7, 500])
    def test_independent_of_block_size(self, rows, monkeypatch):
        # ~2% nonpositive values exercise the NaN-poisoned k as well
        x = pareto_sample(5, 600) - 1.01
        n1 = int(600 ** tailest._SUBSAMPLE_EXPONENT)
        k_ref, mse_ref = tailest._bootstrap_mse_curve(x, n1, special.Rng(2))
        monkeypatch.setattr(tailest, "_BOOTSTRAP_BLOCK_VALUES", rows * n1)
        k, mse = tailest._bootstrap_mse_curve(x, n1, special.Rng(2))
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(mse, mse_ref)
        assert k[0] == 2 and k[-1] < n1 - 1  # the top of the grid is poisoned


class TestGpdFitMl:
    def test_exact_gpd(self):
        x = gpd_sample(9, 100_000, 0.5, 1.0)
        shape, scale = tailest.gpd_fit_ml(x)
        assert abs(shape - 0.5) < 0.03
        assert abs(scale - 1.0) < 0.03

    def test_exponential_is_shape_zero_limit(self):
        x = -np.log(1.0 - special.Rng(13).uniform(size=100_000))
        shape, scale = tailest.gpd_fit_ml(x)
        assert abs(shape) < 0.03
        assert abs(scale - 1.0) < 0.03

    def test_likelihood_at_fit_beats_truth(self):
        x = gpd_sample(9, 5000, 0.5, 1.0)
        shape, scale = tailest.gpd_fit_ml(x)
        ll_fit = float(np.sum(tailest.gpd_log_density(x, shape, scale)))
        ll_true = float(np.sum(tailest.gpd_log_density(x, 0.5, 1.0)))
        assert ll_fit >= ll_true - 1e-9

    def test_degenerate_sample_rejected(self):
        with pytest.raises(tailest.GpdFitError, match="degenerate"):
            tailest.gpd_fit_ml(np.full(100, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 30"):
            tailest.gpd_fit_ml(np.linspace(0.1, 1.0, 29))
        with pytest.raises(ValueError, match="strictly positive"):
            tailest.gpd_fit_ml(np.linspace(-0.5, 1.0, 50))


class TestFminbound:
    def test_matches_scipy_bounded_minimize_scalar(self):
        # the minimiser and its value, bit for bit, on 36 random samples and
        # brackets; every sixth bracket lies past the minimum, which then
        # sits at an end
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(17)
        at_end = 0
        for i in range(36):
            x = gpd_sample(100 + i, int(rng.integers(30, 3000)),
                           float(rng.uniform(-0.4, 2.0)), float(rng.uniform(0.1, 10.0)))
            lo = float(rng.uniform(-0.9, 0.5)) / np.max(x)
            hi = lo + float(rng.uniform(1e-4, 3.0)) / np.mean(x)
            if i % 6 == 0:
                lo, hi = hi, hi + 1e-3 / np.mean(x)
            def profile(t, x=x):
                return float(tailest._profile_grid(np.array([t]), x)[0][0])

            want = minimize_scalar(profile, bounds=(lo, hi), method="bounded")
            got = tailest._fminbound(profile, lo, hi)
            assert got == (float(want.x), float(want.fun))
            at_end += abs(got[0] - hi) < 1e-4 / np.mean(x) or abs(got[0] - lo) < 1e-4 / np.mean(x)
        assert at_end >= 6


class TestGpdFitScale:
    def test_recovers_scale_at_true_shape(self):
        x = gpd_sample(9, 100_000, 0.5, 1.7)
        assert abs(tailest.gpd_fit_scale(x, 0.5) - 1.7) < 0.03

    def test_matches_ml_scale_at_ml_shape(self):
        # at the joint ML optimum the fixed-shape ML scale is the joint one.
        # gpd_fit_ml stops within 1e-5 of the optimum in theta = shape/scale,
        # so the optimum is refined from there: with Grimshaw's shape(theta) =
        # mean(log1p(theta x)), the profile likelihood in theta is stationary
        # where 1/theta = (1 + 1/shape) mean(x / (1 + theta x))
        from scipy.optimize import brentq

        x = gpd_sample(9, 5000, 0.5, 1.0)
        shape, scale = tailest.gpd_fit_ml(x)
        theta = brentq(lambda t: (1.0 + 1.0 / np.mean(np.log1p(t * x)))
                       * np.mean(x / (1.0 + t * x)) - 1.0 / t,
                       0.5 * shape / scale, 2.0 * shape / scale, xtol=1e-300, rtol=1e-15)
        assert abs(theta - shape / scale) < 1e-5
        shape = np.mean(np.log1p(theta * x))
        scale = shape / theta
        assert abs(tailest.gpd_fit_scale(x, shape) - scale) < 1e-9 * scale

    @pytest.mark.parametrize("shape", [-0.9, -0.6, -0.3, 0.3, 0.5, 0.7, 2.0])
    def test_maximizes_likelihood_at_fixed_shape(self, shape):
        # the scale is the bounded numeric maximum of the summed log density;
        # for a negative shape its support covers every excess
        from scipy.optimize import minimize_scalar

        x = gpd_sample(11, 300, shape, 1.3)
        got = tailest.gpd_fit_scale(x, shape)
        lo = max(0.0, -shape * np.max(x)) * (1.0 + 1e-12)
        want = minimize_scalar(lambda s: -np.sum(tailest.gpd_log_density(x, shape, s)),
                               bounds=(lo, 20.0), method="bounded",
                               options={"xatol": 1e-12}).x
        assert abs(got - want) < 1e-7 * want
        assert np.all(1.0 + shape * x / got > 0.0)

    @pytest.mark.parametrize("shape", [0.3, 0.5, 0.7])
    def test_matches_scipy_fit_at_fixed_shape(self, shape):
        # scipy's fit is a Nelder-Mead search, good to ~1e-4 relative; at a
        # negative shape it returned a scale whose support excludes the data
        from scipy.stats import genpareto

        x = gpd_sample(13, 300, shape, 1.3)
        want = genpareto.fit(x, fc=shape, floc=0.0)[2]
        assert abs(tailest.gpd_fit_scale(x, shape) - want) < 1e-4 * want

    def test_shape_zero_is_mean_excess(self):
        x = np.array([0.5, 1.0, 3.0])
        assert tailest.gpd_fit_scale(x, 0.0) == np.mean(x)
        # a negative shape solves the score equation too, with the support's
        # end 3 / 0.6 * scale beyond the largest excess
        scale = tailest.gpd_fit_scale(x, -0.6)
        assert scale > 0.6 * 3.0
        assert abs(0.4 * np.mean(x / (scale - 0.6 * x)) - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [-1.0, -1.5])
    def test_shape_at_or_below_minus_one_rejected(self, shape):
        with pytest.raises(ValueError, match="no interior ML scale"):
            tailest.gpd_fit_scale(np.array([0.5, 1.0, 3.0]), shape)

    @pytest.mark.parametrize("x", [[], [0.0, 1.0], [1.0, np.inf], [1.0, np.nan]])
    def test_bad_excesses_rejected(self, x):
        with pytest.raises(ValueError, match="finite positive excesses"):
            tailest.gpd_fit_scale(np.array(x), 0.5)


class TestGpdLogDensity:
    def test_shape_zero_is_exponential(self):
        x = np.linspace(0.0, 5.0, 11)
        got = tailest.gpd_log_density(x, 0.0, 2.0)
        np.testing.assert_allclose(got, -x / 2.0 - np.log(2.0), atol=1e-15)

    def test_integrates_to_one(self):
        from scipy.integrate import quad

        total, _ = quad(
            lambda t: np.exp(tailest.gpd_log_density(np.array([t]), 0.5, 2.0))[0],
            0.0, np.inf,
        )
        assert abs(total - 1.0) < 1e-8

    def test_negative_shape_support_boundary(self):
        # shape -0.25, scale 1: support is [0, 4)
        out = tailest.gpd_log_density(np.array([3.9, 4.0, 5.0]), -0.25, 1.0)
        assert np.isfinite(out[0])
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            tailest.gpd_log_density(np.array([1.0]), 0.5, 0.0)


class TestGpdSurvivor:
    GPD_Q_09_SHAPE1E8 = 2.3025851195035364399   # excess at survivor 0.1, shape 1e-8

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.7])
    def test_matches_scipy(self, shape):
        from scipy.stats import genpareto

        scale = 1.7
        dist = genpareto(c=shape, scale=scale)
        e = np.linspace(0.0, 5.0, 41)  # inside the support [0, 5.67) at shape -0.3
        np.testing.assert_allclose(
            tailest.gpd_log_survivor(e, shape, scale), dist.logsf(e), rtol=1e-13, atol=1e-15
        )
        # scipy's isf works from exp(log_s) and loses digits as that nears 1
        log_s = -np.logspace(-3, 2, 41)
        np.testing.assert_allclose(
            tailest.gpd_excess_at_log_survivor(log_s, shape, scale),
            dist.isf(np.exp(log_s)), rtol=1e-12,
        )

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.7])
    def test_inverse_round_trip(self, shape):
        e = np.concatenate([[0.0], np.logspace(-8, 0.7, 40)])
        back = tailest.gpd_excess_at_log_survivor(
            tailest.gpd_log_survivor(e, shape, 1.7), shape, 1.7
        )
        np.testing.assert_allclose(back, e, rtol=1e-13)

    def test_excess_basics(self):
        assert tailest.gpd_excess_at_log_survivor(0.0, 1.0, 1.0) == 0.0
        assert abs(tailest.gpd_excess_at_log_survivor(np.log(0.5), 1.0, 1.0) - 1.0) < 1e-15
        # expm1 keeps the small-shape limit -log(0.1) accurate
        got = tailest.gpd_excess_at_log_survivor(np.log(0.1), 1e-8, 1.0)
        assert abs(got - self.GPD_Q_09_SHAPE1E8) < 1e-6 * self.GPD_Q_09_SHAPE1E8

    def test_excess_increasing_in_cdf(self):
        u = np.linspace(0.0, 0.999, 500)
        e = tailest.gpd_excess_at_log_survivor(np.log1p(-u), 0.7, 1.0)
        assert np.all(np.diff(e) > 0)

    def test_negative_shape_support_boundary(self):
        # shape -0.25, scale 1: support is [0, 4)
        out = tailest.gpd_log_survivor(np.array([3.9, 4.0, 5.0]), -0.25, 1.0)
        assert np.isfinite(out[0])
        assert out[1] == -np.inf and out[2] == -np.inf

    def test_domain(self):
        with pytest.raises(ValueError, match="nonpositive"):
            tailest.gpd_excess_at_log_survivor(np.array([0.1]), 1.0, 1.0)
        with pytest.raises(ValueError, match="scale"):
            tailest.gpd_excess_at_log_survivor(np.array([-1.0]), 1.0, 0.0)
        with pytest.raises(ValueError, match="scale"):
            tailest.gpd_log_survivor(np.array([1.0]), 0.5, 0.0)


class TestEstimateMarginalTails:
    @staticmethod
    def _synthetic(nu, seed):
        tr, va, te, _ = experiments.gen_synthetic_de(
            experiments.SyntheticDeSpec(5, nu, n=5000, seed=seed)
        )
        return np.vstack([tr, va, te])

    def test_heavy_tailed_synthetic_recovered(self):
        est = tailest.estimate_marginal_tails(self._synthetic(1.0, 1), special.Rng(21))
        assert est.dim == 5
        assert not est.light_tailed.any()
        np.testing.assert_allclose(est.shape, 1.0, atol=0.25)

    def test_gaussian_all_light(self):
        data = special.Rng(17).normal((5000, 3))
        est = tailest.estimate_marginal_tails(data, special.Rng(22))
        assert est.light_tailed.all()
        np.testing.assert_array_equal(est.shape, tailest.LIGHT_TAIL_SHAPE)

    def test_near_gaussian_mostly_light(self):
        est = tailest.estimate_marginal_tails(self._synthetic(30.0, 1), special.Rng(23))
        assert int(est.light_tailed.sum()) >= 3

    def test_deterministic(self):
        data = self._synthetic(2.0, 2)
        a = tailest.estimate_marginal_tails(data, special.Rng(5))
        b = tailest.estimate_marginal_tails(data, special.Rng(5))
        np.testing.assert_array_equal(a.shape, b.shape)
        np.testing.assert_array_equal(a.k, b.k)

    def test_validation(self):
        with pytest.raises(ValueError, match="n x d"):
            tailest.estimate_marginal_tails(np.ones(1000), special.Rng(0))
        with pytest.raises(ValueError, match="n >= 500"):
            tailest.estimate_marginal_tails(np.ones((100, 2)), special.Rng(0))

    def test_tail_estimate_invariants(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tailest.TailEstimate(
                shape=np.array([-0.1]), k=np.array([5]), light_tailed=np.array([False])
            )


class TestConsistency:
    def test_hill_error_shrinks_with_sample_size(self):
        # sqrt(n) order-statistic schedule, averaged over 20 seeds
        errs_small, errs_big = [], []
        for s in range(20):
            x = pareto_sample(100 + s, 1_000_000)
            errs_big.append(abs(tailest.hill_estimator(x, 1000) - 0.5))
            errs_small.append(abs(tailest.hill_estimator(x[:10_000], 100) - 0.5))
        assert np.mean(errs_big) < np.mean(errs_small)
