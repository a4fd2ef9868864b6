import math

import numpy as np
import pytest

from sentireg.logit import (
    CollinearityError,
    DesignMatrix,
    NonIdentifiableError,
    PerfectSeparationError,
    classify_threshold,
    fit,
    log_likelihood,
    log_odds,
    lr_test,
    predict_prob,
    pseudo_r2,
)


def two_by_two_design():
    """Saturated 2x2 table: x=0 with 10/10 successes, x=1 with 15/5."""
    x = np.array([0.0] * 20 + [1.0] * 20)
    y = np.array([1.0] * 10 + [0.0] * 10 + [1.0] * 15 + [0.0] * 5)
    X = np.column_stack([np.ones(40), x])
    return DesignMatrix(X=X, y=y, names=("Constant", "x"))


def random_design(rng, n=200, k=5, beta=None):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
    beta = np.asarray(beta) if beta is not None else rng.normal(0, 0.8, size=k + 1)
    p = predict_prob(X, beta)
    y = (rng.random(n) < p).astype(float)
    names = ("Constant",) + tuple(f"x{j}" for j in range(1, k + 1))
    return DesignMatrix(X=X, y=y, names=names), beta


class TestPredictProb:
    def test_zero_beta_gives_half(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        assert predict_prob(X, np.zeros(2)) == pytest.approx([0.5] * 4)

    def test_intercept_ln3(self):
        X = np.ones((3, 1))
        assert predict_prob(X, np.array([math.log(3)])) == pytest.approx([0.75] * 3)

    def test_extreme_eta_saturates_without_overflow(self):
        X = np.ones((1, 1))
        lo = predict_prob(X, np.array([-700.0]))[0]
        hi = predict_prob(X, np.array([700.0]))[0]
        assert 0.0 < lo < 1e-300
        assert hi == pytest.approx(1.0)
        # beyond double range the probability flushes to exactly 0/1, no error
        assert predict_prob(X, np.array([-800.0]))[0] == 0.0
        assert predict_prob(X, np.array([800.0]))[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_prob(np.ones((3, 2)), np.zeros(3))


class TestLogOdds:
    def test_half_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_three_quarters(self):
        assert log_odds(0.75) == pytest.approx(math.log(3))

    def test_round_trip_with_predict(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
        beta = rng.normal(size=4)
        eta = X @ beta
        assert log_odds(predict_prob(X, beta)) == pytest.approx(eta, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_odds(bad)


class TestLogLikelihood:
    def test_single_obs_half(self):
        X = np.ones((1, 1))
        assert log_likelihood(np.zeros(1), X, np.array([1.0])) == pytest.approx(math.log(0.5))

    def test_intercept_only_closed_form(self):
        X = np.ones((10, 1))
        y = np.array([1.0] * 5 + [0.0] * 5)
        assert log_likelihood(np.zeros(1), X, y) == pytest.approx(10 * math.log(0.5))

    def test_against_per_row_bernoulli_oracle(self):
        rng = np.random.default_rng(8)
        design, _ = random_design(rng)
        beta = rng.normal(size=6)
        p = predict_prob(design.X, beta)
        oracle = sum(
            math.log(pi) if yi == 1 else math.log(1 - pi)
            for pi, yi in zip(p, design.y)
        )
        assert log_likelihood(beta, design.X, design.y) == pytest.approx(oracle, abs=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(np.zeros(1), np.ones((2, 1)), np.array([0.5, 1.0]))


class TestFit:
    def test_two_by_two_closed_form(self):
        result = fit(two_by_two_design())
        # saturated logit: beta = per-cell log odds
        assert result.beta[0] == pytest.approx(math.log(10 / 10), abs=1e-8)
        assert result.beta[1] == pytest.approx(math.log(15 / 5), abs=1e-8)
        assert result.converged
        assert result.n_iter <= 8

    def test_intercept_only_logit_of_mean(self):
        y = np.array([1.0] * 48 + [0.0] * 52)
        design = DesignMatrix(X=np.ones((100, 1)), y=y, names=("Constant",))
        result = fit(design)
        assert result.beta[0] == pytest.approx(math.log(48 / 52), abs=1e-10)

    def test_perfect_separation_raises(self):
        x = np.linspace(-1, 1, 30)
        x = x[x != 0]
        y = (x > 0).astype(float)
        design = DesignMatrix(
            X=np.column_stack([np.ones(len(x)), x]), y=y, names=("Constant", "x")
        )
        with pytest.raises(PerfectSeparationError):
            fit(design)

    def test_single_class_raises(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(NonIdentifiableError):
            fit(DesignMatrix(X=X, y=np.ones(10), names=("Constant", "x")))

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(3)
        n = 50
        x1 = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x1, 2.0 * x1 + 1.0, rng.standard_normal(n)])
        y = (rng.random(n) < 0.5).astype(float)
        y[0], y[1] = 1.0, 0.0
        design = DesignMatrix(X=X, y=y, names=("Constant", "a", "twice_a", "b"))
        with pytest.raises(CollinearityError) as err:
            fit(design)
        assert {"a", "twice_a"} <= set(err.value.columns)

    def test_score_equations_at_convergence(self):
        rng = np.random.default_rng(12)
        design, _ = random_design(rng)
        result = fit(design)
        p = predict_prob(design.X, result.beta)
        assert np.max(np.abs(design.X.T @ (design.y - p))) < 1e-6 * len(design.y)
        assert np.sum(p) == pytest.approx(np.sum(design.y), abs=1e-6)

    def test_covariance_properties(self):
        rng = np.random.default_rng(13)
        design, _ = random_design(rng)
        result = fit(design)
        assert np.max(np.abs(result.cov - result.cov.T)) < 1e-12
        assert np.all(np.diag(result.cov) > 0)
        assert result.std_err == pytest.approx(np.sqrt(np.diag(result.cov)))
        assert result.z == pytest.approx(result.beta / result.std_err)
        assert result.ll0 <= result.ll <= 0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(14)
        design, _ = random_design(rng)
        base = fit(design)
        a, b, j = 10.0, 3.0, 2
        X2 = design.X.copy()
        X2[:, j] = a * X2[:, j] + b
        rescaled = fit(DesignMatrix(X=X2, y=design.y, names=design.names))
        p1 = predict_prob(design.X, base.beta)
        p2 = predict_prob(X2, rescaled.beta)
        assert np.max(np.abs(p1 - p2)) < 1e-8
        assert rescaled.beta[j] == pytest.approx(base.beta[j] / a, abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            design, _ = random_design(rng)
            beta = rng.normal(0, 0.5, size=6)
            analytic = design.X.T @ (design.y - predict_prob(design.X, beta))
            h = 1e-6
            for j in range(6):
                bp, bm = beta.copy(), beta.copy()
                bp[j] += h
                bm[j] -= h
                fd = (log_likelihood(bp, design.X, design.y)
                      - log_likelihood(bm, design.X, design.y)) / (2 * h)
                assert abs(analytic[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_monotone_ascent(self):
        # every accepted Newton step must not decrease the log-likelihood;
        # verified indirectly: the optimum beats the start
        rng = np.random.default_rng(15)
        design, _ = random_design(rng)
        result = fit(design)
        assert result.ll >= log_likelihood(np.zeros(6), design.X, design.y)

    def test_determinism(self):
        rng = np.random.default_rng(16)
        design, _ = random_design(rng)
        r1, r2 = fit(design), fit(design)
        assert np.array_equal(r1.beta, r2.beta)
        assert np.array_equal(r1.cov, r2.cov)

    @pytest.mark.parametrize("limits", [
        {"max_iter": 0}, {"max_iter": -5}, {"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan},
        {"tol": math.inf}, {"max_iter": -1, "tol": -1.0},
    ])
    def test_limits_that_cannot_stop_the_loop_rejected(self, limits):
        with pytest.raises(ValueError, match="must be"):
            fit(two_by_two_design(), **limits)

    def test_one_iteration_is_a_valid_limit(self):
        result = fit(two_by_two_design(), max_iter=1, tol=math.ulp(0.0))
        assert result.n_iter == 1 and not result.converged


class TestClassifyThreshold:
    def test_boundary_inclusive(self):
        assert classify_threshold(0.5, 0.5) == 1

    def test_below(self):
        assert classify_threshold(0.49) == 0

    def test_one(self):
        assert classify_threshold(1.0) == 1

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_cutoff_domain(self, bad):
        with pytest.raises(ValueError):
            classify_threshold(0.5, bad)


class TestFitStatistics:
    def test_intercept_only_lr_zero(self):
        y = np.array([1.0] * 48 + [0.0] * 52)
        result = fit(DesignMatrix(X=np.ones((100, 1)), y=y, names=("Constant",)))
        lr = lr_test(result)
        assert lr["chi2"] == pytest.approx(0.0, abs=1e-9)
        assert lr["p"] == pytest.approx(1.0)
        assert pseudo_r2(result) == pytest.approx(0.0, abs=1e-12)

    def test_lr_chi2_matches_direct_recomputation(self):
        design = two_by_two_design()
        result = fit(design)
        # brute-force recomputation of both log-likelihoods
        ll = log_likelihood(result.beta, design.X, design.y)
        ybar = float(np.mean(design.y))
        ll0 = log_likelihood(np.array([math.log(ybar / (1 - ybar))]),
                             np.ones((len(design.y), 1)), design.y)
        lr = lr_test(result)
        assert lr["chi2"] == pytest.approx(2 * (ll - ll0), abs=1e-10)
        assert lr["df"] == 1
        assert pseudo_r2(result) == pytest.approx(1 - ll / ll0, abs=1e-12)

    def test_pseudo_r2_in_unit_interval(self):
        rng = np.random.default_rng(17)
        design, _ = random_design(rng)
        r2 = pseudo_r2(fit(design))
        assert 0.0 <= r2 < 1.0


class TestDesignMatrixValidation:
    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(10), np.full(10, 7.0)])
        with pytest.raises(ValueError, match="constant"):
            DesignMatrix(X=X, y=np.array([0, 1] * 5, dtype=float), names=("Constant", "c"))

    def test_missing_intercept_rejected(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0) ** 2])
        with pytest.raises(ValueError, match="intercept"):
            DesignMatrix(X=X, y=np.array([0, 1] * 5, dtype=float), names=("a", "b"))

    def test_too_few_rows_rejected(self):
        X = np.column_stack([np.ones(2), [1.0, 2.0]])
        with pytest.raises(ValueError):
            DesignMatrix(X=X, y=np.array([0.0, 1.0]), names=("Constant", "x"))

    def test_nonfinite_rejected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        X[3, 1] = np.nan
        with pytest.raises(ValueError):
            DesignMatrix(X=X, y=np.array([0, 1] * 5, dtype=float), names=("Constant", "x"))


def grouped_and_expanded(rng, n_patterns=40, k=3):
    """A design of distinct covariate patterns with m >= 1 rows each, and
    the row-level design it stands for (m rows per pattern, y_sum of them 1)."""
    Xp = np.column_stack([np.ones(n_patterns), rng.standard_normal((n_patterns, k))])
    m = rng.integers(1, 7, size=n_patterns)
    y_sum = rng.binomial(m, predict_prob(Xp, rng.normal(0, 0.8, size=k + 1)))
    y_sum[0], y_sum[1] = 0, m[1]  # both classes present
    names = ("Constant",) + tuple(f"x{j}" for j in range(1, k + 1))
    rows = np.repeat(np.arange(n_patterns), m)
    y = np.concatenate([[1.0] * s + [0.0] * (mi - s) for mi, s in zip(m, y_sum)])
    return (DesignMatrix(X=Xp, y=y_sum, m=m, names=names),
            DesignMatrix(X=Xp[rows], y=y, names=names))


class TestGroupedFit:
    def test_grouped_equals_row_level_fit(self):
        rng = np.random.default_rng(4242)
        for _ in range(10):
            grouped, rows = grouped_and_expanded(rng)
            g, r = fit(grouped), fit(rows)
            assert g.beta == pytest.approx(r.beta, rel=1e-9)
            assert g.std_err == pytest.approx(r.std_err, rel=1e-9)
            assert g.ll == pytest.approx(r.ll, rel=1e-12)
            assert g.ll0 == pytest.approx(r.ll0, rel=1e-12)
            assert g.n_obs == r.n_obs == len(rows.y)

    def test_grouped_log_likelihood_is_row_level_sum(self):
        rng = np.random.default_rng(4243)
        grouped, rows = grouped_and_expanded(rng)
        beta = rng.normal(size=4)
        assert log_likelihood(beta, grouped.X, grouped.y, grouped.m) == pytest.approx(
            log_likelihood(beta, rows.X, rows.y), rel=1e-12)

    def test_single_class_counts_raise(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        m = np.array([2.0, 3.0, 1.0, 2.0])
        with pytest.raises(NonIdentifiableError):
            fit(DesignMatrix(X=X, y=m, m=m, names=("Constant", "x")))

    @pytest.mark.parametrize("y, m", [([0, 3, 1, 1], [2, 2, 2, 2]),
                                      ([0, 1, 1, 1], [0, 2, 2, 2]),
                                      ([0, 1.5, 1, 1], [2, 2, 2, 2]),
                                      ([0, 1, 1, 1], [2, 2.5, 2, 2])])
    def test_counts_outside_range_rejected(self, y, m):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(ValueError):
            DesignMatrix(X=X, y=np.array(y, dtype=float), m=np.array(m, dtype=float),
                         names=("Constant", "x"))

    def test_covariance_is_inverse_information_at_returned_beta(self):
        rng = np.random.default_rng(4244)
        grouped, _ = grouped_and_expanded(rng)
        result = fit(grouped)
        p = predict_prob(grouped.X, result.beta)
        A = grouped.X.T @ (grouped.X * (grouped.m * p * (1 - p))[:, None])
        assert result.cov == pytest.approx(np.linalg.inv(A), rel=1e-10)
