import math
from types import SimpleNamespace

import numpy as np
import pytest

from sentireg.diagnostics import (
    classification_summary,
    covariate_patterns,
    marginal_effects,
    pearson_chi2,
    qq_export,
)
from sentireg.logit import DegenerateFitError, DesignMatrix, fit, predict_prob
from sentireg.special import P_LOW, norm_ppf


def grouped_design(rng, n_patterns=12, k=2, reps=(1, 6)):
    """Random design with planted duplicate rows (covariate patterns)."""
    rows, ys = [], []
    base = rng.standard_normal((n_patterns, k))
    for i in range(n_patterns):
        m = int(rng.integers(*reps))
        for _ in range(m):
            rows.append(base[i])
            ys.append(float(rng.random() < 0.4 + 0.2 * (i % 2)))
    X = np.column_stack([np.ones(len(rows)), np.array(rows)])
    y = np.array(ys)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    names = ("Constant",) + tuple(f"x{j}" for j in range(1, k + 1))
    return DesignMatrix(X=X, y=y, names=names)


def quadratic_grouping_oracle(X):
    """O(N^2) pairwise grouping by exact row equality."""
    n = X.shape[0]
    assigned = [-1] * n
    groups = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = [i]
        assigned[i] = len(groups)
        for j in range(i + 1, n):
            if assigned[j] < 0 and np.array_equal(X[i], X[j]):
                members.append(j)
                assigned[j] = len(groups)
        groups.append(members)
    return groups


def row_design(X, y=None):
    """Design with an intercept in front of X's columns; y defaults to zeros."""
    n, k = X.shape
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    return DesignMatrix(X=np.column_stack([np.ones(n), X]), y=y,
                        names=("Constant",) + tuple(f"x{j}" for j in range(1, k + 1)))


def pattern_groups(pattern):
    """Rows of each pattern, patterns in order: the partition as lists."""
    return [np.flatnonzero(pattern == j).tolist() for j in range(pattern.max() + 1)]


def patterns_with_probs(cases, k=1):
    """A stand-in fit (beta = [0, 1], k predictors) and a pattern design with
    one row per (m, y_sum, eta) case, whose fitted probability is
    predict_prob(eta): eta = logit(p_hat) gives p_hat, eta = 40 gives 1.0
    and eta = -800 gives 0.0 exactly."""
    m, y_sum, eta = (np.array(column, dtype=float) for column in zip(*cases))
    design = SimpleNamespace(X=np.column_stack([np.ones(len(m)), eta]), y=y_sum, m=m)
    return SimpleNamespace(beta=np.array([0.0, 1.0]), k=k), design


def logit(p):
    return math.log(p / (1 - p))


class TestCovariatePatterns:
    def test_hand_grouping(self):
        design = row_design(np.array([[2.0], [2.0], [4.0]]), y=[1, 0, 1])
        grouped, pattern = covariate_patterns(design)
        assert grouped.m.tolist() == [2, 1]
        assert grouped.y.tolist() == [1, 1]
        assert pattern.tolist() == [0, 0, 1]
        assert grouped.names == design.names

    def test_all_distinct(self):
        grouped, pattern = covariate_patterns(row_design(np.arange(12.0).reshape(6, 2)))
        assert len(grouped.m) == 6
        assert pattern.tolist() == list(range(6))

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(21)
        design = row_design(rng.integers(0, 4, size=(40, 3)).astype(float))
        grouped, pattern = covariate_patterns(design)
        oracle = quadratic_grouping_oracle(design.X)
        assert pattern_groups(pattern) == oracle
        assert np.array_equal(grouped.X, design.X[[g[0] for g in oracle]])

    def test_partition_covers_all_rows(self):
        rng = np.random.default_rng(22)
        design = row_design(rng.integers(0, 3, size=(30, 2)).astype(float))
        grouped, pattern = covariate_patterns(design)
        assert grouped.m.sum() == 30
        for i, j in enumerate(pattern):
            assert np.array_equal(design.X[i], grouped.X[j])

    def test_negative_zero_joins_positive_zero(self):
        # Equal as numbers, different as bytes: one pattern, as the
        # quadratic oracle's np.array_equal has it.
        design = row_design(np.array([[0.0], [-0.0], [1.0], [0.0]]), y=[1, 1, 0, 0])
        grouped, pattern = covariate_patterns(design)
        assert pattern_groups(pattern) == quadratic_grouping_oracle(design.X) == [[0, 1, 3], [2]]
        assert grouped.m.tolist() == [3, 1]
        assert grouped.y.tolist() == [2, 0]


class TestPearsonChi2:
    def test_saturated_fit_chi2_zero(self):
        # fitted proportions equal observed within each pattern
        stand_in, patterns = patterns_with_probs(
            [(10, 4, logit(0.4)), (20, 10, logit(0.5)), (5, 1, logit(0.2))])
        result = pearson_chi2(stand_in, patterns)
        assert result["df"] == 1
        assert result["chi2"] == pytest.approx(0.0)
        assert result["p"] == pytest.approx(1.0)

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(23)
        design = grouped_design(rng)
        result = fit(design)
        p = predict_prob(design.X, result.beta)
        grouped, _ = covariate_patterns(design)
        stat = pearson_chi2(result, grouped)
        # term-by-term brute force over the oracle partition
        oracle = 0.0
        for group in quadratic_grouping_oracle(design.X):
            m = len(group)
            y_sum = design.y[group].sum()
            p_hat = p[group[0]]
            oracle += (y_sum - m * p_hat) ** 2 / (m * p_hat * (1 - p_hat))
        assert stat["chi2"] == pytest.approx(oracle, abs=1e-10)
        assert stat["n_patterns"] == len(quadratic_grouping_oracle(design.X))

    def test_order_invariance(self):
        rng = np.random.default_rng(24)
        design = grouped_design(rng)
        result = fit(design)
        grouped, _ = covariate_patterns(design)
        perm = rng.permutation(len(grouped.m))
        shuffled = DesignMatrix(X=grouped.X[perm], y=grouped.y[perm], m=grouped.m[perm],
                                names=grouped.names)
        assert pearson_chi2(result, grouped)["chi2"] == pytest.approx(
            pearson_chi2(result, shuffled)["chi2"], abs=1e-12
        )

    def test_degenerate_probability_rejected(self):
        stand_in, patterns = patterns_with_probs([(1, 1, 40.0)])
        assert predict_prob(patterns.X, stand_in.beta)[0] == 1.0
        with pytest.raises(ValueError, match="degenerate"):
            pearson_chi2(stand_in, patterns)

    def test_degenerate_probability_is_estimation_error(self):
        stand_in, patterns = patterns_with_probs([(3, 0, -800.0)])
        assert predict_prob(patterns.X, stand_in.beta)[0] == 0.0
        with pytest.raises(DegenerateFitError):
            pearson_chi2(stand_in, patterns)
        with pytest.raises(DegenerateFitError):
            qq_export(stand_in, patterns)

    def test_df_nonpositive_reports_na(self):
        stand_in, patterns = patterns_with_probs([(10, 5, 0.0)], k=1)
        assert pearson_chi2(stand_in, patterns)["p"] is None


def summary_from_probs(y, p, cutoff=0.5):
    """classification_summary via a minimal stand-in fit whose predictions are p.

    The stand-in design carries logit(p) so predict_prob reproduces p exactly.
    """
    n = len(y)
    X = np.column_stack([np.ones(n), np.log(np.asarray(p) / (1 - np.asarray(p)))])
    design = SimpleNamespace(X=X, y=np.asarray(y, dtype=float), m=np.ones(n))
    stand_in = SimpleNamespace(beta=np.array([0.0, 1.0]))
    return classification_summary(stand_in, design, cutoff=cutoff)


class TestClassificationSummary:
    def test_perfect(self):
        s = summary_from_probs([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.2])
        assert (s.accuracy, s.sensitivity, s.specificity) == (1.0, 1.0, 1.0)
        assert (s.tp, s.tn, s.fp, s.fn) == (2, 2, 0, 0)

    def test_all_wrong(self):
        s = summary_from_probs([1, 0], [0.4, 0.6])
        assert (s.accuracy, s.sensitivity, s.specificity) == (0.0, 0.0, 0.0)

    def test_half_right(self):
        s = summary_from_probs([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
        assert (s.accuracy, s.sensitivity, s.specificity) == (0.5, 0.5, 0.5)
        assert (s.tp, s.tn, s.fp, s.fn) == (1, 1, 1, 1)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(31)
        y = (rng.random(50) < 0.5).astype(int)
        y[:2] = [0, 1]
        p = rng.uniform(0.01, 0.99, size=50)
        s = summary_from_probs(y, p)
        assert s.tp + s.tn + s.fp + s.fn == 50

    def test_cutoff_monotonicity(self):
        rng = np.random.default_rng(32)
        y = (rng.random(80) < 0.5).astype(int)
        y[:2] = [0, 1]
        p = rng.uniform(0.01, 0.99, size=80)
        cutoffs = np.linspace(0.05, 0.95, 19)
        sens = [summary_from_probs(y, p, c).sensitivity for c in cutoffs]
        specificities = [summary_from_probs(y, p, c).specificity for c in cutoffs]
        assert all(a >= b for a, b in zip(sens, sens[1:]))
        assert all(a <= b for a, b in zip(specificities, specificities[1:]))


class TestQQExport:
    def test_single_pattern_quantile_zero(self):
        ((theo, _),) = qq_export(*patterns_with_probs([(10, 5, 0.0)]))
        assert theo == pytest.approx(0.0, abs=1e-12)

    def test_row_count_and_sorting(self):
        rng = np.random.default_rng(41)
        pairs = qq_export(*patterns_with_probs(
            [(50, int(rng.integers(10, 40)), 0.0) for _ in range(25)]))
        assert len(pairs) == 25
        theo = [t for t, _ in pairs]
        resid = [r for _, r in pairs]
        assert theo == sorted(theo)
        assert resid == sorted(resid)

    def test_normal_residuals_give_unit_slope(self):
        # simulation oracle: discretized standard-normal residuals
        rng = np.random.default_rng(42)
        j = 400
        targets = rng.standard_normal(j)
        cases = []
        for r in targets:
            m, p = 400, 0.5
            y_sum = int(round(m * p + r * math.sqrt(m * p * (1 - p))))
            cases.append((m, y_sum, logit(p)))
        pairs = qq_export(*patterns_with_probs(cases))
        x = np.array([t for t, _ in pairs])
        y = np.array([r for _, r in pairs])
        slope = float(np.sum(x * y) / np.sum(x * x))
        assert 0.8 <= slope <= 1.2

    # From n = 21 the first point, 0.5/n, is below P_LOW and takes norm_ppf's
    # tail branch; 1910 and 7656 are the tweets and wide-vocab pattern counts.
    @pytest.mark.parametrize("n", [1, 2, 20, 21, 42, 1910, 7656])
    def test_plotting_positions_equal_norm_ppf(self, n):
        assert (0.5 / n < P_LOW) == (n >= 21)
        pairs = qq_export(*patterns_with_probs([(10, 5, 0.0)] * n))
        assert [z for z, _ in pairs] == [norm_ppf((i + 0.5) / n) for i in range(n)]


class TestMarginalEffects:
    KINDS = {"x1": "continuous", "x2": "continuous", "d": "discrete"}

    def _design(self, rng, n=400):
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        d = (rng.random(n) < 0.5).astype(float)
        if d.min() == d.max():
            d[0] = 1.0 - d[0]
        X = np.column_stack([np.ones(n), x1, x2, d])
        beta = np.array([0.2, 0.8, -0.5, 0.6])
        y = (rng.random(n) < predict_prob(X, beta)).astype(float)
        return DesignMatrix(X=X, y=y, names=("Constant", "x1", "x2", "d"))

    def test_zero_coefficient_zero_effect(self):
        rng = np.random.default_rng(51)
        design = self._design(rng)
        result = fit(design)
        object.__setattr__(result, "beta", result.beta.copy())
        result.beta[1] = 0.0
        effects = {e.name: e for e in marginal_effects(result, design, self.KINDS)}
        assert effects["x1"].dydx == 0.0

    def test_continuous_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(52)
        design = self._design(rng)
        result = fit(design)
        effects = {e.name: e for e in marginal_effects(result, design, self.KINDS)}
        for j, name in ((1, "x1"), (2, "x2")):
            h = 1e-5
            Xp, Xm = design.X.copy(), design.X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            oracle = (np.mean(predict_prob(Xp, result.beta))
                      - np.mean(predict_prob(Xm, result.beta))) / (2 * h)
            assert effects[name].dydx == pytest.approx(oracle, abs=1e-6)

    def test_discrete_matches_counterfactual_average(self):
        rng = np.random.default_rng(53)
        design = self._design(rng)
        result = fit(design)
        effects = {e.name: e for e in marginal_effects(result, design, self.KINDS)}
        X1, X0 = design.X.copy(), design.X.copy()
        X1[:, 3], X0[:, 3] = 1.0, 0.0
        oracle = float(np.mean(predict_prob(X1, result.beta)
                               - predict_prob(X0, result.beta)))
        assert effects["d"].dydx == pytest.approx(oracle, abs=1e-12)

    def test_continuous_sign_matches_coefficient(self):
        rng = np.random.default_rng(54)
        design = self._design(rng)
        result = fit(design)
        effects = {e.name: e for e in marginal_effects(result, design, self.KINDS)}
        for j, name in ((1, "x1"), (2, "x2")):
            assert math.copysign(1, effects[name].dydx) == math.copysign(1, result.beta[j])

    def test_standard_errors_positive(self):
        rng = np.random.default_rng(55)
        design = self._design(rng)
        result = fit(design)
        for e in marginal_effects(result, design, self.KINDS):
            assert e.std_err > 0
            assert 0.0 <= e.p <= 1.0

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(56)
        design = self._design(rng)
        result = fit(design)
        with pytest.raises(ValueError):
            marginal_effects(result, design, {"x1": "continuous", "x2": "continuous"})


def test_norm_ppf_plotting_positions_symmetric():
    j = 9
    qs = [norm_ppf((i + 0.5) / j) for i in range(j)]
    assert qs[4] == pytest.approx(0.0, abs=1e-12)
    assert qs[0] == pytest.approx(-qs[-1], abs=1e-9)


def ame_rows(beta, X, targets):
    """Brute-force AMEs over single rows: derivative form for continuous
    targets, 0 -> 1 counterfactual for discrete ones."""
    p = predict_prob(X, beta)
    out = []
    for j, kind in targets:
        if kind == "continuous":
            out.append(beta[j] * np.mean(p * (1 - p)))
        else:
            X1, X0 = X.copy(), X.copy()
            X1[:, j], X0[:, j] = 1.0, 0.0
            out.append(np.mean(predict_prob(X1, beta) - predict_prob(X0, beta)))
    return np.array(out)


def grouped_margins_design(rng, n_patterns=60):
    """Covariate patterns with a unit-scale, a dollar-scale and a 0/1 column,
    m >= 1 rows each; returns the grouped design and its row-level expansion."""
    x = rng.standard_normal(n_patterns)
    dollars = 55000.0 + 12000.0 * rng.standard_normal(n_patterns)
    d = (np.arange(n_patterns) % 2).astype(float)
    Xp = np.column_stack([np.ones(n_patterns), x, dollars, d])
    m = rng.integers(1, 8, size=n_patterns)
    y_sum = rng.binomial(m, predict_prob(Xp, np.array([0.5, 0.7, -1.5e-5, 0.6])))
    y_sum[0], y_sum[1] = 0, m[1]
    names = ("Constant", "x", "income", "d")
    rows = np.repeat(np.arange(n_patterns), m)
    y = np.concatenate([[1.0] * s + [0.0] * (mi - s) for mi, s in zip(m, y_sum)])
    return (DesignMatrix(X=Xp, y=y_sum, m=m, names=names),
            DesignMatrix(X=Xp[rows], y=y, names=names))


class TestGroupedDiagnostics:
    KINDS = {"x": "continuous", "income": "continuous", "d": "discrete"}

    def test_margin_se_match_column_scaled_difference_oracle(self):
        # Central differences in beta_l * scale_l, the coefficient of the
        # column divided by its scale, with a step of 1e-5 * max(1, |beta_l| *
        # scale_l) there: one relative step for every column, whatever its units.
        rng = np.random.default_rng(6161)
        for _ in range(3):
            grouped, rows = grouped_margins_design(rng)
            result = fit(grouped)
            effects = marginal_effects(result, grouped, self.KINDS)
            targets = [(j, self.KINDS[name]) for j, name in enumerate(result.names) if j]
            scale = np.max(np.abs(rows.X), axis=0)
            jac = np.empty((len(targets), len(result.beta)))
            for l, (b, s) in enumerate(zip(result.beta, scale)):
                h = 1e-5 * max(1.0, abs(b) * s) / s
                bp, bm = result.beta.copy(), result.beta.copy()
                bp[l] += h
                bm[l] -= h
                jac[:, l] = (ame_rows(bp, rows.X, targets) - ame_rows(bm, rows.X, targets)) / (2 * h)
            oracle = np.sqrt(np.diag(jac @ result.cov @ jac.T))
            assert [e.std_err for e in effects] == pytest.approx(oracle, rel=1e-6)
            assert [e.dydx for e in effects] == pytest.approx(
                ame_rows(result.beta, rows.X, targets), rel=1e-12)

    def test_grouped_design_equals_row_level_design(self):
        rng = np.random.default_rng(6262)
        for _ in range(5):
            grouped, rows = grouped_margins_design(rng)
            g, r = fit(grouped), fit(rows)
            for cutoff in (0.3, 0.5, 0.7):
                assert (vars(classification_summary(g, grouped, cutoff))
                        == vars(classification_summary(r, rows, cutoff)))
            pairs = zip(marginal_effects(g, grouped, self.KINDS),
                        marginal_effects(r, rows, self.KINDS))
            for eg, er in pairs:
                assert eg.dydx == pytest.approx(er.dydx, rel=1e-9)
                assert eg.std_err == pytest.approx(er.std_err, rel=1e-9)
            regrouped, pattern = covariate_patterns(rows)
            assert np.array_equal(regrouped.X, grouped.X)
            assert np.array_equal(regrouped.m, grouped.m)
            assert np.array_equal(regrouped.y, grouped.y)
            assert np.array_equal(pattern, np.repeat(np.arange(len(grouped.m)), grouped.m.astype(int)))
            assert pearson_chi2(g, grouped)["chi2"] == pytest.approx(
                pearson_chi2(r, regrouped)["chi2"], rel=1e-9)
