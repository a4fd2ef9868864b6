"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds (visible with
pytest -s or in captured output), and every tolerance is pinned here.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sentireg.corpus import bag_of_words, lowercase, stem, lemmatize, tokenize
from sentireg.corpus import load_stem_rules, load_tsv_map
from sentireg.diagnostics import (
    covariate_patterns,
    marginal_effects,
    pearson_chi2,
    qq_export,
    write_margins_csv,
    write_qq_csv,
)
from sentireg.logit import (
    DesignMatrix,
    NonIdentifiableError,
    PerfectSeparationError,
    fit,
    log_likelihood,
    lr_test,
    predict_prob,
    pseudo_r2,
)
from sentireg.pipeline import (
    PipelineConfig,
    default_data_path,
    fit_report_dict,
    run_pipeline,
)

STEM_RULES = load_stem_rules(default_data_path("stem_rules.tsv"))
LEMMAS = load_tsv_map(default_data_path("lemmas.tsv"))


def report_pass(number, message):
    print(f"ACCEPTANCE {number:>2} PASS: {message}")


def test_criterion_01_tokenization_and_bow():
    tokens = [t.surface for t in tokenize("we have collected data from twitter").tokens]
    assert tokens == ["we", "have", "collected", "data", "from", "twitter"]
    sent = ("Although the order of the words is ignored, multiplicity is counted "
            "and used to determine the focal point of the text analysis")
    stream = lowercase(tokenize(sent))
    assert len(stream) == 22
    bow = bag_of_words(stream)
    assert len(bow.counts) == 17
    assert (bow.counts["the"], bow.counts["of"], bow.counts["is"]) == (4, 2, 2)
    report_pass(1, "worked tokenization and bag-of-words examples match exactly")


def test_criterion_02_stemming_and_lemmatization():
    for word in ("computes", "computing", "computed"):
        assert stem(lowercase(tokenize(word)), STEM_RULES).normalized == ["comput"]
        assert lemmatize(lowercase(tokenize(word)), LEMMAS).normalized == ["compute"]
    for word in ("read", "reading"):
        assert stem(lowercase(tokenize(word)), STEM_RULES).normalized == ["read"]
    assert lemmatize(lowercase(tokenize("reads")), LEMMAS).normalized == ["read"]
    report_pass(2, "stemming/lemmatization consolidate comput/compute and read")


def test_criterion_03_two_by_two_closed_form():
    x = np.array([0.0] * 20 + [1.0] * 20)
    y = np.array([1.0] * 10 + [0.0] * 10 + [1.0] * 15 + [0.0] * 5)
    design = DesignMatrix(X=np.column_stack([np.ones(40), x]), y=y,
                          names=("Constant", "x"))
    result = fit(design)
    assert abs(result.beta[0] - 0.0) < 1e-8
    assert abs(result.beta[1] - math.log(3)) < 1e-8
    assert result.converged and result.n_iter <= 8
    report_pass(3, f"2x2 logit recovers (0, ln 3) in {result.n_iter} iterations")


def test_criterion_04_gradient_matches_finite_differences():
    rng = np.random.default_rng(404)
    n, k, h = 200, 5, 1e-6
    for _ in range(20):
        X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
        beta_true = rng.normal(0, 0.7, size=k + 1)
        y = (rng.random(n) < predict_prob(X, beta_true)).astype(float)
        beta = rng.normal(0, 0.5, size=k + 1)
        analytic = X.T @ (y - predict_prob(X, beta))
        for j in range(k + 1):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            fd = (log_likelihood(bp, X, y) - log_likelihood(bm, X, y)) / (2 * h)
            assert abs(analytic[j] - fd) <= 1e-6 * max(1.0, abs(fd))
    report_pass(4, "analytic gradient matches central differences on 20 instances")


def test_criterion_05_intercept_only():
    y = np.array([1.0] * 48 + [0.0] * 52)
    result = fit(DesignMatrix(X=np.ones((100, 1)), y=y, names=("Constant",)))
    ybar = 0.48
    assert abs(result.beta[0] - math.log(ybar / (1 - ybar))) < 1e-10
    lr = lr_test(result)
    assert lr["chi2"] == pytest.approx(0.0, abs=1e-9)
    assert pseudo_r2(result) == pytest.approx(0.0, abs=1e-12)
    report_pass(5, "intercept-only fit returns logit(ybar), LR chi2 = 0, R2 = 0")


def _quadratic_grouping(X):
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


def test_criterion_06_pearson_chi2_vs_brute_force():
    rng = np.random.default_rng(606)
    for _ in range(10):
        levels = rng.integers(0, 3, size=(60, 2)).astype(float)
        X = np.column_stack([np.ones(60), levels])
        y = (rng.random(60) < 0.3 + 0.1 * levels[:, 0]).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        design = DesignMatrix(X=X, y=y, names=("Constant", "a", "b"))
        result = fit(design)
        p = predict_prob(X, result.beta)
        grouped, pattern = covariate_patterns(design)
        oracle_groups = _quadratic_grouping(X)
        assert [np.flatnonzero(pattern == j).tolist()
                for j in range(len(grouped.m))] == oracle_groups
        oracle = sum(
            (y[g].sum() - len(g) * p[g[0]]) ** 2 / (len(g) * p[g[0]] * (1 - p[g[0]]))
            for g in oracle_groups
        )
        stat = pearson_chi2(result, grouped)
        assert abs(stat["chi2"] - oracle) < 1e-10
    report_pass(6, "Pearson chi2 matches O(N^2) grouping oracle on 10 datasets")


def test_criterion_07_classification_and_monotonicity():
    from types import SimpleNamespace

    from sentireg.diagnostics import classification_summary

    def summary(y, p, cutoff=0.5):
        X = np.column_stack([np.ones(len(y)), np.log(np.asarray(p) / (1 - np.asarray(p)))])
        return classification_summary(
            SimpleNamespace(beta=np.array([0.0, 1.0])),
            SimpleNamespace(X=X, y=np.asarray(y, dtype=float), m=np.ones(len(y))), cutoff,
        )

    s = summary([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.2])
    assert (s.accuracy, s.sensitivity, s.specificity) == (1.0, 1.0, 1.0)
    s = summary([1, 0], [0.4, 0.6])
    assert (s.accuracy, s.sensitivity, s.specificity) == (0.0, 0.0, 0.0)
    s = summary([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
    assert (s.accuracy, s.sensitivity, s.specificity) == (0.5, 0.5, 0.5)

    rng = np.random.default_rng(707)
    fits = 0
    while fits < 100:
        n = 80
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        beta = rng.normal(0, 0.8, size=3)
        y = (rng.random(n) < predict_prob(X, beta)).astype(float)
        design_ok = y.min() != y.max()
        if not design_ok:
            continue
        try:
            result = fit(DesignMatrix(X=X, y=y, names=("Constant", "x1", "x2")))
        except PerfectSeparationError:
            continue
        design = SimpleNamespace(X=X, y=y, m=np.ones(n))
        cuts = np.linspace(0.05, 0.95, 10)
        sens = [classification_summary(result, design, c).sensitivity for c in cuts]
        specificities = [classification_summary(result, design, c).specificity for c in cuts]
        assert all(a >= b for a, b in zip(sens, sens[1:]))
        assert all(a <= b for a, b in zip(specificities, specificities[1:]))
        fits += 1
    report_pass(7, "confusion matrices exact; cutoff monotonicity on 100 fits")


def test_criterion_08_average_marginal_effects():
    rng = np.random.default_rng(808)
    n = 500
    x1 = rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(float)
    X = np.column_stack([np.ones(n), x1, d])
    beta = np.array([0.2, 0.9, -0.6])
    y = (rng.random(n) < predict_prob(X, beta)).astype(float)
    design = DesignMatrix(X=X, y=y, names=("Constant", "x1", "d"))
    result = fit(design)
    effects = {e.name: e for e in marginal_effects(
        result, design, {"x1": "continuous", "d": "discrete"})}

    h = 1e-5
    Xp, Xm = X.copy(), X.copy()
    Xp[:, 1] += h
    Xm[:, 1] -= h
    fd = (np.mean(predict_prob(Xp, result.beta))
          - np.mean(predict_prob(Xm, result.beta))) / (2 * h)
    assert abs(effects["x1"].dydx - fd) < 1e-6

    X1, X0 = X.copy(), X.copy()
    X1[:, 2], X0[:, 2] = 1.0, 0.0
    counterfactual = float(np.mean(predict_prob(X1, result.beta)
                                   - predict_prob(X0, result.beta)))
    assert abs(effects["d"].dydx - counterfactual) < 1e-12
    report_pass(8, "AME matches finite-difference and counterfactual oracles")


def test_criterion_09_affine_equivariance():
    rng = np.random.default_rng(909)
    n, k = 300, 4
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
    beta = rng.normal(0, 0.6, size=k + 1)
    y = (rng.random(n) < predict_prob(X, beta)).astype(float)
    names = ("Constant",) + tuple(f"x{j}" for j in range(1, k + 1))
    base = fit(DesignMatrix(X=X, y=y, names=names))
    a, b = 10.0, 3.0
    for j in range(1, k + 1):
        X2 = X.copy()
        X2[:, j] = a * X2[:, j] + b
        rescaled = fit(DesignMatrix(X=X2, y=y, names=names))
        assert np.max(np.abs(predict_prob(X, base.beta)
                             - predict_prob(X2, rescaled.beta))) < 1e-8
        assert abs(rescaled.beta[j] - base.beta[j] / a) < 1e-8
    report_pass(9, "column rescaling leaves probabilities fixed, scales beta by 1/a")


def test_criterion_10_designated_errors():
    x = np.linspace(-2, 2, 40)
    x = x[x != 0]
    y = (x > 0).astype(float)
    design = DesignMatrix(X=np.column_stack([np.ones(len(x)), x]), y=y,
                          names=("Constant", "x"))
    with pytest.raises(PerfectSeparationError):
        fit(design)
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(NonIdentifiableError):
        fit(DesignMatrix(X=X, y=np.zeros(10), names=("Constant", "x")))
    report_pass(10, "separation and single-class inputs raise their errors")


ARTIFACTS = [
    "tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv",
    "descriptives.csv", "patterns.csv", "fit_report.json", "fit_report.txt", "margins.csv",
    "qq.csv",
]


def test_criterion_11_end_to_end_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline(PipelineConfig(
            corpus=default_data_path("fixture_corpus.csv"),
            covariates=default_data_path("state_covariates.csv"), out=out))
        outs.append(out)
    for name in ARTIFACTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    # thread-count independence: rerun in subprocesses pinned to 1 and 4 threads
    for threads, name in (("1", "t1"), ("4", "t4")):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        code = (
            "from sentireg.cli import main;"
            "from sentireg.pipeline import default_data_path;"
            f"raise SystemExit(main(['run','--corpus',str(default_data_path('fixture_corpus.csv')),"
            f"'--covariates',str(default_data_path('state_covariates.csv')),"
            f"'--out',r'{tmp_path / name}']))"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
    for name in ARTIFACTS:
        assert ((tmp_path / "t1" / name).read_bytes()
                == (tmp_path / "t4" / name).read_bytes()), name
        assert (tmp_path / "t1" / name).read_bytes() == (outs[0] / name).read_bytes(), name
    report_pass(11, "pipeline artifacts bit-identical across runs and thread counts")


FIT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["coefficients", "ll", "ll0", "lr_chi2", "df", "lr_p",
                 "pseudo_r2", "n_iter", "converged"],
    "properties": {
        "coefficients": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "coef", "std_err", "z", "p"],
            },
        },
        "ll": {"type": "number"},
        "ll0": {"type": "number"},
        "lr_chi2": {"type": "number", "minimum": 0},
        "df": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
    },
}

DIAGNOSTICS_SCHEMA = {
    "type": "object",
    "required": ["pearson", "classification"],
    "properties": {
        "pearson": {
            "type": "object",
            "required": ["chi2", "df", "p", "n_patterns"],
        },
        "classification": {
            "type": "object",
            "required": ["tp", "tn", "fp", "fn", "accuracy",
                         "sensitivity", "specificity", "cutoff"],
        },
    },
}


def test_criterion_12_planted_effect_recovery(tmp_path):
    import csv

    import jsonschema

    rng = np.random.default_rng(1212)
    n, k = 5000, 6
    cont = rng.standard_normal((n, k - 1))
    dummy = (rng.random(n) < 0.5).astype(float)
    X = np.column_stack([np.ones(n), cont, dummy])
    beta_star = np.array([-0.2, 0.7, -0.4, 0.3, 0.5, -0.6, 0.25])
    y = (rng.random(n) < predict_prob(X, beta_star)).astype(float)
    names = ("Constant", "x1", "x2", "x3", "x4", "x5", "d")
    design = DesignMatrix(X=X, y=y, names=names)
    result = fit(design)
    for j in range(k + 1):
        assert abs(result.beta[j] - beta_star[j]) < 3 * result.std_err[j], names[j]

    report = fit_report_dict(result)
    jsonschema.validate(report, FIT_REPORT_SCHEMA)

    grouped, _ = covariate_patterns(design)
    diag = {
        "pearson": pearson_chi2(result, grouped),
        "classification": vars(__import__("sentireg.diagnostics", fromlist=["x"])
                               .classification_summary(result, design)),
    }
    # dataclass -> plain dict for schema validation
    diag["classification"] = {k_: v for k_, v in diag["classification"].items()}
    jsonschema.validate(diag, DIAGNOSTICS_SCHEMA)

    kinds = {"x1": "continuous", "x2": "continuous", "x3": "continuous",
             "x4": "continuous", "x5": "continuous", "d": "discrete"}
    margins_path = tmp_path / "margins.csv"
    write_margins_csv(margins_path, marginal_effects(result, design, kinds))
    with open(margins_path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["variable", "kind", "dydx", "std_err", "z", "p"]
        assert len(list(reader)) == k

    qq_path = tmp_path / "qq.csv"
    write_qq_csv(qq_path, qq_export(result, grouped))
    with open(qq_path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["theoretical_quantile", "pearson_residual"]
    report_pass(12, "planted coefficients recovered within 3 SE; reports validate")
