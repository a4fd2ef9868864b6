"""Goodness-of-fit and interpretation diagnostics for a fitted logit.

Covers Pearson chi-square over covariate patterns, the classification
summary at a probability cutoff, a plot-ready normal QQ table of Pearson
residuals, and average marginal effects with delta-method standard errors.

Every diagnostic takes the fit and a DesignMatrix, weighting each row by
its m. Pearson and QQ are defined over covariate patterns, so they take the
pattern design (covariate_patterns builds it from a row-level one); the
classification summary and the margins give the same results on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .corpus import write_rows
from .logit import DegenerateFitError, DesignMatrix, LogitFit, classify_threshold, predict_prob
from .special import chi2_sf, norm_ppf, two_sided_p

__all__ = [
    "ClassificationSummary",
    "MarginalEffect",
    "covariate_patterns",
    "pearson_chi2",
    "classification_summary",
    "qq_export",
    "marginal_effects",
    "write_margins_csv",
    "write_qq_csv",
]


@dataclass(frozen=True)
class ClassificationSummary:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    sensitivity: float | None  # None when there are no positive observations
    specificity: float | None  # None when there are no negative observations
    cutoff: float


@dataclass(frozen=True)
class MarginalEffect:
    name: str
    kind: str  # "continuous" or "discrete"
    dydx: float
    std_err: float
    z: float
    p: float


def covariate_patterns(data: DesignMatrix) -> tuple[DesignMatrix, np.ndarray]:
    """The design whose rows are data's covariate patterns, and each row's
    pattern number.

    Rows with equal covariate vectors form one pattern; patterns are
    numbered by first occurrence and carry the summed m and y.
    """
    _, first, inverse = np.unique(data.X, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # pattern numbers in first-occurrence order
    pattern = np.argsort(order)[inverse.reshape(-1)]  # inverse's shape varies in numpy 2.x
    n = len(order)
    return DesignMatrix(X=data.X[first[order]], names=data.names,
                        y=np.bincount(pattern, weights=data.y, minlength=n),
                        m=np.bincount(pattern, weights=data.m, minlength=n)), pattern


def _residual_parts(result: LogitFit, data: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each row's y - m p and its binomial variance m p (1 - p); a zero
    variance (fitted p exactly 0 or 1) raises DegenerateFitError."""
    p = predict_prob(data.X, result.beta)
    var = data.m * p * (1.0 - p)
    if not var.all():
        j = np.flatnonzero(var == 0.0)[0]
        raise DegenerateFitError(f"degenerate fitted probability {p[j]} in pattern {j}")
    return data.y - data.m * p, var


def pearson_chi2(result: LogitFit, data: DesignMatrix) -> dict[str, float | int | None]:
    """Pearson goodness-of-fit statistic over the rows of data, each a
    covariate pattern.

    df = #patterns - (k+1). When df <= 0 the p-value is reported as None.
    """
    e, var = _residual_parts(result, data)
    # A running sum in row order: np.sum adds pairwise, which can change the last bit.
    chi2 = float(np.add.accumulate(e ** 2 / var)[-1])
    df = len(var) - (result.k + 1)
    p = chi2_sf(chi2, df) if df > 0 else None
    return {"chi2": chi2, "df": df, "p": p, "n_patterns": len(var)}


def classification_summary(
    result: LogitFit, data: DesignMatrix, cutoff: float = 0.5
) -> ClassificationSummary:
    """Confusion counts and rates at the given probability cutoff.

    Each row of data counts m times, y of them positive.
    """
    p = predict_prob(data.X, result.beta)
    positive = classify_threshold(p, cutoff) == 1
    y, negatives = data.y, data.m - data.y
    tp = int(np.sum(y[positive]))
    tn = int(np.sum(negatives[~positive]))
    fp = int(np.sum(negatives[positive]))
    fn = int(np.sum(y[~positive]))
    n = tp + tn + fp + fn
    return ClassificationSummary(
        tp=tp, tn=tn, fp=fp, fn=fn,
        accuracy=(tp + tn) / n,
        sensitivity=tp / (tp + fn) if (tp + fn) > 0 else None,
        specificity=tn / (tn + fp) if (tn + fp) > 0 else None,
        cutoff=cutoff,
    )


def qq_export(result: LogitFit, data: DesignMatrix) -> np.ndarray:
    """Sorted Pearson residuals paired with normal plotting positions.

    Row i of the (J, 2) array is the quantile at (i - 0.5)/J and the i-th
    smallest residual, one row per row of data, each a covariate pattern.
    """
    e, var = _residual_parts(result, data)
    z = norm_ppf((np.arange(len(e)) + 0.5) / len(e))
    return np.column_stack((z, np.sort(e / np.sqrt(var))))


def marginal_effects(
    result: LogitFit, data: DesignMatrix, kinds: dict[str, str]
) -> list[MarginalEffect]:
    """Average marginal effects for every non-intercept predictor.

    kinds maps each predictor name to "continuous" (derivative form) or
    "discrete" (0 -> 1 counterfactual change). Averages weight each row by
    its m. Standard errors come from the delta method with the closed-form
    Jacobian against fit.cov (Dowd, Greene & Norton, Health Serv. Res. 2014),
    with w = p(1 - p) and averages over observations:

    - continuous, AME_j = beta_j * mean(w):
      dAME_j/dbeta = e_j * mean(w) + beta_j * mean(w (1 - 2p) x)
    - discrete, AME_j = mean(p1 - p0), with p1 and p0 at x_j = 1 and 0:
      dAME_j/dbeta = mean(w1 x1 - w0 x0)

    The discrete targets set column j of data.X itself to 1, then to 0,
    and restore it from a saved copy of the column even when a prediction
    raises, so each product sees x1's and x0's values and no copy of X is
    made; a read-only X is copied once.
    """
    targets = []
    for j, name in enumerate(result.names):
        if j == 0:
            continue
        if name not in kinds:
            raise ValueError(f"no declared kind for variable {name!r}")
        if kinds[name] not in ("continuous", "discrete"):
            raise ValueError(f"unknown kind {kinds[name]!r} for variable {name!r}")
        targets.append((j, kinds[name]))

    beta, X = result.beta, data.X
    weight = data.m / data.n_obs
    p = predict_prob(X, beta)
    w = p * (1.0 - p)
    mean_w = float(weight @ w)
    dw = (weight * w * (1.0 - 2.0 * p)) @ X   # mean(w (1 - 2p) x)
    del p, w  # the discrete targets' n-vectors take their place
    ame = np.empty(len(targets))
    jac = np.empty((len(targets), len(beta)))
    if not X.flags.writeable:
        X = X.copy()
    for t, (j, kind) in enumerate(targets):
        if kind == "continuous":
            ame[t] = beta[j] * mean_w
            jac[t] = beta[j] * dw
            jac[t, j] += mean_w
            continue
        saved = X[:, j].copy()
        try:
            X[:, j] = 1.0
            p1 = predict_prob(X, beta)
            dw1 = (weight * p1 * (1.0 - p1)) @ X
            X[:, j] = 0.0
            p0 = predict_prob(X, beta)
            dw0 = (weight * p0 * (1.0 - p0)) @ X
        finally:
            X[:, j] = saved
        ame[t] = float(weight @ (p1 - p0))
        jac[t] = dw1 - dw0
    var = jac @ result.cov @ jac.T
    se = np.sqrt(np.maximum(np.diag(var), 0.0))

    effects = []
    for t, (j, kind) in enumerate(targets):
        z = ame[t] / se[t] if se[t] > 0 else math.nan
        effects.append(MarginalEffect(
            name=result.names[j], kind=kind, dydx=float(ame[t]),
            std_err=float(se[t]), z=float(z),
            p=two_sided_p(z) if math.isfinite(z) else math.nan,
        ))
    return effects


def write_margins_csv(path: str | Path, effects: list[MarginalEffect]) -> None:
    with atomic_open(path) as fh:
        write_rows(fh, [("variable", "kind", "dydx", "std_err", "z", "p")])
        write_rows(fh, ((e.name, e.kind, f"{e.dydx:.12g}", f"{e.std_err:.12g}",
                         f"{e.z:.12g}", f"{e.p:.12g}") for e in effects))


QQ_CHUNK_ROWS = 1024  # qq.csv lines formatted at a time


def write_qq_csv(path: str | Path, qq: np.ndarray | list[tuple[float, float]]) -> None:
    """qq.csv from qq_export's (quantile, residual) rows, QQ_CHUNK_ROWS lines
    at a time through one "%.12g" format per line: write_rows' bytes for
    f"{v:.12g}" fields, which hold no quote, comma, CR or LF."""
    z, resid = np.asarray(qq, float).reshape(-1, 2).T
    with atomic_open(path) as fh:
        write_rows(fh, [("theoretical_quantile", "pearson_residual")])
        for i in range(0, len(z), QQ_CHUNK_ROWS):
            rows = zip(z[i:i + QQ_CHUNK_ROWS].tolist(), resid[i:i + QQ_CHUNK_ROWS].tolist())
            fh.write("".join(map("%.12g,%.12g\r\n".__mod__, rows)))
