"""Binary logit estimated by maximum likelihood (Newton/IRLS).

The optimizer is plain Newton-Raphson on the log-likelihood with
step-halving, which for the logistic link is the same as iteratively
reweighted least squares. Starting point is beta = 0; convergence is
declared when the log-likelihood change drops below tol.

Rows may be covariate patterns: row i then stands for m[i] observations
with the same covariates, y[i] of them positive. The grouped-binomial
likelihood has the same maximizer and information matrix as the
row-level Bernoulli likelihood of the expanded rows (McCullagh & Nelder,
Generalized Linear Models), so one solver serves both; single rows are
the case m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import chi2_sf, two_sided_p

__all__ = [
    "DesignMatrix",
    "LogitFit",
    "EstimationError",
    "NonIdentifiableError",
    "CollinearityError",
    "PerfectSeparationError",
    "DegenerateFitError",
    "ConvergenceError",
    "predict_prob",
    "log_odds",
    "log_likelihood",
    "fit",
    "classify_threshold",
    "lr_test",
    "pseudo_r2",
]

# |beta| beyond this while still growing is treated as the MLE running away.
_SEPARATION_BETA = 30.0
_RANK_TOL = 1e-12


class EstimationError(RuntimeError):
    """Base class for failures of the maximum-likelihood fit."""


class NonIdentifiableError(EstimationError):
    """The response contains only one class; no slope is identified."""


class CollinearityError(EstimationError):
    """The weighted cross-product matrix is rank deficient."""

    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"linearly dependent column(s): {columns}")


class PerfectSeparationError(EstimationError):
    """A linear combination of predictors classifies y exactly; the MLE diverges."""


class DegenerateFitError(EstimationError, ValueError):
    """A fitted probability is exactly 0 or 1, as under quasi-complete separation."""


class ConvergenceError(EstimationError):
    """Newton-Raphson reached its iteration limit before converging."""


@dataclass(frozen=True)
class DesignMatrix:
    X: np.ndarray          # rows x (k+1), leading column of ones
    y: np.ndarray          # positives per row, 0 <= y <= m
    names: tuple[str, ...]  # k+1 column labels, intercept first
    m: np.ndarray | None = None  # observations per row; None means all ones

    def __post_init__(self):
        X, y = np.asarray(self.X, dtype=float), np.asarray(self.y, dtype=float)
        n, p = X.shape
        m = np.ones(n) if self.m is None else np.asarray(self.m, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", m)
        if len(self.names) != p:
            raise ValueError("names must match the number of columns")
        if y.shape != (n,) or m.shape != (n,):
            raise ValueError("y and m lengths must match the number of rows")
        # Above 2**53 a float no longer tells whole counts apart.
        if not np.all((m >= 1) & (m <= 2.0**53) & (m == np.floor(m))):
            raise ValueError("m must hold positive whole observation counts")
        if not self.n_obs > p:
            raise ValueError(f"need more observations ({self.n_obs}) than parameters ({p})")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains non-finite entries")
        _check_response(y, m)
        if not np.all(X[:, 0] == 1.0):
            raise ValueError("first column must be the intercept (all ones)")
        for j in range(1, p):
            if np.ptp(X[:, j]) == 0.0:
                raise ValueError(f"column {self.names[j]!r} is constant")

    @property
    def k(self) -> int:
        """Number of predictors, excluding the intercept."""
        return self.X.shape[1] - 1

    @property
    def n_obs(self) -> int:
        """Number of observations, the sum of m."""
        return int(self.m.sum())


@dataclass(frozen=True)
class LogitFit:
    names: tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray
    std_err: np.ndarray
    z: np.ndarray
    p: np.ndarray
    ll: float
    ll0: float
    n_obs: int
    n_iter: int
    converged: bool

    @property
    def k(self) -> int:
        return len(self.beta) - 1


def predict_prob(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Logistic probabilities exp(eta)/(1+exp(eta)), overflow-safe on both tails."""
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.shape[1] != beta.shape[0]:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, beta has {beta.shape[0]}")
    eta = X @ beta
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def log_odds(p):
    """ln(p/(1-p)), the inverse of the logistic function; p must lie in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("log-odds requires probabilities strictly inside (0, 1)")
    out = np.log(p / (1.0 - p))
    return float(out) if out.ndim == 0 else out


def _check_response(y: np.ndarray, m) -> None:
    if not np.all((y >= 0) & (y <= m) & (y == np.floor(y))):
        raise ValueError("response must count positives, 0 <= y <= m (binary 0/1 when m = 1)")


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray, m=1.0) -> float:
    """Log-likelihood sum(y*eta - m*softplus(eta)): Bernoulli for m = 1,
    grouped binomial (without the constant binomial coefficients) otherwise."""
    y = np.asarray(y, dtype=float)
    _check_response(y, m)
    eta = np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    return float(np.sum(y * eta - m * np.logaddexp(0.0, eta)))


def _intercept_only_ll(y: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """Closed-form intercept-only MLE: beta0 = logit(ybar), and its log-likelihood."""
    n = float(m.sum())
    ybar = float(y.sum()) / n
    beta0 = math.log(ybar / (1.0 - ybar))
    ll0 = n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    return beta0, ll0


def _check_rank(A: np.ndarray, names: tuple[str, ...]) -> None:
    # Rescale to unit diagonal first so the test reflects linear dependence,
    # not the wildly different units of the raw columns.
    d = np.sqrt(np.diag(A))
    if np.any(d == 0.0):
        cols = [names[j] for j in np.nonzero(d == 0.0)[0]]
        raise CollinearityError(cols)
    B = A / np.outer(d, d)
    s, vt = np.linalg.svd(B, compute_uv=True)[1:]
    if s[-1] < _RANK_TOL * s[0]:
        null = np.abs(vt[-1])
        cols = [names[j] for j in range(len(names)) if null[j] > 0.1 * null.max()]
        raise CollinearityError(cols)


def fit(data: DesignMatrix, tol: float = 1e-10, max_iter: int = 100) -> LogitFit:
    """Maximize the log-likelihood by Newton-Raphson with step-halving.

    X'WX is built once at each iterate; the one at the final beta gives
    the covariance. Raises NonIdentifiableError for a single-class
    response, CollinearityError when X'WX is rank deficient, and
    PerfectSeparationError when the coefficients run away. Raises
    ValueError unless max_iter >= 1 and tol is finite and positive: the
    loop stops only after max_iter iterations or on a change below tol.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    X, y, m, names = data.X, data.y, data.m, data.names
    if np.all(y == 0) or np.all(y == m):
        raise NonIdentifiableError("response contains a single class")

    beta = np.zeros(X.shape[1])
    ll = log_likelihood(beta, X, y, m)
    converged = False
    grew = False
    n_iter = 0
    while True:
        p = predict_prob(X, beta)
        w = m * p * (1.0 - p)
        A = X.T @ (X * w[:, None])
        last = converged or n_iter == max_iter
        if last and np.max(np.abs(beta)) > _SEPARATION_BETA and grew:
            raise PerfectSeparationError(
                f"coefficients diverging (max |beta| = {np.max(np.abs(beta)):.3g} "
                f"after {n_iter} iterations)"
            )
        _check_rank(A, names)
        if last:
            break
        delta = np.linalg.solve(A, X.T @ (y - m * p))
        step = 1.0
        beta_new = beta + delta
        ll_new = log_likelihood(beta_new, X, y, m)
        while ll_new < ll and step > 1e-12:
            step *= 0.5
            beta_new = beta + step * delta
            ll_new = log_likelihood(beta_new, X, y, m)
        n_iter += 1
        grew = np.max(np.abs(beta_new)) > np.max(np.abs(beta)) + 1e-3
        converged = abs(ll_new - ll) < tol
        beta, ll = beta_new, ll_new

    cov = np.linalg.inv(A)
    cov = (cov + cov.T) / 2.0
    std_err = np.sqrt(np.diag(cov))
    z = beta / std_err
    pvals = np.array([two_sided_p(zj) for zj in z])
    _, ll0 = _intercept_only_ll(y, m)

    return LogitFit(
        names=names, beta=beta, cov=cov, std_err=std_err, z=z, p=pvals,
        ll=ll, ll0=ll0, n_obs=data.n_obs, n_iter=n_iter, converged=converged,
    )


def classify_threshold(p, cutoff: float = 0.5):
    """1 iff p >= cutoff (the 0.5 boundary is classified positive)."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    p = np.asarray(p, dtype=float)
    out = (p >= cutoff).astype(int)
    return int(out) if out.ndim == 0 else out


def lr_test(result: LogitFit) -> dict[str, float]:
    """Likelihood-ratio test of the fitted model against intercept-only."""
    chi2 = max(0.0, 2.0 * (result.ll - result.ll0))
    df = result.k
    p = chi2_sf(chi2, df) if df >= 1 else 1.0
    return {"chi2": chi2, "df": df, "p": p}


def pseudo_r2(result: LogitFit) -> float:
    """McFadden's pseudo R-squared, 1 - ll/ll0."""
    if result.ll0 == 0.0:
        raise ValueError("intercept-only log-likelihood is zero; pseudo R2 undefined")
    return 1.0 - result.ll / result.ll0
