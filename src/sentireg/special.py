"""Special functions needed for the model diagnostics.

Only two are needed: the upper-tail chi-square CDF (via the regularized
incomplete gamma function) and the standard normal quantile. Both are
self-contained so the estimation stack has no dependency on an external
statistics library.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_p_series(s: float, x: float) -> float:
    """Lower regularized incomplete gamma P(s, x) by power series (x < s+1)."""
    if x <= 0.0:
        return 0.0
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_MAX_ITER):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_q_contfrac(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) by Lentz continued fraction (x >= s+1)."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    if s <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_contfrac(s, x)


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return gamma_q(df / 2.0, x / 2.0)


def two_sided_p(z: float) -> float:
    """Two-sided normal p-value for a z statistic."""
    return math.erfc(abs(z) / math.sqrt(2.0))


# Acklam's rational approximation to the normal quantile, |relative error| < 1.15e-9.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

P_LOW = 0.02425
P_HIGH = 1.0 - P_LOW


def norm_ppf(p: float) -> float:
    """Standard normal quantile (inverse CDF) on the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if P_LOW <= p <= P_HIGH:
        return ppf_central(p - 0.5)
    q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))  # the tails mirror each other
    z = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
         / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    return z if p < P_LOW else -z


def ppf_central(q):
    """norm_ppf's branch for P_LOW <= p <= P_HIGH at q = p - 0.5, a float or an array."""
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
