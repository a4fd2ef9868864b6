"""Special functions needed for the model diagnostics.

Only two are needed: the upper-tail chi-square CDF, in closed form for a
whole number of degrees of freedom, and the standard normal quantile. Both
are self-contained so the estimation stack has no dependency on an external
statistics library.
"""

from __future__ import annotations

import math

import numpy as np


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X >= x) of a chi-square on df degrees of
    freedom, a positive whole number, in closed form (Abramowitz & Stegun
    26.4.4-26.4.5): erfc(sqrt(x/2)) for an odd df, plus the floor(df/2)
    terms (x/2)^a e^(-x/2) / Gamma(a+1) at a = i + (df mod 2)/2, summed
    outward from the largest as running products of neighbour ratios, all at
    most 1, so that none over- or underflows before it is negligible."""
    if not (df > 0 and float(df).is_integer()) or math.isnan(x):
        raise ValueError(f"chi2_sf needs a whole df > 0 and a number x, got df={df}, x={x}")
    y, n, a0 = x / 2.0, int(df) // 2, (df % 2) / 2.0
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    q = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    if n:
        k = min(max(math.floor(y - a0), 0), n - 1)  # the largest term is at a = a0 + k
        a = a0 + k
        up = np.cumprod(y / (a0 + np.arange(k + 1, n)))
        down = np.cumprod((a0 + np.arange(k, 0, -1)) / y)
        peak = math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        q += peak * float(1.0 + up.sum() + down.sum())
    return min(q, 1.0)


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
