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


# Wichura's AS241 (Appl. Statist. 37, 1988), as in statistics.NormalDist.inv_cdf: for each
# branch the numerator's 8 coefficients and then the denominator's, each from the leading one.
_CENTRAL = (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
            13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665,
            5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
            5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0)
_NEAR = (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
         3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835,
         1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457, 0.14810397642748008,
         0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0)
_FAR = (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
        0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
        6.657904643501103, 2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
        0.0007868691311456133, 0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0)


def _ratio(coefs, x, scale=1.0):
    """scale * num(x) / den(x), both polynomials evaluated by Horner's rule."""
    num = den = 0.0
    for a, b in zip(coefs[:8], coefs[8:]):
        num, den = num * x + a, den * x + b
    return num * scale / den


def norm_ppf(p):
    """Standard normal quantile (inverse CDF) on the open interval (0, 1),
    relative error under 1e-15: a float for a float, an array for an array.
    The central branch holds for |p - 0.5| <= 0.425, the tails take r =
    sqrt(-log(min(p, 1 - p))), which keeps every p down to the least double."""
    scalar, p = np.ndim(p) == 0, np.array(p, dtype=float, ndmin=1)
    if not (inside := (0.0 < p) & (p < 1.0)).all():
        raise ValueError(f"p must be in (0, 1), got {p[~inside][0]}")
    q = p - 0.5
    z = _ratio(_CENTRAL, 0.180625 - q * q, q)
    if (tails := np.abs(q) > 0.425).any():
        r = np.sqrt(-np.log(np.minimum(p[tails], 1.0 - p[tails])))
        z[tails] = np.copysign(np.where(r <= 5.0, _ratio(_NEAR, r - 1.6), _ratio(_FAR, r - 5.0)),
                               q[tails])
    return float(z[0]) if scalar else z
