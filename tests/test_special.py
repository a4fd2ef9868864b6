"""Special functions checked against scipy as an independent oracle."""

import math

import numpy as np
import pytest
import scipy.stats

from sentireg.special import chi2_sf, norm_ppf, two_sided_p


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 18, 50, 200, 1949])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 5.0, 20.0, 100.0, 2002.96])
def test_chi2_sf_matches_scipy(df, x):
    assert chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), abs=1e-10)


# Whole df from the LR test's 18 up to Pearson's J - k - 1 at and past
# wide-vocab's 1e5 documents (19 923), with x/df around 1, where the most
# terms of the sum count.
@pytest.mark.parametrize("df", [*range(1, 61), 99, 200, 1891, 7637, 12189, 19923,
                                50_000, 200_000, 1_000_000])
def test_chi2_sf_relative_error_at_any_df(df):
    rel = 1e-10 if df <= 20_000 else 1e-8
    for ratio in (0.01, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 2.0, 5.0):
        p = chi2_sf(ratio * df, df)
        assert type(p) is float and 0.0 <= p <= 1.0
        assert p == pytest.approx(scipy.stats.chi2.sf(ratio * df, df), rel=rel, abs=0.0)


def test_chi2_sf_edge_cases():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(-1.0, 5) == 1.0
    assert chi2_sf(math.inf, 5) == chi2_sf(math.inf, 4) == 0.0
    assert chi2_sf(3.0, 4.0) == chi2_sf(3.0, 4)
    for df in (0, -2, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            chi2_sf(1.0, df)
    with pytest.raises(ValueError):
        chi2_sf(math.nan, 5)


def test_norm_ppf_accuracy():
    # design accuracy bound of the rational approximation
    ps = np.concatenate([
        np.linspace(1e-9, 0.02, 200),
        np.linspace(0.02, 0.98, 500),
        np.linspace(0.98, 1 - 1e-9, 200),
    ])
    for p in ps:
        # the rational approximation guarantees |relative error| < 1.2e-9
        assert norm_ppf(float(p)) == pytest.approx(
            scipy.stats.norm.ppf(p), rel=1.2e-9, abs=1.2e-9)


def test_norm_ppf_symmetry_and_domain():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.25) == pytest.approx(-norm_ppf(0.75), abs=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            norm_ppf(bad)


# Both tails to the smallest and largest doubles with a quantile, the
# central branch's ends at p = 0.075 and 0.925 and the tails' branch point
# r = sqrt(-log(p)) = 5, with their neighbours.
NORM_PPF_GRID = sorted({*np.geomspace(1e-300, 0.5, 400).tolist(),
                        *(1.0 - np.geomspace(1e-16, 0.5, 200)).tolist(),
                        *(p * k for p in (0.075, 0.925, math.exp(-25.0))
                          for k in (1 - 1e-15, 1.0, 1 + 1e-15))})


def test_norm_ppf_relative_error_against_scipy():
    for p in NORM_PPF_GRID:
        z = scipy.stats.norm.ppf(p)
        assert norm_ppf(p) == pytest.approx(z, rel=2e-15, abs=0.0 if z else 1e-300), p


def test_norm_ppf_within_2_ulp_of_the_standard_library():
    import statistics  # the oracle only: sentireg does not import it

    inv_cdf = statistics.NormalDist().inv_cdf
    for p in NORM_PPF_GRID:
        z = norm_ppf(p)
        assert abs(z - inv_cdf(p)) <= 2 * math.ulp(z), p


def test_norm_ppf_gives_a_float_for_a_float_and_an_array_for_an_array():
    assert type(norm_ppf(0.3)) is float and type(norm_ppf(np.float64(0.3))) is float
    p = np.array(NORM_PPF_GRID)
    z = norm_ppf(p)
    assert isinstance(z, np.ndarray) and z.shape == p.shape
    assert z.tolist() == [norm_ppf(v) for v in NORM_PPF_GRID]
    assert norm_ppf([0.25, 0.5]).tolist() == [norm_ppf(0.25), 0.0]
    with pytest.raises(ValueError):
        norm_ppf(np.array([0.5, 1.0]))


@pytest.mark.parametrize("z", [0.0, 0.5, -1.0, 1.959963984540054, -3.0, 8.0, -40.0])
def test_two_sided_p_matches_scipy(z):
    assert two_sided_p(z) == pytest.approx(2 * scipy.stats.norm.sf(abs(z)), rel=1e-12, abs=1e-300)
    assert two_sided_p(-z) == two_sided_p(z)


def test_ppf_cdf_round_trip():
    for p in (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
        assert scipy.stats.norm.cdf(norm_ppf(p)) == pytest.approx(p, abs=1e-9)
    assert math.isfinite(norm_ppf(1e-300))
