"""Special functions checked against scipy as an independent oracle."""

import math

import numpy as np
import pytest
import scipy.stats

from sentireg.special import chi2_sf, gamma_q, norm_ppf, two_sided_p


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 18, 50, 200, 1949])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 5.0, 20.0, 100.0, 2002.96])
def test_chi2_sf_matches_scipy(df, x):
    assert chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), abs=1e-10)


def test_chi2_sf_edge_cases():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(-1.0, 5) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_gamma_q_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(0.1, 100.0)
        x = rng.uniform(0.0, 200.0)
        assert gamma_q(s, x) == pytest.approx(scipy.special.gammaincc(s, x), abs=1e-10)


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


@pytest.mark.parametrize("z", [0.0, 0.5, -1.0, 1.959963984540054, -3.0, 8.0, -40.0])
def test_two_sided_p_matches_scipy(z):
    assert two_sided_p(z) == pytest.approx(2 * scipy.stats.norm.sf(abs(z)), rel=1e-12, abs=1e-300)
    assert two_sided_p(-z) == two_sided_p(z)


def test_ppf_cdf_round_trip():
    for p in (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
        assert scipy.stats.norm.cdf(norm_ppf(p)) == pytest.approx(p, abs=1e-9)
    assert math.isfinite(norm_ppf(1e-300))
