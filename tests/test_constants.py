import math

import mpmath
import pytest

from lpentropy.constants import (
    InequalityParams,
    derived_exponents,
    dpd_parameters,
    entropy_best_constant,
    sobolev_bound_constant,
)
from lpentropy.errors import DomainError


def _entropy_constant_mpmath(n, p):
    """Independent high-precision route through the same closed form."""
    mpmath.mp.dps = 40
    n = mpmath.mpf(n)
    p = mpmath.mpf(p)
    gam = mpmath.gamma(n / 2 + 1) / mpmath.gamma(n * (p - 1) / p + 1)
    val = (p / n) * ((p - 1) / mpmath.e) ** (p - 1) * mpmath.pi ** (-p / 2) * gam ** (p / n)
    return float(val)


def test_p2_identity():
    for n in range(2, 11):
        assert entropy_best_constant(n, 2.0) * n * math.pi * math.e == pytest.approx(
            2.0, abs=1e-14
        )


def test_entropy_constant_cross_precision():
    for n, p in [(2, 1.2), (3, 1.5), (3, 2.0), (4, 2.0), (5, 3.0), (8, 1.1)]:
        assert entropy_best_constant(n, p) == pytest.approx(
            _entropy_constant_mpmath(n, p), rel=1e-13
        )


def test_entropy_constant_domain():
    with pytest.raises(DomainError):
        entropy_best_constant(1, 2.0)
    with pytest.raises(DomainError):
        entropy_best_constant(3, 1.0)
    with pytest.raises(DomainError):
        entropy_best_constant(3.5, 2.0)
    # nan and inf once escaped as ValueError and OverflowError from int()
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError):
            entropy_best_constant(n, 2.0)


def test_sobolev_constant_independent_value():
    # n=3, p=2: (4/3) * area(S^3)^(-2/3) in this normalization
    indep = 4.0 / (3.0 * (2.0 * math.pi**2) ** (2.0 / 3.0))
    assert sobolev_bound_constant(3, 2.0) == pytest.approx(indep, rel=1e-14)
    with pytest.raises(DomainError):
        sobolev_bound_constant(3, 3.0)


def test_exponent_values():
    exps = derived_exponents(InequalityParams(n=3, p=2.0, q=1.0, r=2.0))
    assert exps.theta == pytest.approx(0.6, abs=1e-15)
    assert exps.alpha == pytest.approx(2.5, abs=1e-15)
    assert exps.p_star == pytest.approx(6.0, abs=1e-12)
    assert not exps.degenerate

    # Sobolev endpoint: full interpolation weight on the gradient
    exps = derived_exponents(InequalityParams(n=3, p=2.0, q=1.0, r=6.0))
    assert exps.theta == pytest.approx(1.0, abs=1e-14)

    # r = p family formula n(p-q)/(np + pq - nq)
    for q in (1.0, 1.3, 1.7, 1.9):
        exps = derived_exponents(InequalityParams(n=3, p=2.0, q=q, r=2.0))
        assert exps.theta == pytest.approx(
            3 * (2 - q) / (6 + 2 * q - 3 * q), rel=1e-14
        )


def test_theta_range_and_monotone_in_r():
    # theta stays in (0, 1], grows with r, and reaches 1 exactly at r = p*
    for n, p in [(3, 2.0), (4, 1.5), (5, 2.5)]:
        ps = n * p / (n - p)
        for q in (1.0, 1.4):
            rs = [q + (ps - q) * t for t in (0.1, 0.25, 0.45, 0.7, 0.9)] + [ps]
            thetas = [
                derived_exponents(InequalityParams(n=n, p=p, q=q, r=r)).theta
                for r in rs
            ]
            assert all(0.0 < th <= 1.0 + 1e-15 for th in thetas)
            assert all(b > a for a, b in zip(thetas, thetas[1:]))
            assert thetas[-1] == pytest.approx(1.0, abs=1e-14)


def test_alpha_interpolation_endpoints():
    for n, p in [(3, 2.0), (4, 1.5), (5, 1.3)]:
        ps = n * p / (n - p)
        at_p = derived_exponents(InequalityParams(n=n, p=p, q=p, r=p))
        at_star = derived_exponents(InequalityParams(n=n, p=p, q=ps, r=ps))
        assert at_p.alpha == pytest.approx(1.0, abs=1e-14)
        assert abs(at_star.alpha) <= 1e-14


def test_entropy_constant_below_sobolev_bound():
    for n in (3, 4, 5):
        for k in range(1, 10):
            p = 1.0 + k / 10.0
            assert entropy_best_constant(n, p) < sobolev_bound_constant(n, p)


def test_degenerate_marker():
    exps = derived_exponents(InequalityParams(n=3, p=2.0, q=1.5, r=1.5))
    assert exps.degenerate
    assert exps.theta == 0.0


def test_params_validation():
    with pytest.raises(DomainError):
        InequalityParams(n=3, p=2.0, q=2.0, r=1.5)  # q > r
    with pytest.raises(DomainError):
        InequalityParams(n=3, p=2.0, q=1.0, r=6.5)  # r > p*
    with pytest.raises(DomainError):
        InequalityParams(n=3, p=3.0, q=1.0, r=2.0)  # p >= n
    with pytest.raises(DomainError):
        InequalityParams(n=3, p=2.0, q=0.5, r=2.0)  # q < 1
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError):
            InequalityParams(n=n, p=2.0, q=1.5, r=2.0)


def test_dpd_family():
    par = dpd_parameters(3, 2.0, 4.0)
    assert par.q == 4.0
    assert par.r == pytest.approx(6.0, rel=1e-15)
    par = dpd_parameters(3, 2.0, 2.1)
    assert par.r == pytest.approx(2.2, rel=1e-12)
    with pytest.raises(DomainError):
        dpd_parameters(3, 2.0, 2.0)  # s must exceed p
