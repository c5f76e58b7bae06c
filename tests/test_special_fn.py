"""Special-function layer: gamma values, areas, moments, quadrature."""

import math

import mpmath
import numpy as np
import pytest

from lpentropy.errors import DomainError
from lpentropy.special_fn import log_gamma, sphere_area, stretched_exp_moment
from quadrature_oracle import Accuracy, semi_infinite_integral


def test_log_gamma_known_values():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-15)
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    for k in range(3, 12):
        assert log_gamma(float(k)) == pytest.approx(math.log(math.factorial(k - 1)), rel=1e-14)


def test_log_gamma_against_mpmath_sample():
    rng = np.random.default_rng(42)
    mpmath.mp.dps = 40
    for x in rng.uniform(0.05, 60.0, 50):
        ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_sphere_area_closed_values():
    # circumference of S^1, area of S^2, volume-form total of S^3
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)
    with pytest.raises(DomainError):
        sphere_area(0)
    with pytest.raises(DomainError):
        sphere_area(2.5)
    # nan and inf once escaped as ValueError and OverflowError from int()
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError):
            sphere_area(n)


def test_stretched_moment_matches_direct_quadrature():
    """Gamma-form moment against brute-force integration of r^m e^{-c r^s}."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = float(rng.uniform(0.0, 6.0))
        s = float(rng.uniform(0.8, 4.0))
        c = float(rng.uniform(0.3, 5.0))
        val = stretched_exp_moment(m, s, c)
        ref = semi_infinite_integral(lambda r: r**m * math.exp(-c * r**s))
        assert val == pytest.approx(ref, rel=1e-9)


def test_stretched_moment_domain():
    with pytest.raises(DomainError):
        stretched_exp_moment(-1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        stretched_exp_moment(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        stretched_exp_moment(1.0, 2.0, -1.0)


def test_semi_infinite_integral_exact_cases():
    assert semi_infinite_integral(lambda r: math.exp(-r * r)) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-12
    )
    assert semi_infinite_integral(lambda r: r**3 * math.exp(-r)) == pytest.approx(
        6.0, rel=1e-12
    )


def test_accuracy_validation():
    with pytest.raises(DomainError):
        Accuracy(rel_tol=-1e-10)
    with pytest.raises(DomainError):
        Accuracy(max_subdivisions=0)
    acc = Accuracy(rel_tol=1e-9, abs_tol=1e-11)
    assert semi_infinite_integral(lambda r: math.exp(-r), acc) == pytest.approx(1.0, rel=1e-8)
