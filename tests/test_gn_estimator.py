"""Interpolation-constant estimator: families, ascent, limits."""

import math

import numpy as np
import pytest
from whole_array import BLOCK_SIZES, agrees

from lpentropy.constants import (
    InequalityParams,
    dpd_parameters,
    entropy_best_constant,
    sobolev_bound_constant,
)
from lpentropy.errors import DomainError
from lpentropy.gn_estimator import (
    estimate_gn_constant,
    gn_quotient,
    limit_scan,
)
from lpentropy.profiles import extremal_profile, random_stretched_mixture


def test_quotient_scale_invariance():
    params = InequalityParams(n=3, p=2.0, q=1.6, r=2.4)
    u = random_stretched_mixture(3, np.random.default_rng(1))
    q1 = gn_quotient(u, params).quotient
    q2 = gn_quotient(u.with_values(7.3 * u.values), params).quotient
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_quotient_dilation_invariance():
    params = InequalityParams(n=3, p=2.0, q=1.6, r=2.4)
    u = extremal_profile(3, 2.0, 1.0, n_nodes=20_000)
    shrunk = type(u)(grid=2.0 * u.grid, values=u.values, dimension=3)
    q1 = gn_quotient(u, params).quotient
    q2 = gn_quotient(shrunk, params).quotient
    assert q2 == pytest.approx(q1, rel=1e-6)


def test_quotients_never_beat_the_estimate():
    """The estimator is a sup: individual profiles must sit below it."""
    params = InequalityParams(n=3, p=2.0, q=1.9, r=2.0)
    est = estimate_gn_constant(params)
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = random_stretched_mixture(3, rng)
        assert gn_quotient(u, params).quotient <= est.value * (1 + 1e-6)


def test_sobolev_endpoint_recovered():
    """At r = p* the estimator must land on the closed-form Sobolev bound.

    The rational trial family contains that extremal exactly, so agreement
    is limited only by the optimizer, not by quadrature.  At theta = 1 the
    q-norm carries exponent 0, so no q may exclude the extremal, whose
    q-norm is infinite for q <= 3.
    """
    for par in (
        dpd_parameters(3, 2.0, 4.0),  # q = 4, r = 6 = p*
        InequalityParams(n=3, p=2.0, q=1.0, r=6.0),
        InequalityParams(n=3, p=2.0, q=2.0, r=6.0),
    ):
        est = estimate_gn_constant(par)
        assert est.value == pytest.approx(sobolev_bound_constant(3, 2.0), rel=1e-9)
        assert est.best_family == "rational"


def test_dpd_family_approaches_entropy_constant():
    # for s > p both exponents shrink with s, so the one-parameter family
    # decreases toward the entropy constant from above as s -> p
    a0 = entropy_best_constant(3, 2.0)
    vals = {}
    for s in (2.05, 2.3):
        est = estimate_gn_constant(dpd_parameters(3, 2.0, s))
        vals[s] = est.value
        assert est.value > a0
    assert vals[2.05] < vals[2.3]
    assert vals[2.05] == pytest.approx(a0, rel=0.05)


def test_limit_scan_gap_decreases():
    rows = limit_scan(3, 2.0, [1.7, 1.9, 1.99])
    gaps = [r["rel_gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in rows:
        assert r["estimate"] <= r["ceiling"] * (1 + 1e-3)
    assert gaps[2] < 0.05


def test_monotone_in_q_and_r():
    # componentwise larger (q, r) cannot decrease the constant
    lo = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.5, r=1.8))
    hi = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.7, r=2.2))
    spread = abs(hi.value - lo.value)
    assert lo.value <= hi.value + 0.1 * spread


def test_degenerate_parameters_rejected():
    u = extremal_profile(3, 2.0, 1.0, n_nodes=2000)
    with pytest.raises(DomainError):
        gn_quotient(u, InequalityParams(n=3, p=2.0, q=1.5, r=1.5))
    with pytest.raises(DomainError):
        estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.5, r=1.5))
    with pytest.raises(DomainError):
        gn_quotient(u, InequalityParams(n=4, p=2.0, q=1.5, r=2.0))  # dimension mismatch
    with pytest.raises(DomainError):
        estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.99, r=2.0), n_nodes=500,
                             ascent_iters=-5)


def test_limit_scan_validates_q():
    with pytest.raises(DomainError):
        limit_scan(3, 2.0, [2.5])


def test_ascent_does_not_lose_ground():
    params = InequalityParams(n=3, p=2.0, q=1.7, r=2.0)
    est = estimate_gn_constant(params)
    # quadrature offsets aside, the ascent must not fall below its seed
    assert est.ascent_gain > -1e-3
    assert est.ascent_iterations > 0


def test_quotient_matches_whole_array():
    """The blocked quotient against whole-array sums: bit for bit on one
    block, to 1e-14 relative past it."""
    params = InequalityParams(n=3, p=2.0, q=1.8, r=2.4)
    p, q, r = params.p, params.q, params.r
    for n_nodes in BLOCK_SIZES:
        u = random_stretched_mixture(3, np.random.default_rng(n_nodes), n_nodes=n_nodes)
        mw = u.cell_measure()
        norm_r = float(np.sum(mw * u.values**r)) ** (1.0 / r)
        norm_q = float(np.sum(mw * u.values**q)) ** (1.0 / q)
        grad_p = float(np.sum(mw * np.abs(u.derivative()) ** p))
        rep = gn_quotient(u, params)
        theta = rep.theta
        expected = math.exp(
            (p / theta) * math.log(norm_r)
            - math.log(grad_p)
            - (p * (1.0 - theta) / theta) * math.log(norm_q)
        )
        assert agrees(rep.norm_r, norm_r, n_nodes), n_nodes
        assert agrees(rep.norm_q, norm_q, n_nodes), n_nodes
        assert agrees(rep.grad_norm, grad_p ** (1.0 / p), n_nodes), n_nodes
        assert agrees(rep.quotient, expected, n_nodes), n_nodes
