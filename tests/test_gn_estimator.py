"""Interpolation-constant estimator: families, ascent, limits."""

import math

import mpmath
import numpy as np
import pytest
from scipy import optimize
from whole_array import BLOCK_SIZES, agrees

from lpentropy import gn_estimator
from lpentropy.constants import (
    InequalityParams,
    derived_exponents,
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


def _ln_quotient_rational_mpmath(params, theta, s, k):
    """ln Q of u = (1 + r^s)^{-k} from its beta moments, at 40 digits."""
    with mpmath.workdps(40):
        n, p = params.n, mpmath.mpf(params.p)
        s, k, theta = mpmath.mpf(s), mpmath.mpf(k), mpmath.mpf(theta)
        ln_w = mpmath.log(2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2))

        def ln_moment(m, decay):
            a = (m + 1) / s
            return mpmath.loggamma(a) + mpmath.loggamma(decay - a) - mpmath.loggamma(decay) \
                - mpmath.log(s)

        def ln_norm(t):
            t = mpmath.mpf(t)
            return (ln_w + ln_moment(n - 1, k * t)) / t

        ln_grad = ln_w + p * mpmath.log(k * s) + ln_moment(n - 1 + (s - 1) * p, (k + 1) * p)
        value = (p / theta) * ln_norm(params.r) - ln_grad \
            - (p * (1 - theta) / theta) * ln_norm(params.q)
        return float(value)


@pytest.mark.parametrize("q, r", [(1.5, 1.8), (1.8, 2.0), (1.99, 2.0), (1.8, 2.4)],
                         ids=("r<p", "r=p", "r=p-near-q", "r>p"))
def test_rational_quotient_against_mpmath(q, r):
    # lgamma(d - a) - lgamma(d) once cancelled to 1e-10 at k = 1e4 and 1e-6 at 1e8
    params = InequalityParams(n=3, p=2.0, q=q, r=r)
    theta = derived_exponents(params).theta
    for s in (1.3, 2.0, 3.1):
        for k in (3.0, 30.0, 1e3, 1e5, 1e7, 1e9):
            got = gn_estimator._ln_quotient_rational(params, theta, s, k)
            want = _ln_quotient_rational_mpmath(params, theta, s, k)
            assert got == pytest.approx(want, rel=1e-11), (s, k)


_R_AT_MOST_P = [InequalityParams(n=3, p=2.0, q=q, r=2.0) for q in (1.0, 1.62, 1.85, 1.99)] \
    + [InequalityParams(n=3, p=2.0, q=1.5, r=1.8)]


def test_rational_family_stays_below_its_stretched_limit(monkeypatch):
    """On r <= p the rational search runs toward k -> infinity, where the
    family's supremum is the stretched value; it stops at its cap within
    150 evaluations past the grid and reports a member below that value."""
    simplex = gn_estimator.nelder_mead
    evaluations = []

    def counted(fun, x0):
        def fun_counted(x):
            evaluations[-1] += 1
            return fun(x)

        evaluations.append(0)
        return simplex(fun_counted, x0)

    monkeypatch.setattr(gn_estimator, "nelder_mead", counted)
    for params in _R_AT_MOST_P:
        est = estimate_gn_constant(params, n_nodes=500, ascent_iters=0)
        values = est.family_values
        assert values["rational"] <= values["stretched_exp"], params
        assert evaluations[-1] <= 150, (params, evaluations[-1])


def test_q_near_p_estimate_is_the_stretched_value():
    # the rational member once read 2.7e-8 above it, out of rounding noise
    est = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.99, r=2.0))
    assert est.best_family == "stretched_exp"
    assert est.value == max(est.family_values.values())
    assert est.value == pytest.approx(0.07787119202574792, rel=1e-12)


def test_dpd_family_member_is_found_exactly():
    # r > p: the optimum is interior at (s, k) = (2, 1/(s_dpd - 2)) = (2, 20),
    # whose exact quotient is 0.0810017094610081250611... (40 digits)
    est = estimate_gn_constant(dpd_parameters(3, 2.0, 2.05), n_nodes=500, ascent_iters=0)
    value = est.family_values["rational"]
    assert value == pytest.approx(0.0810017094611, abs=1e-12)
    assert value == pytest.approx(0.08100170946100812506, rel=1e-12)


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


def test_quotient_of_a_zero_profile_is_undefined():
    u = extremal_profile(3, 2.0, 1.0, n_nodes=2000)
    with pytest.raises(DomainError, match="zero gradient energy"):
        gn_quotient(u.with_values(0.0 * u.values), InequalityParams(n=3, p=2.0, q=1.5, r=2.0))
    # int u^6 underflows to 0 at 1e-60 times the extremal, its gradient energy does not
    with pytest.raises(DomainError, match="zero mass"):
        gn_quotient(u.with_values(1e-60 * u.values), InequalityParams(n=3, p=2.0, q=1.5, r=6.0))


def test_limit_scan_validates_q():
    with pytest.raises(DomainError):
        limit_scan(3, 2.0, [2.5])


def test_limit_scan_checks_every_q_before_estimating(monkeypatch):
    # a bad q late in the list once raised only after the estimates before it
    def spy(*args, **kwargs):
        raise AssertionError("estimate_gn_constant ran before every q was checked")

    monkeypatch.setattr(gn_estimator, "estimate_gn_constant", spy)
    with pytest.raises(DomainError, match="q=2.5"):
        limit_scan(3, 2.0, [1.7, 2.5])
    with pytest.raises(DomainError, match="q=2.0"):
        limit_scan(3, 2.0, iter([1.7, 1.9, 2.0]))


def test_ascent_does_not_lose_ground():
    params = InequalityParams(n=3, p=2.0, q=1.7, r=2.0)
    est = estimate_gn_constant(params)
    # quadrature offsets aside, the ascent must not fall below its seed
    assert est.ascent_gain > -1e-3
    assert est.ascent_iterations > 0


@pytest.mark.xfail(strict=True, reason="the coarse-grid ascent overshoots the sharp constant "
                   "(ROADMAP item 17)")
@pytest.mark.parametrize("n_nodes", [5, 10])
def test_coarse_grid_estimate_stays_below_the_entropy_ceiling(n_nodes):
    # on r = p the constant is below the entropy constant A0; through the
    # ascent on 5 and 10 nodes the estimate reads 0.2947 and 0.2246, and at
    # 20 nodes, where the stretched family wins, 0.0680
    est = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.5, r=2.0), n_nodes=n_nodes)
    assert est.value <= entropy_best_constant(3, 2.0) * (1 + 1e-3)


def test_ascent_reports_its_stop_reason():
    # on r = p the ascent runs to its cap at the defaults
    est = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.8, r=2.0))
    assert est.ascent_stop_reason == "max_iters"
    assert est.ascent_iterations == 250


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


def _scipy_bounded(fun, a, b):
    """The bounded search as the estimator once called it from scipy."""
    return float(optimize.minimize_scalar(fun, bounds=(a, b), method="bounded",
                                          options={"xatol": 1e-8}).x)


def _scipy_simplex(fun, x0):
    """The simplex search as the estimator once called it from scipy."""
    optimize.minimize(fun, x0, method="Nelder-Mead",
                      options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400})


def _evaluated_points(search, fun, *args):
    """(points, result) of one search of fun: every point it evaluates, as
    floats, and its result, or "stretched_limit" if the rational search
    reached its cap."""
    points = []

    def recorded(x):
        points.append(tuple(np.atleast_1d(x).tolist()))
        return fun(x)

    try:
        return points, search(recorded, *args)
    except gn_estimator._StretchedLimit:
        return points, "stretched_limit"


@pytest.mark.parametrize("params", [
    InequalityParams(n=3, p=2.0, q=1.5, r=1.8),
    InequalityParams(n=3, p=2.0, q=1.8, r=2.0),
    InequalityParams(n=4, p=1.5, q=1.2, r=1.5),
    dpd_parameters(3, 2.0, 2.05),
    InequalityParams(n=3, p=2.0, q=4.0, r=6.0),
], ids=("r<p", "r=p", "r=p-n4", "r>p-dpd", "sobolev"))
def test_searches_evaluate_the_points_of_scipy(monkeypatch, params):
    """The ported searches against the scipy calls they replace, on the
    estimator's own objectives: the same points in the same order, bit for
    bit, and the same result (the bounded search's x; the simplex ends at
    the stretched limit on r <= p and converges inside on r > p)."""
    brent, simplex = gn_estimator.bounded_brent, gn_estimator.nelder_mead
    outcomes = {}

    def brent_spy(fun, a, b):
        ours = _evaluated_points(brent, fun, a, b)
        theirs = _evaluated_points(_scipy_bounded, fun, a, b)
        assert ours == theirs
        outcomes["brent"] = len(ours[0])
        return ours[1]

    def simplex_spy(fun, x0):
        theirs = _evaluated_points(_scipy_simplex, fun, x0)
        ours = _evaluated_points(simplex, fun, x0)
        assert ours == theirs
        outcomes["simplex"] = ours
        if ours[1] == "stretched_limit":
            raise gn_estimator._StretchedLimit

    monkeypatch.setattr(gn_estimator, "bounded_brent", brent_spy)
    monkeypatch.setattr(gn_estimator, "nelder_mead", simplex_spy)
    estimate_gn_constant(params, n_nodes=500, ascent_iters=0)
    assert outcomes["brent"] >= 8
    points, ended = outcomes["simplex"]
    assert len(points) > 20
    assert (ended == "stretched_limit") == (params.r <= params.p)


@pytest.mark.parametrize("center", [0.9, 1.0 + 1e-9, 1.0 + 2.5e-8, 1.2, 1.4 - 2.5e-8, 1.5])
def test_bounded_search_near_its_bounds(center):
    """The bounded search against scipy's where the minimum sits at, just
    inside or beyond an end of [1, 1.4], as the stretched scan's clipped
    brackets allow: there parabolic steps land within 2 tol of an end and
    are pulled back (a branch the estimator's interior optima above do not
    reach)."""

    def fun(x):
        return (x - center) ** 2 + 0.1 * (x - center) ** 3

    ours = _evaluated_points(gn_estimator.bounded_brent, fun, 1.0, 1.4)
    theirs = _evaluated_points(_scipy_bounded, fun, 1.0, 1.4)
    assert ours == theirs
