"""Exponent-path integrals, heat-kernel bound, torus heat norms."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from lpentropy import hypercontractivity
from lpentropy.errors import AccuracyNotMet, DomainError, OracleDisagreement
from lpentropy.hypercontractivity import (
    bakry_integrals,
    curvature_second_constant_bound,
    torus_heat_norm,
    ultracontractivity_check,
)
from lpentropy.manifold_geometry import ManifoldModel


def sharp_a(n: int) -> float:
    return 2.0 / (n * math.pi * math.e)


def test_time_integral_matches_closed_form_seeded():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))
        rep = bakry_integrals(n, a, b, lam)
        assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)
        assert rep.t_closed == pytest.approx(n / (8.0 * lam), rel=1e-14)


def test_time_integral_general_path():
    rep = bakry_integrals(3, 0.5, 0.3, 1.2, p_from=1.5, q_to=3.0)
    assert rep.t_closed == pytest.approx(3.0 / (8.0 * 1.2) * (1 / 1.5 - 1 / 3.0), rel=1e-14)
    assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)
    # bound fields only apply to the full (1, inf) path
    assert math.isnan(rep.bound_rhs)
    assert rep.passed is None


def test_time_integral_random_paths():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p_from = float(rng.uniform(1.0, 3.0))
        q_to = p_from + float(rng.uniform(0.2, 4.0))
        if rng.random() < 0.3:
            q_to = math.inf
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))
        rep = bakry_integrals(3, a, b, lam, p_from=p_from, q_to=q_to)
        assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)


def test_budget_integral_closed_form():
    # on (1, inf): m = (n/2)(ln(A lam) + 1) + n B / (12 A lam)
    for n, a, b, lam in ((2, 0.3, 0.0, 1.0), (3, sharp_a(3), 1.0, 4.0),
                         (5, 1.2, 0.7, 2.5)):
        rep = bakry_integrals(n, a, b, lam)
        closed = 0.5 * n * (math.log(a * lam) + 1.0) + n * b / (12.0 * a * lam)
        assert rep.m == pytest.approx(closed, rel=1e-10)


def _budget_reference(n, a, b, lam, p_from, q_to):
    """(n/2) [G(1/p) - G(1/q)] with G as written, c = 1 - sigma and 0 ln 0 = 0."""
    def xlogx(x):
        return x * math.log(x) if x > 0 else 0.0

    def g(sig):
        c = 1.0 - sig
        return ((math.log(a * lam) - 1.0) * sig + (sig - xlogx(sig)) + (xlogx(c) + sig)
                + b / (a * lam) * (sig**2 / 2.0 - sig**3 / 3.0))

    return 0.5 * n * (g(1.0 / p_from) - g(0.0 if math.isinf(q_to) else 1.0 / q_to))


def test_budget_integral_matches_closed_form_on_every_path():
    n, a, b = 3, 0.4, 0.9
    lam = b / a * 0.26 + 0.7  # clears the admissibility floor B/(4A) on any path
    rng = np.random.default_rng(43)
    paths = []
    for _ in range(40):
        p_from = 1.0 + float(rng.uniform(0.0, 3.0)) ** 2
        q_to = math.inf if rng.random() < 0.3 else p_from + float(rng.uniform(0.01, 5.0))
        paths.append((p_from, q_to))
    # near-singular ends, and paths 1e-6 wide
    paths += [(1.0 + 1e-14, 1e15), (1.0, 1.0 + 1e-6), (2.5, 2.5 + 1e-6), (1.0, math.inf)]
    cases = [(n, a, b, lam, p_from, q_to) for p_from, q_to in paths]
    # short paths on which the m integrand crosses 0 (ln(A lam) = 1 + ln(sigma c)
    # at sigma = 0.4), so |m| is far below the rounding of its terms
    cases += [(3, 1.0, 0.0, math.e * 0.24, 2.5, 2.5 + w) for w in (1e-3, 1e-6, 1e-9)]
    for n, a, b, lam, p_from, q_to in cases:
        rep = bakry_integrals(n, a, b, lam, p_from=p_from, q_to=q_to)
        closed = _budget_reference(n, a, b, lam, p_from, q_to)
        assert rep.m_closed == pytest.approx(closed, rel=1e-12, abs=1e-15), (p_from, q_to)
        assert abs(rep.m - rep.m_closed) <= 1e-12 * max(abs(rep.m_closed), 1e-3), (p_from, q_to)
        assert rep.quad_error["m"] <= 1e-12 * max(abs(rep.m), 1e-3), (p_from, q_to)


def test_budget_on_a_path_past_the_float_square_root():
    """At p_from = 1e200 the variance floor (s-1)/s^2 is formed without
    overflow, and m keeps the c ln c = -sigma + ... term of its closed form,
    checked against G at 40 digits."""
    n, a, lam, p_from = 3, 0.0781, 5.0, 1e200
    rep = bakry_integrals(n, a, 0.0, lam, p_from=p_from)
    with mpmath.workdps(40):
        sig = 1 / mpmath.mpf(p_from)
        c = 1 - sig
        ref = 0.5 * n * ((mpmath.log(a * lam) - 1) * sig + (sig - sig * mpmath.log(sig))
                         + (c * mpmath.log(c) + sig))
    assert rep.m_closed == pytest.approx(float(ref), rel=1e-13)
    assert rep.m == pytest.approx(float(ref), rel=1e-10)


@pytest.mark.parametrize("p_from", [1.5, 2.5, 3.0])
def test_budget_closed_form_on_short_paths(p_from):
    """On (p, p + w) the closed form differences sigma ln sigma and c ln c
    through log1p of the width: it matches G at 40 digits, over the same
    double endpoints, to 1e-14 of the scale of its terms, where differencing
    G's terms of size 1 lost up to 1e-16/w of it."""
    for n, a, b, lam in ((3, 1.0, 0.0, math.e * 0.24), (3, 0.4, 0.9, 0.9 * 0.26 / 0.4 + 0.7)):
        for width in (1e-3, 1e-6, 1e-9):
            rep = bakry_integrals(n, a, b, lam, p_from=p_from, q_to=p_from + width)
            sig_lo, sig_hi = 1.0 / rep.q_to, 1.0 / p_from
            with mpmath.workdps(40):
                ln_al, ratio = mpmath.log(a * lam), mpmath.mpf(b) / (a * lam)

                def g(sig):
                    sig = mpmath.mpf(sig)
                    c = 1 - sig
                    return ((ln_al + 1) * sig - sig * mpmath.log(sig) + c * mpmath.log(c)
                            + ratio * (sig**2 / 2 - sig**3 / 3))

                ref = float(0.5 * n * (g(sig_hi) - g(sig_lo)))
            terms = 0.5 * n * (abs(math.log(a * lam)) + 1.0 + b / (a * lam)) * (sig_hi - sig_lo)
            assert abs(rep.m_closed - ref) <= 1e-14 * terms, (n, a, b, width)
            assert abs(rep.m - rep.m_closed) <= 1e-10 * max(abs(rep.m_closed), terms)


def test_budget_disagreement_is_raised(monkeypatch):
    closed = hypercontractivity._budget_closed_form
    monkeypatch.setattr(hypercontractivity, "_budget_closed_form",
                        lambda *args: closed(*args) * (1.0 + 1e-9))
    with pytest.raises(OracleDisagreement):
        bakry_integrals(3, 0.0781, 1.0, 5.0)


def test_time_disagreement_is_raised(monkeypatch):
    rule = hypercontractivity._tanh_sinh

    def drifted(*args, **kwargs):
        sums, err, nodes = rule(*args, **kwargs)
        sums[0, 0] *= 1.0 + 1e-9
        return sums, err, nodes

    monkeypatch.setattr(hypercontractivity, "_tanh_sinh", drifted)
    with pytest.raises(OracleDisagreement, match="^time integral"):
        bakry_integrals(3, 0.0781, 1.0, 5.0)


def test_path_that_misses_the_node_cap_raises(monkeypatch):
    # a path takes 225 nodes, two levels: at a cap of 224 the rule reports
    # the miss before any estimate, and bakry_integrals raises it
    monkeypatch.setattr(hypercontractivity, "_PATH_NODES", 224)
    with pytest.raises(AccuracyNotMet, match="the tanh-sinh integrals miss 1e-13 relative "
                                             "within 224 nodes$") as exc:
        bakry_integrals(3, 0.0781, 1.0, 5.0)
    assert exc.value.estimates is None


def test_criterion_11_sweep_warns_nothing():
    # the sampling of criterion 11, and a draw where adaptive quadrature
    # used to print "The integral is probably divergent"
    rng = np.random.default_rng(1011)
    points = [(4, 0.8711878383996956, 0.4242406537262642, 0.31288433339297206)]
    for _ in range(400):
        n = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        points.append((n, a, b, b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, a, b, lam in points:
            rep = bakry_integrals(n, a, b, lam)
            assert rep.m == pytest.approx(rep.m_closed, rel=1e-12)


def test_sharp_constant_saturates_bound():
    # with A = 2/(n pi e) the budget equals the heat bound for every lambda
    for n in (1, 2, 3):
        a = sharp_a(n)
        lam_lo = 1.05 / (4.0 * a)  # clears the variance admissibility floor
        for lam in np.geomspace(lam_lo, 30.0, 5):
            rep = bakry_integrals(n, a, 1.0, float(lam))
            if not rep.in_range:
                continue
            assert rep.m - rep.bound_rhs == pytest.approx(0.0, abs=1e-10)
            assert rep.passed


def test_budget_gap_is_constant_in_lambda_and_b():
    # m - bound depends only on A: (n/2)(1 + ln(A pi n / 2))
    n = 3
    a = 2.0 * sharp_a(n)
    gaps = []
    for b, lam in ((0.0, 2.0), (1.0, 5.0), (0.4, 9.0)):
        rep = bakry_integrals(n, a, b, lam)
        gaps.append(rep.m - rep.bound_rhs)
    expected = 0.5 * n * math.log(2.0)
    for g in gaps:
        assert g == pytest.approx(expected, rel=1e-10)


def test_admissibility_guard():
    # lambda A must clear B max (s-1)/s^2 along the path
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 8.0, 1.0)  # needs lam >= 2
    bakry_integrals(3, 1.0, 8.0, 2.0)  # boundary is fine
    # on [3, 4] the floor drops to h(3) = 2/9
    bakry_integrals(3, 1.0, 8.0, 8.0 * 2.0 / 9.0 + 1e-9, p_from=3.0, q_to=4.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 8.0, 8.0 * 2.0 / 9.0 - 1e-3, p_from=3.0, q_to=4.0)


def test_parameter_validation():
    # a dimension below 1, fractional or not finite (nan and inf once
    # escaped as ValueError and OverflowError from int())
    for n in (0, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            bakry_integrals(n, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 1.0, p_from=3.0, q_to=2.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 1.0, p_from=0.5)
    # non-finite A, B, lambda and slack, and a negative slack
    for a, b, lam in ((math.nan, 1.0, 5.0), (math.inf, 1.0, 5.0), (0.1, math.nan, 5.0),
                      (0.1, math.inf, 5.0), (0.1, 1.0, math.nan), (0.1, 1.0, math.inf)):
        with pytest.raises(DomainError):
            bakry_integrals(3, a, b, lam)
    # A lambda or B/(A lambda) outside the float range
    for a, b, lam in ((1e300, 0.0, 1e300), (1e-300, 0.0, 1e-300), (1e-300, 1.0, 1e-10)):
        with pytest.raises(DomainError):
            bakry_integrals(3, a, b, lam)
    for slack in (math.nan, math.inf, -0.01):
        with pytest.raises(DomainError):
            bakry_integrals(3, 0.0781, 1.0, 5.0, slack=slack)


def test_ultracontractivity_table():
    n = 3
    a = sharp_a(n)
    # validity boundary t = (n/2)(A/B) = 0.117...; 0.3 falls beyond it
    rep = ultracontractivity_check(n, a, 1.0, [0.01, 0.05, 0.3])
    assert rep.all_pass_in_range
    assert rep.rows[0]["admissible"] and rep.rows[0]["passed"]
    assert rep.rows[1]["admissible"] and rep.rows[1]["passed"]
    assert not rep.rows[2]["admissible"]
    assert "note" in rep.rows[2]
    with pytest.raises(DomainError):
        ultracontractivity_check(n, a, 1.0, [0.05, -0.1])
    # an infinite or undefined time is invalid input, not an inadmissible row
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            ultracontractivity_check(n, a, 1.0, [0.05, t])
    for a_const, b_const, slack in ((math.nan, 1.0, 0.05), (a, math.inf, 0.05), (a, 1.0, math.nan)):
        with pytest.raises(DomainError):
            ultracontractivity_check(n, a_const, b_const, [0.05], slack=slack)


def test_ultracontractivity_fails_above_sharp():
    # doubling A overshoots the heat bound by (n/2) ln 2 at every time
    n = 3
    rep = ultracontractivity_check(n, 2.0 * sharp_a(n), 0.0, [0.01, 0.05])
    assert not rep.all_pass_in_range
    for r in rep.rows:
        assert r["m"] - r["bound_rhs"] == pytest.approx(1.5 * math.log(2.0), rel=1e-10)


def test_heat_norm_small_time_is_euclidean():
    rep = torus_heat_norm(1, 2.0 * math.pi, 0.01)
    assert rep.value * math.sqrt(4.0 * math.pi * 0.01) == pytest.approx(1.0, abs=1e-12)
    assert rep.lattice_factor == pytest.approx(1.0, abs=1e-15)
    # at small t images beyond the cutoff make doubling the side invisible
    doubled = torus_heat_norm(1, 4.0 * math.pi, 0.01)
    assert doubled.value == pytest.approx(rep.value, rel=1e-12)


def test_heat_norm_long_time_is_inverse_volume():
    rep = torus_heat_norm(2, 2.0, 100.0)
    assert rep.long_time_limit == pytest.approx(0.25, rel=1e-15)
    assert rep.value == pytest.approx(0.25, rel=1e-10)


def test_heat_norm_side_past_the_cutoff_radius():
    """Once L passes sqrt(4 t ln 1e18), the one lattice term is below 1e-18
    and the sum is 1 to the bit, as 1 + 2 e^{-L^2/4t} rounds; no square of
    L is formed, so a side of 1e200 warns nothing (RuntimeWarning is an error
    here)."""
    for n, side, t in ((3, 1e200, 1.0), (2, 1e160, 1e150), (3, 20.0, 1.0)):
        rep = torus_heat_norm(n, side, t)
        assert (rep.lattice_factor, rep.terms) == (1.0, 1)
        assert rep.value == rep.gaussian_factor
    # just inside the radius the term is summed as before
    rep = torus_heat_norm(1, 12.0, 1.0)
    assert rep.terms == 2
    assert rep.lattice_factor == 1.0 + 2.0 * (math.exp(-36.0) + math.exp(-144.0))


def test_heat_norm_ratio_decreases_to_one():
    ratios = [torus_heat_norm(2, 2.0, t).lattice_factor for t in (1.0, 0.5, 0.2, 0.05)]
    assert all(r >= 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-8)


def test_heat_norm_validation():
    for n in (0, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            torus_heat_norm(n, 1.0, 0.1)
    with pytest.raises(DomainError):
        torus_heat_norm(2, -1.0, 0.1)
    with pytest.raises(DomainError):
        torus_heat_norm(2, 1.0, 0.0)
    for side, t in ((1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)):
        with pytest.raises(DomainError):
            torus_heat_norm(2, side, t)


def test_heat_norm_huge_time_skips_the_image_sum():
    # past 4 pi^2 t / L^2 = ln 1e18 the Poisson-dual sum is 1 to double
    # precision, so no images are summed and the value is 1/volume
    for n in (1, 2, 3):
        for t in (1e13, 1e300):
            rep = torus_heat_norm(n, 2.0, t)
            assert rep.terms == 0
            assert rep.value == pytest.approx(rep.long_time_limit, rel=1e-12)
            # the ratio value / Gaussian is reported while it is a float
            if rep.gaussian_factor > 0 and math.isfinite(rep.value / rep.gaussian_factor):
                assert rep.lattice_factor == rep.value / rep.gaussian_factor
            else:
                assert rep.lattice_factor is None
    assert torus_heat_norm(3, 2.0, 1e300).lattice_factor is None
    # just below the switch the image sum still runs, and agrees with it
    t_switch = math.log(1e18) * 4.0 / (4.0 * math.pi**2)
    below, above = torus_heat_norm(2, 2.0, 0.999 * t_switch), torus_heat_norm(2, 2.0, t_switch * 1.001)
    assert below.terms > 0 and above.terms == 0
    assert below.value == pytest.approx(0.25, rel=1e-14)
    assert above.lattice_factor == pytest.approx(above.value / above.gaussian_factor, rel=1e-15)


def test_curvature_bound():
    assert curvature_second_constant_bound(ManifoldModel.sphere(3)) == pytest.approx(
        1.0 / (math.pi * math.e), rel=1e-14
    )
    assert curvature_second_constant_bound(ManifoldModel.torus(3, side=2.0)) == 0.0
    # radius-2 sphere in dimension 4: R = 12/4 = 3
    assert curvature_second_constant_bound(ManifoldModel.sphere(4, radius=2.0)) == pytest.approx(
        3.0 / (8.0 * math.pi * math.e), rel=1e-14
    )
